//! Quickstart: predict high-contention FAA throughput on the Xeon E5
//! with the cache-line-bouncing model, then check the prediction against
//! the coherence simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bounce::harness::simrun::{sim_measure, SimRunConfig};
use bounce::model::{Model, ModelParams};
use bounce::sim::ArbitrationPolicy;
use bounce::topo::{presets, Placement};
use bounce::workloads::Workload;
use bounce_atomics::Primitive;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The machine: the paper's 2-socket Xeon E5 (simulated).
    let topo = presets::xeon_e5_2695_v4();
    println!("machine: {}\n", topo.name);

    // 2. The model: four transfer costs + per-primitive issue costs.
    let model = Model::new(topo.clone(), ModelParams::e5_default());
    let order = Placement::Packed.full_order(&topo);

    // 3. The simulator stands in for the hardware.
    let mut cfg = SimRunConfig::for_machine(&topo);
    cfg.params.arbitration = ArbitrationPolicy::Fifo;

    println!("high contention, fetch-and-add on one shared line:");
    println!(
        "{:>4} {:>16} {:>16} {:>10}",
        "n", "sim Mops/s", "model Mops/s", "err %"
    );
    for n in [1usize, 2, 4, 8, 18, 36, 72] {
        let meas = sim_measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            n,
            &cfg,
        )?;
        let pred = model.predict_hc(&order[..n], Primitive::Faa);
        let err = (pred.throughput_ops_per_sec - meas.throughput_ops_per_sec).abs()
            / meas.throughput_ops_per_sec
            * 100.0;
        println!(
            "{:>4} {:>16.2} {:>16.2} {:>9.1}%",
            n,
            meas.throughput_ops_per_sec / 1e6,
            pred.throughput_ops_per_sec / 1e6,
            err
        );
    }

    println!("\nthe cliff from n=1 to n=2 is the model's whole story:");
    println!("one thread hits in its L1 (cost c_p); two threads bounce the line");
    println!("(cost E[t] per op, an order of magnitude more).");
    Ok(())
}
