//! Placement advisor: one of the "algorithmic design decisions" the
//! paper says the model facilitates. Given a machine and a thread
//! count, rank the placement policies by predicted high-contention
//! throughput — then verify the ranking against the simulator.
//!
//! ```text
//! cargo run --release --example placement_advisor [n]
//! ```

use bounce::harness::simrun::{sim_measure_pinned, SimRunConfig};
use bounce::model::{Model, ModelParams};
use bounce::sim::ArbitrationPolicy;
use bounce::topo::{presets, Placement};
use bounce::workloads::Workload;
use bounce_atomics::Primitive;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let topo = presets::xeon_e5_2695_v4();
    let model = Model::new(topo.clone(), ModelParams::e5_default());
    let mut cfg = SimRunConfig::for_machine(&topo);
    cfg.params.arbitration = ArbitrationPolicy::Fifo;

    println!("machine: {}", topo.name);
    println!("advising placement for {n} threads under HC FAA\n");
    println!(
        "{:>10} {:>14} {:>12} {:>14} {:>14}",
        "placement", "E[t] cycles", "cross share", "model Mops/s", "sim Mops/s"
    );

    let mut ranked: Vec<(Placement, f64)> = Vec::new();
    for p in Placement::ALL {
        let hw = p.assign(&topo, n);
        let pred = model.predict_hc(&hw, Primitive::Faa);
        let meas = sim_measure_pinned(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            &hw,
            &cfg,
        )?;
        println!(
            "{:>10} {:>14.1} {:>12.3} {:>14.2} {:>14.2}",
            p.label(),
            pred.expected_transfer_cycles,
            pred.mixture[4],
            pred.throughput_ops_per_sec / 1e6,
            meas.throughput_ops_per_sec / 1e6,
        );
        ranked.push((p, pred.throughput_ops_per_sec));
    }
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "\nmodel's recommendation: pin '{}' — it minimises the share of\n\
         cross-socket line transfers in the ownership rotation.",
        ranked[0].0.label()
    );
    Ok(())
}
