//! Model *your* machine: build a custom topology with the fluent
//! builder, give the model a parameter guess, measure on the simulator,
//! fit, and compare — the full workflow a user follows for a box that
//! is neither of the paper's presets.
//!
//! ```text
//! cargo run --release --example custom_machine
//! ```

use bounce::harness::campaign::{default_cfg, fit_and_validate, TrainSplit};
use bounce::model::ModelParams;
use bounce::topo::TopologyBuilder;
use bounce_atomics::Primitive;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hypothetical 4-socket, chiplet-style box: 4 sockets × 4 tiles ×
    // 2 cores × 2 SMT = 64 hardware threads on a per-socket ring.
    let topo = TopologyBuilder::new("hypothetical 4S chiplet box")
        .sockets(4)
        .tiles_per_socket(4)
        .cores_per_tile(2)
        .smt(2)
        .ring(3, 4, 140)
        .l1_kib(32, 8, 4)
        .l2_kib(512, 8, 12)
        .l3_mib(16, 16, 38)
        .freq_ghz(2.4)
        .build()
        .expect("valid custom machine");
    println!("{}", topo.render_ascii());

    // Start from E5-ish guesses with the right frequency.
    let mut initial = ModelParams::e5_default();
    initial.freq_ghz = topo.freq_ghz;

    let ns = [1usize, 2, 4, 8, 16, 32, 48, 64];
    println!("fitting the model against the simulated machine ...\n");
    let campaign = fit_and_validate(
        &topo,
        Primitive::Faa,
        &ns,
        &default_cfg(&topo, 1_500_000),
        &initial,
        TrainSplit::Alternate,
    )?;
    let t = &campaign.fit.params.transfer;
    println!(
        "fitted: t_smt={:.0} t_tile={:.0} t_socket={:.0} t_cross={:.0} cycles",
        t.smt, t.tile, t.socket, t.cross
    );
    println!(
        "validation: throughput MAPE {:.1}%, latency MAPE {:.1}%\n",
        campaign.throughput_mape(),
        campaign.latency_mape()
    );
    println!(
        "{:>4} {:>14} {:>14} {:>8}",
        "n", "sim Mops/s", "model Mops/s", "err %"
    );
    for row in &campaign.throughput_rows {
        println!(
            "{:>4} {:>14.2} {:>14.2} {:>7.1}%",
            row.n,
            row.measured / 1e6,
            row.predicted / 1e6,
            row.ape_pct()
        );
    }
    println!("\nthe same four-scalar model, fitted in seconds, for a machine");
    println!("that exists nowhere but in the builder call above.");
    Ok(())
}
