//! Lock shootout: the application case study (Fig 10 / E12). Compares
//! TAS, TTAS and ticket locks under growing contention on the simulated
//! Xeon E5 — and, because the same lock implementations are real code,
//! also runs them natively on the host for a correctness-level sanity
//! check.
//!
//! ```text
//! cargo run --release --example lock_shootout
//! ```

use bounce::harness::simrun::{sim_measure, SimRunConfig};
use bounce::sim::ArbitrationPolicy;
use bounce::topo::presets;
use bounce::workloads::apps::run_lock;
use bounce::workloads::{LockShape, Workload};
use bounce_atomics::LockKind;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = presets::xeon_e5_2695_v4();
    let mut cfg = SimRunConfig::for_machine(&topo);
    cfg.params.arbitration = ArbitrationPolicy::Fifo;
    cfg.duration_cycles = 4_000_000;

    println!(
        "simulated {}: lock handoffs per second (cs=100cy)\n",
        topo.name
    );
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "n", "tas Mops", "ttas Mops", "ticket Mops", "mcs Mops", "ticket Jain"
    );
    for n in [2usize, 4, 8, 18, 36] {
        let mut row = Vec::new();
        let mut jain = 1.0;
        for shape in LockShape::ALL {
            let m = sim_measure(
                &topo,
                &Workload::LockHandoff {
                    shape,
                    cs: 100,
                    noncs: 100,
                },
                n,
                &cfg,
            )?;
            row.push(m.goodput_ops_per_sec / 1e6);
            if shape == LockShape::Ticket {
                jain = m.jain;
            }
        }
        println!(
            "{:>4} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            n, row[0], row[1], row[2], row[3], jain
        );
    }

    println!("\nnative host sanity check (2 threads, 100 ms):");
    for kind in LockKind::ALL {
        let r = run_lock(kind, 2, Duration::from_millis(100), 20);
        println!(
            "  {:<7} {:>12.0} acquisitions/s  (jain {:.3})",
            kind.label(),
            r.throughput(),
            r.jain()
        );
    }
    println!("\nreading the simulated table: the ticket lock scales far better than");
    println!("the TAS family once spinners crowd the lock line, and stays");
    println!("perfectly fair (Jain = 1.0) by construction.");
    Ok(())
}
