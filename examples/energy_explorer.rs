//! Energy explorer: the paper's fourth currency. Shows the
//! energy-per-operation curves under high and low contention on both
//! simulated machines, against the model's linear-in-N law
//! `E/op ≈ N·P_static/X + e_dyn`.
//!
//! ```text
//! cargo run --release --example energy_explorer
//! ```

use bounce::harness::experiments::Machine;
use bounce::harness::simrun::{sim_measure, SimRunConfig};
use bounce::model::Model;
use bounce::sim::ArbitrationPolicy;
use bounce::topo::Placement;
use bounce::workloads::Workload;
use bounce_atomics::Primitive;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for machine in Machine::ALL {
        let topo = machine.topo();
        let model = Model::new(topo.clone(), machine.model_params());
        let order = Placement::Packed.full_order(&topo);
        let mut cfg = SimRunConfig::for_machine(&topo);
        cfg.params.arbitration = ArbitrationPolicy::Fifo;

        println!("== {} ==", topo.name);
        println!(
            "{:>4} {:>14} {:>14} {:>14}",
            "n", "HC nJ/op (sim)", "HC nJ/op (model)", "LC nJ/op (sim)"
        );
        let ns: Vec<usize> = match machine {
            Machine::E5 => vec![1, 2, 4, 8, 18, 36],
            Machine::Knl => vec![1, 4, 16, 64, 144],
        };
        for n in ns {
            let hc = sim_measure(
                &topo,
                &Workload::HighContention {
                    prim: Primitive::Faa,
                },
                n,
                &cfg,
            )?;
            let lc = sim_measure(
                &topo,
                &Workload::LowContention {
                    prim: Primitive::Faa,
                    work: 0,
                },
                n,
                &cfg,
            )?;
            let pred = model.predict_hc(&order[..n], Primitive::Faa);
            println!(
                "{:>4} {:>14.1} {:>14.1} {:>14.1}",
                n,
                hc.energy_per_op_nj.unwrap_or(0.0),
                pred.energy_per_op_nj,
                lc.energy_per_op_nj.unwrap_or(0.0),
            );
        }
        println!();
    }
    println!("reading the table: under HC every waiting core burns static power");
    println!("while the line serialises — energy/op grows ~linearly with N.");
    println!("Under LC the work parallelises, so energy/op stays flat.");
    Ok(())
}
