//! Model fitting end-to-end: measure a high-contention sweep on the
//! simulated KNL, recover the transfer costs by Nelder–Mead, and report
//! prediction error on the full sweep (the Fig 7 / E9 workflow).
//!
//! ```text
//! cargo run --release --example model_fit
//! ```

use bounce::harness::simrun::{sim_measure, SimRunConfig};
use bounce::model::fit::{fit_transfer_costs, ScenarioObservation};
use bounce::model::validate::{mape, validated_rows, ValidationMetric};
use bounce::model::{Model, ModelParams, Predictor, Scenario};
use bounce::sim::{ArbitrationPolicy, SimError};
use bounce::topo::{presets, Placement, PlacementOrder};
use bounce::workloads::Workload;
use bounce_atomics::Primitive;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = presets::xeon_phi_7290();
    let mut cfg = SimRunConfig::for_machine(&topo);
    cfg.params.arbitration = ArbitrationPolicy::Fifo;
    let order = PlacementOrder::new(Placement::Packed, &topo);
    let w = Workload::HighContention {
        prim: Primitive::Faa,
    };

    // 1. Measure the sweep. Each point's model input is the scenario
    //    the workload itself derives — the same spec the simulator ran.
    println!("measuring HC FAA sweep on simulated {} ...", topo.name);
    let ns = [2usize, 4, 8, 16, 32, 64, 144, 288];
    let measured = ns
        .iter()
        .map(|&n| {
            let m = sim_measure(&topo, &w, n, &cfg)?;
            let scenario = w
                .scenario(order.threads_of(n))
                .expect("high contention maps to a scenario");
            Ok((scenario, m.throughput_ops_per_sec))
        })
        .collect::<Result<Vec<(Scenario, f64)>, SimError>>()?;

    // 2. Fit the four transfer costs on the even points.
    let train: Vec<ScenarioObservation> = measured
        .iter()
        .step_by(2)
        .map(|(s, x)| ScenarioObservation::new(s.clone(), *x))
        .collect();
    let fit = fit_transfer_costs(&topo, &train, &ModelParams::knl_default());
    println!(
        "\nfitted transfer costs (cycles): smt={:.1} tile={:.1} socket={:.1} cross={:.1}",
        fit.params.transfer.smt,
        fit.params.transfer.tile,
        fit.params.transfer.socket,
        fit.params.transfer.cross
    );
    println!(
        "training residual (rms relative error): {:.2}% over {} points, {} simplex iters",
        fit.rms_rel_error * 100.0,
        train.len(),
        fit.iterations
    );

    // 3. Validate on the whole sweep (including held-out points).
    let model = Model::new(topo.clone(), fit.params.clone());
    let triples: Vec<_> = measured
        .iter()
        .map(|(s, x)| (s.clone(), model.predict(s), *x))
        .collect();
    let rows = validated_rows(&triples, ValidationMetric::Throughput);
    println!(
        "\n{:>5} {:>14} {:>14} {:>8}",
        "n", "measured Mops", "predicted Mops", "err %"
    );
    for row in &rows {
        println!(
            "{:>5} {:>14.2} {:>14.2} {:>7.1}%",
            row.n,
            row.measured / 1e6,
            row.predicted / 1e6,
            row.ape_pct()
        );
    }
    println!("\nMAPE over the sweep: {:.2}%", mape(&rows));
    Ok(())
}
