//! Regression net for the model's headline accuracy results: these pin
//! the agreements EXPERIMENTS.md reports so a simulator or model change
//! that silently degrades them fails CI.

use bounce::harness::simrun::{sim_measure, sim_measure_pinned, SimRunConfig};
use bounce::model::fairness::{predict_jain, ArbitrationKind};
use bounce::model::{Model, ModelParams};
use bounce::sim::ArbitrationPolicy;
use bounce::topo::{presets, Placement};
use bounce::workloads::Workload;
use bounce_atomics::Primitive;

fn cfg(topo: &bounce::topo::MachineTopology, arb: ArbitrationPolicy) -> SimRunConfig {
    let mut cfg = SimRunConfig::for_machine(topo);
    cfg.params.arbitration = arb;
    cfg.duration_cycles = 1_000_000;
    cfg
}

/// Fig 4's headline: the arbitration abstraction predicts nearest-first
/// fairness almost exactly through the physical-core range.
#[test]
fn fairness_prediction_matches_sim_closely() {
    let topo = presets::xeon_e5_2695_v4();
    let order = Placement::Scattered.full_order(&topo);
    for n in [4usize, 8, 12, 24] {
        let meas = sim_measure_pinned(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            &order[..n],
            &cfg(&topo, ArbitrationPolicy::NearestFirst),
        )
        .expect("pinned simulation completes");
        let pred = predict_jain(&topo, &order[..n], ArbitrationKind::NearestFirst);
        assert!(
            (meas.jain - pred).abs() < 0.03,
            "n={n}: sim {:.3} vs model {:.3}",
            meas.jain,
            pred
        );
    }
}

/// Fig 10's headline: the TAS handoff formula f/(cs + n·E[t]) tracks
/// the simulator within ~15% across the sweep.
#[test]
fn tas_lock_handoff_formula_tracks_sim() {
    let topo = presets::xeon_e5_2695_v4();
    let model = Model::new(topo.clone(), ModelParams::e5_default());
    let mut c = cfg(&topo, ArbitrationPolicy::Fifo);
    c.duration_cycles = 2_000_000;
    for n in [2usize, 8, 36] {
        let meas = sim_measure(
            &topo,
            &Workload::LockHandoff {
                shape: bounce::workloads::LockShape::Tas,
                cs: 100,
                noncs: 100,
            },
            n,
            &c,
        )
        .expect("simulation completes");
        let threads = Placement::Packed.assign(&topo, n);
        let pred_tas = model
            .predict_lock_handoffs(&threads, 100.0)
            .get(bounce::workloads::LockShape::Tas);
        let rel = (pred_tas - meas.goodput_ops_per_sec).abs() / meas.goodput_ops_per_sec;
        assert!(
            rel < 0.15,
            "n={n}: model {:.2}M vs sim {:.2}M ({:.0}% off)",
            pred_tas / 1e6,
            meas.goodput_ops_per_sec / 1e6,
            rel * 100.0
        );
    }
}

/// Fig 14's headline: the hot-line bound tracks Zipf throughput, and
/// throughput declines monotonically with skew.
#[test]
fn zipf_throughput_declines_and_bound_holds() {
    let topo = presets::xeon_e5_2695_v4();
    let model = Model::new(topo.clone(), ModelParams::e5_default());
    let c = cfg(&topo, ArbitrationPolicy::Fifo);
    let n = 16;
    let lines = 8;
    let order = Placement::Packed.assign(&topo, n);
    let mut last = f64::INFINITY;
    for theta in [0.0f64, 0.8, 1.6] {
        let meas = sim_measure(
            &topo,
            &Workload::Zipf {
                prim: Primitive::Faa,
                lines,
                theta,
                seed: 7,
            },
            n,
            &c,
        )
        .expect("simulation completes");
        let x = meas.throughput_ops_per_sec;
        assert!(x < last * 1.05, "θ={theta}: throughput must not rise");
        last = x;
        if theta > 0.0 {
            let p0 = bounce::workloads::Zipf::new(lines, theta).pmf(0);
            let hc = model
                .predict_hc(&order, Primitive::Faa)
                .throughput_ops_per_sec;
            let bound = hc / p0;
            let rel = (bound - x).abs() / x;
            assert!(
                rel < 0.25,
                "θ={theta}: bound {:.1}M vs sim {:.1}M",
                bound / 1e6,
                x / 1e6
            );
        }
    }
}

/// Fig 13's headline: striping speedup within 25% of the striped-model
/// prediction at every point.
#[test]
fn striping_model_tracks_every_point() {
    let topo = presets::xeon_phi_7290();
    let model = Model::new(topo.clone(), ModelParams::knl_default());
    let c = cfg(&topo, ArbitrationPolicy::Fifo);
    let n = 16;
    let order = Placement::Packed.assign(&topo, n);
    for lines in [1usize, 2, 4, 8] {
        let meas = sim_measure(
            &topo,
            &Workload::MultiLine {
                prim: Primitive::Faa,
                lines,
            },
            n,
            &c,
        )
        .expect("simulation completes");
        let pred = model
            .predict_multiline(&order, Primitive::Faa, lines)
            .throughput_ops_per_sec;
        let rel = (pred - meas.throughput_ops_per_sec).abs() / meas.throughput_ops_per_sec;
        assert!(
            rel < 0.35,
            "lines={lines}: model {:.1}M vs sim {:.1}M",
            pred / 1e6,
            meas.throughput_ops_per_sec / 1e6
        );
    }
}
