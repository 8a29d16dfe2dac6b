//! Adaptive run-length properties at the harness level:
//!
//! * accuracy — an adaptive run's throughput must land within the
//!   configured confidence band of the fixed full-budget measurement
//!   for randomized workload/thread-count points;
//! * determinism — the adaptive early-stop decision is a function of
//!   simulated time only, so repeated runs and parallel sweeps are
//!   bit-identical.

use bounce_atomics::Primitive;
use bounce_harness::{set_jobs, sim_measure, SimRunConfig};
use bounce_sim::RunLength;
use bounce_topo::presets;
use bounce_workloads::Workload;
use proptest::prelude::*;

/// Tolerance for adaptive vs fixed throughput: the adaptive run stops
/// once the *estimated* 95% relative CI half-width falls below
/// `rel_ci`; batch-means estimates on short windows are themselves
/// noisy, so allow a few half-widths of slack.
fn tolerance(rel_ci: f64) -> f64 {
    (3.0 * rel_ci).max(0.10)
}

fn workload_from(raw: u8) -> Workload {
    match raw % 4 {
        0 => Workload::HighContention {
            prim: Primitive::Faa,
        },
        1 => Workload::HighContention {
            prim: Primitive::Swap,
        },
        2 => Workload::LowContention {
            prim: Primitive::Faa,
            work: 50,
        },
        _ => Workload::CasRetryLoop {
            window: 30,
            work: 0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Adaptive throughput stays within the configured confidence band
    /// of the fixed-mode ground truth.
    #[test]
    fn adaptive_matches_fixed_within_ci(raw_w in 0u8..4, raw_n in 0u8..3) {
        let topo = presets::tiny_test_machine();
        let w = workload_from(raw_w);
        let n = [1usize, 2, 4][raw_n as usize];
        let fixed_cfg = SimRunConfig::for_machine(&topo).quick();
        let adaptive_cfg = fixed_cfg.clone().with_run_length(RunLength::adaptive());
        let fixed = sim_measure(&topo, &w, n, &fixed_cfg).expect("fixed run measures");
        let adaptive = sim_measure(&topo, &w, n, &adaptive_cfg).expect("adaptive run measures");
        let rel_ci = match RunLength::adaptive() {
            RunLength::Adaptive { rel_ci, .. } => rel_ci,
            RunLength::Fixed { .. } => unreachable!(),
        };
        let rel_err = (adaptive.throughput_ops_per_sec - fixed.throughput_ops_per_sec).abs()
            / fixed.throughput_ops_per_sec;
        prop_assert!(
            rel_err <= tolerance(rel_ci),
            "{} n={}: adaptive {:.3e} vs fixed {:.3e} ops/s, rel err {:.3} > tol {:.3}",
            w.label(), n,
            adaptive.throughput_ops_per_sec, fixed.throughput_ops_per_sec,
            rel_err, tolerance(rel_ci)
        );
    }
}

#[test]
fn adaptive_is_deterministic_and_jobs_invariant() {
    let topo = presets::tiny_test_machine();
    let w = Workload::HighContention {
        prim: Primitive::Faa,
    };
    let cfg = SimRunConfig::for_machine(&topo)
        .quick()
        .with_run_length(RunLength::adaptive());
    let a = sim_measure(&topo, &w, 4, &cfg).expect("default jobs measure");
    set_jobs(4);
    let b = sim_measure(&topo, &w, 4, &cfg).expect("4 jobs measure");
    set_jobs(0);
    assert_eq!(
        a.throughput_ops_per_sec.to_bits(),
        b.throughput_ops_per_sec.to_bits(),
        "adaptive stop decision must not depend on host parallelism"
    );
    assert_eq!(
        a.mean_latency_cycles.to_bits(),
        b.mean_latency_cycles.to_bits()
    );
    assert_eq!(a.per_thread_ops, b.per_thread_ops);
}

#[test]
fn adaptive_terminates_early_on_steady_workload() {
    // A steady high-contention FAA loop converges well before the
    // budget; the throughput numbers must reflect the shorter window
    // (nonzero, same order of magnitude as fixed).
    let topo = presets::tiny_test_machine();
    let w = Workload::HighContention {
        prim: Primitive::Faa,
    };
    let fixed_cfg = SimRunConfig::for_machine(&topo).quick();
    let adaptive_cfg = fixed_cfg.clone().with_run_length(RunLength::adaptive());
    let fixed = sim_measure(&topo, &w, 4, &fixed_cfg).expect("fixed run measures");
    let adaptive = sim_measure(&topo, &w, 4, &adaptive_cfg).expect("adaptive run measures");
    // Early termination shows up as fewer total retired ops at a
    // near-identical rate.
    let fixed_ops: u64 = fixed.per_thread_ops.iter().sum();
    let adaptive_ops: u64 = adaptive.per_thread_ops.iter().sum();
    assert!(
        adaptive_ops < fixed_ops / 2,
        "expected an early stop: adaptive {adaptive_ops} ops vs fixed {fixed_ops}"
    );
}
