//! Determinism regression test for the parallel campaign executor: a
//! sweep run with `jobs = 4` must produce Measurement vectors that are
//! field-for-field identical (exact f64 bits included) to `jobs = 1`.
//!
//! All comparisons use exact equality on purpose — the executor's
//! contract is that parallelism changes *nothing* about the results,
//! only the wall-clock. Every simulation point owns its engine and its
//! RNG, and results are collected by sweep index.

use bounce_atomics::Primitive;
use bounce_harness::campaign::{default_cfg, fit_and_validate, TrainSplit};
use bounce_harness::sweeps::{sweep_threads, sweep_workloads};
use bounce_harness::{set_jobs, sim_measure_seeds, Measurement, SimRunConfig};
use bounce_topo::presets;
use bounce_workloads::Workload;

fn assert_meas_eq(a: &Measurement, b: &Measurement, what: &str) {
    assert_eq!(a.workload, b.workload, "{what}: workload");
    assert_eq!(a.machine, b.machine, "{what}: machine");
    assert_eq!(a.backend, b.backend, "{what}: backend");
    assert_eq!(a.n, b.n, "{what}: n");
    let bits = f64::to_bits;
    assert_eq!(
        bits(a.throughput_ops_per_sec),
        bits(b.throughput_ops_per_sec),
        "{what}: throughput"
    );
    assert_eq!(
        bits(a.goodput_ops_per_sec),
        bits(b.goodput_ops_per_sec),
        "{what}: goodput"
    );
    assert_eq!(
        bits(a.cond_attempts_per_sec),
        bits(b.cond_attempts_per_sec),
        "{what}: cond_attempts"
    );
    assert_eq!(
        bits(a.failure_rate),
        bits(b.failure_rate),
        "{what}: failure_rate"
    );
    assert_eq!(
        bits(a.mean_latency_cycles),
        bits(b.mean_latency_cycles),
        "{what}: mean_latency"
    );
    assert_eq!(
        bits(a.p50_latency_cycles),
        bits(b.p50_latency_cycles),
        "{what}: p50"
    );
    assert_eq!(
        bits(a.p99_latency_cycles),
        bits(b.p99_latency_cycles),
        "{what}: p99"
    );
    assert_eq!(bits(a.jain), bits(b.jain), "{what}: jain");
    assert_eq!(
        a.energy_per_op_nj.map(bits),
        b.energy_per_op_nj.map(bits),
        "{what}: energy"
    );
    assert_eq!(
        a.transfers_by_domain, b.transfers_by_domain,
        "{what}: transfers_by_domain"
    );
    assert_eq!(a.ops_by_prim, b.ops_by_prim, "{what}: ops_by_prim");
    assert_eq!(a.per_thread_ops, b.per_thread_ops, "{what}: per_thread_ops");
}

/// One test body covers every wired-through sweep so the global job
/// count is never mutated concurrently by sibling tests.
#[test]
fn parallel_sweeps_match_serial_field_for_field() {
    let topo = presets::tiny_test_machine();
    let cfg = SimRunConfig::for_machine(&topo).quick();
    let hc = Workload::HighContention {
        prim: Primitive::Faa,
    };
    let ns = [1usize, 2, 4, 6, 8];

    // sweep_threads
    set_jobs(1);
    let serial = sweep_threads(&topo, &hc, &ns, &cfg).unwrap();
    set_jobs(4);
    let parallel = sweep_threads(&topo, &hc, &ns, &cfg).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_meas_eq(a, b, &format!("sweep_threads n={}", a.n));
    }

    // sweep_workloads
    let battery = Workload::standard_battery();
    set_jobs(1);
    let serial = sweep_workloads(&topo, &battery[..4], 4, &cfg).unwrap();
    set_jobs(4);
    let parallel = sweep_workloads(&topo, &battery[..4], 4, &cfg).unwrap();
    for (a, b) in serial.iter().zip(&parallel) {
        assert_meas_eq(a, b, &format!("sweep_workloads {}", a.workload));
    }

    // sim_measure_seeds (Random arbitration actually consumes the RNG)
    let mut rcfg = cfg.clone();
    rcfg.params.arbitration = bounce_sim::ArbitrationPolicy::Random;
    set_jobs(1);
    let serial =
        sim_measure_seeds(&topo, &hc, 4, &rcfg, &[1, 2, 3, 4, 5, 6]).expect("serial seeds measure");
    set_jobs(4);
    let parallel = sim_measure_seeds(&topo, &hc, 4, &rcfg, &[1, 2, 3, 4, 5, 6])
        .expect("parallel seeds measure");
    assert_eq!(
        serial.mean_throughput.to_bits(),
        parallel.mean_throughput.to_bits(),
        "seeded mean throughput"
    );
    assert_eq!(
        serial.throughput_cv.to_bits(),
        parallel.throughput_cv.to_bits(),
        "seeded cv"
    );
    for (a, b) in serial.runs.iter().zip(&parallel.runs) {
        assert_meas_eq(a, b, "sim_measure_seeds");
    }

    // fit_and_validate campaign: measurements and fitted params
    let ccfg = default_cfg(&topo, 300_000);
    set_jobs(1);
    let serial = fit_and_validate(
        &topo,
        Primitive::Faa,
        &[1, 2, 4, 8],
        &ccfg,
        &bounce_core::ModelParams::tiny_default(),
        TrainSplit::All,
    )
    .expect("serial campaign measures");
    set_jobs(4);
    let parallel = fit_and_validate(
        &topo,
        Primitive::Faa,
        &[1, 2, 4, 8],
        &ccfg,
        &bounce_core::ModelParams::tiny_default(),
        TrainSplit::All,
    )
    .expect("parallel campaign measures");
    for (a, b) in serial.measurements.iter().zip(&parallel.measurements) {
        assert_meas_eq(a, b, &format!("campaign n={}", a.n));
    }
    assert_eq!(
        serial.throughput_mape().to_bits(),
        parallel.throughput_mape().to_bits(),
        "campaign MAPE"
    );

    set_jobs(0);
}
