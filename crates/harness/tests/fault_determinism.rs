//! Fabric fault-injection determinism: the fault schedule is a pure
//! function of `SimParams::seed`, so a faulted sweep must produce
//! bit-identical measurements at any `--jobs` count, and the all-zero
//! default config must leave the fault-free path untouched byte for
//! byte even though the fault code is compiled in.
//!
//! Comparisons go through `format!("{:?}")` of the full `Measurement`
//! vector: `Debug` renders every field including exact shortest
//! round-trip floats, so two equal strings mean field-for-field
//! bit-equality. One test body covers both properties because it
//! mutates the global job count, which sibling tests in the same
//! process would race on (same reason `determinism.rs` is one body).

use bounce_atomics::Primitive;
use bounce_harness::sweeps::{measurements_json, sweep_threads};
use bounce_harness::{set_jobs, SimRunConfig};
use bounce_sim::{FabricFaultConfig, RetryPolicy};
use bounce_topo::presets;
use bounce_workloads::Workload;

const NS: [usize; 3] = [2, 4, 8];

fn faulted_cfg(fabric: FabricFaultConfig, retry: RetryPolicy) -> SimRunConfig {
    let topo = presets::tiny_test_machine();
    SimRunConfig::for_machine(&topo)
        .quick()
        .with_fabric_faults(fabric)
        .with_retry_policy(retry)
}

fn sweep_debug(cfg: &SimRunConfig, workload: &Workload) -> String {
    let topo = presets::tiny_test_machine();
    format!("{:?}", sweep_threads(&topo, workload, &NS, cfg).unwrap())
}

#[test]
fn fault_injection_is_deterministic_and_default_is_inert() {
    // --- Any fabric-fault configuration — occupancy NACKs, stochastic
    // NACKs, congestion, jitter, and combinations — yields bit-identical
    // sweeps at jobs 1, 4 and 8.
    let configs = [
        FabricFaultConfig::light(),
        FabricFaultConfig::moderate(),
        FabricFaultConfig::severe(),
        // An asymmetric hand-built config hitting every knob at once.
        FabricFaultConfig {
            nack_per_mille: 175,
            max_pending_per_bank: 3,
            congestion_interval_cycles: 7_000,
            congestion_len_cycles: 1_900,
            congestion_multiplier: 5,
            jitter_cycles: 11,
        },
    ];
    let retries = [
        RetryPolicy::backoff(),
        RetryPolicy::eager(),
        RetryPolicy::patient(),
    ];
    let hc = Workload::HighContention {
        prim: Primitive::Faa,
    };
    for (fabric, retry) in configs.into_iter().zip(retries.into_iter().cycle()) {
        let cfg = faulted_cfg(fabric, retry);
        set_jobs(1);
        let serial = sweep_debug(&cfg, &hc);
        for jobs in [4, 8] {
            set_jobs(jobs);
            assert_eq!(
                serial,
                sweep_debug(&cfg, &hc),
                "fabric={fabric:?} retry={retry:?} diverged at jobs={jobs}"
            );
        }
    }

    // --- `FabricFaultConfig::default()` injects nothing: with the
    // fault code compiled in but disabled, a sweep is byte-identical to
    // one that never mentions the fabric config at all — including the
    // serialized sweep JSON downstream tooling consumes.
    let topo = presets::tiny_test_machine();
    let baseline_cfg = SimRunConfig::for_machine(&topo).quick();
    let disabled_cfg = faulted_cfg(FabricFaultConfig::default(), RetryPolicy::default());
    let w = Workload::CasRetryLoop {
        window: 30,
        work: 0,
    };
    set_jobs(4);
    let baseline = sweep_threads(&topo, &w, &NS, &baseline_cfg).unwrap();
    let disabled = sweep_threads(&topo, &w, &NS, &disabled_cfg).unwrap();
    assert_eq!(
        format!("{baseline:?}"),
        format!("{disabled:?}"),
        "default fabric config must not perturb the fault-free path"
    );
    assert_eq!(
        measurements_json("cas30", &baseline),
        measurements_json("cas30", &disabled),
        "sweep JSON must match byte for byte"
    );
    set_jobs(0);
}
