//! The simulator backend: workload → engine → [`Measurement`].

use crate::measurement::{Backend, Measurement};
use bounce_sim::{
    Engine, FabricFaultConfig, FaultConfig, RetryPolicy, RunLength, SimConfig, SimError, SimParams,
    SimReport,
};
use bounce_topo::{HwThreadId, MachineTopology, Placement};
use bounce_workloads::Workload;

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimRunConfig {
    /// Protocol/energy parameters.
    pub params: SimParams,
    /// Simulated duration in cycles (warmup is 10% on top).
    pub duration_cycles: u64,
    /// Thread placement policy.
    pub placement: Placement,
}

impl SimRunConfig {
    /// Defaults for a machine: its matching parameter preset, a 2M-cycle
    /// window, packed placement.
    ///
    /// The home directory slice is pinned to slice 0 (the equivalent of
    /// the paper allocating the contended variable on NUMA node 0): with
    /// a hashed home the *same* workload can land its one contended line
    /// on either socket, which changes absolute numbers run to run and
    /// hides the placement effects the experiments sweep.
    pub fn for_machine(topo: &MachineTopology) -> Self {
        let mut params = SimParams::for_machine(topo);
        params.home_policy = bounce_sim::HomePolicy::Fixed(0);
        SimRunConfig {
            params,
            duration_cycles: 2_000_000,
            placement: Placement::Packed,
        }
    }

    /// Shrink the duration (used by `quick` test modes).
    pub fn quick(mut self) -> Self {
        self.duration_cycles = 300_000;
        self
    }

    /// Override the coherence protocol (the ablation experiments sweep
    /// this; everything else keeps the machine's native protocol).
    pub fn with_protocol(mut self, protocol: bounce_sim::CoherenceKind) -> Self {
        self.params.protocol = protocol;
        self
    }

    /// Inject faults (the preemption experiment sweeps this; everything
    /// else runs fault-free).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.params.faults = faults;
        self
    }

    /// Inject fabric faults — directory NACKs, link congestion windows,
    /// message jitter (the degraded-fabric experiment sweeps this; the
    /// default injects nothing and stays bit-identical).
    pub fn with_fabric_faults(mut self, fabric: FabricFaultConfig) -> Self {
        self.params.fabric = fabric;
        self
    }

    /// Override the NACK retry policy (only consulted when fabric
    /// faults actually refuse requests).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.params.retry = retry;
        self
    }

    /// Override the run-length policy (`Fixed` replays the historical
    /// full-budget behaviour; `Adaptive` terminates early on batch-means
    /// convergence).
    pub fn with_run_length(mut self, run_length: RunLength) -> Self {
        self.params.run_length = run_length;
        self
    }
}

/// Run `workload` with `n` threads on the simulated `topo` and reduce to
/// a [`Measurement`]. An invalid config or a forward-progress watchdog
/// trip comes back as a [`SimError`].
pub fn sim_measure(
    topo: &MachineTopology,
    workload: &Workload,
    n: usize,
    cfg: &SimRunConfig,
) -> Result<Measurement, SimError> {
    let hw = cfg.placement.assign(topo, n);
    sim_measure_pinned(topo, workload, &hw, cfg)
}

/// [`sim_measure`] with an explicit hardware-thread assignment (used by
/// the placement experiment).
pub fn sim_measure_pinned(
    topo: &MachineTopology,
    workload: &Workload,
    hw: &[HwThreadId],
    cfg: &SimRunConfig,
) -> Result<Measurement, SimError> {
    let n = hw.len();
    let report = sim_report(topo, workload, hw, cfg)?;
    Ok(Measurement {
        workload: workload.label(),
        machine: topo.name.clone(),
        backend: Backend::Sim,
        n,
        throughput_ops_per_sec: report.throughput_ops_per_sec(),
        goodput_ops_per_sec: report.goodput_ops_per_sec(),
        cond_attempts_per_sec: report.cond_attempts_per_sec(),
        failure_rate: report.failure_rate(),
        mean_latency_cycles: report.mean_latency_cycles(),
        p50_latency_cycles: report.p50_latency_cycles,
        p99_latency_cycles: report.p99_latency_cycles,
        jain: report.jain_fairness(),
        energy_per_op_nj: Some(report.energy_per_op_nj()),
        transfers_by_domain: Some(report.transfers_by_domain),
        ops_by_prim: Some({
            let mut acc = [0u64; 6];
            for t in &report.threads {
                for (a, b) in acc.iter_mut().zip(t.ops_by_prim) {
                    *a += b;
                }
            }
            acc
        }),
        per_thread_ops: report.threads.iter().map(|t| t.ops).collect(),
    })
}

/// Run `workload` pinned to `hw` on the simulated `topo` and return the
/// engine's full report.
pub(crate) fn sim_report(
    topo: &MachineTopology,
    workload: &Workload,
    hw: &[HwThreadId],
    cfg: &SimRunConfig,
) -> Result<SimReport, SimError> {
    // Typed validation before construction: `Engine::new` panics on a
    // bad config, campaigns want the field-naming error instead.
    cfg.params
        .validate()
        .map_err(|error| SimError::InvalidConfig { error })?;
    let sim_cfg = SimConfig::new(cfg.params.clone(), cfg.duration_cycles);
    let mut engine = Engine::new(topo, sim_cfg);
    for (&h, p) in hw.iter().zip(workload.sim_programs(hw.len())) {
        engine.add_thread(h, p);
    }
    engine.try_run()
}

/// Repeat a measurement across RNG seeds (only the `Random` arbitration
/// policy and hashed home salts consume randomness) and summarise.
#[derive(Debug, Clone)]
pub struct SeededSummary {
    /// Per-seed measurements.
    pub runs: Vec<Measurement>,
    /// Mean throughput, ops/s.
    pub mean_throughput: f64,
    /// Coefficient of variation of throughput across seeds.
    pub throughput_cv: f64,
    /// Mean Jain fairness across seeds.
    pub mean_jain: f64,
}

/// Run `workload` once per seed and summarise throughput stability. The
/// first failing seed's [`SimError`] is returned.
///
/// # Panics
/// Panics if `seeds` is empty.
pub fn sim_measure_seeds(
    topo: &MachineTopology,
    workload: &Workload,
    n: usize,
    cfg: &SimRunConfig,
    seeds: &[u64],
) -> Result<SeededSummary, SimError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let runs: Vec<Measurement> = crate::parallel::par_map(seeds, |&seed| {
        let mut c = cfg.clone();
        c.params.seed = seed;
        sim_measure(topo, workload, n, &c)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let xs: Vec<f64> = runs.iter().map(|m| m.throughput_ops_per_sec).collect();
    let js: Vec<f64> = runs.iter().map(|m| m.jain).collect();
    Ok(SeededSummary {
        mean_throughput: bounce_core::stats::mean(&xs),
        throughput_cv: bounce_core::stats::cv(&xs),
        mean_jain: bounce_core::stats::mean(&js),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_atomics::Primitive;
    use bounce_topo::presets;

    #[test]
    fn hc_measurement_has_all_metrics() {
        let topo = presets::tiny_test_machine();
        let cfg = SimRunConfig::for_machine(&topo).quick();
        let m = sim_measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            4,
            &cfg,
        )
        .expect("healthy config measures");
        assert_eq!(m.n, 4);
        assert_eq!(m.backend, Backend::Sim);
        assert!(m.throughput_ops_per_sec > 0.0);
        assert!(m.mean_latency_cycles > 0.0);
        assert!(m.p99_latency_cycles >= m.p50_latency_cycles);
        assert!(m.energy_per_op_nj.unwrap() > 0.0);
        assert!(m.total_transfers().unwrap() > 0);
        assert_eq!(m.per_thread_ops.len(), 4);
    }

    #[test]
    fn lc_measurement_scales() {
        let topo = presets::tiny_test_machine();
        let cfg = SimRunConfig::for_machine(&topo).quick();
        let w = Workload::LowContention {
            prim: Primitive::Faa,
            work: 0,
        };
        let m1 = sim_measure(&topo, &w, 1, &cfg).expect("n=1 measures");
        let m4 = sim_measure(&topo, &w, 4, &cfg).expect("n=4 measures");
        assert!(m4.throughput_ops_per_sec > 3.0 * m1.throughput_ops_per_sec);
        assert_eq!(m4.total_transfers(), Some(0));
    }

    #[test]
    fn cas_loop_reports_failures() {
        let topo = presets::tiny_test_machine();
        let cfg = SimRunConfig::for_machine(&topo).quick();
        let m = sim_measure(
            &topo,
            &Workload::CasRetryLoop {
                window: 30,
                work: 0,
            },
            4,
            &cfg,
        )
        .expect("CAS loop measures");
        assert!(m.failure_rate > 0.0, "contended CAS loop must fail");
        assert!(m.goodput_ops_per_sec < m.throughput_ops_per_sec);
    }

    #[test]
    fn seeded_runs_stable_under_random_arbitration() {
        let topo = presets::tiny_test_machine();
        let mut cfg = SimRunConfig::for_machine(&topo).quick();
        cfg.params.arbitration = bounce_sim::ArbitrationPolicy::Random;
        let s = sim_measure_seeds(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            4,
            &cfg,
            &[1, 2, 3, 4, 5],
        )
        .expect("every seed measures");
        assert_eq!(s.runs.len(), 5);
        assert!(s.mean_throughput > 0.0);
        // Random winner selection barely moves total throughput.
        assert!(s.throughput_cv < 0.1, "cv {:.3}", s.throughput_cv);
        assert!(s.mean_jain > 0.9);
    }

    #[test]
    fn adaptive_run_length_still_measures() {
        let topo = presets::tiny_test_machine();
        let cfg = SimRunConfig::for_machine(&topo)
            .quick()
            .with_run_length(RunLength::adaptive());
        let m = sim_measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            4,
            &cfg,
        )
        .expect("adaptive run measures");
        assert!(m.throughput_ops_per_sec > 0.0);
        assert!(m.mean_latency_cycles > 0.0);
    }

    #[test]
    #[should_panic]
    fn seeded_runs_need_seeds() {
        let topo = presets::tiny_test_machine();
        let cfg = SimRunConfig::for_machine(&topo).quick();
        let _ = sim_measure_seeds(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            2,
            &cfg,
            &[],
        );
    }

    #[test]
    fn invalid_config_surfaces_typed_error() {
        let topo = presets::tiny_test_machine();
        let mut cfg = SimRunConfig::for_machine(&topo).quick();
        cfg.params.fabric.nack_per_mille = 5000;
        let err = sim_measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            2,
            &cfg,
        )
        .expect_err("out-of-range NACK rate must be rejected, not panic");
        let msg = err.to_string();
        assert!(msg.contains("fabric.nack_per_mille"), "{msg}");
    }

    #[test]
    fn fabric_faults_flow_through_measurement() {
        let topo = presets::tiny_test_machine();
        let cfg = SimRunConfig::for_machine(&topo)
            .quick()
            .with_fabric_faults(FabricFaultConfig::moderate())
            .with_retry_policy(RetryPolicy::patient());
        let m = sim_measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            4,
            &cfg,
        )
        .expect("NACK retries complete under the patient policy");
        assert!(m.throughput_ops_per_sec > 0.0);
        assert!(m.p99_latency_cycles >= m.p50_latency_cycles);
    }

    #[test]
    fn pinned_variant_respects_assignment() {
        let topo = presets::dual_socket_small();
        let cfg = SimRunConfig::for_machine(&topo).quick();
        let hw = Placement::Scattered.assign(&topo, 4);
        let m = sim_measure_pinned(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Swap,
            },
            &hw,
            &cfg,
        )
        .expect("pinned run measures");
        // Scattered over two sockets: cross-socket transfers must appear.
        let t = m.transfers_by_domain.unwrap();
        assert!(t[4] > 0, "cross-socket transfers expected: {t:?}");
    }
}
