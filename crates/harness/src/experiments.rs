//! The experiment registry: every reconstructed table and figure of the
//! evaluation (see DESIGN.md for the E-number ↔ figure mapping), each as
//! a function producing a [`Table`].
//!
//! All experiments run on the simulator backend configured as one of
//! the two paper machines. `ExpCtx::quick` shrinks sweeps and durations
//! for tests; the `repro` binary runs the full versions.

use crate::measurement::Measurement;
use crate::modeltime::predict_timed;
use crate::report::{fmt_f64, Table};
use crate::simrun::{sim_measure, sim_measure_pinned, sim_report, SimRunConfig};
use bounce_atomics::Primitive;
use bounce_core::fairness::{predict_jain, ArbitrationKind};
use bounce_core::{BouncingModel, ModelParams, Scenario};
use bounce_sim::{
    ArbitrationPolicy, CoherenceKind, FabricFaultConfig, FaultConfig, RetryPolicy, SimError,
    SimParams,
};
use bounce_topo::{presets, HwThreadId, Interconnect, MachineTopology, Placement, PlacementOrder};
use bounce_workloads::{LockShape, Workload};
use std::fmt;

/// An experiment failure: a watchdog-diagnosed simulation error or a
/// caught panic, each with enough context to name the failing point.
#[derive(Debug)]
pub enum ExpError {
    /// A simulation point tripped the forward-progress watchdog.
    Sim {
        /// The failing point (workload, thread count, machine).
        context: String,
        /// The watchdog's diagnosis (boxed: `SimError::NoProgress`
        /// carries per-thread and per-line diagnostics).
        source: Box<SimError>,
    },
    /// An experiment panicked; the sweep's remaining experiments were
    /// unaffected (see [`crate::parallel`]).
    Panic {
        /// The failing experiment.
        context: String,
        /// The panic payload.
        payload: String,
    },
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Sim { context, source } => write!(f, "{context}: {source}"),
            ExpError::Panic { context, payload } => write!(f, "{context}: panicked: {payload}"),
        }
    }
}

impl std::error::Error for ExpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExpError::Sim { source, .. } => Some(source),
            ExpError::Panic { .. } => None,
        }
    }
}

/// Result of one experiment: its table, or a contextualised failure.
pub type ExpResult = Result<Table, ExpError>;

/// [`sim_measure`] with the failing point's config attached.
pub(crate) fn measure(
    topo: &MachineTopology,
    w: &Workload,
    n: usize,
    cfg: &SimRunConfig,
) -> Result<Measurement, ExpError> {
    sim_measure(topo, w, n, cfg).map_err(|e| ExpError::Sim {
        context: format!("{} n={} on {}", w.label(), n, topo.name),
        source: Box::new(e),
    })
}

/// [`sim_measure_pinned`] with the failing point's config attached.
fn measure_pinned(
    topo: &MachineTopology,
    w: &Workload,
    hw: &[HwThreadId],
    cfg: &SimRunConfig,
) -> Result<Measurement, ExpError> {
    sim_measure_pinned(topo, w, hw, cfg).map_err(|e| ExpError::Sim {
        context: format!("{} n={} (pinned) on {}", w.label(), hw.len(), topo.name),
        source: Box::new(e),
    })
}

/// The two paper testbeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Intel Xeon E5-2695 v4 (2 × 18 × 2).
    E5,
    /// Intel Xeon Phi 7290 (36 tiles × 2 × 4).
    Knl,
}

impl Machine {
    /// Both machines.
    pub const ALL: [Machine; 2] = [Machine::E5, Machine::Knl];

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Machine::E5 => "e5",
            Machine::Knl => "knl",
        }
    }

    /// The topology preset.
    pub fn topo(&self) -> MachineTopology {
        match self {
            Machine::E5 => presets::xeon_e5_2695_v4(),
            Machine::Knl => presets::xeon_phi_7290(),
        }
    }

    /// The simulator parameter preset.
    pub fn sim_params(&self) -> SimParams {
        match self {
            Machine::E5 => SimParams::e5(),
            Machine::Knl => SimParams::knl(),
        }
    }

    /// The model parameter defaults.
    pub fn model_params(&self) -> ModelParams {
        match self {
            Machine::E5 => ModelParams::e5_default(),
            Machine::Knl => ModelParams::knl_default(),
        }
    }

    /// The analytic model over this machine's topology preset and
    /// default parameters — the one every experiment predicts through.
    pub fn model(&self) -> BouncingModel {
        BouncingModel::new(self.topo(), self.model_params())
    }

    /// The thread-count sweep used by the contention figures.
    pub fn sweep_ns(&self, quick: bool) -> Vec<usize> {
        if quick {
            return vec![1, 2, 4, 8];
        }
        match self {
            Machine::E5 => vec![1, 2, 4, 8, 12, 18, 24, 36, 48, 60, 72],
            Machine::Knl => vec![1, 2, 4, 8, 16, 32, 64, 72, 144, 288],
        }
    }
}

/// Experiment context: sweep/duration scaling and optional protocol
/// override.
#[derive(Debug, Clone, Copy)]
pub struct ExpCtx {
    /// Short sweeps and windows (tests).
    pub quick: bool,
    /// Run every experiment under this coherence protocol instead of
    /// each machine's native one (`None` = native; this is what
    /// `repro --protocol` sets).
    pub protocol: Option<CoherenceKind>,
    /// Fixed full-budget run lengths everywhere (`repro --exact`):
    /// byte-identical to the historical output. The default is adaptive
    /// run lengths — early termination on batch-means convergence.
    pub exact: bool,
    /// Inject this fabric fault config into every run (`None` = the
    /// all-zero default, bit-identical to fault-free; this is what
    /// `repro --fabric-faults` sets). The degraded-fabric experiment
    /// (e15) sweeps its own severity axis regardless of this override.
    pub fabric: Option<FabricFaultConfig>,
    /// NACK retry policy for every run (`None` = the default backoff
    /// ladder; `repro --retry-policy` sets this). Only consulted when
    /// fabric faults actually refuse requests.
    pub retry: Option<RetryPolicy>,
}

impl ExpCtx {
    /// Full-scale context.
    pub fn full() -> Self {
        ExpCtx {
            quick: false,
            protocol: None,
            exact: false,
            fabric: None,
            retry: None,
        }
    }

    /// Quick context for tests.
    pub fn quick() -> Self {
        ExpCtx {
            quick: true,
            protocol: None,
            exact: false,
            fabric: None,
            retry: None,
        }
    }

    /// Override the coherence protocol for every run in this context.
    pub fn with_protocol(mut self, protocol: CoherenceKind) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Force fixed full-budget run lengths (the `--exact` mode).
    pub fn with_exact(mut self, exact: bool) -> Self {
        self.exact = exact;
        self
    }

    /// Inject fabric faults into every run in this context.
    pub fn with_fabric_faults(mut self, fabric: FabricFaultConfig) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Override the NACK retry policy for every run in this context.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    pub(crate) fn run_cfg(&self, machine: Machine) -> SimRunConfig {
        let mut cfg = SimRunConfig {
            params: machine.sim_params(),
            duration_cycles: if self.quick { 300_000 } else { 2_000_000 },
            placement: Placement::Packed,
        };
        // FIFO arbitration for every throughput/latency experiment —
        // the fairness experiment (fig4) varies the policy itself — and
        // a pinned home slice (the paper's NUMA-node-0 allocation).
        cfg.params.arbitration = ArbitrationPolicy::Fifo;
        cfg.params.home_policy = bounce_sim::HomePolicy::Fixed(0);
        if !self.exact {
            cfg.params.run_length = bounce_sim::RunLength::adaptive();
        }
        if let Some(p) = self.protocol {
            cfg.params.protocol = p;
        }
        if let Some(f) = self.fabric {
            cfg.params.fabric = f;
        }
        if let Some(r) = self.retry {
            cfg.params.retry = r;
        }
        cfg
    }
}

fn mops(x: f64) -> String {
    fmt_f64(x / 1e6)
}

/// Table 1 (E1): the machine configurations.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1 (E1): machine configurations",
        &[
            "machine",
            "sockets",
            "cores",
            "hw_threads",
            "smt",
            "freq_ghz",
            "interconnect",
            "llc",
        ],
    );
    for m in Machine::ALL {
        let topo = m.topo();
        let inter = match topo.interconnect {
            Interconnect::Ring { .. } => "ring+QPI",
            Interconnect::Mesh { .. } => "2D mesh",
            Interconnect::Uniform { .. } => "uniform",
        };
        let llc = topo
            .caches
            .last()
            .map(|c| format!("{} {}KiB", c.name, c.size_bytes / 1024))
            .unwrap_or_default();
        t.push(vec![
            topo.name.clone(),
            topo.num_sockets().to_string(),
            topo.num_cores().to_string(),
            topo.num_threads().to_string(),
            topo.smt_ways().to_string(),
            format!("{}", topo.freq_ghz),
            inter.to_string(),
            llc,
        ]);
    }
    t
}

/// Table 2 (E2): uncontended (single-thread, own line) latency of each
/// primitive, in cycles, on both machines.
pub fn table2(ctx: ExpCtx) -> ExpResult {
    let mut t = Table::new(
        "Table 2 (E2): uncontended latency of atomic primitives (cycles)",
        &["machine", "primitive", "latency_cycles", "throughput_mops"],
    );
    for m in Machine::ALL {
        let topo = m.topo();
        let cfg = ctx.run_cfg(m);
        for prim in Primitive::ALL {
            let meas = measure(&topo, &Workload::LowContention { prim, work: 0 }, 1, &cfg)?;
            t.push(vec![
                m.label().into(),
                prim.label().into(),
                fmt_f64(meas.mean_latency_cycles),
                mops(meas.throughput_ops_per_sec),
            ]);
        }
    }
    Ok(t)
}

/// Fig 1 (E3): high-contention throughput vs thread count, one column
/// per primitive.
pub fn fig1(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let mut t = Table::new(
        format!(
            "Fig 1 (E3): HC throughput vs threads (Mops/s) — {}",
            topo.name
        ),
        &["n", "load", "store", "swap", "tas", "faa", "cas"],
    );
    for n in machine.sweep_ns(ctx.quick) {
        let mut row = vec![n.to_string()];
        for prim in Primitive::ALL {
            let meas = measure(&topo, &Workload::HighContention { prim }, n, &cfg)?;
            row.push(mops(meas.throughput_ops_per_sec));
        }
        t.push(row);
    }
    Ok(t)
}

/// Fig 2 (E4): high-contention mean per-op latency vs thread count.
pub fn fig2(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let mut t = Table::new(
        format!("Fig 2 (E4): HC latency vs threads (cycles) — {}", topo.name),
        &["n", "swap", "tas", "faa", "cas", "cas_p99"],
    );
    for n in machine.sweep_ns(ctx.quick) {
        let mut row = vec![n.to_string()];
        let mut cas_p99 = 0.0;
        for prim in Primitive::RMW {
            let meas = measure(&topo, &Workload::HighContention { prim }, n, &cfg)?;
            row.push(fmt_f64(meas.mean_latency_cycles));
            if prim == Primitive::Cas {
                cas_p99 = meas.p99_latency_cycles;
            }
        }
        row.push(fmt_f64(cas_p99));
        t.push(row);
    }
    Ok(t)
}

/// Fig 3 (E5): CAS retry-loop success/failure vs thread count, with the
/// model's predicted failure rate.
pub fn fig3(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let model = machine.model();
    let order = PlacementOrder::new(Placement::Packed, &topo);
    let window = 30u64;
    let mut t = Table::new(
        format!(
            "Fig 3 (E5): CAS retry loop (window={window}cy) vs threads — {}",
            topo.name
        ),
        &[
            "n",
            "attempts_mops",
            "goodput_mops",
            "fail_rate",
            "model_fail_rate",
        ],
    );
    for n in machine.sweep_ns(ctx.quick) {
        let w = Workload::CasRetryLoop { window, work: 0 };
        let meas = measure(&topo, &w, n, &cfg)?;
        let scenario = w
            .scenario(order.threads_of(n))
            .expect("plain CAS retry loop maps to a scenario");
        let pred = predict_timed(&model, &scenario);
        t.push(vec![
            n.to_string(),
            mops(meas.cond_attempts_per_sec),
            mops(meas.goodput_ops_per_sec),
            fmt_f64(meas.failure_rate),
            fmt_f64(1.0 - pred.success_rate().expect("CAS-loop prediction")),
        ]);
    }
    Ok(t)
}

/// Fig 4 (E6): fairness (Jain index of per-thread successes) vs thread
/// count under each arbitration policy, plus the model's prediction for
/// the locality-biased policy.
pub fn fig4(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let order = PlacementOrder::new(Placement::Scattered, &topo);
    let mut t = Table::new(
        format!(
            "Fig 4 (E6): fairness vs threads (FAA, scattered) — {}",
            topo.name
        ),
        &["n", "fifo", "random", "nearest", "model_nearest"],
    );
    for n in machine.sweep_ns(ctx.quick) {
        if n < 2 {
            continue;
        }
        let mut row = vec![n.to_string()];
        for arb in ArbitrationPolicy::ALL {
            let mut cfg = ctx.run_cfg(machine);
            cfg.params.arbitration = arb;
            let meas = measure_pinned(
                &topo,
                &Workload::HighContention {
                    prim: Primitive::Faa,
                },
                order.threads_of(n),
                &cfg,
            )?;
            row.push(fmt_f64(meas.jain));
        }
        let pred = predict_jain(&topo, order.threads_of(n), ArbitrationKind::NearestFirst);
        row.push(fmt_f64(pred));
        t.push(row);
    }
    Ok(t)
}

/// Fig 5 (E7): energy per operation vs thread count (HC), simulator
/// RAPL-substitute vs model.
pub fn fig5(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let model = machine.model();
    let order = PlacementOrder::new(Placement::Packed, &topo);
    let mut t = Table::new(
        format!("Fig 5 (E7): energy per op vs threads (HC) — {}", topo.name),
        &["n", "faa_nj", "cas_nj", "model_faa_nj", "lc_faa_nj"],
    );
    for n in machine.sweep_ns(ctx.quick) {
        let w_faa = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let faa = measure(&topo, &w_faa, n, &cfg)?;
        let cas = measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Cas,
            },
            n,
            &cfg,
        )?;
        let lc = measure(
            &topo,
            &Workload::LowContention {
                prim: Primitive::Faa,
                work: 0,
            },
            n,
            &cfg,
        )?;
        let scenario = w_faa
            .scenario(order.threads_of(n))
            .expect("high contention maps to a scenario");
        let pred = predict_timed(&model, &scenario);
        t.push(vec![
            n.to_string(),
            fmt_f64(faa.energy_per_op_nj.unwrap_or(0.0)),
            fmt_f64(cas.energy_per_op_nj.unwrap_or(0.0)),
            fmt_f64(pred.energy_per_op_nj),
            fmt_f64(lc.energy_per_op_nj.unwrap_or(0.0)),
        ]);
    }
    Ok(t)
}

/// Fig 6 (E8): low-contention throughput scaling vs thread count.
pub fn fig6(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let mut t = Table::new(
        format!(
            "Fig 6 (E8): LC throughput vs threads (Mops/s) — {}",
            topo.name
        ),
        &["n", "swap", "tas", "faa", "cas", "ideal_faa"],
    );
    let model = machine.model();
    for n in machine.sweep_ns(ctx.quick) {
        let mut row = vec![n.to_string()];
        for prim in Primitive::RMW {
            let meas = measure(&topo, &Workload::LowContention { prim, work: 0 }, n, &cfg)?;
            row.push(mops(meas.throughput_ops_per_sec));
        }
        row.push(mops(
            predict_timed(&model, &Scenario::low_contention(n, Primitive::Faa, 0.0))
                .throughput_ops_per_sec,
        ));
        t.push(row);
    }
    Ok(t)
}

/// Fig 7 (E9): model validation — fit the transfer costs on alternating
/// sweep points ([`crate::campaign`]), predict every point, and report
/// per-point error and MAPE for *both* throughput and mean latency.
pub fn fig7(ctx: ExpCtx, machine: Machine) -> ExpResult {
    use crate::campaign::{fit_and_validate, TrainSplit};
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let ns = machine.sweep_ns(ctx.quick);
    let split = if ns.iter().filter(|&&n| n >= 2).count() >= 4 {
        TrainSplit::Alternate
    } else {
        TrainSplit::All
    };
    let campaign = fit_and_validate(
        &topo,
        Primitive::Faa,
        &ns,
        &cfg,
        &machine.model_params(),
        split,
    )
    .map_err(|e| ExpError::Sim {
        context: format!("fit_and_validate HC FAA on {}", topo.name),
        source: Box::new(e),
    })?;
    let fitted = &campaign.fit.params.transfer;
    let mut t = Table::new(
        format!(
            "Fig 7 (E9): model validation, HC FAA — {} (fitted smt={} tile={} socket={} cross={})",
            topo.name,
            fmt_f64(fitted.smt),
            fmt_f64(fitted.tile),
            fmt_f64(fitted.socket),
            fmt_f64(fitted.cross),
        ),
        &[
            "n",
            "measured_mops",
            "predicted_mops",
            "err_pct",
            "measured_lat_cy",
            "predicted_lat_cy",
            "lat_err_pct",
        ],
    );
    for (x, l) in campaign.throughput_rows.iter().zip(&campaign.latency_rows) {
        t.push(vec![
            x.n.to_string(),
            mops(x.measured),
            mops(x.predicted),
            fmt_f64(x.ape_pct()),
            fmt_f64(l.measured),
            fmt_f64(l.predicted),
            fmt_f64(l.ape_pct()),
        ]);
    }
    t.push(vec![
        "MAPE".into(),
        String::new(),
        String::new(),
        fmt_f64(campaign.throughput_mape()),
        String::new(),
        String::new(),
        fmt_f64(campaign.latency_mape()),
    ]);
    Ok(t)
}

/// Fig 8 (E10): placement effect — HC throughput at a fixed thread
/// count under each placement policy, vs the model.
pub fn fig8(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let model = machine.model();
    let n = if ctx.quick {
        4
    } else {
        match machine {
            Machine::E5 => 24,
            Machine::Knl => 32,
        }
    };
    let mut t = Table::new(
        format!(
            "Fig 8 (E10): placement effect at n={n} (HC FAA) — {}",
            topo.name
        ),
        &[
            "placement",
            "throughput_mops",
            "model_mops",
            "cross_socket_share",
        ],
    );
    for placement in Placement::ALL {
        let hw = placement.assign(&topo, n);
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let meas = measure_pinned(&topo, &w, &hw, &cfg)?;
        let scenario = w.scenario(&hw).expect("high contention maps to a scenario");
        let pred = predict_timed(&model, &scenario);
        t.push(vec![
            placement.label().into(),
            mops(meas.throughput_ops_per_sec),
            mops(pred.throughput_ops_per_sec),
            fmt_f64(pred.mixture[4]),
        ]);
    }
    Ok(t)
}

/// Fig 9 (E11): contention dilution — throughput and latency vs local
/// work between ops at a fixed thread count.
///
/// The paper-shaped observation: under saturation the injected local
/// work is *free* (system throughput stays at the 1/E\[t\] plateau while
/// per-op latency falls) until the knee at `w* ≈ (N−1)·E[t]`, after
/// which the system becomes demand-limited and throughput declines as
/// `N/(w + c_p + E[t])`.
pub fn fig9(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let model = machine.model();
    let n = if ctx.quick { 4 } else { 16 };
    let order = Placement::Packed.assign(&topo, n);
    let works: &[u64] = if ctx.quick {
        &[0, 100, 3200]
    } else {
        &[0, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800]
    };
    let mut t = Table::new(
        format!(
            "Fig 9 (E11): throughput vs local work between ops, n={n} (FAA) — {}",
            topo.name
        ),
        &[
            "work_cycles",
            "throughput_mops",
            "model_mops",
            "latency_cycles",
        ],
    );
    for &work in works {
        let w = Workload::Diluted {
            prim: Primitive::Faa,
            work,
        };
        let meas = measure(&topo, &w, n, &cfg)?;
        let scenario = w.scenario(&order).expect("dilution maps to a scenario");
        let pred = predict_timed(&model, &scenario);
        t.push(vec![
            work.to_string(),
            mops(meas.throughput_ops_per_sec),
            mops(pred.throughput_ops_per_sec),
            fmt_f64(meas.mean_latency_cycles),
        ]);
    }
    Ok(t)
}

/// Fig 10 (E12): application case study — lock implementations under
/// contention (critical-section handoffs per second).
pub fn fig10(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let mut cfg = ctx.run_cfg(machine);
    // Locks are latency-bound; give the sim a longer window so every
    // thread acquires several times even at large n.
    cfg.duration_cycles *= 2;
    let ns = if ctx.quick {
        vec![2, 4]
    } else {
        match machine {
            Machine::E5 => vec![2, 4, 8, 18, 36, 72],
            Machine::Knl => vec![2, 4, 16, 64, 144, 288],
        }
    };
    let mut t = Table::new(
        format!(
            "Fig 10 (E12): lock handoffs/s vs threads (cs=100cy, noncs=100cy) — {}",
            topo.name
        ),
        &[
            "n",
            "tas_mops",
            "ttas_mops",
            "ticket_mops",
            "mcs_mops",
            "model_tas",
            "model_mcs",
            "ticket_jain",
        ],
    );
    let model = machine.model();
    let order = PlacementOrder::new(Placement::Packed, &topo);
    for n in ns {
        let mut row = vec![n.to_string()];
        let mut ticket_jain = 1.0;
        for shape in LockShape::ALL {
            let meas = measure(
                &topo,
                &Workload::LockHandoff {
                    shape,
                    cs: 100,
                    noncs: 100,
                },
                n,
                &cfg,
            )?;
            row.push(mops(meas.lock_handoffs_per_sec(shape)));
            if shape == LockShape::Ticket {
                ticket_jain = meas.jain;
            }
        }
        // One lock scenario covers the whole shape ladder (the model's
        // handoff prediction is keyed by shape, not one call per lock).
        let scenario = Workload::LockHandoff {
            shape: LockShape::Tas,
            cs: 100,
            noncs: 100,
        }
        .scenario(order.threads_of(n))
        .expect("lock handoff maps to a scenario");
        let pred = predict_timed(&model, &scenario);
        let handoffs = pred.lock_handoffs().expect("lock prediction");
        row.push(mops(handoffs.get(LockShape::Tas)));
        row.push(mops(handoffs.get(LockShape::Mcs)));
        row.push(fmt_f64(ticket_jain));
        t.push(row);
    }
    Ok(t)
}

/// Fig 11 (E13): false sharing — per-thread words on one line vs padded
/// private lines. Logically private data, physically shared line: the
/// HC behaviour reappears.
pub fn fig11(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let mut t = Table::new(
        format!(
            "Fig 11 (E13): false sharing vs padded (FAA, Mops/s) — {}",
            topo.name
        ),
        &["n", "false_sharing", "padded", "slowdown"],
    );
    for n in machine.sweep_ns(ctx.quick) {
        if n > 8 && ctx.quick {
            continue;
        }
        let fs = measure(
            &topo,
            &Workload::FalseSharing {
                prim: Primitive::Faa,
            },
            n,
            &cfg,
        )?;
        let padded = measure(
            &topo,
            &Workload::LowContention {
                prim: Primitive::Faa,
                work: 0,
            },
            n,
            &cfg,
        )?;
        let slow = padded.throughput_ops_per_sec / fs.throughput_ops_per_sec.max(1.0);
        t.push(vec![
            n.to_string(),
            mops(fs.throughput_ops_per_sec),
            mops(padded.throughput_ops_per_sec),
            fmt_f64(slow),
        ]);
    }
    Ok(t)
}

/// Fig 12 (E14): read-mostly sharing — one writer, growing reader
/// count, with and without the MESIF Forward state. Cache-to-cache
/// forwarding (MESIF) spares the memory round trip after every
/// invalidation burst.
pub fn fig12(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let model = machine.model();
    let order = PlacementOrder::new(Placement::Packed, &topo);
    let mut t = Table::new(
        format!(
            "Fig 12 (E14): 1 writer + readers, MESIF vs MESI (total Mops/s) — {}",
            topo.name
        ),
        &["readers", "mesif", "mesi", "mesif_gain", "model"],
    );
    let reader_counts: Vec<usize> = if ctx.quick {
        vec![1, 3, 7]
    } else {
        vec![1, 3, 7, 15, 23, 31]
    };
    for readers in reader_counts {
        let n = readers + 1;
        if n > topo.num_threads() {
            continue;
        }
        let w = Workload::MixedReadWrite {
            writers: 1,
            prim: Primitive::Faa,
        };
        let run = |protocol: CoherenceKind| -> Result<f64, ExpError> {
            let mut cfg = ctx.run_cfg(machine);
            cfg.params.protocol = protocol;
            Ok(measure(&topo, &w, n, &cfg)?.throughput_ops_per_sec)
        };
        let with = run(CoherenceKind::Mesif)?;
        let without = run(CoherenceKind::Mesi)?;
        // The derived scenario carries the reader gap the reader loop
        // actually runs (`bounce_workloads::READER_GAP_CYCLES`).
        let scenario = w
            .scenario(order.threads_of(n))
            .expect("1-writer mixed read/write maps to a scenario");
        let pred = predict_timed(&model, &scenario);
        t.push(vec![
            readers.to_string(),
            mops(with),
            mops(without),
            fmt_f64(with / without.max(1.0)),
            mops(pred.throughput_ops_per_sec),
        ]);
    }
    Ok(t)
}

/// Fig 13 (E15): contention spreading — fixed thread count, growing
/// number of contended lines (the line-striped counter). Throughput
/// grows ~linearly with stripes until the demand cap.
pub fn fig13(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let model = machine.model();
    let n = if ctx.quick { 4 } else { 16 };
    let order = Placement::Packed.assign(&topo, n);
    let stripes: Vec<usize> = if ctx.quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let mut t = Table::new(
        format!(
            "Fig 13 (E15): contention spreading, n={n} (FAA, Mops/s) — {}",
            topo.name
        ),
        &["lines", "throughput_mops", "model_mops", "speedup_vs_1"],
    );
    let mut base = 0.0;
    for lines in stripes {
        let w = Workload::MultiLine {
            prim: Primitive::Faa,
            lines,
        };
        let meas = measure(&topo, &w, n, &cfg)?;
        let scenario = w
            .scenario(&order)
            .expect("line striping maps to a scenario");
        let pred = predict_timed(&model, &scenario);
        if lines == 1 {
            base = meas.throughput_ops_per_sec;
        }
        t.push(vec![
            lines.to_string(),
            mops(meas.throughput_ops_per_sec),
            mops(pred.throughput_ops_per_sec),
            fmt_f64(meas.throughput_ops_per_sec / base.max(1.0)),
        ]);
    }
    Ok(t)
}

/// Protocol ablation (E13): the same machine run under each coherence
/// protocol in the pluggable layer — MESIF (native on E5), MOESI
/// (AMD-style Owned state) and plain MESI.
///
/// Two regimes separate the three:
///
/// * **Pure RMW streams** (the `faa_hc` / `cas_hc` columns) are
///   protocol-blind: every transaction is an ownership transfer, and the
///   owner-to-owner forwarding path is identical in all three protocols
///   — the columns must agree exactly. This is the sanity row.
/// * **Read-heavy sharing** (`readheavy`: 1 FAA writer, the rest
///   readers) is where they diverge. MESIF's Forward copy answers racing
///   readers from the banked home path in parallel; MOESI's Owned copy
///   answers them cache-to-cache but one at a time (its cache port
///   serialises); MESI sends every clean-shared read to memory.
///   Expected ordering: MESIF ≥ MOESI > MESI.
pub fn protocol_ablation(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let n = if ctx.quick { 8 } else { 16 };
    let mut t = Table::new(
        format!("Protocol ablation (E13) at n={n} — {}", topo.name),
        &[
            "protocol",
            "faa_hc_mops",
            "cas_hc_mops",
            "faa_lat_cycles",
            "readheavy_mops",
        ],
    );
    for kind in CoherenceKind::ALL {
        let mut cfg = ctx.run_cfg(machine);
        cfg.params.protocol = kind;
        let faa = measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            n,
            &cfg,
        )?;
        let cas = measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Cas,
            },
            n,
            &cfg,
        )?;
        // The read-heavy separator runs with a direct-mapped L1 so the
        // scanners' filler line evicts their shared copy every
        // iteration (see `Workload::ReadScan`); the protocols then
        // differ in which data path answers the resulting read misses.
        let mut scan_cfg = cfg.clone();
        scan_cfg.params.l1_ways = 1;
        let readheavy = measure(
            &topo,
            &Workload::ReadScan {
                writers: 1,
                writer_work: 2000,
            },
            n,
            &scan_cfg,
        )?;
        t.push(vec![
            kind.label().to_string(),
            mops(faa.throughput_ops_per_sec),
            mops(cas.throughput_ops_per_sec),
            fmt_f64(faa.mean_latency_cycles),
            mops(readheavy.throughput_ops_per_sec),
        ]);
    }
    Ok(t)
}

/// Ablation table (A1–A3): the design choices DESIGN.md calls out —
/// CAS backoff, home-slice placement, arbitration policy — each probed
/// at one contention level.
pub fn ablations(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let n = if ctx.quick { 4 } else { 16 };
    let mut t = Table::new(
        format!("Ablations (A1-A5) at n={n} — {}", topo.name),
        &["ablation", "variant", "goodput_mops", "fail_rate", "jain"],
    );
    // A1: backoff ladder on the CAS retry loop.
    for (label, w) in [
        (
            "none",
            Workload::CasRetryLoop {
                window: 30,
                work: 0,
            },
        ),
        (
            "ladder-64",
            Workload::CasRetryLoopBackoff {
                window: 30,
                backoff: [64, 256, 1024],
            },
        ),
        (
            "ladder-512",
            Workload::CasRetryLoopBackoff {
                window: 30,
                backoff: [512, 2048, 8192],
            },
        ),
    ] {
        let cfg = ctx.run_cfg(machine);
        let m = measure(&topo, &w, n, &cfg)?;
        t.push(vec![
            "A1-backoff".into(),
            label.into(),
            mops(m.goodput_ops_per_sec),
            fmt_f64(m.failure_rate),
            fmt_f64(m.jain),
        ]);
    }
    // A2: home-slice placement for HC FAA.
    for (label, policy) in [
        ("fixed-0", bounce_sim::HomePolicy::Fixed(0)),
        (
            "fixed-far",
            bounce_sim::HomePolicy::Fixed(topo.num_tiles() - 1),
        ),
        ("hash", bounce_sim::HomePolicy::Hash),
    ] {
        let mut cfg = ctx.run_cfg(machine);
        cfg.params.home_policy = policy;
        let m = measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            n,
            &cfg,
        )?;
        t.push(vec![
            "A2-home".into(),
            label.into(),
            mops(m.goodput_ops_per_sec),
            fmt_f64(m.failure_rate),
            fmt_f64(m.jain),
        ]);
    }
    // A3: arbitration policy's throughput/fairness trade (scattered
    // placement so locality matters).
    for arb in ArbitrationPolicy::ALL {
        let mut cfg = ctx.run_cfg(machine);
        cfg.params.arbitration = arb;
        cfg.placement = Placement::Scattered;
        let m = measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            n,
            &cfg,
        )?;
        t.push(vec![
            "A3-arbitration".into(),
            arb.label().into(),
            mops(m.goodput_ops_per_sec),
            fmt_f64(m.failure_rate),
            fmt_f64(m.jain),
        ]);
    }
    // A4: home-agent bandwidth under line striping — with a finite
    // home port, striping only helps when the stripes' homes are
    // *distributed* (hashed), not when every stripe shares one slice.
    for (label, policy, occupancy) in [
        ("fixed0-infbw", bounce_sim::HomePolicy::Fixed(0), 0u32),
        ("fixed0-port40", bounce_sim::HomePolicy::Fixed(0), 40),
        ("hash-port40", bounce_sim::HomePolicy::Hash, 40),
    ] {
        let mut cfg = ctx.run_cfg(machine);
        cfg.params.home_policy = policy;
        cfg.params.home_port_occupancy = occupancy;
        let m = measure(
            &topo,
            &Workload::MultiLine {
                prim: Primitive::Faa,
                lines: (n / 2).max(2),
            },
            n,
            &cfg,
        )?;
        t.push(vec![
            "A4-home-bandwidth".into(),
            label.into(),
            mops(m.goodput_ops_per_sec),
            fmt_f64(m.failure_rate),
            fmt_f64(m.jain),
        ]);
    }
    // A5: NoC link bandwidth — striped HC traffic with hashed homes,
    // with and without per-link occupancy. Finite links couple flows
    // whose routes overlap.
    for (label, occupancy) in [("inf-links", 0u32), ("link-occ8", 8), ("link-occ24", 24)] {
        let mut cfg = ctx.run_cfg(machine);
        cfg.params.home_policy = bounce_sim::HomePolicy::Hash;
        cfg.params.link_occupancy_cycles = occupancy;
        let m = measure(
            &topo,
            &Workload::MultiLine {
                prim: Primitive::Faa,
                lines: (n / 2).max(2),
            },
            n,
            &cfg,
        )?;
        t.push(vec![
            "A5-link-bandwidth".into(),
            label.into(),
            mops(m.goodput_ops_per_sec),
            fmt_f64(m.failure_rate),
            fmt_f64(m.jain),
        ]);
    }
    Ok(t)
}

/// Latency-distribution table (D1): the full log2 histogram behind
/// Fig 2 for a few representative thread counts, under *random*
/// arbitration (FIFO's strict rotation gives every op the same queue
/// depth and collapses the distribution to one bucket — the spread
/// comes from winner variance and the domain mixture).
pub fn latency_hist(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let mut cfg = ctx.run_cfg(machine);
    cfg.params.arbitration = ArbitrationPolicy::Random;
    let ns: Vec<usize> = if ctx.quick {
        vec![2, 4]
    } else {
        vec![2, 8, 36]
    };
    let mut t = Table::new(
        format!(
            "Latency distribution (D1): HC FAA log2 buckets, random arbitration — {}",
            topo.name
        ),
        &[
            "n",
            "bucket_lo_cycles",
            "bucket_hi_cycles",
            "count",
            "share",
        ],
    );
    let w = Workload::HighContention {
        prim: Primitive::Faa,
    };
    for n in ns {
        if n > topo.num_threads() {
            continue;
        }
        // The full report, not a `Measurement`: it holds the histogram.
        let hw = Placement::Scattered.assign(&topo, n);
        let report = sim_report(&topo, &w, &hw, &cfg).map_err(|e| ExpError::Sim {
            context: format!("{} n={n} on {}", w.label(), topo.name),
            source: Box::new(e),
        })?;
        let merged = report.merged_latency();
        let total = merged.count.max(1) as f64;
        for (i, &count) in merged.hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            t.push(vec![
                n.to_string(),
                (1u64 << i).to_string(),
                ((1u64 << i) * 2 - 1).to_string(),
                count.to_string(),
                fmt_f64(count as f64 / total),
            ]);
        }
    }
    Ok(t)
}

/// Fig 14 (E16): Zipf-skewed contention — throughput vs skew θ over a
/// fixed line population. θ = 0 is the striped regime; growing θ
/// funnels traffic into one hot line and collapses toward single-line
/// HC. The model bound treats the hottest line as the bottleneck:
/// `X ≤ min( (f/E[t]) / p₀,  N·f/c_p )` with `p₀` the head line's
/// popularity.
pub fn fig14(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let cfg = ctx.run_cfg(machine);
    let model = machine.model();
    let n = if ctx.quick { 4 } else { 16 };
    let lines = 8;
    let order = Placement::Packed.assign(&topo, n);
    let thetas: &[f64] = if ctx.quick {
        &[0.0, 1.2]
    } else {
        &[0.0, 0.4, 0.8, 1.2, 1.6, 2.4]
    };
    let mut t = Table::new(
        format!(
            "Fig 14 (E16): Zipf contention, n={n}, {lines} lines (FAA, Mops/s) — {}",
            topo.name
        ),
        &[
            "theta",
            "throughput_mops",
            "hot_line_share",
            "model_bound_mops",
        ],
    );
    for &theta in thetas {
        let meas = measure(
            &topo,
            &Workload::Zipf {
                prim: Primitive::Faa,
                lines,
                theta,
                seed: 7,
            },
            n,
            &cfg,
        )?;
        let p0 = bounce_workloads::Zipf::new(lines, theta).pmf(0);
        let hc = predict_timed(&model, &Scenario::high_contention(&order, Primitive::Faa));
        let lc = predict_timed(&model, &Scenario::low_contention(n, Primitive::Faa, 0.0));
        let bound = (hc.throughput_ops_per_sec / p0).min(lc.throughput_ops_per_sec);
        t.push(vec![
            format!("{theta:.1}"),
            mops(meas.throughput_ops_per_sec),
            fmt_f64(p0),
            mops(bound),
        ]);
    }
    Ok(t)
}

/// Sensitivity table (S1): elasticities of the HC predictions with
/// respect to each model parameter, at a within-socket and a
/// cross-socket configuration. Answers "how much does a fitting error
/// in θ matter?".
pub fn sensitivity(ctx: ExpCtx, machine: Machine) -> ExpResult {
    use bounce_core::sensitivity::hc_sensitivities;
    let topo = machine.topo();
    let model = machine.model();
    let configs: Vec<(&str, usize)> = if ctx.quick {
        vec![("small", 4)]
    } else {
        match machine {
            Machine::E5 => vec![("within-socket", 16), ("cross-socket", 36)],
            Machine::Knl => vec![("few-tiles", 16), ("full-mesh", 144)],
        }
    };
    let mut t = Table::new(
        format!("Sensitivity (S1): HC elasticities, FAA — {}", topo.name),
        &["config", "param", "d_throughput", "d_latency", "d_energy"],
    );
    for (label, n) in configs {
        let threads = Placement::Packed.assign(&topo, n);
        for s in hc_sensitivities(&model, &threads, Primitive::Faa, 0.05) {
            t.push(vec![
                label.into(),
                s.param.label().into(),
                fmt_f64(s.throughput),
                fmt_f64(s.latency),
                fmt_f64(s.energy),
            ]);
        }
    }
    Ok(t)
}

/// E14: preemption fault injection — sweep the mean fraction of time
/// threads spend preempted (descheduled mid-critical-path) and watch
/// fairness degrade per primitive. Preemption windows are deterministic
/// per (seed, thread) and graded across threads with full
/// `preempt_spread` — OS noise concentrates on some hardware threads
/// (housekeeping cores, IRQ affinity), so thread 0 runs clean while the
/// last thread sees twice the mean rate; see [`bounce_sim::FaultConfig`].
///
/// FAA is wait-free: a preempted thread loses exactly its own slots, so
/// per-thread throughput tracks uptime and Jain falls linearly with the
/// noise gradient. The CAS retry loop is only lock-free: a preempted
/// thread wakes to a stale compare value and re-enters arbitration from
/// the back, so the noisy threads lose *more* than their dark fraction —
/// its Jain collapses faster than FAA's. Aggregate failure rate *falls*
/// with preemption (dark threads thin the contention), which is exactly
/// the asymmetry the fairness index exposes. Arbitration is `Random`
/// here: deterministic FIFO gives the CAS loop a degenerately unfair
/// baseline (fixed winner pattern) that would mask the fault effect.
pub fn fault_injection(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let n = if ctx.quick { 4 } else { 16 };
    let preempt_len: u64 = 5_000;
    let pcts: &[u64] = if ctx.quick {
        &[0, 10, 40]
    } else {
        &[0, 5, 10, 20, 40]
    };
    let mut t = Table::new(
        format!(
            "E14: preemption fault injection, n={n} (window {preempt_len} cycles) — {}",
            topo.name
        ),
        &[
            "preempt_pct",
            "faa_mops",
            "faa_jain",
            "casloop_goodput_mops",
            "casloop_fail_rate",
            "casloop_jain",
        ],
    );
    for &pct in pcts {
        // interval is the full period; the dark fraction is
        // len / (len + gap) with mean gap = interval, so solve
        // interval = len * (100 - pct) / pct for an exact mean dark
        // fraction of pct/100 (pct = 0 disables preemption entirely).
        let faults = match (preempt_len * (100 - pct)).checked_div(pct) {
            None => FaultConfig::default(),
            Some(interval) => FaultConfig {
                preempt_interval_cycles: interval,
                preempt_len_cycles: preempt_len,
                preempt_spread: 1.0,
                freq_jitter: 0.0,
            },
        };
        let mut cfg = ctx.run_cfg(machine).with_faults(faults);
        cfg.params.arbitration = ArbitrationPolicy::Random;
        // Preemption transients are the point of this experiment — the
        // run is deliberately non-steady-state, so adaptive run-length
        // convergence would cut it short mid-transient. Always run the
        // full fixed budget here.
        cfg.params.run_length = bounce_sim::RunLength::default();
        let faa = measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            n,
            &cfg,
        )?;
        let cas = measure(
            &topo,
            &Workload::CasRetryLoop {
                window: 30,
                work: 0,
            },
            n,
            &cfg,
        )?;
        t.push(vec![
            pct.to_string(),
            mops(faa.throughput_ops_per_sec),
            fmt_f64(faa.jain),
            mops(cas.goodput_ops_per_sec),
            fmt_f64(cas.failure_rate),
            fmt_f64(cas.jain),
        ]);
    }
    Ok(t)
}

/// One degraded-fabric severity level: the NACK rate and the bank
/// occupancy limit it implies (severity 0 = fault-free).
fn fabric_severity(nack_per_mille: u32, max_pending: u32) -> FabricFaultConfig {
    if nack_per_mille == 0 && max_pending == 0 {
        return FabricFaultConfig::default();
    }
    FabricFaultConfig {
        nack_per_mille,
        max_pending_per_bank: max_pending,
        // Congestion severity rides the NACK axis: windows lengthen
        // with the refusal rate (len must stay below the interval).
        congestion_interval_cycles: 20_000,
        congestion_len_cycles: (nack_per_mille as u64 * 10).clamp(500, 8_000),
        congestion_multiplier: 3,
        jitter_cycles: 0,
    }
}

/// A measurement that tolerates a retry storm: the storm becomes `None`
/// (a zeroed row cell) instead of failing the whole experiment — that
/// collapse *is* the result e15 reports.
fn measure_or_storm(
    topo: &MachineTopology,
    w: &Workload,
    n: usize,
    cfg: &SimRunConfig,
) -> Result<Option<Measurement>, ExpError> {
    match sim_measure(topo, w, n, cfg) {
        Ok(m) => Ok(Some(m)),
        Err(SimError::RetryStorm { .. }) => Ok(None),
        Err(e) => Err(ExpError::Sim {
            context: format!("{} n={} on {}", w.label(), n, topo.name),
            source: Box::new(e),
        }),
    }
}

/// E15: degraded-fabric fault injection — directory NACKs plus link
/// congestion, swept by severity. Compares hardware-arbitrated FAA, the
/// bare CAS retry loop under an eager (zero-backoff) NACK retry policy,
/// the same loop under the exponential backoff ladder, and the ticket
/// lock. Expected shape: FAA and the ticket lock degrade smoothly with
/// severity; the eager CAS loop hits a retry-storm knee (goodput
/// collapses to 0 when a transaction exhausts its budget against a
/// saturated bank) that the backoff ladder pushes to higher severities.
pub fn degraded_fabric(ctx: ExpCtx, machine: Machine) -> ExpResult {
    let topo = machine.topo();
    let n = if ctx.quick { 4 } else { 16 };
    // (nack_per_mille, max_pending_per_bank): refusal pressure rises
    // while the modeled bank capacity shrinks.
    let severities: &[(u32, u32)] = if ctx.quick {
        &[(0, 0), (100, 4), (400, 2)]
    } else {
        &[(0, 0), (50, 8), (100, 6), (200, 4), (400, 2)]
    };
    let mut t = Table::new(
        format!(
            "E15: degraded fabric (NACK + congestion), n={n} — {}",
            topo.name
        ),
        &[
            "nack_per_mille",
            "faa_mops",
            "faa_jain",
            "faa_p50",
            "faa_p99",
            "cas_eager_goodput_mops",
            "cas_eager_p99",
            "cas_backoff_goodput_mops",
            "cas_backoff_p99",
            "ticket_handoff_mops",
            "ticket_p99",
        ],
    );
    for &(nack, pending) in severities {
        let fabric = fabric_severity(nack, pending);
        let base = ctx.run_cfg(machine).with_fabric_faults(fabric);
        // Fault transients are the point: adaptive run-length
        // convergence would cut the run mid-transient, so e15 always
        // runs the full fixed budget (same reasoning as e14).
        let mk = |retry: RetryPolicy| {
            let mut cfg = base.clone().with_retry_policy(retry);
            cfg.params.run_length = bounce_sim::RunLength::default();
            cfg
        };
        let backoff_cfg = mk(RetryPolicy::backoff());
        let eager_cfg = mk(RetryPolicy::eager());
        let faa = measure_or_storm(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            n,
            &backoff_cfg,
        )?;
        let cas = Workload::CasRetryLoop {
            window: 30,
            work: 0,
        };
        let cas_eager = measure_or_storm(&topo, &cas, n, &eager_cfg)?;
        let cas_backoff = measure_or_storm(&topo, &cas, n, &backoff_cfg)?;
        let ticket = measure_or_storm(
            &topo,
            &Workload::LockHandoff {
                shape: LockShape::Ticket,
                cs: 100,
                noncs: 100,
            },
            n,
            &backoff_cfg,
        )?;
        let cell = |m: &Option<Measurement>, f: &dyn Fn(&Measurement) -> f64| {
            fmt_f64(m.as_ref().map(f).unwrap_or(0.0))
        };
        t.push(vec![
            nack.to_string(),
            cell(&faa, &|m| m.throughput_ops_per_sec / 1e6),
            cell(&faa, &|m| m.jain),
            cell(&faa, &|m| m.p50_latency_cycles),
            cell(&faa, &|m| m.p99_latency_cycles),
            cell(&cas_eager, &|m| m.goodput_ops_per_sec / 1e6),
            cell(&cas_eager, &|m| m.p99_latency_cycles),
            cell(&cas_backoff, &|m| m.goodput_ops_per_sec / 1e6),
            cell(&cas_backoff, &|m| m.p99_latency_cycles),
            cell(&ticket, &|m| {
                m.lock_handoffs_per_sec(LockShape::Ticket) / 1e6
            }),
            cell(&ticket, &|m| m.p99_latency_cycles),
        ]);
    }
    Ok(t)
}

/// A deferred experiment: call it to run.
pub type ExpThunk = Box<dyn Fn() -> ExpResult + Send + Sync>;

/// Every experiment as an (id, thunk) pair, in presentation order, with
/// stable ids: the one list of experiments. The `repro` binary derives
/// `repro list`, `repro <id>`, `--filter` and its error messages from
/// it, and `--filter`/`--resume` skip experiments without running them.
pub fn experiment_specs(ctx: ExpCtx) -> Vec<(String, ExpThunk)> {
    const FIGS: usize = 20;
    let mut specs: Vec<(String, ExpThunk)> = Vec::with_capacity(2 + FIGS * Machine::ALL.len());
    specs.push(("table1".to_string(), Box::new(|| Ok(table1()))));
    specs.push(("table2".to_string(), Box::new(move || table2(ctx))));
    for m in Machine::ALL {
        let figs: [(&str, ExpThunk); FIGS] = [
            ("fig1", Box::new(move || fig1(ctx, m))),
            ("fig2", Box::new(move || fig2(ctx, m))),
            ("fig3", Box::new(move || fig3(ctx, m))),
            ("fig4", Box::new(move || fig4(ctx, m))),
            ("fig5", Box::new(move || fig5(ctx, m))),
            ("fig6", Box::new(move || fig6(ctx, m))),
            ("fig7", Box::new(move || fig7(ctx, m))),
            ("fig8", Box::new(move || fig8(ctx, m))),
            ("fig9", Box::new(move || fig9(ctx, m))),
            ("fig10", Box::new(move || fig10(ctx, m))),
            ("fig11", Box::new(move || fig11(ctx, m))),
            ("fig12", Box::new(move || fig12(ctx, m))),
            ("fig13", Box::new(move || fig13(ctx, m))),
            ("fig14", Box::new(move || fig14(ctx, m))),
            ("e13", Box::new(move || protocol_ablation(ctx, m))),
            ("e14", Box::new(move || fault_injection(ctx, m))),
            ("e15", Box::new(move || degraded_fabric(ctx, m))),
            ("ablations", Box::new(move || ablations(ctx, m))),
            ("sensitivity", Box::new(move || sensitivity(ctx, m))),
            ("latency-hist", Box::new(move || latency_hist(ctx, m))),
        ];
        for (name, thunk) in figs {
            specs.push(([name, "-", m.label()].concat(), thunk));
        }
    }
    specs
}

/// Machine-readable thread sweep: the high-contention workload for
/// `prim` across the machine's standard thread counts, serialized via
/// [`crate::sweeps::measurements_json`] — the backend of `repro sweep`.
/// Honors every context override, so `--fabric-faults`/`--retry-policy`
/// sweeps export their p50/p99 latency percentiles without any TSV
/// round-trip.
pub fn sweep_json(ctx: ExpCtx, machine: Machine, prim: Primitive) -> Result<String, ExpError> {
    let topo = machine.topo();
    let ns = machine.sweep_ns(ctx.quick);
    let cfg = ctx.run_cfg(machine);
    let w = Workload::HighContention { prim };
    let ms = crate::sweeps::sweep_threads(&topo, &w, &ns, &cfg).map_err(|e| ExpError::Sim {
        context: format!("sweep {} on {}", w.label(), topo.name),
        source: Box::new(e),
    })?;
    Ok(crate::sweeps::measurements_json(
        &format!("hc-{}-{}", prim.label(), machine.label()),
        &ms,
    ))
}

/// Every distinct workload parameterization the experiment registry
/// draws from, plus the standard battery — the input set for offline
/// workload-IR linting (`repro lint` and the `bounce-verify` registry
/// property test). Kept next to [`experiment_specs`] so a new
/// experiment's workloads get added here in the same change; the
/// `registry_workloads_cover_experiment_specs` test cross-checks the
/// experiment sources against this list.
pub fn registered_workloads() -> Vec<Workload> {
    let mut v = Workload::standard_battery();
    // table2 / fig6: per-primitive low contention.
    v.extend(
        Primitive::ALL
            .iter()
            .map(|&prim| Workload::LowContention { prim, work: 0 }),
    );
    // fig9 (E11): dilution sweep — work is a latency knob, not a shape
    // knob, but lint the sweep endpoints anyway.
    for work in [0, 12_800] {
        v.push(Workload::Diluted {
            prim: Primitive::Faa,
            work,
        });
    }
    // fig12: false sharing and its padded antidote.
    v.push(Workload::FalseSharing {
        prim: Primitive::Faa,
    });
    // fig11 / E13: read-mostly sharing.
    v.push(Workload::MixedReadWrite {
        writers: 1,
        prim: Primitive::Faa,
    });
    v.push(Workload::ReadScan {
        writers: 1,
        writer_work: 2000,
    });
    // fig13: line striping.
    for lines in [1, 2, 8] {
        v.push(Workload::MultiLine {
            prim: Primitive::Faa,
            lines,
        });
    }
    // Ablation A1: backoff ladders.
    for backoff in [[64, 256, 1024], [512, 2048, 8192]] {
        v.push(Workload::CasRetryLoopBackoff {
            window: 30,
            backoff,
        });
    }
    // fig14 (E16): Zipf skew sweep endpoints.
    for theta in [0.0, 2.4] {
        v.push(Workload::Zipf {
            prim: Primitive::Faa,
            lines: 8,
            theta,
            seed: 7,
        });
    }
    // Dedup by label (battery and per-experiment entries overlap).
    let mut seen = std::collections::BTreeSet::new();
    v.retain(|w| seen.insert(w.label()));
    v
}

/// Run one experiment thunk with panic isolation: a panic anywhere in
/// the experiment becomes an [`ExpError::Panic`] naming the experiment,
/// and sibling experiments are unaffected.
pub fn run_guarded(id: &str, thunk: &ExpThunk) -> ExpResult {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(thunk)) {
        Ok(r) => r,
        Err(p) => Err(ExpError::Panic {
            context: format!("experiment {id}"),
            payload: crate::parallel::payload_string(p),
        }),
    }
}

/// Every experiment, in presentation order, with stable ids. A failing
/// experiment — watchdog trip or panic — yields its `Err` in place
/// while every other experiment still runs to completion.
///
/// Experiments run on the parallel executor (see [`crate::parallel`]):
/// each (id, result) pair is produced by an independent task, and
/// results are collected in registry order, so the output — and every
/// table in it — is identical to a serial run.
pub fn all_experiments(ctx: ExpCtx) -> Vec<(String, ExpResult)> {
    let specs = experiment_specs(ctx);
    crate::parallel::par_run(specs.len(), |i| {
        let (id, thunk) = &specs[i];
        (id.clone(), run_guarded(id, thunk))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_workloads_cover_experiment_specs() {
        // Every Workload variant the experiment functions construct
        // must appear in the lint registry — cross-checked against
        // this file's own source so a new experiment using a new
        // variant fails here until the registry learns it.
        let registered = registered_workloads();
        let src = include_str!("experiments.rs");
        let variant_of = |w: &Workload| -> &'static str {
            match w {
                Workload::HighContention { .. } => "HighContention",
                Workload::LowContention { .. } => "LowContention",
                Workload::Diluted { .. } => "Diluted",
                Workload::CasRetryLoop { .. } => "CasRetryLoop",
                Workload::MixedReadWrite { .. } => "MixedReadWrite",
                Workload::ReadScan { .. } => "ReadScan",
                Workload::LockHandoff { .. } => "LockHandoff",
                Workload::FalseSharing { .. } => "FalseSharing",
                Workload::CasRetryLoopBackoff { .. } => "CasRetryLoopBackoff",
                Workload::MultiLine { .. } => "MultiLine",
                Workload::Zipf { .. } => "Zipf",
            }
        };
        let covered: std::collections::BTreeSet<&str> = registered.iter().map(variant_of).collect();
        for variant in [
            "HighContention",
            "LowContention",
            "Diluted",
            "CasRetryLoop",
            "MixedReadWrite",
            "ReadScan",
            "LockHandoff",
            "FalseSharing",
            "CasRetryLoopBackoff",
            "MultiLine",
            "Zipf",
        ] {
            if src.contains(&format!("Workload::{variant}")) {
                assert!(
                    covered.contains(variant),
                    "experiments use Workload::{variant} but registered_workloads() \
                     lists no parameterization of it"
                );
            }
        }
        // The registry is label-unique (no accidental duplicates).
        let labels: std::collections::BTreeSet<String> =
            registered.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), registered.len());
    }

    #[test]
    fn latency_hist_reports_a_bad_config_as_sim_error() {
        let fabric = FabricFaultConfig {
            nack_per_mille: 5000,
            ..FabricFaultConfig::default()
        };
        let ctx = ExpCtx::quick().with_fabric_faults(fabric);
        match latency_hist(ctx, Machine::E5) {
            Err(e @ ExpError::Sim { .. }) => {
                let msg = e.to_string();
                assert!(msg.contains("fabric.nack_per_mille"), "{msg}");
            }
            other => panic!("expected ExpError::Sim, got {other:?}"),
        }
    }

    #[test]
    fn table1_lists_both_machines() {
        let t = table1();
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][0].contains("E5"));
        assert!(t.rows[1][0].contains("Phi"));
    }

    #[test]
    fn table2_rmw_slower_than_load() {
        let t = table2(ExpCtx::quick()).unwrap();
        // 2 machines x 6 primitives.
        assert_eq!(t.rows.len(), 12);
        let lat = t.column("latency_cycles").unwrap();
        let prim = t.column("primitive").unwrap();
        let find = |machine_rows: &[&Vec<String>], p: &str| -> f64 {
            machine_rows.iter().find(|r| r[prim] == p).unwrap()[lat]
                .parse()
                .unwrap()
        };
        let e5_rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "e5").collect();
        assert!(find(&e5_rows, "faa") > find(&e5_rows, "load"));
        assert!(find(&e5_rows, "cas") >= find(&e5_rows, "faa"));
    }

    #[test]
    fn fig1_has_expected_shape() {
        let t = fig1(ExpCtx::quick(), Machine::E5).unwrap();
        assert_eq!(t.headers.len(), 7);
        assert_eq!(t.rows.len(), 4); // quick sweep 1,2,4,8
                                     // Single-thread FAA beats 8-thread FAA (the contention cliff).
        let faa = t.column_f64("faa").unwrap();
        assert!(faa[0] > faa[3], "n=1 {} should beat n=8 {}", faa[0], faa[3]);
    }

    #[test]
    fn fig3_failure_grows_with_n() {
        let t = fig3(ExpCtx::quick(), Machine::E5).unwrap();
        let fail = t.column_f64("fail_rate").unwrap();
        assert!(fail[0] <= fail[fail.len() - 1] + 0.05);
        // Model column exists and is a probability.
        let mf = t.column_f64("model_fail_rate").unwrap();
        assert!(mf.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn fig7_reports_mape() {
        let t = fig7(ExpCtx::quick(), Machine::E5).unwrap();
        let last = t.rows.last().unwrap();
        assert_eq!(last[0], "MAPE");
        let m: f64 = last[3].parse().unwrap();
        assert!(m < 50.0, "MAPE {m} suspiciously high even for quick mode");
    }

    #[test]
    fn fig9_free_work_then_decline() {
        let t = fig9(ExpCtx::quick(), Machine::E5).unwrap();
        let x = t.column_f64("throughput_mops").unwrap();
        // Small work is free under saturation...
        assert!(
            (x[1] / x[0] - 1.0).abs() < 0.25,
            "work below the knee is ~free: {x:?}"
        );
        // ...huge work is demand-limiting.
        assert!(
            *x.last().unwrap() < 0.5 * x[0],
            "work far past the knee must cost throughput: {x:?}"
        );
        // Latency falls once contention is diluted.
        let lat = t.column_f64("latency_cycles").unwrap();
        assert!(lat.last().unwrap() < lat.first().unwrap(), "{lat:?}");
    }

    #[test]
    fn all_experiments_quick_runs() {
        let all = all_experiments(ExpCtx::quick());
        assert_eq!(all.len(), 2 + 2 * 20);
        for (id, r) in &all {
            let t = r.as_ref().unwrap_or_else(|e| panic!("{id} failed: {e}"));
            assert!(!t.rows.is_empty(), "{id} produced no rows");
        }
    }

    #[test]
    fn e14_is_deterministic() {
        let a = fault_injection(ExpCtx::quick(), Machine::E5).unwrap();
        let b = fault_injection(ExpCtx::quick(), Machine::E5).unwrap();
        assert_eq!(a.rows, b.rows, "same seed must give identical tables");
    }

    #[test]
    fn e14_fairness_degrades_with_preemption() {
        let t = fault_injection(ExpCtx::quick(), Machine::E5).unwrap();
        let cas_jain = t.column_f64("casloop_jain").unwrap();
        let faa_jain = t.column_f64("faa_jain").unwrap();
        let fail = t.column_f64("casloop_fail_rate").unwrap();
        // Fairness must fall monotonically (small tolerance per step for
        // sampling noise) as the preemption rate grows, for both
        // primitives.
        for jain in [&cas_jain, &faa_jain] {
            for w in jain.windows(2) {
                assert!(
                    w[1] <= w[0] + 0.02,
                    "Jain must not improve under preemption: {jain:?}"
                );
            }
        }
        assert!(
            *cas_jain.last().unwrap() < cas_jain[0] - 0.1,
            "40% preemption must visibly skew the CAS loop: {cas_jain:?}"
        );
        // The CAS loop's stale-wake penalty makes it collapse harder
        // than wait-free FAA.
        assert!(
            cas_jain.last().unwrap() < faa_jain.last().unwrap(),
            "CAS fairness {cas_jain:?} must fall below FAA's {faa_jain:?}"
        );
        // Dark threads thin the contention, so the aggregate CAS
        // failure rate falls even as fairness collapses.
        assert!(
            *fail.last().unwrap() <= fail[0],
            "preemption thins contention; failure rate must not rise: {fail:?}"
        );
    }

    #[test]
    fn e15_is_deterministic() {
        let a = degraded_fabric(ExpCtx::quick(), Machine::E5).unwrap();
        let b = degraded_fabric(ExpCtx::quick(), Machine::E5).unwrap();
        assert_eq!(a.rows, b.rows, "same seed must give identical tables");
    }

    #[test]
    fn e15_fabric_degradation_has_paper_shape() {
        let t = degraded_fabric(ExpCtx::quick(), Machine::E5).unwrap();
        assert_eq!(t.rows.len(), 3, "quick severity axis");
        let faa = t.column_f64("faa_mops").unwrap();
        let eager = t.column_f64("cas_eager_goodput_mops").unwrap();
        let backoff = t.column_f64("cas_backoff_goodput_mops").unwrap();
        let ticket = t.column_f64("ticket_handoff_mops").unwrap();
        // Severity 0 is healthy for every workload.
        assert!(faa[0] > 0.0 && eager[0] > 0.0 && backoff[0] > 0.0 && ticket[0] > 0.0);
        // FAA and the ticket lock degrade but survive the whole axis.
        let last = faa.len() - 1;
        assert!(
            faa[last] > 0.0,
            "FAA must survive the worst fabric: {faa:?}"
        );
        assert!(
            faa[last] < faa[0],
            "NACK/congestion pressure must cost FAA throughput: {faa:?}"
        );
        assert!(
            ticket[last] > 0.0,
            "ticket lock must survive the worst fabric: {ticket:?}"
        );
        // The retry dynamics contrast: under the harshest fabric the
        // backoff ladder must do at least as well as eager retry (eager
        // may have stormed to 0 — that collapse is the knee).
        assert!(
            backoff[last] >= eager[last],
            "backoff must not lose to eager retry under pressure: \
             backoff {backoff:?} vs eager {eager:?}"
        );
        // Relative degradation: bare CAS under eager retry loses more of
        // its healthy-fabric goodput than hardware-arbitrated FAA does.
        let ratio = |xs: &[f64]| xs[last] / xs[0].max(1e-12);
        assert!(
            ratio(&eager) <= ratio(&faa) + 1e-9,
            "eager CAS must degrade at least as hard as FAA: \
             eager {eager:?} vs faa {faa:?}"
        );
    }

    #[test]
    fn run_guarded_converts_panics() {
        let thunk: ExpThunk = Box::new(|| panic!("synthetic failure"));
        let err = run_guarded("e99", &thunk).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("e99"), "{msg}");
        assert!(msg.contains("synthetic failure"), "{msg}");
    }

    #[test]
    fn fig11_false_sharing_much_slower_than_padded() {
        let t = fig11(ExpCtx::quick(), Machine::E5).unwrap();
        let slow = t.column_f64("slowdown").unwrap();
        // At n >= 4 padding must win by a wide margin.
        assert!(
            *slow.last().unwrap() > 3.0,
            "false sharing should be >3x slower: {slow:?}"
        );
    }

    #[test]
    fn e13_protocol_ordering() {
        let t = protocol_ablation(ExpCtx::quick(), Machine::E5).unwrap();
        let proto = t.column("protocol").unwrap();
        let row = |p: &str| -> &Vec<String> { t.rows.iter().find(|r| r[proto] == p).unwrap() };
        let read_col = t
            .headers
            .iter()
            .position(|h| h == "readheavy_mops")
            .unwrap();
        let get = |p: &str| -> f64 { row(p)[read_col].parse().unwrap() };
        let (mesif, moesi, mesi) = (get("mesif"), get("moesi"), get("mesi"));
        assert!(
            mesif >= 0.999 * moesi,
            "read-heavy: MESIF {mesif} must not lose to MOESI {moesi}"
        );
        assert!(
            moesi > mesi,
            "read-heavy: MOESI {moesi} (c2c dirty sharing) must beat MESI {mesi} (memory)"
        );
        // Pure GetM streams are protocol-blind: the FAA high-contention
        // column must agree *exactly* across all three protocols.
        let faa_col = t.headers.iter().position(|h| h == "faa_hc_mops").unwrap();
        assert_eq!(row("mesif")[faa_col], row("moesi")[faa_col]);
        assert_eq!(row("mesif")[faa_col], row("mesi")[faa_col]);
    }

    #[test]
    fn fig12_mesif_helps_readers() {
        let t = fig12(ExpCtx::quick(), Machine::E5).unwrap();
        let gain = t.column_f64("mesif_gain").unwrap();
        assert!(
            gain.iter().all(|&g| g >= 0.9),
            "MESIF should never hurt: {gain:?}"
        );
        assert!(
            gain.iter().any(|&g| g > 1.05),
            "MESIF should visibly help read-mostly sharing: {gain:?}"
        );
    }

    #[test]
    fn ablation_backoff_reduces_failures() {
        let t = ablations(ExpCtx::quick(), Machine::E5).unwrap();
        let variant = t.column("variant").unwrap();
        let fail = t.column("fail_rate").unwrap();
        let get = |v: &str| -> f64 {
            t.rows.iter().find(|r| r[variant] == v).unwrap()[fail]
                .parse()
                .unwrap()
        };
        assert!(
            get("ladder-512") <= get("none") + 0.02,
            "heavy backoff must not increase the failure rate: {} vs {}",
            get("ladder-512"),
            get("none")
        );
    }
}
