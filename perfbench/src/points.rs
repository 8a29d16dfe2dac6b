//! Simulation points: their specification, compilation, the timed run
//! through each simulator layer, output digests and invariant checks.

use crate::trace::Recorder;
use bounce_atomics::Primitive;
use bounce_bench::manifest::fnv1a_hex;
use bounce_core::validate::{validated_rows, ValidationMetric, ValidationRow};
use bounce_core::BouncingModel;
use bounce_harness::experiments::Machine;
use bounce_harness::{predict_timed, Backend, Measurement};
use bounce_sim::program::Program;
use bounce_sim::report::LatencyStats;
use bounce_sim::{
    analyze_workload, ArbitrationPolicy, Engine, HomePolicy, SimConfig, SimParams, SimReport,
};
use bounce_topo::{HwThreadId, MachineTopology, Placement};
use bounce_workloads::{AddressMap, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// One simulation: which workload runs with how many threads on which
/// machine, under which parameters, for how many cycles.
#[derive(Debug, Clone)]
pub struct PointSpec {
    pub machine: Machine,
    pub workload: Workload,
    pub n: usize,
    pub params: SimParams,
    pub cycles: u64,
}

impl PointSpec {
    /// The experiments' configuration in exact mode: the machine's
    /// parameter preset, FIFO arbitration, home slice 0, packed threads
    /// and a fixed run length.
    pub fn exact(machine: Machine, workload: Workload, n: usize, cycles: u64, seed: u64) -> Self {
        let mut params = machine.sim_params();
        params.arbitration = ArbitrationPolicy::Fifo;
        params.home_policy = HomePolicy::Fixed(0);
        params.seed = seed;
        PointSpec {
            machine,
            workload,
            n,
            params,
            cycles,
        }
    }

    /// Whether the outputs are independent of the seed: only random
    /// arbitration draws from it (home slices are pinned and no faults
    /// are injected).
    pub fn seed_free(&self) -> bool {
        self.params.arbitration != ArbitrationPolicy::Random && !self.params.fabric.enabled()
    }

    pub fn label(&self) -> String {
        format!(
            "{}/{}/n{}/{}/{}/ways{}",
            self.machine.label(),
            self.workload.label(),
            self.n,
            self.params.arbitration.label(),
            self.params.protocol.label(),
            self.params.l1_ways
        )
    }

    /// The model quantity this point validates, for points the model
    /// covers: two or more threads, FIFO arbitration, and the machine's
    /// own protocol and cache shape (the model knows no other).
    fn validation(&self) -> Option<ValidationMetric> {
        let native = self.machine.sim_params();
        if self.n < 2
            || self.params.arbitration != ArbitrationPolicy::Fifo
            || self.params.protocol != native.protocol
            || self.params.l1_ways != native.l1_ways
        {
            return None;
        }
        match self.workload {
            Workload::LockHandoff { shape, .. } => Some(ValidationMetric::Handoffs(shape)),
            _ => Some(ValidationMetric::Throughput),
        }
    }

    /// Words that every FAA of the workload increments by one, when
    /// they are known: their final sum bounds the FAAs counted.
    fn faa_targets(&self) -> Option<Vec<bounce_sim::cache::WordAddr>> {
        let map = AddressMap;
        match self.workload {
            Workload::HighContention {
                prim: Primitive::Faa,
            }
            | Workload::MixedReadWrite {
                prim: Primitive::Faa,
                ..
            }
            | Workload::ReadScan { .. } => Some(vec![map.shared()]),
            Workload::LowContention {
                prim: Primitive::Faa,
                ..
            } => Some((0..self.n).map(|i| map.private(i)).collect()),
            _ => None,
        }
    }
}

/// The two paper machines' topologies and models, built once.
pub struct World {
    topos: [MachineTopology; 2],
    models: [BouncingModel; 2],
}

fn index(m: Machine) -> usize {
    match m {
        Machine::E5 => 0,
        Machine::Knl => 1,
    }
}

impl World {
    /// Build both machines, timing the topology builds under
    /// `topo.build` spans. Returns the world and the topology time.
    pub fn build(rec: &mut Recorder) -> (World, f64) {
        let t0 = Instant::now();
        let topos = Machine::ALL.map(|m| rec.span("topo.build", |_| m.topo()));
        let topo_s = t0.elapsed().as_secs_f64();
        let models =
            Machine::ALL.map(|m| BouncingModel::new(topos[index(m)].clone(), m.model_params()));
        (World { topos, models }, topo_s)
    }

    pub fn topo(&self, m: Machine) -> &MachineTopology {
        &self.topos[index(m)]
    }

    pub fn model(&self, m: Machine) -> &BouncingModel {
        &self.models[index(m)]
    }
}

/// A point compiled to one program per thread, with its placement.
pub struct Prepared {
    pub spec: PointSpec,
    pub hw: Vec<HwThreadId>,
    programs: Vec<Program>,
}

/// Host seconds spent compiling and statically checking a point list.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareTimes {
    pub compile_s: f64,
    pub analyze_s: f64,
}

/// Place and compile every point (`Placement::assign` +
/// `Workload::sim_programs`) and run the static analyzer over its
/// programs, rejecting invalid parameters and workloads up front.
pub fn prepare(
    specs: Vec<PointSpec>,
    world: &World,
    rec: &mut Recorder,
) -> Result<(Vec<Prepared>, PrepareTimes), String> {
    let mut times = PrepareTimes::default();
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        spec.params
            .validate()
            .map_err(|e| format!("{}: {e}", spec.label()))?;
        let t0 = Instant::now();
        let (hw, programs) = rec.span("workloads.compile", |_| {
            let hw = Placement::Packed.assign(world.topo(spec.machine), spec.n);
            (hw, spec.workload.sim_programs(spec.n))
        });
        let t1 = Instant::now();
        let diagnostics = rec.span("sim.analyze", |_| {
            analyze_workload(&programs.iter().collect::<Vec<_>>())
        });
        times.compile_s += (t1 - t0).as_secs_f64();
        times.analyze_s += t1.elapsed().as_secs_f64();
        if let Some(d) = diagnostics.first() {
            return Err(format!("{}: {d}", spec.label()));
        }
        out.push(Prepared { spec, hw, programs });
    }
    Ok((out, times))
}

/// Additive simulated counts of a set of points (deterministic for a
/// given point list and seed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    pub events: u64,
    pub ops: u64,
    pub hits: u64,
    pub misses: u64,
    pub dir_transactions: u64,
    pub invalidations: u64,
    pub transfers: u64,
    pub queue_depth_sum: u64,
    pub queue_depth_count: u64,
    pub cond_attempts: u64,
    pub cond_successes: u64,
}

impl SimStats {
    fn of(r: &SimReport) -> Self {
        SimStats {
            events: r.events,
            ops: r.total_ops(),
            hits: r.threads.iter().map(|t| t.hits).sum(),
            misses: r.threads.iter().map(|t| t.misses).sum(),
            dir_transactions: r.dir_transactions,
            invalidations: r.invalidations,
            transfers: r.total_transfers(),
            queue_depth_sum: r.queue_depth.sum,
            queue_depth_count: r.queue_depth.count,
            cond_attempts: r.total_cond_attempts(),
            cond_successes: r.total_cond_successes(),
        }
    }

    pub fn add(&mut self, o: &SimStats) {
        self.events += o.events;
        self.ops += o.ops;
        self.hits += o.hits;
        self.misses += o.misses;
        self.dir_transactions += o.dir_transactions;
        self.invalidations += o.invalidations;
        self.transfers += o.transfers;
        self.queue_depth_sum += o.queue_depth_sum;
        self.queue_depth_count += o.queue_depth_count;
        self.cond_attempts += o.cond_attempts;
        self.cond_successes += o.cond_successes;
    }
}

/// What one point produced.
pub struct PointResult {
    /// FNV-1a over the simulated statistics (see [`digest_text`]).
    pub digest: String,
    pub stats: SimStats,
    pub measurement: Measurement,
    /// Violated invariants, one line each.
    pub violations: Vec<String>,
}

/// Run one point through the engine: construction, the run, and the
/// reduction to a [`Measurement`], each under its own span.
pub fn run_point(
    p: &Prepared,
    topo: &MachineTopology,
    rec: &mut Recorder,
) -> Result<PointResult, String> {
    let mut engine = rec.span("sim.engine.new", |_| {
        let mut e = Engine::new(topo, SimConfig::new(p.spec.params.clone(), p.spec.cycles));
        for (&hw, program) in p.hw.iter().zip(&p.programs) {
            e.add_thread(hw, program.clone());
        }
        e
    });
    let report = rec
        .span("sim.engine.run", |_| engine.try_run())
        .map_err(|e| format!("{}: {e}", p.spec.label()))?;
    let measurement = rec.span("sim.engine.reduce", |_| reduce(&p.spec, topo, &report));
    let violations = invariants(&p.spec, &engine, &report);
    Ok(PointResult {
        digest: fnv1a_hex(digest_text(&report).as_bytes()),
        stats: SimStats::of(&report),
        measurement,
        violations,
    })
}

/// The harness's reduction of a report to a [`Measurement`] (as in
/// `bounce_harness::simrun`).
fn reduce(spec: &PointSpec, topo: &MachineTopology, r: &SimReport) -> Measurement {
    let mut ops_by_prim = [0u64; 6];
    for t in &r.threads {
        for (a, b) in ops_by_prim.iter_mut().zip(t.ops_by_prim) {
            *a += b;
        }
    }
    Measurement {
        workload: spec.workload.label(),
        machine: topo.name.clone(),
        backend: Backend::Sim,
        n: spec.n,
        throughput_ops_per_sec: r.throughput_ops_per_sec(),
        goodput_ops_per_sec: r.goodput_ops_per_sec(),
        cond_attempts_per_sec: r.cond_attempts_per_sec(),
        failure_rate: r.failure_rate(),
        mean_latency_cycles: r.mean_latency_cycles(),
        p50_latency_cycles: r.p50_latency_cycles,
        p99_latency_cycles: r.p99_latency_cycles,
        jain: r.jain_fairness(),
        energy_per_op_nj: Some(r.energy_per_op_nj()),
        transfers_by_domain: Some(r.transfers_by_domain),
        ops_by_prim: Some(ops_by_prim),
        per_thread_ops: r.threads.iter().map(|t| t.ops).collect(),
    }
}

fn write_latency(s: &mut String, l: &LatencyStats) {
    let _ = write!(s, "{} {} {} {} {:?};", l.count, l.sum, l.min, l.max, l.hist);
}

/// Every simulated statistic of a report, as text. Host-side counts are
/// left out: `events` (how the engine got there, which a pure speed-up
/// may change) and nothing measured in host time is in a report.
pub fn digest_text(r: &SimReport) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "cycles {} {} {};",
        r.duration_cycles, r.window_cycles, r.freq_ghz
    );
    for t in &r.threads {
        let _ = write!(
            s,
            "t{} {} {} {} {} {} {:?} {} {} {} {};",
            t.hw_thread,
            t.ops,
            t.successes,
            t.failures,
            t.cond_attempts,
            t.cond_successes,
            t.ops_by_prim,
            t.spin_loads,
            t.hits,
            t.misses,
            t.retries
        );
        write_latency(&mut s, &t.latency);
    }
    let _ = write!(
        s,
        "xfer {:?} inv {} mem {} dir {} pre {} nack {} retry {} p50 {} p99 {};",
        r.transfers_by_domain,
        r.invalidations,
        r.mem_accesses,
        r.dir_transactions,
        r.preemptions,
        r.nacks,
        r.retries,
        r.p50_latency_cycles,
        r.p99_latency_cycles
    );
    write_latency(&mut s, &r.queue_depth);
    let e = &r.energy;
    let _ = write!(
        s,
        "energy {:.6e} {:.6e} {:.6e} {:.6e} {:.6e} {:.6e} {:.6e};",
        e.static_j, e.ops_j, e.cache_j, e.directory_j, e.network_j, e.memory_j, e.invalidation_j
    );
    let rl = &r.run_length;
    let _ = write!(
        s,
        "run {} {} {} {} {} {:.6e} {:.6e} {:.6e}",
        rl.budget_cycles,
        rl.ended_at_cycles,
        rl.early_stop,
        rl.batches,
        rl.truncated,
        rl.rel_ci_throughput,
        rl.rel_ci_latency,
        rl.rel_ci_fairness
    );
    s
}

/// Physical invariants every report must satisfy.
fn invariants(spec: &PointSpec, engine: &Engine, r: &SimReport) -> Vec<String> {
    let mut v = Vec::new();
    let label = spec.label();
    if r.total_ops() == 0 {
        v.push(format!("{label}: no op completed"));
    }
    if r.p99_latency_cycles < r.p50_latency_cycles {
        v.push(format!("{label}: p99 latency below p50"));
    }
    let jain = r.jain_fairness();
    if !(0.0..=1.0 + 1e-9).contains(&jain) {
        v.push(format!("{label}: Jain index {jain} outside [0, 1]"));
    }
    let e = &r.energy;
    let parts = [
        e.static_j,
        e.ops_j,
        e.cache_j,
        e.directory_j,
        e.network_j,
        e.memory_j,
        e.invalidation_j,
    ];
    if parts.iter().any(|&j| j.is_nan() || j < 0.0) {
        v.push(format!("{label}: negative or undefined energy"));
    }
    if let Some(words) = spec.faa_targets() {
        let applied: u64 = words.iter().map(|&w| engine.word(w)).sum();
        let counted = r.total_ops_of(Primitive::Faa);
        if applied < counted {
            v.push(format!(
                "{label}: FAA words hold {applied} < {counted} FAAs"
            ));
        }
    }
    v
}

/// Predict every validated point through the harness's timed predictor
/// and return the rows (prediction vs simulation).
pub fn validation_rows(points: &[(&Prepared, Measurement)], world: &World) -> Vec<ValidationRow> {
    let mut rows = Vec::new();
    for (p, m) in points {
        let Some(metric) = p.spec.validation() else {
            continue;
        };
        let Some(scenario) = p.spec.workload.scenario(&p.hw) else {
            continue;
        };
        let prediction = predict_timed(world.model(p.spec.machine), &scenario);
        let measured = match metric {
            ValidationMetric::Handoffs(shape) => m.lock_handoffs_per_sec(shape),
            // The model's CAS-loop throughput is goodput.
            _ => match p.spec.workload {
                Workload::CasRetryLoop { .. } => m.goodput_ops_per_sec,
                _ => m.throughput_ops_per_sec,
            },
        };
        rows.extend(validated_rows(&[(scenario, prediction, measured)], metric));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_topo::presets;

    fn tiny_report() -> (SimReport, Engine) {
        let topo = presets::tiny_test_machine();
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let mut e = Engine::new(&topo, SimConfig::new(SimParams::e5(), 50_000));
        for (i, p) in w.sim_programs(2).into_iter().enumerate() {
            e.add_thread(HwThreadId(2 * i), p);
        }
        (e.run(), e)
    }

    #[test]
    fn digest_follows_simulated_fields_only() {
        let (r, _) = tiny_report();
        let base = fnv1a_hex(digest_text(&r).as_bytes());
        let mut fewer_events = r.clone();
        fewer_events.events -= 1;
        assert_eq!(fnv1a_hex(digest_text(&fewer_events).as_bytes()), base);
        let mut changed = r.clone();
        changed.threads[1].hits += 1;
        assert_ne!(fnv1a_hex(digest_text(&changed).as_bytes()), base);
        let mut changed = r.clone();
        changed.energy.static_j *= 1.01;
        assert_ne!(fnv1a_hex(digest_text(&changed).as_bytes()), base);
        let mut changed = r;
        changed.threads[0].latency.hist[3] += 1;
        assert_ne!(fnv1a_hex(digest_text(&changed).as_bytes()), base);
    }

    #[test]
    fn invariants_hold_on_a_real_run_and_catch_violations() {
        let (r, e) = tiny_report();
        let spec = PointSpec::exact(
            Machine::E5,
            Workload::HighContention {
                prim: Primitive::Faa,
            },
            2,
            50_000,
            1,
        );
        assert!(invariants(&spec, &e, &r).is_empty());
        let mut bad = r;
        bad.p99_latency_cycles = bad.p50_latency_cycles - 1.0;
        bad.threads[0].ops_by_prim[4] += 1_000_000_000;
        let v = invariants(&spec, &e, &bad);
        assert!(v.iter().any(|s| s.contains("p99")), "{v:?}");
        assert!(v.iter().any(|s| s.contains("FAA words")), "{v:?}");
    }
}
