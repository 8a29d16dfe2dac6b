//! The four benchmark workloads: their inputs, set-up, and one
//! repetition of each on the harness's job pool.

use crate::host;
use crate::points::{self, PointSpec, PrepareTimes, Prepared, SimStats, World};
use crate::trace::{now_ns, thread_id, Recorder, Span};
use bounce_atomics::{LockShape, Primitive};
use bounce_bench::manifest::fnv1a_hex;
use bounce_core::validate::mape;
use bounce_harness::experiments::{
    experiment_specs, registered_workloads, run_guarded, ExpCtx, ExpThunk, Machine,
};
use bounce_harness::parallel::{par_run_result_jobs, PointPanic};
use bounce_harness::{campaign_validation, modeltime};
use bounce_sim::counters::{self, RunTally};
use bounce_sim::{ArbitrationPolicy, CoherenceKind, RunLength};
use bounce_workloads::Workload;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HcBounce,
    LcPrivate,
    SharedRw,
    Campaign,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HcBounce,
        Kind::LcPrivate,
        Kind::SharedRw,
        Kind::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HcBounce => "hc-bounce",
            Kind::LcPrivate => "lc-private",
            Kind::SharedRw => "shared-rw",
            Kind::Campaign => "campaign",
        }
    }

    pub fn from_name(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Digest of the workload's seed-independent points, which every
    /// seed must reproduce. `None` for the campaign, whose tables change
    /// whenever the model does.
    pub fn pinned_digest(self) -> Option<&'static str> {
        match self {
            Kind::HcBounce => Some("fnv1a:1c7733907cc3f96f"),
            Kind::LcPrivate => Some("fnv1a:b7e83822ab9998c2"),
            Kind::SharedRw => Some("fnv1a:76d07be845be0844"),
            Kind::Campaign => None,
        }
    }

    /// The simulation points of an engine workload (none for the
    /// campaign, whose points are its experiments).
    pub fn specs(self, seed: u64) -> Vec<PointSpec> {
        let mut v = Vec::new();
        match self {
            // Every op misses L1: the directory queue, service path and
            // event queue do the work, at every contention level.
            Kind::HcBounce => {
                for m in Machine::ALL {
                    for n in m.sweep_ns(false) {
                        let workloads = Primitive::RMW
                            .map(|prim| Workload::HighContention { prim })
                            .into_iter()
                            .chain([Workload::CasRetryLoop {
                                window: 30,
                                work: 0,
                            }]);
                        for w in workloads {
                            v.push(PointSpec::exact(m, w, n, 2_000_000, seed));
                        }
                        let mut random = PointSpec::exact(
                            m,
                            Workload::HighContention {
                                prim: Primitive::Faa,
                            },
                            n,
                            2_000_000,
                            seed,
                        );
                        random.params.arbitration = ArbitrationPolicy::Random;
                        v.push(random);
                    }
                }
            }
            // Every access hits L1: the interpreter, the hit fast path
            // and the event queue do the work; the directory idles.
            Kind::LcPrivate => {
                for (m, ns) in [(Machine::E5, [8, 36, 72]), (Machine::Knl, [16, 72, 288])] {
                    for n in ns {
                        for prim in [Primitive::Faa, Primitive::Cas, Primitive::Swap] {
                            let w = Workload::LowContention { prim, work: 0 };
                            v.push(PointSpec::exact(m, w, n, 1_000_000, seed));
                        }
                    }
                }
            }
            // Reads beside writes: shared/forward/owned fills,
            // invalidation fan-out, spin-waiter wakeups and evictions,
            // under each coherence protocol.
            Kind::SharedRw => {
                let mix = [
                    Workload::MixedReadWrite {
                        writers: 1,
                        prim: Primitive::Faa,
                    },
                    Workload::ReadScan {
                        writers: 1,
                        writer_work: 2000,
                    },
                    Workload::LockHandoff {
                        shape: LockShape::Ttas,
                        cs: 100,
                        noncs: 200,
                    },
                    Workload::LockHandoff {
                        shape: LockShape::Ticket,
                        cs: 100,
                        noncs: 200,
                    },
                    Workload::LockHandoff {
                        shape: LockShape::Mcs,
                        cs: 100,
                        noncs: 200,
                    },
                ];
                for protocol in CoherenceKind::ALL {
                    for (m, n) in [
                        (Machine::E5, 16),
                        (Machine::E5, 36),
                        (Machine::Knl, 16),
                        (Machine::Knl, 64),
                    ] {
                        for w in &mix {
                            let mut p = PointSpec::exact(m, w.clone(), n, 2_000_000, seed);
                            p.params.protocol = protocol;
                            // Direct-mapped L1, so each scan evicts the
                            // shared copy (as in the protocol ablation).
                            if matches!(w, Workload::ReadScan { .. }) {
                                p.params.l1_ways = 1;
                            }
                            v.push(p);
                        }
                    }
                }
            }
            Kind::Campaign => {}
        }
        v
    }
}

/// The campaign `repro all --quick` runs: quick sweeps, adaptive run
/// lengths.
fn campaign_ctx() -> ExpCtx {
    ExpCtx::quick()
}

/// The campaign's points as the engine workloads see them: every
/// registered workload on both machines at the campaign's thread counts,
/// cycle budget and adaptive run length. The experiments call the
/// simulator internally, so the traced run times the per-point layers
/// on this probe instead.
pub fn probe_specs(seed: u64) -> Vec<PointSpec> {
    let mut v = Vec::new();
    for m in Machine::ALL {
        for w in registered_workloads() {
            for n in m.sweep_ns(campaign_ctx().quick) {
                // The quick experiments' cycle budget.
                let mut p = PointSpec::exact(m, w.clone(), n, 300_000, seed);
                p.params.run_length = RunLength::adaptive();
                v.push(p);
            }
        }
    }
    v
}

pub enum Input {
    Points(Vec<Prepared>),
    Experiments(Vec<(String, ExpThunk)>, ExpCtx),
}

/// Everything built before the first repetition.
pub struct Setup {
    pub world: World,
    pub input: Input,
    pub topo_s: f64,
    pub prep: PrepareTimes,
    pub points: usize,
}

/// Build topologies, models and the point list, and compile every
/// point's programs.
pub fn setup(kind: Kind, seed: u64, rec: &mut Recorder) -> Result<Setup, String> {
    let (world, topo_s) = World::build(rec);
    let (input, prep, points) = match kind {
        Kind::Campaign => {
            let ctx = campaign_ctx();
            let specs = experiment_specs(ctx);
            let n = specs.len();
            (Input::Experiments(specs, ctx), PrepareTimes::default(), n)
        }
        _ => {
            let (prepared, prep) = points::prepare(kind.specs(seed), &world, rec)?;
            let n = prepared.len();
            (Input::Points(prepared), prep, n)
        }
    };
    Ok(Setup {
        world,
        input,
        topo_s,
        prep,
        points,
    })
}

/// Host time of a job pool: busy time summed over points, the tail in
/// which some worker had already run out of points, and each point's
/// latency.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    pub jobs: usize,
    pub wall: f64,
    pub busy: f64,
    pub straggler: f64,
    pub point_s: Vec<f64>,
}

impl Pool {
    pub fn idle_frac(&self) -> f64 {
        1.0 - self.busy / (self.jobs as f64 * self.wall)
    }
}

/// Run `f` over `0..n` on the harness pool with `jobs` workers, each
/// point inside a root span `name(i)` that `rec` absorbs. Panics are
/// isolated per point.
fn run_pool<U: Send>(
    n: usize,
    jobs: usize,
    rec: &mut Recorder,
    name: impl Fn(usize) -> String + Sync,
    f: impl Fn(usize, &mut Recorder) -> U + Sync,
) -> (Vec<Result<U, PointPanic>>, Pool) {
    let trace = rec.on();
    let t0 = now_ns();
    let raw = par_run_result_jobs(n, jobs, |i| {
        let mut r = Recorder::for_point(trace, i);
        let start = now_ns();
        let u = r.span(name(i), |r| f(i, r));
        (u, (thread_id(), start, now_ns()), r.spans)
    });
    let mut pool = Pool {
        jobs,
        wall: (now_ns() - t0) as f64 / 1e9,
        ..Pool::default()
    };
    // Each worker's last finish: the spread between them is the tail in
    // which the pool ran short-handed.
    let mut last_end: Vec<(usize, u64)> = Vec::new();
    let results = raw
        .into_iter()
        .map(|r| {
            r.map(|(u, (tid, start, end), spans)| {
                rec.absorb(spans);
                let secs = (end - start) as f64 / 1e9;
                pool.busy += secs;
                pool.point_s.push(secs);
                match last_end.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, e)) => *e = (*e).max(end),
                    None => last_end.push((tid, end)),
                }
                u
            })
        })
        .collect();
    if last_end.len() == jobs && jobs > 1 {
        let ends = last_end.iter().map(|&(_, e)| e);
        let (hi, lo) = (ends.clone().max(), ends.min());
        pool.straggler = hi.zip(lo).map_or(0.0, |(h, l)| (h - l) as f64 / 1e9);
    }
    (results, pool)
}

/// One repetition of a workload: host costs, what the layers counted,
/// and the output digests.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall: f64,
    pub cpu: f64,
    /// Events processed by every engine (`sim::counters`).
    pub events: u64,
    pub pool: Pool,
    /// Digest of every output, in point order.
    pub digest: String,
    /// Digest of the seed-independent points' outputs only.
    pub seed_free_digest: String,
    pub attempted: usize,
    /// Failed points and violated invariants, one line each.
    pub failures: Vec<String>,
    /// Model vs simulator mean absolute percentage error.
    pub mape: f64,
    pub sim: SimStats,
    pub tally: RunTally,
    pub nacks: u64,
    pub retries: u64,
    pub predict_calls: u64,
    pub predict_s: f64,
    pub spans: Vec<Span>,
    /// Factor taking this repetition's host times to the reference
    /// host's speed; already applied to every field but `spans`.
    pub scale: f64,
}

impl Rep {
    /// Express the host times at the reference host's speed (see
    /// [`host::Speed`]).
    pub fn at_reference_speed(&mut self, factor: f64) {
        for t in [
            &mut self.wall,
            &mut self.cpu,
            &mut self.predict_s,
            &mut self.pool.wall,
            &mut self.pool.busy,
            &mut self.pool.straggler,
        ]
        .into_iter()
        .chain(&mut self.pool.point_s)
        {
            *t *= factor;
        }
        self.scale = factor;
    }
}

/// Bracket a repetition with the process-wide counters it reads.
fn measured(trace: bool, body: impl FnOnce(&mut Rep, &mut Recorder)) -> Rep {
    counters::reset_events();
    let model0 = modeltime::snapshot();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let mut rep = Rep::default();
    let mut rec = Recorder::new(trace);
    body(&mut rep, &mut rec);
    rep.wall = t0.elapsed().as_secs_f64();
    rep.cpu = host::cpu_seconds() - cpu0;
    let model = modeltime::snapshot();
    rep.predict_calls = model.calls - model0.calls;
    rep.predict_s = model.seconds - model0.seconds;
    rep.events = counters::total_events();
    rep.tally = counters::run_tally();
    rep.nacks = counters::total_nacks();
    rep.retries = counters::total_retries();
    rep.spans = rec.spans;
    rep
}

/// One repetition of an engine workload: every point on the pool, then
/// the model validated against the points it covers.
pub fn engine_rep(points: &[Prepared], world: &World, jobs: usize, trace: bool) -> Rep {
    measured(trace, |rep, rec| {
        let (results, pool) = run_pool(
            points.len(),
            jobs,
            rec,
            |_| "point".to_string(),
            |i, r| points::run_point(&points[i], world.topo(points[i].spec.machine), r),
        );
        rep.pool = pool;
        rep.attempted = points.len();
        let (mut all, mut seed_free) = (String::new(), String::new());
        let mut validated = Vec::new();
        for (p, r) in points.iter().zip(results) {
            match r {
                Ok(Ok(res)) => {
                    all.push_str(&res.digest);
                    if p.spec.seed_free() {
                        seed_free.push_str(&res.digest);
                    }
                    rep.sim.add(&res.stats);
                    rep.failures.extend(res.violations);
                    validated.push((p, res.measurement));
                }
                Ok(Err(e)) => rep.failures.push(e),
                Err(panic) => rep.failures.push(format!("{}: {panic}", p.spec.label())),
            }
        }
        rep.digest = fnv1a_hex(all.as_bytes());
        rep.seed_free_digest = fnv1a_hex(seed_free.as_bytes());
        rep.mape = rec.span("harness.validation", |_| {
            mape(&points::validation_rows(&validated, world))
        });
    })
}

/// The validation report without its host-time fields.
fn validation_text(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("_seconds\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One repetition of the campaign: every experiment on the pool, then
/// the model-vs-simulator validation campaign.
pub fn campaign_rep(specs: &[(String, ExpThunk)], ctx: ExpCtx, jobs: usize, trace: bool) -> Rep {
    measured(trace, |rep, rec| {
        let (results, pool) = run_pool(
            specs.len(),
            jobs,
            rec,
            |i| format!("harness.experiments.{}", specs[i].0),
            |i, _| run_guarded(&specs[i].0, &specs[i].1),
        );
        rep.pool = pool;
        rep.attempted = specs.len() + 1;
        let mut text = String::new();
        for ((id, _), r) in specs.iter().zip(results) {
            match r {
                Ok(Ok(table)) => {
                    text.push_str(id);
                    text.push('\n');
                    text.push_str(&table.to_tsv());
                }
                Ok(Err(e)) => rep.failures.push(e.to_string()),
                Err(panic) => rep.failures.push(format!("{id}: {panic}")),
            }
        }
        match rec.span("harness.validation", |_| campaign_validation(ctx)) {
            Ok(v) => {
                text.push_str(&validation_text(&v.to_json()));
                let mapes: Vec<f64> = v.entries.iter().map(|e| e.mape_pct).collect();
                rep.mape = mapes.iter().sum::<f64>() / mapes.len() as f64;
            }
            Err(e) => rep.failures.push(format!("validation: {e}")),
        }
        rep.digest = fnv1a_hex(text.as_bytes());
        rep.seed_free_digest = rep.digest.clone();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_lists_have_the_documented_sizes() {
        assert_eq!(Kind::HcBounce.specs(1).len(), 126);
        assert_eq!(Kind::LcPrivate.specs(1).len(), 18);
        assert_eq!(Kind::SharedRw.specs(1).len(), 60);
        assert!(Kind::Campaign.specs(1).is_empty());
        let random = Kind::HcBounce
            .specs(1)
            .iter()
            .filter(|p| !p.seed_free())
            .count();
        assert_eq!(random, 21, "one random-arbitration point per thread count");
    }

    #[test]
    fn the_seed_reaches_every_point() {
        for kind in Kind::ALL {
            assert!(kind.specs(9).iter().all(|p| p.params.seed == 9));
        }
        assert!(probe_specs(9).iter().all(|p| p.params.seed == 9));
    }

    #[test]
    fn validation_text_drops_host_times() {
        let json = "{\n  \"entries\": [],\n  \"sim_seconds\": 1.5,\n  \"model_seconds\": 0.1,\n  \"model_calls\": 3\n}";
        let t = validation_text(json);
        assert!(!t.contains("seconds"));
        assert!(t.contains("model_calls"));
    }
}
