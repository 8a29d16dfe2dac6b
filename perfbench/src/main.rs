//! `perfbench`: a repeatable benchmark of the bounce simulator, model and
//! harness, end to end and per layer. See README.md for the workloads,
//! the metrics, which layer moves which end-to-end number, and how to
//! compare two commits.

mod equeue;
mod heap;
mod host;
mod points;
mod stats;
mod trace;
mod workloads;

use points::PrepareTimes;
use stats::dist;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{chrome_json, self_times, Recorder, Span};
use workloads::{Input, Kind, Rep};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "usage: perfbench [--workload hc-bounce|lc-private|shared-rw|campaign] \
                     [--seed S] [--seconds N] [--trace 0|1] [--json PATH]";

/// Set-up runs this many times per workload; `setup_s` is the median.
const SETUPS: usize = 15;

/// Event-queue hold replays: in-flight depths, steps per replay, replays.
const EQUEUE_DEPTHS: [usize; 2] = [64, 288];
const EQUEUE_STEPS: usize = 200_000;
const EQUEUE_REPLAYS: usize = 5;

struct Opts {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        json: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Kind::from_name(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err("--seconds must be within 1..=3600".into());
                }
                o.seconds = s as f64;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--json" => o.json = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(o)
}

/// One reported number, with the size of the sample it was taken from
/// and, for a median, that sample's quartiles.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Option<usize>,
    quartiles: Option<(f64, f64)>,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples: None,
        quartiles: None,
    }
}

fn median_metric(name: &str, unit: &'static str, xs: &[f64]) -> Metric {
    let d = dist(xs);
    Metric {
        samples: Some(d.n),
        quartiles: Some((d.q1, d.q3)),
        ..metric(name, unit, d.median)
    }
}

fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    dist(&xs.into_iter().collect::<Vec<_>>()).median
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One set-up's host time and its parts.
struct SetupSample {
    total: f64,
    topo: f64,
    prep: PrepareTimes,
}

/// The campaign's probe: its points' set-up times and one traced
/// repetition over them.
struct Probe {
    rep: Rep,
    prep: PrepareTimes,
    points: usize,
}

/// Everything one workload measured.
struct Runs {
    setups: Vec<SetupSample>,
    points: usize,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    probe: Option<Probe>,
    equeue_ns: [f64; 2],
    peak_heap_mb: f64,
}

fn end_to_end(r: &Runs) -> Vec<Metric> {
    let reps = &r.untraced;
    let walls: Vec<f64> = reps.iter().map(|x| x.wall).collect();
    let rates: Vec<f64> = reps.iter().map(|x| x.events as f64 / x.wall).collect();
    let cpus: Vec<f64> = reps.iter().map(|x| x.cpu).collect();
    let lat_ms = stats::sorted(
        &reps
            .iter()
            .flat_map(|x| x.pool.point_s.iter().map(|s| s * 1e3))
            .collect::<Vec<_>>(),
    );
    let point = |p: f64| Metric {
        samples: Some(lat_ms.len()),
        ..metric(
            &format!("point_p{p}_ms"),
            "ms",
            stats::percentile(&lat_ms, p),
        )
    };
    let setups: Vec<f64> = r.setups.iter().map(|s| s.total).collect();
    let mapes: Vec<f64> = reps.iter().map(|x| x.mape).collect();
    vec![
        median_metric("wall_s", "s", &walls),
        median_metric("events_per_s", "1/s", &rates),
        median_metric("cpu_s", "s", &cpus),
        point(50.0),
        point(90.0),
        median_metric("setup_s", "s", &setups),
        metric("peak_heap_mb", "MiB", r.peak_heap_mb),
        median_metric("model_mape_pct", "%", &mapes),
    ]
}

fn per_layer(r: &Runs) -> Vec<Metric> {
    // The repetitions whose spans time each simulation point's layers:
    // the traced repetitions, or the campaign's probe.
    let (point_reps, prep, pts) = match &r.probe {
        Some(p) => (std::slice::from_ref(&p.rep), p.prep, p.points as f64),
        None => (
            &r.traced[..],
            PrepareTimes {
                compile_s: median(r.setups.iter().map(|s| s.prep.compile_s)),
                analyze_s: median(r.setups.iter().map(|s| s.prep.analyze_s)),
            },
            r.points as f64,
        ),
    };
    let pst: Vec<BTreeMap<String, f64>> = point_reps.iter().map(|x| self_times(&x.spans)).collect();
    let tst: Vec<BTreeMap<String, f64>> = r.traced.iter().map(|x| self_times(&x.spans)).collect();
    // A span name's self time in one repetition, at the reference speed.
    let self_of =
        |x: &Rep, m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0) * x.scale;
    let per_point_rep = |f: &dyn Fn(&Rep, &BTreeMap<String, f64>) -> f64| {
        median(point_reps.iter().zip(&pst).map(|(x, s)| f(x, s)))
    };
    let per_traced = |f: &dyn Fn(&Rep, &BTreeMap<String, f64>) -> f64| {
        median(r.traced.iter().zip(&tst).map(|(x, s)| f(x, s)))
    };
    // Simulated counts repeat exactly across repetitions (checked by
    // the digests), so the first repetition's stand for all.
    let sim = point_reps[0].sim;
    let ops = sim.ops as f64;
    let untraced_wall = median(r.untraced.iter().map(|x| x.wall));
    vec![
        metric(
            "topo.build_ms",
            "ms",
            median(r.setups.iter().map(|s| s.topo * 1e3)),
        ),
        metric(
            "workloads.compile_us_per_point",
            "us",
            prep.compile_s / pts * 1e6,
        ),
        metric("sim.analyze.us_per_point", "us", prep.analyze_s / pts * 1e6),
        metric(
            "sim.engine.new_us_per_point",
            "us",
            per_point_rep(&|x, s| self_of(x, s, "sim.engine.new") / pts * 1e6),
        ),
        metric(
            "sim.engine.run_s",
            "s",
            per_point_rep(&|x, s| self_of(x, s, "sim.engine.run")),
        ),
        metric(
            "sim.engine.reduce_us_per_point",
            "us",
            per_point_rep(&|x, s| self_of(x, s, "sim.engine.reduce") / pts * 1e6),
        ),
        metric(
            "sim.engine.ns_per_event",
            "ns",
            per_point_rep(&|x, s| self_of(x, s, "sim.engine.run") * 1e9 / x.sim.events as f64),
        ),
        metric(
            "sim.engine.events_per_op",
            "events/op",
            ratio(sim.events as f64, ops),
        ),
        metric(
            "sim.engine.busy_share",
            "ratio",
            per_point_rep(&|x, s| self_of(x, s, "sim.engine.run") / x.pool.busy),
        ),
        metric(
            "sim.engine.cond_success_ratio",
            "ratio",
            ratio(sim.cond_successes as f64, sim.cond_attempts as f64),
        ),
        metric(
            "sim.directory.queue_depth_mean",
            "requests",
            // Requests waiting behind each one that starts service (the
            // recorded depth counts the starting request too).
            ratio(
                sim.queue_depth_sum.saturating_sub(sim.queue_depth_count) as f64,
                sim.queue_depth_count as f64,
            ),
        ),
        metric(
            "sim.directory.tx_per_op",
            "tx/op",
            ratio(sim.dir_transactions as f64, ops),
        ),
        metric(
            "sim.directory.invalidations_per_op",
            "inv/op",
            ratio(sim.invalidations as f64, ops),
        ),
        metric(
            "sim.protocol.transfers_per_op",
            "xfer/op",
            ratio(sim.transfers as f64, ops),
        ),
        metric(
            "sim.cache.l1_hit_ratio",
            "ratio",
            ratio(sim.hits as f64, (sim.hits + sim.misses) as f64),
        ),
        metric("sim.equeue.ns_per_op_k64", "ns", r.equeue_ns[0]),
        metric("sim.equeue.ns_per_op_k288", "ns", r.equeue_ns[1]),
        metric(
            "sim.adaptive.early_stop_frac",
            "ratio",
            per_traced(&|x, _| ratio(x.tally.early as f64, x.tally.runs as f64)),
        ),
        metric(
            "sim.adaptive.cycles_saved_frac",
            "ratio",
            per_traced(&|x, _| x.tally.saved_fraction()),
        ),
        metric(
            "sim.faults.nacks",
            "count",
            per_traced(&|x, _| x.nacks as f64),
        ),
        metric(
            "sim.faults.retries",
            "count",
            per_traced(&|x, _| x.retries as f64),
        ),
        metric(
            "core.predict.calls",
            "count",
            per_traced(&|x, _| x.predict_calls as f64),
        ),
        metric(
            "core.predict.ns_per_call",
            "ns",
            per_traced(&|x, _| ratio(x.predict_s * 1e9, x.predict_calls as f64)),
        ),
        metric(
            "harness.validation.s",
            "s",
            per_traced(&|x, s| self_of(x, s, "harness.validation")),
        ),
        metric("harness.pool.busy_s", "s", per_traced(&|x, _| x.pool.busy)),
        metric(
            "harness.pool.idle_frac",
            "ratio",
            per_traced(&|x, _| x.pool.idle_frac()),
        ),
        metric(
            "harness.pool.straggler_s",
            "s",
            per_traced(&|x, _| x.pool.straggler),
        ),
        metric(
            "trace_overhead_pct",
            "%",
            (median(r.traced.iter().map(|x| x.wall)) / untraced_wall - 1.0) * 100.0,
        ),
    ]
}

/// Per-experiment self times of the campaign's traced repetitions.
fn experiment_times(traced: &[Rep]) -> Vec<Metric> {
    let st: Vec<BTreeMap<String, f64>> = traced.iter().map(|x| self_times(&x.spans)).collect();
    st[0]
        .keys()
        .filter(|k| k.starts_with("harness.experiments."))
        .map(|k| {
            let per_rep = traced.iter().zip(&st);
            let v = median(per_rep.map(|(x, s)| s.get(k).copied().unwrap_or(0.0) * x.scale));
            metric(&format!("{k}_s"), "s", v)
        })
        .collect()
}

/// Run repetitions `rep(0)`, `rep(1)`, ... until the next one would
/// end after `budget` seconds, but at least `min` of them.
fn repeat(budget: f64, min: usize, mut rep: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(rep(reps.len()));
        let elapsed = t0.elapsed().as_secs_f64();
        if reps.len() >= min && elapsed / reps.len() as f64 * (reps.len() + 1) as f64 > budget {
            return reps;
        }
    }
}

/// The result of benchmarking one workload.
struct Outcome {
    kind: Kind,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    extras: Vec<Metric>,
    attempted: usize,
    failures: Vec<String>,
    digest: String,
    /// Timed and traced repetitions.
    reps: (usize, usize),
    /// The reference kernel's times in this run, and the median factor
    /// they gave the timed repetitions (see [`host::Speed`]).
    kernel: stats::Dist,
    scale: f64,
    spans: Vec<Span>,
}

fn bench(kind: Kind, o: &Opts, jobs: usize) -> Result<Outcome, String> {
    heap::reset_peak();
    let mut speed = host::Speed::new(jobs);
    let mut setups = Vec::new();
    let mut setup_spans = Vec::new();
    let mut setup = None;
    for i in 0..SETUPS {
        let mut rec = Recorder::new(o.trace && i + 1 == SETUPS);
        let t0 = Instant::now();
        let s = workloads::setup(kind, o.seed, &mut rec)?;
        setups.push(SetupSample {
            total: t0.elapsed().as_secs_f64(),
            topo: s.topo_s,
            prep: s.prep,
        });
        setup_spans = rec.spans;
        setup = Some(s);
    }
    let setup = setup.expect("SETUPS > 0");
    let world = &setup.world;

    let mut equeue_ns = [0.0; 2];
    if o.trace {
        for (slot, k) in equeue_ns.iter_mut().zip(EQUEUE_DEPTHS) {
            *slot = median((0..EQUEUE_REPLAYS).map(|_| {
                equeue::hold_replay(k, EQUEUE_STEPS, o.seed).1 * 1e9 / EQUEUE_STEPS as f64
            }));
        }
    }
    speed.sample();
    let f = speed.factor(0);
    for s in &mut setups {
        s.total *= f;
        s.topo *= f;
        s.prep.compile_s *= f;
        s.prep.analyze_s *= f;
    }
    equeue_ns = equeue_ns.map(|ns| ns * f);

    let run = |trace: bool| match &setup.input {
        Input::Points(points) => workloads::engine_rep(points, world, jobs, trace),
        Input::Experiments(specs, ctx) => workloads::campaign_rep(specs, *ctx, jobs, trace),
    };
    // Warm-up: caches, allocator and lazy initialisation settle before
    // anything is timed.
    let warmup = run(false);
    speed.sample();
    // Each repetition is scaled by the host speed sampled just before and
    // just after it (or the group of short repetitions it ran in).
    let mut before = Vec::new();
    let mut timed = |trace: bool| {
        before.push(speed.last());
        let rep = run(trace);
        speed.sample_if_due();
        rep
    };
    // A traced run interleaves untraced and traced repetitions in the
    // order U T T U, U T T U, ..., so neither drift during the run nor a
    // repetition's position can pass for tracing overhead.
    let mut reps = if o.trace {
        repeat(o.seconds, 2, |i| timed(matches!(i % 4, 1 | 2)))
    } else {
        repeat(o.seconds, 1, |_| timed(false))
    };
    speed.sample();
    for (rep, &b) in reps.iter_mut().zip(&before) {
        rep.at_reference_speed(speed.factor(b));
    }
    let scale = median(reps.iter().map(|r| r.scale));
    let (untraced, traced): (Vec<Rep>, Vec<Rep>) =
        reps.into_iter().partition(|rep| rep.spans.is_empty());

    let probe = if o.trace && kind == Kind::Campaign {
        let b = speed.last();
        let mut rec = Recorder::new(true);
        let (points, mut prep) = points::prepare(workloads::probe_specs(o.seed), world, &mut rec)?;
        let mut rep = workloads::engine_rep(&points, world, jobs, true);
        speed.sample();
        let f = speed.factor(b);
        rep.at_reference_speed(f);
        prep.compile_s *= f;
        prep.analyze_s *= f;
        rep.spans.splice(0..0, rec.spans);
        Some(Probe {
            rep,
            prep,
            points: points.len(),
        })
    } else {
        None
    };

    // Checks: every repetition clean and reproducing the same outputs,
    // and the seed-independent outputs matching the pinned digest.
    let mut failures = Vec::new();
    let mut attempted = 0;
    let all = std::iter::once(&warmup)
        .chain(&untraced)
        .chain(&traced)
        .chain(probe.iter().map(|p| &p.rep));
    for rep in all {
        attempted += rep.attempted;
        failures.extend(rep.failures.iter().cloned());
    }
    let same_outputs: Vec<&Rep> = std::iter::once(&warmup)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let digest = same_outputs[0].digest.clone();
    for rep in &same_outputs {
        if rep.digest != digest {
            failures.push(format!(
                "output digest {} differs from {digest}",
                rep.digest
            ));
        }
    }
    if let Some(pinned) = kind.pinned_digest() {
        let got = &same_outputs[0].seed_free_digest;
        if got != pinned {
            failures.push(format!(
                "seed-independent output digest {got} is not the pinned {pinned}"
            ));
        }
    }

    let runs = Runs {
        setups,
        points: setup.points,
        untraced,
        traced,
        probe,
        equeue_ns,
        peak_heap_mb: heap::peak_mb(),
    };
    let e2e = end_to_end(&runs);
    let mut spans = Vec::new();
    let (layers, extras) = if o.trace {
        spans = setup_spans;
        for rep in runs.traced.iter().chain(runs.probe.iter().map(|p| &p.rep)) {
            spans.extend(rep.spans.iter().cloned());
        }
        let extras = match kind {
            Kind::Campaign => experiment_times(&runs.traced),
            _ => Vec::new(),
        };
        (per_layer(&runs), extras)
    } else {
        (Vec::new(), Vec::new())
    };
    for m in e2e.iter().chain(&layers).chain(&extras) {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        }
    }
    if e2e
        .iter()
        .any(|m| m.name == "model_mape_pct" && (m.value.is_nan() || m.value <= 0.0))
    {
        failures.push("model_mape_pct is not positive".into());
    }
    Ok(Outcome {
        kind,
        e2e,
        layers,
        extras,
        attempted,
        failures,
        digest,
        reps: (runs.untraced.len(), runs.traced.len()),
        kernel: dist(speed.samples()),
        scale,
        spans,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`, optionally with each
/// value's sample size and quartiles.
fn metrics_json<'a>(ms: impl Iterator<Item = (String, &'a Metric)>, detail: bool) -> String {
    let fields: Vec<String> = ms
        .map(|(name, m)| {
            let mut extra = String::new();
            if let (true, Some(n)) = (detail, m.samples) {
                extra.push_str(&format!(", \"samples\": {n}"));
            }
            if let (true, Some((q1, q3))) = (detail, m.quartiles) {
                extra.push_str(&format!(", \"q1\": {q1}, \"q3\": {q3}"));
            }
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
                json_string(&name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_outcome(o: &Outcome, seed: u64) {
    let w = o.kind.name();
    println!(
        "# {w}: seed {seed}, {} timed + {} traced repetitions, {} points attempted, digest {}",
        o.reps.0, o.reps.1, o.attempted, o.digest
    );
    println!(
        "# {w}: reference kernel median {} s of {} (quartiles {} .. {}); host times below are \
         at the reference host's speed, a median {} x as measured",
        o.kernel.median, o.kernel.n, o.kernel.q1, o.kernel.q3, o.scale
    );
    for m in o.e2e.iter().chain(&o.layers).chain(&o.extras) {
        let sample = match (m.samples, m.quartiles) {
            (Some(n), Some((q1, q3))) => format!("  (median of {n}; quartiles {q1} .. {q3})"),
            (Some(n), None) => format!("  (of {n} point latencies)"),
            _ => String::new(),
        };
        println!("{w} {} = {} {}{sample}", m.name, m.value, m.unit);
    }
    let latencies = o
        .e2e
        .iter()
        .find(|m| m.name == "point_p90_ms")
        .and_then(|m| m.samples);
    if let Some(n) = latencies {
        if stats::highest_supported(n).is_none_or(|p| p < 90.0) {
            println!(
                "# {w}: p90 rests on {n} point latencies, fewer than {} beyond it; \
                 the highest percentile that has them is {:?}",
                stats::MIN_BEYOND,
                stats::highest_supported(n)
            );
        }
    }
    for f in &o.failures {
        println!("# {w}: FAILED {f}");
    }
}

/// Where trace files go: the cargo target directory of the checkout.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

fn main() -> ExitCode {
    let o = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = host_threads.min(2);
    bounce_harness::set_jobs(jobs);
    println!(
        "# perfbench: {jobs} jobs on {host_threads} host threads, {} s of repetitions per workload",
        o.seconds
    );

    let kinds = o.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let mut outcomes = Vec::new();
    for kind in kinds {
        match bench(kind, &o, jobs) {
            Ok(out) => {
                print_outcome(&out, o.seed);
                outcomes.push(out);
            }
            Err(e) => {
                eprintln!("perfbench: {}: set-up failed: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }

    let mut io_ok = true;
    if o.trace {
        let dir = trace_dir();
        for out in &outcomes {
            let path = dir.join(format!("trace-{}-seed{}.json", out.kind.name(), o.seed));
            match std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&path, chrome_json(&out.spans)))
            {
                Ok(()) => println!("# wrote {}", path.display()),
                Err(e) => {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                    io_ok = false;
                }
            }
        }
    }
    if let Some(path) = &o.json {
        let workloads: Vec<String> = outcomes
            .iter()
            .map(|out| {
                let ms = out.e2e.iter().chain(&out.layers).chain(&out.extras);
                let failures: Vec<String> = out.failures.iter().map(|f| json_string(f)).collect();
                format!(
                    "{{\"name\": {}, \"digest\": {}, \"timed_reps\": {}, \"traced_reps\": {}, \
                     \"reference_kernel_s\": {}, \"host_scale\": {}, \
                     \"attempted\": {}, \"failures\": [{}], \"metrics\": {}}}",
                    json_string(out.kind.name()),
                    json_string(&out.digest),
                    out.reps.0,
                    out.reps.1,
                    out.kernel.median,
                    out.scale,
                    out.attempted,
                    failures.join(", "),
                    metrics_json(ms.map(|m| (m.name.clone(), m)), true)
                )
            })
            .collect();
        let doc = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"jobs\": {jobs}, \"host_threads\": {host_threads}, \
             \"workloads\": [{}]}}\n",
            o.seed,
            o.seconds,
            workloads.join(", ")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            io_ok = false;
        }
    }

    // The last line: end-to-end metrics of an untraced run, per-layer
    // metrics of a traced one. With several workloads, names are
    // prefixed with the workload's.
    let single = outcomes.len() == 1;
    let reported = outcomes.iter().flat_map(|out| {
        let ms = if o.trace { &out.layers } else { &out.e2e };
        ms.iter().map(move |m| {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", out.kind.name(), m.name)
            };
            (name, m)
        })
    });
    let attempted: usize = outcomes.iter().map(|out| out.attempted).sum();
    let failed: usize = outcomes.iter().map(|out| out.failures.len()).sum();
    let correct = failed == 0 && io_ok;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(reported, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every entry of one top-level array of
    /// BENCHMARK.json (`unit` is empty for workloads).
    fn entries(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("arrays are closed")];
        let field = |obj: &str, key: &str| {
            obj.split(&format!("\"{key}\": \""))
                .nth(1)
                .map_or(String::new(), |s| {
                    s[..s.find('"').expect("closed string")].to_string()
                })
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn fake_rep() -> Rep {
        let mut rep = Rep {
            wall: 1.0,
            cpu: 1.5,
            events: 100,
            mape: 5.0,
            ..Rep::default()
        };
        rep.pool.jobs = 2;
        rep.pool.wall = 1.0;
        rep.pool.busy = 1.5;
        rep.pool.point_s = vec![0.5, 1.0];
        rep.sim.events = 100;
        rep.sim.ops = 10;
        rep
    }

    fn fake_runs() -> Runs {
        Runs {
            setups: vec![SetupSample {
                total: 0.1,
                topo: 0.01,
                prep: PrepareTimes::default(),
            }],
            points: 2,
            untraced: vec![fake_rep()],
            traced: vec![fake_rep()],
            probe: None,
            equeue_ns: [1.0, 2.0],
            peak_heap_mb: 10.0,
        }
    }

    fn printed(ms: &[Metric]) -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let runs = fake_runs();
        assert_eq!(printed(&end_to_end(&runs)), entries("end_to_end"));
        assert_eq!(printed(&per_layer(&runs)), entries("per_layer"));
    }

    #[test]
    fn names_are_valid_and_workloads_declared() {
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
        let runs = fake_runs();
        for m in end_to_end(&runs).iter().chain(&per_layer(&runs)) {
            assert!(valid_name(&m.name), "{}", m.name);
        }
        for name in ours {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(args("--workload lc-private --seed 7 --seconds 3 --trace 1").into_iter())
            .expect("valid arguments");
        assert_eq!(o.workload, Some(Kind::LcPrivate));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        for bad in [
            "--trace",
            "--trace yes",
            "--workload x",
            "--seconds 0",
            "--frob 1",
        ] {
            assert!(parse(args(bad).into_iter()).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
