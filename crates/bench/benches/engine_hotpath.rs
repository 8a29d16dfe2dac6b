//! Engine hot-path microbenchmark: raw simulator event throughput on
//! fixed FAA workloads, one per side of the hit/miss split.
//!
//! * `hc_faa_*` (high contention, one shared line): nearly every op
//!   misses L1, so the directory queue, the service path and the event
//!   queue do the work.
//! * `lc_faa_*` (low contention, a private line per thread): every op
//!   hits L1, so the interpreter, the L1-hit path (one set scan, no
//!   hashing) and the event queue do the work. `lc_faa_knl_n288` is the
//!   kind of point that dominates perfbench's `lc-private`.
//!
//! This is the single-thread counterpart of the parallel campaign
//! speedup: it tracks the cost of the event loop itself (inline event
//! heap, dense line tables, flat topology matrices) in events/sec,
//! independent of how many sweep points run concurrently. Engine
//! construction is excluded from those timed regions and timed on its
//! own by `new_*`: `Engine::new` plus one `add_thread` per thread (and
//! the engine's drop), for HC and LC FAA on KNL's 288 hardware threads,
//! with the programs compiled beforehand.

use bounce_atomics::Primitive;
use bounce_harness::experiments::Machine;
use bounce_sim::{ArbitrationPolicy, Engine, Program, SimConfig};
use bounce_topo::{MachineTopology, Placement};
use bounce_workloads::Workload;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

const DURATION_CYCLES: u64 = 300_000;

const HC_FAA: Workload = Workload::HighContention {
    prim: Primitive::Faa,
};

const LC_FAA: Workload = Workload::LowContention {
    prim: Primitive::Faa,
    work: 0,
};

/// The timed cases: (label, workload, machine, threads).
const CASES: [(&str, Workload, Machine, usize); 5] = [
    ("hc_faa", HC_FAA, Machine::E5, 8),
    ("hc_faa", HC_FAA, Machine::E5, 24),
    ("hc_faa", HC_FAA, Machine::Knl, 8),
    ("lc_faa", LC_FAA, Machine::Knl, 72),
    ("lc_faa", LC_FAA, Machine::Knl, 288),
];

/// The engine-construction cases: (label, workload), on KNL's 288
/// hardware threads.
const NEW_CASES: [(&str, Workload); 2] = [("hc_faa", HC_FAA), ("lc_faa", LC_FAA)];

fn config(machine: Machine) -> SimConfig {
    let mut params = machine.sim_params();
    params.arbitration = ArbitrationPolicy::Fifo;
    params.home_policy = bounce_sim::HomePolicy::Fixed(0);
    SimConfig::new(params, DURATION_CYCLES)
}

/// An engine on `topo` running `programs`, packed.
fn build(topo: &MachineTopology, cfg: SimConfig, programs: &[Program]) -> Engine {
    let mut eng = Engine::new(topo, cfg);
    for (hw, p) in Placement::Packed
        .assign(topo, programs.len())
        .into_iter()
        .zip(programs)
    {
        eng.add_thread(hw, p.clone());
    }
    eng
}

fn engine(machine: Machine, w: &Workload, n: usize) -> Engine {
    build(&machine.topo(), config(machine), &w.sim_programs(n))
}

fn bench_engine_hotpath(c: &mut Criterion) {
    // One calibration pass so the events/sec figure is visible in plain
    // `cargo bench` output alongside criterion's ns/iter.
    for (label, w, machine, n) in &CASES {
        let mut eng = engine(*machine, w, *n);
        let t0 = std::time::Instant::now();
        let report = eng.try_run().expect("run completes");
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "engine_hotpath calibration {label}_{}_n{n}: {} events in {dt:.3}s = {:.2} M events/s",
            machine.label(),
            report.events,
            report.events as f64 / dt / 1e6
        );
    }
    let mut g = c.benchmark_group("engine_hotpath");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for (label, w, machine, n) in &CASES {
        g.bench_function(format!("{label}_{}_n{n}", machine.label()), |b| {
            b.iter_batched(
                || engine(*machine, w, *n),
                |mut eng| eng.try_run().expect("run completes"),
                BatchSize::LargeInput,
            )
        });
    }
    let (machine, n) = (Machine::Knl, 288);
    let topo = machine.topo();
    for (label, w) in &NEW_CASES {
        let programs = w.sim_programs(n);
        g.bench_function(format!("new_{label}_{}_n{n}", machine.label()), |b| {
            b.iter(|| build(&topo, config(machine), &programs))
        });
    }
    g.finish();
}

criterion_group!(engine_hotpath, bench_engine_hotpath);
criterion_main!(engine_hotpath);
