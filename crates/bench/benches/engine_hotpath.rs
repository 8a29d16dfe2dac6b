//! Engine hot-path microbenchmark: raw simulator event throughput on a
//! fixed high-contention workload.
//!
//! This is the single-thread counterpart of the parallel campaign
//! speedup: it tracks the cost of the event loop itself (inline event
//! heap, dense line tables, flat topology matrices) in events/sec,
//! independent of how many sweep points run concurrently. Engine
//! construction is excluded from the timed region.

use bounce_harness::experiments::Machine;
use bounce_sim::{ArbitrationPolicy, Engine, SimConfig};
use bounce_topo::Placement;
use bounce_workloads::Workload;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

const DURATION_CYCLES: u64 = 300_000;

fn hc_engine(machine: Machine, n: usize) -> Engine {
    let topo = machine.topo();
    let mut params = machine.sim_params();
    params.arbitration = ArbitrationPolicy::Fifo;
    params.home_policy = bounce_sim::HomePolicy::Fixed(0);
    let mut eng = Engine::new(&topo, SimConfig::new(params, DURATION_CYCLES));
    let w = Workload::HighContention {
        prim: bounce_atomics::Primitive::Faa,
    };
    for (hw, p) in Placement::Packed
        .assign(&topo, n)
        .into_iter()
        .zip(w.sim_programs(n))
    {
        eng.add_thread(hw, p);
    }
    eng
}

fn bench_engine_hotpath(c: &mut Criterion) {
    // One calibration pass so the events/sec figure is visible in plain
    // `cargo bench` output alongside criterion's ns/iter.
    for (machine, n) in [(Machine::E5, 8), (Machine::Knl, 8)] {
        let mut eng = hc_engine(machine, n);
        let t0 = std::time::Instant::now();
        let report = eng.try_run().expect("run completes");
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "engine_hotpath calibration {}_n{}: {} events in {:.3}s = {:.2} M events/s",
            machine.label(),
            n,
            report.events,
            dt,
            report.events as f64 / dt / 1e6
        );
    }
    let mut g = c.benchmark_group("engine_hotpath");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    for (machine, n) in [(Machine::E5, 8), (Machine::E5, 24), (Machine::Knl, 8)] {
        g.bench_function(format!("hc_faa_{}_n{}", machine.label(), n), |b| {
            b.iter_batched(
                || hc_engine(machine, n),
                |mut eng| eng.try_run().expect("run completes"),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(engine_hotpath, bench_engine_hotpath);
criterion_main!(engine_hotpath);
