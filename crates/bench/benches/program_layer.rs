//! Program-layer microbenchmark: compile a workload to one program per
//! thread (`Workload::sim_programs`) and run the static analyzer over
//! them (`analyze_workload`), the set-up every simulation point pays
//! before its engine is built.
//!
//! * `hc_faa_n288` (high contention at KNL's full 288 threads): one body
//!   that every thread shares, so the cost should not grow with n.
//! * `lc_faa_n288` (low contention, same n): a private line, so a body
//!   per thread; the per-body CFG passes do the work.
//! * `mcs_n64` (the MCS lock): a body per thread with spins and strided
//!   writes, so spin liveness checks every spin word.
//!
//! The programs do not depend on the machine, so no topology is built.

use bounce_atomics::{LockShape, Primitive};
use bounce_sim::{analyze_workload, Program};
use bounce_workloads::Workload;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// The timed cases: (label, workload, threads).
const CASES: [(&str, Workload, usize); 3] = [
    (
        "hc_faa",
        Workload::HighContention {
            prim: Primitive::Faa,
        },
        288,
    ),
    (
        "lc_faa",
        Workload::LowContention {
            prim: Primitive::Faa,
            work: 0,
        },
        288,
    ),
    (
        "mcs",
        Workload::LockHandoff {
            shape: LockShape::Mcs,
            cs: 100,
            noncs: 200,
        },
        64,
    ),
];

/// Compile `n` threads of `w` and analyze them; returns the program
/// count so the work cannot be optimized away.
fn compile_and_analyze(w: &Workload, n: usize) -> usize {
    let programs = w.sim_programs(n);
    let refs: Vec<&Program> = programs.iter().collect();
    let diagnostics = analyze_workload(&refs);
    assert!(diagnostics.is_empty(), "{}: {diagnostics:?}", w.label());
    programs.len()
}

fn bench_program_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("program_layer");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    for (label, w, n) in &CASES {
        g.bench_function(format!("{label}_n{n}"), |b| {
            b.iter(|| compile_and_analyze(black_box(w), black_box(*n)))
        });
    }
    g.finish();
}

criterion_group!(program_layer, bench_program_layer);
criterion_main!(program_layer);
