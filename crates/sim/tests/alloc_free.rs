//! The engine allocates nothing per event once warmed up. Each case runs
//! one configuration for 200k and for 400k cycles and counts the heap
//! allocations made inside `Engine::try_run`: its tables, queues and
//! lists grow to their peak early in a run and are reused after, so
//! doubling the run may add a few allocations (a slightly higher peak)
//! but none in proportion to the events processed. A core's L1 sets
//! are built on its first install, so a new cache allocates nothing.
//!
//! The program layer allocates per distinct thread body, not per
//! thread: threads share one step list, so cloning a program allocates
//! nothing, and compiling and analyzing a one-body workload costs the
//! same allocations at any thread count.
//!
//! The engine's state grows with its threads and with the (line, core)
//! pairs its ops name, not with every line times every core, and a run
//! moves each thread's report out instead of copying it. Live bytes are
//! counted beside allocations to check the first.

use bounce_atomics::Primitive;
use bounce_sim::cache::SetAssocCache;
use bounce_sim::{
    analyze_workload, ArbitrationPolicy, CoherenceKind, Engine, Program, SimConfig, SimParams,
};
use bounce_topo::{presets, MachineTopology, Placement};
use bounce_workloads::{LockShape, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations and the live bytes of
/// the calling thread only, so that tests running on parallel threads
/// do not disturb each other's counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation (if `alloc`) and a change of `bytes` live bytes.
fn count(alloc: bool, bytes: i64) {
    // `try_with`: the counts are no longer reachable while the thread's
    // locals are being torn down, and those allocations do not matter.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + alloc as u64));
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter only observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is), as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded with the caller's guarantees on `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most extra allocations a run twice as long may make.
const SLACK: u64 = 8;

/// Allocations made inside `try_run` by `n` threads of `workload`,
/// packed onto `topo`, over a `cycles`-cycle fixed-length run.
fn run_allocs(
    topo: &MachineTopology,
    params: &SimParams,
    workload: &Workload,
    n: usize,
    cycles: u64,
) -> u64 {
    let mut eng = Engine::new(topo, SimConfig::new(params.clone(), cycles));
    let hw = Placement::Packed.assign(topo, n);
    for (h, program) in hw.into_iter().zip(workload.sim_programs(n)) {
        eng.add_thread(h, program);
    }
    let before = ALLOCS.with(Cell::get);
    let report = eng.try_run().expect("the run completes");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(
        report.total_ops() > 0,
        "{}: no op completed",
        workload.label()
    );
    allocs
}

fn assert_alloc_free(topo: &MachineTopology, params: SimParams, workload: Workload, n: usize) {
    let short = run_allocs(topo, &params, &workload, n, 200_000);
    let long = run_allocs(topo, &params, &workload, n, 400_000);
    assert!(
        long.abs_diff(short) <= SLACK,
        "{} on {} (n={n}, {:?}, {}): {short} allocations in 200k cycles, {long} in 400k",
        workload.label(),
        topo.name,
        params.arbitration,
        params.protocol.label(),
    );
}

fn knl(arbitration: ArbitrationPolicy) -> SimParams {
    let mut params = SimParams::knl();
    params.arbitration = arbitration;
    params
}

fn e5(protocol: CoherenceKind) -> SimParams {
    let mut params = SimParams::e5();
    params.protocol = protocol;
    params
}

const HC_FAA: Workload = Workload::HighContention {
    prim: Primitive::Faa,
};

#[test]
fn new_cache_allocates_nothing() {
    let before = ALLOCS.with(Cell::get);
    let cache = SetAssocCache::new(64, 8);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(cache.occupancy(), 0);
    assert_eq!(allocs, 0, "a new 64-set cache made {allocs} allocations");
}

#[test]
fn program_clone_allocates_nothing() {
    let program = HC_FAA.sim_programs(1).remove(0);
    let before = ALLOCS.with(Cell::get);
    let copy = program.clone();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(copy.steps(), program.steps());
    assert_eq!(allocs, 0, "cloning a program made {allocs} allocations");
}

/// Allocations made compiling `n` threads of `workload` and analyzing
/// the result.
fn compile_and_analyze_allocs(workload: &Workload, n: usize) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let programs = workload.sim_programs(n);
    let refs: Vec<&Program> = programs.iter().collect();
    let diagnostics = analyze_workload(&refs);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
    assert_eq!(programs.len(), n);
    allocs
}

#[test]
fn one_body_compiles_and_analyzes_in_constant_allocations() {
    let small = compile_and_analyze_allocs(&HC_FAA, 2);
    let large = compile_and_analyze_allocs(&HC_FAA, 288);
    assert_eq!(
        small, large,
        "HC FAA: {small} allocations at n=2, {large} at n=288"
    );
}

#[test]
fn a_run_allocates_less_than_once_per_thread() {
    // The run hands each thread's report, latency histogram included,
    // to the caller instead of copying it.
    let topo = presets::xeon_phi_7290();
    let n = 288;
    let allocs = run_allocs(&topo, &knl(ArbitrationPolicy::Fifo), &HC_FAA, n, 200_000);
    assert!(
        allocs < n as u64,
        "HC FAA on KNL at n={n}: {allocs} allocations inside try_run"
    );
}

#[test]
fn engine_heap_grows_with_the_pairs_in_use() {
    // 288 threads on 72 cores, each FAA on a private line: 288 (line,
    // core) pairs in use out of 288 × 72. A hit horizon for every line
    // in every core would take 162 KiB plus growth slack and push the
    // engine past the bound; the thread reports take ~236 KiB of what
    // it holds, histograms included.
    let topo = presets::xeon_phi_7290();
    let lc = Workload::LowContention {
        prim: Primitive::Faa,
        work: 0,
    };
    let n = 288;
    let params = knl(ArbitrationPolicy::Fifo);
    let programs = lc.sim_programs(n);
    let before = LIVE.with(Cell::get);
    let mut eng = Engine::new(&topo, SimConfig::new(params, 200_000));
    for (h, program) in Placement::Packed.assign(&topo, n).into_iter().zip(programs) {
        eng.add_thread(h, program);
    }
    let held = LIVE.with(Cell::get) - before;
    assert!(
        held < 640 << 10,
        "LC FAA on KNL at n={n}: the engine holds {} KiB after add_thread",
        held >> 10
    );
    drop(eng);
}

#[test]
fn lc_faa_every_op_hits() {
    // Private lines: every op is an L1 hit, so this pins the hit path.
    let topo = presets::xeon_phi_7290();
    let w = Workload::LowContention {
        prim: Primitive::Faa,
        work: 0,
    };
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Fifo), w, 64);
}

#[test]
fn hc_faa_fifo() {
    let topo = presets::xeon_phi_7290();
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Fifo), HC_FAA, 64);
}

#[test]
fn hc_faa_random() {
    let topo = presets::xeon_phi_7290();
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Random), HC_FAA, 64);
}

#[test]
fn hc_faa_nearest_first() {
    let topo = presets::xeon_phi_7290();
    assert_alloc_free(&topo, knl(ArbitrationPolicy::NearestFirst), HC_FAA, 64);
}

#[test]
fn cas_retry_loop() {
    let topo = presets::xeon_phi_7290();
    let w = Workload::CasRetryLoop {
        window: 30,
        work: 0,
    };
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Fifo), w, 64);
}

#[test]
fn mixed_read_write_mesif_and_moesi() {
    let topo = presets::xeon_e5_2695_v4();
    for protocol in [CoherenceKind::Mesif, CoherenceKind::Moesi] {
        let w = Workload::MixedReadWrite {
            writers: 1,
            prim: Primitive::Faa,
        };
        assert_alloc_free(&topo, e5(protocol), w, 36);
    }
}

#[test]
fn ttas_lock_handoff() {
    let topo = presets::xeon_e5_2695_v4();
    let w = Workload::LockHandoff {
        shape: LockShape::Ttas,
        cs: 100,
        noncs: 200,
    };
    assert_alloc_free(&topo, e5(CoherenceKind::Mesif), w, 16);
}

#[test]
fn mcs_lock_handoff() {
    // MCS queue nodes are `OpIndexed` lines, which intern when issued.
    let topo = presets::xeon_e5_2695_v4();
    let w = Workload::LockHandoff {
        shape: LockShape::Mcs,
        cs: 100,
        noncs: 200,
    };
    assert_alloc_free(&topo, e5(CoherenceKind::Mesif), w, 16);
}
