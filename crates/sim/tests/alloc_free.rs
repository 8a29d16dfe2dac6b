//! The engine allocates nothing per event once warmed up. Each case runs
//! one configuration for 200k and for 400k cycles and counts the heap
//! allocations made inside `Engine::try_run`: its tables, queues and
//! lists grow to their peak early in a run and are reused after, so
//! doubling the run may add a few allocations (a slightly higher peak)
//! but none in proportion to the events processed. A core's L1 holds
//! storage only for the sets a line has landed in, so a new cache
//! allocates nothing and a cache holding one line holds a few hundred
//! bytes.
//!
//! The program layer allocates per role, not per thread: the threads of
//! a role share one step list, so cloning a program allocates nothing,
//! and compiling and analyzing a workload costs the same allocations at
//! any thread count, bodies that name the thread's own line included.
//!
//! The engine's state grows with its threads and with the (line, core)
//! pairs its ops name, not with every line times every core, and a run
//! moves each thread's report out instead of copying it. A report holds
//! inline only the histogram buckets a run can fill, and the reports
//! are built in one exact-size table when the run starts, when the
//! tables that `add_thread` grew by doubling give up their slack and
//! the event queue reserves one node per thread. A line's directory
//! queue, an L1's landed sets and their ways start at one slot, and
//! spin waiters are linked through the threads, so spinning allocates
//! nothing. Live bytes are counted beside allocations to check these.
//! Construction allocates per engine, not per topology: the engine
//! keeps the few tables it reads of the machine, not a copy of it, and
//! the event queue derives each bucket's instant instead of keeping a
//! table of them.

use bounce_atomics::Primitive;
use bounce_sim::cache::{LineId, LineState, SetAssocCache};
use bounce_sim::{
    analyze_workload, ArbitrationPolicy, CoherenceKind, Engine, Program, SimConfig, SimParams, Step,
};
use bounce_topo::{presets, HwThreadId, MachineTopology, Placement};
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

/// Most extra allocations a run of a lock twice as long may make: its
/// spinning threads allocate nothing, so none.
const SPIN_SLACK: u64 = 0;

/// `n` threads of `workload`, compiled and packed onto `topo`.
fn placed(topo: &MachineTopology, workload: &Workload, n: usize) -> Vec<(HwThreadId, Program)> {
    Placement::Packed
        .assign(topo, n)
        .into_iter()
        .zip(workload.sim_programs(n))
        .collect()
}

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
    for (h, program) in placed(topo, workload, n) {
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

/// Assert that a run of `n` threads of `workload` twice as long makes
/// at most `slack` more allocations inside `try_run`.
fn assert_alloc_free(
    topo: &MachineTopology,
    params: SimParams,
    workload: Workload,
    n: usize,
    slack: u64,
) {
    let short = run_allocs(topo, &params, &workload, n, 200_000);
    let long = run_allocs(topo, &params, &workload, n, 400_000);
    assert!(
        long.abs_diff(short) <= slack,
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
#[allow(clippy::disallowed_methods, reason = "measures the L1 model alone")]
fn cache_holding_one_line_holds_only_its_set() {
    // The presets' geometry. A 24-B `Vec` header for each of the 64
    // sets would hold 1,632 B with one line in.
    let mut cache = SetAssocCache::new(64, 8);
    let (allocs_before, live_before) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    assert!(cache.install(LineId(0x1234), LineState::Modified).is_none());
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let held = LIVE.with(Cell::get) - live_before;
    assert_eq!(cache.occupancy(), 1);
    assert!(held < 512, "a 64-set cache holding one line holds {held} B");
    assert!(allocs <= 2, "the first install made {allocs} allocations");
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
    // HC shares one body; LC, the ReadScan reader and MCS share one
    // body that names each thread's own line through the thread index.
    let workloads = [
        HC_FAA,
        Workload::LowContention {
            prim: Primitive::Faa,
            work: 0,
        },
        Workload::ReadScan {
            writers: 1,
            writer_work: 2000,
        },
        Workload::LockHandoff {
            shape: LockShape::Mcs,
            cs: 100,
            noncs: 200,
        },
    ];
    for w in &workloads {
        let small = compile_and_analyze_allocs(w, 2);
        let large = compile_and_analyze_allocs(w, 288);
        assert_eq!(
            small,
            large,
            "{}: {small} allocations at n=2, {large} at n=288",
            w.label()
        );
    }
}

#[test]
fn program_and_step_sizes_hold() {
    // Every thread holds a `Program` and every body its `Step`s: a
    // program is one shared pointer to its steps, and the indexed steps
    // fit the size of a step.
    assert_eq!(size_of::<Program>(), 16);
    assert_eq!(size_of::<Step>(), 64);
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

/// Live bytes that one engine plus its report hold after a `cycles`-cycle
/// run of `n` threads of `workload` on KNL under `params`, counted from
/// `Engine::new`.
fn held_after_run(params: SimParams, workload: &Workload, n: usize, cycles: u64) -> i64 {
    let topo = presets::xeon_phi_7290();
    let threads = placed(&topo, workload, n);
    let before = LIVE.with(Cell::get);
    let mut eng = Engine::new(&topo, SimConfig::new(params, cycles));
    for (h, program) in &threads {
        eng.add_thread(*h, program.clone());
    }
    let report = eng.try_run().expect("the run completes");
    let held = LIVE.with(Cell::get) - before;
    assert!(
        report.total_ops() > 0,
        "{}: no op completed",
        workload.label()
    );
    held
}

#[test]
fn engine_and_report_hold_no_growth_slack() {
    // 288 reports of 360 B each in one exact-size table take 101 KiB;
    // pushed one at a time they would hold 512 slots, 180 KiB. All 64
    // histogram buckets inline would make each report 672 B. The bounds
    // are the held bytes plus 5%: 268 KiB for LC and 188 KiB for HC,
    // where 200-B thread records, 4-slot first-use lists, a directory
    // queue of four slots per line, a table of bucket times and a
    // doubled event slab held 320 KiB and 220 KiB.
    let lc = Workload::LowContention {
        prim: Primitive::Faa,
        work: 0,
    };
    let n = 288;
    for (workload, bound_kib) in [(lc, 281), (HC_FAA, 197)] {
        let held = held_after_run(SimParams::knl(), &workload, n, 1_000_000);
        assert!(
            held < bound_kib << 10,
            "{} on KNL at n={n}: the engine and its report hold {} KiB after the run",
            workload.label(),
            held >> 10
        );
    }
}

#[test]
fn every_core_holding_the_line_holds_only_its_set() {
    // Under FIFO every one of KNL's 72 cores installs the line. With a
    // header for each of their 64 sets the L1s would hold 115 KiB, not
    // 4 KiB, and with four slots in the landed list and the set's ways
    // 16 KiB. The bound is the 192 KiB held plus 5%; the parent held
    // 235 KiB.
    let n = 288;
    let held = held_after_run(knl(ArbitrationPolicy::Fifo), &HC_FAA, n, 1_000_000);
    assert!(
        held < 201 << 10,
        "HC FAA on KNL at n={n} under FIFO: the engine and its report hold {} KiB after the run",
        held >> 10
    );
}

/// Allocations made and live bytes held by `Engine::new` on `topo`
/// plus `n` threads of HC FAA.
fn construction(topo: &MachineTopology, params: SimParams, n: usize) -> (u64, i64) {
    let threads = placed(topo, &HC_FAA, n);
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let mut eng = Engine::new(topo, SimConfig::new(params, 200_000));
    for (h, program) in &threads {
        eng.add_thread(*h, program.clone());
    }
    let made = (ALLOCS.with(Cell::get) - allocs, LIVE.with(Cell::get) - live);
    drop(eng);
    made
}

#[test]
fn construction_allocates_per_engine_not_per_topology() {
    // The engine keeps each hardware thread's core and each core's tile
    // and socket, not a copy of the topology. The copy made 83 of
    // `Engine::new`'s 93 allocations on E5 and 117 of 127 on KNL, where
    // the engine held 47.4 KiB. The event queue derives each bucket's
    // instant: its 8-KiB table of them took the engine to 33.7 KiB.
    let (e5, knl) = (presets::xeon_e5_2695_v4(), presets::xeon_phi_7290());
    for n in [0, 2] {
        let (on_e5, _) = construction(&e5, SimParams::e5(), n);
        let (on_knl, _) = construction(&knl, SimParams::knl(), n);
        assert_eq!(
            on_e5, on_knl,
            "n={n}: construction made {on_e5} allocations on E5, {on_knl} on KNL"
        );
    }
    let (_, held) = construction(&knl, SimParams::knl(), 0);
    assert!(held < 26 << 10, "Engine::new on KNL holds {held} B");
}

#[test]
fn construction_allocates_less_than_twice_per_thread() {
    // A thread's report holds its histogram inline and is built when
    // the run starts, so `add_thread` allocates only the thread's table
    // of resolved lines, and the engine's tables grow by doubling.
    let topo = presets::xeon_phi_7290();
    let n = 288;
    let threads = placed(&topo, &HC_FAA, n);
    let before = ALLOCS.with(Cell::get);
    let mut eng = Engine::new(&topo, SimConfig::new(knl(ArbitrationPolicy::Fifo), 200_000));
    for (h, program) in &threads {
        eng.add_thread(*h, program.clone());
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(
        allocs < 2 * n as u64,
        "HC FAA on KNL at n={n}: Engine::new and add_thread made {allocs} allocations"
    );
    drop(eng);
}

#[test]
fn engine_heap_grows_with_the_pairs_in_use() {
    // 288 threads on 72 cores, each FAA on a private line: 288 (line,
    // core) pairs in use out of 288 × 72. The engine holds ~276 KiB
    // here: the thread reports are built when the run starts. A hit
    // horizon for every line in every core would add 162 KiB plus growth
    // slack, which `engine_and_report_hold_no_growth_slack` catches.
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
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Fifo), w, 64, SLACK);
}

#[test]
fn hc_faa_fifo() {
    let topo = presets::xeon_phi_7290();
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Fifo), HC_FAA, 64, SLACK);
}

#[test]
fn hc_faa_random() {
    let topo = presets::xeon_phi_7290();
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Random), HC_FAA, 64, SLACK);
}

#[test]
fn hc_faa_nearest_first() {
    let topo = presets::xeon_phi_7290();
    assert_alloc_free(
        &topo,
        knl(ArbitrationPolicy::NearestFirst),
        HC_FAA,
        64,
        SLACK,
    );
}

#[test]
fn cas_retry_loop() {
    let topo = presets::xeon_phi_7290();
    let w = Workload::CasRetryLoop {
        window: 30,
        work: 0,
    };
    assert_alloc_free(&topo, knl(ArbitrationPolicy::Fifo), w, 64, SLACK);
}

#[test]
fn mixed_read_write_mesif_and_moesi() {
    let topo = presets::xeon_e5_2695_v4();
    for protocol in [CoherenceKind::Mesif, CoherenceKind::Moesi] {
        let w = Workload::MixedReadWrite {
            writers: 1,
            prim: Primitive::Faa,
        };
        assert_alloc_free(&topo, e5(protocol), w, 36, SLACK);
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
    assert_alloc_free(&topo, e5(CoherenceKind::Mesif), w, 16, SPIN_SLACK);
}

#[test]
fn mcs_lock_handoff() {
    // A thread's own MCS node lines resolve in `add_thread`; a
    // predecessor's or successor's, indexed by a run-time register,
    // intern when issued.
    let topo = presets::xeon_e5_2695_v4();
    let w = Workload::LockHandoff {
        shape: LockShape::Mcs,
        cs: 100,
        noncs: 200,
    };
    assert_alloc_free(&topo, e5(CoherenceKind::Mesif), w, 16, SPIN_SLACK);
}
