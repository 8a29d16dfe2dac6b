//! Engine integration tests: throughput/fairness/energy behaviour of
//! full simulated workloads on the preset machines.

use super::*;
use crate::config::{ArbitrationPolicy, SimConfig, SimParams};
use crate::program::{builders, Operand};
use crate::trace::{Trace, TraceEvent};
use bounce_topo::{presets, Placement};
fn tiny() -> MachineTopology {
    presets::tiny_test_machine()
}

fn cfg(duration: u64) -> SimConfig {
    let mut params = SimParams::e5();
    params.arbitration = ArbitrationPolicy::Fifo;
    SimConfig::new(params, duration)
}

fn addr() -> WordAddr {
    WordAddr::of_line(0x4000)
}

/// Run one copy of `program` on each of `hw_threads`.
fn run_uniform(
    topo: &MachineTopology,
    cfg: SimConfig,
    hw_threads: &[HwThreadId],
    program: &Program,
) -> SimReport {
    let mut eng = Engine::new(topo, cfg);
    for &hw in hw_threads {
        eng.add_thread(hw, program.clone());
    }
    eng.try_run().expect("run completes")
}

#[test]
fn event_payloads_stay_small() {
    // Every `schedule` and `pop` copies an `Ev`, and every directory
    // queue entry is a `Request`: a field added to either slows every
    // event.
    let (ev, req) = (size_of::<Ev>(), size_of::<Request>());
    assert!(ev <= 24, "Ev is {ev} B");
    assert!(req <= 12, "Request is {req} B");
}

#[test]
fn thread_reports_stay_small() {
    // The run builds one report per thread, 288 on KNL: a histogram
    // bucket moved back inline adds 8 B to each.
    let report = size_of::<ThreadReport>();
    assert!(report <= 368, "ThreadReport is {report} B");
}

#[test]
fn thread_records_stay_small() {
    // A KNL engine holds 288 thread records, each with its op in flight:
    // the op keeps only what it cannot re-derive from its line index and
    // the step at the thread's pc.
    let (thread, op) = (size_of::<ThreadSt>(), size_of::<CurOp>());
    assert!(thread <= 152, "ThreadSt is {thread} B");
    assert!(op <= 64, "CurOp is {op} B");
}

#[test]
fn engine_domains_match_the_topology() {
    // `transfers_by_domain` counts the domains the engine derives from
    // its own tables. A line never moves from a thread to itself, so
    // every pair of distinct hardware threads is checked.
    for topo in [presets::xeon_e5_2695_v4(), presets::xeon_phi_7290(), tiny()] {
        let eng = Engine::new(&topo, cfg(1));
        let core = |t: usize| eng.thread_cores[t] as usize;
        for a in 0..topo.num_threads() {
            for b in (0..topo.num_threads()).filter(|&b| b != a) {
                assert_eq!(
                    eng.core_domain(core(a), core(b)),
                    topo.comm_domain(HwThreadId(a), HwThreadId(b)),
                    "threads {a} and {b} on {}",
                    topo.name
                );
            }
        }
    }
}

#[test]
fn single_thread_faa_accumulates() {
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(200_000));
    eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, addr(), 0));
    let report = eng.try_run().expect("run completes");
    let t = &report.threads[0];
    assert!(t.ops > 100, "expected plenty of ops, got {}", t.ops);
    assert_eq!(t.failures, 0);
    // Single thread: after the first miss everything hits.
    assert!(t.hits > t.misses);
}

#[test]
fn value_accuracy_faa_total_matches_ops() {
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(100_000));
    let a = addr();
    for hw in Placement::Packed.assign(&topo, 4) {
        eng.add_thread(hw, builders::op_loop(Primitive::Faa, a, 0));
    }
    // Run manually so we can inspect word value afterwards: re-build.
    let mut eng2 = Engine::new(&topo, cfg(100_000));
    for hw in Placement::Packed.assign(&topo, 4) {
        eng2.add_thread(hw, builders::op_loop(Primitive::Faa, a, 0));
    }
    let report = eng2.try_run().expect("run completes");
    // Every completed FAA in the *whole run* added exactly 1; ops in
    // the report only count the window, so total_ops <= word value.
    // (We can't read the word from the consumed engine; this test
    // checks internal consistency instead.)
    assert!(report.total_ops() > 0);
    assert_eq!(report.total_failures(), 0, "FAA never fails");
    drop(eng);
}

#[test]
fn contended_faa_slower_than_single() {
    let topo = tiny();
    let a = addr();
    let single = run_uniform(
        &topo,
        cfg(400_000),
        &Placement::Packed.assign(&topo, 1),
        &builders::op_loop(Primitive::Faa, a, 0),
    );
    let four = run_uniform(
        &topo,
        cfg(400_000),
        &Placement::Packed.assign(&topo, 4),
        &builders::op_loop(Primitive::Faa, a, 0),
    );
    // The single thread hits in L1; four threads bounce the line.
    let thr1 = single.throughput_ops_per_sec();
    let thr4 = four.throughput_ops_per_sec();
    assert!(
        thr1 > thr4,
        "single-thread {thr1:.0} ops/s should beat contended {thr4:.0}"
    );
    assert!(four.total_transfers() > 0, "bounces must be recorded");
    // Per-op latency under contention is far higher.
    assert!(four.mean_latency_cycles() > 2.0 * single.mean_latency_cycles());
}

#[test]
fn cas_loop_fails_under_contention_not_alone() {
    let topo = tiny();
    let a = addr();
    let prog = builders::cas_increment_loop(a, 30, 0);
    let single = run_uniform(
        &topo,
        cfg(300_000),
        &Placement::Packed.assign(&topo, 1),
        &prog,
    );
    assert_eq!(single.total_failures(), 0, "no one to race with");
    let four = run_uniform(
        &topo,
        cfg(300_000),
        &Placement::Packed.assign(&topo, 4),
        &prog,
    );
    assert!(
        four.total_failures() > 0,
        "contended CAS with a read window must fail sometimes"
    );
}

#[test]
fn fifo_arbitration_is_fair() {
    let topo = tiny();
    let four = run_uniform(
        &topo,
        cfg(600_000),
        &Placement::Packed.assign(&topo, 4),
        &builders::op_loop(Primitive::Faa, addr(), 0),
    );
    let j = four.jain_fairness();
    assert!(j > 0.9, "FIFO should be near-fair, Jain={j:.3}");
}

#[test]
fn smt_siblings_serialise_on_the_shared_l1_line() {
    // Two SMT siblings on one core share the L1: both hit, but the
    // (line, core) hit horizon serialises their RMWs on one line —
    // combined throughput ≈ one hit pipeline. On two lines the siblings
    // hold two horizons and run two full pipelines, as two threads on
    // separate cores do.
    let topo = tiny();
    let run = |threads: [(usize, u64); 2]| {
        let mut eng = Engine::new(&topo, cfg(300_000));
        for (hw, line) in threads {
            let program = builders::op_loop(Primitive::Faa, WordAddr::of_line(line), 0);
            eng.add_thread(HwThreadId(hw), program);
        }
        eng.try_run().expect("run completes")
    };
    // hw threads 0 and 1 are SMT siblings on core 0; hw 2 is on core 1.
    let shared_line = run([(0, 0x4000), (1, 0x4000)]);
    let sibling_lines = run([(0, 0x7000), (1, 0x7080)]);
    let private = run([(0, 0x7000), (2, 0x7080)]);
    for (label, r) in [
        ("shared line", &shared_line),
        ("sibling lines", &sibling_lines),
    ] {
        // No coherence transfers: the lines never leave core 0.
        assert_eq!(r.total_transfers(), 0, "{label}");
    }
    for (label, r) in [("sibling lines", &sibling_lines), ("private", &private)] {
        assert!(
            r.total_ops() as f64 > 1.6 * shared_line.total_ops() as f64,
            "{label} {} vs smt-shared {}",
            r.total_ops(),
            shared_line.total_ops()
        );
    }
}

#[test]
fn a_hit_horizon_stays_with_its_core() {
    // Core 0 issues one long exclusive hit on a line and halts; core 1
    // takes the line over while that hit is still in flight. Core 1's
    // own hits then wait for nothing: the horizon belongs to the (line,
    // core) pair, not to the line.
    let topo = tiny();
    let mut params = SimParams::e5();
    params.rmw_exec = 50_000;
    let mut eng = Engine::new(&topo, SimConfig::new(params, 200_000));
    let op = |prim| Step::Op {
        prim,
        addr: addr(),
        operand: Operand::Const(1),
        expected: Operand::Const(0),
    };
    let (store, faa) = (op(Primitive::Store), op(Primitive::Faa));
    // Core 0: own the line, then one hit that completes ~50k cycles on.
    let long_hit = Program::new(vec![store, faa, Step::Halt]).unwrap();
    // Core 1: past the warmup, store to the line in a loop.
    let stores = Program::new(vec![Step::Work(30_000), store, Step::Goto(1)]).unwrap();
    eng.add_thread(HwThreadId(0), long_hit);
    eng.add_thread(HwThreadId(2), stores);
    let report = eng.try_run().expect("run completes");
    let t = &report.threads[1];
    assert!(t.hits > 1_000, "core 1 hits the line it took: {t:?}");
    assert!(
        t.latency.max < 1_000,
        "a core-1 op waited {} cycles for core 0's hit",
        t.latency.max
    );
}

#[test]
fn indexed_and_fixed_hits_on_one_line_share_a_horizon() {
    // An `OpIndexed` op finds its (line, core) pair when issued, a
    // fixed-address `Op` in `add_thread`: both must reach the same hit
    // horizon, so SMT siblings mixing the two on one line serialise, and
    // on two lines they do not.
    let topo = tiny();
    let run = |line: u64| {
        let mut eng = Engine::new(&topo, cfg(300_000));
        let indexed = Program::new(vec![
            Step::SetRegConst(0, 0),
            Step::OpIndexed {
                prim: Primitive::Faa,
                base: WordAddr::of_line(line),
                reg: 0,
                stride: 128,
                operand: Operand::Const(1),
                expected: Operand::Const(0),
            },
            Step::Goto(1),
        ])
        .unwrap();
        // hw threads 0 and 1 are SMT siblings on core 0.
        eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, addr(), 0));
        eng.add_thread(HwThreadId(1), indexed);
        eng.try_run().expect("run completes")
    };
    let one_line = run(addr().line.0);
    let two_lines = run(0x7000);
    assert!(
        two_lines.total_ops() as f64 > 1.6 * one_line.total_ops() as f64,
        "two lines {} vs one line {}",
        two_lines.total_ops(),
        one_line.total_ops()
    );
}

#[test]
fn thread_index_register_holds_the_add_order() {
    // One body: store 100 + r4 into the thread's own line, then halt.
    // Each thread's line and value follow its position in add order,
    // not its hardware thread.
    let topo = tiny();
    let base = WordAddr::of_line(0x9000);
    let body = Program::new(vec![
        Step::OpIndexed {
            prim: Primitive::Store,
            base,
            reg: THREAD_REG,
            stride: 128,
            operand: Operand::RegPlus(THREAD_REG, 100),
            expected: Operand::Const(0),
        },
        Step::Halt,
    ])
    .unwrap();
    let mut eng = Engine::new(&topo, cfg(10_000));
    for hw in [3, 0, 2] {
        eng.add_thread(HwThreadId(hw), body.clone());
    }
    eng.try_run().expect("run completes");
    for j in 0..3 {
        assert_eq!(eng.word(base.indexed(128, j)), 100 + j, "thread {j}");
    }
    assert_eq!(eng.word(base.indexed(128, 3)), 0);
}

#[test]
fn a_finished_engine_runs_no_more_events() {
    // The first run's reports moved out at `finish`; a second run
    // processes no events, so nothing records into them, and reports
    // zero counts. Kicking the threads off at t = 0 again would schedule
    // into the past, which a debug build's event queue rejects.
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(100_000));
    eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, addr(), 0));
    eng.add_thread(HwThreadId(2), builders::op_loop(Primitive::Faa, addr(), 0));
    let first = eng.try_run().expect("first run completes");
    assert!(first.total_ops() > 0);
    let word = eng.word(addr());
    let second = eng.try_run().expect("second run completes");
    assert_eq!((second.events, second.duration_cycles), (0, 0));
    let hw: Vec<usize> = second.threads.iter().map(|t| t.hw_thread).collect();
    assert_eq!(hw, [0, 2]);
    for t in &second.threads {
        assert_eq!((t.ops, t.hits, t.misses, t.latency.count), (0, 0, 0, 0));
    }
    assert_eq!(eng.word(addr()), word, "no op ran again");
}

#[test]
fn load_loop_all_hits_after_first() {
    let topo = tiny();
    let report = run_uniform(
        &topo,
        cfg(100_000),
        &Placement::Packed.assign(&topo, 2),
        &builders::op_loop(Primitive::Load, addr(), 0),
    );
    // Read-only sharing: both threads keep shared copies, zero
    // bounces.
    assert_eq!(report.total_transfers(), 0);
    for t in &report.threads {
        assert!(t.ops > 100);
    }
}

#[test]
fn tas_lock_provides_mutual_exclusion_effect() {
    // Threads alternate in the critical section: total lock
    // acquisitions (successful TAS) > 0 and every acquisition pairs
    // with a release.
    let topo = tiny();
    let report = run_uniform(
        &topo,
        cfg(500_000),
        &Placement::Packed.assign(&topo, 3),
        &builders::tas_lock_loop(addr(), 100, 50),
    );
    let acq = report.total_successes();
    assert!(acq > 5, "locks acquired: {acq}");
    assert!(report.total_failures() > 0, "TAS spinning must fail");
}

#[test]
fn ttas_lock_spins_locally() {
    let topo = tiny();
    let report = run_uniform(
        &topo,
        cfg(500_000),
        &Placement::Packed.assign(&topo, 3),
        &builders::ttas_lock_loop(addr(), 100, 50),
    );
    let spin_loads: u64 = report.threads.iter().map(|t| t.spin_loads).sum();
    assert!(spin_loads > 0, "TTAS must issue spin loads");
    assert!(report.total_successes() > 5);
}

#[test]
fn mcs_lock_hands_off_and_stays_fair() {
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(800_000));
    let hw = Placement::Packed.assign(&topo, 4);
    let tail = WordAddr::of_line(0x2_0000);
    let flag_base = WordAddr::of_line(0x3_0000);
    let next_base = WordAddr::of_line(0x4_0000);
    let body = builders::mcs_lock_loop(tail, flag_base, next_base, 80, 40);
    for &h in &hw {
        eng.add_thread(h, body.clone());
    }
    let r = eng.try_run().expect("run completes");
    // One Swap per acquisition: every thread acquired repeatedly and
    // roughly equally (MCS is FIFO).
    let swap_idx = Primitive::ALL
        .iter()
        .position(|p| *p == Primitive::Swap)
        .unwrap();
    let per_thread: Vec<u64> = r.threads.iter().map(|t| t.ops_by_prim[swap_idx]).collect();
    let min = *per_thread.iter().min().unwrap();
    let max = *per_thread.iter().max().unwrap();
    assert!(min > 10, "every thread acquired: {per_thread:?}");
    assert!(
        max - min <= max / 4 + 2,
        "MCS near-FIFO fairness: {per_thread:?}"
    );
    // Each handoff costs O(1) transfers, not O(n): total transfers
    // stay within a small multiple of total acquisitions.
    let acq: u64 = per_thread.iter().sum();
    assert!(
        r.total_transfers() < 8 * acq,
        "transfers {} should be O(acquisitions {acq})",
        r.total_transfers()
    );
}

#[test]
fn mcs_single_thread_fast_path() {
    // Alone, the MCS lock never spins: CAS release always succeeds.
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(200_000));
    eng.add_thread(
        HwThreadId(0),
        builders::mcs_lock_loop(
            WordAddr::of_line(0x2_0000),
            WordAddr::of_line(0x3_0000),
            WordAddr::of_line(0x4_0000),
            50,
            50,
        ),
    );
    let r = eng.try_run().expect("run completes");
    assert!(r.total_ops() > 50);
    assert_eq!(r.total_failures(), 0, "uncontended release CAS never fails");
    let spin: u64 = r.threads.iter().map(|t| t.spin_loads).sum();
    assert_eq!(spin, 0, "no spinning when alone");
}

#[test]
fn ticket_lock_perfectly_fair() {
    let topo = tiny();
    let report = run_uniform(
        &topo,
        cfg(800_000),
        &Placement::Packed.assign(&topo, 4),
        &builders::ticket_lock_loop(WordAddr::of_line(0x8000), WordAddr::of_line(0x8080), 80, 40),
    );
    // Ticket locks hand out the CS round-robin: FAA successes per
    // thread within +-2 of each other.
    let counts: Vec<u64> = report.threads.iter().map(|t| t.successes).collect();
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(min > 0, "every thread acquired: {counts:?}");
    assert!(max - min <= 4, "ticket lock near-uniform: {counts:?}");
}

#[test]
fn nearest_first_arbitration_unfair_cross_socket() {
    // Threads scattered over both sockets: under NearestFirst the
    // socket holding the line keeps winning, starving the other
    // socket; FIFO stays fair. (On a *symmetric* single-socket ring
    // NearestFirst simply rotates ownership and is fair — the
    // asymmetry is what produces unfairness.)
    let topo = presets::dual_socket_small();
    let mut params = SimParams::e5();
    params.arbitration = ArbitrationPolicy::NearestFirst;
    let unfair = run_uniform(
        &topo,
        SimConfig::new(params.clone(), 2_000_000),
        &Placement::Scattered.assign(&topo, 8),
        &builders::op_loop(Primitive::Faa, addr(), 0),
    );
    params.arbitration = ArbitrationPolicy::Fifo;
    let fair = run_uniform(
        &topo,
        SimConfig::new(params, 2_000_000),
        &Placement::Scattered.assign(&topo, 8),
        &builders::op_loop(Primitive::Faa, addr(), 0),
    );
    assert!(
        unfair.jain_fairness() < fair.jain_fairness() - 0.01,
        "nearest-first {:.3} should be less fair than fifo {:.3}",
        unfair.jain_fairness(),
        fair.jain_fairness()
    );
    // Locality bias also buys throughput: fewer cross-socket bounces.
    assert!(unfair.total_ops() > fair.total_ops());
}

#[test]
fn energy_grows_with_threads_under_contention() {
    let topo = tiny();
    let e2 = run_uniform(
        &topo,
        cfg(400_000),
        &Placement::Packed.assign(&topo, 2),
        &builders::op_loop(Primitive::Faa, addr(), 0),
    );
    let e4 = run_uniform(
        &topo,
        cfg(400_000),
        &Placement::Packed.assign(&topo, 4),
        &builders::op_loop(Primitive::Faa, addr(), 0),
    );
    assert!(
        e4.energy_per_op_nj() > e2.energy_per_op_nj(),
        "energy/op must grow with contention: {} vs {}",
        e4.energy_per_op_nj(),
        e2.energy_per_op_nj()
    );
}

#[test]
fn low_contention_scales_linearly() {
    let topo = tiny();
    let prog_for = |i: usize| {
        builders::op_loop(
            Primitive::Faa,
            WordAddr::of_line(0x10_0000 + 128 * i as u64),
            0,
        )
    };
    let mut one = Engine::new(&topo, cfg(300_000));
    one.add_thread(HwThreadId(0), prog_for(0));
    let one = one.try_run().expect("run completes");
    let mut four = Engine::new(&topo, cfg(300_000));
    for (i, hw) in Placement::Packed.assign(&topo, 4).into_iter().enumerate() {
        four.add_thread(hw, prog_for(i));
    }
    let four = four.try_run().expect("run completes");
    let r = four.throughput_ops_per_sec() / one.throughput_ops_per_sec();
    assert!(r > 3.0, "private lines should scale ~linearly, got {r:.2}x");
    assert_eq!(four.total_transfers(), 0, "no bounces on private lines");
}

#[test]
fn duplicate_hw_thread_rejected() {
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(1000));
    eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, addr(), 0));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, addr(), 0));
    }));
    assert!(r.is_err());
}

#[test]
fn set_and_read_word() {
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(1000));
    eng.set_word(addr(), 77);
    assert_eq!(eng.word(addr()), 77);
    assert_eq!(eng.word(WordAddr::of_line(0x9999)), 0);
}

#[test]
fn concurrent_readers_scale_unlike_serialized_writers() {
    // 1 writer + 6 readers: total throughput must far exceed the
    // pure-writer case because GetS requests are serviced
    // concurrently and readers hit shared copies between writes.
    let topo = presets::dual_socket_small();
    let mk = |progs: Vec<Program>| {
        let mut eng = Engine::new(&topo, cfg(400_000));
        for (i, p) in progs.into_iter().enumerate() {
            eng.add_thread(Placement::Packed.assign(&topo, 8)[i], p);
        }
        eng.try_run().expect("run completes")
    };
    let mixed: Vec<Program> = (0..7)
        .map(|i| {
            if i == 0 {
                builders::op_loop(Primitive::Faa, addr(), 0)
            } else {
                Program::new(vec![
                    Step::Op {
                        prim: Primitive::Load,
                        addr: addr(),
                        operand: crate::program::Operand::Const(0),
                        expected: crate::program::Operand::Const(0),
                    },
                    Step::Work(8),
                    Step::Goto(0),
                ])
                .unwrap()
            }
        })
        .collect();
    let all_writers: Vec<Program> = (0..7)
        .map(|_| builders::op_loop(Primitive::Faa, addr(), 0))
        .collect();
    let mixed_r = mk(mixed);
    let writers_r = mk(all_writers);
    assert!(
        mixed_r.total_ops() > 2 * writers_r.total_ops(),
        "readers must add throughput: mixed {} vs writers {}",
        mixed_r.total_ops(),
        writers_r.total_ops()
    );
}

#[test]
fn writer_priority_bounds_writer_latency() {
    // A single FAA writer among many pure readers must still make
    // progress (writer priority at the directory).
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(400_000));
    let hw = Placement::Packed.assign(&topo, 5);
    eng.add_thread(hw[0], builders::op_loop(Primitive::Faa, addr(), 0));
    for &h in &hw[1..] {
        eng.add_thread(
            h,
            Program::new(vec![
                Step::Op {
                    prim: Primitive::Load,
                    addr: addr(),
                    operand: crate::program::Operand::Const(0),
                    expected: crate::program::Operand::Const(0),
                },
                Step::Work(4),
                Step::Goto(0),
            ])
            .unwrap(),
        );
    }
    let r = eng.try_run().expect("run completes");
    let writer_ops = r.threads[0].ops;
    assert!(
        writer_ops > 200,
        "writer starved with {} ops among readers",
        writer_ops
    );
}

#[test]
fn link_bandwidth_throttles_crossing_flows_on_mesh() {
    // Two independent contended lines on KNL whose transfer routes
    // share mesh links: finite link bandwidth couples them.
    let topo = presets::xeon_phi_7290();
    let run = |occupancy: u32| {
        let mut params = SimParams::knl();
        params.arbitration = ArbitrationPolicy::Fifo;
        params.home_policy = crate::config::HomePolicy::Fixed(0);
        params.link_occupancy_cycles = occupancy;
        let mut eng = Engine::new(&topo, SimConfig::new(params, 300_000));
        // Two pairs of far-apart cores, each pair bouncing its own
        // line; home tile 0 makes every transfer cross the mesh.
        let hw = Placement::Packed.assign(&topo, 72);
        for (i, &h) in [hw[0], hw[70], hw[17], hw[53]].iter().enumerate() {
            eng.add_thread(
                h,
                builders::op_loop(
                    Primitive::Faa,
                    WordAddr::of_line(0x9000 + 128 * (i % 2) as u64),
                    0,
                ),
            );
        }
        eng.try_run().expect("run completes").total_ops()
    };
    let free = run(0);
    let capped = run(24);
    assert!(
        free as f64 > 1.3 * capped as f64,
        "shared mesh links must throttle: free {free} vs capped {capped}"
    );
}

#[test]
fn link_bandwidth_off_by_default_changes_nothing() {
    let topo = tiny();
    let base = {
        let mut eng = Engine::new(&topo, cfg(200_000));
        for hw in Placement::Packed.assign(&topo, 4) {
            eng.add_thread(hw, builders::op_loop(Primitive::Faa, addr(), 0));
        }
        eng.try_run().expect("run completes").total_ops()
    };
    let explicit_zero = {
        let mut params = SimParams::e5();
        params.arbitration = ArbitrationPolicy::Fifo;
        params.link_occupancy_cycles = 0;
        let mut eng = Engine::new(&topo, SimConfig::new(params, 200_000));
        for hw in Placement::Packed.assign(&topo, 4) {
            eng.add_thread(hw, builders::op_loop(Primitive::Faa, addr(), 0));
        }
        eng.try_run().expect("run completes").total_ops()
    };
    assert_eq!(base, explicit_zero);
}

#[test]
fn tiny_cache_forces_evictions_and_writebacks() {
    // A 1-set × 1-way L1 with a thread alternating between two
    // lines: every install evicts the other line; dirty (Modified)
    // evictions write back to memory.
    let topo = tiny();
    let mut params = SimParams::e5();
    params.arbitration = ArbitrationPolicy::Fifo;
    params.l1_sets = 1;
    params.l1_ways = 1;
    let mut eng = Engine::new(&topo, SimConfig::new(params, 200_000));
    let prog = Program::new(vec![
        Step::Op {
            prim: Primitive::Faa,
            addr: WordAddr::of_line(0x1000),
            operand: crate::program::Operand::Const(1),
            expected: crate::program::Operand::Const(0),
        },
        Step::Op {
            prim: Primitive::Faa,
            addr: WordAddr::of_line(0x2000),
            operand: crate::program::Operand::Const(1),
            expected: crate::program::Operand::Const(0),
        },
        Step::Goto(0),
    ])
    .unwrap();
    eng.add_thread(HwThreadId(0), prog);
    let r = eng.try_run().expect("run completes");
    assert!(r.total_ops() > 10);
    // Each op misses (the other line evicted it) and each eviction
    // of an M line is a writeback.
    assert!(
        r.mem_accesses > r.total_ops(),
        "fetches + writebacks: {} vs {} ops",
        r.mem_accesses,
        r.total_ops()
    );
    // Both words accumulated their increments (conservation across
    // evictions).
    let a = eng.word(WordAddr::of_line(0x1000));
    let b = eng.word(WordAddr::of_line(0x2000));
    assert!(a > 0 && b > 0);
    assert!(a.abs_diff(b) <= 1);
}

#[test]
fn halt_step_stops_thread() {
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(100_000));
    let prog = Program::new(vec![
        Step::Op {
            prim: Primitive::Faa,
            addr: WordAddr::of_line(0x1000),
            operand: crate::program::Operand::Const(1),
            expected: crate::program::Operand::Const(0),
        },
        Step::Halt,
    ])
    .unwrap();
    eng.add_thread(HwThreadId(0), prog);
    let r = eng.try_run().expect("run completes");
    // Exactly one op, then silence (warmup may swallow it from the
    // stats, but the word records it).
    assert_eq!(eng.word(WordAddr::of_line(0x1000)), 1);
    assert!(r.events < 20, "halted thread must not spin events");
}

#[test]
fn home_port_occupancy_caps_striping() {
    // Two contended lines (2 threads each), both homed at tile 0:
    // with infinite home bandwidth the lines bounce independently;
    // with a slow port their transactions serialise at the home.
    let topo = tiny();
    let run = |occupancy: u32| {
        let mut params = SimParams::e5();
        params.arbitration = ArbitrationPolicy::Fifo;
        params.home_policy = crate::config::HomePolicy::Fixed(0);
        params.home_port_occupancy = occupancy;
        let mut eng = Engine::new(&topo, SimConfig::new(params, 300_000));
        for (i, hw) in Placement::Packed.assign(&topo, 4).into_iter().enumerate() {
            eng.add_thread(
                hw,
                builders::op_loop(
                    Primitive::Swap,
                    WordAddr::of_line(0x9000 + 128 * (i % 2) as u64),
                    0,
                ),
            );
        }
        eng.try_run().expect("run completes").total_ops()
    };
    let free = run(0);
    let capped = run(120);
    assert!(
        free as f64 > 1.5 * capped as f64,
        "home port must throttle parallel lines: free {free} vs capped {capped}"
    );
}

#[test]
fn deterministic_runs() {
    let topo = tiny();
    let mk = || {
        run_uniform(
            &topo,
            cfg(300_000),
            &Placement::Packed.assign(&topo, 4),
            &builders::cas_increment_loop(addr(), 25, 0),
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.total_ops(), b.total_ops());
    assert_eq!(a.total_failures(), b.total_failures());
    assert_eq!(a.events, b.events);
}

// --- forward-progress watchdog ---

#[test]
fn watchdog_detects_livelock() {
    // Work(1) + Goto(0) advances time forever but never retires an op:
    // the textbook livelock-with-a-live-clock the staleness check exists
    // for. It passes Program::new validation (it contains Work).
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(1_000_000));
    let spin = Program::new(vec![Step::Work(1), Step::Goto(0)]).unwrap();
    eng.add_thread(HwThreadId(0), spin);
    let err = eng.try_run().expect_err("livelock must be diagnosed");
    match err {
        crate::SimError::NoProgress {
            at_cycle, stuck, ..
        } => {
            assert!(at_cycle < 1_000_000, "fired before the horizon");
            assert_eq!(stuck.len(), 1);
            assert_eq!(stuck[0].thread, 0);
            assert_eq!(stuck[0].hw_thread, 0);
        }
        other => panic!("expected NoProgress, got {other}"),
    }
}

#[test]
fn watchdog_no_progress_names_contended_line() {
    // Several livelocked spinners plus one line with real directory
    // traffic frozen mid-flight is hard to fabricate; instead check the
    // diagnostic path on a livelock where threads also touched a line
    // during warm-up — the hottest-line diagnostic must name a tracked
    // line (every op_loop line is interned at add_thread time).
    let topo = tiny();
    let mut eng = Engine::new(&topo, cfg(1_000_000));
    let mut steps = vec![Step::Op {
        prim: Primitive::Faa,
        addr: addr(),
        operand: crate::program::Operand::Const(1),
        expected: crate::program::Operand::Const(0),
    }];
    steps.push(Step::Work(1));
    steps.push(Step::Goto(1)); // loop over Work only: one op, then starve
    let p = Program::new(steps).unwrap();
    eng.add_thread(HwThreadId(0), p);
    let err = eng.try_run().expect_err("starvation after one op");
    let msg = err.to_string();
    assert!(msg.contains("no forward progress"), "{msg}");
    assert!(msg.contains("0x4000"), "hottest line named: {msg}");
}

#[test]
fn watchdog_event_budget_trips() {
    let topo = tiny();
    let mut c = cfg(400_000);
    c.watchdog.max_events = 500;
    c.watchdog.stall_epochs = 0; // isolate the budget check
    let mut eng = Engine::new(&topo, c);
    eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, addr(), 0));
    match eng.try_run() {
        Err(crate::SimError::EventBudgetExceeded { budget, .. }) => assert_eq!(budget, 500),
        other => panic!("expected EventBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn watchdog_passes_legitimate_contended_runs() {
    // Default (auto) watchdog on a heavily contended CAS-retry workload:
    // must not fire.
    let topo = tiny();
    let rep = {
        let mut eng = Engine::new(&topo, cfg(400_000));
        for hw in Placement::Packed.assign(&topo, 4) {
            eng.add_thread(hw, builders::cas_increment_loop(addr(), 25, 0));
        }
        eng.try_run()
            .expect("legitimate run must pass the watchdog")
    };
    assert!(rep.total_ops() > 0);
    assert_eq!(rep.preemptions, 0, "faults off by default");
}

// --- fault injection ---

fn faulty_cfg(duration: u64, interval: u64, len: u64) -> SimConfig {
    let mut c = cfg(duration);
    c.params.faults = crate::FaultConfig {
        preempt_interval_cycles: interval,
        preempt_len_cycles: len,
        ..crate::FaultConfig::default()
    };
    c
}

#[test]
fn preemption_reduces_throughput_and_counts_windows() {
    // Uncontended single thread: going dark 1/3 of the time must cost
    // roughly 1/3 of the ops. (Under heavy contention preemption can
    // *raise* aggregate throughput — fewer threads bounce the line less —
    // which is exactly what experiment e14 measures; the unconditional
    // claim only holds without contention.)
    let topo = tiny();
    let prog = builders::op_loop(Primitive::Faa, addr(), 0);
    let one = Placement::Packed.assign(&topo, 1);
    let clean = run_uniform(&topo, cfg(400_000), &one, &prog);
    let faulty = run_uniform(&topo, faulty_cfg(400_000, 20_000, 10_000), &one, &prog);
    assert_eq!(clean.preemptions, 0);
    assert!(faulty.preemptions > 0, "windows must occur");
    let (c, f) = (clean.total_ops() as f64, faulty.total_ops() as f64);
    assert!(
        f < 0.85 * c,
        "dark thread retires less: faulty {f} vs clean {c}"
    );
}

#[test]
fn fault_injection_is_deterministic() {
    let topo = tiny();
    let mk = || {
        run_uniform(
            &topo,
            faulty_cfg(300_000, 15_000, 5_000),
            &Placement::Packed.assign(&topo, 4),
            &builders::cas_increment_loop(addr(), 25, 0),
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.total_ops(), b.total_ops());
    assert_eq!(a.total_failures(), b.total_failures());
    assert_eq!(a.preemptions, b.preemptions);
    assert_eq!(a.events, b.events);
}

#[test]
fn freq_jitter_perturbs_work_heavy_runs_deterministically() {
    let topo = tiny();
    let run = |jitter: f64| {
        let mut c = cfg(300_000);
        c.params.faults.freq_jitter = jitter;
        run_uniform(
            &topo,
            c,
            &Placement::Packed.assign(&topo, 4),
            &builders::op_loop(Primitive::Faa, addr(), 200),
        )
    };
    let clean = run(0.0);
    let j1 = run(0.3);
    let j2 = run(0.3);
    assert_eq!(j1.total_ops(), j2.total_ops(), "jitter is seeded");
    assert_ne!(
        j1.total_ops(),
        clean.total_ops(),
        "±30% work scaling must move per-thread pacing"
    );
    // Jitter skews per-thread ops: the spread across threads widens.
    let spread = |r: &crate::SimReport| {
        let ops: Vec<u64> = r.threads.iter().map(|t| t.ops).collect();
        *ops.iter().max().unwrap() - *ops.iter().min().unwrap()
    };
    assert!(spread(&j1) >= spread(&clean));
}

#[test]
fn watchdog_tolerates_preempted_runs() {
    // Long dark windows stall retirement for stretches; the auto epoch
    // (duration/8) must not misdiagnose them as livelock because
    // retirements resume within each epoch.
    let topo = tiny();
    let rep = run_uniform(
        &topo,
        faulty_cfg(400_000, 30_000, 15_000),
        &Placement::Packed.assign(&topo, 2),
        &builders::op_loop(Primitive::Faa, addr(), 0),
    );
    assert!(rep.total_ops() > 0);
}

// --- fabric fault injection ---

fn fabric_cfg(duration: u64, fabric: crate::FabricFaultConfig) -> SimConfig {
    let mut c = cfg(duration);
    c.params.fabric = fabric;
    c
}

#[test]
fn fabric_default_config_is_bit_identical_to_fault_free() {
    // The all-zero fabric config must not change a single bit of any
    // report: `enabled()` is false, so no state (not even an RNG
    // stream) is ever built.
    let topo = tiny();
    let prog = builders::cas_increment_loop(addr(), 25, 0);
    let hw = Placement::Packed.assign(&topo, 4);
    let clean = run_uniform(&topo, cfg(300_000), &hw, &prog);
    let explicit = run_uniform(
        &topo,
        fabric_cfg(300_000, crate::FabricFaultConfig::default()),
        &hw,
        &prog,
    );
    assert_eq!(format!("{clean:?}"), format!("{explicit:?}"));
    assert_eq!(clean.nacks, 0);
    assert_eq!(clean.retries, 0);
}

#[test]
fn fabric_nacks_reduce_throughput_and_are_counted() {
    let topo = tiny();
    let prog = builders::op_loop(Primitive::Faa, addr(), 0);
    let hw = Placement::Packed.assign(&topo, 4);
    let clean = run_uniform(&topo, cfg(300_000), &hw, &prog);
    let faulty = run_uniform(
        &topo,
        fabric_cfg(
            300_000,
            crate::FabricFaultConfig {
                nack_per_mille: 300,
                ..Default::default()
            },
        ),
        &hw,
        &prog,
    );
    assert!(faulty.nacks > 0, "NACKs must occur at 30%");
    assert_eq!(faulty.nacks, faulty.retries, "no storm: every NACK retried");
    assert!(
        faulty.total_ops() < clean.total_ops(),
        "retry round-trips cost throughput: {} vs {}",
        faulty.total_ops(),
        clean.total_ops()
    );
    let window_retries: u64 = faulty.threads.iter().map(|t| t.retries).sum();
    assert!(window_retries > 0, "per-thread retry counters populate");
    assert!(window_retries <= faulty.retries);
}

#[test]
fn fabric_fault_injection_is_deterministic() {
    let topo = tiny();
    let mk = || {
        run_uniform(
            &topo,
            fabric_cfg(300_000, crate::FabricFaultConfig::moderate()),
            &Placement::Packed.assign(&topo, 4),
            &builders::cas_increment_loop(addr(), 25, 0),
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.nacks > 0 || a.retries == 0);
}

#[test]
fn fabric_congestion_slows_cross_tile_traffic() {
    // Congestion multiplies hop latency inside its windows, so a
    // line-bouncing workload (every op crosses tiles) must lose
    // throughput; the NACK path stays off.
    let topo = tiny();
    let prog = builders::op_loop(Primitive::Faa, addr(), 0);
    let hw = Placement::Scattered.assign(&topo, 4);
    let clean = run_uniform(&topo, cfg(300_000), &hw, &prog);
    let congested = run_uniform(
        &topo,
        fabric_cfg(
            300_000,
            crate::FabricFaultConfig {
                congestion_interval_cycles: 10_000,
                congestion_len_cycles: 5_000,
                congestion_multiplier: 4,
                ..Default::default()
            },
        ),
        &hw,
        &prog,
    );
    assert_eq!(congested.nacks, 0);
    assert!(
        congested.total_ops() < clean.total_ops(),
        "congestion windows must cost throughput: {} vs {}",
        congested.total_ops(),
        clean.total_ops()
    );
}

#[test]
fn retry_storm_is_diagnosed_with_line_and_budget() {
    // nack_per_mille = 1000 refuses every arrival: the very first
    // transaction must exhaust its budget and fail the run.
    let topo = tiny();
    let mut c = fabric_cfg(
        300_000,
        crate::FabricFaultConfig {
            nack_per_mille: 1000,
            ..Default::default()
        },
    );
    c.params.retry = crate::RetryPolicy {
        max_retries: 5,
        backoff_base_cycles: 4,
        backoff_cap_cycles: 64,
    };
    let mut eng = Engine::new(&topo, c);
    eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, addr(), 0));
    let err = eng.try_run().expect_err("guaranteed NACKs must storm");
    match &err {
        crate::SimError::RetryStorm {
            line,
            max_retries,
            retrying,
            ..
        } => {
            assert_eq!(*line, 0x4000);
            assert_eq!(*max_retries, 5);
            assert!(!retrying.is_empty(), "the storming thread is named");
        }
        other => panic!("expected RetryStorm, got {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("retry storm"), "{msg}");
    assert!(msg.contains("0x4000"), "{msg}");
}

#[test]
fn backoff_survives_occupancy_pressure_where_eager_storms() {
    // Saturate a tiny bank occupancy limit with many contending
    // threads: with zero backoff every refused thread re-sends almost
    // immediately into the still-full bank and storms; the backoff
    // ladder spreads the retries out and completes the run.
    let topo = tiny();
    let mk = |retry: crate::RetryPolicy| {
        let mut c = fabric_cfg(
            200_000,
            crate::FabricFaultConfig {
                max_pending_per_bank: 1,
                ..Default::default()
            },
        );
        c.params.retry = retry;
        let mut eng = Engine::new(&topo, c);
        for hw in Placement::Packed.assign(&topo, 8) {
            eng.add_thread(hw, builders::op_loop(Primitive::Faa, addr(), 0));
        }
        eng.try_run()
    };
    let eager = mk(crate::RetryPolicy {
        max_retries: 24,
        backoff_base_cycles: 0,
        backoff_cap_cycles: 0,
    });
    let patient = mk(crate::RetryPolicy::patient());
    assert!(
        matches!(eager, Err(crate::SimError::RetryStorm { .. })),
        "eager retry into a full bank must storm: {eager:?}"
    );
    let rep = patient.expect("backoff must drain the bank");
    assert!(rep.total_ops() > 0);
    assert!(rep.nacks > 0, "the pressure was real");
}

#[test]
fn trace_probe_sees_every_bounce() {
    // With a ring large enough for the whole run, the trace's Bounce
    // events are exactly the transfers the report counts, per domain.
    let topo = presets::dual_socket_small();
    let mut eng = Engine::with_probe(&topo, cfg(40_000), Trace::bounded(1 << 20));
    for hw in Placement::Scattered.assign(&topo, 4) {
        eng.add_thread(hw, builders::op_loop(Primitive::Faa, addr(), 0));
    }
    let report = eng.try_run().expect("run completes");
    let trace = eng.into_probe();
    assert_eq!(trace.dropped(), 0, "the ring holds the whole run");
    let bounces = trace.bounces();
    assert_eq!(bounces.len() as u64, report.total_transfers());
    let mut by_domain = [0u64; 5];
    for ev in bounces {
        if let TraceEvent::Bounce { domain, .. } = ev {
            by_domain[domain.index()] += 1;
        }
    }
    assert_eq!(by_domain, report.transfers_by_domain);
    assert!(
        by_domain.iter().filter(|&&c| c > 0).count() > 1,
        "the scattered threads bounce across domains: {by_domain:?}"
    );
}
