//! Systematic coherence-transition tests: drive short scripted op
//! sequences through the engine and check the cache/directory states
//! they must leave behind, per protocol. These pin the protocol
//! semantics the timing model rides on.

use bounce_atomics::Primitive;
use bounce_sim::cache::{LineState, WordAddr};
use bounce_sim::program::{Operand, Program, Step};
use bounce_sim::{ArbitrationPolicy, CoherenceKind, Engine, SimConfig, SimParams};
use bounce_topo::{presets, HwThreadId};

const LINE: u64 = 0x4000;

fn addr() -> WordAddr {
    WordAddr::of_line(LINE)
}

fn params(protocol: CoherenceKind) -> SimParams {
    let mut p = SimParams::e5();
    p.arbitration = ArbitrationPolicy::Fifo;
    p.protocol = protocol;
    p
}

/// One op then halt.
fn once(prim: Primitive, operand: u64, expected: u64) -> Program {
    Program::new(vec![
        Step::Op {
            prim,
            addr: addr(),
            operand: Operand::Const(operand),
            expected: Operand::Const(expected),
        },
        Step::Halt,
    ])
    .unwrap()
}

/// Two ops then halt (second op delayed so cross-thread order is
/// deterministic when combined with `Work` paddings).
fn seq(steps: Vec<Step>) -> Program {
    let mut v = steps;
    v.push(Step::Halt);
    Program::new(v).unwrap()
}

/// Run the engine with the given per-hardware-thread programs and
/// return it for state inspection.
fn run(protocol: CoherenceKind, programs: Vec<(usize, Program)>) -> Engine {
    let topo = presets::tiny_test_machine();
    let mut eng = Engine::new(&topo, SimConfig::new(params(protocol), 50_000));
    for (hw, p) in programs {
        eng.add_thread(HwThreadId(hw), p);
    }
    let _ = eng.try_run().expect("run completes");
    eng
}

fn delayed_op(work: u64, prim: Primitive, operand: u64) -> Program {
    seq(vec![
        Step::Work(work),
        Step::Op {
            prim,
            addr: addr(),
            operand: Operand::Const(operand),
            expected: Operand::Const(0),
        },
    ])
}

#[test]
fn rmw_leaves_modified_and_owner_recorded() {
    // A single FAA: the line ends Modified in core 0's cache with core 0
    // as the directory owner.
    let eng = run(CoherenceKind::Mesif, vec![(0, once(Primitive::Faa, 1, 0))]);
    assert_eq!(eng.word(addr()), 1);
    // hw thread 0 is core 0 on the tiny machine.
    assert_eq!(eng.cache_state(0, addr().line), LineState::Modified);
    assert_eq!(eng.dir_owner(addr().line), Some(0));
}

#[test]
fn load_from_memory_installs_forward_under_mesif() {
    let eng = run(CoherenceKind::Mesif, vec![(0, once(Primitive::Load, 0, 0))]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Forward);
    assert_eq!(eng.dir_owner(addr().line), None);
    assert!(eng.dir_sharers(addr().line).contains(&0));
}

#[test]
fn load_from_memory_installs_shared_under_mesi() {
    let eng = run(CoherenceKind::Mesi, vec![(0, once(Primitive::Load, 0, 0))]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Shared);
}

#[test]
fn second_reader_takes_forward_first_demotes() {
    // Thread on core 0 reads, then (later) thread on core 1 reads: the
    // newest reader holds F, the older one S.
    let t0 = once(Primitive::Load, 0, 0);
    let t1 = delayed_op(2_000, Primitive::Load, 0); // let core 0 finish first
                                                    // hw threads 0 and 2 are cores 0 and 1 on the tiny machine.
    let eng = run(CoherenceKind::Mesif, vec![(0, t0), (2, t1)]);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Forward);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Shared);
    let sharers = eng.dir_sharers(addr().line);
    assert!(sharers.contains(&0) && sharers.contains(&1));
}

#[test]
fn writer_invalidates_all_readers() {
    // Two readers, then a writer on a third core: both reader copies
    // invalid, writer Modified, sharers emptied.
    let reader = once(Primitive::Load, 0, 0);
    let reader2 = delayed_op(1_000, Primitive::Load, 0);
    let writer = delayed_op(4_000, Primitive::Swap, 9);
    let eng = run(
        CoherenceKind::Mesif,
        vec![(0, reader), (2, reader2), (4, writer)],
    );
    assert_eq!(eng.cache_state(0, addr().line), LineState::Invalid);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Invalid);
    assert_eq!(eng.cache_state(2, addr().line), LineState::Modified);
    assert_eq!(eng.dir_owner(addr().line), Some(2));
    assert!(eng.dir_sharers(addr().line).is_empty());
    assert_eq!(eng.word(addr()), 9);
}

#[test]
fn reader_downgrades_a_writer() {
    // Writer first, reader later: writer's M copy demotes to S, reader
    // gets F (MESIF), directory moves owner into the sharer set.
    let writer = once(Primitive::Faa, 5, 0);
    let reader = delayed_op(3_000, Primitive::Load, 0);
    let eng = run(CoherenceKind::Mesif, vec![(0, writer), (2, reader)]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Shared);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Forward);
    assert_eq!(eng.dir_owner(addr().line), None);
    let sharers = eng.dir_sharers(addr().line);
    assert!(sharers.contains(&0) && sharers.contains(&1));
    assert_eq!(eng.word(addr()), 5, "reader observed the written value");
}

#[test]
fn ownership_moves_between_writers() {
    // Writer on core 0, then writer on core 1: ownership transfers,
    // core 0 invalid.
    let w0 = once(Primitive::Faa, 1, 0);
    let w1 = delayed_op(3_000, Primitive::Faa, 1);
    let eng = run(CoherenceKind::Mesif, vec![(0, w0), (2, w1)]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Invalid);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Modified);
    assert_eq!(eng.dir_owner(addr().line), Some(1));
    assert_eq!(eng.word(addr()), 2, "both increments applied");
}

#[test]
fn failed_cas_still_acquires_ownership() {
    // x86 semantics: CAS takes the line exclusively even when the
    // compare fails.
    let eng = run(CoherenceKind::Mesif, vec![(0, once(Primitive::Cas, 9, 7))]);
    assert_eq!(eng.word(addr()), 0, "mismatch: no write");
    assert_eq!(eng.cache_state(0, addr().line), LineState::Modified);
    assert_eq!(eng.dir_owner(addr().line), Some(0));
}

#[test]
fn distinct_lines_do_not_interact() {
    let other = WordAddr::of_line(0x8000);
    let p0 = once(Primitive::Faa, 1, 0);
    let p1 = Program::new(vec![
        Step::Op {
            prim: Primitive::Faa,
            addr: other,
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        },
        Step::Halt,
    ])
    .unwrap();
    let eng = run(CoherenceKind::Mesif, vec![(0, p0), (2, p1)]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Modified);
    assert_eq!(eng.cache_state(1, other.line), LineState::Modified);
    assert_eq!(eng.cache_state(0, other.line), LineState::Invalid);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Invalid);
}

// ---------------------------------------------------------------------
// MESI: no Forward state anywhere
// ---------------------------------------------------------------------

#[test]
fn mesi_reader_demotes_writer_to_plain_shared() {
    // Same script as `reader_downgrades_a_writer`, but under MESI both
    // copies end plain Shared — nobody holds Forward.
    let writer = once(Primitive::Faa, 5, 0);
    let reader = delayed_op(3_000, Primitive::Load, 0);
    let eng = run(CoherenceKind::Mesi, vec![(0, writer), (2, reader)]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Shared);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Shared);
    assert_eq!(eng.dir_owner(addr().line), None);
}

// ---------------------------------------------------------------------
// MOESI: dirty sharing through the Owned state
// ---------------------------------------------------------------------

#[test]
fn moesi_reader_leaves_dirty_owner_in_owned() {
    // Writer then reader: the dirty copy demotes M→O (no writeback) and
    // the directory *keeps* core 0 as owner; the reader installs plain
    // Shared.
    let writer = once(Primitive::Faa, 5, 0);
    let reader = delayed_op(3_000, Primitive::Load, 0);
    let eng = run(CoherenceKind::Moesi, vec![(0, writer), (2, reader)]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Owned);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Shared);
    assert_eq!(eng.dir_owner(addr().line), Some(0));
    let sharers = eng.dir_sharers(addr().line);
    assert!(sharers.contains(&1) && !sharers.contains(&0));
    assert_eq!(eng.word(addr()), 5);
}

#[test]
fn moesi_owner_upgrades_back_to_modified() {
    // Writer, reader (owner → Owned), then the owner writes again: the
    // O→M upgrade invalidates the sharer and needs no data transfer.
    let w0 = seq(vec![
        Step::Op {
            prim: Primitive::Faa,
            addr: addr(),
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        },
        Step::Work(6_000),
        Step::Op {
            prim: Primitive::Faa,
            addr: addr(),
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        },
    ]);
    let reader = delayed_op(3_000, Primitive::Load, 0);
    let eng = run(CoherenceKind::Moesi, vec![(0, w0), (2, reader)]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Modified);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Invalid);
    assert_eq!(eng.dir_owner(addr().line), Some(0));
    assert!(eng.dir_sharers(addr().line).is_empty());
    assert_eq!(eng.word(addr()), 2);
}

#[test]
fn moesi_next_writer_steals_the_owned_line() {
    // Writer on core 0, reader on core 1 (O + S), writer on core 1: the
    // Owned copy is invalidated and ownership transfers.
    let w0 = once(Primitive::Faa, 1, 0);
    let r1w1 = seq(vec![
        Step::Work(3_000),
        Step::Op {
            prim: Primitive::Load,
            addr: addr(),
            operand: Operand::Const(0),
            expected: Operand::Const(0),
        },
        Step::Work(3_000),
        Step::Op {
            prim: Primitive::Faa,
            addr: addr(),
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        },
    ]);
    let eng = run(CoherenceKind::Moesi, vec![(0, w0), (2, r1w1)]);
    assert_eq!(eng.cache_state(0, addr().line), LineState::Invalid);
    assert_eq!(eng.cache_state(1, addr().line), LineState::Modified);
    assert_eq!(eng.dir_owner(addr().line), Some(1));
    assert_eq!(eng.word(addr()), 2);
}

#[test]
fn moesi_owned_eviction_writes_back() {
    // 1-set × 1-way L1: after the owner demotes to Owned, installing a
    // different line evicts the Owned copy — the deferred writeback
    // lands (a memory access) and the directory drops the owner.
    let topo = presets::tiny_test_machine();
    let mut p = params(CoherenceKind::Moesi);
    p.l1_sets = 1;
    p.l1_ways = 1;
    let other = WordAddr::of_line(0x8000);
    let mut eng = Engine::new(&topo, SimConfig::new(p, 50_000));
    // Core 0: write the contended line, then (after the reader took a
    // copy) touch an unrelated line to force the eviction.
    eng.add_thread(
        HwThreadId(0),
        seq(vec![
            Step::Op {
                prim: Primitive::Faa,
                addr: addr(),
                operand: Operand::Const(1),
                expected: Operand::Const(0),
            },
            Step::Work(6_000),
            Step::Op {
                prim: Primitive::Faa,
                addr: other,
                operand: Operand::Const(1),
                expected: Operand::Const(0),
            },
        ]),
    );
    eng.add_thread(HwThreadId(2), delayed_op(3_000, Primitive::Load, 0));
    let r = eng.try_run().expect("run completes");
    assert_eq!(eng.cache_state(0, addr().line), LineState::Invalid);
    assert_eq!(eng.dir_owner(addr().line), None, "owner dropped on evict");
    assert!(
        eng.dir_sharers(addr().line).contains(&1),
        "the reader's copy survives the owner's eviction"
    );
    // Fetch A + fetch B + the Owned writeback; the reader was served
    // cache-to-cache by the Owned copy.
    assert!(r.mem_accesses >= 3, "mem accesses: {}", r.mem_accesses);
    assert_eq!(eng.word(addr()), 1);
}
