//! Property tests: the bodies that every thread of a role shares and
//! that name the thread's own line through the thread-index register
//! (low contention, the ReadScan reader, MCS) do what one body per
//! thread, with that line written into its steps, did.
//!
//! The references below build those per-thread bodies. For every thread
//! of random thread counts, the shared body resolves to the reference's
//! steps: the same lines and words, and the same MCS handle. And engine
//! runs of the reference programs and of the shared ones report the
//! same, on both preset machines under every protocol.

use bounce_atomics::{LockShape, Primitive};
use bounce_sim::cache::{LineId, WordAddr};
use bounce_sim::program::{builders, Operand, Program, SpinPred, Step, THREAD_REG};
use bounce_sim::{CoherenceKind, Engine, SimConfig, SimParams};
use bounce_topo::{presets, MachineTopology, Placement};
use bounce_workloads::{AddressMap, Workload};
use proptest::prelude::*;

/// One body per thread, each naming its thread's line directly.
mod reference {
    use super::*;

    /// The programs of `n` threads of `w`, one of the workloads whose
    /// threads share a body that names their own line.
    pub fn programs(w: &Workload, n: usize) -> Vec<Program> {
        let map = AddressMap;
        match *w {
            Workload::LowContention { prim, work } => (0..n)
                .map(|i| builders::op_loop(prim, map.private(i), work))
                .collect(),
            Workload::ReadScan {
                writers,
                writer_work,
            } => {
                let writer = builders::op_loop(Primitive::Faa, map.shared(), writer_work);
                (0..n)
                    .map(|i| {
                        if i < writers {
                            writer.clone()
                        } else {
                            scan_reader_loop(map, i)
                        }
                    })
                    .collect()
            }
            Workload::LockHandoff {
                shape: LockShape::Mcs,
                cs,
                noncs,
            } => (0..n)
                .map(|i| {
                    mcs_lock_loop(
                        i,
                        map.lock(),
                        map.mcs_flag_base(),
                        map.mcs_next_base(),
                        cs,
                        noncs,
                    )
                })
                .collect(),
            _ => panic!("{} has no per-thread reference", w.label()),
        }
    }

    fn load(addr: WordAddr) -> Step {
        Step::Op {
            prim: Primitive::Load,
            addr,
            operand: Operand::Const(0),
            expected: Operand::Const(0),
        }
    }

    /// Reader `i` of a ReadScan workload.
    fn scan_reader_loop(map: AddressMap, i: usize) -> Program {
        Program::new(vec![
            load(map.shared()),
            load(map.scan_conflict(i)),
            Step::Work(8),
            Step::Goto(0),
        ])
        .expect("scan reader loop is well-formed")
    }

    /// The MCS lock of thread `i`, its node lines and handle written
    /// into its steps.
    fn mcs_lock_loop(
        i: usize,
        tail: WordAddr,
        flag_base: WordAddr,
        next_base: WordAddr,
        cs: u64,
        noncs: u64,
    ) -> Program {
        let flag_mine = WordAddr {
            line: LineId(flag_base.line.0 + 128 * i as u64),
            word: flag_base.word,
        };
        let next_mine = WordAddr {
            line: LineId(next_base.line.0 + 128 * i as u64),
            word: next_base.word,
        };
        let store = |addr, operand| Step::Op {
            prim: Primitive::Store,
            addr,
            operand,
            expected: Operand::Const(0),
        };
        let store_at = |base, reg, operand| Step::OpIndexed {
            prim: Primitive::Store,
            base,
            reg,
            stride: 128,
            operand,
            expected: Operand::Const(0),
        };
        let steps = vec![
            Step::SetRegConst(3, (i + 1) as u64),
            store(flag_mine, Operand::Const(1)),
            store(next_mine, Operand::Const(0)),
            Step::Op {
                prim: Primitive::Swap,
                addr: tail,
                operand: Operand::Reg(3),
                expected: Operand::Const(0),
            },
            Step::SetRegFromPrev(0),
            Step::BranchIfRegZero(0, 9),
            Step::RegAdd {
                dst: 1,
                src: 0,
                k: -1,
            },
            store_at(next_base, 1, Operand::Reg(3)),
            Step::SpinWhile {
                addr: flag_mine,
                pred: SpinPred::WhileEq(Operand::Const(1)),
            },
            Step::Work(cs.max(1)),
            Step::Op {
                prim: Primitive::Cas,
                addr: tail,
                operand: Operand::Const(0),
                expected: Operand::Reg(3),
            },
            Step::BranchIfSuccess(17),
            Step::SpinWhile {
                addr: next_mine,
                pred: SpinPred::WhileEq(Operand::Const(0)),
            },
            load(next_mine),
            Step::SetRegFromPrev(2),
            Step::RegAdd {
                dst: 2,
                src: 2,
                k: -1,
            },
            store_at(flag_base, 2, Operand::Const(0)),
            Step::Work(noncs.max(1)),
            Step::Goto(0),
        ];
        Program::new(steps).expect("mcs lock loop is well-formed")
    }
}

/// Step `s` as thread `thread` runs it, with every use of the thread
/// index resolved: its own-line steps as direct steps on that line, and
/// a register derived from the index as the constant it holds.
fn resolved(s: &Step, thread: usize) -> Step {
    match *s {
        Step::OpIndexed {
            prim,
            reg: THREAD_REG,
            operand,
            expected,
            ..
        } => Step::Op {
            prim,
            addr: s
                .thread_word(thread)
                .expect("a thread-index op names a word"),
            operand,
            expected,
        },
        Step::SpinIndexed {
            reg: THREAD_REG,
            pred,
            ..
        } => Step::SpinWhile {
            addr: s
                .thread_word(thread)
                .expect("a thread-index spin names a word"),
            pred,
        },
        Step::RegAdd {
            dst,
            src: THREAD_REG,
            k,
        } => Step::SetRegConst(dst, (thread as u64).wrapping_add_signed(k)),
        s => s,
    }
}

fn prim_strategy() -> impl Strategy<Value = Primitive> {
    (0..Primitive::ALL.len()).prop_map(|i| Primitive::ALL[i])
}

/// The workloads whose threads share a body that names their own line.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        (prim_strategy(), prop_oneof![Just(0u64), 1u64..200])
            .prop_map(|(prim, work)| Workload::LowContention { prim, work }),
        (0usize..4, 1u64..3000).prop_map(|(writers, writer_work)| Workload::ReadScan {
            writers,
            writer_work
        }),
        (1u64..300, 1u64..300).prop_map(|(cs, noncs)| Workload::LockHandoff {
            shape: LockShape::Mcs,
            cs,
            noncs
        }),
    ]
}

/// The debug text of the report of a 50k-cycle fixed-length run of
/// `programs` packed onto `topo`.
fn run(topo: &MachineTopology, params: &SimParams, programs: Vec<Program>) -> String {
    let mut eng = Engine::new(topo, SimConfig::new(params.clone(), 50_000));
    let hw = Placement::Packed.assign(topo, programs.len());
    for (h, p) in hw.into_iter().zip(programs) {
        eng.add_thread(h, p);
    }
    format!("{:?}", eng.try_run().expect("the run completes"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every thread's view of the shared body is its reference body:
    /// the same steps, lines, words and MCS handle.
    #[test]
    fn shared_body_resolves_to_each_threads_reference(
        w in workload_strategy(),
        n in 1usize..=288,
    ) {
        let shared = w.sim_programs(n);
        let reference = reference::programs(&w, n);
        prop_assert_eq!(shared.len(), n);
        for (i, (p, q)) in shared.iter().zip(&reference).enumerate() {
            let steps: Vec<Step> = p.steps().iter().map(|s| resolved(s, i)).collect();
            prop_assert_eq!(&steps[..], q.steps(), "{} thread {}", w.label(), i);
        }
        // One body per role: every thread of a role shares its steps.
        let bodies = shared
            .windows(2)
            .filter(|pair| !std::ptr::eq(pair[0].steps(), pair[1].steps()))
            .count()
            + 1;
        prop_assert!(bodies <= 2, "{}: {} bodies at n={}", w.label(), bodies, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine runs of the shared bodies and of the per-thread references
    /// report the same on E5 and KNL under every protocol.
    #[test]
    fn shared_bodies_simulate_like_their_references(
        w in workload_strategy(),
        n in 1usize..=16,
        knl in any::<bool>(),
        direct_mapped in any::<bool>(),
    ) {
        let (topo, mut params) = if knl {
            (presets::xeon_phi_7290(), SimParams::knl())
        } else {
            (presets::xeon_e5_2695_v4(), SimParams::e5())
        };
        if direct_mapped {
            params.l1_ways = 1;
        }
        for protocol in CoherenceKind::ALL {
            params.protocol = protocol;
            let shared = run(&topo, &params, w.sim_programs(n));
            let reference = run(&topo, &params, reference::programs(&w, n));
            prop_assert_eq!(shared, reference, "{} n={} {}", w.label(), n, protocol.label());
        }
    }
}
