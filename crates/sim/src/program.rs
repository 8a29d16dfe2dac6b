//! Thread programs: a tiny register machine the simulator interprets.
//!
//! Each simulated thread runs one [`Program`] — a list of [`Step`]s with
//! a handful of 64-bit registers. The instruction set is just rich
//! enough to express every workload in the study:
//!
//! * a plain op loop (`Op`, `Work`, `Goto`);
//! * a CAS retry loop (`Op Load` → `SetReg` → `Work` window → `Op Cas`
//!   with register operands → `BranchIfFail`);
//! * spin locks (`SpinWhile` for local spinning, `BranchIfFail` for
//!   RMW-retry spinning).
//!
//! Programs are data, so the same workload definition drives the
//! simulator backend; the native backend (`bounce-harness`) compiles the
//! common shapes to real code.

use crate::cache::WordAddr;
use bounce_atomics::Primitive;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Number of general-purpose registers per thread.
pub const NUM_REGS: usize = 4;

/// Why [`Program::new`] rejected a step list.
///
/// Construction-time validation is deliberately cheap and local (it runs
/// on every workload build); the deeper CFG/dataflow checks live in
/// [`crate::analyze`] and run once per engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// The step list was empty.
    Empty,
    /// A `Goto`/branch target pointed at or past the end of the program.
    TargetOutOfRange {
        /// Step holding the offending jump.
        step: usize,
        /// The out-of-range target.
        target: usize,
        /// Program length the target was checked against.
        len: usize,
    },
    /// A register index was `>=` [`NUM_REGS`].
    RegisterOutOfRange {
        /// Step naming the register.
        step: usize,
        /// The offending register index.
        reg: u8,
    },
    /// A cycle of pure control steps (no op, work, spin, or halt) is
    /// reachable: the interpreter would loop forever at zero simulated
    /// cost.
    ControlOnlyCycle {
        /// A step from which the cycle is reachable.
        from: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "empty program"),
            ProgramError::TargetOutOfRange { step, target, len } => {
                write!(
                    f,
                    "step {step}: jump target {target} out of range (program has {len} steps)"
                )
            }
            ProgramError::RegisterOutOfRange { step, reg } => {
                write!(
                    f,
                    "step {step}: register r{reg} out of range (have {NUM_REGS})"
                )
            }
            ProgramError::ControlOnlyCycle { from } => {
                write!(
                    f,
                    "control-only cycle reachable from step {from} (livelock)"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A value source for op operands and spin predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operand {
    /// A literal.
    Const(u64),
    /// The current value of a register.
    Reg(u8),
    /// Register value plus a literal (wrapping) — for `CAS(old, old+1)`.
    RegPlus(u8, u64),
}

/// Predicate for event-driven spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpinPred {
    /// Keep spinning while bit 0 of the word is set (TTAS wait).
    WhileBitSet,
    /// Keep spinning while the word differs from the operand (ticket
    /// lock wait: serving != my ticket).
    WhileNe(Operand),
    /// Keep spinning while the word equals the operand.
    WhileEq(Operand),
}

/// One program step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Step {
    /// Execute an atomic primitive on a word. `operand` is the value
    /// argument (store/swap/FAA delta/CAS new value); `expected` is the
    /// CAS comparand (ignored by other primitives). The outcome (previous
    /// value + success flag) is latched for `SetReg`/branches.
    Op {
        /// Primitive to execute.
        prim: Primitive,
        /// Target word.
        addr: WordAddr,
        /// Value argument.
        operand: Operand,
        /// CAS comparand.
        expected: Operand,
    },
    /// Burn local cycles (no memory traffic).
    Work(u64),
    /// Copy the last op's *previous value* into a register.
    SetRegFromPrev(u8),
    /// Load a literal into a register.
    SetRegConst(u8, u64),
    /// Unconditional jump to step index.
    Goto(usize),
    /// Jump if the last op failed (CAS mismatch / TAS bit already set).
    BranchIfFail(usize),
    /// Jump if the last op succeeded.
    BranchIfSuccess(usize),
    /// Event-driven spin: loads the word; while the predicate holds, the
    /// thread sleeps until the word changes, then re-loads (a real
    /// coherence re-fetch). Falls through when the predicate clears.
    SpinWhile {
        /// Word observed by the spin loads.
        addr: WordAddr,
        /// Wait condition.
        pred: SpinPred,
    },
    /// `regs[dst] = regs[src] + k` (wrapping, k sign-extended). Enables
    /// index arithmetic for the indexed ops below.
    RegAdd {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
        /// Signed addend.
        k: i64,
    },
    /// Jump if `regs[reg] == 0` (null-pointer checks for queue locks).
    BranchIfRegZero(u8, usize),
    /// Like [`Step::Op`], but the target line is computed at issue time:
    /// `line = base.line + stride · regs[reg]` — the register-indirect
    /// addressing that queue locks (MCS) need to reach their
    /// predecessor's/successor's node line.
    OpIndexed {
        /// Primitive to execute.
        prim: Primitive,
        /// Base word (its line is the index origin; `word` carries over).
        base: WordAddr,
        /// Index register.
        reg: u8,
        /// Line stride in bytes per index unit.
        stride: u64,
        /// Value argument.
        operand: Operand,
        /// CAS comparand.
        expected: Operand,
    },
    /// Stop this thread.
    Halt,
}

/// A validated program.
///
/// The steps are immutable and shared: threads that run the same body
/// hold clones of one `Program`, and a clone only bumps a reference
/// count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    steps: Arc<[Step]>,
}

impl Program {
    /// Wrap and validate a step list.
    ///
    /// Validation rejects: empty programs, jump targets out of range,
    /// register indices out of range, and programs whose plain-control
    /// cycles contain neither an op, work, spin, nor halt (they would
    /// livelock the interpreter at zero simulated cost). Each rejection
    /// is a typed [`ProgramError`] naming the offending step.
    pub fn new(steps: Vec<Step>) -> Result<Program, ProgramError> {
        if steps.is_empty() {
            return Err(ProgramError::Empty);
        }
        let n = steps.len();
        let check_reg = |i: usize, r: u8| -> Result<(), ProgramError> {
            if (r as usize) < NUM_REGS {
                Ok(())
            } else {
                Err(ProgramError::RegisterOutOfRange { step: i, reg: r })
            }
        };
        let check_op = |i: usize, o: &Operand| -> Result<(), ProgramError> {
            match o {
                Operand::Const(_) => Ok(()),
                Operand::Reg(r) | Operand::RegPlus(r, _) => check_reg(i, *r),
            }
        };
        let check_target = |i: usize, t: usize| -> Result<(), ProgramError> {
            if t < n {
                Ok(())
            } else {
                Err(ProgramError::TargetOutOfRange {
                    step: i,
                    target: t,
                    len: n,
                })
            }
        };
        for (i, s) in steps.iter().enumerate() {
            match s {
                Step::Goto(t) | Step::BranchIfFail(t) | Step::BranchIfSuccess(t) => {
                    check_target(i, *t)?;
                }
                Step::BranchIfRegZero(r, t) => {
                    check_reg(i, *r)?;
                    check_target(i, *t)?;
                }
                Step::SetRegFromPrev(r) | Step::SetRegConst(r, _) => check_reg(i, *r)?,
                Step::RegAdd { dst, src, .. } => {
                    check_reg(i, *dst)?;
                    check_reg(i, *src)?;
                }
                Step::Op {
                    operand, expected, ..
                } => {
                    check_op(i, operand)?;
                    check_op(i, expected)?;
                }
                Step::OpIndexed {
                    reg,
                    operand,
                    expected,
                    ..
                } => {
                    check_reg(i, *reg)?;
                    check_op(i, operand)?;
                    check_op(i, expected)?;
                }
                Step::SpinWhile { pred, .. } => {
                    if let SpinPred::WhileNe(o) | SpinPred::WhileEq(o) = pred {
                        check_op(i, o)?;
                    }
                }
                Step::Work(_) | Step::Halt => {}
            }
        }
        // Detect pure-control livelock: walk from every step following
        // only control steps; if we revisit a step without passing
        // through a time-consuming step, the program can spin forever at
        // zero cost. `visited[pc] == start` marks the steps of the
        // current walk, so one buffer serves every walk.
        let mut visited = vec![usize::MAX; n];
        for start in 0..n {
            let mut pc = start;
            loop {
                if visited[pc] == start {
                    return Err(ProgramError::ControlOnlyCycle { from: start });
                }
                visited[pc] = start;
                match steps[pc] {
                    Step::Goto(t) => pc = t,
                    Step::SetRegFromPrev(_) | Step::SetRegConst(_, _) | Step::RegAdd { .. } => {
                        pc += 1;
                        if pc >= n {
                            break;
                        }
                    }
                    // Branches, ops, work, spin, halt all either consume
                    // time, depend on op outcomes (which consume time to
                    // produce), or stop. (Pure register-branch cycles are
                    // caught by the SCC analysis in `crate::analyze`.)
                    _ => break,
                }
            }
        }
        Ok(Program {
            steps: steps.into(),
        })
    }

    /// The steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Step at `pc`.
    pub fn step(&self, pc: usize) -> Option<&Step> {
        self.steps.get(pc)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the program has no steps (never true post-validation).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Resolve an operand against a register file.
pub fn resolve(op: Operand, regs: &[u64; NUM_REGS]) -> u64 {
    match op {
        Operand::Const(c) => c,
        Operand::Reg(r) => regs[r as usize],
        Operand::RegPlus(r, k) => regs[r as usize].wrapping_add(k),
    }
}

/// Builders for the workload shapes used throughout the study.
pub mod builders {
    use super::*;

    /// Endless loop: `[work] ; prim(addr)`.
    ///
    /// For CAS, each iteration compares against the last observed value
    /// and writes `prev + 1` — the "blind increment" without a separate
    /// read (expected starts at 0 and re-latches the observed value on
    /// each attempt), so failures are real but no read window exists.
    pub fn op_loop(prim: Primitive, addr: WordAddr, work: u64) -> Program {
        let mut steps = Vec::new();
        if work > 0 {
            steps.push(Step::Work(work));
        }
        match prim {
            Primitive::Cas => {
                steps.push(Step::Op {
                    prim,
                    addr,
                    operand: Operand::RegPlus(0, 1),
                    expected: Operand::Reg(0),
                });
                steps.push(Step::SetRegFromPrev(0));
            }
            _ => {
                steps.push(Step::Op {
                    prim,
                    addr,
                    operand: Operand::Const(1),
                    expected: Operand::Const(0),
                });
            }
        }
        steps.push(Step::Goto(0));
        Program::new(steps).expect("op_loop is well-formed")
    }

    /// Classic CAS retry loop: `read; work(window); CAS(old, old+1)`;
    /// on failure jump back to the read. `work` cycles outside the loop
    /// model the application's parallel section.
    pub fn cas_increment_loop(addr: WordAddr, window: u64, work: u64) -> Program {
        let mut steps = Vec::new();
        if work > 0 {
            steps.push(Step::Work(work));
        }
        let read_pc = steps.len();
        steps.push(Step::Op {
            prim: Primitive::Load,
            addr,
            operand: Operand::Const(0),
            expected: Operand::Const(0),
        });
        steps.push(Step::SetRegFromPrev(0));
        if window > 0 {
            steps.push(Step::Work(window));
        }
        steps.push(Step::Op {
            prim: Primitive::Cas,
            addr,
            operand: Operand::RegPlus(0, 1),
            expected: Operand::Reg(0),
        });
        steps.push(Step::BranchIfFail(read_pc));
        steps.push(Step::Goto(0));
        Program::new(steps).expect("cas loop is well-formed")
    }

    /// CAS retry loop with a three-level backoff ladder: the k-th
    /// consecutive failure spins `backoff[min(k, 2)]` cycles before the
    /// re-read. `backoff = [0, 0, 0]` degenerates to
    /// [`cas_increment_loop`] with an extra zero-work step.
    ///
    /// The ladder is unrolled into three retry blocks (the interpreter
    /// has no loop counters), which is exactly how a bounded ladder
    /// compiles anyway.
    pub fn cas_increment_loop_backoff(addr: WordAddr, window: u64, backoff: [u64; 3]) -> Program {
        // Block layout (indices computed below):
        //   head:   [read ; latch ; window ; cas ; iffail -> b1 ; goto head]
        //   b1:     [work(b0) ; read ; latch ; window ; cas ; iffail -> b2 ; goto head]
        //   b2:     [work(b1) ; read ; latch ; window ; cas ; iffail -> b3 ; goto head]
        //   b3:     [work(b2) ; read ; latch ; window ; cas ; iffail -> b3 ; goto head]
        let mut steps: Vec<Step> = Vec::new();
        let attempt = |steps: &mut Vec<Step>| {
            steps.push(Step::Op {
                prim: Primitive::Load,
                addr,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            });
            steps.push(Step::SetRegFromPrev(0));
            if window > 0 {
                steps.push(Step::Work(window));
            }
            steps.push(Step::Op {
                prim: Primitive::Cas,
                addr,
                operand: Operand::RegPlus(0, 1),
                expected: Operand::Reg(0),
            });
        };
        // Head block.
        attempt(&mut steps);
        let head_fail_idx = steps.len();
        steps.push(Step::BranchIfFail(0)); // patched below
        steps.push(Step::Goto(0));
        // Backoff blocks.
        let mut fail_slots = vec![head_fail_idx];
        for &b in &backoff {
            let block_start = steps.len();
            steps.push(Step::Work(b.max(1)));
            attempt(&mut steps);
            fail_slots.push(steps.len());
            steps.push(Step::BranchIfFail(0)); // patched below
            steps.push(Step::Goto(0));
            // Patch the previous block's fail branch to this block.
            let slot = fail_slots[fail_slots.len() - 2];
            steps[slot] = Step::BranchIfFail(block_start);
        }
        // The last block retries itself at the max backoff. The branch
        // sits (Work, Load, SetReg, [Work(window)], Cas) = 4 or 5 steps
        // past the block start.
        let last_slot = *fail_slots.last().unwrap();
        let last_block_start = last_slot - if window > 0 { 5 } else { 4 };
        steps[last_slot] = Step::BranchIfFail(last_block_start);
        Program::new(steps).expect("cas backoff loop is well-formed")
    }

    /// TAS spin lock: `TAS(lock); if failed retry; work(cs); release;
    /// work(noncs)`.
    pub fn tas_lock_loop(lock: WordAddr, cs: u64, noncs: u64) -> Program {
        let steps = vec![
            Step::Op {
                prim: Primitive::Tas,
                addr: lock,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::BranchIfFail(0),
            Step::Work(cs.max(1)),
            Step::Op {
                prim: Primitive::Store,
                addr: lock,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::Work(noncs.max(1)),
            Step::Goto(0),
        ];
        Program::new(steps).expect("tas lock loop is well-formed")
    }

    /// TTAS spin lock: locally spin until free, then TAS.
    pub fn ttas_lock_loop(lock: WordAddr, cs: u64, noncs: u64) -> Program {
        let steps = vec![
            Step::SpinWhile {
                addr: lock,
                pred: SpinPred::WhileBitSet,
            },
            Step::Op {
                prim: Primitive::Tas,
                addr: lock,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::BranchIfFail(0),
            Step::Work(cs.max(1)),
            Step::Op {
                prim: Primitive::Store,
                addr: lock,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::Work(noncs.max(1)),
            Step::Goto(0),
        ];
        Program::new(steps).expect("ttas lock loop is well-formed")
    }

    /// MCS queue lock for thread `i` of `..n` contenders.
    ///
    /// Per-thread node lines: thread `j`'s spin flag lives on
    /// `flag_base + 128·j` and its successor link on
    /// `next_base + 128·j`; the shared `tail` word holds `index + 1`
    /// (0 = unlocked). Registers: `r3` = own index+1; `r0` = swapped-out
    /// predecessor; `r1`/`r2` = index scratch.
    ///
    /// The shape of the handoff is the point: a releaser writes to its
    /// *successor's private flag line* — exactly one cache-line transfer
    /// per handoff, no matter how many threads spin.
    pub fn mcs_lock_loop(
        i: usize,
        tail: WordAddr,
        flag_base: WordAddr,
        next_base: WordAddr,
        cs: u64,
        noncs: u64,
    ) -> Program {
        let flag_mine = WordAddr {
            line: crate::cache::LineId(flag_base.line.0 + 128 * i as u64),
            word: flag_base.word,
        };
        let next_mine = WordAddr {
            line: crate::cache::LineId(next_base.line.0 + 128 * i as u64),
            word: next_base.word,
        };
        let my_handle = (i + 1) as u64;
        let steps = vec![
            // 0: arm own node: flag = locked, next = null.
            Step::SetRegConst(3, my_handle),
            Step::Op {
                prim: Primitive::Store,
                addr: flag_mine,
                operand: Operand::Const(1),
                expected: Operand::Const(0),
            },
            Step::Op {
                prim: Primitive::Store,
                addr: next_mine,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            // 3: enqueue.
            Step::Op {
                prim: Primitive::Swap,
                addr: tail,
                operand: Operand::Reg(3),
                expected: Operand::Const(0),
            },
            Step::SetRegFromPrev(0),
            // 5: no predecessor -> straight to the critical section.
            Step::BranchIfRegZero(0, 9),
            // 6: link behind the predecessor: pred.next = my handle.
            Step::RegAdd {
                dst: 1,
                src: 0,
                k: -1,
            },
            Step::OpIndexed {
                prim: Primitive::Store,
                base: next_base,
                reg: 1,
                stride: 128,
                operand: Operand::Reg(3),
                expected: Operand::Const(0),
            },
            // 8: spin on the OWN flag until the predecessor hands off.
            Step::SpinWhile {
                addr: flag_mine,
                pred: SpinPred::WhileEq(Operand::Const(1)),
            },
            // 9: critical section.
            Step::Work(cs.max(1)),
            // 10: release: no linked successor? try tail CAS back to 0.
            Step::Op {
                prim: Primitive::Cas,
                addr: tail,
                operand: Operand::Const(0),
                expected: Operand::Reg(3),
            },
            Step::BranchIfSuccess(16),
            // 12: a successor is (or will be) linked: wait for it...
            Step::SpinWhile {
                addr: next_mine,
                pred: SpinPred::WhileEq(Operand::Const(0)),
            },
            // 13: ...read its handle and clear its flag.
            Step::Op {
                prim: Primitive::Load,
                addr: next_mine,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::SetRegFromPrev(2),
            Step::RegAdd {
                dst: 2,
                src: 2,
                k: -1,
            },
            // 16 is reached by BranchIfSuccess; place the noncs there and
            // loop. (For the handoff path we fall through 16 after the
            // indexed store below — see the Goto shuffle.)
            Step::Work(noncs.max(1)), // 16
            Step::Goto(0),            // 17
        ];
        // The handoff store needs to sit between step 15 and the noncs;
        // splice it in (keeping indices readable was getting silly).
        let mut steps = steps;
        steps.insert(
            16,
            Step::OpIndexed {
                prim: Primitive::Store,
                base: flag_base,
                reg: 2,
                stride: 128,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
        );
        // After the insert: BranchIfSuccess(16) must target the noncs,
        // which moved to 17.
        steps[11] = Step::BranchIfSuccess(17);
        Program::new(steps).expect("mcs lock loop is well-formed")
    }

    /// Ticket lock: FAA a ticket, spin until served, increment serving.
    pub fn ticket_lock_loop(next: WordAddr, serving: WordAddr, cs: u64, noncs: u64) -> Program {
        let steps = vec![
            Step::Op {
                prim: Primitive::Faa,
                addr: next,
                operand: Operand::Const(1),
                expected: Operand::Const(0),
            },
            Step::SetRegFromPrev(0),
            Step::SpinWhile {
                addr: serving,
                pred: SpinPred::WhileNe(Operand::Reg(0)),
            },
            Step::Work(cs.max(1)),
            Step::Op {
                prim: Primitive::Faa,
                addr: serving,
                operand: Operand::Const(1),
                expected: Operand::Const(0),
            },
            Step::Work(noncs.max(1)),
            Step::Goto(0),
        ];
        Program::new(steps).expect("ticket lock loop is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::builders::*;
    use super::*;

    fn addr() -> WordAddr {
        WordAddr::of_line(0x1000)
    }

    #[test]
    fn empty_program_rejected() {
        assert!(Program::new(vec![]).is_err());
    }

    #[test]
    fn jump_out_of_range_rejected() {
        assert!(Program::new(vec![Step::Goto(5)]).is_err());
    }

    #[test]
    fn register_out_of_range_rejected() {
        assert!(Program::new(vec![Step::SetRegConst(9, 0), Step::Halt]).is_err());
        assert!(Program::new(vec![
            Step::Op {
                prim: Primitive::Cas,
                addr: addr(),
                operand: Operand::Reg(8),
                expected: Operand::Const(0),
            },
            Step::Halt
        ])
        .is_err());
    }

    #[test]
    fn control_only_livelock_rejected() {
        // goto self
        assert!(Program::new(vec![Step::Goto(0)]).is_err());
        // setreg ; goto back
        assert!(Program::new(vec![Step::SetRegConst(0, 1), Step::Goto(0)]).is_err());
    }

    #[test]
    fn errors_are_typed_and_name_the_step() {
        assert_eq!(Program::new(vec![]).unwrap_err(), ProgramError::Empty);
        assert_eq!(
            Program::new(vec![Step::Halt, Step::Goto(5)]).unwrap_err(),
            ProgramError::TargetOutOfRange {
                step: 1,
                target: 5,
                len: 2
            }
        );
        assert_eq!(
            Program::new(vec![Step::SetRegConst(9, 0), Step::Halt]).unwrap_err(),
            ProgramError::RegisterOutOfRange { step: 0, reg: 9 }
        );
        assert_eq!(
            Program::new(vec![Step::Goto(0)]).unwrap_err(),
            ProgramError::ControlOnlyCycle { from: 0 }
        );
        // The walk from step 2 re-crosses step 0, which the walk from
        // step 0 visited, and ends at the Work: no cycle. The first walk
        // that loops names its start.
        assert_eq!(
            Program::new(vec![
                Step::SetRegConst(0, 1),
                Step::Work(1),
                Step::Goto(0),
                Step::SetRegConst(1, 1),
                Step::Goto(3),
            ])
            .unwrap_err(),
            ProgramError::ControlOnlyCycle { from: 3 }
        );
        // Display carries the same detail for callers that just print.
        let msg = ProgramError::TargetOutOfRange {
            step: 3,
            target: 9,
            len: 4,
        }
        .to_string();
        assert!(msg.contains("step 3") && msg.contains("target 9"), "{msg}");
    }

    #[test]
    fn work_breaks_control_cycle() {
        assert!(Program::new(vec![Step::Work(5), Step::Goto(0)]).is_ok());
    }

    #[test]
    fn builders_validate() {
        for p in Primitive::ALL {
            let prog = op_loop(p, addr(), 0);
            assert!(!prog.is_empty());
        }
        let _ = op_loop(Primitive::Faa, addr(), 100);
        let _ = cas_increment_loop(addr(), 20, 0);
        let _ = tas_lock_loop(addr(), 50, 100);
        let _ = ttas_lock_loop(addr(), 50, 100);
        let _ = ticket_lock_loop(addr(), WordAddr::of_line(0x2000), 50, 100);
    }

    #[test]
    fn resolve_operands() {
        let mut regs = [0u64; NUM_REGS];
        regs[2] = 40;
        assert_eq!(resolve(Operand::Const(7), &regs), 7);
        assert_eq!(resolve(Operand::Reg(2), &regs), 40);
        assert_eq!(resolve(Operand::RegPlus(2, 2), &regs), 42);
        regs[0] = u64::MAX;
        assert_eq!(resolve(Operand::RegPlus(0, 1), &regs), 0, "wrapping");
    }

    #[test]
    fn new_steps_validate_registers_and_targets() {
        // RegAdd with bad registers.
        assert!(Program::new(vec![
            Step::RegAdd {
                dst: 9,
                src: 0,
                k: 1
            },
            Step::Halt
        ])
        .is_err());
        assert!(Program::new(vec![
            Step::RegAdd {
                dst: 0,
                src: 9,
                k: 1
            },
            Step::Halt
        ])
        .is_err());
        // BranchIfRegZero with bad target / register.
        assert!(Program::new(vec![Step::BranchIfRegZero(0, 9)]).is_err());
        assert!(Program::new(vec![Step::BranchIfRegZero(9, 0), Step::Halt]).is_err());
        // OpIndexed with bad index register.
        assert!(Program::new(vec![
            Step::OpIndexed {
                prim: Primitive::Store,
                base: addr(),
                reg: 9,
                stride: 128,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::Halt
        ])
        .is_err());
        // All valid together.
        assert!(Program::new(vec![
            Step::RegAdd {
                dst: 1,
                src: 0,
                k: -1
            },
            Step::BranchIfRegZero(1, 3),
            Step::OpIndexed {
                prim: Primitive::Store,
                base: addr(),
                reg: 1,
                stride: 128,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::Halt
        ])
        .is_ok());
    }

    #[test]
    fn mcs_builder_shape() {
        let p = mcs_lock_loop(
            2,
            addr(),
            WordAddr::of_line(0x3_0000),
            WordAddr::of_line(0x4_0000),
            50,
            50,
        );
        // Exactly one tail SWAP, one release CAS, two indexed stores
        // (link + handoff).
        let swaps = p
            .steps()
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Op {
                        prim: Primitive::Swap,
                        ..
                    }
                )
            })
            .count();
        let cases = p
            .steps()
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Op {
                        prim: Primitive::Cas,
                        ..
                    }
                )
            })
            .count();
        let indexed = p
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::OpIndexed { .. }))
            .count();
        assert_eq!((swaps, cases, indexed), (1, 1, 2));
        // Thread 2's own flag sits two strides past the base.
        let flag_line = p.steps().iter().find_map(|s| match s {
            Step::Op {
                prim: Primitive::Store,
                addr,
                operand: Operand::Const(1),
                ..
            } => Some(addr.line),
            _ => None,
        });
        assert_eq!(flag_line, Some(crate::cache::LineId(0x3_0000 + 256)));
    }

    #[test]
    fn cas_backoff_loop_validates_and_branches_forward() {
        for window in [0u64, 25] {
            let prog = cas_increment_loop_backoff(addr(), window, [16, 64, 256]);
            // Every step index referenced by a branch is in range
            // (Program::new checked), and the program contains exactly
            // 4 CAS attempts (head + 3 ladder levels).
            let cas_count = prog
                .steps()
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        Step::Op {
                            prim: Primitive::Cas,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(cas_count, 4, "window={window}");
            // And three backoff Work steps of the ladder values.
            for b in [16u64, 64, 256] {
                assert!(
                    prog.steps()
                        .iter()
                        .any(|s| matches!(s, Step::Work(w) if *w == b)),
                    "missing backoff {b}"
                );
            }
        }
    }

    #[test]
    fn cas_backoff_zero_ladder_validates() {
        let prog = cas_increment_loop_backoff(addr(), 10, [0, 0, 0]);
        assert!(!prog.is_empty());
    }

    #[test]
    fn cas_op_loop_latches_prev() {
        let prog = op_loop(Primitive::Cas, addr(), 0);
        // Shape: Op Cas ; SetRegFromPrev ; Goto.
        assert!(matches!(
            prog.step(0),
            Some(Step::Op {
                prim: Primitive::Cas,
                ..
            })
        ));
        assert!(matches!(prog.step(1), Some(Step::SetRegFromPrev(0))));
    }
}
