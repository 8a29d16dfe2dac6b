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
//! Register [`THREAD_REG`] holds the thread's index, so one body serves
//! every thread of a role: a step indexed by it (`OpIndexed`,
//! `SpinIndexed`) names the thread's own line.
//!
//! Programs are data, so the same workload definition drives the
//! simulator backend; the native backend (`bounce-harness`) compiles the
//! common shapes to real code.

use crate::cache::WordAddr;
use bounce_atomics::Primitive;
use std::fmt;
use std::sync::Arc;

/// Number of registers per thread, [`THREAD_REG`] included.
pub const NUM_REGS: usize = 5;

/// The thread-index register. [`Engine::add_thread`](crate::Engine::add_thread)
/// presets it to the thread's index, its position in add order, and no
/// step may write it, so a step indexed by it names one line per thread
/// and the engine resolves that line before the run. Every other
/// register starts at zero.
pub const THREAD_REG: u8 = 4;

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
    /// A step writes the read-only [`THREAD_REG`].
    WritesThreadReg {
        /// The writing step.
        step: usize,
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
            ProgramError::WritesThreadReg { step } => {
                write!(
                    f,
                    "step {step}: writes r{THREAD_REG}, the read-only thread index"
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A literal.
    Const(u64),
    /// The current value of a register.
    Reg(u8),
    /// Register value plus a literal (wrapping) — for `CAS(old, old+1)`.
    RegPlus(u8, u64),
}

/// Predicate for event-driven spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Like [`Step::Op`], but the target line is computed:
    /// `line = base.line + stride · regs[reg]` (see [`WordAddr::indexed`])
    /// — the register-indirect addressing that queue locks (MCS) need to
    /// reach their predecessor's/successor's node line. Indexed by
    /// [`THREAD_REG`], it names the thread's own line.
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
    /// [`Step::SpinWhile`] on a word addressed like [`Step::OpIndexed`]'s:
    /// `line = base.line + stride · regs[reg]`. Indexed by
    /// [`THREAD_REG`], it spins on the thread's own flag or link.
    SpinIndexed {
        /// Base word (its line is the index origin; `word` carries over).
        base: WordAddr,
        /// Index register.
        reg: u8,
        /// Line stride in bytes per index unit.
        stride: u64,
        /// Wait condition.
        pred: SpinPred,
    },
    /// Stop this thread.
    Halt,
}

impl Step {
    /// The word this step names when thread `thread` runs it, if that
    /// is known before the run: an `Op`'s or `SpinWhile`'s word, or the
    /// thread's own word of a step indexed by [`THREAD_REG`]. `None` for
    /// every other step, indexed ones on other registers included.
    pub fn thread_word(&self, thread: usize) -> Option<WordAddr> {
        match *self {
            Step::Op { addr, .. } | Step::SpinWhile { addr, .. } => Some(addr),
            Step::OpIndexed {
                base,
                reg: THREAD_REG,
                stride,
                ..
            }
            | Step::SpinIndexed {
                base,
                reg: THREAD_REG,
                stride,
                ..
            } => Some(base.indexed(stride, thread as u64)),
            _ => None,
        }
    }
}

/// A validated program.
///
/// The steps are immutable and shared: threads that run the same body
/// hold clones of one `Program`, and a clone only bumps a reference
/// count.
#[derive(Debug, Clone)]
pub struct Program {
    steps: Arc<[Step]>,
}

impl Program {
    /// Wrap and validate a step list.
    ///
    /// Validation rejects: empty programs, jump targets out of range,
    /// register indices out of range, writes to [`THREAD_REG`], and
    /// programs whose plain-control cycles contain neither an op, work,
    /// spin, nor halt (they would livelock the interpreter at zero
    /// simulated cost). Each rejection is a typed [`ProgramError`]
    /// naming the offending step.
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
        let check_write = |i: usize, r: u8| -> Result<(), ProgramError> {
            check_reg(i, r)?;
            if r == THREAD_REG {
                Err(ProgramError::WritesThreadReg { step: i })
            } else {
                Ok(())
            }
        };
        let check_op = |i: usize, o: &Operand| -> Result<(), ProgramError> {
            match o {
                Operand::Const(_) => Ok(()),
                Operand::Reg(r) | Operand::RegPlus(r, _) => check_reg(i, *r),
            }
        };
        let check_pred = |i: usize, p: &SpinPred| -> Result<(), ProgramError> {
            match p {
                SpinPred::WhileBitSet => Ok(()),
                SpinPred::WhileNe(o) | SpinPred::WhileEq(o) => check_op(i, o),
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
                Step::SetRegFromPrev(r) | Step::SetRegConst(r, _) => check_write(i, *r)?,
                Step::RegAdd { dst, src, .. } => {
                    check_write(i, *dst)?;
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
                Step::SpinWhile { pred, .. } => check_pred(i, pred)?,
                Step::SpinIndexed { reg, pred, .. } => {
                    check_reg(i, *reg)?;
                    check_pred(i, pred)?;
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
        op_loop_of(prim, work, |operand, expected| Step::Op {
            prim,
            addr,
            operand,
            expected,
        })
    }

    /// [`op_loop`] on each thread's own line: thread `j` (the
    /// [`THREAD_REG`] value) applies `prim` to `base + stride · j`, so
    /// every thread runs this one body.
    pub fn thread_op_loop(prim: Primitive, base: WordAddr, stride: u64, work: u64) -> Program {
        op_loop_of(prim, work, |operand, expected| Step::OpIndexed {
            prim,
            base,
            reg: THREAD_REG,
            stride,
            operand,
            expected,
        })
    }

    /// The op loop with `op(operand, expected)` as its op step.
    fn op_loop_of(prim: Primitive, work: u64, op: impl Fn(Operand, Operand) -> Step) -> Program {
        let mut steps = Vec::new();
        if work > 0 {
            steps.push(Step::Work(work));
        }
        match prim {
            Primitive::Cas => {
                steps.push(op(Operand::RegPlus(0, 1), Operand::Reg(0)));
                steps.push(Step::SetRegFromPrev(0));
            }
            _ => steps.push(op(Operand::Const(1), Operand::Const(0))),
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

    /// MCS queue lock, one body for every contender.
    ///
    /// Per-thread node lines: thread `j`'s spin flag lives on
    /// `flag_base + 128·j` and its successor link on
    /// `next_base + 128·j`, indexed by [`THREAD_REG`] for its own node;
    /// the shared `tail` word holds `index + 1` (0 = unlocked).
    /// Registers: `r3` = own index+1; `r0` = swapped-out predecessor;
    /// `r1`/`r2` = index scratch.
    ///
    /// The shape of the handoff is the point: a releaser writes to its
    /// *successor's private flag line* — exactly one cache-line transfer
    /// per handoff, no matter how many threads spin.
    pub fn mcs_lock_loop(
        tail: WordAddr,
        flag_base: WordAddr,
        next_base: WordAddr,
        cs: u64,
        noncs: u64,
    ) -> Program {
        let node = |base: WordAddr, reg: u8, prim: Primitive, operand: Operand| Step::OpIndexed {
            prim,
            base,
            reg,
            stride: 128,
            operand,
            expected: Operand::Const(0),
        };
        let spin_own = |base: WordAddr, k: u64| Step::SpinIndexed {
            base,
            reg: THREAD_REG,
            stride: 128,
            pred: SpinPred::WhileEq(Operand::Const(k)),
        };
        let steps = vec![
            // 0: arm own node: flag = locked, next = null.
            Step::RegAdd {
                dst: 3,
                src: THREAD_REG,
                k: 1,
            },
            node(flag_base, THREAD_REG, Primitive::Store, Operand::Const(1)),
            node(next_base, THREAD_REG, Primitive::Store, Operand::Const(0)),
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
            node(next_base, 1, Primitive::Store, Operand::Reg(3)),
            // 8: spin on the OWN flag until the predecessor hands off.
            spin_own(flag_base, 1),
            // 9: critical section.
            Step::Work(cs.max(1)),
            // 10: release: no linked successor? try tail CAS back to 0.
            Step::Op {
                prim: Primitive::Cas,
                addr: tail,
                operand: Operand::Const(0),
                expected: Operand::Reg(3),
            },
            Step::BranchIfSuccess(17),
            // 12: a successor is (or will be) linked: wait for it...
            spin_own(next_base, 0),
            // 13: ...read its handle and clear its flag.
            node(next_base, THREAD_REG, Primitive::Load, Operand::Const(0)),
            Step::SetRegFromPrev(2),
            Step::RegAdd {
                dst: 2,
                src: 2,
                k: -1,
            },
            node(flag_base, 2, Primitive::Store, Operand::Const(0)),
            // 17: non-critical section, then loop.
            Step::Work(noncs.max(1)),
            Step::Goto(0),
        ];
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
        let _ = thread_op_loop(Primitive::Cas, addr(), 128, 100);
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
        // SpinIndexed with bad index register.
        assert_eq!(
            Program::new(vec![
                Step::SpinIndexed {
                    base: addr(),
                    reg: 9,
                    stride: 128,
                    pred: SpinPred::WhileBitSet,
                },
                Step::Halt
            ])
            .unwrap_err(),
            ProgramError::RegisterOutOfRange { step: 0, reg: 9 }
        );
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
            addr(),
            WordAddr::of_line(0x3_0000),
            WordAddr::of_line(0x4_0000),
            50,
            50,
        );
        // Exactly one tail SWAP, one release CAS, five node accesses
        // (arm flag, arm link, link, read successor, handoff), two of
        // them on another thread's node, and two spins on the own node.
        let count = |f: fn(&Step) -> bool| p.steps().iter().filter(|s| f(s)).count();
        let swaps = count(|s| {
            matches!(
                s,
                Step::Op {
                    prim: Primitive::Swap,
                    ..
                }
            )
        });
        let cases = count(|s| {
            matches!(
                s,
                Step::Op {
                    prim: Primitive::Cas,
                    ..
                }
            )
        });
        let indexed = count(|s| matches!(s, Step::OpIndexed { .. }));
        let foreign = count(|s| matches!(s, Step::OpIndexed { reg, .. } if *reg != THREAD_REG));
        let spins = count(|s| {
            matches!(
                s,
                Step::SpinIndexed {
                    reg: THREAD_REG,
                    ..
                }
            )
        });
        assert_eq!((swaps, cases, indexed, foreign, spins), (1, 1, 5, 2, 2));
        // Thread 2's own flag sits two strides past the base.
        let flag_line = p.steps().iter().find_map(|s| match s {
            Step::OpIndexed {
                prim: Primitive::Store,
                operand: Operand::Const(1),
                ..
            } => s.thread_word(2).map(|a| a.line),
            _ => None,
        });
        assert_eq!(flag_line, Some(crate::cache::LineId(0x3_0000 + 256)));
    }

    #[test]
    fn thread_word_resolves_the_thread_index_only() {
        let base = WordAddr {
            line: crate::cache::LineId(0x1000),
            word: 3,
        };
        let indexed = |reg| Step::OpIndexed {
            prim: Primitive::Faa,
            base,
            reg,
            stride: 128,
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        };
        let own = WordAddr {
            line: crate::cache::LineId(0x1000 + 5 * 128),
            word: 3,
        };
        assert_eq!(indexed(THREAD_REG).thread_word(5), Some(own));
        let spin = Step::SpinIndexed {
            base,
            reg: THREAD_REG,
            stride: 128,
            pred: SpinPred::WhileBitSet,
        };
        assert_eq!(spin.thread_word(5), Some(own));
        // Another register's value is known only at run time.
        assert_eq!(indexed(1).thread_word(5), None);
        assert_eq!(Step::Work(3).thread_word(5), None);
        let op = Step::Op {
            prim: Primitive::Load,
            addr: base,
            operand: Operand::Const(0),
            expected: Operand::Const(0),
        };
        assert_eq!(op.thread_word(5), Some(base));
        // The one body resolves each thread to its own private line.
        let p = thread_op_loop(Primitive::Cas, base, 128, 7);
        let words: Vec<WordAddr> = (0..3)
            .filter_map(|j| p.steps().iter().find_map(|s| s.thread_word(j)))
            .collect();
        assert_eq!(words, [0, 1, 2].map(|j| base.indexed(128, j)));
    }

    #[test]
    fn every_write_of_the_thread_index_is_rejected() {
        let writes = [
            Step::SetRegFromPrev(THREAD_REG),
            Step::SetRegConst(THREAD_REG, 1),
            Step::RegAdd {
                dst: THREAD_REG,
                src: 0,
                k: 1,
            },
        ];
        for w in writes {
            let steps = vec![op_at(addr()), w, Step::Goto(0)];
            assert_eq!(
                Program::new(steps).unwrap_err(),
                ProgramError::WritesThreadReg { step: 1 },
                "{w:?}"
            );
        }
        // Reading it is fine, as a value, an index or a control source.
        let reads = vec![
            Step::RegAdd {
                dst: 0,
                src: THREAD_REG,
                k: 1,
            },
            Step::BranchIfRegZero(THREAD_REG, 3),
            Step::Op {
                prim: Primitive::Store,
                addr: addr(),
                operand: Operand::Reg(THREAD_REG),
                expected: Operand::Const(0),
            },
            Step::SpinIndexed {
                base: addr(),
                reg: THREAD_REG,
                stride: 128,
                pred: SpinPred::WhileNe(Operand::Reg(THREAD_REG)),
            },
            Step::Goto(0),
        ];
        assert!(Program::new(reads).is_ok());
        let msg = ProgramError::WritesThreadReg { step: 1 }.to_string();
        assert!(msg.contains("step 1") && msg.contains("r4"), "{msg}");
    }

    fn op_at(a: WordAddr) -> Step {
        Step::Op {
            prim: Primitive::Faa,
            addr: a,
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        }
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
