//! Static analysis of workload programs: CFG construction, dataflow
//! checks, and cross-program spin liveness.
//!
//! [`Program::new`] performs cheap local validation (targets and register
//! indices in range, no pure-control cycle); this module performs the
//! deeper whole-program checks that need a control-flow graph:
//!
//! * **Reachability** — every step must be reachable from step 0; dead
//!   steps are invariably a mis-patched branch target.
//! * **Dominating op** — `SetRegFromPrev` / `BranchIfFail` /
//!   `BranchIfSuccess` consume the latched outcome of the last atomic
//!   op; a path that reaches them without executing any op reads a
//!   meaningless initial latch.
//! * **Definite assignment** — registers used as *addresses or control*
//!   (`OpIndexed` index, `BranchIfRegZero` test, `RegAdd` source) must
//!   be written on every path first. Value operands ([`crate::program::Operand::Reg`] in
//!   an op's operand/expected slot) are exempt: registers are documented
//!   to start at zero and the CAS increment loop deliberately compares
//!   against that initial zero on its first attempt.
//! * **Zero-cost cycles** — a cycle through the CFG containing no
//!   time-consuming step (`Op`, `OpIndexed`, `Work`, `SpinWhile`) would
//!   livelock the interpreter at zero simulated cost. The SCC analysis
//!   here subsumes [`Program::new`]'s conservative straight-line walk
//!   and additionally catches pure register-branch cycles.
//! * **Spin liveness** (workload-level) — a [`Step::SpinWhile`] waits
//!   for a word to *change*; if no program in the workload (the spinner
//!   itself included — lock release paths re-arm their own flag) ever
//!   writes that word, the spin can never be woken.
//!
//! The workload-level entry point [`analyze_workload`] runs as a
//! mandatory pass in [`Engine::try_run`](crate::Engine::try_run) before
//! any event is processed, and is re-exported by `bounce-verify` for the
//! offline `repro lint` subcommand.

use crate::cache::WordAddr;
use crate::program::{Program, ProgramError, Step, NUM_REGS};
use std::fmt;
use std::ops::Range;

/// A defect found by the workload-IR analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The raw step list failed [`Program::new`]'s construction checks
    /// (only produced by [`analyze_steps`]; a [`Program`] is past them).
    Invalid(ProgramError),
    /// A step can never execute: no path from step 0 reaches it.
    UnreachableStep {
        /// The dead step.
        step: usize,
    },
    /// An outcome consumer (`SetRegFromPrev`, `BranchIfFail`,
    /// `BranchIfSuccess`) is reachable without any atomic op having
    /// executed on some path — the latched outcome it reads is garbage.
    NoDominatingOp {
        /// The consuming step.
        step: usize,
    },
    /// A register used as an address or control value is read before any
    /// path writes it.
    ReadBeforeWrite {
        /// The reading step.
        step: usize,
        /// The unwritten register.
        reg: u8,
    },
    /// A control-flow cycle containing no time-consuming step: the
    /// interpreter would loop forever without advancing simulated time.
    ZeroCostCycle {
        /// The steps of the cycle, ascending.
        steps: Vec<usize>,
    },
    /// A `SpinWhile` observes a word that no program in the workload
    /// ever writes: the spin can never be woken.
    SpinTargetNeverWritten {
        /// The spinning step.
        step: usize,
        /// The word being observed.
        addr: WordAddr,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Invalid(e) => write!(f, "{e}"),
            AnalysisError::UnreachableStep { step } => {
                write!(f, "step {step}: unreachable from entry")
            }
            AnalysisError::NoDominatingOp { step } => {
                write!(
                    f,
                    "step {step}: consumes an op outcome but no op dominates it"
                )
            }
            AnalysisError::ReadBeforeWrite { step, reg } => {
                write!(
                    f,
                    "step {step}: register r{reg} read (as address/control) before any write"
                )
            }
            AnalysisError::ZeroCostCycle { steps } => {
                write!(
                    f,
                    "zero-cost control cycle through steps {steps:?} (livelock)"
                )
            }
            AnalysisError::SpinTargetNeverWritten { step, addr } => {
                write!(
                    f,
                    "step {step}: SpinWhile on line {:#x} word {} that no program in the workload writes",
                    addr.line.0, addr.word
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// An [`AnalysisError`] tagged with the thread whose program produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Index of the program in the analyzed workload (= thread index).
    pub thread: usize,
    /// The defect.
    pub error: AnalysisError,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread {}: {}", self.thread, self.error)
    }
}

/// Successor step indices of step `i`, a branch's target first. A
/// fall-through past the last step halts the thread, so it contributes
/// no successor.
fn successors(steps: &[Step], i: usize) -> impl Iterator<Item = usize> {
    let next = (i + 1 < steps.len()).then_some(i + 1);
    let succ = match steps[i] {
        Step::Goto(t) => [Some(t), None],
        Step::BranchIfFail(t) | Step::BranchIfSuccess(t) | Step::BranchIfRegZero(_, t) => {
            [Some(t), next]
        }
        Step::Halt => [None, None],
        _ => [next, None],
    };
    succ.into_iter().flatten()
}

/// Whether executing the step advances simulated time (breaks a
/// potential livelock cycle). Ops and spin loads always cost at least
/// the L1-hit latency; `Work` burns its cycle count.
fn consumes_time(s: &Step) -> bool {
    matches!(
        s,
        Step::Op { .. } | Step::OpIndexed { .. } | Step::Work(_) | Step::SpinWhile { .. }
    )
}

/// Whether the step latches an op outcome for `SetRegFromPrev` and the
/// success branches (a `SpinWhile` issues real loads, so it counts).
fn produces_outcome(s: &Step) -> bool {
    matches!(
        s,
        Step::Op { .. } | Step::OpIndexed { .. } | Step::SpinWhile { .. }
    )
}

/// Register written by the step, if any.
fn written_reg(s: &Step) -> Option<u8> {
    match s {
        Step::SetRegFromPrev(r) | Step::SetRegConst(r, _) => Some(*r),
        Step::RegAdd { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Register the step reads in an *address or control* position, if any
/// (value operands are exempt — see the module docs).
fn control_read(s: &Step) -> Option<u8> {
    match s {
        Step::OpIndexed { reg, .. } => Some(*reg),
        Step::BranchIfRegZero(r, _) => Some(*r),
        Step::RegAdd { src, .. } => Some(*src),
        _ => None,
    }
}

/// Analyze a validated program's CFG. Returns every defect found (empty
/// = clean). Deterministic: defects are ordered by step index, cycles
/// reported once each.
pub fn analyze_program(p: &Program) -> Vec<AnalysisError> {
    cfg_errors(p.steps())
}

/// Analyze a raw step list: run [`Program::new`]'s construction checks
/// first (reported as [`AnalysisError::Invalid`]), then the CFG passes.
/// This is the entry point for step lists that never became a
/// [`Program`] — e.g. `repro lint` demonstrating rejection of a dangling
/// `Goto`.
pub fn analyze_steps(steps: &[Step]) -> Vec<AnalysisError> {
    match Program::new(steps.to_vec()) {
        Err(e) => vec![AnalysisError::Invalid(e)],
        Ok(p) => analyze_program(&p),
    }
}

/// Analyze a whole workload: every program individually, plus the
/// cross-program spin-liveness check. Program `i` is thread `i`.
///
/// The diagnostics are those of analyzing each program on its own, in
/// thread order, but the work is done per body: threads running the
/// same step list (usually clones of one [`Program`]) come in runs, and
/// both the CFG passes and the spin check run once per run.
pub fn analyze_workload(programs: &[&Program]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (threads, body) in bodies(programs) {
        tag(&mut out, threads, &analyze_program(body));
    }
    // Spin liveness: every SpinWhile word must be covered by a write
    // target of some body.
    for (threads, body) in bodies(programs) {
        let dead: Vec<AnalysisError> = body
            .steps()
            .iter()
            .enumerate()
            .filter_map(|(step, s)| match *s {
                Step::SpinWhile { addr, .. }
                    if !bodies(programs).any(|(_, q)| program_writes_word(q, addr)) =>
                {
                    Some(AnalysisError::SpinTargetNeverWritten { step, addr })
                }
                _ => None,
            })
            .collect();
        tag(&mut out, threads, &dead);
    }
    out
}

/// Append `errs` to `out` once for each thread in `threads`.
fn tag(out: &mut Vec<Diagnostic>, threads: Range<usize>, errs: &[AnalysisError]) {
    if errs.is_empty() {
        return;
    }
    for thread in threads {
        out.extend(errs.iter().map(|e| Diagnostic {
            thread,
            error: e.clone(),
        }));
    }
}

/// The runs of consecutive programs with equal step lists, as (thread
/// indices, body). Clones of one [`Program`] compare by pointer.
fn bodies<'a>(
    programs: &'a [&'a Program],
) -> impl Iterator<Item = (Range<usize>, &'a Program)> + 'a {
    let mut start = 0;
    std::iter::from_fn(move || {
        let body = *programs.get(start)?;
        let len = programs[start..]
            .iter()
            .take_while(|p| std::ptr::eq(p.steps(), body.steps()) || p.steps() == body.steps())
            .count();
        start += len;
        Some((start - len..start, body))
    })
}

/// Whether any step of `p` can write `addr`. Direct ops match the exact
/// word; indexed ops match any word the stride lattice can reach (the
/// index register is runtime data, so every multiple of the stride is
/// assumed reachable — conservative in the right direction for a
/// liveness check).
fn program_writes_word(p: &Program, addr: WordAddr) -> bool {
    p.steps().iter().any(|s| match s {
        Step::Op { prim, addr: a, .. } => prim.needs_exclusive() && *a == addr,
        Step::OpIndexed {
            prim, base, stride, ..
        } => {
            prim.needs_exclusive()
                && base.word == addr.word
                && addr.line.0 >= base.line.0
                && (*stride == 0 && addr.line == base.line
                    || *stride > 0 && (addr.line.0 - base.line.0).is_multiple_of(*stride))
        }
        _ => false,
    })
}

fn cfg_errors(steps: &[Step]) -> Vec<AnalysisError> {
    let n = steps.len();
    let mut errs = Vec::new();

    // Reachability from entry.
    let mut reach = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        if reach[i] {
            continue;
        }
        reach[i] = true;
        stack.extend(successors(steps, i));
    }
    for (i, r) in reach.iter().enumerate() {
        if !r {
            errs.push(AnalysisError::UnreachableStep { step: i });
        }
    }

    // Edges of the reachable subgraph as (successor, predecessor),
    // grouped by successor.
    let mut edges: Vec<(usize, usize)> = (0..n)
        .filter(|&i| reach[i])
        .flat_map(|i| successors(steps, i).map(move |s| (s, i)))
        .collect();
    edges.sort_unstable();

    // Must-analyses over the reachable subgraph, to fixpoint. `op_in[i]`
    // = "an op has executed on every path reaching i"; `wr_in[i]` = per-
    // register "written on every path". Initialised to ⊤ (true) and
    // narrowed by the AND-meet; the entry starts at ⊥.
    let mut op_in = vec![true; n];
    let mut wr_in = vec![[true; NUM_REGS]; n];
    op_in[0] = false;
    wr_in[0] = [false; NUM_REGS];
    let transfer_op = |i: usize, v: bool| v || produces_outcome(&steps[i]);
    let transfer_wr = |i: usize, mut v: [bool; NUM_REGS]| {
        if let Some(r) = written_reg(&steps[i]) {
            v[r as usize] = true;
        }
        v
    };
    let mut changed = true;
    while changed {
        changed = false;
        for preds in edges.chunk_by(|a, b| a.0 == b.0) {
            let i = preds[0].0;
            if i == 0 {
                continue;
            }
            let mut op = true;
            let mut wr = [true; NUM_REGS];
            for &(_, p) in preds {
                op &= transfer_op(p, op_in[p]);
                let pw = transfer_wr(p, wr_in[p]);
                for (a, b) in wr.iter_mut().zip(pw) {
                    *a &= b;
                }
            }
            if op != op_in[i] || wr != wr_in[i] {
                op_in[i] = op;
                wr_in[i] = wr;
                changed = true;
            }
        }
    }
    for i in 0..n {
        if !reach[i] {
            continue;
        }
        let consumes_outcome = matches!(
            steps[i],
            Step::SetRegFromPrev(_) | Step::BranchIfFail(_) | Step::BranchIfSuccess(_)
        );
        if consumes_outcome && !op_in[i] {
            errs.push(AnalysisError::NoDominatingOp { step: i });
        }
        if let Some(r) = control_read(&steps[i]) {
            if !wr_in[i][r as usize] {
                errs.push(AnalysisError::ReadBeforeWrite { step: i, reg: r });
            }
        }
    }

    // Zero-cost cycles: SCCs of the reachable subgraph with a cycle but
    // no time-consuming step.
    for scc in sccs(steps, &reach) {
        let cyclic = scc.len() > 1 || successors(steps, scc[0]).any(|s| s == scc[0]);
        if cyclic && !scc.iter().any(|&i| consumes_time(&steps[i])) {
            let mut steps_sorted = scc.clone();
            steps_sorted.sort_unstable();
            errs.push(AnalysisError::ZeroCostCycle {
                steps: steps_sorted,
            });
        }
    }

    errs.sort_by_key(error_sort_key);
    errs
}

/// Sort key keeping diagnostics in step order (cycles by first step).
fn error_sort_key(e: &AnalysisError) -> (usize, u8) {
    match e {
        AnalysisError::Invalid(_) => (0, 0),
        AnalysisError::UnreachableStep { step } => (*step, 1),
        AnalysisError::NoDominatingOp { step } => (*step, 2),
        AnalysisError::ReadBeforeWrite { step, reg } => (*step, 3 + *reg),
        AnalysisError::ZeroCostCycle { steps } => (steps[0], 10),
        AnalysisError::SpinTargetNeverWritten { step, .. } => (*step, 11),
    }
}

/// Tarjan's SCC algorithm (iterative) over the reachable subgraph.
/// Returns each component once, in a deterministic order.
fn sccs(steps: &[Step], reach: &[bool]) -> Vec<Vec<usize>> {
    let n = steps.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out = Vec::new();
    // Explicit DFS state: (node, next-successor position).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if !reach[root] || index[root] != usize::MAX {
            continue;
        }
        work.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(w) = successors(steps, v).nth(*pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LineId;
    use crate::program::{builders, Operand};
    use bounce_atomics::Primitive;

    fn addr() -> WordAddr {
        WordAddr::of_line(0x1000)
    }

    fn op(prim: Primitive) -> Step {
        Step::Op {
            prim,
            addr: addr(),
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        }
    }

    #[test]
    fn builders_are_clean() {
        for p in [
            builders::op_loop(Primitive::Faa, addr(), 0),
            builders::op_loop(Primitive::Cas, addr(), 10),
            builders::cas_increment_loop(addr(), 25, 0),
            builders::cas_increment_loop_backoff(addr(), 25, [16, 64, 256]),
            builders::tas_lock_loop(addr(), 50, 50),
            builders::ttas_lock_loop(addr(), 50, 50),
            builders::ticket_lock_loop(addr(), WordAddr::of_line(0x2000), 50, 50),
            builders::mcs_lock_loop(
                1,
                addr(),
                WordAddr::of_line(0x3_0000),
                WordAddr::of_line(0x4_0000),
                50,
                50,
            ),
        ] {
            let errs = analyze_program(&p);
            assert!(errs.is_empty(), "{:?}: {errs:?}", p.steps());
        }
    }

    #[test]
    fn unreachable_step_flagged() {
        // Step 2 can never run: step 1 jumps over it and nothing targets it.
        let p = Program::new(vec![
            op(Primitive::Faa),
            Step::Goto(3),
            Step::Work(9),
            Step::Halt,
        ])
        .unwrap();
        assert_eq!(
            analyze_program(&p),
            vec![AnalysisError::UnreachableStep { step: 2 }]
        );
    }

    #[test]
    fn branch_without_op_flagged() {
        let p = Program::new(vec![Step::BranchIfFail(2), op(Primitive::Faa), Step::Halt]).unwrap();
        assert!(analyze_program(&p).contains(&AnalysisError::NoDominatingOp { step: 0 }));
    }

    #[test]
    fn setreg_after_op_on_all_paths_is_clean() {
        // Branchy but every path to SetRegFromPrev passes an op.
        let p = Program::new(vec![
            op(Primitive::Cas),
            Step::BranchIfFail(3),
            Step::SetRegFromPrev(0),
            Step::Halt,
        ])
        .unwrap();
        assert!(analyze_program(&p).is_empty());
    }

    #[test]
    fn address_register_read_before_write_flagged() {
        let p = Program::new(vec![
            Step::OpIndexed {
                prim: Primitive::Store,
                base: addr(),
                reg: 2,
                stride: 128,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::Halt,
        ])
        .unwrap();
        assert_eq!(
            analyze_program(&p),
            vec![AnalysisError::ReadBeforeWrite { step: 0, reg: 2 }]
        );
    }

    #[test]
    fn value_operand_zero_init_is_exempt() {
        // The CAS op_loop reads r0 as a value operand before writing it —
        // the documented zero-init idiom must stay clean.
        let p = builders::op_loop(Primitive::Cas, addr(), 0);
        assert!(analyze_program(&p).is_empty());
    }

    #[test]
    fn register_branch_cycle_flagged() {
        // r1 is never written, so BranchIfRegZero(1, 0) always jumps:
        // a livelock Program::new's straight-line walk cannot see.
        let p = Program::new(vec![Step::SetRegConst(0, 1), Step::BranchIfRegZero(1, 0)]).unwrap();
        let errs = analyze_program(&p);
        assert!(
            errs.iter()
                .any(|e| matches!(e, AnalysisError::ZeroCostCycle { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn dangling_goto_rejected_from_raw_steps() {
        let errs = analyze_steps(&[op(Primitive::Faa), Step::Goto(7)]);
        assert_eq!(
            errs,
            vec![AnalysisError::Invalid(ProgramError::TargetOutOfRange {
                step: 1,
                target: 7,
                len: 2
            })]
        );
    }

    #[test]
    fn spin_on_unwritten_word_flagged() {
        let spinner = Program::new(vec![
            Step::SpinWhile {
                addr: WordAddr::of_line(0x8000),
                pred: crate::program::SpinPred::WhileBitSet,
            },
            op(Primitive::Faa),
            Step::Goto(0),
        ])
        .unwrap();
        let other = builders::op_loop(Primitive::Faa, addr(), 0);
        let diags = analyze_workload(&[&spinner, &other]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].thread, 0);
        assert!(matches!(
            diags[0].error,
            AnalysisError::SpinTargetNeverWritten { step: 0, .. }
        ));
        // Adding a writer of that word anywhere in the workload clears it.
        let writer = builders::op_loop(Primitive::Store, WordAddr::of_line(0x8000), 0);
        assert!(analyze_workload(&[&spinner, &writer]).is_empty());
    }

    #[test]
    fn strided_write_covers_spin_word() {
        // An OpIndexed store with stride 128 covers base + 128·k — the
        // MCS handoff shape.
        let base = WordAddr::of_line(0x3_0000);
        let mine = WordAddr {
            line: LineId(base.line.0 + 128 * 3),
            word: base.word,
        };
        let spinner = Program::new(vec![
            Step::SpinWhile {
                addr: mine,
                pred: crate::program::SpinPred::WhileEq(Operand::Const(1)),
            },
            op(Primitive::Faa),
            Step::Goto(0),
        ])
        .unwrap();
        let writer = Program::new(vec![
            Step::SetRegConst(0, 3),
            Step::OpIndexed {
                prim: Primitive::Store,
                base,
                reg: 0,
                stride: 128,
                operand: Operand::Const(0),
                expected: Operand::Const(0),
            },
            Step::Work(10),
            Step::Goto(0),
        ])
        .unwrap();
        assert!(analyze_workload(&[&spinner, &writer]).is_empty());
    }

    #[test]
    fn single_thread_lock_loops_are_clean() {
        // A lock workload run with one thread spins on words only its own
        // program writes — self-writes count (the release path).
        let p = builders::ticket_lock_loop(addr(), WordAddr::of_line(0x2000), 50, 50);
        assert!(analyze_workload(&[&p]).is_empty());
    }
}
