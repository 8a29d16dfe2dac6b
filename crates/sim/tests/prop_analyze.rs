//! Property test on the workload analyzer: `analyze_workload`, which
//! runs the CFG passes and the spin check once per run of equal thread
//! bodies, reports exactly what analyzing every program on its own
//! reports.
//!
//! The reference below is the straightforward analyzer: the CFG passes
//! on every program, then, for every `SpinWhile` of every program, a scan
//! of every program's writes. The random
//! workloads mix clones of one body, separately built equal bodies and
//! distinct bodies, spins on written and on unwritten words, strided
//! `OpIndexed` writes, and bodies with every kind of defect.

use bounce_atomics::Primitive;
use bounce_sim::cache::{LineId, WordAddr};
use bounce_sim::program::{builders, Operand, SpinPred, Step, NUM_REGS};
use bounce_sim::{analyze_workload, AnalysisError, Diagnostic, Program};
use proptest::prelude::*;

/// The per-program analyzer the shared-body one must match.
mod reference {
    use super::*;

    pub fn analyze_workload(programs: &[&Program]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (i, p) in programs.iter().enumerate() {
            for e in cfg_errors(p.steps()) {
                out.push(Diagnostic {
                    thread: i,
                    error: e,
                });
            }
        }
        for (i, p) in programs.iter().enumerate() {
            for (si, s) in p.steps().iter().enumerate() {
                if let Step::SpinWhile { addr, .. } = s {
                    let written = programs.iter().any(|q| program_writes_word(q, *addr));
                    if !written {
                        out.push(Diagnostic {
                            thread: i,
                            error: AnalysisError::SpinTargetNeverWritten {
                                step: si,
                                addr: *addr,
                            },
                        });
                    }
                }
            }
        }
        out
    }

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

    fn successors(steps: &[Step], i: usize) -> Vec<usize> {
        let n = steps.len();
        let next = |v: &mut Vec<usize>| {
            if i + 1 < n {
                v.push(i + 1);
            }
        };
        let mut v = Vec::with_capacity(2);
        match steps[i] {
            Step::Goto(t) => v.push(t),
            Step::BranchIfFail(t) | Step::BranchIfSuccess(t) | Step::BranchIfRegZero(_, t) => {
                v.push(t);
                next(&mut v);
            }
            Step::Halt => {}
            _ => next(&mut v),
        }
        v
    }

    fn consumes_time(s: &Step) -> bool {
        matches!(
            s,
            Step::Op { .. } | Step::OpIndexed { .. } | Step::Work(_) | Step::SpinWhile { .. }
        )
    }

    fn produces_outcome(s: &Step) -> bool {
        matches!(
            s,
            Step::Op { .. } | Step::OpIndexed { .. } | Step::SpinWhile { .. }
        )
    }

    fn written_reg(s: &Step) -> Option<u8> {
        match s {
            Step::SetRegFromPrev(r) | Step::SetRegConst(r, _) => Some(*r),
            Step::RegAdd { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    fn control_reads(s: &Step) -> Vec<u8> {
        match s {
            Step::OpIndexed { reg, .. } => vec![*reg],
            Step::BranchIfRegZero(r, _) => vec![*r],
            Step::RegAdd { src, .. } => vec![*src],
            _ => Vec::new(),
        }
    }

    fn cfg_errors(steps: &[Step]) -> Vec<AnalysisError> {
        let n = steps.len();
        let mut errs = Vec::new();

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

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, r) in reach.iter().enumerate() {
            if *r {
                for s in successors(steps, i) {
                    preds[s].push(i);
                }
            }
        }

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
            for i in 0..n {
                if !reach[i] || i == 0 {
                    continue;
                }
                let mut op = true;
                let mut wr = [true; NUM_REGS];
                for &p in &preds[i] {
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
            for r in control_reads(&steps[i]) {
                if !wr_in[i][r as usize] {
                    errs.push(AnalysisError::ReadBeforeWrite { step: i, reg: r });
                }
            }
        }

        for scc in sccs(steps, &reach) {
            let cyclic = scc.len() > 1 || successors(steps, scc[0]).contains(&scc[0]);
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

    fn sccs(steps: &[Step], reach: &[bool]) -> Vec<Vec<usize>> {
        let n = steps.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out = Vec::new();
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
                let succ = successors(steps, v);
                if *pos < succ.len() {
                    let w = succ[*pos];
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
}

/// SplitMix64: the random source of one generated workload.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Lines the generated steps name. With strides of 128 and 256 from
/// these bases, some lines sit on another line's lattice and some do
/// not, so indexed writes both cover and miss spin words.
const LINES: [u64; 4] = [0x1000, 0x1080, 0x1100, 0x2000];
const STRIDES: [u64; 3] = [0, 128, 256];

fn word(rng: &mut Rng) -> WordAddr {
    WordAddr {
        line: LineId(rng.pick(&LINES)),
        word: rng.below(2) as u8,
    }
}

fn reg(rng: &mut Rng) -> u8 {
    rng.below(NUM_REGS as u64) as u8
}

fn operand(rng: &mut Rng) -> Operand {
    match rng.below(3) {
        0 => Operand::Const(rng.below(3)),
        1 => Operand::Reg(reg(rng)),
        _ => Operand::RegPlus(reg(rng), 1),
    }
}

fn step(rng: &mut Rng, len: usize) -> Step {
    let target = |rng: &mut Rng| rng.below(len as u64) as usize;
    match rng.below(14) {
        0 | 1 => Step::Op {
            prim: rng.pick(&Primitive::ALL),
            addr: word(rng),
            operand: operand(rng),
            expected: operand(rng),
        },
        2 => Step::Work(1 + rng.below(50)),
        3 => Step::SetRegFromPrev(reg(rng)),
        4 => Step::SetRegConst(reg(rng), rng.below(3)),
        5 => Step::Goto(target(rng)),
        6 => Step::BranchIfFail(target(rng)),
        7 => Step::BranchIfSuccess(target(rng)),
        8 | 9 => Step::SpinWhile {
            addr: word(rng),
            pred: match rng.below(3) {
                0 => SpinPred::WhileBitSet,
                1 => SpinPred::WhileNe(operand(rng)),
                _ => SpinPred::WhileEq(operand(rng)),
            },
        },
        10 => Step::RegAdd {
            dst: reg(rng),
            src: reg(rng),
            k: rng.below(3) as i64 - 1,
        },
        11 => Step::BranchIfRegZero(reg(rng), target(rng)),
        12 => Step::OpIndexed {
            prim: rng.pick(&Primitive::ALL),
            base: word(rng),
            reg: reg(rng),
            stride: rng.pick(&STRIDES),
            operand: operand(rng),
            expected: operand(rng),
        },
        _ => Step::Halt,
    }
}

/// A random body that passes `Program::new` (most generated step lists
/// do; a few retries cover the rest).
fn body(rng: &mut Rng) -> Program {
    for _ in 0..16 {
        let len = 1 + rng.below(10) as usize;
        let steps: Vec<Step> = (0..len).map(|_| step(rng, len)).collect();
        if let Ok(p) = Program::new(steps) {
            return p;
        }
    }
    builders::op_loop(Primitive::Faa, word(rng), 0)
}

/// A random workload of 1–12 threads over a pool of 1–4 bodies. Each
/// thread repeats its predecessor's program, clones a pooled body,
/// rebuilds one from its steps (equal, but not shared), or gets a body
/// of its own.
fn workload(seed: u64) -> Vec<Program> {
    let mut rng = Rng(seed);
    let pool: Vec<Program> = (0..1 + rng.below(4)).map(|_| body(&mut rng)).collect();
    let n = 1 + rng.below(12) as usize;
    let mut programs: Vec<Program> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = match (programs.last(), rng.below(5)) {
            (Some(prev), 0 | 1) => prev.clone(),
            (_, 2) => pool[rng.below(pool.len() as u64) as usize].clone(),
            (_, 3) => {
                let k = rng.below(pool.len() as u64) as usize;
                Program::new(pool[k].steps().to_vec()).expect("pooled bodies are valid")
            }
            _ => body(&mut rng),
        };
        programs.push(p);
    }
    programs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The shared-body analyzer reports what the per-program analyzer
    /// reports: the same diagnostics, in the same order, on the same
    /// threads.
    #[test]
    fn matches_per_program_reference(seed in any::<u64>()) {
        let programs = workload(seed);
        let refs: Vec<&Program> = programs.iter().collect();
        prop_assert_eq!(
            analyze_workload(&refs),
            reference::analyze_workload(&refs),
            "seed {:#x}",
            seed
        );
    }
}

/// The generator reaches every diagnostic kind and every sharing shape,
/// so the property above is not vacuous.
#[test]
fn generator_covers_defects_and_sharing() {
    let mut kinds = [false; 5];
    let (mut clean, mut shared_runs, mut indexed_cover) = (false, false, false);
    for seed in 0..2_000u64 {
        let programs = workload(seed);
        let refs: Vec<&Program> = programs.iter().collect();
        let diags = reference::analyze_workload(&refs);
        clean |= diags.is_empty();
        for d in &diags {
            let k = match d.error {
                AnalysisError::UnreachableStep { .. } => 0,
                AnalysisError::NoDominatingOp { .. } => 1,
                AnalysisError::ReadBeforeWrite { .. } => 2,
                AnalysisError::ZeroCostCycle { .. } => 3,
                AnalysisError::SpinTargetNeverWritten { .. } => 4,
                AnalysisError::Invalid(_) => unreachable!("programs are validated"),
            };
            kinds[k] = true;
        }
        shared_runs |= programs
            .windows(2)
            .any(|w| std::ptr::eq(w[0].steps(), w[1].steps()));
        // A spin word written only through a strided lattice point other
        // than the base.
        indexed_cover |= programs.iter().flat_map(|p| p.steps()).any(|s| match *s {
            Step::SpinWhile { addr, .. } => {
                let direct = programs.iter().flat_map(|q| q.steps()).any(|t| {
                    matches!(*t, Step::Op { prim, addr: a, .. } if prim.needs_exclusive() && a == addr)
                });
                let lattice = programs.iter().flat_map(|q| q.steps()).any(|t| {
                    matches!(*t, Step::OpIndexed { prim, base, stride, .. }
                        if prim.needs_exclusive()
                            && stride > 0
                            && base.word == addr.word
                            && addr.line.0 > base.line.0
                            && (addr.line.0 - base.line.0).is_multiple_of(stride))
                });
                !direct && lattice
            }
            _ => false,
        });
    }
    assert_eq!(kinds, [true; 5], "diagnostic kinds reached");
    assert!(clean, "no clean workload generated");
    assert!(shared_runs, "no shared body generated");
    assert!(indexed_cover, "no spin covered only by a strided write");
}
