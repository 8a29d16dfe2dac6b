//! The per-thread program interpreter: step execution, op issue
//! (hit/miss split), value linearisation, spin wakeups and op
//! completion accounting. The L1-hit fast path lives here and never
//! consults the coherence-protocol policy — a hit's legality depends
//! only on the local line state.

use super::{CurOp, Engine, Ev, Status, MAX_STEPS_PER_RESUME, NO_LINE, NO_THREAD};
use crate::cache::{LineId, LineState, WordAddr};
use crate::directory::Request;
use crate::probe::{Probe, Transition};
use crate::program::{resolve, SpinPred, Step};
use bounce_atomics::{OpOutcome, Primitive};

impl<P: Probe> Engine<P> {
    pub(super) fn run_thread(&mut self, tid: usize) {
        if self.threads[tid].status == Status::Halted {
            return;
        }
        // Fault injection: a preempted thread goes dark — it executes
        // nothing until its window ends. Coherence transactions already
        // in the fabric complete normally; only instruction issue stops.
        if let Some(fs) = self.faults.as_mut() {
            if let Some(resume_at) = fs.check_preempt(tid, self.now) {
                self.threads[tid].status = Status::Waiting;
                let t = resume_at.max(self.now + 1);
                self.schedule(t, Ev::Resume(tid as u32));
                return;
            }
        }
        self.threads[tid].status = Status::Ready;
        let mut steps = 0u32;
        loop {
            steps += 1;
            if steps > MAX_STEPS_PER_RESUME {
                // Defensive bound against pathological programs: yield one
                // cycle and continue later.
                let t = self.now + 1;
                self.schedule(t, Ev::Resume(tid as u32));
                return;
            }
            let pc = self.threads[tid].pc;
            let step = match self.threads[tid].program.step(pc as usize) {
                Some(s) => *s,
                None => {
                    self.threads[tid].status = Status::Halted;
                    return;
                }
            };
            match step {
                Step::Work(k) => {
                    self.threads[tid].pc = pc + 1;
                    let core = self.threads[tid].core as usize;
                    let k = match self.faults.as_ref() {
                        Some(fs) => fs.scale_work(core, k),
                        None => k,
                    };
                    let t = self.now + k;
                    self.schedule(t, Ev::Resume(tid as u32));
                    return;
                }
                Step::SetRegFromPrev(r) => {
                    let prev = self.threads[tid]
                        .cur_op
                        .and_then(|o| o.outcome())
                        .map(|o| o.prev)
                        .unwrap_or(0);
                    self.threads[tid].regs[r as usize] = prev;
                    self.threads[tid].pc = pc + 1;
                }
                Step::SetRegConst(r, v) => {
                    self.threads[tid].regs[r as usize] = v;
                    self.threads[tid].pc = pc + 1;
                }
                Step::Goto(t) => self.threads[tid].pc = t as u32,
                Step::RegAdd { dst, src, k } => {
                    let v = self.threads[tid].regs[src as usize];
                    self.threads[tid].regs[dst as usize] = v.wrapping_add_signed(k);
                    self.threads[tid].pc = pc + 1;
                }
                Step::BranchIfRegZero(r, t) => {
                    self.threads[tid].pc = if self.threads[tid].regs[r as usize] == 0 {
                        t as u32
                    } else {
                        pc + 1
                    };
                }
                Step::BranchIfFail(t) => {
                    self.threads[tid].pc = if self.threads[tid].last_success {
                        pc + 1
                    } else {
                        t as u32
                    };
                }
                Step::BranchIfSuccess(t) => {
                    self.threads[tid].pc = if self.threads[tid].last_success {
                        t as u32
                    } else {
                        pc + 1
                    };
                }
                Step::Halt => {
                    self.threads[tid].status = Status::Halted;
                    return;
                }
                Step::Op {
                    prim,
                    addr,
                    operand,
                    expected,
                } => {
                    let t = &self.threads[tid];
                    let values = (resolve(operand, &t.regs), resolve(expected, &t.regs));
                    let op = CurOp::new(prim, addr, t.lines[pc as usize], values, false, self.now);
                    self.issue_op(tid, addr.line, op);
                    return;
                }
                Step::OpIndexed {
                    prim,
                    base,
                    reg,
                    stride,
                    operand,
                    expected,
                } => {
                    let t = &self.threads[tid];
                    let addr = base.indexed(stride, t.regs[reg as usize]);
                    let line = t.lines[pc as usize];
                    let values = (resolve(operand, &t.regs), resolve(expected, &t.regs));
                    let line = if line == NO_LINE {
                        self.intern_issued(tid, addr)
                    } else {
                        line
                    };
                    let op = CurOp::new(prim, addr, line, values, false, self.now);
                    self.issue_op(tid, addr.line, op);
                    return;
                }
                Step::SpinWhile { addr, .. } => {
                    let line = self.threads[tid].lines[pc as usize];
                    self.issue_spin(tid, addr, line);
                    return;
                }
                Step::SpinIndexed {
                    base, reg, stride, ..
                } => {
                    let t = &self.threads[tid];
                    let addr = base.indexed(stride, t.regs[reg as usize]);
                    let line = t.lines[pc as usize];
                    let line = if line == NO_LINE {
                        self.intern_issued(tid, addr)
                    } else {
                        line
                    };
                    self.issue_spin(tid, addr, line);
                    return;
                }
            }
        }
    }

    /// The intern and pair indices of `addr`, which an indexed step on
    /// a run-time register names (`add_thread` resolved those on the
    /// thread-index register). Out of line: only the MCS lock's links
    /// take it, and inlined into both indexed arms of the interpreter
    /// loop it cost every workload 2–5% wall time (5-s perfbench runs
    /// on a 2-vCPU host).
    #[inline(never)]
    fn intern_issued(&mut self, tid: usize, addr: WordAddr) -> (u32, u32) {
        let idx = self.line_idx(addr.line);
        (idx, self.pair_idx(idx, self.threads[tid].core as usize))
    }

    /// Issue the load of the spin step at the thread's pc, on `addr`
    /// (intern and pair indices `line`).
    fn issue_spin(&mut self, tid: usize, addr: WordAddr, line: (u32, u32)) {
        let op = CurOp::new(Primitive::Load, addr, line, (0, 0), true, self.now);
        self.issue_op(tid, addr.line, op);
    }

    /// Issue `op` on `line`: a hit completes locally, a miss sends a
    /// request to the line's home directory.
    #[expect(clippy::disallowed_methods, reason = "probe-instrumented helper")]
    fn issue_op(&mut self, tid: usize, line: LineId, mut op: CurOp) {
        let core = self.threads[tid].core as usize;
        let (prim, idx, spin) = (op.prim, op.line_idx, op.spin);
        let excl = prim.needs_exclusive();
        debug_assert_eq!(self.dir.line_at(idx), line, "stale line index");
        // One scan of the L1 set; a hit then touches and upgrades
        // through the slot it found.
        let hit = self.caches[core].find(line).filter(|&(_, state)| {
            if excl {
                state.writable()
            } else {
                state.readable()
            }
        });
        self.energy.ops_j += self.cfg.params.energy.op_nj * 1e-9;
        if let Some((slot, state)) = hit {
            // --- hit ---
            self.caches[core].touch_at(slot);
            let upgrade = excl && state == LineState::Exclusive;
            let pre = upgrade.then(|| self.probe_snapshot(idx, None)).flatten();
            if upgrade {
                self.caches[core].upgrade_at(slot);
            }
            self.probe_emit(idx, Some(tid), core, Transition::Hit { upgrade }, pre);
            self.energy.cache_j += self.cfg.params.energy.l1_nj * 1e-9;
            if spin {
                self.bump_spin_loads(tid);
            } else {
                self.bump_hits(tid);
            }
            // Linearise now; serialise completion against other ops on
            // this line in this core (SMT contention).
            let outcome = self.apply_value_op(&mut op);
            self.threads[tid].last_success = outcome.success;
            let pair = op.pair as usize;
            let start = self.hit_busy[pair].max(self.now);
            let done =
                start + self.cfg.params.l1_hit as u64 + self.cfg.params.exec_cost(prim) as u64;
            if excl {
                self.hit_busy[pair] = done;
            }
            self.threads[tid].cur_op = Some(op);
            self.threads[tid].status = Status::Waiting;
            self.schedule(done, Ev::OpComplete(tid as u32));
        } else {
            // --- miss: request to the home directory ---
            self.probe_emit(idx, Some(tid), core, Transition::Miss { excl }, None);
            if spin {
                self.bump_spin_loads(tid);
            } else {
                self.bump_misses(tid);
            }
            self.threads[tid].cur_op = Some(op);
            self.threads[tid].status = Status::Waiting;
            let home = self.dir.home_of(idx);
            let from = self.tile_of_core(core);
            let wire = self.charge_hops(from, home) as u64;
            let arrive = self.now + self.cfg.params.req_overhead as u64 + wire;
            let req = Request {
                thread: tid as u32,
                core: core as u32,
                excl,
            };
            self.schedule(arrive, Ev::DirArrival(idx, req));
        }
    }

    fn bump_hits(&mut self, tid: usize) {
        if self.now >= self.cfg.warmup_cycles {
            self.reports[tid].hits += 1;
        }
    }

    fn bump_misses(&mut self, tid: usize) {
        if self.now >= self.cfg.warmup_cycles {
            self.reports[tid].misses += 1;
        }
    }

    fn bump_spin_loads(&mut self, tid: usize) {
        if self.now >= self.cfg.warmup_cycles {
            self.reports[tid].spin_loads += 1;
        }
    }

    /// Apply the op's value semantics at its linearisation point; wake
    /// spin-waiters if the word's value changed.
    pub(super) fn apply_value_op(&mut self, op: &mut CurOp) -> OpOutcome {
        let idx = op.line_idx as usize;
        let word = op.word as usize;
        let current = self.values[idx][word];
        let (new, outcome) = op.prim.apply_value(current, op.operand, op.expected);
        if new != current {
            self.values[idx][word] = new;
            self.wake_waiters(op.line_idx);
        }
        (op.prev, op.success, op.linearised) = (outcome.prev, outcome.success, true);
        outcome
    }

    /// Resume every thread spinning on line `idx`, oldest first, and
    /// empty its list.
    fn wake_waiters(&mut self, idx: u32) {
        let (mut tid, _) =
            std::mem::replace(&mut self.waiters[idx as usize], (NO_THREAD, NO_THREAD));
        while tid != NO_THREAD {
            // Small propagation delay before the spinner re-checks.
            let t = self.now + 1;
            self.schedule(t, Ev::Resume(tid));
            tid = std::mem::replace(&mut self.threads[tid as usize].next_waiter, NO_THREAD);
        }
    }

    /// Append thread `tid` to line `idx`'s spin-waiter list.
    fn add_waiter(&mut self, idx: u32, tid: usize) {
        let list = &mut self.waiters[idx as usize];
        let tid = tid as u32;
        if list.0 == NO_THREAD {
            list.0 = tid;
        } else {
            self.threads[list.1 as usize].next_waiter = tid;
        }
        list.1 = tid;
    }

    pub(super) fn op_complete(&mut self, tid: usize) {
        let op = self.threads[tid].cur_op.expect("completing op exists");
        let outcome = op.outcome().expect("op was linearised");
        let in_window = self.now >= self.cfg.warmup_cycles;
        if op.spin {
            // A spin-wait load: evaluate the predicate of the spin step
            // at the thread's pc, which has not moved since the load was
            // issued, on the observed value.
            let t = &self.threads[tid];
            let pred = match t.program.step(t.pc as usize) {
                Some(Step::SpinWhile { pred, .. } | Step::SpinIndexed { pred, .. }) => *pred,
                step => unreachable!("a spin load's pc holds {step:?}"),
            };
            let regs = t.regs;
            let still_waiting = match pred {
                SpinPred::WhileBitSet => outcome.prev & 1 == 1,
                SpinPred::WhileNe(o) => outcome.prev != resolve(o, &regs),
                SpinPred::WhileEq(o) => outcome.prev == resolve(o, &regs),
            };
            if still_waiting {
                // Verify the word still satisfies the wait condition *at
                // this instant* — a writer may have changed it between our
                // load's linearisation and now; if so, retry immediately
                // instead of sleeping forever.
                let current = self.values[op.line_idx as usize][op.word as usize];
                let still = match pred {
                    SpinPred::WhileBitSet => current & 1 == 1,
                    SpinPred::WhileNe(o) => current != resolve(o, &regs),
                    SpinPred::WhileEq(o) => current == resolve(o, &regs),
                };
                if still {
                    self.threads[tid].status = Status::Spinning;
                    self.add_waiter(op.line_idx, tid);
                    return;
                }
                // Value changed already: re-run the spin step now.
                self.run_thread(tid);
                return;
            }
            // Released: fall through to the next step.
            self.threads[tid].pc += 1;
            self.run_thread(tid);
            return;
        }
        // Ordinary workload op: account and continue.
        self.retired_ops += 1;
        if in_window {
            let lat = self.now - op.issued_at;
            let rep = &mut self.reports[tid];
            rep.ops += 1;
            if outcome.success {
                rep.successes += 1;
            } else {
                rep.failures += 1;
            }
            if op.prim.is_conditional() {
                rep.cond_attempts += 1;
                if outcome.success {
                    rep.cond_successes += 1;
                }
            }
            rep.ops_by_prim[op.prim.index()] += 1;
            rep.latency.record(lat);
        }
        self.threads[tid].pc += 1;
        self.run_thread(tid);
    }
}
