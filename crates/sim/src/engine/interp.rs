//! The per-thread program interpreter: step execution, op issue
//! (hit/miss split), value linearisation, spin wakeups and op
//! completion accounting. The L1-hit fast path lives here and never
//! consults the coherence-protocol policy — a hit's legality depends
//! only on the local line state.

use super::{CurOp, Engine, Ev, Status, MAX_STEPS_PER_RESUME};
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
            let step = match self.threads[tid].program.step(pc) {
                Some(s) => *s,
                None => {
                    self.threads[tid].status = Status::Halted;
                    return;
                }
            };
            match step {
                Step::Work(k) => {
                    self.threads[tid].pc = pc + 1;
                    let core = self.threads[tid].core;
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
                        .and_then(|o| o.outcome)
                        .map(|o| o.prev)
                        .unwrap_or(0);
                    self.threads[tid].regs[r as usize] = prev;
                    self.threads[tid].pc = pc + 1;
                }
                Step::SetRegConst(r, v) => {
                    self.threads[tid].regs[r as usize] = v;
                    self.threads[tid].pc = pc + 1;
                }
                Step::Goto(t) => self.threads[tid].pc = t,
                Step::RegAdd { dst, src, k } => {
                    let v = self.threads[tid].regs[src as usize];
                    self.threads[tid].regs[dst as usize] = v.wrapping_add_signed(k);
                    self.threads[tid].pc = pc + 1;
                }
                Step::BranchIfRegZero(r, t) => {
                    self.threads[tid].pc = if self.threads[tid].regs[r as usize] == 0 {
                        t
                    } else {
                        pc + 1
                    };
                }
                Step::BranchIfFail(t) => {
                    self.threads[tid].pc = if self.threads[tid].last_success {
                        pc + 1
                    } else {
                        t
                    };
                }
                Step::BranchIfSuccess(t) => {
                    self.threads[tid].pc = if self.threads[tid].last_success {
                        t
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
                    let operand = resolve(operand, &t.regs);
                    let expected = resolve(expected, &t.regs);
                    let op = CurOp::new(prim, addr, t.lines[pc], operand, expected, self.now);
                    self.issue_op(tid, op);
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
                    let regs = self.threads[tid].regs;
                    let addr = WordAddr {
                        line: LineId(
                            base.line
                                .0
                                .wrapping_add(stride.wrapping_mul(regs[reg as usize])),
                        ),
                        word: base.word,
                    };
                    let idx = self.line_idx(addr.line);
                    let pair = self.pair_idx(idx, self.threads[tid].core);
                    let operand = resolve(operand, &regs);
                    let expected = resolve(expected, &regs);
                    let op = CurOp::new(prim, addr, (idx, pair), operand, expected, self.now);
                    self.issue_op(tid, op);
                    return;
                }
                Step::SpinWhile { addr, pred } => {
                    let line = self.threads[tid].lines[pc];
                    let op = CurOp {
                        spin: Some(pred),
                        ..CurOp::new(Primitive::Load, addr, line, 0, 0, self.now)
                    };
                    self.issue_op(tid, op);
                    return;
                }
            }
        }
    }

    /// Issue `op`: a hit completes locally, a miss sends a request to
    /// the line's home directory.
    #[expect(clippy::disallowed_methods, reason = "probe-instrumented helper")]
    fn issue_op(&mut self, tid: usize, mut op: CurOp) {
        let core = self.threads[tid].core;
        let (prim, idx, spin) = (op.prim, op.line_idx, op.spin);
        let excl = prim.needs_exclusive();
        debug_assert_eq!(self.dir.line_at(idx), op.addr.line, "stale line index");
        // One scan of the L1 set; a hit then touches and upgrades
        // through the slot it found.
        let hit = self.caches[core].find(op.addr.line).filter(|&(_, state)| {
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
            if spin.is_some() {
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
            if spin.is_some() {
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
        let word = op.addr.word as usize;
        let current = self.values[idx][word];
        let (new, outcome) = op.prim.apply_value(current, op.operand, op.expected);
        if new != current {
            self.values[idx][word] = new;
            self.wake_waiters(op.line_idx);
        }
        op.outcome = Some(outcome);
        outcome
    }

    fn wake_waiters(&mut self, idx: u32) {
        // Borrow the list out and put it back empty, keeping its
        // capacity for the line's next spinners.
        let mut list = std::mem::take(&mut self.waiters[idx as usize]);
        for tid in list.drain(..) {
            // Small propagation delay before the spinner re-checks.
            let t = self.now + 1;
            self.schedule(t, Ev::Resume(tid as u32));
        }
        self.waiters[idx as usize] = list;
    }

    pub(super) fn op_complete(&mut self, tid: usize) {
        let op = self.threads[tid].cur_op.expect("completing op exists");
        let outcome = op.outcome.expect("op was linearised");
        let in_window = self.now >= self.cfg.warmup_cycles;
        if let Some(pred) = op.spin {
            // A spin-wait load: evaluate the predicate on the observed
            // value.
            let regs = self.threads[tid].regs;
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
                let current = self.values[op.line_idx as usize][op.addr.word as usize];
                let still = match pred {
                    SpinPred::WhileBitSet => current & 1 == 1,
                    SpinPred::WhileNe(o) => current != resolve(o, &regs),
                    SpinPred::WhileEq(o) => current == resolve(o, &regs),
                };
                if still {
                    self.threads[tid].status = Status::Spinning;
                    self.waiters[op.line_idx as usize].push(tid);
                    return;
                }
                // Value changed already: re-run the SpinWhile step now.
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
