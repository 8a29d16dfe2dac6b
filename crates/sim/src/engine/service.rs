//! Directory transaction service: arrival queueing, per-line pumping,
//! departure/arrival line-state transitions and service-latency
//! assembly.
//!
//! All *policy* — who supplies the data, how an owner demotes when a
//! reader arrives, what state the requester installs — is delegated to
//! the engine's [`crate::protocol::CoherenceProtocol`]. This module owns
//! the *mechanics*: it executes the decisions, charges their wire and
//! energy cost, and keeps the directory book-keeping (which is
//! protocol-independent: invalidation fan-out on writes and the
//! per-line service discipline are universal to the MESI family).

use super::{Engine, Ev};
use crate::cache::{LineId, LineState};
use crate::directory::Request;
use crate::probe::{Probe, Transition};
use crate::protocol::{DataSource, KindDispatch};
use bounce_topo::{Domain, TileId};

impl<P: Probe> Engine<P> {
    pub(super) fn dir_arrival(&mut self, idx: u32, req: Request) {
        self.energy.directory_j += self.cfg.params.energy.dir_nj * 1e-9;
        let (tid, core) = (req.thread as usize, req.core as usize);
        // A re-arrival after a NACK is not a new abstract request: it
        // was recorded as queued on its first arrival and has stayed
        // queued (absorbing NACKs) ever since.
        let first_arrival = self.retry_count.get(tid).is_none_or(|&c| c == 0);
        if self.fabric.is_some() && !self.fabric_admit(idx, &req) {
            return;
        }
        let pre = self.probe_snapshot(idx, None);
        self.dir.entry_at(idx).enqueue(req);
        if first_arrival {
            let queue = Transition::Queue { excl: req.excl };
            self.probe_emit(idx, Some(tid), core, queue, pre);
        }
        self.pump(idx);
    }

    /// Fabric fault model: decide whether the home bank admits an
    /// arriving request. A refused request is NACKed back to the
    /// requester, which re-sends it after the [`RetryPolicy`]
    /// (crate::RetryPolicy) backoff — or, past the retry budget, the run
    /// fails with [`SimError::RetryStorm`](crate::SimError). Only called
    /// while `self.fabric` is `Some`, so the fault-free path never takes
    /// the branch.
    fn fabric_admit(&mut self, idx: u32, req: &Request) -> bool {
        let bank = self.dir.home_of(idx).0;
        let pending = self.bank_pending[bank];
        let refused = {
            let fb = self.fabric.as_mut().expect("fabric state present");
            fb.refuses(bank, pending)
        };
        let (tid, core) = (req.thread as usize, req.core as usize);
        if !refused {
            self.bank_pending[bank] += 1;
            self.retry_count[tid] = 0;
            return true;
        }
        // First refusal of a fresh transaction: abstractly the request
        // joins the queue *and then* gets NACKed — record the queue step
        // before the NACK so the trace refines the model's order.
        if self.retry_count[tid] == 0 {
            let pre = self.probe_snapshot(idx, None);
            let queue = Transition::Queue { excl: req.excl };
            self.probe_emit(idx, Some(tid), core, queue, pre);
        }
        if let Some(fb) = self.fabric.as_mut() {
            fb.nacks += 1;
        }
        self.retry_count[tid] += 1;
        let attempt = self.retry_count[tid];
        let pre = self.probe_snapshot(idx, None);
        let nack = Transition::Nack {
            excl: req.excl,
            attempt,
        };
        self.probe_emit(idx, Some(tid), core, nack, pre);
        let policy = self.cfg.params.retry;
        if attempt > policy.max_retries {
            self.retry_storm = Some(Box::new(self.retry_storm_error(idx, pending)));
            return false;
        }
        if let Some(fb) = self.fabric.as_mut() {
            fb.retries += 1;
        }
        if self.now >= self.cfg.warmup_cycles {
            self.reports[tid].retries += 1;
        }
        // The NACK reply travels home→requester, then the re-sent
        // request travels requester→home after the backoff wait; both
        // legs pay wire latency and hop energy like any other message.
        let home = self.dir.home_of(idx);
        let req_tile = self.tile_of_core(core);
        let nack_leg = self.charge_hops(home, req_tile) as u64;
        let resend_leg = self.charge_hops(req_tile, home) as u64;
        let delay = nack_leg + policy.backoff_cycles(attempt) + resend_leg;
        self.schedule(self.now + delay.max(1), Ev::DirArrival(idx, *req));
        false
    }

    /// Start every queued transaction the service discipline allows:
    /// exclusive (GetM) requests serialise per line — *this* is the
    /// bouncing — while read (GetS) requests are serviced concurrently,
    /// as real home agents do. A waiting GetM has writer priority: once
    /// one is queued, no further GetS starts until it has been served.
    pub(super) fn pump(&mut self, idx: u32) {
        loop {
            let e = self.dir.get_at(idx);
            // Writer priority: while reads are in service, a waiting GetM
            // lets the shared batch drain before anything starts.
            if e.busy_excl() || (e.shared_in_flight > 0 && e.excl_waiting()) {
                return;
            }
            let Some(pick) = self.pick_request(idx) else {
                return;
            };
            let (req, queue_len) = {
                let entry = self.dir.entry_at(idx);
                let queue_len = entry.queue().len();
                let req = entry.dequeue(pick).expect("picked request exists");
                if req.excl {
                    entry.excl_in_flight = Some(req);
                } else {
                    entry.shared_in_flight += 1;
                }
                (req, queue_len)
            };
            if self.now >= self.cfg.warmup_cycles {
                self.queue_depth.record(queue_len as u64);
            }
            let mut latency = self.service_latency(idx, &req);
            self.dir_transactions += 1;
            // Home-agent bandwidth: the transaction occupies its home
            // tile's port, so transactions on *different* lines homed
            // at the same tile queue behind each other.
            let occ = self.cfg.params.home_port_occupancy as u64;
            if occ > 0 {
                let home = self.dir.home_of(idx);
                let start = self.port_busy[home.0].max(self.now);
                self.port_busy[home.0] = start + occ;
                latency += (start - self.now) + occ;
            }
            // Departure transitions happen now: the snoop/invalidation
            // races ahead of the data transfer, so the previous holders
            // lose the line when service *starts*, not when the
            // requester receives the data. (This is what stops an owner
            // free-riding hits for the whole transfer and makes
            // saturated contended throughput ≈ 1 op per ownership
            // transfer, as the paper's model assumes.)
            let pre = self.probe_snapshot(idx, None);
            let bounce = self.depart_line(idx, &req);
            let start = Transition::ServiceStart {
                excl: req.excl,
                queue_len,
                bounce,
            };
            let (tid, core) = (req.thread as usize, req.core as usize);
            self.probe_emit(idx, Some(tid), core, start, pre);
            let t = self.now + latency;
            self.schedule(t, Ev::ServiceDone(idx, req));
            if req.excl {
                // Nothing overlaps an exclusive transaction.
                return;
            }
            // Otherwise keep starting concurrent GetS.
        }
    }

    /// Remove the line from the caches that lose it to `req`, recording
    /// bounce and invalidation statistics, and return the bounce. On a
    /// write, every other holder is invalidated (universal to the MESI
    /// family); on a read, the protocol decides how the current owner
    /// demotes and whether it keeps directory ownership (MOESI's Owned
    /// state does, MESI(F) dissolves it into the sharer set).
    fn depart_line(&mut self, idx: u32, req: &Request) -> Option<(usize, Domain)> {
        let (tid, core) = (req.thread as usize, req.core as usize);
        let mut bounce = None;
        let line = self.dir.line_at(idx);
        let owner = self.dir.get_at(idx).owner;
        if req.excl {
            if let Some(o) = owner {
                if o != core {
                    // Record the bounce (ownership transfer between cores).
                    let d = self
                        .topo
                        .comm_domain(self.threads[tid].hw, self.topo.cores[o].threads[0]);
                    self.transfers_by_domain[d.index()] += 1;
                    bounce = Some((o, d));
                    self.caches[o].invalidate(line);
                    self.invalidations += 1;
                }
            }
            for s in self.dir.get_at(idx).sharers.iter() {
                if s != core {
                    self.caches[s].invalidate(line);
                    self.invalidations += 1;
                }
            }
            let e = self.dir.entry_at(idx);
            e.owner = None;
            e.sharers.clear();
            e.forward = None;
        } else {
            // GetS: the previous owner demotes immediately; the protocol
            // picks the demoted state and whether ownership is retained.
            if let Some(o) = owner {
                let demotion = self
                    .protocol
                    .demote_owner_on_read(self.caches[o].state(line));
                if o != core {
                    self.caches[o].set_state(line, demotion.to);
                }
                if !demotion.retains_ownership {
                    let e = self.dir.entry_at(idx);
                    if let Some(o) = e.owner.take() {
                        e.sharers.insert(o);
                    }
                }
            }
        }
        bounce
    }

    /// Assemble the service latency of a request from the current line
    /// state and the machine's distances. The protocol decides *where*
    /// the data comes from; this method charges the legs.
    fn service_latency(&mut self, idx: u32, req: &Request) -> u64 {
        let dir_lookup = self.cfg.params.dir_lookup as u64;
        let inv_nj = self.cfg.params.energy.inv_nj;
        let home = self.dir.home_of(idx);
        let core = req.core as usize;
        let req_tile = self.tile_of_core(core);
        let (owner, forward) = {
            let e = self.dir.get_at(idx);
            (e.owner, e.forward)
        };
        let mut lat = dir_lookup;
        if req.excl {
            // Invalidate all sharers (parallel, pay the farthest leg).
            // Under MESI(F) an owned line has no sharers, so this only
            // runs for clean-shared lines; under MOESI it also runs
            // alongside a retained Owned copy.
            // `charge_hops` needs `&mut self`, so walk the sharers by
            // successor instead of holding an iterator over them.
            let mut inv_far = 0u64;
            let mut next = self.dir.get_at(idx).sharers.next_from(0);
            while let Some(s) = next {
                if s != core {
                    let st = self.tile_of_core(s);
                    inv_far = inv_far.max(self.wire(home, st) as u64);
                    let _ = self.charge_hops(home, st);
                    self.energy.invalidation_j += inv_nj * 1e-9;
                }
                next = self.dir.get_at(idx).sharers.next_from(s + 1);
            }
            let source = self.protocol.write_source(owner, forward, core);
            let data = self.data_leg(idx, source, req_tile);
            lat += inv_far.max(data);
        } else {
            let source = self.protocol.read_source(owner, forward, core);
            lat += self.data_leg(idx, source, req_tile);
        }
        lat
    }

    /// Latency of the data leg answering a transaction, charging the
    /// wire/energy/memory cost of the chosen source.
    fn data_leg(&mut self, idx: u32, source: DataSource, req_tile: TileId) -> u64 {
        let peer_lookup = self.cfg.params.peer_lookup as u64;
        let mem_latency = self.cfg.params.mem_latency as u64;
        let mem_nj = self.cfg.params.energy.mem_nj;
        let home = self.dir.home_of(idx);
        match source {
            DataSource::Peer(p) => {
                // Forward from a peer cache: home→peer probe, peer tag
                // lookup, peer→requester data transfer.
                let p_tile = self.tile_of_core(p);
                self.charge_hops(home, p_tile) as u64
                    + peer_lookup
                    + self.charge_hops(p_tile, req_tile) as u64
            }
            DataSource::OwnedPeer(p) => {
                let p_tile = self.tile_of_core(p);
                let legs = self.charge_hops(home, p_tile) as u64
                    + peer_lookup
                    + self.charge_hops(p_tile, req_tile) as u64;
                // The Owned copy is the *only* source of the dirty data,
                // so concurrent read misses queue at its cache port for
                // the lookup + transfer occupancy. (MESIF's racing
                // readers spill to the banked home/memory path instead,
                // which services them in parallel — this queue is what
                // makes dirty read-sharing the expensive case for MOESI.)
                let occ = peer_lookup + self.wire(p_tile, req_tile) as u64;
                let start = self.fwd_busy[idx as usize].max(self.now);
                self.fwd_busy[idx as usize] = start + occ;
                (start - self.now) + legs
            }
            DataSource::Memory => {
                self.mem_accesses += 1;
                self.energy.memory_j += mem_nj * 1e-9;
                mem_latency + self.charge_hops(home, req_tile) as u64
            }
            DataSource::Ack => self.charge_hops(home, req_tile) as u64,
        }
    }

    /// Data has arrived at the requester: move the line, linearise the
    /// op, complete it, and start the next queued request(s).
    pub(super) fn service_done(&mut self, idx: u32, req: Request) {
        let line = self.dir.line_at(idx);
        {
            let entry = self.dir.entry_at(idx);
            if req.excl {
                let inflight = entry.excl_in_flight.take();
                debug_assert!(inflight.is_some(), "exclusive service was marked");
            } else {
                debug_assert!(entry.shared_in_flight > 0);
                entry.shared_in_flight -= 1;
            }
        }
        if self.fabric.is_some() {
            // The transaction leaves the bank: release its occupancy
            // slot (admitted in `fabric_admit`).
            let bank = self.dir.home_of(idx).0;
            self.bank_pending[bank] = self.bank_pending[bank].saturating_sub(1);
        }
        let (tid, core) = (req.thread as usize, req.core as usize);
        let pre = self.probe_snapshot(idx, None);
        // --- arrival transitions (departures already ran at service
        //     start, see `depart_line`) ---
        if req.excl {
            let e = self.dir.entry_at(idx);
            e.owner = Some(core);
            e.sharers.clear();
            e.forward = None;
            self.install(core, line, LineState::Modified);
        } else {
            let (state, take_forward) = self.protocol.read_install();
            let old_forward = {
                let e = self.dir.entry_at(idx);
                let old = if take_forward {
                    e.forward.replace(core)
                } else {
                    None
                };
                e.sharers.insert(core);
                old
            };
            // The previous Forward holder demotes to plain S in its own
            // cache (it stays a sharer).
            if let Some(old_f) = old_forward {
                if old_f != core {
                    self.caches[old_f].set_state(line, LineState::Shared);
                }
            }
            self.install(core, line, state);
        }
        let done = Transition::ServiceDone { excl: req.excl };
        self.probe_emit(idx, Some(tid), core, done, pre);
        // Each transaction must leave the directory entry in a state the
        // protocol's invariants accept (owner/sharer/forward exclusivity
        // rules differ per protocol). Debug builds check at every
        // completion; release builds only at end of run.
        #[cfg(debug_assertions)]
        if let Err(msg) = self
            .dir
            .get_at(idx)
            .check_invariants(self.cfg.params.protocol)
        {
            panic!("directory invariant broken after transaction on {line:?}: {msg}");
        }
        self.energy.cache_j += self.cfg.params.energy.l1_nj * 1e-9;
        // --- linearise the op ---
        let mut op = self.threads[tid].cur_op.take().expect("op in flight");
        let outcome = self.apply_value_op(&mut op);
        self.threads[tid].last_success = outcome.success;
        self.threads[tid].cur_op = Some(op);
        let done = self.now
            + self.cfg.params.install_cost as u64
            + self.cfg.params.exec_cost(op.prim) as u64;
        self.schedule(done, Ev::OpComplete(req.thread));
        // --- next transaction(s) on this line ---
        self.pump(idx);
    }

    /// Install a line into a core's L1, handling the eviction.
    fn install(&mut self, core: usize, line: LineId, state: LineState) {
        if let Some((evicted, evicted_state)) = self.caches[core].install(line, state) {
            // The victim left the cache inside `install` above, so the
            // eviction pre-snapshot patches its state back in. A victim
            // was necessarily installed once, hence interned.
            let victim = P::ENABLED.then(|| self.dir.lookup(evicted)).flatten();
            let pre = victim.and_then(|v| self.probe_snapshot(v, Some((core, evicted_state))));
            match evicted_state {
                LineState::Modified | LineState::Owned => {
                    // Dirty writeback to memory (an Owned copy still owes
                    // its line to memory — the deferred MOESI writeback
                    // lands here).
                    self.mem_accesses += 1;
                    self.energy.memory_j += self.cfg.params.energy.mem_nj * 1e-9;
                    self.dir.evict_owner(evicted, core);
                }
                LineState::Exclusive => self.dir.evict_owner(evicted, core),
                LineState::Shared | LineState::Forward => self.dir.evict_sharer(evicted, core),
                LineState::Invalid => {}
            }
            if let Some(v) = victim {
                let evict = Transition::Evict {
                    state: evicted_state,
                };
                self.probe_emit(v, None, core, evict, pre);
            }
        }
    }
}
