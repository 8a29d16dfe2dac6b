//! The discrete-event engine: thread interpreter, coherence transaction
//! processing, arbitration, spin wakeups, statistics and energy.
//!
//! This module is the coordinator: it owns the [`Engine`] state, the
//! event heap and the main loop, and delegates to focused submodules —
//! `interp` (the per-thread program interpreter and op issue/complete
//! paths), `service` (directory transaction service: departure/arrival
//! line-state transitions and latency assembly), `arb` (arbitration
//! among queued requests) and `stats` (end-of-run reporting). All
//! line-state *policy* — who supplies data, how owners demote, what the
//! requester installs — lives behind [`crate::protocol::CoherenceProtocol`],
//! resolved once at construction; the engine only executes the decisions
//! and charges their cost.
//!
//! # Timing model
//!
//! * An op whose line is present in the issuing core's L1 in a
//!   sufficient state is a **hit**: it completes after
//!   `l1_hit + exec_cost` cycles, serialised against other ops on the
//!   same line in the same core (SMT siblings contend here).
//! * A miss sends a request to the line's **home** directory slice
//!   (arriving after the wire latency). The directory serialises requests
//!   per line; the in-service request's latency is assembled from
//!   directory occupancy, the forwarding path from the current owner
//!   (home→owner→requester), invalidation of sharers, or a memory access
//!   — each leg charged with distance-dependent wire cycles from the
//!   machine topology.
//! * When service completes, the line state moves (the "bounce"), the
//!   op's value semantics apply (the linearisation point), and the next
//!   queued request — chosen by the arbitration policy — begins service.
//!
//! # Value accuracy
//!
//! The engine keeps the current 64-bit value of every touched word and
//! applies each primitive's semantics ([`bounce_atomics::Primitive::apply_value`])
//! at its linearisation point, so conditional primitives genuinely
//! succeed or fail against the interleaving the simulation produced.

use crate::cache::{LineId, LineState, SetAssocCache, WordAddr};
use crate::config::{RunLength, SimConfig};
use crate::conform::DirSnapshot;
use crate::directory::{Directory, InternMap, Request};
use crate::equeue::CalendarQueue;
use crate::error::{LineDiag, SimError, StuckThread};
use crate::faults::{FabricState, FaultState};
use crate::probe::{NoProbe, Probe, ProbeEvent, Transition};
use crate::program::{Program, Step, NUM_REGS, THREAD_REG};
use crate::protocol::CoherenceKind;
use crate::report::{EnergyBreakdown, RunLengthSummary, SimReport, ThreadReport};
use bounce_atomics::{OpOutcome, Primitive};
use bounce_topo::{Domain, HwThreadId, MachineTopology, TileId};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod adaptive;
mod arb;
mod interp;
mod service;
mod stats;

#[cfg(test)]
mod tests;

const MAX_STEPS_PER_RESUME: u32 = 128;

/// Words per cache line tracked by the value table (64-byte lines of
/// 8-byte words, matching [`WordAddr`]'s contract).
const WORDS_PER_LINE: usize = 8;

/// An event payload. `Copy`, so events live **inline in the heap**
/// entries — no payload side-table, no free-list, no per-event
/// allocation. Line events carry the line's dense intern index (see
/// [`Directory::intern`]), not the `LineId`, so handlers index straight
/// into the per-line tables. Thread indices are `u32` like the line
/// index, which keeps the whole event at 20 bytes: every `schedule`
/// and `pop` copies one.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Run the thread's interpreter.
    Resume(u32),
    /// A request reaches the home directory (interned line index).
    DirArrival(u32, Request),
    /// The in-service transaction on a line completes (interned index).
    ServiceDone(u32, Request),
    /// An op finishes at the requester (accounting + continue).
    OpComplete(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Waiting,
    Spinning,
    Halted,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ready => "ready",
            Status::Waiting => "waiting",
            Status::Spinning => "spinning",
            Status::Halted => "halted",
        }
    }
}

/// A thread's op in flight, and its outcome once linearised: 48 B, in
/// each of up to 288 thread records. It keeps only what it cannot
/// re-derive: its line is `dir.line_at(line_idx)`, and a spin load's
/// predicate is the one of the spin step at the thread's pc, which does
/// not move while the op is in flight.
#[derive(Debug, Clone, Copy)]
struct CurOp {
    operand: u64,
    expected: u64,
    issued_at: u64,
    /// The word's value before the op, once linearised.
    prev: u64,
    /// Dense intern index of the op's line (avoids re-hashing on the
    /// linearisation and spin-recheck paths).
    line_idx: u32,
    /// Pair index of (the op's line, the issuing core): where a hit reads
    /// and sets its horizon (see [`Engine::pair_idx`]).
    pair: u32,
    prim: Primitive,
    /// The word within the line.
    word: u8,
    /// Whether this op is the load of the spin step at the thread's pc.
    spin: bool,
    /// Whether the op has linearised: `prev` and `success` hold its
    /// outcome.
    linearised: bool,
    success: bool,
}

impl CurOp {
    /// An op on `addr` (intern index `line_idx`, pair index `pair`)
    /// issued at `now`; a spin load if `spin`.
    fn new(
        prim: Primitive,
        addr: WordAddr,
        (line_idx, pair): (u32, u32),
        (operand, expected): (u64, u64),
        spin: bool,
        now: u64,
    ) -> Self {
        CurOp {
            operand,
            expected,
            issued_at: now,
            prev: 0,
            line_idx,
            pair,
            prim,
            word: addr.word,
            spin,
            linearised: false,
            success: false,
        }
    }

    /// The outcome, once the op has linearised.
    fn outcome(&self) -> Option<OpOutcome> {
        self.linearised.then_some(OpOutcome {
            prev: self.prev,
            success: self.success,
        })
    }
}

/// Entry of [`ThreadSt::lines`] at a pc whose step names no fixed line.
const NO_LINE: (u32, u32) = (u32::MAX, u32::MAX);

/// The end of a spin-waiter list: no thread.
const NO_THREAD: u32 = u32::MAX;

/// A simulated thread: 144 B, and a KNL engine holds up to 288. Its
/// hardware thread, core and pc are `u32` like the line index (the
/// topology bounds the first two, and a program of 2^32 steps would
/// take 256 GiB), and handlers widen them to `usize` to index.
struct ThreadSt {
    program: Program,
    /// The line each step names before the run (see
    /// [`Step::thread_word`]), by pc, as its intern index and the pair
    /// index of (line, this thread's core) ([`NO_LINE`] at every other
    /// pc), resolved in `add_thread`.
    lines: Box<[(u32, u32)]>,
    regs: [u64; NUM_REGS],
    cur_op: Option<CurOp>,
    /// Hardware thread index.
    hw: u32,
    /// Core index.
    core: u32,
    pc: u32,
    /// The thread after this one in the spin-waiter list it is in, or
    /// [`NO_THREAD`] (see [`Engine::waiters`]).
    next_waiter: u32,
    last_success: bool,
    status: Status,
}

/// The simulation engine. Construct with [`Engine::new`], add threads
/// with [`Engine::add_thread`], then [`Engine::try_run`].
///
/// `P` is the engine's [`Probe`]: [`NoProbe`] by default, or a
/// [`Trace`](crate::Trace) / [`ConformRecorder`](crate::ConformRecorder)
/// attached with [`Engine::with_probe`].
///
/// ```
/// use bounce_sim::{Engine, SimConfig, SimParams};
/// use bounce_sim::cache::WordAddr;
/// use bounce_sim::program::builders;
/// use bounce_topo::{presets, HwThreadId};
/// use bounce_atomics::Primitive;
///
/// let topo = presets::tiny_test_machine();
/// let mut eng = Engine::new(&topo, SimConfig::new(SimParams::e5(), 100_000));
/// let line = WordAddr::of_line(0x4000);
/// // Two threads on different cores hammer the same line with FAA.
/// eng.add_thread(HwThreadId(0), builders::op_loop(Primitive::Faa, line, 0));
/// eng.add_thread(HwThreadId(2), builders::op_loop(Primitive::Faa, line, 0));
/// let report = eng.try_run().expect("no watchdog trip");
/// assert!(report.total_ops() > 0);
/// assert!(report.total_transfers() > 0, "the line bounced");
/// // Value accuracy: the word holds every applied increment.
/// assert!(eng.word(line) >= report.total_ops());
/// ```
pub struct Engine<P: Probe = NoProbe> {
    /// Each hardware thread's core, by hardware thread index; its length
    /// is the machine's thread count. With `cores`, `freq_ghz`, the tile
    /// matrices and the directory's home tiles, this is all the engine
    /// keeps of its machine: no copy of the topology.
    thread_cores: Box<[u32]>,
    /// Each core's tile and socket, by core index.
    cores: Box<[(u32, u32)]>,
    /// Clock rate, converting the measurement window to seconds.
    freq_ghz: f64,
    cfg: SimConfig,
    now: u64,
    n_tiles: usize,
    /// Line-state transition policy tag (`cfg.params.protocol`).
    /// Stateless, enum-dispatched to the concrete protocol via
    /// [`crate::protocol::KindDispatch`] so the decisions inline;
    /// consulted only on the miss path (the L1-hit fast path never
    /// dispatches).
    protocol: CoherenceKind,
    /// Event queue: a calendar queue popping in `(time, seq)` order
    /// with payloads inline in the buckets (see [`crate::equeue`]).
    events: CalendarQueue<Ev>,
    threads: Vec<ThreadSt>,
    /// Each thread's counters, by thread index: built at the run's
    /// kick-off, once every thread is in, and moved into the run's
    /// [`SimReport`] by `finish`, which leaves this empty.
    reports: Vec<ThreadReport>,
    /// Whether a hardware thread runs a simulated thread, by hardware
    /// thread index.
    occupied: Vec<bool>,
    /// Set when the run starts: a second [`Engine::try_run`] processes
    /// no events.
    ran: bool,
    caches: Vec<SetAssocCache>,
    dir: Directory,
    /// Per-interned-line word values (`[idx][word]`), kept in lockstep
    /// with the directory's intern table by [`Engine::line_idx`].
    values: Vec<[u64; WORDS_PER_LINE]>,
    /// Dense index of each (line intern index, core) pair an op names,
    /// in first-use order (see [`Engine::pair_idx`]).
    pairs: InternMap<(u32, u32), u32>,
    /// Completion horizon of the exclusive hits on each pair's line in
    /// its core, by pair index.
    hit_busy: Vec<u64>,
    /// Per-interned-line availability horizon of the single dirty-data
    /// supplier's cache port (MOESI's Owned copy, see
    /// [`crate::protocol::DataSource::OwnedPeer`]). Stays all-zero under
    /// MESI(F).
    fwd_busy: Vec<u64>,
    /// Home-agent port availability per tile (bandwidth model; only
    /// consulted when `home_port_occupancy > 0`).
    port_busy: Vec<u64>,
    /// Interconnect link availability (bandwidth model; only consulted
    /// when `link_occupancy_cycles > 0`). Flat, indexed by directed link
    /// id `from_tile * n_tiles + to_tile`.
    link_busy: Vec<u64>,
    /// Precomputed tile-to-tile routes as directed link ids, flat
    /// `src * n_tiles + dst`. Empty unless the link-bandwidth model is on.
    tile_routes: Vec<Vec<u32>>,
    /// Per-interned-line spin-waiter lists, oldest first, as the first
    /// and last thread ([`NO_THREAD`] when empty): the list runs through
    /// [`ThreadSt::next_waiter`]. A spinning thread waits on one line,
    /// so one link per thread serves every list, and spinning allocates
    /// nothing.
    waiters: Vec<(u32, u32)>,
    rng: StdRng,
    /// Wire-latency matrix between tiles, flat `a * n_tiles + b`.
    tile_wire: Vec<u32>,
    /// Hop-count matrix between tiles, flat `a * n_tiles + b`.
    tile_hops: Vec<u32>,
    // --- statistics ---
    transfers_by_domain: [u64; 5],
    invalidations: u64,
    mem_accesses: u64,
    dir_transactions: u64,
    events_processed: u64,
    /// Raw count of workload ops retired (independent of the measurement
    /// window) — the watchdog's liveness signal.
    retired_ops: u64,
    /// Fault-injection state, built at run start when
    /// `cfg.params.faults.enabled()`.
    faults: Option<FaultState>,
    /// Fabric fault-injection state (NACKs, congestion, jitter), built
    /// at run start when `cfg.params.fabric.enabled()`. `None` keeps the
    /// fault-free path bit-identical: no RNG stream is even seeded.
    fabric: Option<FabricState>,
    /// Transactions admitted (queued or in service) per directory bank
    /// (= tile). Only maintained while `fabric` is `Some`; feeds the
    /// modeled occupancy limit.
    bank_pending: Vec<u32>,
    /// Consecutive NACKs absorbed by each thread's *current*
    /// transaction; reset to 0 on admission. Sized at run start.
    retry_count: Vec<u32>,
    /// Set by the admission path when a transaction exhausts its retry
    /// budget; the main loop converts it into an error return.
    retry_storm: Option<Box<SimError>>,
    energy: EnergyBreakdown,
    queue_depth: crate::report::LatencyStats,
    /// Observer of every coherence transition (see [`crate::probe`]).
    probe: P,
}

impl Engine<NoProbe> {
    /// Build a probe-free engine for a machine.
    pub fn new(topo: &MachineTopology, cfg: SimConfig) -> Self {
        Engine::with_probe(topo, cfg, NoProbe)
    }

    /// Run to completion and report, panicking if the forward-progress
    /// watchdog fires.
    #[deprecated(note = "use `try_run`, which returns the watchdog's error instead of panicking")]
    pub fn run(&mut self) -> SimReport {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }
}

impl<P: Probe> Engine<P> {
    /// Build an engine for a machine that reports every coherence
    /// transition to `probe`.
    pub fn with_probe(topo: &MachineTopology, cfg: SimConfig, probe: P) -> Self {
        cfg.params
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulation parameters: {e}"));
        topo.validate().expect("invalid topology");
        let caches = (0..topo.num_cores())
            .map(|_| SetAssocCache::new(cfg.params.l1_sets, cfg.params.l1_ways))
            .collect();
        let dir = Directory::new(topo, cfg.params.home_policy, cfg.params.seed);
        let tile_rep: Vec<HwThreadId> = topo
            .tiles
            .iter()
            .map(|t| topo.cores[t.cores[0].0].threads[0])
            .collect();
        let nt = tile_rep.len();
        let mut tile_wire = vec![0u32; nt * nt];
        let mut tile_hops = vec![0u32; nt * nt];
        for a in 0..nt {
            for b in 0..nt {
                tile_wire[a * nt + b] = topo.wire_cycles(tile_rep[a], tile_rep[b]);
                tile_hops[a * nt + b] = topo.hop_count(tile_rep[a], tile_rep[b]);
            }
        }
        let rng = StdRng::seed_from_u64(cfg.params.seed);
        // Routes only matter under the link-bandwidth model; compute
        // them lazily-cheaply here (O(tiles² · diameter), tiny). Each
        // route is a list of directed link ids `from * nt + to`.
        let link_model = cfg.params.link_occupancy_cycles > 0;
        let tile_routes: Vec<Vec<u32>> = if link_model {
            (0..nt * nt)
                .map(|ab| {
                    let (a, b) = (ab / nt, ab % nt);
                    topo.route_tiles(bounce_topo::TileId(a), bounce_topo::TileId(b))
                        .into_iter()
                        .map(|(f, t)| (f.0 * nt + t.0) as u32)
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        Engine {
            thread_cores: topo.threads.iter().map(|t| t.core.0 as u32).collect(),
            cores: topo
                .cores
                .iter()
                .map(|c| (c.tile.0 as u32, c.socket.0 as u32))
                .collect(),
            freq_ghz: topo.freq_ghz,
            now: 0,
            n_tiles: nt,
            protocol: cfg.params.protocol,
            events: CalendarQueue::new(),
            threads: Vec::new(),
            reports: Vec::new(),
            occupied: vec![false; topo.num_threads()],
            ran: false,
            caches,
            dir,
            values: Vec::new(),
            pairs: InternMap::default(),
            hit_busy: Vec::new(),
            fwd_busy: Vec::new(),
            port_busy: vec![0; nt],
            link_busy: if link_model {
                vec![0; nt * nt]
            } else {
                Vec::new()
            },
            tile_routes,
            waiters: Vec::new(),
            rng,
            tile_wire,
            tile_hops,
            transfers_by_domain: [0; 5],
            invalidations: 0,
            mem_accesses: 0,
            dir_transactions: 0,
            events_processed: 0,
            retired_ops: 0,
            faults: None,
            fabric: None,
            bank_pending: Vec::new(),
            retry_count: Vec::new(),
            retry_storm: None,
            energy: EnergyBreakdown::default(),
            queue_depth: crate::report::LatencyStats::default(),
            probe,
            cfg,
        }
    }

    /// Detach the probe (typically after the run) to read what it saw.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Snapshot of line `idx` for a probe that asked for snapshots, else
    /// `None`. `patch` substitutes one core's cache state: an eviction's
    /// victim has left the cache before the eviction is observable.
    #[inline]
    fn probe_snapshot(&self, idx: u32, patch: Option<(usize, LineState)>) -> Option<DirSnapshot> {
        let cores = self.probe.snapshot_cores()?;
        let e = self.dir.get_at(idx);
        let line = self.dir.line_at(idx);
        let caches = cores
            .iter()
            .map(|&c| match patch {
                Some((pc, st)) if pc == c as usize => st,
                _ => self.caches[c as usize].state(line),
            })
            .collect();
        Some(DirSnapshot {
            owner: e.owner.map(|o| o as u32),
            sharers: e.sharers.iter().map(|s| s as u32).collect(),
            forward: e.forward.map(|f| f as u32),
            caches,
        })
    }

    /// Report one transition on line `idx` to the probe. `pre` is the
    /// [`Engine::probe_snapshot`] taken before the transition; the post
    /// snapshot is taken now.
    #[inline]
    fn probe_emit(
        &mut self,
        idx: u32,
        thread: Option<usize>,
        core: usize,
        kind: Transition,
        pre: Option<DirSnapshot>,
    ) {
        if !P::ENABLED {
            return;
        }
        let ev = ProbeEvent {
            at: self.now,
            line: self.dir.line_at(idx),
            core,
            thread,
            pc: thread.map(|t| self.threads[t].pc as usize),
            kind,
            snapshots: pre.and_then(|pre| Some((pre, self.probe_snapshot(idx, None)?))),
        };
        self.probe.observe(ev);
    }

    /// Pin a simulated thread running `program` to hardware thread `hw`.
    /// The thread's index is its position in add order, and its
    /// [`THREAD_REG`] starts at that index.
    ///
    /// # Panics
    /// Panics if `hw` is out of range or already occupied.
    pub fn add_thread(&mut self, hw: HwThreadId, program: Program) {
        assert!(hw.0 < self.thread_cores.len(), "hw thread out of range");
        assert!(
            !std::mem::replace(&mut self.occupied[hw.0], true),
            "hardware thread {hw:?} already occupied"
        );
        let core = self.thread_cores[hw.0];
        let index = self.threads.len();
        // Intern every line the program names up front and keep each
        // fixed line's index and (line, core) pair by pc, so issuing an
        // `Op` or `SpinWhile`, or an indexed step on the thread index,
        // never hashes. Lines computed from other registers intern when
        // issued.
        let lines = program
            .steps()
            .iter()
            .map(|step| match (step.thread_word(index), *step) {
                (Some(addr), _) => {
                    let idx = self.line_idx(addr.line);
                    (idx, self.pair_idx(idx, core as usize))
                }
                (None, Step::OpIndexed { base, .. } | Step::SpinIndexed { base, .. }) => {
                    self.line_idx(base.line);
                    NO_LINE
                }
                _ => NO_LINE,
            })
            .collect();
        let mut regs = [0; NUM_REGS];
        regs[THREAD_REG as usize] = index as u64;
        self.threads.push(ThreadSt {
            program,
            lines,
            regs,
            cur_op: None,
            hw: hw.0 as u32,
            core,
            pc: 0,
            next_waiter: NO_THREAD,
            last_success: true,
            status: Status::Ready,
        });
    }

    /// Preset the value of a word (before `run`). Words default to 0.
    pub fn set_word(&mut self, addr: WordAddr, value: u64) {
        let idx = self.line_idx(addr.line);
        self.values[idx as usize][addr.word as usize] = value;
    }

    /// Current value of a word (for tests and post-run inspection).
    pub fn word(&self, addr: WordAddr) -> u64 {
        self.dir
            .lookup(addr.line)
            .map(|i| self.values[i as usize][addr.word as usize])
            .unwrap_or(0)
    }

    /// Dense index for a line: interns it in the directory and keeps the
    /// engine's per-line tables (values, waiters, busy horizons) sized
    /// in lockstep.
    #[inline]
    fn line_idx(&mut self, line: LineId) -> u32 {
        let idx = self.dir.intern(line);
        let n = self.dir.tracked_lines();
        if self.values.len() < n {
            self.values.resize(n, [0u64; WORDS_PER_LINE]);
            self.waiters.resize(n, (NO_THREAD, NO_THREAD));
            self.fwd_busy.resize(n, 0);
        }
        idx
    }

    /// Dense index for the pair of interned line `idx` and `core`:
    /// interns it and gives it a hit horizon. Only the pairs some op
    /// names get one, so the horizons grow with the ops' lines and
    /// cores, not with every line times every core.
    fn pair_idx(&mut self, idx: u32, core: usize) -> u32 {
        let next = self.hit_busy.len() as u32;
        let pair = self.pairs.get_or_insert((idx, core as u32), next);
        if pair == next {
            self.hit_busy.push(0);
        }
        pair
    }

    /// The coherence state of a line in one core's L1 (post-run
    /// inspection / protocol tests).
    pub fn cache_state(&self, core: usize, line: LineId) -> LineState {
        self.caches[core].state(line)
    }

    /// The directory's recorded owner core for a line, if any.
    pub fn dir_owner(&self, line: LineId) -> Option<usize> {
        self.dir.get(line).and_then(|e| e.owner)
    }

    /// The directory's recorded sharer cores for a line.
    pub fn dir_sharers(&self, line: LineId) -> Vec<usize> {
        self.dir
            .get(line)
            .map(|e| e.sharers.iter().collect())
            .unwrap_or_default()
    }

    #[inline]
    fn schedule(&mut self, time: u64, ev: Ev) {
        self.events.push(time, ev);
    }

    #[inline]
    fn tile_of_core(&self, core: usize) -> TileId {
        TileId(self.cores[core].0 as usize)
    }

    /// The domain a line crosses between a thread of core `a` and
    /// another thread of core `b`: [`MachineTopology::comm_domain`] of
    /// any two distinct hardware threads on them, read from the engine's
    /// own tables.
    fn core_domain(&self, a: usize, b: usize) -> Domain {
        let ((tile_a, socket_a), (tile_b, socket_b)) = (self.cores[a], self.cores[b]);
        if a == b {
            Domain::SmtSibling
        } else if tile_a == tile_b {
            Domain::SameTile
        } else if socket_a == socket_b {
            Domain::SameSocket
        } else {
            Domain::CrossSocket
        }
    }

    #[inline]
    fn wire(&self, a: TileId, b: TileId) -> u32 {
        self.tile_wire[a.0 * self.n_tiles + b.0]
    }

    #[inline]
    fn hops(&self, a: TileId, b: TileId) -> u32 {
        self.tile_hops[a.0 * self.n_tiles + b.0]
    }

    /// Wire latency of one leg, charging hop energy and — under the
    /// link-bandwidth model — queueing the message behind earlier
    /// traffic at its route's bottleneck link. With fabric faults on,
    /// transient congestion windows multiply the wire latency and
    /// uniform jitter is added before the bandwidth model applies.
    fn charge_hops(&mut self, a: TileId, b: TileId) -> u32 {
        let h = self.hops(a, b);
        self.energy.network_j += h as f64 * self.cfg.params.energy.hop_nj * 1e-9;
        let mut lat = self.wire(a, b);
        if a != b {
            let pair = a.0 * self.n_tiles + b.0;
            let now = self.now;
            if let Some(fb) = self.fabric.as_mut() {
                if fb.congested(pair, now) {
                    lat = lat.saturating_mul(fb.multiplier());
                }
                lat = lat.saturating_add(fb.jitter());
            }
        }
        let occ = self.cfg.params.link_occupancy_cycles as u64;
        if occ > 0 && a != b {
            let route = &self.tile_routes[a.0 * self.n_tiles + b.0];
            // Bottleneck model: wait out the busiest link on the route,
            // then occupy every link for `occ`.
            let now = self.now;
            let wait = route
                .iter()
                .map(|&l| self.link_busy[l as usize].saturating_sub(now))
                .max()
                .unwrap_or(0);
            let depart = now + wait;
            for &l in route {
                self.link_busy[l as usize] = depart + occ;
            }
            lat += (wait + occ.saturating_sub(1)) as u32;
        }
        lat
    }

    /// Run to completion (no runnable events, or simulated time past the
    /// configured duration) under the forward-progress watchdog
    /// ([`SimConfig::watchdog`](crate::config::Watchdog)) and report.
    /// The engine remains inspectable afterwards ([`Engine::word`], for
    /// conservation checks). An engine runs once: a second call
    /// processes no events and returns an empty report, with zero cycles
    /// and events and a zeroed [`ThreadReport`] per thread.
    ///
    /// Returns [`SimError::EventBudgetExceeded`] if the run processes
    /// more events than its budget (an event storm that never advances
    /// simulated time), or [`SimError::NoProgress`] if simulated time
    /// keeps advancing but no workload op retires for the configured
    /// number of consecutive epochs — in both cases with the stuck
    /// threads' program counters and the most contended line's coherence
    /// state attached.
    pub fn try_run(&mut self) -> Result<SimReport, SimError> {
        if self.ran {
            return Ok(self.empty_report());
        }
        // Mandatory static pass: reject malformed workloads before any
        // event is processed. `repro lint` runs the same analysis
        // offline; this is the backstop for programs built directly.
        {
            let programs: Vec<&Program> = self.threads.iter().map(|t| &t.program).collect();
            if let Some(d) = crate::analyze::analyze_workload(&programs)
                .into_iter()
                .next()
            {
                return Err(SimError::InvalidWorkload {
                    thread: d.thread,
                    error: d.error,
                });
            }
        }
        // Kick off every thread at t=0. No thread joins from here on, so
        // the tables `add_thread` grew by doubling give up their slack
        // and the reports are built in one exact-size table.
        self.ran = true;
        self.threads.shrink_to_fit();
        self.values.shrink_to_fit();
        self.waiters.shrink_to_fit();
        self.fwd_busy.shrink_to_fit();
        self.hit_busy.shrink_to_fit();
        self.dir.shrink_to_fit();
        self.reports = self.zeroed_reports();
        // A thread has at most one event queued: its resume, or the
        // next step of its op in flight.
        self.events.reserve(self.threads.len());
        for tid in 0..self.threads.len() {
            self.schedule(0, Ev::Resume(tid as u32));
        }
        if self.cfg.params.faults.enabled() {
            self.faults = Some(FaultState::new(
                &self.cfg.params.faults,
                self.cfg.params.seed,
                self.threads.len(),
                self.cores.len(),
            ));
        }
        if self.cfg.params.fabric.enabled() {
            self.fabric = Some(FabricState::new(
                &self.cfg.params.fabric,
                self.cfg.params.seed,
                self.n_tiles,
            ));
            self.bank_pending = vec![0; self.n_tiles];
        }
        self.retry_count = vec![0; self.threads.len()];
        // The effective cycle budget: the run-length config may override
        // the config duration (`Fixed{cycles:0}` resolves to it, keeping
        // the historical behaviour byte-identical).
        let duration = self
            .cfg
            .params
            .run_length
            .budget_cycles(self.cfg.duration_cycles);
        let mut ctl = match self.cfg.params.run_length {
            RunLength::Adaptive {
                rel_ci,
                min_batches,
                ..
            } => Some(adaptive::AdaptiveCtl::new(
                rel_ci,
                min_batches,
                RunLength::batch_cycles(duration),
                self.cfg.warmup_cycles,
                self.threads.len(),
            )),
            RunLength::Fixed { .. } => None,
        };
        let mut stopped_at: Option<u64> = None;
        let wd = self.cfg.watchdog;
        let budget = wd.resolved_max_events(self.threads.len(), duration);
        let epoch_cycles = wd.resolved_epoch_cycles(duration);
        let mut epoch_end = epoch_cycles;
        let mut stale_epochs: u64 = 0;
        let mut retired_at_epoch = self.retired_ops;
        let mut processed: u64 = 0;
        let result = loop {
            let Some((time, ev)) = self.events.pop() else {
                break Ok(());
            };
            if time > duration {
                break Ok(());
            }
            // Adaptive run-length: when the popped time crosses a batch
            // boundary, close the batch(es) and check convergence —
            // *before* processing the event, so an early stop cuts the
            // run exactly at the boundary (everything at or after it is
            // left unprocessed).
            if let Some(c) = ctl.as_mut() {
                if time >= c.next_end {
                    if let Some(b) = self.adaptive_boundaries(c, time) {
                        stopped_at = Some(b);
                        break Ok(());
                    }
                }
            }
            processed += 1;
            if processed > budget {
                break Err(SimError::EventBudgetExceeded {
                    budget,
                    at_cycle: time,
                });
            }
            // Retirement-staleness check: each time the clock crosses an
            // epoch boundary, require at least one op to have retired
            // since the last boundary. `while` (not `if`) because a
            // long `Work` step can jump several epochs at once — those
            // idle epochs are not livelock, so only the epoch containing
            // actual event activity counts.
            if wd.stall_epochs > 0 && time >= epoch_end {
                if self.retired_ops == retired_at_epoch {
                    stale_epochs += 1;
                    if stale_epochs >= wd.stall_epochs {
                        self.now = time;
                        break Err(self.no_progress_error(stale_epochs, epoch_cycles));
                    }
                } else {
                    stale_epochs = 0;
                    retired_at_epoch = self.retired_ops;
                }
                while epoch_end <= time {
                    epoch_end += epoch_cycles;
                }
            }
            self.now = time;
            self.events_processed += 1;
            match ev {
                Ev::Resume(tid) => self.run_thread(tid as usize),
                Ev::DirArrival(line, req) => self.dir_arrival(line, req),
                Ev::ServiceDone(line, req) => self.service_done(line, req),
                Ev::OpComplete(tid) => self.op_complete(tid as usize),
            }
            if let Some(e) = self.retry_storm.take() {
                break Err(*e);
            }
        };
        crate::counters::add_events(self.events_processed);
        if let Some(fb) = self.fabric.as_ref() {
            crate::counters::add_faults(fb.nacks, fb.retries);
        }
        result.map(|()| {
            let summary = match &ctl {
                Some(c) => c.summary(duration, stopped_at),
                None => RunLengthSummary::fixed(duration),
            };
            crate::counters::add_run(&summary);
            self.finish(summary)
        })
    }

    /// Assemble the `NoProgress` diagnostic: every non-halted thread's
    /// program counter plus the coherence state of the line with the
    /// deepest directory queue.
    fn no_progress_error(&self, stalled_epochs: u64, epoch_cycles: u64) -> SimError {
        let stuck = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status != Status::Halted)
            .take(SimError::MAX_STUCK_THREADS)
            .map(|(tid, t)| StuckThread {
                thread: tid,
                hw_thread: t.hw as usize,
                pc: t.pc as usize,
                status: t.status.label(),
            })
            .collect();
        let hottest_line = (0..self.dir.tracked_lines() as u32)
            .max_by_key(|&i| {
                let e = self.dir.get_at(i);
                // Prefer lines with queued or in-flight work; tie-break
                // towards lower intern index for determinism.
                (
                    e.queue().len(),
                    e.excl_in_flight.is_some() as usize + e.shared_in_flight as usize,
                    std::cmp::Reverse(i),
                )
            })
            .map(|i| {
                let e = self.dir.get_at(i);
                LineDiag {
                    line: self.dir.line_at(i).0,
                    home_tile: self.dir.home_of(i).0,
                    owner: e.owner,
                    sharers: e.sharers.len(),
                    forward: e.forward,
                    queue_len: e.queue().len(),
                    excl_in_flight: e.excl_in_flight.is_some(),
                }
            });
        SimError::NoProgress {
            at_cycle: self.now,
            stalled_epochs,
            epoch_cycles,
            stuck,
            hottest_line,
        }
    }

    /// Assemble the `RetryStorm` diagnostic for a transaction on interned
    /// line `idx` that exhausted its retry budget: the refusing bank's
    /// occupancy plus every thread currently backing off.
    fn retry_storm_error(&self, idx: u32, bank_occupancy: u32) -> SimError {
        let retrying = self
            .threads
            .iter()
            .enumerate()
            .filter(|(tid, _)| self.retry_count[*tid] > 0)
            .take(SimError::MAX_STUCK_THREADS)
            .map(|(tid, t)| StuckThread {
                thread: tid,
                hw_thread: t.hw as usize,
                pc: t.pc as usize,
                status: t.status.label(),
            })
            .collect();
        SimError::RetryStorm {
            at_cycle: self.now,
            line: self.dir.line_at(idx).0,
            home_tile: self.dir.home_of(idx).0,
            bank_occupancy,
            max_retries: self.cfg.params.retry.max_retries,
            retrying,
        }
    }
}
