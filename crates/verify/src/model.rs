//! Explicit-state model checker for [`CoherenceProtocol`] implementations.
//!
//! The checker enumerates every reachable configuration of **one cache
//! line** across 2–4 cores: per-core line state and data freshness, the
//! directory's owner/sharer/forward records, each core's in-flight
//! request, and whether memory holds the latest value. Transitions
//! mirror the engine's transaction mechanics exactly — departure
//! transitions (invalidations, owner demotion, data-source selection)
//! at service *start*, arrival transitions (installs, Forward handover)
//! at service *completion*, silent evictions with dirty writebacks, and
//! the per-line service discipline (one exclusive transaction at a time,
//! concurrent reads, writer priority). Where the engine's arbitration
//! policy picks *one* queued request, the checker branches on *every*
//! eligible choice, so the explored set over-approximates any policy.
//!
//! At every state the checker asserts:
//!
//! * **SWMR** — at most one writable (M/E) copy, and none concurrent
//!   with any other valid copy; at most one Owned and one Forward copy.
//! * **Data-value invariant** — every valid copy holds the latest
//!   version, and when memory is stale a fresh dirty copy (or an
//!   in-flight exclusive transaction carrying the data) still exists.
//! * **Directory/L1 agreement** — in quiescent states the directory's
//!   owner/sharer/forward records match the cache states exactly, and
//!   [`LineDir::check_invariants`] accepts the directory view always.
//! * **No stuck states** — a state with pending requests always enables
//!   a service-start or service-completion transition.
//!
//! The checker also models the engine's **fabric NACK/retry** path
//! (`FabricFaultConfig`): a queued request may be refused by its home
//! bank and re-queued without touching line or directory state. NACKs
//! branch nondeterministically at every queued request (bounded at
//! [`MAX_NACKS`] per request to keep the space finite), so every
//! invariant above is checked under arbitrary NACK interleavings. A
//! NACK transition deliberately does *not* count as progress for the
//! stuck-state check — a state whose only enabled moves are NACKs
//! would be reported as stuck, proving that bounded retries cannot
//! deadlock the service discipline.
//!
//! Violations come with a shortest counterexample trace (BFS order).
//! The checker also records which *transition-table rows* — abstract
//! (method, input-shape) pairs of the protocol trait — the reachable
//! set exercises, and reports the dead remainder, e.g. MESI(F)'s
//! `write_source` owner-is-requester arm, which is unreachable because
//! an M/E owner always write-*hits*.
//!
//! # State-space bounds
//!
//! The abstraction is exact for a single line: one register of
//! directory state, ≤ 4 cores × (6 line states × freshness), ≤ 4
//! requests in {idle, queued, in-service} × {read, write}. The
//! reachable set stays in the low tens of thousands of states per
//! (protocol, core-count), so exhaustive search takes milliseconds —
//! the 60-second budget in CI is three orders of magnitude of headroom.
//! Multi-line interactions (eviction pressure between lines) and
//! message-level reordering below the transaction abstraction are out
//! of scope; the engine serialises at transaction granularity, so the
//! abstraction matches the implementation it checks.

use bounce_sim::directory::{LineDir, Request};
use bounce_sim::protocol::{CoherenceProtocol, DataSource};
use bounce_sim::{CoherenceKind, LineState};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Largest core count the abstract state supports.
pub const MAX_CORES: usize = 4;

/// NACK bound per request: each queued request may be refused and
/// re-queued at most this many times before the abstraction forces it
/// to stay queued. The engine's `RetryPolicy` budgets are far larger,
/// but two NACKs already cover every interleaving shape (NACK before /
/// between / after competing service starts); deeper counters only
/// replicate states that differ in an integer the invariants never
/// read.
pub const MAX_NACKS: u8 = 2;

/// One core's request status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ReqSt {
    /// No request outstanding.
    Idle,
    /// Queued at the directory (`excl` = GetM); `nacks` counts fabric
    /// refusals absorbed so far (bounded by [`MAX_NACKS`]).
    Queued { excl: bool, nacks: u8 },
    /// In service; `data_fresh` records whether the data source chosen
    /// at service start held the latest version.
    InService { excl: bool, data_fresh: bool },
}

/// Abstract configuration of one line across `n` cores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct AbsState {
    pub(crate) n: u8,
    /// Per-core L1 state of the line.
    pub(crate) caches: [LineState; MAX_CORES],
    /// Per-core freshness: does the copy hold the latest version?
    /// Canonically `true` for Invalid copies.
    pub(crate) fresh: [bool; MAX_CORES],
    /// Directory owner record.
    pub(crate) owner: Option<u8>,
    /// Directory sharer records, as a bitmask.
    pub(crate) sharers: u8,
    /// Directory Forward record (MESIF).
    pub(crate) forward: Option<u8>,
    /// Per-core request status.
    pub(crate) req: [ReqSt; MAX_CORES],
    /// Does memory hold the latest version?
    pub(crate) mem_fresh: bool,
}

impl AbsState {
    fn quiescent(&self) -> bool {
        self.req[..self.n as usize]
            .iter()
            .all(|r| *r == ReqSt::Idle)
    }

    fn shared_in_flight(&self) -> u32 {
        self.req[..self.n as usize]
            .iter()
            .filter(|r| matches!(r, ReqSt::InService { excl: false, .. }))
            .count() as u32
    }

    fn excl_in_flight(&self) -> Option<usize> {
        (0..self.n as usize).find(|&i| matches!(self.req[i], ReqSt::InService { excl: true, .. }))
    }

    /// A GetM that is certainly sitting in the concrete directory
    /// queue. A *NACKed* GetM (`nacks > 0`) is abstractly still Queued
    /// but concretely away in retry backoff, where the engine's
    /// writer-priority rule cannot see it — so it must not block reads
    /// from starting in the model either (the conformance pass caught
    /// exactly this interleaving under a degraded fabric).
    fn queued_excl(&self) -> bool {
        (0..self.n as usize).any(|i| {
            matches!(
                self.req[i],
                ReqSt::Queued {
                    excl: true,
                    nacks: 0
                }
            )
        })
    }

    fn set_cache(&mut self, i: usize, st: LineState) {
        self.caches[i] = st;
        if st == LineState::Invalid {
            self.fresh[i] = true; // canonical: freshness of nothing
        }
    }
}

fn state_letter(s: LineState) -> char {
    match s {
        LineState::Modified => 'M',
        LineState::Owned => 'O',
        LineState::Exclusive => 'E',
        LineState::Shared => 'S',
        LineState::Forward => 'F',
        LineState::Invalid => 'I',
    }
}

impl fmt::Display for AbsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.n as usize;
        write!(f, "caches=[")?;
        for i in 0..n {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", state_letter(self.caches[i]))?;
            if self.caches[i] != LineState::Invalid && !self.fresh[i] {
                write!(f, "(stale)")?;
            }
        }
        write!(f, "] dir{{owner=")?;
        match self.owner {
            Some(o) => write!(f, "{o}")?,
            None => write!(f, "-")?,
        }
        write!(f, " sharers={{")?;
        let mut first = true;
        for i in 0..n {
            if self.sharers & (1 << i) != 0 {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{i}")?;
                first = false;
            }
        }
        write!(f, "}} fwd=")?;
        match self.forward {
            Some(x) => write!(f, "{x}")?,
            None => write!(f, "-")?,
        }
        write!(f, "}} req=[")?;
        for i in 0..n {
            if i > 0 {
                write!(f, " ")?;
            }
            match self.req[i] {
                ReqSt::Idle => write!(f, "idle")?,
                ReqSt::Queued { excl, nacks } => {
                    write!(f, "{}?", if excl { "GetM" } else { "GetS" })?;
                    if nacks > 0 {
                        write!(f, "(nack{nacks})")?;
                    }
                }
                ReqSt::InService { excl, data_fresh } => write!(
                    f,
                    "{}{}",
                    if excl { "GetM!" } else { "GetS!" },
                    if data_fresh { "" } else { "(stale)" }
                )?,
            }
        }
        write!(
            f,
            "] mem={}",
            if self.mem_fresh { "fresh" } else { "stale" }
        )
    }
}

/// Shape of an `owner`/`forward` argument as seen by the protocol's
/// decision functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgClass {
    /// No core recorded.
    None,
    /// The requesting core itself.
    Requester,
    /// A different core.
    Other,
}

/// One abstract row of a protocol's transition table: a (decision
/// method, input shape) pair. The reachability analysis records which
/// rows the explored state space exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Row {
    /// `demote_owner_on_read` invoked with the owner's copy in a state.
    Demote(LineState),
    /// `read_source` invoked with these owner/forward shapes.
    ReadSource {
        /// Owner record shape.
        owner: ArgClass,
        /// Forward record shape.
        forward: ArgClass,
    },
    /// `write_source` invoked with these owner/forward shapes.
    WriteSource {
        /// Owner record shape.
        owner: ArgClass,
        /// Forward record shape.
        forward: ArgClass,
    },
    /// `read_install` invoked.
    ReadInstall,
    /// A queued request (`excl` = GetM) refused by its home bank and
    /// re-queued — the fabric NACK/retry path.
    Nack {
        /// Whether the refused request was exclusive.
        excl: bool,
    },
}

impl Row {
    pub(crate) fn sort_key(&self) -> (u8, u8, u8) {
        fn c(a: ArgClass) -> u8 {
            match a {
                ArgClass::None => 0,
                ArgClass::Requester => 1,
                ArgClass::Other => 2,
            }
        }
        fn s(l: LineState) -> u8 {
            match l {
                LineState::Modified => 0,
                LineState::Owned => 1,
                LineState::Exclusive => 2,
                LineState::Shared => 3,
                LineState::Forward => 4,
                LineState::Invalid => 5,
            }
        }
        match self {
            Row::Demote(l) => (0, s(*l), 0),
            Row::ReadSource { owner, forward } => (1, c(*owner), c(*forward)),
            Row::WriteSource { owner, forward } => (2, c(*owner), c(*forward)),
            Row::ReadInstall => (3, 0, 0),
            Row::Nack { excl } => (4, *excl as u8, 0),
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Row::Demote(l) => write!(f, "demote_owner_on_read({})", state_letter(*l)),
            Row::ReadSource { owner, forward } => {
                write!(f, "read_source(owner={owner:?}, forward={forward:?})")
            }
            Row::WriteSource { owner, forward } => {
                write!(f, "write_source(owner={owner:?}, forward={forward:?})")
            }
            Row::ReadInstall => write!(f, "read_install()"),
            Row::Nack { excl } => {
                write!(f, "nack_retry({})", if *excl { "GetM" } else { "GetS" })
            }
        }
    }
}

/// The row universe: every structurally possible input shape. Owner and
/// Forward records never coexist (directory invariant), so mixed shapes
/// are excluded; an owner recorded in S/F would itself be a directory
/// violation, so `Demote` rows cover the ownable states only.
pub(crate) fn row_universe() -> Vec<Row> {
    let mut rows = vec![
        Row::Demote(LineState::Modified),
        Row::Demote(LineState::Owned),
        Row::Demote(LineState::Exclusive),
    ];
    let shapes = [
        (ArgClass::None, ArgClass::None),
        (ArgClass::None, ArgClass::Requester),
        (ArgClass::None, ArgClass::Other),
        (ArgClass::Requester, ArgClass::None),
        (ArgClass::Other, ArgClass::None),
    ];
    for (owner, forward) in shapes {
        rows.push(Row::ReadSource { owner, forward });
    }
    for (owner, forward) in shapes {
        rows.push(Row::WriteSource { owner, forward });
    }
    rows.push(Row::ReadInstall);
    rows.push(Row::Nack { excl: false });
    rows.push(Row::Nack { excl: true });
    rows
}

pub(crate) fn classify(x: Option<usize>, req: usize) -> ArgClass {
    match x {
        None => ArgClass::None,
        Some(c) if c == req => ArgClass::Requester,
        Some(_) => ArgClass::Other,
    }
}

/// A protocol-invariant violation, with the shortest trace reaching it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// Alternating state / `-- transition -->` lines from an initial
    /// state to the violating one.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "protocol invariant violated: {}", self.message)?;
        writeln!(f, "counterexample trace:")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Reachability report of one (protocol, core-count) run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Protocol family tag the checked impl claims.
    pub kind: CoherenceKind,
    /// Number of cores modeled.
    pub cores: usize,
    /// Distinct reachable states.
    pub states: usize,
    /// Explored transitions.
    pub transitions: usize,
    /// Transition-table rows the reachable set exercised, sorted.
    pub rows_hit: Vec<Row>,
    /// Universe rows never exercised (dead table entries), sorted.
    pub dead_rows: Vec<Row>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:?} x {} cores: {} states, {} transitions, {} rows live, {} dead",
            self.kind,
            self.cores,
            self.states,
            self.transitions,
            self.rows_hit.len(),
            self.dead_rows.len()
        )?;
        for r in &self.dead_rows {
            writeln!(f, "  dead row: {r}")?;
        }
        Ok(())
    }
}

/// Outcome of a transition attempt: either a successor state or a
/// violation detected while applying the protocol's decision.
type Step = Result<AbsState, String>;

pub(crate) struct Checker<'a> {
    pub(crate) proto: &'a dyn CoherenceProtocol,
    pub(crate) n: usize,
    pub(crate) rows: HashSet<Row>,
}

impl<'a> Checker<'a> {
    fn bit(i: usize) -> u8 {
        1u8 << i
    }

    /// Freshness of the data a [`DataSource`] delivers, with sanity
    /// checks that the source actually holds a copy.
    fn source_freshness(&self, s: &AbsState, src: DataSource, req: usize) -> Result<bool, String> {
        match src {
            DataSource::Peer(p) | DataSource::OwnedPeer(p) => {
                if p == req {
                    return Err(format!("core {req} chosen as its own data supplier"));
                }
                if s.caches[p] == LineState::Invalid {
                    return Err(format!(
                        "core {p} chosen as data supplier but holds no copy"
                    ));
                }
                Ok(s.fresh[p])
            }
            DataSource::Memory => Ok(s.mem_fresh),
            DataSource::Ack => {
                if s.caches[req] == LineState::Invalid {
                    return Err(format!(
                        "ownership ack to core {req} which holds no data copy"
                    ));
                }
                Ok(s.fresh[req])
            }
        }
    }

    /// Service start of core `i`'s queued request: departure transitions
    /// and data-source selection, mirroring `Engine::pump` +
    /// `depart_line` + `service_latency`.
    fn start_service(&mut self, s: &AbsState, i: usize, excl: bool) -> Step {
        let mut t = s.clone();
        let owner = s.owner.map(|o| o as usize);
        let forward = s.forward.map(|f| f as usize);
        if excl {
            self.rows.insert(Row::WriteSource {
                owner: classify(owner, i),
                forward: classify(forward, i),
            });
            let src = self.proto.write_source(owner, forward, i);
            let data_fresh = self.source_freshness(s, src, i)?;
            // Departure: every other holder is invalidated; all records
            // clear. The requester's own (stale-ing) copy survives until
            // the install at completion.
            if let Some(o) = owner {
                if o != i {
                    t.set_cache(o, LineState::Invalid);
                }
            }
            for c in 0..self.n {
                if c != i && s.sharers & Self::bit(c) != 0 {
                    t.set_cache(c, LineState::Invalid);
                }
            }
            t.owner = None;
            t.sharers = 0;
            t.forward = None;
            t.req[i] = ReqSt::InService { excl, data_fresh };
        } else {
            self.rows.insert(Row::ReadSource {
                owner: classify(owner, i),
                forward: classify(forward, i),
            });
            let src = self.proto.read_source(owner, forward, i);
            if src == DataSource::Ack {
                return Err(format!("read by core {i} answered with a dataless ack"));
            }
            let data_fresh = self.source_freshness(s, src, i)?;
            // Departure: the owner demotes per protocol; a dirty copy
            // demoting to a clean state is a writeback.
            if let Some(o) = owner {
                let owner_state = s.caches[o];
                self.rows.insert(Row::Demote(owner_state));
                let d = self.proto.demote_owner_on_read(owner_state);
                if o != i {
                    t.set_cache(o, d.to);
                }
                if owner_state.dirty() && !d.to.dirty() {
                    t.mem_fresh = s.fresh[o];
                }
                if !d.retains_ownership {
                    t.owner = None;
                    t.sharers |= Self::bit(o);
                }
            }
            t.req[i] = ReqSt::InService { excl, data_fresh };
        }
        Ok(t)
    }

    /// Service completion: arrival transitions, mirroring
    /// `Engine::service_done`.
    fn complete_service(&mut self, s: &AbsState, i: usize, excl: bool, data_fresh: bool) -> Step {
        let mut t = s.clone();
        if excl {
            if !data_fresh {
                return Err(format!("write by core {i} applied on top of stale data"));
            }
            t.owner = Some(i as u8);
            t.sharers = 0;
            t.forward = None;
            t.set_cache(i, LineState::Modified);
            t.fresh[i] = true;
            // The write creates a new version; every surviving copy
            // elsewhere (there must be none — SWMR will catch it) and
            // memory are now behind.
            for c in 0..self.n {
                if c != i && t.caches[c] != LineState::Invalid {
                    t.fresh[c] = false;
                }
            }
            t.mem_fresh = false;
        } else {
            if !data_fresh {
                return Err(format!("read by core {i} returned stale data"));
            }
            self.rows.insert(Row::ReadInstall);
            let (st, take_forward) = self.proto.read_install();
            if take_forward {
                let old = t.forward.replace(i as u8);
                if let Some(g) = old {
                    if g as usize != i {
                        t.set_cache(g as usize, LineState::Shared);
                    }
                }
            }
            t.sharers |= Self::bit(i);
            t.set_cache(i, st);
            t.fresh[i] = true;
        }
        t.req[i] = ReqSt::Idle;
        Ok(t)
    }

    /// Silent eviction of core `i`'s copy: dirty states write back,
    /// directory records drop — mirroring `Engine::install`'s eviction
    /// arm plus `Directory::evict_owner`/`evict_sharer`.
    fn evict(&self, s: &AbsState, i: usize) -> AbsState {
        let mut t = s.clone();
        match s.caches[i] {
            LineState::Modified | LineState::Owned => {
                t.mem_fresh = s.fresh[i];
                if t.owner == Some(i as u8) {
                    t.owner = None;
                }
            }
            LineState::Exclusive => {
                if t.owner == Some(i as u8) {
                    t.owner = None;
                }
            }
            LineState::Shared | LineState::Forward => {
                t.sharers &= !Self::bit(i);
                if t.forward == Some(i as u8) {
                    t.forward = None;
                }
            }
            LineState::Invalid => {}
        }
        t.set_cache(i, LineState::Invalid);
        t
    }

    /// All transitions out of `s`: `Ok(label, successor)` per enabled
    /// move, or the first violation hit while generating one.
    pub(crate) fn successors(&mut self, s: &AbsState) -> Result<Vec<(String, AbsState)>, String> {
        let mut out = Vec::new();
        let excl_busy = s.excl_in_flight().is_some();
        let shared_busy = s.shared_in_flight() > 0;
        for i in 0..self.n {
            match s.req[i] {
                ReqSt::Idle => {
                    // Issue a read (only a miss generates a transaction).
                    if !s.caches[i].readable() {
                        let mut t = s.clone();
                        t.req[i] = ReqSt::Queued {
                            excl: false,
                            nacks: 0,
                        };
                        out.push((format!("core {i} issues GetS"), t));
                    }
                    // Issue a write: hit-upgrade or a GetM.
                    if s.caches[i].writable() {
                        let mut t = s.clone();
                        t.set_cache(i, LineState::Modified);
                        t.fresh[i] = true;
                        t.mem_fresh = false;
                        if t != *s {
                            out.push((format!("core {i} write-hits (E->M)"), t));
                        }
                    } else {
                        let mut t = s.clone();
                        t.req[i] = ReqSt::Queued {
                            excl: true,
                            nacks: 0,
                        };
                        out.push((format!("core {i} issues GetM"), t));
                    }
                    // Silent capacity eviction.
                    if s.caches[i] != LineState::Invalid {
                        out.push((format!("core {i} evicts"), self.evict(s, i)));
                    }
                }
                ReqSt::Queued { excl, nacks } => {
                    // Service discipline (Engine::pump): one exclusive
                    // at a time, never overlapping reads; writer
                    // priority blocks new reads once a GetM waits.
                    let can_start = if excl {
                        !excl_busy && !shared_busy
                    } else {
                        !excl_busy && (!shared_busy || !s.queued_excl())
                    };
                    if can_start {
                        let t = self.start_service(s, i, excl)?;
                        let verb = if excl { "GetM" } else { "GetS" };
                        out.push((format!("directory starts core {i}'s {verb}"), t));
                    }
                    // Fabric NACK (Engine::fabric_admit refusing): the
                    // request bounces off the bank and re-queues after
                    // backoff, touching neither line nor directory
                    // state. Branches at every queued request so the
                    // invariants hold under arbitrary interleavings;
                    // bounded so the state space stays finite. The
                    // label is deliberately not a "starts"/"completes"
                    // progress verb: NACKs alone never satisfy the
                    // stuck-state check.
                    if nacks < MAX_NACKS {
                        self.rows.insert(Row::Nack { excl });
                        let mut t = s.clone();
                        t.req[i] = ReqSt::Queued {
                            excl,
                            nacks: nacks + 1,
                        };
                        let verb = if excl { "GetM" } else { "GetS" };
                        out.push((
                            format!("fabric NACKs core {i}'s {verb} (retry {})", nacks + 1),
                            t,
                        ));
                    }
                }
                ReqSt::InService { excl, data_fresh } => {
                    let t = self.complete_service(s, i, excl, data_fresh)?;
                    let verb = if excl { "GetM" } else { "GetS" };
                    out.push((format!("core {i}'s {verb} completes"), t));
                }
            }
        }
        Ok(out)
    }

    /// Invariant checks on a reached state.
    pub(crate) fn check_state(&self, s: &AbsState) -> Result<(), String> {
        let n = self.n;
        // --- SWMR ---
        let writable: Vec<usize> = (0..n).filter(|&i| s.caches[i].writable()).collect();
        if writable.len() > 1 {
            return Err(format!("SWMR: two writable copies at cores {writable:?}"));
        }
        if let Some(&w) = writable.first() {
            for i in 0..n {
                if i != w && s.caches[i] != LineState::Invalid {
                    return Err(format!(
                        "SWMR: core {w} holds {} while core {i} holds {}",
                        state_letter(s.caches[w]),
                        state_letter(s.caches[i])
                    ));
                }
            }
        }
        let owned = (0..n).filter(|&i| s.caches[i] == LineState::Owned).count();
        if owned > 1 {
            return Err("more than one Owned copy".into());
        }
        let fwd = (0..n)
            .filter(|&i| s.caches[i] == LineState::Forward)
            .count();
        if fwd > 1 {
            return Err("more than one Forward copy".into());
        }
        if owned > 0 && fwd > 0 {
            return Err("Owned and Forward copies coexist".into());
        }
        // --- data-value invariant ---
        for i in 0..n {
            if s.caches[i] != LineState::Invalid && !s.fresh[i] {
                return Err(format!(
                    "data-value: core {i} holds a readable stale copy in {}",
                    state_letter(s.caches[i])
                ));
            }
        }
        if !s.mem_fresh {
            let dirty_fresh = (0..n).any(|i| s.caches[i].dirty() && s.fresh[i]);
            let in_flight_fresh = (0..n).any(|i| {
                matches!(
                    s.req[i],
                    ReqSt::InService {
                        excl: true,
                        data_fresh: true
                    }
                )
            });
            if !dirty_fresh && !in_flight_fresh {
                return Err(
                    "data-value: memory is stale and no dirty copy or in-flight \
                     writer holds the latest version (data loss)"
                        .into(),
                );
            }
        }
        // --- directory self-consistency (reuses the engine's checker) ---
        let dir = self.as_line_dir(s);
        dir.check_invariants(self.proto.kind())
            .map_err(|e| format!("directory: {e}"))?;
        // --- directory/L1 agreement in quiescent states ---
        if s.quiescent() {
            for i in 0..n {
                let is_ownerish = matches!(
                    s.caches[i],
                    LineState::Modified | LineState::Owned | LineState::Exclusive
                );
                if is_ownerish && s.owner != Some(i as u8) {
                    return Err(format!(
                        "agreement: core {i} holds {} but the directory owner is {:?}",
                        state_letter(s.caches[i]),
                        s.owner
                    ));
                }
                if s.owner == Some(i as u8) && !is_ownerish {
                    return Err(format!(
                        "agreement: directory owner {i} holds {}",
                        state_letter(s.caches[i])
                    ));
                }
                let is_sharerish = matches!(s.caches[i], LineState::Shared | LineState::Forward);
                let recorded = s.sharers & Self::bit(i) != 0;
                if is_sharerish != recorded {
                    return Err(format!(
                        "agreement: core {i} holds {} but sharer record is {recorded}",
                        state_letter(s.caches[i])
                    ));
                }
                if (s.caches[i] == LineState::Forward) != (s.forward == Some(i as u8)) {
                    return Err(format!(
                        "agreement: core {i} holds {} but forward record is {:?}",
                        state_letter(s.caches[i]),
                        s.forward
                    ));
                }
            }
        }
        Ok(())
    }

    /// Directory view of the abstract state, for
    /// [`LineDir::check_invariants`].
    fn as_line_dir(&self, s: &AbsState) -> LineDir {
        let mut dir = LineDir::default();
        dir.owner = s.owner.map(|o| o as usize);
        dir.forward = s.forward.map(|f| f as usize);
        dir.excl_in_flight = s.excl_in_flight().map(|c| Request {
            thread: c,
            core: c,
            excl: true,
            issued_at: 0,
        });
        dir.shared_in_flight = s.shared_in_flight();
        for i in 0..self.n {
            if s.sharers & Self::bit(i) != 0 {
                dir.sharers.insert(i);
            }
        }
        dir
    }

    /// Consistent quiescent initial states. All-Invalid is always
    /// seeded; single-owner M and E states exercise the demotion rows
    /// the engine reaches via warm caches (the engine itself never
    /// installs E, so E-keyed rows are only reachable from a seed); the
    /// shared/Owned seeds are per-family.
    fn seeds(&self) -> Vec<AbsState> {
        let n = self.n;
        let blank = AbsState {
            n: n as u8,
            caches: [LineState::Invalid; MAX_CORES],
            fresh: [true; MAX_CORES],
            owner: None,
            sharers: 0,
            forward: None,
            req: [ReqSt::Idle; MAX_CORES],
            mem_fresh: true,
        };
        let mut seeds = vec![blank.clone()];
        // Dirty owner.
        let mut m = blank.clone();
        m.caches[0] = LineState::Modified;
        m.owner = Some(0);
        m.mem_fresh = false;
        seeds.push(m);
        // Clean exclusive owner.
        let mut e = blank.clone();
        e.caches[0] = LineState::Exclusive;
        e.owner = Some(0);
        seeds.push(e);
        match self.proto.kind() {
            CoherenceKind::Mesif => {
                let mut sf = blank.clone();
                sf.caches[0] = LineState::Shared;
                sf.caches[1] = LineState::Forward;
                sf.sharers = 0b11;
                sf.forward = Some(1);
                seeds.push(sf);
            }
            CoherenceKind::Mesi => {
                let mut ss = blank.clone();
                ss.caches[0] = LineState::Shared;
                ss.caches[1] = LineState::Shared;
                ss.sharers = 0b11;
                seeds.push(ss);
            }
            CoherenceKind::Moesi => {
                let mut os = blank.clone();
                os.caches[0] = LineState::Owned;
                os.caches[1] = LineState::Shared;
                os.owner = Some(0);
                os.sharers = 0b10;
                os.mem_fresh = false;
                seeds.push(os);
                let mut ss = blank.clone();
                ss.caches[0] = LineState::Shared;
                ss.caches[1] = LineState::Shared;
                ss.sharers = 0b11;
                seeds.push(ss);
            }
        }
        seeds
    }
}

/// Exhaustively check `proto` with `cores` cores (2–4) sharing one
/// line. Returns the reachability report, or the first violation with a
/// shortest counterexample trace.
pub fn check(proto: &dyn CoherenceProtocol, cores: usize) -> Result<Report, Box<Violation>> {
    assert!(
        (2..=MAX_CORES).contains(&cores),
        "core count must be in 2..={MAX_CORES}"
    );
    let mut ck = Checker {
        proto,
        n: cores,
        rows: HashSet::new(),
    };
    // BFS bookkeeping: `states[i]` is the state with id `i`;
    // `parent[i]` is `(predecessor id, transition label)` — a seed
    // points at itself with its seed label.
    let mut ids: HashMap<AbsState, u32> = HashMap::new();
    let mut states: Vec<AbsState> = Vec::new();
    let mut parent: Vec<(u32, String)> = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut transitions = 0usize;
    for seed in ck.seeds() {
        debug_assert!(
            ck.check_state(&seed).is_ok(),
            "seed must satisfy invariants"
        );
        let id = states.len() as u32;
        ids.insert(seed.clone(), id);
        states.push(seed);
        parent.push((id, "initial".into()));
        queue.push_back(id);
    }
    let trace_to = |parent: &[(u32, String)], states: &[AbsState], mut id: u32| -> Vec<String> {
        let mut rev = vec![format!("state: {}", states[id as usize])];
        loop {
            let (p, ref label) = parent[id as usize];
            if p == id {
                rev.push(format!("({label})"));
                break;
            }
            rev.push(format!("-- {label} -->"));
            rev.push(format!("state: {}", states[p as usize]));
            id = p;
        }
        rev.reverse();
        rev
    };
    while let Some(id) = queue.pop_front() {
        let s = states[id as usize].clone();
        if let Err(message) = ck.check_state(&s) {
            return Err(Box::new(Violation {
                message,
                trace: trace_to(&parent, &states, id),
            }));
        }
        let succ = match ck.successors(&s) {
            Ok(v) => v,
            Err(message) => {
                return Err(Box::new(Violation {
                    message,
                    trace: trace_to(&parent, &states, id),
                }));
            }
        };
        // Stuck-state check: pending work must enable service progress.
        let pending = (0..cores).any(|i| s.req[i] != ReqSt::Idle);
        if pending {
            let progress = succ
                .iter()
                .any(|(l, _)| l.contains("starts") || l.contains("completes"));
            if !progress {
                return Err(Box::new(Violation {
                    message: "stuck state: requests pending but no service \
                              transition is enabled"
                        .into(),
                    trace: trace_to(&parent, &states, id),
                }));
            }
        }
        for (label, t) in succ {
            transitions += 1;
            if !ids.contains_key(&t) {
                let tid = states.len() as u32;
                ids.insert(t.clone(), tid);
                states.push(t);
                parent.push((id, label));
                queue.push_back(tid);
            }
        }
    }
    let mut rows_hit: Vec<Row> = ck.rows.iter().copied().collect();
    rows_hit.sort_by_key(|r| r.sort_key());
    let mut dead_rows: Vec<Row> = row_universe()
        .into_iter()
        .filter(|r| !ck.rows.contains(r))
        .collect();
    dead_rows.sort_by_key(|r| r.sort_key());
    Ok(Report {
        kind: proto.kind(),
        cores,
        states: states.len(),
        transitions,
        rows_hit,
        dead_rows,
    })
}

/// Run [`check`] for every core count in 2..=4, returning the reports
/// (or the first violation).
pub fn check_all_cores(proto: &dyn CoherenceProtocol) -> Result<Vec<Report>, Box<Violation>> {
    (2..=MAX_CORES).map(|n| check(proto, n)).collect()
}

/// Re-execute a counterexample trace against `proto` and verify every
/// step: the opening state must render exactly as one of the checker's
/// seed states, and each `-- label -->` line must name a transition the
/// checker generates from the preceding state whose successor renders
/// exactly as the following `state:` line. Returns the number of
/// transitions replayed.
///
/// This is the defense against the trace printer and the transition
/// generator drifting apart: a trace that merely *looks* plausible but
/// is not a genuine path through the transition relation is rejected
/// with a description of the first divergence.
pub fn replay(
    proto: &dyn CoherenceProtocol,
    cores: usize,
    trace: &[String],
) -> Result<usize, String> {
    assert!(
        (2..=MAX_CORES).contains(&cores),
        "core count must be in 2..={MAX_CORES}"
    );
    let mut ck = Checker {
        proto,
        n: cores,
        rows: HashSet::new(),
    };
    if trace.len() < 2 || !trace[0].starts_with('(') {
        return Err("trace must open with a (seed) line followed by a state".into());
    }
    let first = trace[1]
        .strip_prefix("state: ")
        .ok_or_else(|| format!("expected a state line, got {:?}", trace[1]))?;
    let mut cur = ck
        .seeds()
        .into_iter()
        .find(|s| s.to_string() == first)
        .ok_or_else(|| format!("first state is not a checker seed: {first}"))?;
    let mut steps = 0usize;
    let mut i = 2;
    while i < trace.len() {
        let label = trace[i]
            .strip_prefix("-- ")
            .and_then(|l| l.strip_suffix(" -->"))
            .ok_or_else(|| format!("expected a transition line, got {:?}", trace[i]))?;
        let target = trace
            .get(i + 1)
            .and_then(|l| l.strip_prefix("state: "))
            .ok_or_else(|| format!("transition {label:?} is missing its successor state"))?;
        let succ = ck
            .successors(&cur)
            .map_err(|e| format!("replaying {label:?}: transition generation failed: {e}"))?;
        match succ
            .into_iter()
            .find(|(l, t)| l == label && t.to_string() == target)
        {
            Some((_, t)) => cur = t,
            None => {
                return Err(format!(
                    "no transition {label:?} leads from `{cur}` to `{target}`"
                ))
            }
        }
        steps += 1;
        i += 2;
    }
    Ok(steps)
}
