//! Conformance trace recorder: the engine-side half of verification
//! pass 5 (see `crates/verify/src/conform/`).
//!
//! A [`ConformRecorder`] is an engine [`Probe`] that keeps one
//! [`ConformEvent`] for every coherence-observable transition of every
//! tracked line: a request joining a directory queue, a fabric NACK, a
//! service departing (invalidations/demotions at the peers), a service
//! completing (the install at the requester), a silent E→M write hit,
//! and a capacity eviction. Each event carries a *concrete* snapshot of
//! the line's directory record and the tracked cores' cache states
//! before and after the transition — raw core ids and line states, no
//! abstraction. The abstraction function that maps these snapshots onto
//! the verified model checker's states lives in the verify crate, next
//! to the transition relation it targets.

use crate::cache::{LineId, LineState};
use crate::probe::{Probe, ProbeEvent, Transition};

/// A concrete snapshot of one line's coherence-visible state: the
/// directory record plus the cache state of every *tracked* core, in
/// tracked order ([`ConformRecorder::tracked`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirSnapshot {
    /// Owning core (concrete core id), if any.
    pub owner: Option<u32>,
    /// Sharer core ids, ascending.
    pub sharers: Vec<u32>,
    /// Forward-state holder (MESIF), if any.
    pub forward: Option<u32>,
    /// `caches[i]` is the cache state of tracked core `i` for this line.
    pub caches: Vec<LineState>,
}

/// What kind of transition an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConformKind {
    /// A request's *first* arrival at the home directory: it joins the
    /// line's queue (or is immediately NACKed — the abstract request
    /// still becomes queued first). Re-arrivals after a NACK emit
    /// nothing: abstractly the request stayed queued all along.
    Queue {
        /// GetM (`true`) or GetS (`false`).
        excl: bool,
    },
    /// The fabric refused the request; it will retry after backoff.
    Nack {
        /// GetM (`true`) or GetS (`false`).
        excl: bool,
        /// Concrete consecutive-retry count (1-based). May exceed the
        /// model's `MAX_NACKS` bound, in which case the abstract state
        /// stutters.
        attempt: u32,
    },
    /// The directory picked the request and performed the departure
    /// transition (owner/sharer invalidations for GetM, owner demotion
    /// for GetS).
    ServiceStart {
        /// GetM (`true`) or GetS (`false`).
        excl: bool,
    },
    /// The data arrived at the requester: directory record updated and
    /// the line installed in the requester's cache.
    ServiceDone {
        /// GetM (`true`) or GetS (`false`).
        excl: bool,
    },
    /// A silent Exclusive→Modified upgrade on a write hit.
    WriteHit,
    /// A capacity eviction of this line from `core`'s cache (the event's
    /// `core` is the evicting core, not a requester).
    Evict {
        /// The line state the victim held at eviction.
        state: LineState,
    },
}

impl ConformKind {
    /// Short human-readable tag, used in violation reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ConformKind::Queue { excl: true } => "queue GetM",
            ConformKind::Queue { excl: false } => "queue GetS",
            ConformKind::Nack { excl: true, .. } => "NACK GetM",
            ConformKind::Nack { excl: false, .. } => "NACK GetS",
            ConformKind::ServiceStart { excl: true } => "start GetM",
            ConformKind::ServiceStart { excl: false } => "start GetS",
            ConformKind::ServiceDone { excl: true } => "complete GetM",
            ConformKind::ServiceDone { excl: false } => "complete GetS",
            ConformKind::WriteHit => "write-hit E->M",
            ConformKind::Evict { .. } => "evict",
        }
    }
}

/// One recorded coherence transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformEvent {
    /// Engine cycle at which the transition happened.
    pub at: u64,
    /// The line the transition concerns.
    pub line: LineId,
    /// Concrete core id: the requester, or the evicting core for
    /// [`ConformKind::Evict`].
    pub core: u32,
    /// Hardware thread that issued the transaction, when one is
    /// attributable (evictions are charged to the installing core's
    /// transaction and carry `None`).
    pub thread: Option<u32>,
    /// The issuing thread's program counter at record time.
    pub pc: Option<u32>,
    /// Transition kind.
    pub kind: ConformKind,
    /// Line state immediately before the transition.
    pub pre: DirSnapshot,
    /// Line state immediately after the transition.
    pub post: DirSnapshot,
}

/// An ordered capture of every coherence transition of a run, plus the
/// core mapping needed to abstract it.
///
/// `tracked` lists the concrete core ids that map onto the verified
/// model's cores, in model order: tracked position `i` *is* abstract
/// core `i`. The verified model covers at most
/// 4 cores (`bounce-verify`'s `MAX_CORES`), so conformance scenarios run
/// one thread on each of at most 4 distinct cores. Any line touched by
/// an untracked core makes the abstraction partial — the replayer
/// reports that as a violation rather than guessing.
#[derive(Debug, Clone, Default)]
pub struct ConformRecorder {
    /// Concrete core ids in abstract-core order.
    pub tracked: Vec<u32>,
    /// The recorded events, in engine event order (deterministic).
    pub events: Vec<ConformEvent>,
}

impl ConformRecorder {
    /// A recorder tracking the given concrete cores, in abstract order.
    pub fn new(tracked: Vec<u32>) -> ConformRecorder {
        ConformRecorder {
            tracked,
            events: Vec::new(),
        }
    }

    /// The abstract index of a concrete core, if tracked.
    pub fn abs_core(&self, core: u32) -> Option<usize> {
        self.tracked.iter().position(|&c| c == core)
    }
}

impl Probe for ConformRecorder {
    fn snapshot_cores(&self) -> Option<&[u32]> {
        Some(&self.tracked)
    }

    fn observe(&mut self, ev: ProbeEvent) {
        let kind = match ev.kind {
            Transition::Queue { excl } => ConformKind::Queue { excl },
            Transition::Nack { excl, attempt } => ConformKind::Nack { excl, attempt },
            Transition::ServiceStart { excl, .. } => ConformKind::ServiceStart { excl },
            Transition::ServiceDone { excl } => ConformKind::ServiceDone { excl },
            Transition::Hit { upgrade: true } => ConformKind::WriteHit,
            Transition::Evict { state } => ConformKind::Evict { state },
            Transition::Hit { upgrade: false } | Transition::Miss { .. } => return,
        };
        let Some((pre, post)) = ev.snapshots else {
            return;
        };
        self.events.push(ConformEvent {
            at: ev.at,
            line: ev.line,
            core: ev.core as u32,
            thread: ev.thread.map(|t| t as u32),
            pc: ev.pc.map(|pc| pc as u32),
            kind,
            pre,
            post,
        });
    }
}
