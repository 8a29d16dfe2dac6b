//! The engine's one instrumentation seam: a [`Probe`] receives one
//! [`ProbeEvent`] per coherence transition.
//!
//! [`Engine`](crate::Engine) defaults to [`NoProbe`], whose hooks
//! compile away. The debug ring buffer [`Trace`](crate::Trace) and the
//! conformance recorder [`ConformRecorder`](crate::ConformRecorder) are
//! the two shipped probes. A probe only reads engine state, and the
//! engine takes line snapshots only for a probe that asks for them, so
//! a run simulates the same under every probe.

use crate::cache::{LineId, LineState};
use crate::conform::DirSnapshot;
use bounce_topo::Domain;

/// An observer of the engine's coherence transitions.
pub trait Probe {
    /// Whether the probe observes anything; `false` removes every hook
    /// at compile time.
    const ENABLED: bool = true;

    /// The cores whose L1 state each line snapshot covers, in order, or
    /// `None` for a probe that takes no snapshots.
    fn snapshot_cores(&self) -> Option<&[u32]> {
        None
    }

    /// One coherence transition, in engine event order.
    fn observe(&mut self, ev: ProbeEvent);
}

/// The probe-free default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    fn observe(&mut self, _ev: ProbeEvent) {}
}

/// One coherence transition of one line.
#[derive(Debug, Clone)]
pub struct ProbeEvent {
    /// Engine cycle of the transition.
    pub at: u64,
    /// The line it concerns.
    pub line: LineId,
    /// The requesting core, or the evicting core for
    /// [`Transition::Evict`].
    pub core: usize,
    /// Thread index of the transaction (`None` for evictions).
    pub thread: Option<usize>,
    /// That thread's program counter.
    pub pc: Option<usize>,
    /// What happened.
    pub kind: Transition,
    /// Line state before and after, when the probe asked for snapshots
    /// and the transition can change line state (not plain hits and
    /// misses).
    pub snapshots: Option<(DirSnapshot, DirSnapshot)>,
}

/// The kind of a [`ProbeEvent`]. Each `excl` is `true` for a GetM,
/// `false` for a GetS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// An op hit in its L1.
    Hit {
        /// The hit was a silent Exclusive→Modified write upgrade.
        upgrade: bool,
    },
    /// An op missed; its request leaves for the home directory.
    Miss {
        /// GetM or GetS.
        excl: bool,
    },
    /// A request's first arrival at the home directory, where it joins
    /// the queue (abstractly, even when NACKed at once). Re-arrivals
    /// after a NACK emit nothing.
    Queue {
        /// GetM or GetS.
        excl: bool,
    },
    /// The home bank refused the request (fabric fault injection).
    Nack {
        /// GetM or GetS.
        excl: bool,
        /// Consecutive refusal of this transaction (1 = first NACK).
        attempt: u32,
    },
    /// The directory picked the request and ran the departure
    /// transition (invalidations for GetM, owner demotion for GetS).
    ServiceStart {
        /// GetM or GetS.
        excl: bool,
        /// Queue length at pick time, including the winner.
        queue_len: usize,
        /// The exclusive-ownership transfer the departure made, if any:
        /// the core losing the line and the domain the transfer crossed.
        bounce: Option<(usize, Domain)>,
    },
    /// The data arrived and the line was installed at the requester.
    ServiceDone {
        /// GetM or GetS.
        excl: bool,
    },
    /// A capacity eviction of the line from `core`'s cache.
    Evict {
        /// The state the victim held.
        state: LineState,
    },
}
