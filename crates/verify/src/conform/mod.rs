//! Verification pass 5 — **conformance**: trace refinement of the
//! production engine against the verified coherence model.
//!
//! Pass 1 ([`crate::model`]) exhaustively proves SWMR, the data-value
//! invariant and directory agreement on a small *abstract* model of
//! each protocol. The engine in `crates/sim` implements its own copy of
//! those mechanics; this module closes the gap between the two by
//! checking **refinement on recorded traces**: every coherence
//! transition the real engine takes must be a transition the verified
//! model permits from the abstraction of the engine's state.
//!
//! The pieces:
//!
//! * the engine, with a `ConformRecorder` attached as its probe, records
//!   one [`ConformEvent`] per transition with *concrete* pre/post snapshots
//!   — see `bounce_sim::conform`;
//! * [`abstract_snapshot`] is the **abstraction function**: it maps a
//!   concrete snapshot (raw core ids, directory records, tracked cache
//!   states) onto the observable part of a model state ([`Obs`]). The
//!   map is partial — a line touched by an untracked core has no
//!   abstract image, and the replayer reports that instead of guessing;
//! * [`replay_recorder`] replays each line's event stream through the
//!   model's transition relation (`Checker::successors`), maintaining
//!   a *frontier* of candidate abstract states. The frontier is needed
//!   because the model carries ghost state the engine doesn't expose
//!   (per-copy freshness, memory freshness); all candidates agree on
//!   the observable projection, and ghost ambiguity resolves as events
//!   accumulate. A concrete step matched by no model transition is a
//!   **refinement violation**, reported with the concrete context
//!   (cycle, thread, PC, snapshots) and the transitions that *would*
//!   have been legal.
//!
//! Two deliberate asymmetries between trace and model:
//!
//! * a request's re-arrival after a NACK emits nothing (abstractly it
//!   stayed queued), and a NACK beyond the model's [`MAX_NACKS`] bound
//!   is accepted as a *stutter* — the abstract state is unchanged,
//!   which is sound because model NACKs never change observable state;
//! * lines start uncached, so replay starts from the model's blank
//!   all-Invalid seed — warm-cache seeds (the `E`-owner rows) are
//!   unreachable by construction and stay the model checker's job.
//!
//! This is *per-run* refinement: it certifies the transitions a given
//! campaign actually took, not all reachable engine behaviour — which
//! is why `coverage` reports which verified-table rows the campaign
//! exercised, and CI gates on that coverage not regressing.

mod coverage;

pub use coverage::CoverageReport;

use std::collections::HashMap;
use std::fmt;

use crate::model::{classify, AbsState, Checker, ReqSt, Row, MAX_CORES, MAX_NACKS};
use bounce_sim::conform::{ConformEvent, ConformKind, ConformRecorder, DirSnapshot};
use bounce_sim::protocol::CoherenceProtocol;
use bounce_sim::{CoherenceKind, LineId, LineState};

/// The observable projection of a model state: everything the engine
/// exposes concretely. The model's ghost fields (per-copy freshness,
/// memory freshness, request status) are deliberately absent — request
/// status is tracked by the event sequence itself, freshness by the
/// frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obs {
    /// Per-abstract-core cache state, length = tracked core count.
    pub caches: Vec<LineState>,
    /// Directory owner (abstract core).
    pub owner: Option<u8>,
    /// Directory sharer bitmask over abstract cores.
    pub sharers: u8,
    /// Directory Forward record (abstract core).
    pub forward: Option<u8>,
}

impl fmt::Display for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "caches=[")?;
        for (i, c) in self.caches.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c:?}")?;
        }
        write!(f, "] owner={:?} sharers={{", self.owner)?;
        let mut first = true;
        for i in 0..MAX_CORES {
            if self.sharers & (1 << i) != 0 {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "c{i}")?;
                first = false;
            }
        }
        write!(f, "}} forward={:?}", self.forward)
    }
}

/// The abstraction function: map a concrete snapshot onto the
/// observable part of a model state, using `tracked` (concrete core ids
/// in abstract order) as the core renaming.
///
/// Returns `Err` when the snapshot has no abstract image: a directory
/// record names an untracked core, or the snapshot shape doesn't match
/// the tracking map. Totality over the traced run is part of what the
/// conformance pass checks.
pub fn abstract_snapshot(tracked: &[u32], snap: &DirSnapshot) -> Result<Obs, String> {
    if snap.caches.len() != tracked.len() {
        return Err(format!(
            "snapshot carries {} cache states for {} tracked cores",
            snap.caches.len(),
            tracked.len()
        ));
    }
    let abs = |c: u32, role: &str| -> Result<u8, String> {
        tracked
            .iter()
            .position(|&t| t == c)
            .map(|i| i as u8)
            .ok_or_else(|| format!("{role} core {c} is not a tracked core (tracked: {tracked:?})"))
    };
    let owner = snap.owner.map(|o| abs(o, "owner")).transpose()?;
    let forward = snap.forward.map(|f| abs(f, "forward")).transpose()?;
    let mut sharers = 0u8;
    for &s in &snap.sharers {
        sharers |= 1 << abs(s, "sharer")?;
    }
    Ok(Obs {
        caches: snap.caches.clone(),
        owner,
        sharers,
        forward,
    })
}

/// Observable projection of a full model state.
fn project(s: &AbsState) -> Obs {
    Obs {
        caches: s.caches[..s.n as usize].to_vec(),
        owner: s.owner,
        sharers: s.sharers,
        forward: s.forward,
    }
}

/// A concrete engine step with no abstract counterpart.
#[derive(Debug, Clone)]
pub struct RefinementViolation {
    /// The line the offending event concerns.
    pub line: LineId,
    /// Engine cycle of the event.
    pub at: u64,
    /// Index of the event in the recorder's stream.
    pub index: usize,
    /// What went wrong.
    pub message: String,
    /// Concrete event context: kind, requester, thread, PC, snapshots.
    pub context: Vec<String>,
    /// The transitions the model *would* have allowed here.
    pub nearest: Vec<String>,
}

impl fmt::Display for RefinementViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "refinement violation at cycle {} on {:?} (event #{}): {}",
            self.at, self.line, self.index, self.message
        )?;
        for line in &self.context {
            writeln!(f, "  {line}")?;
        }
        if self.nearest.is_empty() {
            writeln!(f, "  no transition is enabled in the model here")?;
        } else {
            writeln!(f, "  nearest legal transitions:")?;
            for t in &self.nearest {
                writeln!(f, "    {t}")?;
            }
        }
        Ok(())
    }
}

/// Why a replay could not run at all (as opposed to running and finding
/// a refinement violation).
#[derive(Debug, Clone)]
pub enum ConformError {
    /// The recorder setup cannot be abstracted (core count out of the
    /// model's range, duplicate tracked cores, ...).
    Config(String),
    /// A concrete step with no abstract counterpart.
    Refinement(Box<RefinementViolation>),
}

impl fmt::Display for ConformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformError::Config(m) => write!(f, "conformance setup error: {m}"),
            ConformError::Refinement(v) => write!(f, "{v}"),
        }
    }
}

/// Successful replay summary.
#[derive(Debug, Clone)]
pub struct ConformOutcome {
    /// Protocol replayed against.
    pub protocol: CoherenceKind,
    /// Events replayed.
    pub events: usize,
    /// Distinct lines traced.
    pub lines: usize,
    /// Verified-table rows the trace exercised, sorted.
    pub rows_hit: Vec<Row>,
}

/// The model's blank (all-Invalid, all-fresh, quiescent) state for `n`
/// cores — the abstract image of an untouched line, and the replay's
/// start state.
fn blank(n: usize) -> AbsState {
    AbsState {
        n: n as u8,
        caches: [LineState::Invalid; MAX_CORES],
        fresh: [true; MAX_CORES],
        owner: None,
        sharers: 0,
        forward: None,
        req: [ReqSt::Idle; MAX_CORES],
        mem_fresh: true,
    }
}

/// Does `label` (a transition label from [`Checker::successors`]) name
/// the move that event `kind` by abstract core `i` claims?
fn label_matches(kind: ConformKind, i: usize, label: &str) -> bool {
    let verb = |excl: bool| if excl { "GetM" } else { "GetS" };
    match kind {
        ConformKind::Queue { excl } => label == format!("core {i} issues {}", verb(excl)),
        ConformKind::Nack { excl, .. } => {
            // The model label carries the *abstract* retry count, which
            // saturates at MAX_NACKS while the concrete attempt keeps
            // counting — match on the prefix.
            label.starts_with(&format!("fabric NACKs core {i}'s {}", verb(excl)))
        }
        ConformKind::ServiceStart { excl } => {
            label == format!("directory starts core {i}'s {}", verb(excl))
        }
        ConformKind::ServiceDone { excl } => {
            label == format!("core {i}'s {} completes", verb(excl))
        }
        ConformKind::WriteHit => label == format!("core {i} write-hits (E->M)"),
        ConformKind::Evict { .. } => label == format!("core {i} evicts"),
    }
}

/// Render a concrete snapshot for violation context.
fn fmt_snapshot(tracked: &[u32], snap: &DirSnapshot) -> String {
    let caches: Vec<String> = tracked
        .iter()
        .zip(&snap.caches)
        .map(|(c, st)| format!("c{c}:{st:?}"))
        .collect();
    format!(
        "caches=[{}] owner={:?} sharers={:?} forward={:?}",
        caches.join(" "),
        snap.owner,
        snap.sharers,
        snap.forward
    )
}

fn violation(
    tracked: &[u32],
    ev: &ConformEvent,
    index: usize,
    message: String,
    nearest: Vec<String>,
) -> ConformError {
    let mut context = vec![
        format!(
            "concrete event: {} by core {} (thread {:?}, pc {:?})",
            ev.kind.tag(),
            ev.core,
            ev.thread,
            ev.pc
        ),
        format!("pre:  {}", fmt_snapshot(tracked, &ev.pre)),
        format!("post: {}", fmt_snapshot(tracked, &ev.post)),
    ];
    if let ConformKind::Nack { attempt, .. } = ev.kind {
        context.push(format!("concrete retry attempt: {attempt}"));
    }
    ConformError::Refinement(Box::new(RefinementViolation {
        line: ev.line,
        at: ev.at,
        index,
        message,
        context,
        nearest,
    }))
}

/// The coverage rows a matched event exercises, derived from the event
/// kind and the abstract pre-state — mirroring where
/// [`Checker`] records them while model checking.
fn event_rows(kind: ConformKind, i: usize, pre: &Obs, rows: &mut Vec<Row>) {
    let mut push = |r: Row| {
        if !rows.contains(&r) {
            rows.push(r);
        }
    };
    let owner = pre.owner.map(|o| o as usize);
    let forward = pre.forward.map(|f| f as usize);
    match kind {
        ConformKind::ServiceStart { excl: true } => push(Row::WriteSource {
            owner: classify(owner, i),
            forward: classify(forward, i),
        }),
        ConformKind::ServiceStart { excl: false } => {
            push(Row::ReadSource {
                owner: classify(owner, i),
                forward: classify(forward, i),
            });
            if let Some(o) = owner {
                push(Row::Demote(pre.caches[o]));
            }
        }
        ConformKind::ServiceDone { excl: false } => push(Row::ReadInstall),
        ConformKind::Nack { excl, .. } => push(Row::Nack { excl }),
        _ => {}
    }
}

/// Replay a recorded engine trace through the verified transition
/// relation of `proto`.
///
/// Each line's events are replayed independently from the blank seed; a
/// frontier of candidate model states absorbs the ghost fields the
/// engine doesn't expose. Returns the first concrete step the model
/// cannot explain, or a summary with the verified-table rows the trace
/// exercised.
pub fn replay_recorder(
    proto: &dyn CoherenceProtocol,
    rec: &ConformRecorder,
) -> Result<ConformOutcome, ConformError> {
    let n = rec.tracked.len();
    if !(2..=MAX_CORES).contains(&n) {
        return Err(ConformError::Config(format!(
            "tracked core count {n} outside the model's 2..={MAX_CORES}"
        )));
    }
    for (i, &c) in rec.tracked.iter().enumerate() {
        if rec.tracked[..i].contains(&c) {
            return Err(ConformError::Config(format!("core {c} tracked twice")));
        }
    }
    let mut ck = Checker {
        proto,
        n,
        rows: std::collections::HashSet::new(),
    };
    let mut frontiers: HashMap<LineId, Vec<AbsState>> = HashMap::new();
    let mut rows: Vec<Row> = Vec::new();
    for (index, ev) in rec.events.iter().enumerate() {
        let Some(i) = rec.abs_core(ev.core) else {
            return Err(violation(
                &rec.tracked,
                ev,
                index,
                format!(
                    "event core {} is not tracked — the abstraction is partial here",
                    ev.core
                ),
                Vec::new(),
            ));
        };
        let obs_pre = abstract_snapshot(&rec.tracked, &ev.pre)
            .map_err(|e| violation(&rec.tracked, ev, index, e, Vec::new()))?;
        let obs_post = abstract_snapshot(&rec.tracked, &ev.post)
            .map_err(|e| violation(&rec.tracked, ev, index, e, Vec::new()))?;
        let frontier = frontiers.entry(ev.line).or_insert_with(|| vec![blank(n)]);
        // Between recorded events nothing may touch the line (the sim
        // crate's `clippy.toml` bans the coherence-state mutators outside
        // the recording helpers), so the event's pre-snapshot must match
        // the frontier. A mismatch means a transition dodged the recorder —
        // or a forged trace.
        let before: Vec<AbsState> = std::mem::take(frontier);
        let pruned: Vec<AbsState> = before
            .iter()
            .filter(|s| project(s) == obs_pre)
            .cloned()
            .collect();
        if pruned.is_empty() {
            let nearest = before.iter().map(|s| format!("state: {s}")).collect();
            return Err(violation(
                &rec.tracked,
                ev,
                index,
                "pre-state matches no abstract state reached by the preceding events \
                 (a transition bypassed the recorder, or the trace was tampered with)"
                    .into(),
                nearest,
            ));
        }
        let mut next: Vec<AbsState> = Vec::new();
        let mut legal: Vec<String> = Vec::new();
        for s in &pruned {
            // A NACK past the model's bound stutters: observable state
            // is untouched and the saturated abstract counter stays.
            if let ConformKind::Nack { excl, .. } = ev.kind {
                if s.req[i]
                    == (ReqSt::Queued {
                        excl,
                        nacks: MAX_NACKS,
                    })
                    && obs_post == obs_pre
                    && !next.contains(s)
                {
                    next.push(s.clone());
                }
            }
            let succ = ck
                .successors(s)
                .map_err(|e| violation(&rec.tracked, ev, index, e, Vec::new()))?;
            for (label, t) in succ {
                if label_matches(ev.kind, i, &label) && project(&t) == obs_post {
                    if !next.contains(&t) {
                        next.push(t);
                    }
                } else if legal.len() < 24 {
                    legal.push(format!("{label} -> {}", project(&t)));
                }
            }
        }
        if next.is_empty() {
            return Err(violation(
                &rec.tracked,
                ev,
                index,
                format!(
                    "no model transition matches this step (expected a \"{}\" by abstract \
                     core {i} reaching {obs_post})",
                    ev.kind.tag()
                ),
                legal,
            ));
        }
        event_rows(ev.kind, i, &obs_pre, &mut rows);
        *frontier = next;
    }
    rows.sort_by_key(|r| r.sort_key());
    Ok(ConformOutcome {
        protocol: proto.kind(),
        events: rec.events.len(),
        lines: frontiers.len(),
        rows_hit: rows,
    })
}
