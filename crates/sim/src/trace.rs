//! Optional event tracing: a bounded ring buffer of coherence events
//! for debugging workloads and inspecting bounce chains.
//!
//! A [`Trace`] is one of the engine's [`Probe`]s: attach it with
//! `Engine::with_probe(topo, cfg, Trace::bounded(n))` and get it back
//! with `Engine::into_probe`. After a run, the trace can be filtered by
//! line or thread and rendered as text.

use crate::cache::LineId;
use crate::probe::{Probe, ProbeEvent, Transition};
use bounce_topo::Domain;
use std::collections::VecDeque;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread issued an op that hit in its L1.
    Hit {
        /// Simulation time.
        at: u64,
        /// Thread index.
        thread: usize,
        /// Target line.
        line: LineId,
    },
    /// A thread's op missed and was sent to the home directory.
    Miss {
        /// Simulation time.
        at: u64,
        /// Thread index.
        thread: usize,
        /// Target line.
        line: LineId,
        /// Whether the request needs exclusive ownership.
        excl: bool,
    },
    /// The directory started serving a request for a line.
    ServiceStart {
        /// Simulation time.
        at: u64,
        /// Winning thread.
        thread: usize,
        /// Target line.
        line: LineId,
        /// Queue length at pick time (including the winner).
        queue_len: usize,
    },
    /// The home bank refused a request (fabric fault injection); the
    /// requester retries after backoff unless this refusal exhausts its
    /// retry budget.
    Nack {
        /// Simulation time.
        at: u64,
        /// Thread whose request was refused.
        thread: usize,
        /// Target line.
        line: LineId,
        /// Which consecutive refusal this is for the transaction (1 =
        /// first NACK).
        attempt: u32,
    },
    /// Exclusive ownership moved between cores (a bounce).
    Bounce {
        /// Simulation time.
        at: u64,
        /// Core losing the line.
        from_core: usize,
        /// Thread gaining the line.
        to_thread: usize,
        /// Target line.
        line: LineId,
        /// Communication domain the transfer crossed.
        domain: Domain,
    },
}

impl TraceEvent {
    /// Simulation time of the event.
    pub fn at(&self) -> u64 {
        match self {
            TraceEvent::Hit { at, .. }
            | TraceEvent::Miss { at, .. }
            | TraceEvent::ServiceStart { at, .. }
            | TraceEvent::Nack { at, .. }
            | TraceEvent::Bounce { at, .. } => *at,
        }
    }

    /// The line the event concerns.
    pub fn line(&self) -> LineId {
        match self {
            TraceEvent::Hit { line, .. }
            | TraceEvent::Miss { line, .. }
            | TraceEvent::ServiceStart { line, .. }
            | TraceEvent::Nack { line, .. }
            | TraceEvent::Bounce { line, .. } => *line,
        }
    }

    /// One-line text rendering.
    pub fn render(&self) -> String {
        match self {
            TraceEvent::Hit { at, thread, line } => {
                format!("{at:>10} hit     t{thread} line {:#x}", line.0)
            }
            TraceEvent::Miss {
                at,
                thread,
                line,
                excl,
            } => format!(
                "{at:>10} miss    t{thread} line {:#x} ({})",
                line.0,
                if *excl { "GetM" } else { "GetS" }
            ),
            TraceEvent::ServiceStart {
                at,
                thread,
                line,
                queue_len,
            } => format!(
                "{at:>10} serve   t{thread} line {:#x} (q={queue_len})",
                line.0
            ),
            TraceEvent::Nack {
                at,
                thread,
                line,
                attempt,
            } => format!(
                "{at:>10} nack    t{thread} line {:#x} (attempt {attempt})",
                line.0
            ),
            TraceEvent::Bounce {
                at,
                from_core,
                to_thread,
                line,
                domain,
            } => format!(
                "{at:>10} bounce  core{from_core} -> t{to_thread} line {:#x} [{}]",
                line.0,
                domain.label()
            ),
        }
    }
}

/// A bounded ring buffer of trace events.
#[derive(Debug, Default)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace retaining at most `capacity` most-recent events.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0);
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Record an event, evicting the oldest when full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events touching one line, oldest first.
    pub fn for_line(&self, line: LineId) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.line() == line).collect()
    }

    /// The bounce chain: only ownership transfers, oldest first.
    pub fn bounces(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Bounce { .. }))
            .collect()
    }

    /// Full text dump.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier events dropped ...\n",
                self.dropped
            ));
        }
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

impl Probe for Trace {
    fn observe(&mut self, ev: ProbeEvent) {
        let (at, line) = (ev.at, ev.line);
        let Some(thread) = ev.thread else { return };
        match ev.kind {
            Transition::Hit { .. } => self.record(TraceEvent::Hit { at, thread, line }),
            Transition::Miss { excl } => self.record(TraceEvent::Miss {
                at,
                thread,
                line,
                excl,
            }),
            Transition::Nack { attempt, .. } => self.record(TraceEvent::Nack {
                at,
                thread,
                line,
                attempt,
            }),
            Transition::ServiceStart {
                queue_len, bounce, ..
            } => {
                self.record(TraceEvent::ServiceStart {
                    at,
                    thread,
                    line,
                    queue_len,
                });
                if let Some((from_core, domain)) = bounce {
                    self.record(TraceEvent::Bounce {
                        at,
                        from_core,
                        to_thread: thread,
                        line,
                        domain,
                    });
                }
            }
            // Queues, completions and evictions have no trace form.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(at: u64) -> TraceEvent {
        TraceEvent::Hit {
            at,
            thread: 0,
            line: LineId(0x40),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Trace::bounded(3);
        for i in 0..5 {
            t.record(hit(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let times: Vec<u64> = t.events().map(|e| e.at()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn filters_by_line_and_kind() {
        let mut t = Trace::bounded(10);
        t.record(hit(1));
        t.record(TraceEvent::Bounce {
            at: 2,
            from_core: 0,
            to_thread: 1,
            line: LineId(0x80),
            domain: Domain::SameSocket,
        });
        t.record(TraceEvent::Miss {
            at: 3,
            thread: 2,
            line: LineId(0x80),
            excl: true,
        });
        assert_eq!(t.for_line(LineId(0x80)).len(), 2);
        assert_eq!(t.for_line(LineId(0x40)).len(), 1);
        assert_eq!(t.bounces().len(), 1);
    }

    #[test]
    fn render_mentions_domain_and_mode() {
        let mut t = Trace::bounded(4);
        t.record(TraceEvent::Miss {
            at: 7,
            thread: 1,
            line: LineId(0xc0),
            excl: false,
        });
        t.record(TraceEvent::Bounce {
            at: 9,
            from_core: 2,
            to_thread: 3,
            line: LineId(0xc0),
            domain: Domain::CrossSocket,
        });
        let s = t.render();
        assert!(s.contains("GetS"));
        assert!(s.contains("cross"));
        assert!(s.contains("0xc0"));
    }

    #[test]
    fn dropped_notice_in_render() {
        let mut t = Trace::bounded(1);
        t.record(hit(1));
        t.record(hit(2));
        assert!(t.render().contains("1 earlier events dropped"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::bounded(4);
        assert!(t.is_empty());
        assert_eq!(t.render(), "");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Trace::bounded(0);
    }
}
