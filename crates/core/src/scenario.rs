//! The scenario IR: a first-class description of *what is being
//! predicted*, and the [`Predictor`] trait that turns one into a
//! [`Prediction`].
//!
//! Every `predict_*` signature the model used to expose encoded its
//! scenario positionally — a thread slice here, a work window there, a
//! bare `f64` critical section somewhere else. [`Scenario`] names those
//! degrees of freedom (contention regime, primitive, thread placement,
//! work window, line count, read mix, lock shape) so that
//!
//! * a workload spec can *derive* its scenario (one source of truth for
//!   the simulator program and the model input),
//! * the harness can route every experiment through one entry point
//!   ([`Predictor::predict`]) instead of hand-rolling per-figure
//!   model-call blocks, and
//! * validation can carry `(Scenario, Prediction, measured)` triples
//!   around as data.
//!
//! The canonical implementation is
//! [`BouncingModel`](crate::predict::BouncingModel); the trait exists so
//! harness code is written against the interface (and so alternative
//! models — e.g. ablated ones — can slot in).

use bounce_atomics::{LockShape, Primitive};
use bounce_topo::HwThreadId;

/// A complete description of one predictable execution scenario.
///
/// Thread placements are owned `Vec`s so scenarios can be stored,
/// serialized and replayed; the constructors take slices for call-site
/// convenience.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// All threads apply `prim` back-to-back to one shared line.
    HighContention {
        /// Hardware threads, in placement order.
        threads: Vec<HwThreadId>,
        /// Primitive under test.
        prim: Primitive,
    },
    /// Each thread applies `prim` to a private line with `work` cycles
    /// of local work per operation. Placement-insensitive, so only the
    /// thread count matters.
    LowContention {
        /// Number of threads.
        n: usize,
        /// Primitive under test.
        prim: Primitive,
        /// Local work per operation, in cycles.
        work: f64,
    },
    /// All threads share one line but insert `work` cycles of local
    /// work between operations (the dilution sweep).
    Diluted {
        /// Hardware threads, in placement order.
        threads: Vec<HwThreadId>,
        /// Primitive under test.
        prim: Primitive,
        /// Local work per operation, in cycles.
        work: f64,
    },
    /// Read–CAS retry loops over one shared line with a `window` of
    /// cycles between the read and the CAS.
    CasLoop {
        /// Hardware threads, in placement order.
        threads: Vec<HwThreadId>,
        /// Read-to-CAS window, in cycles.
        window: f64,
    },
    /// Operations striped round-robin over `lines` independent lines.
    MultiLine {
        /// Hardware threads, in placement order.
        threads: Vec<HwThreadId>,
        /// Primitive under test.
        prim: Primitive,
        /// Number of striped cache lines (≥ 1).
        lines: usize,
    },
    /// One FAA writer plus a set of polling readers on the same line.
    MixedRw {
        /// The writer's hardware thread.
        writer: HwThreadId,
        /// The readers' hardware threads.
        readers: Vec<HwThreadId>,
        /// Cycles of local work between reader polls.
        reader_gap: f64,
    },
    /// Lock-protected critical sections of `cs` cycles; the prediction
    /// covers the whole [`LockShape`] ladder at once.
    LockHandoff {
        /// Hardware threads, in placement order.
        threads: Vec<HwThreadId>,
        /// Critical-section length, in cycles.
        cs: f64,
    },
}

impl Scenario {
    /// High-contention scenario over `threads`.
    pub fn high_contention(threads: &[HwThreadId], prim: Primitive) -> Self {
        Scenario::HighContention {
            threads: threads.to_vec(),
            prim,
        }
    }

    /// Low-contention scenario for `n` threads.
    pub fn low_contention(n: usize, prim: Primitive, work: f64) -> Self {
        Scenario::LowContention { n, prim, work }
    }

    /// Diluted (shared line + local work) scenario over `threads`.
    pub fn diluted(threads: &[HwThreadId], prim: Primitive, work: f64) -> Self {
        Scenario::Diluted {
            threads: threads.to_vec(),
            prim,
            work,
        }
    }

    /// CAS retry-loop scenario over `threads`.
    pub fn cas_loop(threads: &[HwThreadId], window: f64) -> Self {
        Scenario::CasLoop {
            threads: threads.to_vec(),
            window,
        }
    }

    /// Multi-line striping scenario over `threads`.
    pub fn multi_line(threads: &[HwThreadId], prim: Primitive, lines: usize) -> Self {
        Scenario::MultiLine {
            threads: threads.to_vec(),
            prim,
            lines,
        }
    }

    /// Mixed reader/writer scenario.
    pub fn mixed_rw(writer: HwThreadId, readers: &[HwThreadId], reader_gap: f64) -> Self {
        Scenario::MixedRw {
            writer,
            readers: readers.to_vec(),
            reader_gap,
        }
    }

    /// Lock-handoff scenario over `threads`.
    pub fn lock_handoff(threads: &[HwThreadId], cs: f64) -> Self {
        Scenario::LockHandoff {
            threads: threads.to_vec(),
            cs,
        }
    }

    /// Total number of participating hardware threads.
    pub fn n(&self) -> usize {
        match self {
            Scenario::HighContention { threads, .. }
            | Scenario::Diluted { threads, .. }
            | Scenario::CasLoop { threads, .. }
            | Scenario::MultiLine { threads, .. }
            | Scenario::LockHandoff { threads, .. } => threads.len(),
            Scenario::LowContention { n, .. } => *n,
            Scenario::MixedRw { readers, .. } => readers.len() + 1,
        }
    }

    /// The primitive under test, where the scenario has a single one.
    pub fn prim(&self) -> Option<Primitive> {
        match self {
            Scenario::HighContention { prim, .. }
            | Scenario::LowContention { prim, .. }
            | Scenario::Diluted { prim, .. }
            | Scenario::MultiLine { prim, .. } => Some(*prim),
            Scenario::CasLoop { .. } | Scenario::MixedRw { .. } | Scenario::LockHandoff { .. } => {
                None
            }
        }
    }

    /// Short human-readable label, e.g. `hc-faa-n8`.
    pub fn label(&self) -> String {
        match self {
            Scenario::HighContention { threads, prim } => {
                format!("hc-{}-n{}", prim.label(), threads.len())
            }
            Scenario::LowContention { n, prim, work } => {
                format!("lc-{}-n{n}-w{work}", prim.label())
            }
            Scenario::Diluted {
                threads,
                prim,
                work,
            } => {
                format!("dil-{}-n{}-w{work}", prim.label(), threads.len())
            }
            Scenario::CasLoop { threads, window } => {
                format!("casloop-n{}-win{window}", threads.len())
            }
            Scenario::MultiLine {
                threads,
                prim,
                lines,
            } => format!("ml-{}-n{}-l{lines}", prim.label(), threads.len()),
            Scenario::MixedRw { readers, .. } => format!("rw-r{}", readers.len()),
            Scenario::LockHandoff { threads, cs } => {
                format!("lock-n{}-cs{cs}", threads.len())
            }
        }
    }
}

/// Per-[`LockShape`] handoff rates (critical sections per second), the
/// model's answer to a [`Scenario::LockHandoff`]. Replaces the old
/// positional 4-tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockHandoffs {
    rates: [f64; 4],
}

impl LockHandoffs {
    /// Build from rates given in [`LockShape::ALL`] order
    /// (TAS, TTAS, ticket, MCS).
    pub fn new(rates: [f64; 4]) -> Self {
        LockHandoffs { rates }
    }

    /// The same rate for every shape (the uncontended case).
    pub fn uniform(rate: f64) -> Self {
        LockHandoffs { rates: [rate; 4] }
    }

    /// Handoff rate for one shape.
    pub fn get(&self, shape: LockShape) -> f64 {
        self.rates[shape.index()]
    }

    /// Iterate `(shape, rate)` pairs in ladder order.
    pub fn iter(&self) -> impl Iterator<Item = (LockShape, f64)> + '_ {
        LockShape::ALL.iter().map(move |s| (*s, self.get(*s)))
    }
}

/// Scenario-specific extras a [`Prediction`] may carry beyond the
/// common throughput/latency/energy fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictionDetail {
    /// Nothing beyond the common fields.
    None,
    /// CAS retry-loop extras. The prediction's top-level throughput is
    /// the *goodput* (successful CASes per second).
    CasLoop {
        /// Probability that an attempt succeeds, in `[0, 1]`.
        success_rate: f64,
        /// Attempts (successful or not) per second, all threads.
        attempt_rate_per_sec: f64,
    },
    /// Mixed reader/writer split. The prediction's top-level throughput
    /// is the combined rate.
    MixedRw {
        /// Writer FAAs per second.
        writer_ops_per_sec: f64,
        /// Aggregate reader polls per second.
        reader_ops_per_sec: f64,
    },
    /// Per-shape lock handoff rates. The common throughput/latency
    /// fields are zero: a lock scenario has no single rate — read the
    /// ladder from here.
    Locks(LockHandoffs),
}

/// A unified model prediction for one [`Scenario`].
///
/// Fields that a given scenario does not model are zero and documented
/// as such (e.g. latency for a CAS retry loop). The field names match
/// the old per-regime structs so downstream field accesses read the
/// same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Number of participating threads.
    pub n: usize,
    /// Domain mixture of line transfers (see
    /// [`domain_mixture`](crate::mixture::domain_mixture)); all zeros
    /// when the scenario has no inter-thread transfers.
    pub mixture: [f64; 5],
    /// Expected cycles per line transfer, `E[t]`; zero when unmodeled.
    pub expected_transfer_cycles: f64,
    /// Predicted aggregate throughput, operations per second. For CAS
    /// loops this is the goodput; for mixed read/write the combined
    /// reader+writer rate; zero for lock scenarios (see
    /// [`PredictionDetail::Locks`]).
    pub throughput_ops_per_sec: f64,
    /// Predicted per-operation latency in cycles; zero when unmodeled.
    pub latency_cycles: f64,
    /// Predicted energy per operation in nanojoules; zero when
    /// unmodeled.
    pub energy_per_op_nj: f64,
    /// Scenario-specific extras.
    pub detail: PredictionDetail,
}

impl Prediction {
    /// CAS retry-loop success probability, if this prediction has one.
    pub fn success_rate(&self) -> Option<f64> {
        match self.detail {
            PredictionDetail::CasLoop { success_rate, .. } => Some(success_rate),
            _ => None,
        }
    }

    /// CAS retry-loop attempt rate, if this prediction has one.
    pub fn attempt_rate_per_sec(&self) -> Option<f64> {
        match self.detail {
            PredictionDetail::CasLoop {
                attempt_rate_per_sec,
                ..
            } => Some(attempt_rate_per_sec),
            _ => None,
        }
    }

    /// Writer rate of a mixed read/write prediction.
    pub fn writer_ops_per_sec(&self) -> Option<f64> {
        match self.detail {
            PredictionDetail::MixedRw {
                writer_ops_per_sec, ..
            } => Some(writer_ops_per_sec),
            _ => None,
        }
    }

    /// Aggregate reader rate of a mixed read/write prediction.
    pub fn reader_ops_per_sec(&self) -> Option<f64> {
        match self.detail {
            PredictionDetail::MixedRw {
                reader_ops_per_sec, ..
            } => Some(reader_ops_per_sec),
            _ => None,
        }
    }

    /// Per-shape lock handoff rates, if this is a lock prediction.
    pub fn lock_handoffs(&self) -> Option<&LockHandoffs> {
        match &self.detail {
            PredictionDetail::Locks(h) => Some(h),
            _ => None,
        }
    }
}

/// A performance model: one entry point from [`Scenario`] to
/// [`Prediction`].
pub trait Predictor {
    /// Predict the steady-state performance of `scenario`.
    fn predict(&self, scenario: &Scenario) -> Prediction;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_n_counts_writer() {
        let s = Scenario::mixed_rw(HwThreadId(0), &[HwThreadId(1), HwThreadId(2)], 8.0);
        assert_eq!(s.n(), 3);
        assert_eq!(
            Scenario::low_contention(5, Primitive::Faa, 0.0).n(),
            5,
            "LC carries its own n"
        );
    }

    #[test]
    fn scenario_labels_are_distinct() {
        let hw: Vec<HwThreadId> = (0..4).map(HwThreadId).collect();
        let scenarios = [
            Scenario::high_contention(&hw, Primitive::Faa),
            Scenario::low_contention(4, Primitive::Faa, 0.0),
            Scenario::diluted(&hw, Primitive::Faa, 50.0),
            Scenario::cas_loop(&hw, 30.0),
            Scenario::multi_line(&hw, Primitive::Faa, 2),
            Scenario::mixed_rw(hw[0], &hw[1..], 8.0),
            Scenario::lock_handoff(&hw, 100.0),
        ];
        let labels: std::collections::BTreeSet<String> =
            scenarios.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), scenarios.len(), "labels: {labels:?}");
    }

    #[test]
    fn lock_handoffs_keyed_by_shape() {
        let h = LockHandoffs::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(h.get(LockShape::Tas), 1.0);
        assert_eq!(h.get(LockShape::Ttas), 2.0);
        assert_eq!(h.get(LockShape::Ticket), 3.0);
        assert_eq!(h.get(LockShape::Mcs), 4.0);
        let collected: Vec<(LockShape, f64)> = h.iter().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[0], (LockShape::Tas, 1.0));
        assert_eq!(LockHandoffs::uniform(7.0).get(LockShape::Mcs), 7.0);
    }

    #[test]
    fn detail_accessors_gate_on_variant() {
        let p = Prediction {
            n: 2,
            mixture: [0.0; 5],
            expected_transfer_cycles: 0.0,
            throughput_ops_per_sec: 1.0,
            latency_cycles: 0.0,
            energy_per_op_nj: 0.0,
            detail: PredictionDetail::CasLoop {
                success_rate: 0.5,
                attempt_rate_per_sec: 2.0,
            },
        };
        assert_eq!(p.success_rate(), Some(0.5));
        assert_eq!(p.attempt_rate_per_sec(), Some(2.0));
        assert_eq!(p.writer_ops_per_sec(), None);
        assert!(p.lock_handoffs().is_none());
    }
}
