//! Prediction-vs-measurement comparison: per-point rows and aggregate
//! error metrics (experiment E9 / "model validation" figure).
//!
//! The campaign-wide validation path hands this module
//! `(Scenario, Prediction, measured)` triples; [`validated_rows`]
//! projects them onto a [`ValidationMetric`] to produce the flat
//! [`ValidationRow`]s the aggregate metrics consume.

use crate::scenario::{Prediction, Scenario};
use bounce_atomics::LockShape;

/// Which predicted quantity a validation compares against the
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidationMetric {
    /// The prediction's top-level throughput (ops/s; goodput for CAS
    /// loops, combined rate for mixed read/write).
    Throughput,
    /// Per-operation latency in cycles.
    LatencyCycles,
    /// Handoffs per second for one lock shape.
    Handoffs(LockShape),
}

impl ValidationMetric {
    /// Extract this metric from a prediction. Lock-handoff rates are 0
    /// when the prediction is not a lock prediction.
    pub fn of(&self, p: &Prediction) -> f64 {
        match self {
            ValidationMetric::Throughput => p.throughput_ops_per_sec,
            ValidationMetric::LatencyCycles => p.latency_cycles,
            ValidationMetric::Handoffs(shape) => p.lock_handoffs().map_or(0.0, |h| h.get(*shape)),
        }
    }

    /// Short label, e.g. `throughput` or `handoffs-mcs`.
    pub fn label(&self) -> String {
        match self {
            ValidationMetric::Throughput => "throughput".to_string(),
            ValidationMetric::LatencyCycles => "latency".to_string(),
            ValidationMetric::Handoffs(shape) => format!("handoffs-{}", shape.label()),
        }
    }
}

/// Project `(Scenario, Prediction, measured)` triples onto `metric`,
/// producing one [`ValidationRow`] per triple (keyed by the scenario's
/// thread count).
pub fn validated_rows(
    triples: &[(Scenario, Prediction, f64)],
    metric: ValidationMetric,
) -> Vec<ValidationRow> {
    triples
        .iter()
        .map(|(s, p, measured)| ValidationRow {
            n: s.n(),
            predicted: metric.of(p),
            measured: *measured,
        })
        .collect()
}

/// One prediction-vs-measurement comparison point.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Thread count (or other sweep variable).
    pub n: usize,
    /// Model prediction.
    pub predicted: f64,
    /// Measured value.
    pub measured: f64,
}

impl ValidationRow {
    /// Signed relative error `(pred − meas)/meas`; 0 when measured is 0.
    pub fn rel_error(&self) -> f64 {
        if self.measured == 0.0 {
            0.0
        } else {
            (self.predicted - self.measured) / self.measured
        }
    }

    /// Absolute percentage error, in percent.
    pub fn ape_pct(&self) -> f64 {
        self.rel_error().abs() * 100.0
    }
}

/// Mean absolute percentage error over rows (in percent). Rows with a
/// zero measurement are skipped; returns 0 when nothing is comparable.
pub fn mape(rows: &[ValidationRow]) -> f64 {
    let usable: Vec<f64> = rows
        .iter()
        .filter(|r| r.measured != 0.0)
        .map(|r| r.ape_pct())
        .collect();
    if usable.is_empty() {
        0.0
    } else {
        usable.iter().sum::<f64>() / usable.len() as f64
    }
}

/// Worst absolute percentage error over rows (percent).
pub fn max_ape(rows: &[ValidationRow]) -> f64 {
    rows.iter()
        .filter(|r| r.measured != 0.0)
        .map(|r| r.ape_pct())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_signs() {
        let over = ValidationRow {
            n: 1,
            predicted: 110.0,
            measured: 100.0,
        };
        assert!((over.rel_error() - 0.1).abs() < 1e-12);
        let under = ValidationRow {
            n: 1,
            predicted: 90.0,
            measured: 100.0,
        };
        assert!((under.rel_error() + 0.1).abs() < 1e-12);
        assert!((under.ape_pct() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_aggregates() {
        let rows = vec![
            ValidationRow {
                n: 1,
                predicted: 110.0,
                measured: 100.0,
            },
            ValidationRow {
                n: 2,
                predicted: 80.0,
                measured: 100.0,
            },
        ];
        assert!((mape(&rows) - 15.0).abs() < 1e-12);
        assert!((max_ape(&rows) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn zero_measured_skipped() {
        let rows = vec![ValidationRow {
            n: 1,
            predicted: 5.0,
            measured: 0.0,
        }];
        assert_eq!(mape(&rows), 0.0);
        assert_eq!(max_ape(&rows), 0.0);
    }

    #[test]
    fn empty_rows() {
        assert_eq!(mape(&[]), 0.0);
        assert_eq!(max_ape(&[]), 0.0);
    }

    #[test]
    fn rel_error_zero_measured_is_zero() {
        // A dead point must not poison the aggregate with inf/NaN.
        let r = ValidationRow {
            n: 4,
            predicted: 123.0,
            measured: 0.0,
        };
        assert_eq!(r.rel_error(), 0.0);
        assert_eq!(r.ape_pct(), 0.0);
    }

    #[test]
    fn all_zero_experiment_reports_zero_error() {
        // An experiment where every measurement is zero (e.g. a sim
        // failure swallowed upstream) has no comparable points at all.
        let rows: Vec<ValidationRow> = (1..=8)
            .map(|n| ValidationRow {
                n,
                predicted: n as f64 * 10.0,
                measured: 0.0,
            })
            .collect();
        assert_eq!(mape(&rows), 0.0);
        assert_eq!(max_ape(&rows), 0.0);
        assert!(rows.iter().all(|r| r.rel_error() == 0.0));
    }

    #[test]
    fn validated_rows_project_triples() {
        use crate::params::ModelParams;
        use crate::predict::BouncingModel;
        use crate::scenario::Predictor;
        use bounce_atomics::Primitive;
        use bounce_topo::{presets, Placement};

        let topo = presets::xeon_e5_2695_v4();
        let m = BouncingModel::new(topo.clone(), ModelParams::e5_default());
        let threads = Placement::Packed.assign(&topo, 8);
        let s = Scenario::high_contention(&threads, Primitive::Faa);
        let p = m.predict(&s);
        let triples = vec![(s, p, 1.0e7)];

        let tput = validated_rows(&triples, ValidationMetric::Throughput);
        assert_eq!(tput.len(), 1);
        assert_eq!(tput[0].n, 8);
        assert_eq!(tput[0].predicted, p.throughput_ops_per_sec);
        assert_eq!(tput[0].measured, 1.0e7);

        let lat = validated_rows(&triples, ValidationMetric::LatencyCycles);
        assert_eq!(lat[0].predicted, p.latency_cycles);

        // A non-lock prediction projected onto a lock metric is 0.
        let h = validated_rows(&triples, ValidationMetric::Handoffs(LockShape::Mcs));
        assert_eq!(h[0].predicted, 0.0);
    }

    #[test]
    fn metric_labels_distinct() {
        let mut labels: Vec<String> = vec![
            ValidationMetric::Throughput.label(),
            ValidationMetric::LatencyCycles.label(),
        ];
        for s in LockShape::ALL {
            labels.push(ValidationMetric::Handoffs(s).label());
        }
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
