//! Campaign-wide model-vs-sim validation.
//!
//! Every scenario family the analytic model covers is swept through
//! *both* the simulator and [`Predictor::predict`], and the per-point
//! errors are reduced to one MAPE per (experiment, machine, metric).
//! `repro validate` serializes the result to `results/VALIDATION.json`;
//! CI regenerates that file and fails if any experiment's MAPE worsens
//! by more than two percentage points against the committed baseline.
//!
//! [`Predictor::predict`]: bounce_core::Predictor::predict

use crate::experiments::{measure, ExpCtx, ExpError, Machine};
use crate::measurement::Measurement;
use crate::modeltime::{self, predict_timed};
use bounce_atomics::Primitive;
use bounce_core::validate::{mape, max_ape, validated_rows, ValidationMetric, ValidationRow};
use bounce_core::{Prediction, Scenario};
use bounce_topo::{Placement, PlacementOrder};
use bounce_workloads::{LockShape, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One validated experiment: a scenario family on one machine, reduced
/// to its per-point rows and summary error.
#[derive(Debug, Clone)]
pub struct ValidationEntry {
    /// Experiment id, e.g. `hc-faa` or `lock-mcs`.
    pub experiment: String,
    /// Machine label (`e5` / `knl`).
    pub machine: String,
    /// Which prediction field was validated.
    pub metric: String,
    /// Per-point (predicted, measured) rows.
    pub rows: Vec<ValidationRow>,
    /// Mean absolute percentage error over the rows.
    pub mape_pct: f64,
    /// Worst single-point absolute percentage error.
    pub max_ape_pct: f64,
}

/// The full campaign: every entry plus the sim/model time split.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Quick (CI-sized) or full sweeps.
    pub quick: bool,
    /// One entry per (experiment, machine, metric).
    pub entries: Vec<ValidationEntry>,
    /// Total simulator time, seconds (summed over points, so parallel
    /// runs report more than wall-clock).
    pub sim_seconds: f64,
    /// Total model-evaluation time, seconds.
    pub model_seconds: f64,
    /// Number of model predictions evaluated.
    pub model_calls: u64,
}

impl ValidationReport {
    /// Deterministic JSON rendering (modulo the timing fields — the CI
    /// gate compares only the per-experiment MAPEs).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"mode\": \"{}\",\n",
            if self.quick { "quick" } else { "full" }
        ));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"experiment\": \"{}\", \"machine\": \"{}\", \"metric\": \"{}\", \
                 \"points\": {}, \"mape_pct\": {:.3}, \"max_ape_pct\": {:.3}}}{}\n",
                e.experiment,
                e.machine,
                e.metric,
                e.rows.len(),
                e.mape_pct,
                e.max_ape_pct,
                if i + 1 == self.entries.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"sim_seconds\": {:.3},\n", self.sim_seconds));
        s.push_str(&format!(
            "  \"model_seconds\": {:.6},\n",
            self.model_seconds
        ));
        s.push_str(&format!("  \"model_calls\": {}\n", self.model_calls));
        s.push_str("}\n");
        s
    }
}

/// One scenario family to validate: its sweep points, the metric to
/// compare, and the run-length scaling it needs.
struct Probe {
    id: &'static str,
    metric: ValidationMetric,
    points: Vec<(Workload, usize)>,
    /// Duration multiplier over the standard run config (locks are
    /// latency-bound and get 2×, matching fig 10).
    duration_scale: u64,
}

/// The validated sweep for one machine — the modeled subset of the
/// experiment registry, at the registry's own operating points.
fn probes(ctx: ExpCtx, machine: Machine) -> Vec<Probe> {
    let topo_threads = machine.topo().num_threads();
    let ns = machine.sweep_ns(ctx.quick);
    let multi: Vec<usize> = ns.iter().copied().filter(|&n| n >= 2).collect();
    let n_fixed = if ctx.quick { 4 } else { 16 };
    let works: &[u64] = if ctx.quick {
        &[0, 100, 3200]
    } else {
        &[0, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800]
    };
    let stripes: &[usize] = if ctx.quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let readers: &[usize] = if ctx.quick {
        &[1, 3, 7]
    } else {
        &[1, 3, 7, 15, 23, 31]
    };
    let lock_ns: Vec<usize> = if ctx.quick {
        vec![2, 4]
    } else {
        match machine {
            Machine::E5 => vec![2, 4, 8, 18, 36, 72],
            Machine::Knl => vec![2, 4, 16, 64, 144, 288],
        }
    };

    let mut probes = Vec::new();
    // High contention: throughput per RMW primitive (figs 1, 7, 8)...
    for prim in Primitive::RMW {
        probes.push(Probe {
            id: match prim {
                Primitive::Swap => "hc-swap",
                Primitive::Tas => "hc-tas",
                Primitive::Faa => "hc-faa",
                _ => "hc-cas",
            },
            metric: ValidationMetric::Throughput,
            points: multi
                .iter()
                .map(|&n| (Workload::HighContention { prim }, n))
                .collect(),
            duration_scale: 1,
        });
    }
    // ...plus mean latency for FAA (fig 2) over the same runs.
    probes.push(Probe {
        id: "hc-faa",
        metric: ValidationMetric::LatencyCycles,
        points: multi
            .iter()
            .map(|&n| {
                (
                    Workload::HighContention {
                        prim: Primitive::Faa,
                    },
                    n,
                )
            })
            .collect(),
        duration_scale: 1,
    });
    // Low contention scaling (fig 6).
    probes.push(Probe {
        id: "lc-faa",
        metric: ValidationMetric::Throughput,
        points: ns
            .iter()
            .map(|&n| {
                (
                    Workload::LowContention {
                        prim: Primitive::Faa,
                        work: 0,
                    },
                    n,
                )
            })
            .collect(),
        duration_scale: 1,
    });
    // CAS retry loop goodput (fig 3).
    probes.push(Probe {
        id: "casloop-w30",
        metric: ValidationMetric::Throughput,
        points: multi
            .iter()
            .map(|&n| {
                (
                    Workload::CasRetryLoop {
                        window: 30,
                        work: 0,
                    },
                    n,
                )
            })
            .collect(),
        duration_scale: 1,
    });
    // Contention dilution (fig 9): work sweep at a fixed thread count.
    probes.push(Probe {
        id: "dil-faa",
        metric: ValidationMetric::Throughput,
        points: works
            .iter()
            .map(|&work| {
                (
                    Workload::Diluted {
                        prim: Primitive::Faa,
                        work,
                    },
                    n_fixed,
                )
            })
            .collect(),
        duration_scale: 1,
    });
    // Line striping (fig 13): stripe sweep at a fixed thread count.
    probes.push(Probe {
        id: "ml-faa",
        metric: ValidationMetric::Throughput,
        points: stripes
            .iter()
            .map(|&lines| {
                (
                    Workload::MultiLine {
                        prim: Primitive::Faa,
                        lines,
                    },
                    n_fixed,
                )
            })
            .collect(),
        duration_scale: 1,
    });
    // Reader/writer mix (fig 12).
    probes.push(Probe {
        id: "rw-1writer",
        metric: ValidationMetric::Throughput,
        points: readers
            .iter()
            .filter(|&&r| r < topo_threads)
            .map(|&r| {
                (
                    Workload::MixedReadWrite {
                        writers: 1,
                        prim: Primitive::Faa,
                    },
                    r + 1,
                )
            })
            .collect(),
        duration_scale: 1,
    });
    // The lock ladder (fig 10): handoff rate per shape.
    for shape in LockShape::ALL {
        probes.push(Probe {
            id: match shape {
                LockShape::Tas => "lock-tas",
                LockShape::Ttas => "lock-ttas",
                LockShape::Ticket => "lock-ticket",
                LockShape::Mcs => "lock-mcs",
            },
            metric: ValidationMetric::Handoffs(shape),
            points: lock_ns
                .iter()
                .map(|&n| {
                    (
                        Workload::LockHandoff {
                            shape,
                            cs: 100,
                            noncs: 100,
                        },
                        n,
                    )
                })
                .collect(),
            duration_scale: 2,
        });
    }
    probes
}

/// The measured counterpart of a prediction metric for one point.
fn measured_value(m: &Measurement, metric: &ValidationMetric, w: &Workload) -> f64 {
    match metric {
        // The model's CAS-loop throughput is goodput (successes/s); the
        // other families predict completed ops.
        ValidationMetric::Throughput => match w {
            Workload::CasRetryLoop { .. } => m.goodput_ops_per_sec,
            _ => m.throughput_ops_per_sec,
        },
        ValidationMetric::LatencyCycles => m.mean_latency_cycles,
        ValidationMetric::Handoffs(shape) => m.lock_handoffs_per_sec(*shape),
    }
}

/// Run the campaign: simulate and predict every probe point on both
/// machines, reducing each probe to a [`ValidationEntry`].
///
/// Sweep points shared between probes (e.g. the FAA HC sweep, validated
/// for both throughput and latency) are simulated once.
pub fn campaign_validation(ctx: ExpCtx) -> Result<ValidationReport, ExpError> {
    let model_before = modeltime::snapshot();
    let mut entries = Vec::new();
    let mut sim_seconds = 0.0;
    for machine in Machine::ALL {
        let topo = machine.topo();
        let model = machine.model();
        let order = PlacementOrder::new(Placement::Packed, &topo);
        let probes = probes(ctx, machine);
        // Simulate each distinct (workload, n, duration) point once.
        let mut keys: Vec<(Workload, usize, u64)> = Vec::new();
        let mut seen = BTreeSet::new();
        for p in &probes {
            for (w, n) in &p.points {
                if seen.insert((w.label(), *n, p.duration_scale)) {
                    keys.push((w.clone(), *n, p.duration_scale));
                }
            }
        }
        let results = crate::parallel::par_map(&keys, |(w, n, scale)| {
            let mut cfg = ctx.run_cfg(machine);
            cfg.duration_cycles *= *scale;
            let t0 = Instant::now();
            let r = measure(&topo, w, *n, &cfg);
            (t0.elapsed().as_secs_f64(), r)
        });
        let mut by_key: BTreeMap<(String, usize, u64), Measurement> = BTreeMap::new();
        for ((w, n, scale), (dt, r)) in keys.iter().zip(results) {
            sim_seconds += dt;
            by_key.insert((w.label(), *n, *scale), r?);
        }
        for p in probes {
            let triples: Vec<(Scenario, Prediction, f64)> = p
                .points
                .iter()
                .map(|(w, n)| {
                    let m = &by_key[&(w.label(), *n, p.duration_scale)];
                    let s = w
                        .scenario(order.threads_of(*n))
                        .expect("validated workloads map to scenarios");
                    let pred = predict_timed(&model, &s);
                    (s, pred, measured_value(m, &p.metric, w))
                })
                .collect();
            let rows = validated_rows(&triples, p.metric);
            entries.push(ValidationEntry {
                experiment: p.id.to_string(),
                machine: machine.label().to_string(),
                metric: p.metric.label(),
                mape_pct: mape(&rows),
                max_ape_pct: max_ape(&rows),
                rows,
            });
        }
    }
    let model_after = modeltime::snapshot();
    Ok(ValidationReport {
        quick: ctx.quick,
        entries,
        sim_seconds,
        model_seconds: model_after.seconds - model_before.seconds,
        model_calls: model_after.calls - model_before.calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_covers_both_machines() {
        let r = campaign_validation(ExpCtx::quick()).unwrap();
        // 14 probes per machine: 4 HC throughput + 1 HC latency + LC +
        // CAS loop + dilution + striping + mixed r/w + 4 lock shapes.
        assert_eq!(r.entries.len(), 28);
        for e in &r.entries {
            assert!(
                !e.rows.is_empty(),
                "{}/{} has no points",
                e.machine,
                e.experiment
            );
            assert!(
                e.mape_pct.is_finite() && e.mape_pct >= 0.0,
                "{}/{} MAPE {}",
                e.machine,
                e.experiment,
                e.mape_pct
            );
            assert!(e.max_ape_pct >= e.mape_pct - 1e-9);
        }
        assert_eq!(
            r.model_calls,
            r.entries.iter().map(|e| e.rows.len() as u64).sum()
        );
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"hc-faa\""));
        assert!(json.contains("\"metric\": \"handoffs-mcs\""));
        assert!(json.contains("\"mode\": \"quick\""));
    }
}
