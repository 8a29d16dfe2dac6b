//! Model-evaluation accounting: every analytic prediction in the
//! harness goes through [`predict_timed`], which charges its wall-clock
//! cost to a process-wide counter. perfbench reads the [`snapshot`] to
//! report model-evaluation time separately from simulation time — the
//! model is supposed to be ~free next to the simulator, and this is the
//! number that proves it. The counters are shared by every thread of the
//! process, so a reader that needs an exact count of its own calls (such
//! as [`crate::validation::campaign_validation`]) keeps it itself.

use bounce_core::{Prediction, Predictor, Scenario};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NANOS: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Evaluate `model` on `scenario`, charging the elapsed wall-clock time
/// to the process-wide model-time counter.
///
/// This is the single prediction entry point for the experiment
/// registry and the validation campaign: routing every call through it
/// keeps the model-time split honest.
pub fn predict_timed(model: &impl Predictor, scenario: &Scenario) -> Prediction {
    let t0 = Instant::now();
    let p = model.predict(scenario);
    NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    p
}

/// Accumulated model-evaluation cost since process start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelTime {
    /// Number of predictions evaluated.
    pub calls: u64,
    /// Total wall-clock seconds spent inside `Predictor::predict`.
    pub seconds: f64,
}

/// Read the counters without disturbing them.
pub fn snapshot() -> ModelTime {
    ModelTime {
        calls: CALLS.load(Ordering::Relaxed),
        seconds: NANOS.load(Ordering::Relaxed) as f64 / 1e9,
    }
}
