//! Process-wide simulation counters.
//!
//! The parallel campaign executor runs many [`Engine`](crate::Engine)s
//! concurrently; each engine folds its per-run event count into this
//! global tally when `try_run()` returns. The repro driver reads it to
//! report aggregate events/sec in `--timings` output and
//! `BENCH_repro.json`.
//!
//! Relaxed ordering is sufficient: the counter is monotonic bookkeeping,
//! never used for synchronisation, and reads happen after the worker
//! threads have been joined.

use crate::report::RunLengthSummary;
use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS: AtomicU64 = AtomicU64::new(0);
static RUNS_TOTAL: AtomicU64 = AtomicU64::new(0);
static RUNS_EARLY: AtomicU64 = AtomicU64::new(0);
static CYCLES_SIMULATED: AtomicU64 = AtomicU64::new(0);
static CYCLES_BUDGETED: AtomicU64 = AtomicU64::new(0);
static NACKS: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);

/// Fold `n` processed events into the global tally.
pub fn add_events(n: u64) {
    EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// Total events processed by every engine in this process so far.
pub fn total_events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// Fold one run's fabric-fault bookkeeping (directory NACKs issued and
/// transactions re-sent after backoff) into the global tallies.
pub fn add_faults(nacks: u64, retries: u64) {
    if nacks > 0 {
        NACKS.fetch_add(nacks, Ordering::Relaxed);
    }
    if retries > 0 {
        RETRIES.fetch_add(retries, Ordering::Relaxed);
    }
}

/// Total directory NACKs injected by every engine in this process.
pub fn total_nacks() -> u64 {
    NACKS.load(Ordering::Relaxed)
}

/// Total post-NACK retries scheduled by every engine in this process.
pub fn total_retries() -> u64 {
    RETRIES.load(Ordering::Relaxed)
}

/// Fold one finished run's length accounting into the global tallies.
pub fn add_run(run: &RunLengthSummary) {
    RUNS_TOTAL.fetch_add(1, Ordering::Relaxed);
    if run.early_stop {
        RUNS_EARLY.fetch_add(1, Ordering::Relaxed);
    }
    CYCLES_SIMULATED.fetch_add(run.ended_at_cycles, Ordering::Relaxed);
    CYCLES_BUDGETED.fetch_add(run.budget_cycles, Ordering::Relaxed);
}

/// Aggregate run-length accounting since the last reset.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTally {
    /// Number of engine runs that completed.
    pub runs: u64,
    /// How many of them terminated early (adaptive convergence).
    pub early: u64,
    /// Total cycles actually simulated across all runs.
    pub cycles_simulated: u64,
    /// Total cycles the runs were budgeted for.
    pub cycles_budgeted: u64,
}

impl RunTally {
    /// Fraction of the budgeted cycles that early termination saved.
    pub fn saved_fraction(&self) -> f64 {
        if self.cycles_budgeted == 0 {
            return 0.0;
        }
        1.0 - self.cycles_simulated as f64 / self.cycles_budgeted as f64
    }
}

/// Snapshot of the run-level tallies.
pub fn run_tally() -> RunTally {
    RunTally {
        runs: RUNS_TOTAL.load(Ordering::Relaxed),
        early: RUNS_EARLY.load(Ordering::Relaxed),
        cycles_simulated: CYCLES_SIMULATED.load(Ordering::Relaxed),
        cycles_budgeted: CYCLES_BUDGETED.load(Ordering::Relaxed),
    }
}

/// Reset every tally (start of a timed section).
pub fn reset_events() {
    EVENTS.store(0, Ordering::Relaxed);
    RUNS_TOTAL.store(0, Ordering::Relaxed);
    RUNS_EARLY.store(0, Ordering::Relaxed);
    CYCLES_SIMULATED.store(0, Ordering::Relaxed);
    CYCLES_BUDGETED.store(0, Ordering::Relaxed);
    NACKS.store(0, Ordering::Relaxed);
    RETRIES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        // Other tests run engines concurrently, so only check monotonic
        // growth by our own contribution.
        let before = total_events();
        add_events(5);
        add_events(7);
        assert!(total_events() >= before + 12);
    }

    #[test]
    fn run_tally_accumulates_and_computes_savings() {
        let before = run_tally();
        add_run(&RunLengthSummary {
            budget_cycles: 1000,
            ended_at_cycles: 250,
            early_stop: true,
            ..Default::default()
        });
        add_run(&RunLengthSummary::fixed(1000));
        let after = run_tally();
        assert!(after.runs >= before.runs + 2);
        assert!(after.early > before.early);
        assert!(after.cycles_simulated >= before.cycles_simulated + 1250);
        assert!(after.cycles_budgeted >= before.cycles_budgeted + 2000);
        let t = RunTally {
            runs: 2,
            early: 1,
            cycles_simulated: 1250,
            cycles_budgeted: 2000,
        };
        assert!((t.saved_fraction() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn fault_tallies_accumulate() {
        let (n0, r0) = (total_nacks(), total_retries());
        add_faults(3, 2);
        add_faults(0, 0);
        assert!(total_nacks() >= n0 + 3);
        assert!(total_retries() >= r0 + 2);
    }
}
