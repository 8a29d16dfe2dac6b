//! End-of-run wrap-up: final invariant audit, static-energy accounting
//! and report assembly.

use super::Engine;
use crate::probe::Probe;
use crate::report::{EnergyBreakdown, LatencyStats, RunLengthSummary, SimReport, ThreadReport};

impl<P: Probe> Engine<P> {
    pub(super) fn finish(&mut self, run: RunLengthSummary) -> SimReport {
        debug_assert!(
            self.dir
                .check_all_invariants(self.cfg.params.protocol)
                .is_ok(),
            "directory invariants broken at end of run"
        );
        // The measurement window ends where the run did: at the budget
        // for fixed-length runs (even if events ran out earlier — the
        // historical convention), or at the early-stop batch boundary.
        let window = run.ended_at_cycles.saturating_sub(self.cfg.warmup_cycles);
        let window_secs = window as f64 / (self.freq_ghz * 1e9);
        // Static energy: active cores × window.
        let active_cores: std::collections::BTreeSet<usize> =
            self.threads.iter().map(|t| t.core).collect();
        self.energy.static_j =
            active_cores.len() as f64 * self.cfg.params.energy.static_w_per_core * window_secs;
        // The thread reports move out, histograms included: nothing
        // records into them after the run.
        let threads = std::mem::take(&mut self.reports);
        // First-class latency percentiles: merge the per-thread
        // histograms once here so downstream consumers (sweep JSON,
        // experiments) stop re-deriving them.
        let merged = {
            let mut all = LatencyStats::default();
            for t in &threads {
                all.merge(&t.latency);
            }
            all
        };
        SimReport {
            duration_cycles: run.budget_cycles,
            window_cycles: window,
            freq_ghz: self.freq_ghz,
            threads,
            transfers_by_domain: self.transfers_by_domain,
            invalidations: self.invalidations,
            mem_accesses: self.mem_accesses,
            dir_transactions: self.dir_transactions,
            events: self.events_processed,
            preemptions: self.faults.as_ref().map(|f| f.preemptions).unwrap_or(0),
            nacks: self.fabric.as_ref().map(|f| f.nacks).unwrap_or(0),
            retries: self.fabric.as_ref().map(|f| f.retries).unwrap_or(0),
            p50_latency_cycles: merged.quantile(0.5),
            p99_latency_cycles: merged.quantile(0.99),
            energy: self.energy.clone(),
            queue_depth: self.queue_depth.clone(),
            run_length: run,
        }
    }

    /// A zeroed [`ThreadReport`] per thread, in one exact-size table.
    pub(super) fn zeroed_reports(&self) -> Vec<ThreadReport> {
        self.threads
            .iter()
            .map(|t| ThreadReport {
                hw_thread: t.hw.0,
                ..ThreadReport::default()
            })
            .collect()
    }

    /// The report of a run that processed no events: zero cycles,
    /// events and energy, and a zeroed [`ThreadReport`] per thread.
    pub(super) fn empty_report(&self) -> SimReport {
        SimReport {
            duration_cycles: 0,
            window_cycles: 0,
            freq_ghz: self.freq_ghz,
            threads: self.zeroed_reports(),
            transfers_by_domain: [0; 5],
            invalidations: 0,
            mem_accesses: 0,
            dir_transactions: 0,
            events: 0,
            preemptions: 0,
            nacks: 0,
            retries: 0,
            p50_latency_cycles: 0.0,
            p99_latency_cycles: 0.0,
            queue_depth: LatencyStats::default(),
            energy: EnergyBreakdown::default(),
            run_length: RunLengthSummary::fixed(0),
        }
    }
}
