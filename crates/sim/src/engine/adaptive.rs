//! The adaptive run-length controller: batch-means collection at batch
//! boundaries and the early-termination decision.
//!
//! When [`RunLength::Adaptive`](crate::config::RunLength) is active,
//! the main loop calls [`Engine::adaptive_boundaries`] whenever the
//! popped event time crosses the next batch boundary — the same
//! crossing pattern as the watchdog's staleness epochs. Each completed
//! batch contributes one sample to three series (ops retired, mean op
//! latency, Jain fairness over per-thread ops); the run stops at the
//! first boundary where the *throughput* series passes the
//! [`bounce_core::converge`] check (MSER truncation + relative CI
//! half-width). Latency and fairness series are carried for the
//! report's diagnostics.
//!
//! Everything here reads only simulated-time state, so the decision is
//! a deterministic function of the event stream: the same configuration
//! stops at the same boundary on every run, at any `--jobs N`.

use super::Engine;
use crate::probe::Probe;
use crate::report::RunLengthSummary;
use bounce_core::converge::BatchMeans;
use bounce_core::stats::jain;

/// Controller state for one adaptive run.
pub(super) struct AdaptiveCtl {
    rel_ci: f64,
    min_batches: usize,
    batch_cycles: u64,
    /// Next boundary to cross; the first (at warmup) only snapshots.
    pub(super) next_end: u64,
    /// Whether the warmup boundary has been crossed (snapshots valid).
    started: bool,
    last_retired: u64,
    last_lat: (u64, u64),
    last_thread_ops: Vec<u64>,
    throughput: BatchMeans,
    latency: BatchMeans,
    fairness: BatchMeans,
}

impl AdaptiveCtl {
    pub(super) fn new(
        rel_ci: f64,
        min_batches: u32,
        batch_cycles: u64,
        warmup_cycles: u64,
        n_threads: usize,
    ) -> Self {
        AdaptiveCtl {
            rel_ci,
            min_batches: min_batches as usize,
            batch_cycles,
            next_end: warmup_cycles,
            started: false,
            last_retired: 0,
            last_lat: (0, 0),
            last_thread_ops: vec![0; n_threads],
            throughput: BatchMeans::new(),
            latency: BatchMeans::new(),
            fairness: BatchMeans::new(),
        }
    }

    /// Final diagnostics for the report. `stopped_at` is the boundary
    /// an early stop cut the run at, if any.
    pub(super) fn summary(&self, budget: u64, stopped_at: Option<u64>) -> RunLengthSummary {
        let thr = self.throughput.decide(self.rel_ci, self.min_batches);
        let lat = self.latency.decide(self.rel_ci, self.min_batches);
        let fair = self.fairness.decide(self.rel_ci, self.min_batches);
        RunLengthSummary {
            budget_cycles: budget,
            ended_at_cycles: stopped_at.unwrap_or(budget),
            early_stop: stopped_at.is_some(),
            batches: self.throughput.len() as u32,
            truncated: thr.truncated as u32,
            rel_ci_throughput: thr.rel_half_width,
            rel_ci_latency: lat.rel_half_width,
            rel_ci_fairness: fair.rel_half_width,
        }
    }
}

impl<P: Probe> Engine<P> {
    /// Cross every batch boundary at or before `time` (the just-popped
    /// event time): close the batch ending at each boundary, feed the
    /// series, and return `Some(boundary)` if throughput converged
    /// there — the caller then ends the run at that instant, leaving
    /// the popped event (and everything after the boundary)
    /// unprocessed, so the measurement cut is exact.
    pub(super) fn adaptive_boundaries(&mut self, ctl: &mut AdaptiveCtl, time: u64) -> Option<u64> {
        while ctl.next_end <= time {
            let boundary = ctl.next_end;
            ctl.next_end = boundary + ctl.batch_cycles;
            // Windowed per-thread latency totals are cheap to sum here
            // (O(threads) per boundary) and avoid any per-op cost on
            // the hot path.
            let lat = self.reports.iter().fold((0u64, 0u64), |(s, c), r| {
                (s + r.latency.sum, c + r.latency.count)
            });
            if ctl.started {
                ctl.throughput
                    .push((self.retired_ops - ctl.last_retired) as f64);
                let (ds, dc) = (lat.0 - ctl.last_lat.0, lat.1 - ctl.last_lat.1);
                ctl.latency
                    .push(if dc > 0 { ds as f64 / dc as f64 } else { 0.0 });
                let deltas: Vec<f64> = self
                    .reports
                    .iter()
                    .zip(&ctl.last_thread_ops)
                    .map(|(r, &prev)| (r.ops - prev) as f64)
                    .collect();
                ctl.fairness.push(jain(&deltas));
            } else {
                // The warmup boundary: establish the baselines only.
                ctl.started = true;
            }
            ctl.last_retired = self.retired_ops;
            ctl.last_lat = lat;
            for (slot, r) in ctl.last_thread_ops.iter_mut().zip(&self.reports) {
                *slot = r.ops;
            }
            if ctl.throughput.len() >= ctl.min_batches
                && ctl.throughput.decide(ctl.rel_ci, ctl.min_batches).converged
            {
                return Some(boundary);
            }
        }
        None
    }
}
