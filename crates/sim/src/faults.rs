//! Deterministic fault injection: thread preemption windows, per-core
//! frequency jitter, and the coherence-fabric fault model (directory
//! NACKs, link congestion windows, message-latency jitter).
//!
//! The paper's fairness story (and the follow-up contention-management
//! literature) hinges on what happens when a thread *loses the CPU* in
//! the middle of a contended access pattern: a CAS retry loop resumes
//! with a stale read and burns a failed attempt, a lock holder parks the
//! whole system. The fault layer models exactly that, OS-free:
//!
//! * **Preemption windows** — each simulated thread independently goes
//!   dark for [`FaultConfig::preempt_len_cycles`] cycles, with gaps drawn
//!   uniformly from `[interval/2, 3·interval/2)` around
//!   [`FaultConfig::preempt_interval_cycles`]. A dark thread issues no
//!   instructions; coherence transactions it already started complete
//!   normally (the line request is in the fabric, not on the core).
//! * **Frequency jitter** — each *core* gets a fixed work-duration
//!   multiplier drawn from `[1−j, 1+j]`, modelling per-core DVFS spread.
//!   It scales `Step::Work` durations (the local compute between ops —
//!   CAS windows, critical sections), not coherence latencies.
//!
//! Both are driven by per-thread/per-core SplitMix64 streams derived
//! from [`SimParams::seed`](crate::SimParams::seed), so fault schedules
//! are deterministic, independent of event ordering, and reproducible
//! at any `--jobs` count. A default (all-zero) [`FaultConfig`] injects
//! nothing and costs one branch per interpreter resume.
//!
//! # The fabric layer
//!
//! [`FabricFaultConfig`] degrades the coherence *fabric* itself, one
//! layer below the thread faults:
//!
//! * **Directory-bank NACKs** — a directory bank (= home tile) refuses
//!   an arriving request when its modeled occupancy is at
//!   [`FabricFaultConfig::max_pending_per_bank`] admitted transactions,
//!   or stochastically at [`FabricFaultConfig::nack_per_mille`] on a
//!   dedicated per-bank SplitMix64 stream. The engine retries refused
//!   requests under the bounded-backoff
//!   [`RetryPolicy`](crate::RetryPolicy).
//! * **Congestion windows** — each directed tile pair independently
//!   enters transient congestion: for
//!   [`congestion_len_cycles`](FabricFaultConfig::congestion_len_cycles)
//!   out of every
//!   [`congestion_interval_cycles`](FabricFaultConfig::congestion_interval_cycles),
//!   its hop latency multiplies by
//!   [`congestion_multiplier`](FabricFaultConfig::congestion_multiplier).
//!   Window phases are drawn per link at run start, so whether a
//!   message is congested is a pure function of `(link, time)` —
//!   independent of event ordering by construction.
//! * **Message jitter** — every non-local message pays an extra uniform
//!   `[0, jitter_cycles]` latency, drawn from one dedicated stream in
//!   (deterministic) event order.
//!
//! The all-zero default injects nothing; the engine then builds no
//! fabric state at all, so the fault-free path stays bit-identical.

use crate::config::ConfigError;
use crate::directory::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault-injection parameters. The default injects no faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Mean cycles between the starts of one thread's preemption
    /// windows. 0 disables preemption.
    pub preempt_interval_cycles: u64,
    /// Cycles a preempted thread stays dark. 0 disables preemption.
    pub preempt_len_cycles: u64,
    /// Spread of per-thread preemption *rates*, in `[0, 1]`. OS noise
    /// is not uniform across hardware threads (housekeeping cores, IRQ
    /// affinity, daemon placement): with spread `g`, thread `t` of `n`
    /// draws its gaps from an interval scaled so its preemption rate is
    /// `1 + g·(2t/(n−1) − 1)` times the mean — a linear gradient from
    /// `1−g` (thread 0, quietest) to `1+g` (thread n−1, noisiest), mean
    /// preserved. 0 preempts every thread at the same mean rate.
    pub preempt_spread: f64,
    /// Per-core frequency jitter amplitude as a fraction of nominal
    /// (e.g. 0.1 = ±10% on local work durations). 0.0 disables.
    pub freq_jitter: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            preempt_interval_cycles: 0,
            preempt_len_cycles: 0,
            preempt_spread: 0.0,
            freq_jitter: 0.0,
        }
    }
}

impl FaultConfig {
    /// Whether preemption windows are injected.
    pub fn preemption_enabled(&self) -> bool {
        self.preempt_interval_cycles > 0 && self.preempt_len_cycles > 0
    }

    /// Whether anything at all is injected.
    pub fn enabled(&self) -> bool {
        self.preemption_enabled() || self.freq_jitter > 0.0
    }

    /// Fraction of time a thread spends dark, `len / (len + interval)`.
    pub fn dark_fraction(&self) -> f64 {
        if !self.preemption_enabled() {
            return 0.0;
        }
        self.preempt_len_cycles as f64
            / (self.preempt_len_cycles + self.preempt_interval_cycles) as f64
    }

    /// Sanity-check parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.freq_jitter) {
            return Err(ConfigError::new(
                "faults.freq_jitter",
                format!("{} out of range [0, 1)", self.freq_jitter),
            ));
        }
        if !(0.0..=1.0).contains(&self.preempt_spread) {
            return Err(ConfigError::new(
                "faults.preempt_spread",
                format!("{} out of range [0, 1]", self.preempt_spread),
            ));
        }
        if self.preempt_interval_cycles > 0 && self.preempt_len_cycles == 0 {
            return Err(ConfigError::new(
                "faults.preempt_len_cycles",
                "is 0 but preempt_interval_cycles is set".to_string(),
            ));
        }
        if self.preempt_len_cycles > 0 && self.preempt_interval_cycles == 0 {
            return Err(ConfigError::new(
                "faults.preempt_interval_cycles",
                "is 0 but preempt_len_cycles is set".to_string(),
            ));
        }
        Ok(())
    }
}

/// Coherence-fabric fault parameters. The all-zero default injects
/// nothing (see the [module docs](self) for the model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricFaultConfig {
    /// Per-mille probability that a directory bank NACKs an arriving
    /// request, drawn on the bank's dedicated stream. 0 disables
    /// stochastic NACKs; 1000 refuses everything.
    pub nack_per_mille: u32,
    /// Occupancy limit per directory bank: arrivals while this many
    /// transactions are already admitted (queued or in service) at the
    /// bank are NACKed. 0 = unlimited.
    pub max_pending_per_bank: u32,
    /// Period of each link's congestion windows, cycles. 0 disables
    /// congestion.
    pub congestion_interval_cycles: u64,
    /// Length of the congested part of each period, cycles.
    pub congestion_len_cycles: u64,
    /// Hop-latency multiplier while a link is congested (>= 2 when
    /// congestion windows are configured).
    pub congestion_multiplier: u32,
    /// Maximum uniform extra latency per non-local message, cycles.
    /// 0 disables jitter.
    pub jitter_cycles: u32,
}

impl FabricFaultConfig {
    /// Preset labels accepted by [`FabricFaultConfig::from_label`].
    pub const LABELS: [&'static str; 4] = ["none", "light", "moderate", "severe"];

    /// No fabric faults (the default).
    pub fn none() -> Self {
        FabricFaultConfig::default()
    }

    /// Mild degradation: 2.5% NACKs, occasional 2× congestion windows.
    pub fn light() -> Self {
        FabricFaultConfig {
            nack_per_mille: 25,
            max_pending_per_bank: 0,
            congestion_interval_cycles: 40_000,
            congestion_len_cycles: 2_000,
            congestion_multiplier: 2,
            jitter_cycles: 0,
        }
    }

    /// Noticeable degradation: 10% NACKs, a 12-deep bank limit, 3×
    /// congestion a fifth of the time, small jitter.
    pub fn moderate() -> Self {
        FabricFaultConfig {
            nack_per_mille: 100,
            max_pending_per_bank: 12,
            congestion_interval_cycles: 20_000,
            congestion_len_cycles: 4_000,
            congestion_multiplier: 3,
            jitter_cycles: 2,
        }
    }

    /// Heavy degradation: 25% NACKs, a 6-deep bank limit, 4× congestion
    /// windows covering 40% of the time, 4-cycle jitter.
    pub fn severe() -> Self {
        FabricFaultConfig {
            nack_per_mille: 250,
            max_pending_per_bank: 6,
            congestion_interval_cycles: 10_000,
            congestion_len_cycles: 4_000,
            congestion_multiplier: 4,
            jitter_cycles: 4,
        }
    }

    /// Resolve a preset by label (see [`FabricFaultConfig::LABELS`]).
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "none" => Some(FabricFaultConfig::none()),
            "light" => Some(FabricFaultConfig::light()),
            "moderate" => Some(FabricFaultConfig::moderate()),
            "severe" => Some(FabricFaultConfig::severe()),
            _ => None,
        }
    }

    /// The preset label of this config, or `"custom"`.
    pub fn label(&self) -> &'static str {
        if *self == FabricFaultConfig::none() {
            "none"
        } else if *self == FabricFaultConfig::light() {
            "light"
        } else if *self == FabricFaultConfig::moderate() {
            "moderate"
        } else if *self == FabricFaultConfig::severe() {
            "severe"
        } else {
            "custom"
        }
    }

    /// Whether directory banks may NACK arrivals.
    pub fn nack_enabled(&self) -> bool {
        self.nack_per_mille > 0 || self.max_pending_per_bank > 0
    }

    /// Whether link congestion windows are injected.
    pub fn congestion_enabled(&self) -> bool {
        self.congestion_interval_cycles > 0
            && self.congestion_len_cycles > 0
            && self.congestion_multiplier > 1
    }

    /// Whether anything at all is injected.
    pub fn enabled(&self) -> bool {
        self.nack_enabled() || self.congestion_enabled() || self.jitter_cycles > 0
    }

    /// Sanity-check parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nack_per_mille > 1000 {
            return Err(ConfigError::new(
                "fabric.nack_per_mille",
                format!("{} out of range [0, 1000]", self.nack_per_mille),
            ));
        }
        let windows = self.congestion_interval_cycles > 0 || self.congestion_len_cycles > 0;
        if windows {
            if self.congestion_interval_cycles == 0 {
                return Err(ConfigError::new(
                    "fabric.congestion_interval_cycles",
                    "is 0 but congestion_len_cycles is set".to_string(),
                ));
            }
            if self.congestion_len_cycles == 0 {
                return Err(ConfigError::new(
                    "fabric.congestion_len_cycles",
                    "is 0 but congestion_interval_cycles is set".to_string(),
                ));
            }
            if self.congestion_len_cycles > self.congestion_interval_cycles {
                return Err(ConfigError::new(
                    "fabric.congestion_len_cycles",
                    format!(
                        "window {} longer than its period {}",
                        self.congestion_len_cycles, self.congestion_interval_cycles
                    ),
                ));
            }
            if self.congestion_multiplier < 2 {
                return Err(ConfigError::new(
                    "fabric.congestion_multiplier",
                    format!(
                        "{} must be >= 2 when windows are on",
                        self.congestion_multiplier
                    ),
                ));
            }
        } else if self.congestion_multiplier > 1 {
            return Err(ConfigError::new(
                "fabric.congestion_multiplier",
                "set but no congestion window is configured".to_string(),
            ));
        }
        Ok(())
    }
}

/// Runtime fault state, built by the engine at the start of a run when
/// the config injects anything.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Per-thread start of the next preemption window.
    next_preempt: Vec<u64>,
    /// Per-thread end of the current (or last) preemption window.
    preempt_until: Vec<u64>,
    /// Per-thread gap generators — one independent stream each, so a
    /// thread's schedule does not depend on how many other threads run.
    rngs: Vec<StdRng>,
    /// Per-core multiplier on `Step::Work` durations.
    work_scale: Vec<f64>,
    /// Preemption windows entered so far.
    pub(crate) preemptions: u64,
    /// Per-thread mean gap between windows (`u64::MAX` = this thread is
    /// never preempted — either preemption is off or the spread zeroes
    /// its rate).
    intervals: Vec<u64>,
    len: u64,
}

impl FaultState {
    pub(crate) fn new(cfg: &FaultConfig, seed: u64, n_threads: usize, n_cores: usize) -> Self {
        let preempt = cfg.preemption_enabled();
        let mut rngs = Vec::with_capacity(n_threads);
        let mut next_preempt = Vec::with_capacity(n_threads);
        let mut intervals = Vec::with_capacity(n_threads);
        for tid in 0..n_threads {
            let mut rng =
                StdRng::seed_from_u64(splitmix64(seed ^ (tid as u64).wrapping_mul(0xA5A5_5A5A)));
            // Per-thread rate gradient: 1−g .. 1+g across the threads.
            let rate = if n_threads > 1 {
                1.0 + cfg.preempt_spread * (2.0 * tid as f64 / (n_threads - 1) as f64 - 1.0)
            } else {
                1.0
            };
            let interval = if !preempt || rate <= 0.0 {
                u64::MAX
            } else {
                ((cfg.preempt_interval_cycles as f64 / rate).round() as u64).max(1)
            };
            // Desynchronise the first windows across threads.
            let first = if interval == u64::MAX {
                u64::MAX
            } else {
                rng.gen_range(0..interval)
            };
            intervals.push(interval);
            next_preempt.push(first);
            rngs.push(rng);
        }
        let work_scale = (0..n_cores)
            .map(|core| {
                if cfg.freq_jitter > 0.0 {
                    let mut rng = StdRng::seed_from_u64(splitmix64(
                        seed ^ (core as u64).wrapping_mul(0xC3C3_3C3C),
                    ));
                    1.0 + rng.gen_range(-cfg.freq_jitter..cfg.freq_jitter)
                } else {
                    1.0
                }
            })
            .collect();
        FaultState {
            next_preempt,
            preempt_until: vec![0; n_threads],
            rngs,
            work_scale,
            preemptions: 0,
            intervals,
            len: cfg.preempt_len_cycles,
        }
    }

    /// Called at every interpreter resume. Returns `Some(resume_at)` if
    /// the thread is (or just went) dark and must not execute until then.
    pub(crate) fn check_preempt(&mut self, tid: usize, now: u64) -> Option<u64> {
        let interval = self.intervals[tid];
        if interval == u64::MAX {
            return None;
        }
        if now < self.preempt_until[tid] {
            return Some(self.preempt_until[tid]);
        }
        if now >= self.next_preempt[tid] {
            let until = now + self.len;
            self.preempt_until[tid] = until;
            let gap = self.rngs[tid].gen_range(interval / 2..interval + interval / 2);
            self.next_preempt[tid] = until + gap.max(1);
            self.preemptions += 1;
            return Some(until);
        }
        None
    }

    /// Scale a `Step::Work` duration by the core's frequency factor.
    pub(crate) fn scale_work(&self, core: usize, k: u64) -> u64 {
        if k == 0 {
            return 0;
        }
        ((k as f64 * self.work_scale[core]).round() as u64).max(1)
    }
}

/// Runtime fabric fault state, built by the engine at run start when
/// [`FabricFaultConfig::enabled`]. Per-bank and per-link streams use
/// their own SplitMix64-derived seeds (distinct multiplier constants
/// from the thread/core streams of [`FaultState`]), so schedules never
/// depend on how many threads run or on event ordering across runs.
#[derive(Debug)]
pub(crate) struct FabricState {
    cfg: FabricFaultConfig,
    /// Per-directory-bank NACK draw streams (bank = home tile).
    bank_rngs: Vec<StdRng>,
    /// Per-directed-tile-pair congestion phase offsets (flat
    /// `from * n_tiles + to`); empty unless congestion is on.
    link_phase: Vec<u64>,
    /// Message-latency jitter stream.
    jitter_rng: StdRng,
    /// Arrivals refused (occupancy limit or stochastic NACK).
    pub(crate) nacks: u64,
    /// Refused arrivals that were re-scheduled under the retry policy
    /// (`nacks` minus any final refusal that exhausted its budget).
    pub(crate) retries: u64,
}

impl FabricState {
    pub(crate) fn new(cfg: &FabricFaultConfig, seed: u64, n_tiles: usize) -> Self {
        let bank_rngs = (0..n_tiles)
            .map(|b| StdRng::seed_from_u64(splitmix64(seed ^ (b as u64).wrapping_mul(0xB7B7_7B7B))))
            .collect();
        let link_phase = if cfg.congestion_enabled() {
            (0..n_tiles * n_tiles)
                .map(|l| {
                    let mut rng = StdRng::seed_from_u64(splitmix64(
                        seed ^ (l as u64).wrapping_mul(0xD1D1_1D1D),
                    ));
                    rng.gen_range(0..cfg.congestion_interval_cycles)
                })
                .collect()
        } else {
            Vec::new()
        };
        let jitter_rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xE1E1_1E1E));
        FabricState {
            cfg: *cfg,
            bank_rngs,
            link_phase,
            jitter_rng,
            nacks: 0,
            retries: 0,
        }
    }

    /// Whether bank `bank` refuses an arrival while `pending`
    /// transactions are already admitted there. Does **not** bump the
    /// `nacks` tally — the engine owns the retry bookkeeping.
    pub(crate) fn refuses(&mut self, bank: usize, pending: u32) -> bool {
        if self.cfg.max_pending_per_bank > 0 && pending >= self.cfg.max_pending_per_bank {
            return true;
        }
        self.cfg.nack_per_mille > 0
            && self.bank_rngs[bank].gen_range(0u32..1000) < self.cfg.nack_per_mille
    }

    /// Whether the directed tile pair `pair` is inside one of its
    /// congestion windows at `now`. Pure in `(pair, now)`.
    pub(crate) fn congested(&self, pair: usize, now: u64) -> bool {
        if self.link_phase.is_empty() {
            return false;
        }
        (now + self.link_phase[pair]) % self.cfg.congestion_interval_cycles
            < self.cfg.congestion_len_cycles
    }

    /// The hop-latency multiplier applied inside a congestion window.
    pub(crate) fn multiplier(&self) -> u32 {
        self.cfg.congestion_multiplier.max(1)
    }

    /// Draw the jitter of one message (0 when jitter is off).
    pub(crate) fn jitter(&mut self) -> u32 {
        if self.cfg.jitter_cycles == 0 {
            0
        } else {
            self.jitter_rng.gen_range(0..self.cfg.jitter_cycles + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preempt_cfg(interval: u64, len: u64) -> FaultConfig {
        FaultConfig {
            preempt_interval_cycles: interval,
            preempt_len_cycles: len,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_is_disabled_and_valid() {
        let c = FaultConfig::default();
        assert!(!c.enabled());
        assert_eq!(c.dark_fraction(), 0.0);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_half_configured_preemption() {
        // The typed error path names the field that is out of range.
        assert_eq!(
            preempt_cfg(100, 0).validate().unwrap_err().field,
            "faults.preempt_len_cycles"
        );
        assert_eq!(
            preempt_cfg(0, 100).validate().unwrap_err().field,
            "faults.preempt_interval_cycles"
        );
        assert!(preempt_cfg(100, 10).validate().is_ok());
        let c = FaultConfig {
            freq_jitter: 1.5,
            ..FaultConfig::default()
        };
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "faults.freq_jitter");
        assert!(e.to_string().contains("1.5"), "{e}");
        let mut c = preempt_cfg(100, 10);
        c.preempt_spread = 1.5;
        assert_eq!(c.validate().unwrap_err().field, "faults.preempt_spread");
    }

    #[test]
    fn preempt_spread_grades_rates_across_threads() {
        let mut cfg = preempt_cfg(1_000, 100);
        cfg.preempt_spread = 1.0;
        let mut s = FaultState::new(&cfg, 11, 4, 4);
        let mut windows = [0u64; 4];
        for (tid, w) in windows.iter_mut().enumerate() {
            let mut t = 0u64;
            while t < 400_000 {
                t = match s.check_preempt(tid, t) {
                    Some(until) => until,
                    None => t + 1,
                };
            }
            *w = s.preemptions;
        }
        let counts: Vec<u64> = windows
            .iter()
            .scan(0, |prev, &w| {
                let d = w - *prev;
                *prev = w;
                Some(d)
            })
            .collect();
        // Full spread: thread 0 is never preempted, rates grow with tid.
        assert_eq!(counts[0], 0, "quietest thread stays clean: {counts:?}");
        assert!(
            counts[1] < counts[2] && counts[2] < counts[3],
            "rates must grade up across threads: {counts:?}"
        );
    }

    #[test]
    fn dark_fraction_matches_ratio() {
        let c = preempt_cfg(9_000, 1_000);
        assert!((c.dark_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn preemption_schedule_is_deterministic_per_thread() {
        let cfg = preempt_cfg(10_000, 500);
        let mut a = FaultState::new(&cfg, 42, 4, 4);
        let mut b = FaultState::new(&cfg, 42, 4, 4);
        for now in (0..200_000).step_by(97) {
            assert_eq!(a.check_preempt(2, now), b.check_preempt(2, now));
        }
        assert!(a.preemptions > 0, "windows must actually occur");
        assert_eq!(a.preemptions, b.preemptions);
    }

    #[test]
    fn dark_window_reports_resume_time() {
        let cfg = preempt_cfg(1_000, 100);
        let mut s = FaultState::new(&cfg, 7, 1, 1);
        // Walk until the first window opens.
        let mut t = 0;
        let until = loop {
            if let Some(u) = s.check_preempt(0, t) {
                break u;
            }
            t += 1;
        };
        assert_eq!(until, t + 100);
        // Mid-window resumes report the same horizon.
        assert_eq!(s.check_preempt(0, t + 50), Some(until));
        // At the horizon the thread runs again.
        assert_eq!(s.check_preempt(0, until), None);
    }

    #[test]
    fn fabric_default_is_disabled_and_valid() {
        let c = FabricFaultConfig::default();
        assert!(!c.enabled());
        assert!(!c.nack_enabled());
        assert!(!c.congestion_enabled());
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.label(), "none");
    }

    #[test]
    fn fabric_presets_round_trip_and_validate() {
        for l in FabricFaultConfig::LABELS {
            let c = FabricFaultConfig::from_label(l).unwrap();
            assert_eq!(c.label(), l);
            assert_eq!(c.validate(), Ok(()));
            assert_eq!(c.enabled(), l != "none");
        }
        assert!(FabricFaultConfig::from_label("heavy").is_none());
        let mut c = FabricFaultConfig::severe();
        c.nack_per_mille = 77;
        assert_eq!(c.label(), "custom");
    }

    #[test]
    fn fabric_validate_names_offending_fields() {
        let c = FabricFaultConfig {
            nack_per_mille: 1500,
            ..FabricFaultConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().field, "fabric.nack_per_mille");
        let c = FabricFaultConfig {
            congestion_interval_cycles: 1000,
            ..FabricFaultConfig::default()
        };
        assert_eq!(
            c.validate().unwrap_err().field,
            "fabric.congestion_len_cycles"
        );
        let c = FabricFaultConfig {
            congestion_len_cycles: 1000,
            ..FabricFaultConfig::default()
        };
        assert_eq!(
            c.validate().unwrap_err().field,
            "fabric.congestion_interval_cycles"
        );
        let mut c = FabricFaultConfig::light();
        c.congestion_len_cycles = c.congestion_interval_cycles + 1;
        assert_eq!(
            c.validate().unwrap_err().field,
            "fabric.congestion_len_cycles"
        );
        let mut c = FabricFaultConfig::light();
        c.congestion_multiplier = 1;
        assert_eq!(
            c.validate().unwrap_err().field,
            "fabric.congestion_multiplier"
        );
        let c = FabricFaultConfig {
            congestion_multiplier: 3,
            ..FabricFaultConfig::default()
        };
        assert_eq!(
            c.validate().unwrap_err().field,
            "fabric.congestion_multiplier"
        );
    }

    #[test]
    fn fabric_nack_stream_is_deterministic_per_bank() {
        let cfg = FabricFaultConfig {
            nack_per_mille: 300,
            ..FabricFaultConfig::default()
        };
        let mut a = FabricState::new(&cfg, 99, 4);
        let mut b = FabricState::new(&cfg, 99, 4);
        let mut refused = 0;
        for i in 0..2000 {
            let bank = i % 4;
            let ra = a.refuses(bank, 0);
            assert_eq!(ra, b.refuses(bank, 0));
            refused += ra as u32;
        }
        // ~30% of 2000 draws.
        assert!((400..=800).contains(&refused), "refused {refused}");
    }

    #[test]
    fn fabric_occupancy_limit_always_refuses() {
        let cfg = FabricFaultConfig {
            max_pending_per_bank: 2,
            ..FabricFaultConfig::default()
        };
        let mut s = FabricState::new(&cfg, 1, 2);
        assert!(!s.refuses(0, 0));
        assert!(!s.refuses(0, 1));
        assert!(s.refuses(0, 2));
        assert!(s.refuses(1, 5));
    }

    #[test]
    fn congestion_windows_are_pure_in_time() {
        let cfg = FabricFaultConfig {
            congestion_interval_cycles: 1000,
            congestion_len_cycles: 250,
            congestion_multiplier: 3,
            ..FabricFaultConfig::default()
        };
        let s = FabricState::new(&cfg, 7, 3);
        let t = FabricState::new(&cfg, 7, 3);
        let mut congested = 0u64;
        for now in 0..10_000 {
            let c = s.congested(4, now);
            assert_eq!(c, t.congested(4, now), "pure in (pair, now)");
            congested += c as u64;
        }
        // Exactly a quarter of the time, whatever the phase.
        assert_eq!(congested, 2500);
        assert_eq!(s.multiplier(), 3);
    }

    #[test]
    fn jitter_bounded_and_off_by_default() {
        let mut off = FabricState::new(&FabricFaultConfig::default(), 5, 2);
        assert_eq!(off.jitter(), 0);
        let cfg = FabricFaultConfig {
            jitter_cycles: 6,
            ..FabricFaultConfig::default()
        };
        let mut s = FabricState::new(&cfg, 5, 2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let j = s.jitter();
            assert!(j <= 6);
            seen.insert(j);
        }
        assert!(seen.len() > 2, "jitter actually varies: {seen:?}");
    }

    #[test]
    fn work_scale_is_stable_and_bounded() {
        let cfg = FaultConfig {
            freq_jitter: 0.2,
            ..FaultConfig::default()
        };
        let s = FaultState::new(&cfg, 3, 2, 8);
        for core in 0..8 {
            let w = s.scale_work(core, 1000);
            assert!((800..=1200).contains(&w), "core {core}: {w}");
            assert_eq!(w, s.scale_work(core, 1000), "stable per core");
        }
        assert_eq!(s.scale_work(0, 0), 0, "zero work stays zero");
        let no_jitter = FaultState::new(&FaultConfig::default(), 3, 1, 4);
        assert_eq!(no_jitter.scale_work(2, 1234), 1234);
    }
}
