//! Simulation parameters: protocol latencies, energy coefficients,
//! arbitration and home-mapping policies, and per-machine presets.

use crate::cache;
use crate::faults::{FabricFaultConfig, FaultConfig};
use bounce_atomics::Primitive;
use bounce_topo::{CoherenceKind, MachineTopology};
use std::fmt;

/// A typed configuration-validation failure naming the offending field,
/// so an invalid config reports *which* parameter is out of range
/// instead of panicking with a bare string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the parameter that failed validation
    /// (e.g. `faults.freq_jitter`, `fabric.nack_per_mille`).
    pub field: &'static str,
    /// Why the value is out of range.
    pub reason: String,
}

impl ConfigError {
    /// An error flagging `field` with `reason`.
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// How the engine reacts when the fabric fault model NACKs a directory
/// request: bounded retries with exponential backoff capped at
/// [`backoff_cap_cycles`](RetryPolicy::backoff_cap_cycles). A
/// transaction that is refused more than
/// [`max_retries`](RetryPolicy::max_retries) times aborts the run with
/// [`SimError::RetryStorm`](crate::SimError::RetryStorm).
///
/// Irrelevant (never consulted) unless
/// [`SimParams::fabric`](crate::SimParams::fabric) injects NACKs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry budget per transaction; exhausting it is a retry storm.
    pub max_retries: u32,
    /// Backoff before the first retry, cycles; doubles per retry.
    /// 0 = resend immediately (the naive loop that storms).
    pub backoff_base_cycles: u64,
    /// Ceiling on the exponential backoff, cycles.
    pub backoff_cap_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::backoff()
    }
}

impl RetryPolicy {
    /// Preset labels accepted by [`RetryPolicy::from_label`].
    pub const LABELS: [&'static str; 3] = ["backoff", "eager", "patient"];

    /// The default policy: exponential backoff 16 → 4096 cycles,
    /// 64-retry budget.
    pub fn backoff() -> Self {
        RetryPolicy {
            max_retries: 64,
            backoff_base_cycles: 16,
            backoff_cap_cycles: 4096,
        }
    }

    /// Immediate resend on every NACK (no backoff) — the policy that
    /// exhibits the retry-storm knee first.
    pub fn eager() -> Self {
        RetryPolicy {
            max_retries: 64,
            backoff_base_cycles: 0,
            backoff_cap_cycles: 0,
        }
    }

    /// Deep backoff ladder (64 → 16384 cycles) with a double budget.
    pub fn patient() -> Self {
        RetryPolicy {
            max_retries: 128,
            backoff_base_cycles: 64,
            backoff_cap_cycles: 16_384,
        }
    }

    /// Resolve a preset by label (see [`RetryPolicy::LABELS`]).
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "backoff" => Some(RetryPolicy::backoff()),
            "eager" => Some(RetryPolicy::eager()),
            "patient" => Some(RetryPolicy::patient()),
            _ => None,
        }
    }

    /// The preset label of this policy, or `"custom"`.
    pub fn label(&self) -> &'static str {
        if *self == RetryPolicy::backoff() {
            "backoff"
        } else if *self == RetryPolicy::eager() {
            "eager"
        } else if *self == RetryPolicy::patient() {
            "patient"
        } else {
            "custom"
        }
    }

    /// Backoff before retry number `attempt` (1-based): exponential in
    /// the attempt, capped. Attempt 1 waits the base, attempt 2 twice
    /// that, and so on up to the cap.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(62);
        self.backoff_base_cycles
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_cycles.max(self.backoff_base_cycles))
    }

    /// Sanity-check parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_retries == 0 {
            return Err(ConfigError::new(
                "retry.max_retries",
                "must be >= 1 (a zero budget would storm on the first NACK)",
            ));
        }
        if self.backoff_cap_cycles < self.backoff_base_cycles {
            return Err(ConfigError::new(
                "retry.backoff_cap_cycles",
                format!(
                    "cap {} below base {}",
                    self.backoff_cap_cycles, self.backoff_base_cycles
                ),
            ));
        }
        Ok(())
    }
}

/// Order in which requests queued at a directory entry are served.
///
/// Real home agents are roughly FIFO per line, but the *effective* winner
/// of the next ownership round on real hardware is biased (a requester
/// close to the current owner snoops the line faster) — the paper's
/// fairness experiment probes exactly this. The policies below bracket
/// the behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// Strict first-come-first-served per line (ideal fair hardware).
    Fifo,
    /// Uniformly random among the waiters.
    Random,
    /// The waiter nearest (fewest interconnect hops) to the current owner
    /// wins — models the locality bias of snoop-based transfers and
    /// produces the unfairness seen on real machines.
    NearestFirst,
}

impl ArbitrationPolicy {
    /// All policies.
    pub const ALL: [ArbitrationPolicy; 3] = [
        ArbitrationPolicy::Fifo,
        ArbitrationPolicy::Random,
        ArbitrationPolicy::NearestFirst,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ArbitrationPolicy::Fifo => "fifo",
            ArbitrationPolicy::Random => "random",
            ArbitrationPolicy::NearestFirst => "nearest",
        }
    }
}

/// Run-length control: how long one simulation runs.
///
/// `Fixed` is the historical behaviour — simulate the full cycle budget
/// regardless of how quickly the statistics settle — and remains the
/// default (it is what `repro --exact` and every byte-identity test
/// rely on). `Adaptive` terminates the run early once the throughput
/// batch-means series has provably converged: batches of
/// `budget / BATCHES_PER_BUDGET` cycles are collected after warmup,
/// MSER-truncated, and the run stops at the first batch boundary where
/// the relative 95% CI half-width of the batch mean drops to
/// `rel_ci` (see [`bounce_core::converge`]). The decision is a pure
/// function of the (deterministic) event stream, so adaptive runs are
/// just as reproducible as fixed ones — they simply end sooner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunLength {
    /// Simulate a fixed cycle budget. `cycles = 0` (the default) means
    /// "use [`SimConfig::duration_cycles`]"; non-zero overrides it.
    Fixed {
        /// Cycle budget; 0 = use the config's duration.
        cycles: u64,
    },
    /// Terminate early once throughput batch-means converge; never run
    /// past `max_cycles`.
    Adaptive {
        /// Target relative 95% CI half-width of throughput (e.g. 0.05
        /// = ±5%).
        rel_ci: f64,
        /// Minimum retained (post-truncation) batches before a run may
        /// stop.
        min_batches: u32,
        /// Hard cycle ceiling; 0 = use [`SimConfig::duration_cycles`].
        max_cycles: u64,
    },
}

impl Default for RunLength {
    fn default() -> Self {
        RunLength::Fixed { cycles: 0 }
    }
}

impl RunLength {
    /// Batches per full cycle budget: batch length is
    /// `budget / BATCHES_PER_BUDGET`, so a run that converges at the
    /// default `min_batches` of [`RunLength::adaptive`] simulates
    /// roughly `(2 + 8) / 64` ≈ 16% of its budget.
    pub const BATCHES_PER_BUDGET: u64 = 64;

    /// The adaptive preset used by sweeps and the repro campaign:
    /// ±5% throughput CI, at least 8 retained batches, ceiling at the
    /// config's duration.
    pub fn adaptive() -> Self {
        RunLength::Adaptive {
            rel_ci: 0.05,
            min_batches: 8,
            max_cycles: 0,
        }
    }

    /// Whether this is the adaptive mode.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, RunLength::Adaptive { .. })
    }

    /// Short label for manifests and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RunLength::Fixed { .. } => "exact",
            RunLength::Adaptive { .. } => "adaptive",
        }
    }

    /// The cycle budget of a run, resolving 0 to the config's duration.
    pub fn budget_cycles(&self, cfg_duration: u64) -> u64 {
        let explicit = match self {
            RunLength::Fixed { cycles } => *cycles,
            RunLength::Adaptive { max_cycles, .. } => *max_cycles,
        };
        if explicit > 0 {
            explicit
        } else {
            cfg_duration
        }
    }

    /// Adaptive batch length for a budget (at least 1 cycle).
    pub fn batch_cycles(budget: u64) -> u64 {
        (budget / Self::BATCHES_PER_BUDGET).max(1)
    }

    /// Sanity-check the parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let RunLength::Adaptive {
            rel_ci,
            min_batches,
            ..
        } = self
        {
            if !rel_ci.is_finite() || *rel_ci <= 0.0 {
                return Err(ConfigError::new(
                    "run_length.rel_ci",
                    format!("{rel_ci} must be finite and > 0"),
                ));
            }
            if *min_batches < 2 {
                return Err(ConfigError::new(
                    "run_length.min_batches",
                    "must be >= 2".to_string(),
                ));
            }
        }
        Ok(())
    }
}

/// How a line's home directory slice is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomePolicy {
    /// Hash the line address over all slices (the hardware default).
    Hash,
    /// Force every line's home to a fixed slice (models memory pinned to
    /// one NUMA node / one tag-directory tile).
    Fixed(usize),
}

/// Energy coefficients (nanojoules per event, watts for static power).
///
/// These stand in for the RAPL counters of the paper's machines. They are
/// order-of-magnitude figures from the energy-per-operation literature;
/// the *shape* of the energy curves (linear growth of J/op with thread
/// count under high contention) comes from the static term, which
/// dominates — as the paper observes.
#[derive(Debug, Clone)]
pub struct EnergyParams {
    /// Static + active power burned by one core while its thread runs, W.
    pub static_w_per_core: f64,
    /// Energy to retire one atomic op locally, nJ.
    pub op_nj: f64,
    /// Energy of an L1 access, nJ.
    pub l1_nj: f64,
    /// Energy of a directory lookup/update, nJ.
    pub dir_nj: f64,
    /// Energy per interconnect hop of a line-carrying message, nJ.
    pub hop_nj: f64,
    /// Energy of a memory (DRAM/MCDRAM) line access, nJ.
    pub mem_nj: f64,
    /// Energy of delivering one invalidation, nJ.
    pub inv_nj: f64,
}

impl EnergyParams {
    /// Broadwell-class defaults.
    pub fn e5() -> Self {
        EnergyParams {
            static_w_per_core: 3.5,
            op_nj: 0.6,
            l1_nj: 0.12,
            dir_nj: 0.9,
            hop_nj: 0.25,
            mem_nj: 15.0,
            inv_nj: 0.4,
        }
    }

    /// KNL-class defaults (smaller cores, cheaper per-event energy, but
    /// many more of them).
    pub fn knl() -> Self {
        EnergyParams {
            static_w_per_core: 0.9,
            op_nj: 0.35,
            l1_nj: 0.08,
            dir_nj: 0.7,
            hop_nj: 0.18,
            mem_nj: 20.0,
            inv_nj: 0.3,
        }
    }
}

/// Protocol latency parameters, in core cycles.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// L1 hit latency.
    pub l1_hit: u32,
    /// Directory slice lookup/occupancy cost per transaction.
    pub dir_lookup: u32,
    /// Cost for a peer cache to respond to a forwarded request.
    pub peer_lookup: u32,
    /// DRAM/MCDRAM access latency.
    pub mem_latency: u32,
    /// Fixed request-path overhead (miss handling, MSHR allocation).
    pub req_overhead: u32,
    /// Line install cost at the requester.
    pub install_cost: u32,
    /// Execution cost of an uncontended atomic RMW (the `lock`-prefixed
    /// instruction itself).
    pub rmw_exec: u32,
    /// Extra execution cost for CAS over other RMWs (compare + flags).
    pub cas_extra: u32,
    /// Execution cost of a plain load.
    pub load_exec: u32,
    /// Execution cost of a plain store (into the store buffer).
    pub store_exec: u32,
    /// L1 sets (a power of two, at most [`cache::MAX_SETS`]).
    pub l1_sets: usize,
    /// L1 ways.
    pub l1_ways: usize,
    /// Coherence protocol governing line-state transitions (MESIF's
    /// Forward state, plain MESI, or MOESI's Owned state).
    pub protocol: CoherenceKind,
    /// Interconnect link occupancy per line-carrying message, cycles.
    /// When non-zero, every wire leg marks each link on its route busy
    /// for this long and queues behind earlier messages at the
    /// bottleneck link — the NoC bandwidth model. 0 disables.
    pub link_occupancy_cycles: u32,
    /// Home-agent port occupancy per transaction, cycles. When non-zero,
    /// every transaction occupies its home tile's port for this long, so
    /// transactions on *different* lines homed at the same tile queue
    /// behind each other — the bandwidth term the contention-spreading
    /// ablation (A4) probes. 0 disables (infinite home bandwidth).
    pub home_port_occupancy: u32,
    /// Arbitration among queued requests to one line.
    pub arbitration: ArbitrationPolicy,
    /// Home-slice selection.
    pub home_policy: HomePolicy,
    /// Energy coefficients.
    pub energy: EnergyParams,
    /// RNG seed (Random arbitration, hash salt, fault schedules).
    pub seed: u64,
    /// Fault injection (preemption windows, frequency jitter). The
    /// default injects nothing and leaves all outputs bit-identical.
    pub faults: FaultConfig,
    /// Coherence-fabric fault injection (directory-bank NACKs, link
    /// congestion windows, message jitter). The all-zero default
    /// injects nothing and leaves all outputs bit-identical.
    pub fabric: FabricFaultConfig,
    /// NACK handling: bounded retries with capped exponential backoff.
    /// Only consulted when [`SimParams::fabric`] injects NACKs.
    pub retry: RetryPolicy,
    /// Run-length control: fixed budget (default, byte-identical
    /// outputs) or adaptive early termination on converged throughput.
    pub run_length: RunLength,
}

impl SimParams {
    /// Parameters matching the Xeon E5 preset topology (Broadwell-EP):
    /// fast big cores, MESIF, in-LLC directory.
    pub fn e5() -> Self {
        SimParams {
            l1_hit: 4,
            dir_lookup: 18,
            peer_lookup: 12,
            mem_latency: 220,
            req_overhead: 8,
            install_cost: 4,
            rmw_exec: 19,
            cas_extra: 2,
            load_exec: 1,
            store_exec: 1,
            l1_sets: 64,
            l1_ways: 8,
            protocol: CoherenceKind::Mesif,
            link_occupancy_cycles: 0,
            home_port_occupancy: 0,
            arbitration: ArbitrationPolicy::NearestFirst,
            home_policy: HomePolicy::Hash,
            energy: EnergyParams::e5(),
            seed: 0x1CC9_2019,
            faults: FaultConfig::default(),
            fabric: FabricFaultConfig::default(),
            retry: RetryPolicy::default(),
            run_length: RunLength::default(),
        }
    }

    /// Parameters matching the Xeon Phi KNL preset topology: slow 2-wide
    /// cores (higher instruction costs), distributed tag directory, plain
    /// MESI, longer memory path.
    pub fn knl() -> Self {
        SimParams {
            l1_hit: 5,
            dir_lookup: 30,
            peer_lookup: 18,
            mem_latency: 380,
            req_overhead: 12,
            install_cost: 6,
            rmw_exec: 35,
            cas_extra: 4,
            load_exec: 2,
            store_exec: 2,
            l1_sets: 64,
            l1_ways: 8,
            protocol: CoherenceKind::Mesi,
            link_occupancy_cycles: 0,
            home_port_occupancy: 0,
            arbitration: ArbitrationPolicy::NearestFirst,
            home_policy: HomePolicy::Hash,
            energy: EnergyParams::knl(),
            seed: 0x1CC9_2019,
            faults: FaultConfig::default(),
            fabric: FabricFaultConfig::default(),
            retry: RetryPolicy::default(),
            run_length: RunLength::default(),
        }
    }

    /// Pick default parameters for a topology by name heuristics (E5-like
    /// for multi-socket ring machines, KNL-like for meshes), then adopt
    /// the topology's native coherence protocol.
    pub fn for_machine(topo: &MachineTopology) -> Self {
        let mut p = match topo.interconnect {
            bounce_topo::Interconnect::Mesh { .. } => SimParams::knl(),
            _ => SimParams::e5(),
        };
        p.protocol = topo.protocol;
        p
    }

    /// Instruction execution cost of a primitive (no coherence).
    pub fn exec_cost(&self, p: Primitive) -> u32 {
        match p {
            Primitive::Load => self.load_exec,
            Primitive::Store => self.store_exec,
            Primitive::Cas => self.rmw_exec + self.cas_extra,
            _ => self.rmw_exec,
        }
    }

    /// Sanity-check parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.l1_sets.is_power_of_two() {
            return Err(ConfigError::new(
                "l1_sets",
                format!("{} is not a power of two", self.l1_sets),
            ));
        }
        if self.l1_sets > cache::MAX_SETS {
            return Err(ConfigError::new(
                "l1_sets",
                format!("{} is above {}", self.l1_sets, cache::MAX_SETS),
            ));
        }
        if self.l1_ways == 0 {
            return Err(ConfigError::new("l1_ways", "must be >= 1".to_string()));
        }
        if self.mem_latency == 0 {
            return Err(ConfigError::new(
                "mem_latency",
                "must be positive".to_string(),
            ));
        }
        if self.energy.static_w_per_core < 0.0 {
            return Err(ConfigError::new(
                "energy.static_w_per_core",
                "must not be negative".to_string(),
            ));
        }
        self.faults.validate()?;
        self.fabric.validate()?;
        self.retry.validate()?;
        self.run_length.validate()?;
        Ok(())
    }
}

/// Forward-progress watchdog configuration.
///
/// The watchdog turns the two ways a discrete-event simulation can fail
/// to terminate into structured [`SimError`](crate::SimError)s:
///
/// * an **event budget** caps the total number of events one run may
///   process — the backstop against same-time event storms that never
///   advance simulated time;
/// * a **retirement staleness** check fires when simulated time keeps
///   advancing but no workload operation retires for
///   [`stall_epochs`](Watchdog::stall_epochs) consecutive epochs —
///   livelock with a live clock.
///
/// Both default to `0` = *auto*, resolved from the run's shape so that
/// legitimate runs (including heavily backed-off spin loops) never trip
/// them. Setting `stall_epochs` to 0 disables the livelock check
/// entirely; the event budget cannot be disabled, only raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Maximum events a run may process. 0 = auto
    /// (`threads × duration × 8 + 1M`).
    pub max_events: u64,
    /// Length of one retirement-staleness epoch, cycles. 0 = auto
    /// (`duration / 8`, at least 1).
    pub epoch_cycles: u64,
    /// Consecutive retirement-free epochs before `NoProgress` fires.
    /// 0 disables the livelock check.
    pub stall_epochs: u64,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            max_events: 0,
            epoch_cycles: 0,
            stall_epochs: 4,
        }
    }
}

impl Watchdog {
    /// The event budget for a run of `threads` threads over `duration`
    /// cycles, resolving 0 to the auto formula.
    pub fn resolved_max_events(&self, threads: usize, duration: u64) -> u64 {
        if self.max_events > 0 {
            self.max_events
        } else {
            (threads.max(1) as u64)
                .saturating_mul(duration)
                .saturating_mul(8)
                .saturating_add(1_000_000)
        }
    }

    /// The staleness epoch length for a `duration`-cycle run, resolving
    /// 0 to the auto formula.
    pub fn resolved_epoch_cycles(&self, duration: u64) -> u64 {
        if self.epoch_cycles > 0 {
            self.epoch_cycles
        } else {
            (duration / 8).max(1)
        }
    }
}

/// A complete simulation request: machine, parameters, per-thread
/// programs, and the measurement window.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Protocol/energy parameters.
    pub params: SimParams,
    /// Total simulated duration, cycles.
    pub duration_cycles: u64,
    /// Measurements are recorded only at and after this instant.
    pub warmup_cycles: u64,
    /// Forward-progress watchdog limits.
    pub watchdog: Watchdog,
}

impl SimConfig {
    /// A config with the given parameters and a `duration` measurement
    /// window. Fixed run length keeps the historical 10% warmup;
    /// adaptive run length uses two batch lengths of warmup (the MSER
    /// truncation in [`bounce_core::converge`] absorbs any remaining
    /// transient), so early termination is not defeated by a warmup
    /// proportional to the full budget.
    pub fn new(params: SimParams, duration_cycles: u64) -> Self {
        let budget = params.run_length.budget_cycles(duration_cycles);
        let warmup_cycles = if params.run_length.is_adaptive() {
            2 * RunLength::batch_cycles(budget)
        } else {
            duration_cycles / 10
        };
        SimConfig {
            params,
            duration_cycles,
            warmup_cycles,
            watchdog: Watchdog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_topo::presets;

    #[test]
    fn presets_validate() {
        SimParams::e5().validate().unwrap();
        SimParams::knl().validate().unwrap();
    }

    #[test]
    fn exec_costs_ordered() {
        let p = SimParams::e5();
        assert!(p.exec_cost(Primitive::Load) < p.exec_cost(Primitive::Faa));
        assert!(p.exec_cost(Primitive::Cas) > p.exec_cost(Primitive::Faa));
        assert_eq!(p.exec_cost(Primitive::Swap), p.rmw_exec);
    }

    #[test]
    fn for_machine_picks_by_interconnect() {
        let e5 = SimParams::for_machine(&presets::xeon_e5_2695_v4());
        assert_eq!(e5.protocol, CoherenceKind::Mesif);
        let knl = SimParams::for_machine(&presets::xeon_phi_7290());
        assert_eq!(knl.protocol, CoherenceKind::Mesi);
        assert!(knl.rmw_exec > e5.rmw_exec, "KNL cores are slower");
    }

    #[test]
    fn for_machine_honours_native_protocol() {
        // A ring machine flagged MOESI keeps E5-class latencies but the
        // topology's own protocol.
        let mut topo = presets::dual_socket_small();
        topo.protocol = CoherenceKind::Moesi;
        let p = SimParams::for_machine(&topo);
        assert_eq!(p.protocol, CoherenceKind::Moesi);
        assert_eq!(p.mem_latency, SimParams::e5().mem_latency);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = SimParams::e5();
        p.l1_sets = 48;
        assert!(p.validate().is_err());
        let mut p = SimParams::e5();
        p.l1_ways = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_l1_sets_the_engine_cannot_build() {
        // The L1's set index is 16 bits wide: `Engine::new` panics on
        // more sets, where a run should get a typed error.
        let mut p = SimParams::e5();
        p.l1_sets = 1 << 40;
        let e = p.validate().unwrap_err();
        assert_eq!(e.field, "l1_sets");
        assert!(e.to_string().contains(&(1u64 << 40).to_string()), "{e}");
        p.l1_sets = 1 << 17;
        assert_eq!(p.validate().unwrap_err().field, "l1_sets");
        p.l1_sets = 1 << 16;
        p.validate().unwrap();
    }

    #[test]
    fn config_defaults_warmup() {
        let c = SimConfig::new(SimParams::e5(), 1000);
        assert_eq!(c.warmup_cycles, 100);
    }

    #[test]
    fn watchdog_auto_resolution() {
        let w = Watchdog::default();
        assert_eq!(
            w.resolved_max_events(4, 100_000),
            4 * 100_000 * 8 + 1_000_000
        );
        assert_eq!(w.resolved_epoch_cycles(80_000), 10_000);
        assert_eq!(w.resolved_epoch_cycles(3), 1, "never zero");
        let explicit = Watchdog {
            max_events: 42,
            epoch_cycles: 7,
            stall_epochs: 2,
        };
        assert_eq!(explicit.resolved_max_events(64, 1 << 40), 42);
        assert_eq!(explicit.resolved_epoch_cycles(1 << 40), 7);
    }

    #[test]
    fn run_length_budget_resolution() {
        let rl = RunLength::default();
        assert_eq!(
            rl.budget_cycles(2_000_000),
            2_000_000,
            "0 = config duration"
        );
        assert_eq!(rl.label(), "exact");
        assert!(!rl.is_adaptive());
        let rl = RunLength::Fixed { cycles: 500 };
        assert_eq!(rl.budget_cycles(2_000_000), 500, "explicit override wins");
        let rl = RunLength::adaptive();
        assert!(rl.is_adaptive());
        assert_eq!(rl.label(), "adaptive");
        assert_eq!(rl.budget_cycles(2_000_000), 2_000_000);
        assert_eq!(RunLength::batch_cycles(640_000), 10_000);
        assert_eq!(RunLength::batch_cycles(10), 1, "never zero");
    }

    #[test]
    fn run_length_validation() {
        let mut p = SimParams::e5();
        p.run_length = RunLength::Adaptive {
            rel_ci: 0.0,
            min_batches: 8,
            max_cycles: 0,
        };
        assert!(p.validate().is_err(), "zero rel_ci");
        p.run_length = RunLength::Adaptive {
            rel_ci: 0.05,
            min_batches: 1,
            max_cycles: 0,
        };
        assert!(p.validate().is_err(), "min_batches below 2");
        p.run_length = RunLength::adaptive();
        p.validate().unwrap();
    }

    #[test]
    fn adaptive_warmup_is_two_batches() {
        let mut p = SimParams::e5();
        p.run_length = RunLength::adaptive();
        let c = SimConfig::new(p, 640_000);
        assert_eq!(c.warmup_cycles, 20_000, "2 × budget/64");
        let c = SimConfig::new(SimParams::e5(), 640_000);
        assert_eq!(c.warmup_cycles, 64_000, "fixed mode keeps 10%");
    }

    #[test]
    fn validate_covers_faults() {
        let mut p = SimParams::e5();
        p.faults.preempt_interval_cycles = 100;
        assert!(p.validate().is_err(), "half-configured preemption");
        p.faults.preempt_len_cycles = 10;
        p.validate().unwrap();
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut p = SimParams::e5();
        p.l1_sets = 48;
        let e = p.validate().unwrap_err();
        assert_eq!(e.field, "l1_sets");
        assert!(e.to_string().contains("48"), "{e}");
        let mut p = SimParams::e5();
        p.faults.freq_jitter = 2.0;
        let e = p.validate().unwrap_err();
        assert_eq!(e.field, "faults.freq_jitter");
        let mut p = SimParams::e5();
        p.fabric.nack_per_mille = 1001;
        let e = p.validate().unwrap_err();
        assert_eq!(e.field, "fabric.nack_per_mille");
        let mut p = SimParams::e5();
        p.retry.max_retries = 0;
        let e = p.validate().unwrap_err();
        assert_eq!(e.field, "retry.max_retries");
    }

    #[test]
    fn retry_policy_backoff_ladder() {
        let p = RetryPolicy::backoff();
        assert_eq!(p.backoff_cycles(1), 16);
        assert_eq!(p.backoff_cycles(2), 32);
        assert_eq!(p.backoff_cycles(5), 256);
        assert_eq!(p.backoff_cycles(20), 4096, "capped");
        assert_eq!(p.backoff_cycles(200), 4096, "shift saturates");
        let e = RetryPolicy::eager();
        assert_eq!(e.backoff_cycles(1), 0);
        assert_eq!(e.backoff_cycles(40), 0);
    }

    #[test]
    fn retry_policy_labels_round_trip() {
        for l in RetryPolicy::LABELS {
            assert_eq!(RetryPolicy::from_label(l).unwrap().label(), l);
        }
        assert!(RetryPolicy::from_label("nope").is_none());
        let custom = RetryPolicy {
            max_retries: 3,
            backoff_base_cycles: 1,
            backoff_cap_cycles: 2,
        };
        assert_eq!(custom.label(), "custom");
        assert!(RetryPolicy {
            max_retries: 1,
            backoff_base_cycles: 10,
            backoff_cap_cycles: 5,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn arbitration_labels_unique() {
        let labels: std::collections::BTreeSet<_> =
            ArbitrationPolicy::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), ArbitrationPolicy::ALL.len());
    }
}
