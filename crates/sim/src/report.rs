//! Simulation results: per-thread statistics, latency histograms, line
//! transfer counts by communication domain, and the energy breakdown.

use bounce_topo::Domain;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Buckets a [`Buckets`] holds inline: every latency below 2^24 cycles.
/// A latency cannot exceed its run, and the longest runs are a few
/// million cycles, so no run fills the other 40.
const INLINE: usize = 24;

/// What the upper buckets read before a sample lands in one.
static NO_SPILL: [u64; 64 - INLINE] = [0; 64 - INLINE];

/// The 64 log2 buckets of a [`LatencyStats`]: the lower 24 inline, the
/// upper 40 allocated on the first sample that lands in one. It
/// indexes, iterates and prints (`Debug`) as a `[u64; 64]` would;
/// perfbench's digests hash that text.
#[derive(Clone, Default)]
pub struct Buckets {
    low: [u64; INLINE],
    spill: Option<Box<[u64; 64 - INLINE]>>,
}

impl Buckets {
    /// All 64 buckets in order, the unallocated upper ones as 0.
    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.low.iter().chain(self.upper())
    }

    fn upper(&self) -> &[u64; 64 - INLINE] {
        self.spill.as_deref().unwrap_or(&NO_SPILL)
    }

    /// The upper buckets, allocated on first use.
    #[cold]
    #[inline(never)]
    fn spill_mut(&mut self) -> &mut [u64; 64 - INLINE] {
        self.spill.get_or_insert_with(|| Box::new(NO_SPILL))
    }

    /// Add `other`'s counts bucket by bucket.
    fn add(&mut self, other: &Buckets) {
        for (a, b) in self.low.iter_mut().zip(&other.low) {
            *a += b;
        }
        if let Some(spill) = &other.spill {
            for (a, b) in self.spill_mut().iter_mut().zip(spill.iter()) {
                *a += b;
            }
        }
    }
}

impl Index<usize> for Buckets {
    type Output = u64;

    #[inline]
    fn index(&self, bucket: usize) -> &u64 {
        match self.low.get(bucket) {
            Some(n) => n,
            None => &self.upper()[bucket - INLINE],
        }
    }
}

impl IndexMut<usize> for Buckets {
    #[inline]
    fn index_mut(&mut self, bucket: usize) -> &mut u64 {
        if bucket < INLINE {
            &mut self.low[bucket]
        } else {
            &mut self.spill_mut()[bucket - INLINE]
        }
    }
}

impl fmt::Debug for Buckets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A log2-bucketed latency histogram (cycles). Bucket `i` holds samples
/// with `floor(log2(latency)) == i`; bucket 0 also holds latency 0.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (cycles).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// log2 buckets. The lower 24 are inline, so a `LatencyStats`
    /// allocates nothing until a sample of 2^24 cycles or more.
    pub hist: Buckets,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            hist: Buckets::default(),
        }
    }
}

impl LatencyStats {
    /// Record one latency sample.
    pub fn record(&mut self, cycles: u64) {
        self.count += 1;
        self.sum += cycles;
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
        let bucket = 63 - cycles.max(1).leading_zeros() as usize;
        self.hist[bucket] += 1;
    }

    /// Arithmetic mean, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile from the histogram (midpoint of the bucket
    /// containing the quantile). `q` in [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Midpoint of [2^i, 2^(i+1)).
                return 1.5 * (1u64 << i) as f64;
            }
        }
        self.max as f64
    }

    /// Merge another histogram in.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.hist.add(&other.hist);
    }
}

/// Per-thread outcome counters (measurement window only).
#[derive(Debug, Clone, Default)]
pub struct ThreadReport {
    /// Hardware thread this simulated thread was pinned to.
    pub hw_thread: usize,
    /// Completed workload ops (spin-loads excluded).
    pub ops: u64,
    /// Ops that succeeded in their conditional sense (== `ops` for
    /// unconditional primitives).
    pub successes: u64,
    /// Conditional failures (CAS mismatch, TAS already set).
    pub failures: u64,
    /// Ops issued by *conditional* primitives (CAS, TAS) — the
    /// denominator of the failure rate. Loads inside a retry loop do not
    /// count here.
    pub cond_attempts: u64,
    /// Conditional ops that succeeded.
    pub cond_successes: u64,
    /// Completed ops per primitive, aligned with
    /// [`bounce_atomics::Primitive::ALL`] order (load, store, swap, tas,
    /// faa, cas).
    pub ops_by_prim: [u64; 6],
    /// Loads issued by spin-wait steps.
    pub spin_loads: u64,
    /// L1 hits among all issued accesses.
    pub hits: u64,
    /// L1 misses (coherence transactions) among all issued accesses.
    pub misses: u64,
    /// Directory NACKs this thread's transactions absorbed and retried
    /// after backoff (0 without fabric fault injection).
    pub retries: u64,
    /// Latency of completed workload ops.
    pub latency: LatencyStats,
}

/// Energy accounting, standing in for RAPL.
#[derive(Debug, Clone, Default)]
pub struct EnergyBreakdown {
    /// Static/active power × time for all running cores, joules.
    pub static_j: f64,
    /// Op retirement energy, joules.
    pub ops_j: f64,
    /// Cache access energy, joules.
    pub cache_j: f64,
    /// Directory transaction energy, joules.
    pub directory_j: f64,
    /// Interconnect (hop) energy, joules.
    pub network_j: f64,
    /// Memory access energy, joules.
    pub memory_j: f64,
    /// Invalidation delivery energy, joules.
    pub invalidation_j: f64,
}

impl EnergyBreakdown {
    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.static_j
            + self.ops_j
            + self.cache_j
            + self.directory_j
            + self.network_j
            + self.memory_j
            + self.invalidation_j
    }

    /// Dynamic (non-static) energy, joules.
    pub fn dynamic_j(&self) -> f64 {
        self.total_j() - self.static_j
    }
}

/// How the run's length was decided (see
/// [`RunLength`](crate::config::RunLength)): the budget, where the run
/// actually ended, and the convergence diagnostics behind an early
/// stop. Fixed-length runs report `ended_at_cycles == budget_cycles`,
/// `early_stop == false` and zeroed batch statistics.
#[derive(Debug, Clone, Default)]
pub struct RunLengthSummary {
    /// The run's cycle budget (what a fixed-length run would simulate).
    pub budget_cycles: u64,
    /// The instant the run actually ended (== `budget_cycles` without
    /// early termination).
    pub ended_at_cycles: u64,
    /// Whether the adaptive controller stopped the run before its
    /// budget.
    pub early_stop: bool,
    /// Batches collected by the adaptive controller.
    pub batches: u32,
    /// Batches discarded by MSER warmup truncation at the final check.
    pub truncated: u32,
    /// Relative 95% CI half-width of batch throughput at the end
    /// (infinite when undecidable).
    pub rel_ci_throughput: f64,
    /// Relative 95% CI half-width of batch mean latency at the end
    /// (diagnostic only; the stop decision uses throughput).
    pub rel_ci_latency: f64,
    /// Relative 95% CI half-width of per-batch Jain fairness at the
    /// end (diagnostic only).
    pub rel_ci_fairness: f64,
}

impl RunLengthSummary {
    /// Summary of a fixed-length run over `budget` cycles.
    pub fn fixed(budget: u64) -> Self {
        RunLengthSummary {
            budget_cycles: budget,
            ended_at_cycles: budget,
            ..Default::default()
        }
    }

    /// Cycles saved by early termination.
    pub fn cycles_saved(&self) -> u64 {
        self.budget_cycles.saturating_sub(self.ended_at_cycles)
    }
}

/// The full result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total simulated cycles.
    pub duration_cycles: u64,
    /// Measurement window length (duration − warmup), cycles.
    pub window_cycles: u64,
    /// Core frequency used for cycle→second conversion.
    pub freq_ghz: f64,
    /// Per-thread statistics.
    pub threads: Vec<ThreadReport>,
    /// Exclusive-ownership line transfers by communication domain
    /// (index = `Domain::ALL` order). This is the "bouncing" count.
    pub transfers_by_domain: [u64; 5],
    /// Invalidations delivered.
    pub invalidations: u64,
    /// Memory (DRAM/MCDRAM) line accesses.
    pub mem_accesses: u64,
    /// Directory transactions serviced.
    pub dir_transactions: u64,
    /// Events processed by the engine (diagnostic).
    pub events: u64,
    /// Preemption windows injected by the fault layer (0 when fault
    /// injection is off).
    pub preemptions: u64,
    /// Directory NACKs injected by the fabric fault layer over the whole
    /// run (0 when fabric faults are off).
    pub nacks: u64,
    /// Transactions re-sent after a NACK + backoff over the whole run.
    pub retries: u64,
    /// Median completed-op latency over the measurement window, cycles
    /// (histogram-bucket midpoint; see [`LatencyStats::quantile`]).
    pub p50_latency_cycles: f64,
    /// 99th-percentile completed-op latency over the window, cycles.
    pub p99_latency_cycles: f64,
    /// Histogram of directory queue depth observed at each service
    /// start (log2 buckets; depth includes the request being started).
    pub queue_depth: LatencyStats,
    /// Energy breakdown over the measurement window.
    pub energy: EnergyBreakdown,
    /// Run-length outcome: budget, actual end, early-stop diagnostics.
    pub run_length: RunLengthSummary,
}

impl SimReport {
    /// Window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Total completed workload ops in the window.
    pub fn total_ops(&self) -> u64 {
        self.threads.iter().map(|t| t.ops).sum()
    }

    /// Total successful ops in the window.
    pub fn total_successes(&self) -> u64 {
        self.threads.iter().map(|t| t.successes).sum()
    }

    /// Total conditional failures in the window.
    pub fn total_failures(&self) -> u64 {
        self.threads.iter().map(|t| t.failures).sum()
    }

    /// Total conditional-primitive attempts (CAS/TAS ops) in the window.
    pub fn total_cond_attempts(&self) -> u64 {
        self.threads.iter().map(|t| t.cond_attempts).sum()
    }

    /// Total conditional-primitive successes in the window.
    pub fn total_cond_successes(&self) -> u64 {
        self.threads.iter().map(|t| t.cond_successes).sum()
    }

    /// Completed ops of one primitive across all threads.
    pub fn total_ops_of(&self, prim: bounce_atomics::Primitive) -> u64 {
        let idx = bounce_atomics::Primitive::ALL
            .iter()
            .position(|p| *p == prim)
            .unwrap();
        self.threads.iter().map(|t| t.ops_by_prim[idx]).sum()
    }

    /// Failure fraction among *conditional* attempts (0 when the
    /// workload has none). A CAS retry loop's interleaved loads do not
    /// dilute this.
    pub fn failure_rate(&self) -> f64 {
        let a = self.total_cond_attempts();
        if a == 0 {
            0.0
        } else {
            (a - self.total_cond_successes()) as f64 / a as f64
        }
    }

    /// Aggregate throughput, operations per second.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        let w = self.window_secs();
        if w <= 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / w
        }
    }

    /// Aggregate *useful* throughput per second: for workloads with
    /// conditional primitives, only their successes count (a retry
    /// loop's loads and failed CASes are overhead); otherwise every
    /// completed op is useful.
    pub fn goodput_ops_per_sec(&self) -> f64 {
        let w = self.window_secs();
        if w <= 0.0 {
            return 0.0;
        }
        let useful = if self.total_cond_attempts() > 0 {
            self.total_cond_successes()
        } else {
            self.total_ops()
        };
        useful as f64 / w
    }

    /// Conditional attempts per second (0 when the workload has none).
    pub fn cond_attempts_per_sec(&self) -> f64 {
        let w = self.window_secs();
        if w <= 0.0 {
            0.0
        } else {
            self.total_cond_attempts() as f64 / w
        }
    }

    /// Mean per-op latency in cycles across all threads.
    pub fn mean_latency_cycles(&self) -> f64 {
        let (sum, count) = self.threads.iter().fold((0u64, 0u64), |(s, c), t| {
            (s + t.latency.sum, c + t.latency.count)
        });
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Merged latency histogram across threads.
    pub fn merged_latency(&self) -> LatencyStats {
        let mut all = LatencyStats::default();
        for t in &self.threads {
            all.merge(&t.latency);
        }
        all
    }

    /// Jain's fairness index over per-thread *useful* op counts
    /// (conditional successes when the workload has conditional ops,
    /// completed ops otherwise): `(Σx)² / (n·Σx²)`; 1.0 = perfectly
    /// fair, 1/n = one thread hogs.
    pub fn jain_fairness(&self) -> f64 {
        let cond = self.total_cond_attempts() > 0;
        let xs: Vec<f64> = self
            .threads
            .iter()
            .map(|t| {
                if cond {
                    t.cond_successes as f64
                } else {
                    t.ops as f64
                }
            })
            .collect();
        jain(&xs)
    }

    /// Energy per completed op, nanojoules (0 when no ops).
    pub fn energy_per_op_nj(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            0.0
        } else {
            self.energy.total_j() * 1e9 / ops as f64
        }
    }

    /// Total exclusive-ownership transfers (sum over domains).
    pub fn total_transfers(&self) -> u64 {
        self.transfers_by_domain.iter().sum()
    }

    /// Transfers for one domain.
    pub fn transfers(&self, d: Domain) -> u64 {
        let idx = Domain::ALL.iter().position(|x| *x == d).unwrap();
        self.transfers_by_domain[idx]
    }
}

/// Jain's fairness index of a sample vector; 1.0 for empty/degenerate
/// inputs with all-zero mass.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        1.0
    } else {
        s * s / (xs.len() as f64 * s2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn latency_stats_basic() {
        let mut l = LatencyStats::default();
        for v in [1u64, 2, 4, 8] {
            l.record(v);
        }
        assert_eq!(l.count, 4);
        assert_eq!(l.min, 1);
        assert_eq!(l.max, 8);
        assert!((l.mean() - 3.75).abs() < 1e-9);
    }

    #[test]
    fn latency_zero_goes_to_bucket_zero() {
        let mut l = LatencyStats::default();
        l.record(0);
        assert_eq!(l.hist[0], 1);
        assert_eq!(l.min, 0);
    }

    #[test]
    fn histogram_text_lists_every_bucket() {
        // The text a 64-entry `Vec` prints, which perfbench's digests
        // were pinned with: a compact histogram must not change it.
        let mut recorded = LatencyStats::default();
        let mut want = vec![0u64; 64];
        for (v, bucket) in [(0u64, 0), (3, 1), (3, 1), (1 << 20, 20), (1 << 63, 63)] {
            recorded.record(v);
            want[bucket] += 1;
        }
        for (stats, want) in [(LatencyStats::default(), vec![0; 64]), (recorded, want)] {
            let text = format!("{:?}", stats.hist);
            assert_eq!(text, format!("{want:?}"));
            assert_eq!(text.split(", ").count(), 64, "{text}");
        }
    }

    /// The histogram as a plain 64-bucket array, as `LatencyStats` kept
    /// it before its upper buckets moved out of line.
    struct Flat {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        hist: [u64; 64],
    }

    impl Flat {
        fn new() -> Self {
            Flat {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                hist: [0; 64],
            }
        }

        fn record(&mut self, cycles: u64) {
            self.count += 1;
            self.sum += cycles;
            self.min = self.min.min(cycles);
            self.max = self.max.max(cycles);
            self.hist[63 - cycles.max(1).leading_zeros() as usize] += 1;
        }

        fn merge(&mut self, other: &Flat) {
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            for (a, b) in self.hist.iter_mut().zip(&other.hist) {
                *a += b;
            }
        }

        fn quantile(&self, q: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in self.hist.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return 1.5 * (1u64 << i) as f64;
                }
            }
            self.max as f64
        }
    }

    #[derive(Debug, Clone)]
    enum HistOp {
        Record(u64),
        /// Merge in a histogram of these samples.
        Merge(Vec<u64>),
        /// `hist[bucket] += k`.
        Bump(usize, u64),
    }

    /// Latencies of every bit width, and the edges of the inline range.
    fn latency() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just((1 << 24) - 1),
            Just(1 << 24),
            Just(u64::MAX),
            (0u32..64, any::<u64>()).prop_map(|(shift, bits)| bits >> shift),
            (0u32..64, any::<u64>()).prop_map(|(shift, bits)| bits >> shift),
        ]
    }

    fn hist_op() -> impl Strategy<Value = HistOp> {
        prop_oneof![
            latency().prop_map(HistOp::Record),
            latency().prop_map(HistOp::Record),
            collection::vec(latency(), 0..6).prop_map(HistOp::Merge),
            (0usize..64, 0u64..1000).prop_map(|(bucket, k)| HistOp::Bump(bucket, k)),
        ]
    }

    /// Record each sample into both forms, skipping any that would
    /// overflow the sum (a run cannot make one).
    fn record_both(stats: &mut LatencyStats, flat: &mut Flat, samples: &[u64]) {
        for &v in samples {
            if flat.sum.checked_add(v).is_some() {
                stats.record(v);
                flat.record(v);
            }
        }
    }

    proptest! {
        /// The inline-plus-spill histogram reads, prints and answers
        /// quantiles exactly as the plain array did.
        #[test]
        fn buckets_match_a_plain_array(ops in collection::vec(hist_op(), 0..60)) {
            let mut stats = LatencyStats::default();
            let mut flat = Flat::new();
            for op in &ops {
                match op {
                    HistOp::Record(v) => record_both(&mut stats, &mut flat, &[*v]),
                    HistOp::Merge(samples) => {
                        let mut other = LatencyStats::default();
                        let mut other_flat = Flat::new();
                        record_both(&mut other, &mut other_flat, samples);
                        if flat.sum.checked_add(other_flat.sum).is_some() {
                            stats.merge(&other);
                            flat.merge(&other_flat);
                        }
                    }
                    HistOp::Bump(bucket, k) => {
                        stats.hist[*bucket] += k;
                        flat.hist[*bucket] += k;
                    }
                }
            }
            prop_assert_eq!(
                (stats.count, stats.sum, stats.min, stats.max),
                (flat.count, flat.sum, flat.min, flat.max)
            );
            prop_assert_eq!(format!("{:?}", stats.hist), format!("{:?}", flat.hist));
            let listed: Vec<u64> = stats.hist.iter().copied().collect();
            prop_assert_eq!(listed, flat.hist.to_vec());
            for bucket in 0..64 {
                prop_assert_eq!(stats.hist[bucket], flat.hist[bucket], "bucket {}", bucket);
            }
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(
                    stats.quantile(q).to_bits(),
                    flat.quantile(q).to_bits(),
                    "q = {}",
                    q
                );
            }
        }
    }

    #[test]
    fn quantiles_monotone() {
        let mut l = LatencyStats::default();
        for i in 0..1000u64 {
            l.record(i + 1);
        }
        let p50 = l.quantile(0.5);
        let p99 = l.quantile(0.99);
        assert!(p50 <= p99, "p50={p50} p99={p99}");
        assert!(p50 > 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyStats::default();
        a.record(10);
        let mut b = LatencyStats::default();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.min, 10);
        assert_eq!(a.max, 100);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let j = jain(&[1.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
    }

    fn mk_report() -> SimReport {
        let mut t0 = ThreadReport {
            ops: 100,
            successes: 90,
            failures: 10,
            cond_attempts: 100,
            cond_successes: 90,
            ..ThreadReport::default()
        };
        t0.latency.record(50);
        let mut t1 = ThreadReport {
            ops: 100,
            successes: 90,
            failures: 10,
            cond_attempts: 100,
            cond_successes: 90,
            ..ThreadReport::default()
        };
        t1.latency.record(150);
        SimReport {
            duration_cycles: 1_000_000,
            window_cycles: 900_000,
            freq_ghz: 1.0,
            threads: vec![t0, t1],
            transfers_by_domain: [0, 1, 2, 3, 4],
            invalidations: 5,
            mem_accesses: 2,
            dir_transactions: 9,
            events: 1000,
            preemptions: 0,
            nacks: 0,
            retries: 0,
            p50_latency_cycles: 0.0,
            p99_latency_cycles: 0.0,
            queue_depth: LatencyStats::default(),
            energy: EnergyBreakdown {
                static_j: 1.0,
                ops_j: 0.5,
                ..Default::default()
            },
            run_length: RunLengthSummary::fixed(1_000_000),
        }
    }

    #[test]
    fn report_aggregates() {
        let r = mk_report();
        assert_eq!(r.total_ops(), 200);
        assert_eq!(r.total_successes(), 180);
        assert!((r.failure_rate() - 0.1).abs() < 1e-12);
        let thr = r.throughput_ops_per_sec();
        // 200 ops in 900k cycles at 1 GHz = 0.9 ms.
        assert!((thr - 200.0 / 0.0009).abs() / thr < 1e-9);
        assert!((r.jain_fairness() - 1.0).abs() < 1e-12);
        assert!((r.mean_latency_cycles() - 100.0).abs() < 1e-9);
        assert_eq!(r.total_transfers(), 10);
        assert_eq!(r.transfers(Domain::CrossSocket), 4);
        assert!((r.energy_per_op_nj() - 1.5e9 / 200.0).abs() < 1e-3);
    }

    #[test]
    fn run_length_summary_savings() {
        let fixed = RunLengthSummary::fixed(1000);
        assert_eq!(fixed.cycles_saved(), 0);
        assert!(!fixed.early_stop);
        let early = RunLengthSummary {
            budget_cycles: 1000,
            ended_at_cycles: 250,
            early_stop: true,
            ..Default::default()
        };
        assert_eq!(early.cycles_saved(), 750);
    }

    #[test]
    fn energy_totals() {
        let e = EnergyBreakdown {
            static_j: 2.0,
            ops_j: 0.25,
            cache_j: 0.25,
            directory_j: 0.125,
            network_j: 0.125,
            memory_j: 0.125,
            invalidation_j: 0.125,
        };
        assert!((e.total_j() - 3.0).abs() < 1e-12);
        assert!((e.dynamic_j() - 1.0).abs() < 1e-12);
    }
}
