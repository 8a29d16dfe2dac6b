//! Property tests on the simulator: value conservation under arbitrary
//! contention configurations, determinism, and latency-histogram laws.

use bounce_atomics::Primitive;
use bounce_sim::cache::WordAddr;
use bounce_sim::program::builders;
use bounce_sim::report::LatencyStats;
use bounce_sim::{ArbitrationPolicy, Engine, SimConfig, SimParams};
use bounce_topo::{presets, Placement};
use proptest::prelude::*;

fn config(duration: u64, arbitration: ArbitrationPolicy, warmup_zero: bool) -> SimConfig {
    let mut params = SimParams::e5();
    params.arbitration = arbitration;
    let mut cfg = SimConfig::new(params, duration);
    if warmup_zero {
        cfg.warmup_cycles = 0;
    }
    cfg
}

fn arb_policy() -> impl Strategy<Value = ArbitrationPolicy> {
    prop_oneof![
        Just(ArbitrationPolicy::Fifo),
        Just(ArbitrationPolicy::Random),
        Just(ArbitrationPolicy::NearestFirst),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FAA conservation: with zero warmup, the final word value equals
    /// the number of completed increments plus at most n in-flight ops
    /// (linearised but not yet completed at the horizon).
    #[test]
    fn faa_conservation(n in 1usize..8, arb in arb_policy(), duration in 50_000u64..300_000) {
        let topo = presets::tiny_test_machine();
        let addr = WordAddr::of_line(0x4000);
        let mut eng = Engine::new(&topo, config(duration, arb, true));
        for hw in Placement::Packed.assign(&topo, n) {
            eng.add_thread(hw, builders::op_loop(Primitive::Faa, addr, 0));
        }
        let report = eng.try_run().expect("run completes");
        let completed = report.total_ops();
        let word = eng.word(addr);
        prop_assert!(word >= completed, "word {word} < completed {completed}");
        prop_assert!(
            word <= completed + n as u64,
            "word {word} > completed {completed} + n {n}"
        );
        prop_assert_eq!(report.total_failures(), 0);
    }

    /// CAS conservation: every successful CAS incremented by one; the
    /// word equals successes (± in-flight).
    #[test]
    fn cas_conservation(n in 1usize..8, window in 0u64..60, arb in arb_policy()) {
        let topo = presets::tiny_test_machine();
        let addr = WordAddr::of_line(0x4000);
        let mut eng = Engine::new(&topo, config(200_000, arb, true));
        for hw in Placement::Packed.assign(&topo, n) {
            eng.add_thread(hw, builders::cas_increment_loop(addr, window, 0));
        }
        let report = eng.try_run().expect("run completes");
        // Only successful CASes increment; the loop's loads are counted
        // separately by the report.
        let successes = report.total_cond_successes();
        let word = eng.word(addr);
        prop_assert!(word >= successes, "word {} successes {}", word, successes);
        prop_assert!(word <= successes + n as u64);
        prop_assert!(report.total_cond_attempts() >= successes);
    }

    /// Single-writer TAS: the word ends with bit 0 set after any run in
    /// which at least one TAS completed, and exactly one TAS per run
    /// succeeds (the bit is never cleared).
    #[test]
    fn tas_single_success(n in 1usize..8, arb in arb_policy()) {
        let topo = presets::tiny_test_machine();
        let addr = WordAddr::of_line(0x4000);
        let mut eng = Engine::new(&topo, config(100_000, arb, true));
        for hw in Placement::Packed.assign(&topo, n) {
            eng.add_thread(hw, builders::op_loop(Primitive::Tas, addr, 0));
        }
        let report = eng.try_run().expect("run completes");
        if report.total_ops() > 0 {
            prop_assert_eq!(eng.word(addr) & 1, 1);
        }
        // The bit is set exactly once; every other attempt fails.
        prop_assert!(report.total_successes() <= 1);
    }

    /// Runs are bit-for-bit deterministic for every arbitration policy
    /// (the Random policy is seeded).
    #[test]
    fn determinism(n in 2usize..8, arb in arb_policy(), window in 0u64..50) {
        let topo = presets::tiny_test_machine();
        let addr = WordAddr::of_line(0x4000);
        let run = || {
            let mut eng = Engine::new(&topo, config(150_000, arb, false));
            for hw in Placement::Packed.assign(&topo, n) {
                eng.add_thread(hw, builders::cas_increment_loop(addr, window, 0));
            }
            let r = eng.try_run().expect("run completes");
            (r.total_ops(), r.total_failures(), r.events, eng.word(addr))
        };
        prop_assert_eq!(run(), run());
    }

    /// Throughput never exceeds the single-thread L1-hit bound.
    #[test]
    fn throughput_bounded_by_hit_rate(n in 1usize..8) {
        let topo = presets::tiny_test_machine();
        let addr = WordAddr::of_line(0x4000);
        let params = SimParams::e5();
        let per_op = (params.l1_hit + params.rmw_exec) as f64;
        let bound = topo.freq_ghz * 1e9 / per_op * n as f64;
        let mut eng = Engine::new(&topo, config(200_000, ArbitrationPolicy::Fifo, false));
        for hw in Placement::Packed.assign(&topo, n) {
            eng.add_thread(hw, builders::op_loop(Primitive::Faa, addr, 0));
        }
        let r = eng.try_run().expect("run completes");
        prop_assert!(
            r.throughput_ops_per_sec() <= bound * 1.05,
            "{} > {}",
            r.throughput_ops_per_sec(),
            bound
        );
    }

    /// LatencyStats: quantiles are monotone and mean lies within
    /// [min, max] for arbitrary samples.
    #[test]
    fn latency_stats_laws(samples in proptest::collection::vec(0u64..1_000_000, 1..500), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let mut stats = LatencyStats::default();
        for &s in &samples {
            stats.record(s);
        }
        let lo = q1.min(q2);
        let hi = q1.max(q2);
        prop_assert!(stats.quantile(lo) <= stats.quantile(hi) + 1e-9);
        let mean = stats.mean();
        prop_assert!(mean >= stats.min as f64 && mean <= stats.max as f64);
        prop_assert_eq!(stats.count, samples.len() as u64);
    }

    /// Queue-depth statistics: under saturation with n contenders the
    /// observed depths never exceed n, and the mean depth grows with n.
    #[test]
    fn queue_depth_bounded_by_contenders(n in 2usize..8) {
        let topo = presets::tiny_test_machine();
        let addr = WordAddr::of_line(0x4000);
        let mut eng = Engine::new(&topo, config(200_000, ArbitrationPolicy::Fifo, false));
        for hw in Placement::Packed.assign(&topo, n) {
            eng.add_thread(hw, builders::op_loop(Primitive::Faa, addr, 0));
        }
        let r = eng.try_run().expect("run completes");
        prop_assert!(r.queue_depth.count > 0);
        prop_assert!(
            r.queue_depth.max <= n as u64,
            "depth {} > contenders {}",
            r.queue_depth.max,
            n
        );
    }

    /// FAA conservation holds under Zipf-skewed multi-line traffic too:
    /// the sum over all line words equals the completed increments plus
    /// at most n in flight.
    #[test]
    fn zipf_faa_conservation(n in 1usize..8, theta_x10 in 0u32..25, lines in 1usize..6) {
        use bounce_workloads::zipf_program;
        let topo = presets::tiny_test_machine();
        let base = WordAddr::of_line(0x8000);
        let mut eng = Engine::new(&topo, config(150_000, ArbitrationPolicy::Fifo, true));
        for (i, hw) in Placement::Packed.assign(&topo, n).into_iter().enumerate() {
            eng.add_thread(
                hw,
                zipf_program(Primitive::Faa, base, lines, theta_x10 as f64 / 10.0, 3, i, 32),
            );
        }
        let report = eng.try_run().expect("run completes");
        let completed = report.total_ops();
        let word_sum: u64 = (0..lines)
            .map(|k| eng.word(WordAddr::of_line(0x8000 + 128 * k as u64)))
            .sum();
        prop_assert!(word_sum >= completed);
        prop_assert!(word_sum <= completed + n as u64);
    }

    /// Energy accounting is non-negative and grows with simulated work.
    #[test]
    fn energy_nonnegative(n in 1usize..6) {
        let topo = presets::tiny_test_machine();
        let addr = WordAddr::of_line(0x4000);
        let mut eng = Engine::new(&topo, config(100_000, ArbitrationPolicy::Fifo, false));
        for hw in Placement::Packed.assign(&topo, n) {
            eng.add_thread(hw, builders::op_loop(Primitive::Swap, addr, 0));
        }
        let r = eng.try_run().expect("run completes");
        prop_assert!(r.energy.total_j() > 0.0);
        prop_assert!(r.energy.dynamic_j() >= 0.0);
        prop_assert!(r.energy.static_j > 0.0);
    }
}
