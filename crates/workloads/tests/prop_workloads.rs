//! Property tests: every workload variant compiles to valid simulator
//! programs for arbitrary thread counts, and the address map keeps its
//! isolation guarantees.

use bounce_atomics::Primitive;
use bounce_sim::program::Step;
use bounce_workloads::{AddressMap, LockShape, Workload};
use proptest::prelude::*;

fn prim_strategy() -> impl Strategy<Value = Primitive> {
    prop_oneof![
        Just(Primitive::Load),
        Just(Primitive::Store),
        Just(Primitive::Swap),
        Just(Primitive::Tas),
        Just(Primitive::Faa),
        Just(Primitive::Cas),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        prim_strategy().prop_map(|prim| Workload::HighContention { prim }),
        (prim_strategy(), 0u64..500)
            .prop_map(|(prim, work)| Workload::LowContention { prim, work }),
        (prim_strategy(), 0u64..500).prop_map(|(prim, work)| Workload::Diluted { prim, work }),
        (0u64..200, 0u64..200).prop_map(|(window, work)| Workload::CasRetryLoop { window, work }),
        (1usize..8, prim_strategy())
            .prop_map(|(writers, prim)| Workload::MixedReadWrite { writers, prim }),
        (0usize..4, 1u64..500, 1u64..500).prop_map(|(s, cs, noncs)| Workload::LockHandoff {
            shape: LockShape::ALL[s],
            cs,
            noncs
        }),
        prim_strategy().prop_map(|prim| Workload::FalseSharing { prim }),
        (0u64..100, 1u64..1000).prop_map(|(window, b)| Workload::CasRetryLoopBackoff {
            window,
            backoff: [b, b * 2, b * 4]
        }),
        (prim_strategy(), 1usize..32).prop_map(|(prim, lines)| Workload::MultiLine { prim, lines }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every workload compiles one valid program per thread — the
    /// builders never panic and Program::new never rejects — for any
    /// thread count up to the KNL maximum.
    #[test]
    fn all_workloads_compile_for_any_n(w in workload_strategy(), n in 1usize..=288) {
        let programs = w.sim_programs(n);
        prop_assert_eq!(programs.len(), n, "{}", w.label());
        for p in &programs {
            prop_assert!(!p.is_empty());
        }
    }

    /// Labels are stable and unique per configuration (within the
    /// generated space two equal workloads share a label; unequal
    /// configurations of the same variant differ).
    #[test]
    fn labels_deterministic(w in workload_strategy()) {
        prop_assert_eq!(w.label(), w.clone().label());
        prop_assert!(!w.label().is_empty());
    }

    /// The address map: every thread's lines are distinct from the
    /// shared lines for LC workloads of any size.
    #[test]
    fn private_lines_never_collide_with_shared(n in 1usize..288) {
        let w = Workload::LowContention { prim: Primitive::Faa, work: 0 };
        let shared = AddressMap.shared().line;
        for (i, p) in w.sim_programs(n).iter().enumerate() {
            let lines: Vec<_> = p.steps().iter().filter_map(|s| s.thread_word(i)).collect();
            prop_assert_eq!(lines.len(), 1);
            prop_assert_ne!(lines[0].line, shared);
        }
    }

    /// MCS per-thread node lines are unique across threads and disjoint
    /// from the tail word.
    #[test]
    fn mcs_node_lines_unique(n in 2usize..128) {
        let w = Workload::LockHandoff { shape: LockShape::Mcs, cs: 10, noncs: 10 };
        let programs = w.sim_programs(n);
        // Collect the resolved "arm own flag" store target per thread.
        let mut flag_lines = std::collections::HashSet::new();
        for (i, p) in programs.iter().enumerate() {
            let flag = p.steps().iter().find_map(|s| match s {
                Step::OpIndexed {
                    prim: Primitive::Store,
                    operand: bounce_sim::program::Operand::Const(1),
                    ..
                } => s.thread_word(i).map(|a| a.line),
                _ => None,
            });
            let flag = flag.expect("mcs program arms its flag");
            prop_assert!(flag_lines.insert(flag), "duplicate flag line");
            prop_assert_ne!(flag, AddressMap.lock().line);
        }
    }
}
