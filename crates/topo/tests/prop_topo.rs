//! Property tests on topology invariants: placements are permutations,
//! distances are symmetric, domains are consistent with structure.

use bounce_topo::{presets, Domain, HwThreadId, MachineTopology, Placement};
use proptest::prelude::*;

fn machines() -> Vec<MachineTopology> {
    vec![
        presets::tiny_test_machine(),
        presets::dual_socket_small(),
        presets::xeon_e5_2695_v4(),
        presets::xeon_phi_7290(),
    ]
}

fn machine_strategy() -> impl Strategy<Value = MachineTopology> {
    (0usize..4).prop_map(|i| machines().swap_remove(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every placement's assignment of any n is a prefix of a
    /// permutation of all hardware threads, held in exactly n slots.
    #[test]
    fn placements_are_permutation_prefixes(topo in machine_strategy(), frac in 0.0f64..=1.0) {
        let n = ((topo.num_threads() as f64 * frac) as usize).clamp(0, topo.num_threads());
        for p in Placement::ALL {
            let assigned = p.assign(&topo, n);
            prop_assert_eq!(assigned.len(), n);
            prop_assert_eq!(assigned.capacity(), n, "{} holds spare slots", p.label());
            let set: std::collections::BTreeSet<_> = assigned.iter().collect();
            prop_assert_eq!(set.len(), n, "{} duplicated threads", p.label());
            for t in &assigned {
                prop_assert!(t.0 < topo.num_threads());
            }
        }
    }

    /// comm_domain is symmetric and SameThread only on the diagonal.
    #[test]
    fn comm_domain_symmetric(topo in machine_strategy(), a_frac in 0.0f64..1.0, b_frac in 0.0f64..1.0) {
        let n = topo.num_threads();
        let a = HwThreadId(((a_frac * n as f64) as usize).min(n - 1));
        let b = HwThreadId(((b_frac * n as f64) as usize).min(n - 1));
        let dab = topo.comm_domain(a, b);
        let dba = topo.comm_domain(b, a);
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(dab == Domain::SameThread, a == b);
    }

    /// Hop counts and wire latencies are symmetric and zero on the
    /// same tile.
    #[test]
    fn distances_symmetric(topo in machine_strategy(), a_frac in 0.0f64..1.0, b_frac in 0.0f64..1.0) {
        let n = topo.num_threads();
        let a = HwThreadId(((a_frac * n as f64) as usize).min(n - 1));
        let b = HwThreadId(((b_frac * n as f64) as usize).min(n - 1));
        prop_assert_eq!(topo.hop_count(a, b), topo.hop_count(b, a));
        prop_assert_eq!(topo.wire_cycles(a, b), topo.wire_cycles(b, a));
        if topo.tile_of(a).id == topo.tile_of(b).id {
            prop_assert_eq!(topo.hop_count(a, b), 0);
            prop_assert_eq!(topo.wire_cycles(a, b), 0);
        }
    }

    /// The domain ladder is consistent with structure: SMT siblings are
    /// on the same core, same-tile pairs on the same tile, and so on.
    #[test]
    fn domains_consistent_with_structure(topo in machine_strategy(), a_frac in 0.0f64..1.0, b_frac in 0.0f64..1.0) {
        let n = topo.num_threads();
        let a = HwThreadId(((a_frac * n as f64) as usize).min(n - 1));
        let b = HwThreadId(((b_frac * n as f64) as usize).min(n - 1));
        match topo.comm_domain(a, b) {
            Domain::SameThread => prop_assert_eq!(a, b),
            Domain::SmtSibling => {
                prop_assert_eq!(topo.core_of(a).id, topo.core_of(b).id);
                prop_assert_ne!(a, b);
            }
            Domain::SameTile => {
                prop_assert_eq!(topo.tile_of(a).id, topo.tile_of(b).id);
                prop_assert_ne!(topo.core_of(a).id, topo.core_of(b).id);
            }
            Domain::SameSocket => {
                prop_assert_eq!(topo.socket_of(a), topo.socket_of(b));
                prop_assert_ne!(topo.tile_of(a).id, topo.tile_of(b).id);
            }
            Domain::CrossSocket => {
                prop_assert_ne!(topo.socket_of(a), topo.socket_of(b));
            }
        }
    }

    /// Cycle/second conversions invert each other.
    #[test]
    fn time_conversion_roundtrip(topo in machine_strategy(), cycles in 1.0f64..1e12) {
        let s = topo.cycles_to_secs(cycles);
        let back = topo.secs_to_cycles(s);
        prop_assert!((back - cycles).abs() / cycles < 1e-9);
    }
}
