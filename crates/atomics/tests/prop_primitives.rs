//! Property tests: the two faces of every primitive (pure value
//! semantics and native execution) must agree on arbitrary inputs, and
//! the algebraic laws of each primitive must hold.

#![allow(clippy::disallowed_methods, reason = "tests the native face")]

use bounce_atomics::Primitive;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

proptest! {
    /// Native execution and pure value semantics agree for every
    /// primitive on arbitrary (current, operand, expected) triples.
    #[test]
    fn native_matches_value_semantics(
        cur in any::<u64>(),
        operand in any::<u64>(),
        expected in any::<u64>(),
    ) {
        for p in Primitive::ALL {
            let cell = AtomicU64::new(cur);
            let native = p.execute_native(&cell, operand, expected);
            let (new_val, out) = p.apply_value(cur, operand, expected);
            prop_assert_eq!(cell.load(Ordering::SeqCst), new_val, "{}", p);
            prop_assert_eq!(native.success, out.success, "{}", p);
            if !matches!(p, Primitive::Store) {
                prop_assert_eq!(native.prev, out.prev, "{}", p);
            }
        }
    }

    /// A load never changes the word.
    #[test]
    fn load_is_pure(cur in any::<u64>(), op in any::<u64>(), exp in any::<u64>()) {
        let (new, out) = Primitive::Load.apply_value(cur, op, exp);
        prop_assert_eq!(new, cur);
        prop_assert_eq!(out.prev, cur);
        prop_assert!(out.success);
    }

    /// CAS succeeds iff the expected value matches, and only then
    /// changes the word.
    #[test]
    fn cas_law(cur in any::<u64>(), op in any::<u64>(), exp in any::<u64>()) {
        let (new, out) = Primitive::Cas.apply_value(cur, op, exp);
        if cur == exp {
            prop_assert!(out.success);
            prop_assert_eq!(new, op);
        } else {
            prop_assert!(!out.success);
            prop_assert_eq!(new, cur);
        }
        prop_assert_eq!(out.prev, cur);
    }

    /// TAS is idempotent and only touches bit 0.
    #[test]
    fn tas_law(cur in any::<u64>()) {
        let (once, o1) = Primitive::Tas.apply_value(cur, 0, 0);
        let (twice, o2) = Primitive::Tas.apply_value(once, 0, 0);
        prop_assert_eq!(once, cur | 1);
        prop_assert_eq!(twice, once, "idempotent");
        prop_assert_eq!(o1.success, cur & 1 == 0);
        prop_assert!(!o2.success, "second TAS must fail");
    }

    /// FAA composes additively (wrapping).
    #[test]
    fn faa_additive(cur in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let (v1, _) = Primitive::Faa.apply_value(cur, a, 0);
        let (v2, _) = Primitive::Faa.apply_value(v1, b, 0);
        prop_assert_eq!(v2, cur.wrapping_add(a).wrapping_add(b));
    }

    /// SWAP twice returns the original value as `prev` of the second.
    #[test]
    fn swap_roundtrip(cur in any::<u64>(), a in any::<u64>()) {
        let (v1, o1) = Primitive::Swap.apply_value(cur, a, 0);
        prop_assert_eq!((v1, o1.prev), (a, cur));
        let (v2, o2) = Primitive::Swap.apply_value(v1, cur, 0);
        prop_assert_eq!((v2, o2.prev), (cur, a));
    }

    /// Labels round-trip for all primitives (exhaustive, but cheap to
    /// keep with the rest).
    #[test]
    fn label_roundtrip(_x in 0u8..1) {
        for p in Primitive::ALL {
            prop_assert_eq!(Primitive::from_label(p.label()), Some(p));
        }
    }
}
