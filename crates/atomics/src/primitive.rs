//! The atomic primitives under study, with value semantics and native
//! execution.
//!
//! The paper measures the processor's read-modify-write primitives plus
//! plain loads/stores as a baseline. We give each primitive *two* faces:
//!
//! * [`Primitive::apply_value`] — a pure function over a 64-bit word.
//!   The coherence simulator executes this against the simulated memory
//!   image, so CAS success/failure, FAA monotonicity etc. are *real*
//!   (value-accurate simulation), not modelled probabilistically.
//! * [`Primitive::execute_native`] — the same operation issued against a
//!   real [`AtomicU64`] with sequentially-consistent ordering, used by the
//!   native measurement backend.
//!
//! On x86 every RMW here compiles to a `lock`-prefixed instruction
//! (`lock cmpxchg`, `lock xadd`, `xchg` — implicitly locked, `lock bts`);
//! loads/stores are plain `mov`s. The *uncontended* cost asymmetry between
//! these is exactly what experiment E2 (Table 2) measures.

use std::sync::atomic::{AtomicU64, Ordering};

/// An atomic primitive applied to one 64-bit memory word.
///
/// ```
/// use bounce_atomics::Primitive;
/// use std::sync::atomic::AtomicU64;
///
/// // Native execution (what the measurement harness runs) ...
/// let cell = AtomicU64::new(5);
/// let out = Primitive::Cas.execute_native(&cell, 6, 5);
/// assert!(out.success);
///
/// // ... and pure value semantics (what the simulator applies) agree.
/// let (new, out2) = Primitive::Cas.apply_value(5, 6, 5);
/// assert_eq!(new, 6);
/// assert_eq!(out2.success, out.success);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Plain atomic load (`mov` on x86).
    Load,
    /// Plain atomic store (`mov`; needs exclusive ownership of the line).
    Store,
    /// Unconditional exchange (`xchg`, implicitly locked on x86).
    Swap,
    /// Test-and-set of the least-significant bit (`lock bts`). Returns the
    /// previous bit; "succeeds" when the bit was clear.
    Tas,
    /// Fetch-and-add (`lock xadd`).
    Faa,
    /// Compare-and-swap (`lock cmpxchg`). Succeeds iff the current value
    /// equals the expected value.
    Cas,
}

/// Result of applying a primitive: the value observed before the
/// operation, and whether the operation "succeeded".
///
/// Success is only meaningful for the conditional primitives: CAS (value
/// matched) and TAS (bit was clear). Unconditional primitives always
/// report `success = true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Value of the word immediately before the operation.
    pub prev: u64,
    /// Whether the operation took effect in its conditional sense.
    pub success: bool,
}

impl Primitive {
    /// All primitives in presentation order (baselines first).
    pub const ALL: [Primitive; 6] = [
        Primitive::Load,
        Primitive::Store,
        Primitive::Swap,
        Primitive::Tas,
        Primitive::Faa,
        Primitive::Cas,
    ];

    /// The read-modify-write primitives (the paper's focus).
    pub const RMW: [Primitive; 4] = [
        Primitive::Swap,
        Primitive::Tas,
        Primitive::Faa,
        Primitive::Cas,
    ];

    /// Position of this primitive in [`Primitive::ALL`], in O(1).
    ///
    /// `ALL` lists the variants in declaration order, so the discriminant
    /// *is* the index (checked by a unit test). Hot paths use this
    /// instead of scanning `ALL` per operation.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase label for tables and CLI arguments.
    pub fn label(&self) -> &'static str {
        match self {
            Primitive::Load => "load",
            Primitive::Store => "store",
            Primitive::Swap => "swap",
            Primitive::Tas => "tas",
            Primitive::Faa => "faa",
            Primitive::Cas => "cas",
        }
    }

    /// Parse a label produced by [`Primitive::label`].
    pub fn from_label(s: &str) -> Option<Primitive> {
        match s {
            "load" => Some(Primitive::Load),
            "store" => Some(Primitive::Store),
            "swap" | "xchg" => Some(Primitive::Swap),
            "tas" => Some(Primitive::Tas),
            "faa" | "xadd" => Some(Primitive::Faa),
            "cas" | "cmpxchg" => Some(Primitive::Cas),
            _ => None,
        }
    }

    /// Whether this is a read-modify-write (serialising, `lock`-prefixed)
    /// operation.
    pub fn is_rmw(&self) -> bool {
        !matches!(self, Primitive::Load) && !matches!(self, Primitive::Store)
    }

    /// Whether executing the primitive requires *exclusive* (M-state)
    /// ownership of the cache line. Loads are satisfied by a shared copy;
    /// everything that may write needs exclusivity — including a CAS that
    /// ends up failing (the line is acquired for write before the compare
    /// on all implementations we model, matching x86).
    pub fn needs_exclusive(&self) -> bool {
        !matches!(self, Primitive::Load)
    }

    /// Whether the primitive can fail in its conditional sense.
    pub fn is_conditional(&self) -> bool {
        matches!(self, Primitive::Cas | Primitive::Tas)
    }

    /// Pure value semantics: given the current word, the operand, and (for
    /// CAS) the expected value, produce the new word and the outcome.
    ///
    /// * `Load` leaves the word unchanged; `prev` carries the value read.
    /// * `Store`/`Swap` write `operand` unconditionally.
    /// * `Tas` sets bit 0; succeeds when it was clear. `operand` ignored.
    /// * `Faa` adds `operand` (wrapping).
    /// * `Cas` writes `operand` iff the word equals `expected`.
    pub fn apply_value(&self, current: u64, operand: u64, expected: u64) -> (u64, OpOutcome) {
        match self {
            Primitive::Load => (
                current,
                OpOutcome {
                    prev: current,
                    success: true,
                },
            ),
            Primitive::Store | Primitive::Swap => (
                operand,
                OpOutcome {
                    prev: current,
                    success: true,
                },
            ),
            Primitive::Tas => {
                let was_set = current & 1 == 1;
                (
                    current | 1,
                    OpOutcome {
                        prev: current,
                        success: !was_set,
                    },
                )
            }
            Primitive::Faa => (
                current.wrapping_add(operand),
                OpOutcome {
                    prev: current,
                    success: true,
                },
            ),
            Primitive::Cas => {
                if current == expected {
                    (
                        operand,
                        OpOutcome {
                            prev: current,
                            success: true,
                        },
                    )
                } else {
                    (
                        current,
                        OpOutcome {
                            prev: current,
                            success: false,
                        },
                    )
                }
            }
        }
    }

    /// Execute the primitive on a real atomic with `SeqCst` ordering
    /// (matching what the `lock` prefix gives on x86). Semantics mirror
    /// [`Primitive::apply_value`] exactly.
    #[inline]
    pub fn execute_native(&self, cell: &AtomicU64, operand: u64, expected: u64) -> OpOutcome {
        match self {
            Primitive::Load => OpOutcome {
                prev: cell.load(Ordering::SeqCst),
                success: true,
            },
            Primitive::Store => {
                // A plain store does not return the previous value on
                // hardware; report 0 as `prev` is unobservable.
                cell.store(operand, Ordering::SeqCst);
                OpOutcome {
                    prev: 0,
                    success: true,
                }
            }
            Primitive::Swap => OpOutcome {
                prev: cell.swap(operand, Ordering::SeqCst),
                success: true,
            },
            Primitive::Tas => {
                let prev = cell.fetch_or(1, Ordering::SeqCst);
                OpOutcome {
                    prev,
                    success: prev & 1 == 0,
                }
            }
            Primitive::Faa => OpOutcome {
                prev: cell.fetch_add(operand, Ordering::SeqCst),
                success: true,
            },
            Primitive::Cas => {
                match cell.compare_exchange(expected, operand, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(prev) => OpOutcome {
                        prev,
                        success: true,
                    },
                    Err(prev) => OpOutcome {
                        prev,
                        success: false,
                    },
                }
            }
        }
    }
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_all_order() {
        for (i, p) in Primitive::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i, "{p}");
        }
    }

    #[test]
    fn labels_roundtrip() {
        for p in Primitive::ALL {
            assert_eq!(Primitive::from_label(p.label()), Some(p));
        }
        assert_eq!(Primitive::from_label("xadd"), Some(Primitive::Faa));
        assert_eq!(Primitive::from_label("bogus"), None);
    }

    #[test]
    fn classification() {
        assert!(!Primitive::Load.is_rmw());
        assert!(!Primitive::Store.is_rmw());
        assert!(Primitive::Cas.is_rmw() && Primitive::Faa.is_rmw());
        assert!(!Primitive::Load.needs_exclusive());
        assert!(Primitive::Store.needs_exclusive());
        assert!(Primitive::Cas.is_conditional() && Primitive::Tas.is_conditional());
        assert!(!Primitive::Faa.is_conditional());
    }

    #[test]
    fn value_semantics_load_store_swap() {
        let (v, o) = Primitive::Load.apply_value(7, 99, 0);
        assert_eq!((v, o.prev, o.success), (7, 7, true));
        let (v, o) = Primitive::Store.apply_value(7, 99, 0);
        assert_eq!((v, o.prev), (99, 7));
        let (v, o) = Primitive::Swap.apply_value(7, 99, 0);
        assert_eq!((v, o.prev), (99, 7));
    }

    #[test]
    fn value_semantics_tas() {
        let (v, o) = Primitive::Tas.apply_value(0, 0, 0);
        assert_eq!((v, o.success), (1, true));
        let (v, o) = Primitive::Tas.apply_value(1, 0, 0);
        assert_eq!((v, o.success), (1, false));
        // TAS preserves the upper bits.
        let (v, _) = Primitive::Tas.apply_value(0xF0, 0, 0);
        assert_eq!(v, 0xF1);
    }

    #[test]
    fn value_semantics_faa_wraps() {
        let (v, o) = Primitive::Faa.apply_value(u64::MAX, 2, 0);
        assert_eq!(v, 1);
        assert_eq!(o.prev, u64::MAX);
    }

    #[test]
    fn value_semantics_cas() {
        let (v, o) = Primitive::Cas.apply_value(5, 9, 5);
        assert_eq!((v, o.success, o.prev), (9, true, 5));
        let (v, o) = Primitive::Cas.apply_value(5, 9, 4);
        assert_eq!((v, o.success, o.prev), (5, false, 5));
    }

    #[test]
    fn native_matches_value_semantics() {
        for p in Primitive::ALL {
            let cell = AtomicU64::new(5); // detlint: allow(direct-atomic): native face tests real std atomics
            let native = p.execute_native(&cell, 9, 5);
            let (expected_new, expected_out) = p.apply_value(5, 9, 5);
            assert_eq!(cell.load(Ordering::SeqCst), expected_new, "{p}: new value");
            assert_eq!(native.success, expected_out.success, "{p}: success");
            if !matches!(p, Primitive::Store) {
                assert_eq!(native.prev, expected_out.prev, "{p}: prev");
            }
        }
    }

    #[test]
    fn native_cas_failure_observes_current() {
        let cell = AtomicU64::new(42); // detlint: allow(direct-atomic): native face tests real std atomics
        let o = Primitive::Cas.execute_native(&cell, 1, 0);
        assert!(!o.success);
        assert_eq!(o.prev, 42);
        assert_eq!(cell.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn native_faa_accumulates() {
        let cell = AtomicU64::new(0); // detlint: allow(direct-atomic): native face tests real std atomics
        for i in 0..10 {
            let o = Primitive::Faa.execute_native(&cell, 3, 0);
            assert_eq!(o.prev, i * 3);
        }
        assert_eq!(cell.load(Ordering::SeqCst), 30);
    }
}
