//! The atomic-cell shim: every structure in this crate is generic over
//! a [`CellModel`] so the *same* source code runs on two substrates:
//!
//! * [`StdCell`] — `std::sync::atomic`, the production substrate. All
//!   methods are `#[inline]` single-call forwarders, so a
//!   monomorphized `TicketLock<StdCell>` compiles to exactly the
//!   instructions the pre-shim concrete type did: no dynamic dispatch,
//!   no wrapper state, no extra loads.
//! * `bounce_verify::exec::Shadow` — the `schedcheck` model checker's
//!   shadow cells, which intercept every load/store/RMW, hand the
//!   scheduler a preemption point, and resolve the value against a C11
//!   store-history memory model (so a `Relaxed` load can legally
//!   return stale values and an `Acquire`/`Release` pair
//!   synchronizes).
//!
//! The public structure types (`TicketLock`, `TreiberStack`, …) are
//! aliases of the generic types at `C = StdCell`, so downstream code —
//! and this crate's own API — is unchanged.
//!
//! This module is the **only** place in `bounce-atomics` allowed to
//! construct `std::sync::atomic` types directly; the crate's
//! `clippy.toml` bans the `Atomic*::new` constructors everywhere else,
//! so every other file goes through the shim (a structure that
//! bypassed it would silently escape the model checker).

#![allow(clippy::disallowed_methods, reason = "the shim's std substrate")]

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64};

pub use std::sync::atomic::Ordering;

/// A 64-bit atomic cell as the structures see it.
///
/// Exactly the `AtomicU64` method surface this crate uses; the
/// contract for every method is the C11 contract of the same-named
/// `std::sync::atomic` method.
pub trait Cell64: Send + Sync + fmt::Debug + 'static {
    /// New cell holding `v`.
    fn new(v: u64) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, v: u64, ord: Ordering);
    /// Atomic exchange; returns the previous value.
    fn swap(&self, v: u64, ord: Ordering) -> u64;
    /// Atomic fetch-and-add (wrapping); returns the previous value.
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64;
    /// Atomic fetch-and-or; returns the previous value.
    fn fetch_or(&self, v: u64, ord: Ordering) -> u64;
    /// Atomic compare-exchange (strong). `Ok(previous)` on success,
    /// `Err(observed)` on failure.
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
}

/// A boolean atomic cell (CLH/MCS node flags).
pub trait CellBool: Send + Sync + fmt::Debug + 'static {
    /// New cell holding `v`.
    fn new(v: bool) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> bool;
    /// Atomic store.
    fn store(&self, v: bool, ord: Ordering);
}

/// An atomic pointer cell (queue/stack links, queue-lock tails).
///
/// `Send + Sync` unconditionally, like `AtomicPtr<T>`: the cell only
/// moves the *pointer* between threads; whoever dereferences it is
/// responsible for the pointee's synchronization (the structures
/// uphold this with their publish/acquire protocols).
pub trait CellPtr<T>: Send + Sync + fmt::Debug {
    /// New cell holding `p`.
    fn new(p: *mut T) -> Self;
    /// Atomic load.
    fn load(&self, ord: Ordering) -> *mut T;
    /// Atomic store.
    fn store(&self, p: *mut T, ord: Ordering);
    /// Atomic exchange; returns the previous pointer.
    fn swap(&self, p: *mut T, ord: Ordering) -> *mut T;
    /// Atomic compare-exchange (strong).
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T>;
}

/// The substrate a structure's atomic cells live on.
///
/// Structures never name `AtomicU64`/`AtomicBool`/`AtomicPtr`; they
/// use `C::U64`, `C::Bool`, `C::Ptr<T>` and call [`CellModel::spin_hint`]
/// inside wait loops. Production code instantiates `C = `[`StdCell`];
/// the `schedcheck` checker instantiates its shadow substrate.
pub trait CellModel: Sized + fmt::Debug + Default + 'static {
    /// 64-bit cell type.
    type U64: Cell64;
    /// Boolean cell type.
    type Bool: CellBool;
    /// Pointer cell type.
    type Ptr<T>: CellPtr<T>;

    /// Polite-wait hint inside a spin loop. [`StdCell`] forwards to
    /// [`std::hint::spin_loop`]; the checker's substrate uses it to
    /// mark the thread *blocked until another thread writes*, which
    /// keeps exhaustive exploration of spin loops finite. Every spin
    /// loop in this crate must call it at least once per iteration.
    fn spin_hint();
}

/// The production substrate: plain `std::sync::atomic`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdCell;

impl CellModel for StdCell {
    type U64 = AtomicU64;
    type Bool = AtomicBool;
    type Ptr<T> = StdPtr<T>;

    #[inline(always)]
    fn spin_hint() {
        std::hint::spin_loop();
    }
}

impl Cell64 for AtomicU64 {
    #[inline(always)]
    fn new(v: u64) -> Self {
        AtomicU64::new(v)
    }
    #[inline(always)]
    fn load(&self, ord: Ordering) -> u64 {
        AtomicU64::load(self, ord)
    }
    #[inline(always)]
    fn store(&self, v: u64, ord: Ordering) {
        AtomicU64::store(self, v, ord)
    }
    #[inline(always)]
    fn swap(&self, v: u64, ord: Ordering) -> u64 {
        AtomicU64::swap(self, v, ord)
    }
    #[inline(always)]
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        AtomicU64::fetch_add(self, v, ord)
    }
    #[inline(always)]
    fn fetch_or(&self, v: u64, ord: Ordering) -> u64 {
        AtomicU64::fetch_or(self, v, ord)
    }
    #[inline(always)]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        AtomicU64::compare_exchange(self, current, new, success, failure)
    }
}

impl CellBool for AtomicBool {
    #[inline(always)]
    fn new(v: bool) -> Self {
        AtomicBool::new(v)
    }
    #[inline(always)]
    fn load(&self, ord: Ordering) -> bool {
        AtomicBool::load(self, ord)
    }
    #[inline(always)]
    fn store(&self, v: bool, ord: Ordering) {
        AtomicBool::store(self, v, ord)
    }
}

/// `AtomicPtr` newtype so the `Ptr` associated type is local to this
/// crate (and so `Debug` prints the raw pointer, matching the shadow
/// substrate's formatting contract).
pub struct StdPtr<T> {
    inner: AtomicPtr<T>,
    _marker: PhantomData<fn(*mut T) -> *mut T>,
}

impl<T> fmt::Debug for StdPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StdPtr({:p})", self.inner.load(Ordering::Relaxed))
    }
}

impl<T> CellPtr<T> for StdPtr<T> {
    #[inline(always)]
    fn new(p: *mut T) -> Self {
        StdPtr {
            inner: AtomicPtr::new(p),
            _marker: PhantomData,
        }
    }
    #[inline(always)]
    fn load(&self, ord: Ordering) -> *mut T {
        self.inner.load(ord)
    }
    #[inline(always)]
    fn store(&self, p: *mut T, ord: Ordering) {
        self.inner.store(p, ord)
    }
    #[inline(always)]
    fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
        self.inner.swap(p, ord)
    }
    #[inline(always)]
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        self.inner.compare_exchange(current, new, success, failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_u64_cell_roundtrip() {
        let c = <StdCell as CellModel>::U64::new(7);
        assert_eq!(c.load(Ordering::Relaxed), 7);
        c.store(9, Ordering::Release);
        assert_eq!(c.swap(11, Ordering::AcqRel), 9);
        assert_eq!(c.fetch_add(1, Ordering::Relaxed), 11);
        assert_eq!(c.fetch_or(0b10, Ordering::Acquire), 12);
        assert_eq!(
            c.compare_exchange(12, 1, Ordering::AcqRel, Ordering::Acquire),
            Err(14)
        );
        assert_eq!(
            c.compare_exchange(14, 1, Ordering::AcqRel, Ordering::Acquire),
            Ok(14)
        );
        assert_eq!(c.load(Ordering::Acquire), 1);
    }

    #[test]
    fn std_bool_and_ptr_cells() {
        let b = <StdCell as CellModel>::Bool::new(true);
        assert!(b.load(Ordering::Acquire));
        b.store(false, Ordering::Release);
        assert!(!b.load(Ordering::Relaxed));

        let mut x = 5u32;
        let p = <StdCell as CellModel>::Ptr::<u32>::new(std::ptr::null_mut());
        assert!(p.load(Ordering::Relaxed).is_null());
        p.store(&mut x, Ordering::Release);
        assert_eq!(
            p.swap(std::ptr::null_mut(), Ordering::AcqRel),
            &mut x as *mut u32
        );
        assert_eq!(
            p.compare_exchange(
                std::ptr::null_mut(),
                &mut x,
                Ordering::AcqRel,
                Ordering::Acquire
            ),
            Ok(std::ptr::null_mut())
        );
        assert!(format!("{p:?}").starts_with("StdPtr("));
    }

    #[test]
    fn spin_hint_is_callable() {
        StdCell::spin_hint();
    }
}
