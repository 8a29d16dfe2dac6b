//! Spin-lock implementations built directly on the studied primitives.
//!
//! The paper's application context: the choice of atomic primitive (and
//! how it is used) determines lock behaviour under contention. We provide
//! the classic ladder:
//!
//! * [`TasLock`] — spin on `TAS` (`lock bts`): every spin is an RMW, so
//!   every spin demands exclusive ownership of the line → maximal
//!   bouncing.
//! * [`TtasLock`] — test-and-test-and-set: spin on a *load* (shared copy,
//!   no traffic) and only attempt the RMW when the lock looks free.
//! * [`TicketLock`] — one `FAA` per acquisition plus a load spin; FIFO
//!   fair.
//! * [`ClhLock`] — queue lock; each thread spins on its predecessor's
//!   *private* line, so handoff costs exactly one line transfer.
//!
//! All locks implement [`RawLock`]: `lock` returns an opaque token that
//! must be passed back to `unlock` (the CLH lock stores its queue node
//! there; the others ignore it).
//!
//! Every lock is generic over the [`CellModel`] substrate; the default
//! `C = StdCell` instantiation is the production lock, and the
//! `schedcheck` checker instantiates the same source on shadow cells to
//! exhaustively verify the `Acquire`/`Release` protocol. Spin loops call
//! `C::spin_hint()` once per iteration — a `pause` on hardware, a
//! block-until-someone-writes marker under the checker.

use crate::backoff::Backoff;
use crate::cell::{Cell64, CellBool, CellModel, CellPtr, Ordering, StdCell};
use crate::padded::CachePadded;

/// Lock algorithm *shape* as the analytical model and the workload layer
/// see it: the four-rung ladder of experiment E10 (TAS → TTAS → ticket →
/// MCS), each shape mapping to a distinct handoff-cost formula.
///
/// This is the model-facing sibling of [`LockKind`] (which identifies
/// concrete native implementations, including CLH): the simulator
/// workloads and the `predict` layer both key on `LockShape`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockShape {
    /// Spin on TAS — every spin is an RMW on the lock line.
    Tas,
    /// Test-and-test-and-set — local spinning, RMW only when free.
    Ttas,
    /// Ticket lock — one FAA per acquisition, FIFO fair.
    Ticket,
    /// MCS queue lock — spin on a private node; one transfer per handoff.
    Mcs,
}

impl LockShape {
    /// All shapes.
    pub const ALL: [LockShape; 4] = [
        LockShape::Tas,
        LockShape::Ttas,
        LockShape::Ticket,
        LockShape::Mcs,
    ];

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            LockShape::Tas => "tas",
            LockShape::Ttas => "ttas",
            LockShape::Ticket => "ticket",
            LockShape::Mcs => "mcs",
        }
    }

    /// Position of this shape in [`LockShape::ALL`] — the canonical
    /// index used by shape-keyed tables.
    pub fn index(&self) -> usize {
        match self {
            LockShape::Tas => 0,
            LockShape::Ttas => 1,
            LockShape::Ticket => 2,
            LockShape::Mcs => 3,
        }
    }
}

/// Opaque per-acquisition state returned by [`RawLock::lock`].
#[derive(Debug)]
#[must_use = "the token must be passed back to unlock()"]
pub struct LockToken(usize);

/// A raw (unscoped) lock interface over the spin-lock family.
pub trait RawLock: Send + Sync {
    /// Acquire the lock, spinning as needed.
    fn lock(&self) -> LockToken;
    /// Release the lock. `token` must come from the matching `lock` call.
    fn unlock(&self, token: LockToken);
    /// Which implementation this is.
    fn kind(&self) -> LockKind;

    /// Run `f` under the lock.
    fn with<R>(&self, f: impl FnOnce() -> R) -> R
    where
        Self: Sized,
    {
        let t = self.lock();
        let r = f();
        self.unlock(t);
        r
    }
}

/// Identifier of a lock implementation (for CLI/bench selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Test-and-set spin lock.
    Tas,
    /// Test-and-test-and-set spin lock.
    Ttas,
    /// Ticket lock.
    Ticket,
    /// CLH queue lock.
    Clh,
    /// MCS queue lock.
    Mcs,
}

impl LockKind {
    /// All lock kinds, in the ladder order used by experiment E12.
    pub const ALL: [LockKind; 5] = [
        LockKind::Tas,
        LockKind::Ttas,
        LockKind::Ticket,
        LockKind::Clh,
        LockKind::Mcs,
    ];

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            LockKind::Tas => "tas",
            LockKind::Ttas => "ttas",
            LockKind::Ticket => "ticket",
            LockKind::Clh => "clh",
            LockKind::Mcs => "mcs",
        }
    }

    /// Construct a fresh unlocked instance of this kind.
    pub fn build(&self) -> Box<dyn RawLock> {
        match self {
            LockKind::Tas => Box::new(TasLock::new()),
            LockKind::Ttas => Box::new(TtasLock::new()),
            LockKind::Ticket => Box::new(TicketLock::new()),
            LockKind::Clh => Box::new(ClhLock::new()),
            LockKind::Mcs => Box::new(McsLock::new()),
        }
    }
}

/// Test-and-set spin lock: `lock bts` until the bit was clear.
#[derive(Debug)]
pub struct TasLock<C: CellModel = StdCell> {
    state: CachePadded<C::U64>,
}

impl<C: CellModel> Default for TasLock<C> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl TasLock {
    /// New unlocked lock.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<C: CellModel> TasLock<C> {
    /// New unlocked lock on an explicit cell substrate.
    pub fn new_in() -> Self {
        TasLock {
            state: CachePadded::new(C::U64::new(0)),
        }
    }
}

impl<C: CellModel> RawLock for TasLock<C> {
    fn lock(&self) -> LockToken {
        let mut backoff = Backoff::none();
        while self.state.fetch_or(1, Ordering::Acquire) & 1 == 1 {
            backoff.spin();
            C::spin_hint();
        }
        LockToken(0)
    }

    fn unlock(&self, _token: LockToken) {
        self.state.store(0, Ordering::Release);
    }

    fn kind(&self) -> LockKind {
        LockKind::Tas
    }
}

/// Test-and-test-and-set spin lock: spin on a load, RMW only when free.
#[derive(Debug)]
pub struct TtasLock<C: CellModel = StdCell> {
    state: CachePadded<C::U64>,
}

impl<C: CellModel> Default for TtasLock<C> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl TtasLock {
    /// New unlocked lock.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<C: CellModel> TtasLock<C> {
    /// New unlocked lock on an explicit cell substrate.
    pub fn new_in() -> Self {
        TtasLock {
            state: CachePadded::new(C::U64::new(0)),
        }
    }
}

impl<C: CellModel> RawLock for TtasLock<C> {
    fn lock(&self) -> LockToken {
        loop {
            // Local spin on a (potentially) shared copy — no coherence
            // traffic while the holder works.
            while self.state.load(Ordering::Relaxed) & 1 == 1 {
                C::spin_hint();
            }
            if self.state.fetch_or(1, Ordering::Acquire) & 1 == 0 {
                return LockToken(0);
            }
        }
    }

    fn unlock(&self, _token: LockToken) {
        self.state.store(0, Ordering::Release);
    }

    fn kind(&self) -> LockKind {
        LockKind::Ttas
    }
}

/// Ticket lock: FAA on `next`, spin until `serving` reaches the ticket.
#[derive(Debug)]
pub struct TicketLock<C: CellModel = StdCell> {
    next: CachePadded<C::U64>,
    serving: CachePadded<C::U64>,
}

impl<C: CellModel> Default for TicketLock<C> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl TicketLock {
    /// New unlocked lock.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<C: CellModel> TicketLock<C> {
    /// New unlocked lock on an explicit cell substrate.
    pub fn new_in() -> Self {
        TicketLock {
            next: CachePadded::new(C::U64::new(0)),
            serving: CachePadded::new(C::U64::new(0)),
        }
    }
}

impl<C: CellModel> RawLock for TicketLock<C> {
    fn lock(&self) -> LockToken {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        while self.serving.load(Ordering::Acquire) != ticket {
            C::spin_hint();
        }
        LockToken(ticket as usize)
    }

    fn unlock(&self, _token: LockToken) {
        // Only the holder ever writes `serving`, so a store suffices.
        let cur = self.serving.load(Ordering::Relaxed);
        self.serving.store(cur.wrapping_add(1), Ordering::Release);
    }

    fn kind(&self) -> LockKind {
        LockKind::Ticket
    }
}

/// One CLH queue node: a padded flag the successor spins on.
#[repr(align(128))]
struct ClhNode<C: CellModel> {
    locked: C::Bool,
}

/// CLH queue lock.
///
/// Each acquirer enqueues a fresh node with `SWAP` on the tail and spins
/// on its *predecessor's* node. Release clears the own node's flag; the
/// successor, upon observing the clear, takes ownership of (and frees)
/// that predecessor node. The tail node outstanding at drop time is freed
/// by `Drop`.
pub struct ClhLock<C: CellModel = StdCell> {
    tail: C::Ptr<ClhNode<C>>,
}

impl<C: CellModel> Default for ClhLock<C> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl ClhLock {
    /// New unlocked lock.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<C: CellModel> ClhLock<C> {
    /// New unlocked lock on an explicit cell substrate.
    pub fn new_in() -> Self {
        let dummy = Box::into_raw(Box::new(ClhNode::<C> {
            locked: C::Bool::new(false),
        }));
        ClhLock {
            tail: C::Ptr::new(dummy),
        }
    }
}

impl<C: CellModel> RawLock for ClhLock<C> {
    fn lock(&self) -> LockToken {
        let node = Box::into_raw(Box::new(ClhNode::<C> {
            locked: C::Bool::new(true),
        }));
        let pred = self.tail.swap(node, Ordering::AcqRel);
        // SAFETY: `pred` was produced by Box::into_raw (in new() or a
        // previous lock()) and is only freed by the unique successor that
        // observed it via this swap — us.
        unsafe {
            while (*pred).locked.load(Ordering::Acquire) {
                C::spin_hint();
            }
            drop(Box::from_raw(pred));
        }
        LockToken(node as usize)
    }

    fn unlock(&self, token: LockToken) {
        let node = token.0 as *mut ClhNode<C>;
        assert!(!node.is_null(), "unlock with a foreign token");
        // SAFETY: `node` came from our own lock(); it stays alive until
        // the successor (or Drop) frees it after observing locked=false.
        unsafe {
            (*node).locked.store(false, Ordering::Release);
        }
    }

    fn kind(&self) -> LockKind {
        LockKind::Clh
    }
}

/// One MCS queue node: the successor link plus the flag the *node's
/// owner* spins on (unlike CLH, each thread spins on its own node —
/// the release writes to the successor's line, exactly one transfer).
#[repr(align(128))]
struct McsNode<C: CellModel> {
    next: C::Ptr<McsNode<C>>,
    locked: C::Bool,
}

/// MCS queue lock (Mellor-Crummey & Scott, 1991).
///
/// Acquire: allocate a node, SWAP it into the tail; if there was a
/// predecessor, link behind it and spin on the own node's flag.
/// Release: if a successor is linked (or arrives after a short race
/// window), hand off by clearing *its* flag; otherwise CAS the tail
/// back to null. Each handoff costs exactly one line transfer to the
/// successor's private node line — the locality property the
/// cache-line-bouncing model rewards.
pub struct McsLock<C: CellModel = StdCell> {
    tail: C::Ptr<McsNode<C>>,
}

impl<C: CellModel> Default for McsLock<C> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl McsLock {
    /// New unlocked lock.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<C: CellModel> McsLock<C> {
    /// New unlocked lock on an explicit cell substrate.
    pub fn new_in() -> Self {
        McsLock {
            tail: C::Ptr::<McsNode<C>>::new(std::ptr::null_mut()),
        }
    }
}

impl<C: CellModel> RawLock for McsLock<C> {
    fn lock(&self) -> LockToken {
        let node = Box::into_raw(Box::new(McsNode::<C> {
            next: C::Ptr::<McsNode<C>>::new(std::ptr::null_mut()),
            locked: C::Bool::new(true),
        }));
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` stays alive until its owner's unlock
            // completes, and the owner's unlock cannot complete before
            // observing (and serving) this link.
            unsafe {
                (*pred).next.store(node, Ordering::Release);
                while (*node).locked.load(Ordering::Acquire) {
                    C::spin_hint();
                }
            }
        }
        LockToken(node as usize)
    }

    fn unlock(&self, token: LockToken) {
        let node = token.0 as *mut McsNode<C>;
        assert!(!node.is_null(), "unlock with a foreign token");
        // SAFETY: `node` came from our lock(); we free it exactly once
        // below, after no other thread can reach it.
        unsafe {
            let mut next = (*node).next.load(Ordering::Acquire);
            if next.is_null() {
                // No linked successor: try to swing the tail back.
                if self
                    .tail
                    .compare_exchange(
                        node,
                        std::ptr::null_mut(),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    drop(Box::from_raw(node));
                    return;
                }
                // A successor is mid-enqueue; wait for the link.
                loop {
                    next = (*node).next.load(Ordering::Acquire);
                    if !next.is_null() {
                        break;
                    }
                    C::spin_hint();
                }
            }
            (*next).locked.store(false, Ordering::Release);
            drop(Box::from_raw(node));
        }
    }

    fn kind(&self) -> LockKind {
        LockKind::Mcs
    }
}

impl<C: CellModel> Drop for McsLock<C> {
    fn drop(&mut self) {
        let tail = self.tail.load(Ordering::Relaxed);
        debug_assert!(tail.is_null(), "McsLock dropped while held or contended");
    }
}

// SAFETY: queue nodes move between threads only through the atomic
// tail/next pointers with AcqRel ordering.
unsafe impl<C: CellModel> Send for McsLock<C> {}
unsafe impl<C: CellModel> Sync for McsLock<C> {}

impl<C: CellModel> Drop for ClhLock<C> {
    fn drop(&mut self) {
        let tail = self.tail.load(Ordering::Relaxed);
        if !tail.is_null() {
            // SAFETY: at drop time no thread holds or waits for the lock,
            // so the tail node is the only outstanding allocation.
            unsafe { drop(Box::from_raw(tail)) };
        }
    }
}

// SAFETY: the queue nodes are transferred between threads only through
// the atomic tail pointer with AcqRel ordering.
unsafe impl<C: CellModel> Send for ClhLock<C> {}
unsafe impl<C: CellModel> Sync for ClhLock<C> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn hammer(lock: Arc<dyn RawLock>, threads: usize, iters: usize) -> u64 {
        struct Wrap(std::cell::UnsafeCell<u64>);
        unsafe impl Send for Wrap {}
        unsafe impl Sync for Wrap {}
        let counter = Arc::new(Wrap(std::cell::UnsafeCell::new(0u64)));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..iters {
                    let t = lock.lock();
                    // SAFETY: mutation is serialised by the lock under test.
                    unsafe { *counter.0.get() += 1 };
                    lock.unlock(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        unsafe { *counter.0.get() }
    }

    #[test]
    fn all_locks_provide_mutual_exclusion() {
        for kind in LockKind::ALL {
            let lock: Arc<dyn RawLock> = Arc::from(kind.build());
            let total = hammer(lock, 4, 2000);
            assert_eq!(total, 8000, "{}", kind.label());
        }
    }

    #[test]
    fn uncontended_lock_unlock() {
        for kind in LockKind::ALL {
            let lock = kind.build();
            for _ in 0..100 {
                let t = lock.lock();
                lock.unlock(t);
            }
            assert_eq!(lock.kind(), kind);
        }
    }

    #[test]
    fn with_returns_value() {
        let lock = TicketLock::new();
        let v = lock.with(|| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn ticket_lock_is_fifo_single_thread() {
        let lock = TicketLock::new();
        for i in 0..5u64 {
            let t = lock.lock();
            assert_eq!(t.0 as u64, i, "tickets issued in order");
            lock.unlock(t);
        }
    }

    #[test]
    fn mcs_lock_handoff_chain() {
        // Heavily contended MCS: counts must be exact and the lock must
        // end unheld (Drop asserts the tail is null).
        let lock: Arc<dyn RawLock> = Arc::new(McsLock::new());
        let total = hammer(Arc::clone(&lock), 4, 3000);
        assert_eq!(total, 12_000);
    }

    #[test]
    fn mcs_uncontended_fast_path() {
        let lock = McsLock::new();
        for _ in 0..1000 {
            let t = lock.lock();
            lock.unlock(t);
        }
        assert_eq!(lock.kind(), LockKind::Mcs);
    }

    #[test]
    fn clh_lock_no_leak_on_drop() {
        // Acquire/release a few times, then drop: Drop must free the tail.
        let lock = ClhLock::new();
        for _ in 0..10 {
            let t = lock.lock();
            lock.unlock(t);
        }
        drop(lock); // miri/asan would flag a leak or double free here
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::BTreeSet<_> =
            LockKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), LockKind::ALL.len());
    }
}
