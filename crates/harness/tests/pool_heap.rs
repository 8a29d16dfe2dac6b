//! The job pool holds one result slot per point. Each worker writes the
//! point it ran into that point's slot of one `n`-slot table, and the
//! table becomes the returned vector in place, so a sweep's results
//! never sit in per-worker lists or in a second, reordered copy, and
//! `par_run_jobs` unwraps them without copying them again.
//!
//! The pool's workers allocate on their own threads, so the counting
//! allocator here counts every thread. This file holds one test, so
//! no other test allocates while it measures.

use bounce_harness::parallel::{par_run_jobs, par_run_result_jobs, PointPanic};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the live bytes of every thread and
/// the most that were ever live at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter only observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is), as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The net change, as perfbench's `peak_heap_mb` counts it.
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: forwarded with the caller's guarantees on `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A point's result: about the size of a sweep's measurement.
type Value = [u64; 50];

/// Bytes the pool may hold beyond one result per point: two workers'
/// thread handles, and a lock per slot (1.5 KiB in all here). Results
/// kept in per-worker lists and then copied into index order held 2.5
/// times the results at the peak.
const CONSTANT: usize = 4 << 10;

/// What `sweep` returns, and the most bytes live during it beyond those
/// live before it.
fn with_peak<T>(sweep: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = sweep();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

#[test]
fn pool_holds_one_result_slot_per_point() {
    let n = 128;
    let point = |i: usize| [i as u64; 50] as Value;
    let slots = n * size_of::<Result<Value, PointPanic>>();
    let (results, peak) = with_peak(|| par_run_result_jobs(n, 2, point));
    assert_eq!(results.len(), n);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.as_ref().expect("no point panics")[0], i as u64);
    }
    assert!(
        peak <= slots + CONSTANT,
        "{n} points of {} B held {peak} B at the peak: more than {slots} B of results plus {CONSTANT} B",
        size_of::<Value>()
    );
    assert_eq!(results.capacity(), n, "the results hold spare slots");
    drop(results);
    // The infallible form turns the same table into its values in place.
    let (values, peak) = with_peak(|| par_run_jobs(n, 2, point));
    assert_eq!(values, (0..n).map(point).collect::<Vec<_>>());
    assert!(
        peak <= slots + CONSTANT,
        "par_run_jobs held {peak} B at the peak: more than {slots} B of results plus {CONSTANT} B"
    );
    assert_eq!(values.capacity(), n, "the values hold spare slots");
}
