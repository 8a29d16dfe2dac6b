//! Parallel campaign executor: fan independent simulation points across
//! host cores with *deterministic, sweep-ordered* results and per-point
//! panic isolation.
//!
//! Every sweep in this crate is embarrassingly parallel — each point
//! builds its own [`Engine`](bounce_sim::Engine) from its own config, so
//! points share no mutable state. The executor exploits that: a scoped
//! worker pool pulls point indices from an atomic counter, and the
//! worker that runs point `i` writes its result **into slot `i`** of one
//! `n`-slot table, so the output vector is identical to the serial one
//! regardless of which worker finished first. Parallel output is
//! byte-identical to `--jobs 1` output. The table becomes the returned
//! vector in place: a sweep holds one slot per point, never a second
//! copy.
//!
//! A panic in one point does not abort the sweep: each point runs under
//! [`std::panic::catch_unwind`], the remaining points finish, and the
//! caller gets a per-point [`Result`] identifying exactly which index
//! failed and with what payload ([`par_run_result_jobs`]). The infallible
//! [`par_run`] keeps the old contract — it resurfaces the first failed
//! point's panic on the calling thread, after every other point has
//! completed.
//!
//! Nesting is flattened rather than multiplied: when a task running
//! inside the pool starts its own sweep (e.g. a campaign point that
//! itself sweeps seeds), the inner sweep runs serially on that worker.
//! This keeps the thread count bounded by the configured job count.

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Requested job count: 0 = auto (host parallelism), n>=1 = exactly n.
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while executing inside a pool worker; nested sweeps then run
    /// serially instead of spawning a second level of threads.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Set the job count for subsequent sweeps. `0` restores the default
/// (one job per available host core).
///
/// This mutates process-global state; concurrent callers (e.g. parallel
/// tests) race. Prefer the `_jobs` variants ([`par_run_jobs`],
/// [`par_run_result_jobs`]) which take the job count explicitly.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The resolved job count (always >= 1).
pub fn jobs() -> usize {
    resolve_jobs(JOBS.load(Ordering::Relaxed))
}

fn resolve_jobs(n: usize) -> usize {
    match n {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// A sweep point that panicked: its index and the captured payload.
#[derive(Debug)]
pub struct PointPanic {
    /// Index of the point that panicked (the argument `f` was called
    /// with).
    pub index: usize,
    /// The panic payload rendered to a string (`&str`/`String` payloads
    /// verbatim, anything else as a placeholder).
    pub payload: String,
}

impl fmt::Display for PointPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep point {} panicked: {}", self.index, self.payload)
    }
}

impl std::error::Error for PointPanic {}

/// Render a `catch_unwind` payload to a string.
pub fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f(0..n)` with an explicit job count and per-point panic
/// isolation; results come back in index order.
///
/// Every point runs to completion even if some panic: a panicking point
/// yields `Err(PointPanic)` in its slot while the others yield `Ok`.
pub fn par_run_result_jobs<U, F>(n: usize, jobs: usize, f: F) -> Vec<Result<U, PointPanic>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let guarded = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| PointPanic {
            index: i,
            payload: payload_string(p),
        })
    };
    let workers = resolve_jobs(jobs).min(n);
    if workers <= 1 || IN_POOL.with(|p| p.get()) {
        return (0..n).map(guarded).collect();
    }
    let slots: Vec<Mutex<Option<Result<U, PointPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Workers only run `guarded`, which catches point panics, so the
    // scope re-raises a worker's panic only if the pool machinery died.
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_POOL.with(|p| p.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = guarded(i);
                    *slots[i].lock().expect(UNPOISONED) = Some(result);
                }
            });
        }
    });
    collect_exact(slots.into_iter().map(|slot| {
        slot.into_inner()
            .expect(UNPOISONED)
            .expect("every point is claimed once")
    }))
}

/// Why a result slot's lock is never poisoned: a worker takes it only to
/// store a finished result, which cannot panic.
const UNPOISONED: &str = "a slot is locked only to store a result";

/// Collect `items` with no spare capacity. When `items` maps a vector's
/// elements one to one, the standard library collects them in that
/// vector's allocation, so no second table is made, and shrinking gives
/// back the bytes that smaller elements leave over.
fn collect_exact<T>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = items.collect();
    out.shrink_to_fit();
    out
}

/// Run `f(0..n)` with an explicit job count and return the results in
/// index order, resurfacing the first point panic after all points ran.
pub fn par_run_jobs<U, F>(n: usize, jobs: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let results = par_run_result_jobs(n, jobs, f);
    collect_exact(
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("{p}"))),
    )
}

/// Run `f(0..n)` and return the results in index order.
///
/// With `jobs() == 1`, inside an existing pool worker, or for a single
/// point, this is a plain serial loop on the calling thread. Otherwise
/// up to `jobs()` scoped workers claim indices from a shared counter and
/// write each point's result into its own slot, so the returned vector
/// never depends on thread scheduling.
///
/// # Panics
/// If a point panics, the panic is re-raised here — but only after every
/// other point has finished (see [`par_run_result_jobs`] for the isolating
/// form).
pub fn par_run<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_run_jobs(n, JOBS.load(Ordering::Relaxed), f)
}

/// Map `f` over a slice in parallel, preserving order ([`par_run`] over
/// the indices).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_run(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = par_run_jobs(64, 4, |i| {
            // Stagger completion so later indices often finish first.
            std::thread::sleep(std::time::Duration::from_micros(((64 - i) % 7) as u64));
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = par_run_jobs(20, 1, |i| i * i + 1);
        let parallel = par_run_jobs(20, 4, |i| i * i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_sweeps_run_serially() {
        let out = par_run_jobs(8, 4, |i| {
            // The inner sweep must detect it is on a pool worker and not
            // spawn another level of threads.
            assert!(IN_POOL.with(|p| p.get()));
            par_run(4, move |j| i * 10 + j)
        });
        assert_eq!(out[2], vec![20, 21, 22, 23]);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = par_run(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(par_run(1, |i| i + 9), vec![9]);
        assert_eq!(par_map(&[5u64, 6], |x| x * 2), vec![10, 12]);
    }

    #[test]
    fn jobs_resolution() {
        // `set_jobs` mutates process-global state shared with any
        // concurrently running test, so this test never calls it; it
        // checks the resolution function directly instead.
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(jobs(), resolve_jobs(JOBS.load(Ordering::Relaxed)));
    }

    #[test]
    fn panicking_point_leaves_others_intact() {
        // Point 3 of 8 panics; the other 7 must come back Ok and the
        // error must identify point 3's config.
        let results = par_run_result_jobs(8, 4, |i| {
            if i == 3 {
                panic!("bad config: threads=96 exceeds machine");
            }
            i * 2
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().expect_err("point 3 panicked");
                assert_eq!(e.index, 3);
                assert!(e.payload.contains("threads=96"), "payload: {}", e.payload);
                assert!(e.to_string().contains("point 3"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2, "point {i} intact");
            }
        }
    }

    #[test]
    fn panicking_point_isolated_in_serial_mode_too() {
        let results = par_run_result_jobs(4, 1, |i| {
            if i == 1 {
                panic!("boom {i}");
            }
            i
        });
        assert!(results[0].is_ok() && results[2].is_ok() && results[3].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().payload, "boom 1");
    }

    #[test]
    fn par_run_resurfaces_panic_after_all_points_finish() {
        use std::sync::atomic::AtomicUsize;
        static COMPLETED: AtomicUsize = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_run_jobs(6, 2, |i| {
                if i == 2 {
                    panic!("mid-sweep failure");
                }
                COMPLETED.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let msg = payload_string(caught.expect_err("panic must resurface"));
        assert!(msg.contains("point 2"), "{msg}");
        assert!(msg.contains("mid-sweep failure"), "{msg}");
        assert_eq!(COMPLETED.load(Ordering::Relaxed), 5, "other points ran");
    }

    #[test]
    fn payload_string_handles_all_shapes() {
        assert_eq!(payload_string(Box::new("static str")), "static str");
        assert_eq!(payload_string(Box::new(String::from("owned"))), "owned");
        assert_eq!(payload_string(Box::new(42u32)), "non-string panic payload");
    }
}
