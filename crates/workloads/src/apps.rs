//! Native application workloads: real threads exercising the concurrent
//! structures from `bounce-atomics` for a fixed wall-clock duration.
//!
//! These are the "application context" of the study — the places a
//! developer actually chooses between primitives and structures. They
//! run on the host machine with plain `std::thread`s (pinning is the
//! harness's job); on a single-CPU host they still verify correctness
//! and produce coarse timings.

use bounce_atomics::counter::{CombiningCounter, ConcurrentCounter, SharedCounter, StripedCounter};
use bounce_atomics::locks::{LockKind, RawLock};
use bounce_atomics::queue::MsQueue;
use bounce_atomics::stack::TreiberStack;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Result of one native application run.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Completed operations per thread.
    pub per_thread_ops: Vec<u64>,
    /// Wall-clock duration of the measured phase.
    pub duration: Duration,
}

impl AppResult {
    /// Total operations.
    pub fn total_ops(&self) -> u64 {
        self.per_thread_ops.iter().sum()
    }

    /// Aggregate throughput, ops/second.
    pub fn throughput(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / secs
        }
    }

    /// Jain fairness over per-thread op counts.
    pub fn jain(&self) -> f64 {
        let xs: Vec<f64> = self.per_thread_ops.iter().map(|&x| x as f64).collect();
        bounce_core::stats::jain(&xs)
    }
}

fn run_for<F>(threads: usize, dur: Duration, body: F) -> AppResult
where
    F: Fn(usize, &AtomicBool) -> u64 + Send + Sync + 'static,
{
    assert!(threads >= 1);
    let stop = Arc::new(AtomicBool::new(false));
    let body = Arc::new(body);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for tid in 0..threads {
        let stop = Arc::clone(&stop);
        let body = Arc::clone(&body);
        handles.push(thread::spawn(move || body(tid, &stop)));
    }
    thread::sleep(dur);
    stop.store(true, Ordering::SeqCst);
    let per_thread_ops: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    AppResult {
        per_thread_ops,
        duration: start.elapsed(),
    }
}

/// Counter construction strategies for [`run_counter_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// One shared FAA cell (the high-contention setting).
    Shared,
    /// Per-thread padded stripes (the low-contention transformation).
    Striped,
    /// Flat combining: publish on own line, batch into the hot line.
    Combining,
}

impl CounterKind {
    /// All kinds.
    pub const ALL: [CounterKind; 3] = [
        CounterKind::Shared,
        CounterKind::Striped,
        CounterKind::Combining,
    ];

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            CounterKind::Shared => "shared",
            CounterKind::Striped => "striped",
            CounterKind::Combining => "combining",
        }
    }
}

/// Run the counter app with an explicit construction strategy.
pub fn run_counter_kind(kind: CounterKind, threads: usize, dur: Duration) -> AppResult {
    let counter: Arc<dyn ConcurrentCounter> = match kind {
        CounterKind::Shared => Arc::new(SharedCounter::new()),
        CounterKind::Striped => Arc::new(StripedCounter::new(threads.max(1))),
        CounterKind::Combining => Arc::new(CombiningCounter::new(threads.max(1))),
    };
    let total_check = Arc::clone(&counter);
    let result = run_for(threads, dur, move |tid, stop| {
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            counter.add(tid, 1);
            ops += 1;
        }
        ops
    });
    debug_assert_eq!(total_check.read(), result.total_ops());
    result
}

/// Shared vs. striped counter (the HC → LC transformation, natively).
pub fn run_counter(threads: usize, dur: Duration, striped: bool) -> AppResult {
    let counter: Arc<dyn ConcurrentCounter> = if striped {
        Arc::new(StripedCounter::new(threads.max(1)))
    } else {
        Arc::new(SharedCounter::new())
    };
    let total_check = Arc::clone(&counter);
    let result = run_for(threads, dur, move |tid, stop| {
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            counter.add(tid, 1);
            ops += 1;
        }
        ops
    });
    // Linearisability sanity: the counter saw every increment.
    debug_assert_eq!(total_check.read(), result.total_ops());
    result
}

/// Treiber stack: each thread alternates push/pop.
pub fn run_stack(threads: usize, dur: Duration) -> AppResult {
    let stack = Arc::new(TreiberStack::new());
    // Pre-fill so early pops succeed.
    for i in 0..threads as u64 * 4 {
        stack.push(i);
    }
    run_for(threads, dur, move |tid, stop| {
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            if ops.is_multiple_of(2) {
                stack.push(tid as u64);
            } else {
                let _ = stack.pop();
            }
            ops += 1;
        }
        ops
    })
}

/// Michael–Scott queue: each thread alternates enqueue/dequeue.
pub fn run_queue(threads: usize, dur: Duration) -> AppResult {
    let queue = Arc::new(MsQueue::new());
    for i in 0..threads as u64 * 4 {
        queue.enqueue(i);
    }
    run_for(threads, dur, move |tid, stop| {
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            if ops.is_multiple_of(2) {
                queue.enqueue(tid as u64);
            } else {
                let _ = queue.dequeue();
            }
            ops += 1;
        }
        ops
    })
}

/// Read-mostly seqlock: one writer updates a consistent pair, readers
/// snapshot it. Returns per-thread op counts (thread 0 is the writer).
/// Every reader asserts snapshot consistency — the run panics on a torn
/// read.
pub fn run_seqlock(readers: usize, dur: Duration) -> AppResult {
    use bounce_atomics::SeqLock;
    let sl = Arc::new(SeqLock::new([0u64, 0]));
    run_for(readers + 1, dur, move |tid, stop| {
        let mut ops = 0u64;
        if tid == 0 {
            while !stop.load(Ordering::Relaxed) {
                sl.write(|d| {
                    d[0] += 1;
                    d[1] = d[0].wrapping_mul(7);
                });
                ops += 1;
            }
        } else {
            while !stop.load(Ordering::Relaxed) {
                let (v, _) = sl.read();
                assert_eq!(v[1], v[0].wrapping_mul(7), "torn read {v:?}");
                ops += 1;
            }
        }
        ops
    })
}

/// Lock handoff: acquire, spin `cs_spins` iterations inside, release.
/// Returns acquisitions per thread.
pub fn run_lock(kind: LockKind, threads: usize, dur: Duration, cs_spins: u32) -> AppResult {
    let lock: Arc<dyn RawLock> = Arc::from(kind.build());
    run_for(threads, dur, move |_tid, stop| {
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let token = lock.lock();
            for _ in 0..cs_spins {
                std::hint::spin_loop();
            }
            lock.unlock(token);
            ops += 1;
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: Duration = Duration::from_millis(40);

    #[test]
    fn counter_counts() {
        for striped in [false, true] {
            let r = run_counter(3, DUR, striped);
            assert_eq!(r.per_thread_ops.len(), 3);
            assert!(r.total_ops() > 0, "striped={striped}");
            assert!(r.throughput() > 0.0);
        }
    }

    #[test]
    fn counter_kinds_all_exact() {
        for kind in CounterKind::ALL {
            let r = run_counter_kind(kind, 3, DUR);
            assert!(r.total_ops() > 0, "{}", kind.label());
        }
    }

    #[test]
    fn stack_and_queue_run() {
        let s = run_stack(2, DUR);
        assert!(s.total_ops() > 0);
        let q = run_queue(2, DUR);
        assert!(q.total_ops() > 0);
    }

    #[test]
    fn locks_run_under_all_kinds() {
        for kind in LockKind::ALL {
            let r = run_lock(kind, 2, DUR, 10);
            assert!(r.total_ops() > 0, "{}", kind.label());
        }
    }

    #[test]
    fn seqlock_app_no_torn_reads() {
        let r = run_seqlock(2, DUR);
        assert_eq!(r.per_thread_ops.len(), 3);
        assert!(r.per_thread_ops[0] > 0, "writer progressed");
        assert!(
            r.per_thread_ops[1..].iter().any(|&x| x > 0),
            "readers progressed"
        );
    }

    #[test]
    fn jain_bounds_hold() {
        let r = run_counter(4, DUR, true);
        let j = r.jain();
        assert!(j > 0.0 && j <= 1.0 + 1e-9, "jain={j}");
    }

    #[test]
    fn single_thread_fair_by_definition() {
        let r = run_counter(1, DUR, false);
        assert_eq!(r.jain(), 1.0);
    }
}
