//! A sequence lock: the read-mostly optimisation the mixed read/write
//! experiment (E14) motivates taken to its limit — readers perform *no*
//! atomic RMW at all, only loads, so they never bounce the line.
//!
//! The writer increments a sequence counter before and after each
//! update (odd = write in progress). Readers snapshot the counter, copy
//! the data, and retry if the counter was odd or changed — optimistic
//! concurrency with loads only.
//!
//! This implementation guards a fixed `[u64; N]` payload and permits a
//! **single** writer at a time (writers serialise with a TAS on a
//! separate line), which is the standard kernel-style seqlock.

use crate::cell::{Cell64, CellModel, Ordering, StdCell};
use crate::padded::{CachePadded, PaddedCell};

/// A single-writer sequence lock over `N` 64-bit words.
pub struct SeqLock<const N: usize, C: CellModel = StdCell> {
    seq: PaddedCell<C>,
    /// Writer mutual exclusion (separate line from the sequence).
    writer: PaddedCell<C>,
    data: [C::U64; N],
}

impl<const N: usize, C: CellModel> Default for SeqLock<N, C> {
    fn default() -> Self {
        Self::new_in([0; N])
    }
}

impl<const N: usize> SeqLock<N> {
    /// New lock with an initial payload.
    pub fn new(init: [u64; N]) -> Self {
        Self::new_in(init)
    }
}

impl<const N: usize, C: CellModel> SeqLock<N, C> {
    /// New lock with an initial payload, on an explicit cell substrate.
    pub fn new_in(init: [u64; N]) -> Self {
        SeqLock {
            seq: CachePadded::new(C::U64::new(0)),
            writer: CachePadded::new(C::U64::new(0)),
            data: init.map(C::U64::new),
        }
    }

    /// Current sequence number (even = quiescent).
    pub fn sequence(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Optimistic read: returns a consistent snapshot and the number of
    /// attempts it took.
    pub fn read(&self) -> ([u64; N], u32) {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                C::spin_hint();
                continue;
            }
            let mut out = [0u64; N];
            for (o, d) in out.iter_mut().zip(&self.data) {
                *o = d.load(Ordering::Acquire);
            }
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 {
                return (out, attempts);
            }
        }
    }

    /// Exclusive write: applies `f` to a copy of the payload and
    /// publishes the result.
    pub fn write(&self, f: impl FnOnce(&mut [u64; N])) {
        // Writer lock (TAS spin on its own line).
        while self.writer.swap(1, Ordering::Acquire) == 1 {
            C::spin_hint();
        }
        // Enter the critical section: sequence goes odd.
        let s = self.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(s & 1, 0, "sequence was even before write");
        let mut copy = [0u64; N];
        for (c, d) in copy.iter_mut().zip(&self.data) {
            *c = d.load(Ordering::Relaxed);
        }
        f(&mut copy);
        for (c, d) in copy.iter().zip(&self.data) {
            d.store(*c, Ordering::Release);
        }
        // Leave: sequence goes even again.
        self.seq.fetch_add(1, Ordering::AcqRel);
        self.writer.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn read_sees_initial_payload() {
        let sl = SeqLock::new([1, 2, 3]);
        let (v, attempts) = sl.read();
        assert_eq!(v, [1, 2, 3]);
        assert_eq!(attempts, 1);
        assert_eq!(sl.sequence(), 0);
    }

    #[test]
    fn write_publishes_atomically() {
        let sl = SeqLock::new([0; 2]);
        sl.write(|d| {
            d[0] = 7;
            d[1] = 8;
        });
        assert_eq!(sl.read().0, [7, 8]);
        assert_eq!(sl.sequence(), 2, "two increments per write");
    }

    #[test]
    fn concurrent_readers_always_see_consistent_pairs() {
        // The writer keeps the invariant data[1] == data[0] + 1; any
        // torn read would break it.
        let sl = Arc::new(SeqLock::new([0, 1]));
        #[allow(clippy::disallowed_methods, reason = "test harness stop flag")]
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let sl = Arc::clone(&sl);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (v, _) = sl.read();
                    assert_eq!(v[1], v[0] + 1, "torn read: {v:?}");
                    reads += 1;
                }
                reads
            }));
        }
        let writer = {
            let sl = Arc::clone(&sl);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut writes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    sl.write(|d| {
                        d[0] += 1;
                        d[1] = d[0] + 1;
                    });
                    writes += 1;
                }
                writes
            })
        };
        thread::sleep(std::time::Duration::from_millis(60));
        stop.store(true, Ordering::SeqCst);
        let total_reads: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let writes = writer.join().unwrap();
        assert!(total_reads > 0 && writes > 0);
        // Final state consistent with the write count.
        let (v, _) = sl.read();
        assert_eq!(v[0], writes);
        assert_eq!(sl.sequence(), writes * 2);
    }

    #[test]
    fn multiple_writers_serialise() {
        let sl = Arc::new(SeqLock::new([0; 1]));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sl = Arc::clone(&sl);
            handles.push(thread::spawn(move || {
                for _ in 0..2000 {
                    sl.write(|d| d[0] += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sl.read().0[0], 8000);
        assert_eq!(sl.sequence(), 16000);
    }
}
