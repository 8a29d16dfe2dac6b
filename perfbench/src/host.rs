//! The host: CPU time of this process (Linux `getrusage`) and the
//! host's current speed.

use std::ffi::{c_int, c_long};
use std::time::{Duration, Instant};

/// Median host seconds of [`reference_kernel`] on two threads on the
/// reference host (the 2-vCPU machine of the README's baselines).
pub const REFERENCE_S: f64 = 0.0990;

/// Between repetitions, the host's speed is sampled at most this often.
const SAMPLE_EVERY: Duration = Duration::from_secs(1);

/// Run a fixed CPU-bound kernel on `threads` threads at once and return
/// its wall time. Like the simulator, it mixes hashing, data-dependent
/// branches and random read-modify-writes over a cache-resident table,
/// so shared-host slowdowns (a busy sibling hyperthread, a contended
/// cache) stretch it the way they stretch a repetition.
pub fn reference_kernel(threads: usize) -> f64 {
    const SLOTS: usize = 1 << 15;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut table = vec![0u64; SLOTS];
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t;
                let mut idx = 0usize;
                for _ in 0..12_000_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    idx = (idx ^ x as usize) & (SLOTS - 1);
                    table[idx] = table[idx].wrapping_add(x);
                    if table[idx] & 1 == 1 {
                        idx = idx.wrapping_add(3);
                    }
                }
                std::hint::black_box(table);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux's `struct rusage`: user and system time, then fourteen
/// `long`s this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn rusage() -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `Rusage` has the layout of the C `struct rusage` on Linux,
    // and `getrusage` writes only that struct through the valid,
    // exclusively borrowed pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u
}

/// The host's speed over a run: reference-kernel times sampled between
/// phases, and the factor taking host times measured between two
/// samples to the reference host's speed.
///
/// The host is shared, and its speed drifts by tens of percent over
/// minutes; the kernel, run right before and after the work it scales,
/// drifts with it.
pub struct Speed {
    threads: usize,
    samples: Vec<f64>,
    taken: Instant,
}

impl Speed {
    /// Start with one sample, on `threads` threads.
    pub fn new(threads: usize) -> Self {
        let mut s = Speed {
            threads,
            samples: Vec::new(),
            taken: Instant::now(),
        };
        s.sample();
        s
    }

    pub fn sample(&mut self) {
        self.samples.push(reference_kernel(self.threads));
        self.taken = Instant::now();
    }

    /// Sample unless the last sample is recent.
    pub fn sample_if_due(&mut self) {
        if self.taken.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
    }

    /// Index of the latest sample.
    pub fn last(&self) -> usize {
        self.samples.len() - 1
    }

    /// Factor for host times measured between samples `i` and `i + 1`:
    /// [`REFERENCE_S`] over the mean of the two samples.
    pub fn factor(&self, i: usize) -> f64 {
        REFERENCE_S / ((self.samples[i] + self.samples[i + 1]) / 2.0)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// User plus system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let c1 = cpu_seconds();
        assert!(c1 > c0 && c1 - c0 < 1e4, "{c0} -> {c1}");
    }
}
