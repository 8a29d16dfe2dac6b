//! Hold-model replay of the engine's event queue: `k` events in flight,
//! each step pops the earliest and schedules a successor a short random
//! delay later, as the engine's handlers do.

use bounce_sim::CalendarQueue;
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: a tiny deterministic generator for the replay's delays.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A delay shaped like the engine's event horizon: mostly L1-hit scale,
/// often a line transfer, rarely beyond the queue's 1024-cycle wheel.
fn delay(rng: &mut SplitMix64) -> u64 {
    let r = rng.next();
    match r % 100 {
        0..=59 => 1 + (r >> 8) % 32,
        60..=96 => 50 + (r >> 8) % 350,
        _ => 1024 + (r >> 8) % 4096,
    }
}

/// Replay `steps` pop/push pairs with `k` events in flight. Returns a
/// checksum of the popped `(time, id)` sequence and the host time of
/// the steps (the prefill is not timed).
pub fn hold_replay(k: usize, steps: usize, seed: u64) -> (u64, f64) {
    let mut rng = SplitMix64(seed);
    let mut q = CalendarQueue::new();
    for id in 0..k {
        q.push(delay(&mut rng), id);
    }
    let mut sum = 0u64;
    let t0 = Instant::now();
    for _ in 0..steps {
        let (time, id) = q.pop().expect("the hold model keeps k events queued");
        sum = sum.rotate_left(5) ^ time.wrapping_mul(31).wrapping_add(id as u64);
        q.push(time + delay(&mut rng), id);
    }
    let secs = t0.elapsed().as_secs_f64();
    (black_box(sum), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_deterministic_per_seed() {
        let a = hold_replay(64, 20_000, 7).0;
        assert_eq!(a, hold_replay(64, 20_000, 7).0);
        assert_ne!(a, hold_replay(64, 20_000, 8).0, "the seed matters");
        assert_ne!(a, hold_replay(288, 20_000, 7).0, "the depth matters");
    }
}
