//! The engine's event queue: a calendar queue (bucketed timing wheel)
//! with a fallback overflow heap, replacing the previous
//! `BinaryHeap<EventEntry>`.
//!
//! # Why a calendar queue
//!
//! The engine's event horizon is short: almost every scheduled event
//! lands within a few hundred cycles of `now` (an L1 hit completes in
//! ~25 cycles, a cross-socket transfer in ~300, a memory access in
//! ~400). A binary heap pays `O(log n)` pointer-chasing comparisons per
//! operation; a timing wheel with one-cycle buckets makes `push` a
//! bounded array append and `pop` a bitmap scan — both `O(1)` for the
//! engine's distribution.
//!
//! # Ordering contract
//!
//! Identical to the heap it replaces: entries pop in ascending
//! `(time, seq)` order, where `seq` is an internal monotone counter
//! assigned at push. Same-time entries therefore pop FIFO — this is
//! what makes simulation outputs deterministic, and it must hold
//! *exactly* (the `--exact` reproduction mode depends on byte-identical
//! event order; see `prop_queue` in `tests/`).
//!
//! # Structure
//!
//! * A wheel of [`NUM_BUCKETS`] one-cycle buckets covers times in
//!   `[base, base + NUM_BUCKETS)`, where `base` is the last popped time
//!   (lazily rolled forward). Bucket `time & MASK` holds all entries
//!   for exactly one instant, appended in seq order and consumed from
//!   the front.
//! * The buckets share one node slab: each bucket is a singly linked
//!   chain of slab nodes with a head and a tail link, and popped nodes
//!   go on a free list for the next push. The slab grows to the peak
//!   number of wheel entries queued at once and never shrinks, so once
//!   a run has reached its peak, `push` and `pop` allocate nothing, and
//!   memory does not grow with the largest same-instant burst a bucket
//!   has ever held. A bucket's head link lives in the same link array
//!   as the nodes' next links, and an empty bucket's tail points at its
//!   head link, so a push appends without testing whether the bucket
//!   was empty. [`CalendarQueue::reserve`] sizes the slab once for a
//!   caller that knows its peak, as the engine does at kick-off (one
//!   node per thread).
//! * A bucket keeps no time of its own. Every wheel entry lies in
//!   `[base, base + NUM_BUCKETS)`, so bucket `b` holds entries for only
//!   one instant of that span, the one congruent to `b` modulo
//!   [`NUM_BUCKETS`], and `pop` derives it from `base`.
//! * A 1024-bit occupancy bitmap finds the next non-empty bucket with a
//!   word-wise scan.
//! * Entries beyond the wheel go to a small overflow `BinaryHeap`
//!   ordered by `(time, seq)`. Whenever `base` advances, every overflow
//!   entry that now fits the wheel migrates in (in heap order, so
//!   within-bucket seq order is preserved — see the invariant notes on
//!   [`CalendarQueue::pop`]).
//!
//! # Caller contract
//!
//! `push(time, …)` requires `time >= base`, i.e. never schedule into
//! the past. The engine always schedules at `time >= now` and `base`
//! trails the popped (= current) time, so this holds by construction;
//! it is debug-asserted.

use std::collections::BinaryHeap;

/// Wheel size, in one-cycle buckets. Covers the engine's entire
/// empirical event horizon (hits, directory transactions, memory
/// accesses) so the overflow heap only sees rare far-future events
/// (multi-epoch `Work` steps, preemption resumes).
pub const NUM_BUCKETS: usize = 1024;
const MASK: u64 = NUM_BUCKETS as u64 - 1;
const WORDS: usize = NUM_BUCKETS / 64;
/// No link: the end of a chain or of the free list.
const NIL: u32 = u32::MAX;
/// Link index of the first node: links below it are bucket heads.
const FIRST_NODE: u32 = NUM_BUCKETS as u32;

/// An overflow entry; ordering reversed on `(time, seq)` so the std
/// max-heap pops the earliest first.
struct Far<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Far<T> {}

impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A monotone-time priority queue popping in ascending `(time, seq)`
/// order; see the module docs.
pub struct CalendarQueue<T> {
    /// Wheel coverage starts here: the last popped time (0 initially).
    /// Every queued entry has `time >= base`; every *wheel* entry has
    /// `time < base + NUM_BUCKETS`; every *overflow* entry has
    /// `time >= base + NUM_BUCKETS` (re-established by [`Self::migrate`]
    /// on every `base` advance).
    base: u64,
    seq: u64,
    len: usize,
    wheel_len: usize,
    /// Chain links. `next[b]` for a bucket `b < NUM_BUCKETS` is the
    /// bucket's first node; `next[n]` for a node `n >= NUM_BUCKETS` is the
    /// node after it in its bucket, or in the free list.
    next: Vec<u32>,
    /// Per bucket, the link its next entry is written to: its last node,
    /// or the bucket's own head link while it is empty.
    tail: Vec<u32>,
    /// Node `n`'s entry is `items[n - NUM_BUCKETS]`; `None` while free.
    items: Vec<Option<T>>,
    /// First free node, or [`NIL`].
    free: u32,
    /// Occupancy bitmap over buckets (bit = bucket index).
    occupied: [u64; WORDS],
    overflow: BinaryHeap<Far<T>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with coverage starting at time 0.
    pub fn new() -> Self {
        CalendarQueue {
            base: 0,
            seq: 0,
            len: 0,
            wheel_len: 0,
            next: vec![NIL; NUM_BUCKETS],
            tail: (0..FIRST_NODE).collect(),
            items: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
        }
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reserve room in the node slab for exactly `additional` nodes
    /// beyond those it holds: a caller that knows how many entries it
    /// will queue at once sizes the slab once instead of growing it by
    /// doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.items.reserve_exact(additional);
        self.next.reserve_exact(additional);
    }

    /// Enqueue `item` at `time` (`time >= base`, i.e. not in the past).
    #[inline]
    pub fn push(&mut self, time: u64, item: T) {
        debug_assert!(
            time >= self.base,
            "push into the past: {time} < {}",
            self.base
        );
        self.seq += 1;
        self.len += 1;
        if time - self.base < NUM_BUCKETS as u64 {
            self.push_wheel(time, item);
        } else {
            self.overflow.push(Far {
                time,
                seq: self.seq,
                item,
            });
        }
    }

    #[inline]
    fn push_wheel(&mut self, time: u64, item: T) {
        let n = if self.free == NIL {
            self.items.push(Some(item));
            self.next.push(NIL);
            u32::try_from(self.next.len() - 1).expect("fewer than 2^32 - 1 queued events")
        } else {
            let n = self.free;
            self.free = self.next[n as usize];
            self.next[n as usize] = NIL;
            self.items[(n - FIRST_NODE) as usize] = Some(item);
            n
        };
        let b = (time & MASK) as usize;
        self.next[self.tail[b] as usize] = n;
        self.tail[b] = n;
        self.occupied[b / 64] |= 1u64 << (b % 64);
        self.wheel_len += 1;
    }

    /// Dequeue the earliest entry by `(time, seq)`.
    ///
    /// Correctness of the ordering rests on two invariants:
    ///
    /// 1. *Separation*: after every `base` advance the overflow is
    ///    drained of entries fitting the wheel, so overflow times are
    ///    always `>= base + NUM_BUCKETS`, strictly beyond every wheel
    ///    time — the wheel always holds the global minimum when
    ///    non-empty.
    /// 2. *Within-bucket seq order*: a bucket only ever receives
    ///    same-instant entries in ascending seq — direct pushes use the
    ///    monotone counter, and all overflow entries for one instant
    ///    migrate together (in heap = seq order) at the single `base`
    ///    advance that brings the instant into coverage, before any
    ///    later direct push can append behind them.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            // Lazy day-roll: jump coverage to the overflow minimum.
            self.base = self.overflow.peek().expect("len > 0").time;
            self.migrate();
        }
        let b = self.next_occupied();
        let n = self.next[b];
        let after = self.next[n as usize];
        self.next[b] = after;
        if after == NIL {
            self.tail[b] = b as u32;
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        }
        self.next[n as usize] = self.free;
        self.free = n;
        // The one instant of `[base, base + NUM_BUCKETS)` in bucket `b`.
        let time = self.base + ((b as u64).wrapping_sub(self.base) & MASK);
        let item = self.items[(n - FIRST_NODE) as usize]
            .take()
            .expect("a chained node holds its entry");
        self.wheel_len -= 1;
        self.len -= 1;
        if time > self.base {
            self.base = time;
            self.migrate();
        }
        Some((time, item))
    }

    /// Move every overflow entry now fitting the wheel in, in heap
    /// order (ascending `(time, seq)`).
    fn migrate(&mut self) {
        while let Some(f) = self.overflow.peek() {
            if f.time - self.base >= NUM_BUCKETS as u64 {
                break;
            }
            let f = self.overflow.pop().expect("peeked");
            self.push_wheel(f.time, f.item);
        }
    }

    /// First occupied bucket in circular order from `base & MASK`.
    /// Caller guarantees `wheel_len > 0`.
    #[inline]
    fn next_occupied(&self) -> usize {
        let start = (self.base & MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // First word: mask off bits before the start bucket.
        let w = self.occupied[sw] & (!0u64 << sb);
        if w != 0 {
            return sw * 64 + w.trailing_zeros() as usize;
        }
        // Remaining words, wrapping; `start`'s word is revisited last
        // for the bits before `sb`.
        for i in 1..=WORDS {
            let wi = (sw + i) % WORDS;
            let mut w = self.occupied[wi];
            if i == WORDS {
                w &= (1u64 << sb) - 1;
            }
            if w != 0 {
                return wi * 64 + w.trailing_zeros() as usize;
            }
        }
        unreachable!("wheel_len > 0 but no occupied bucket");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        for (t, v) in [(5u64, 0u32), (3, 1), (9, 2), (3, 3), (0, 4)] {
            q.push(t, v);
        }
        assert_eq!(q.len(), 5);
        let out = drain(&mut q);
        assert_eq!(out, vec![(0, 4), (3, 1), (3, 3), (5, 0), (9, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = CalendarQueue::new();
        for v in 0..100u32 {
            q.push(7, v);
        }
        let out = drain(&mut q);
        assert_eq!(
            out.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut q = CalendarQueue::new();
        q.push(1_000_000, 1u32); // far beyond the wheel
        q.push(3, 2);
        q.push(1_000_000, 3);
        q.push(999_999, 4);
        let out = drain(&mut q);
        assert_eq!(
            out,
            vec![(3, 2), (999_999, 4), (1_000_000, 1), (1_000_000, 3)]
        );
    }

    #[test]
    fn interleaved_push_pop_at_current_time() {
        let mut q = CalendarQueue::new();
        q.push(10, 0u32);
        assert_eq!(q.pop(), Some((10, 0)));
        // Same-instant pushes after a pop at that instant still pop, in
        // order, before later times.
        q.push(10, 1);
        q.push(11, 2);
        q.push(10, 3);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), Some((11, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_migration_preserves_fifo_within_instant() {
        let mut q = CalendarQueue::new();
        // Two entries far out (overflow), then advance the wheel past
        // their instant's entry point and add a direct entry at the
        // same instant.
        q.push(5000, 1u32);
        q.push(5000, 2);
        q.push(4500, 0);
        assert_eq!(q.pop(), Some((4500, 0))); // base jumps; 5000 migrates
        q.push(5000, 3); // direct push, after migration
        let out = drain(&mut q);
        assert_eq!(out, vec![(5000, 1), (5000, 2), (5000, 3)]);
    }

    #[test]
    fn bucket_collision_across_revolutions_resolves_by_time() {
        let mut q = CalendarQueue::new();
        // Times 100 and 100 + NUM_BUCKETS share a bucket index; the
        // far one sits in overflow until the wheel rolls past.
        let far = 100 + NUM_BUCKETS as u64;
        q.push(100, 1u32);
        q.push(far, 2);
        assert_eq!(q.pop(), Some((100, 1)));
        assert_eq!(q.pop(), Some((far, 2)));
    }

    #[test]
    fn wraps_cleanly_over_many_wheel_revolutions() {
        // Monotone schedule-ahead pattern like the engine's: each pop
        // reschedules one event, usually within a short horizon but
        // every 7th far beyond the wheel span (forcing the overflow
        // path). Constant population, so time advances fast enough to
        // wrap the wheel many times.
        let mut q = CalendarQueue::new();
        for v in 0..3u32 {
            q.push(v as u64, v);
        }
        let mut next_v = 3u32;
        let mut last_t = 0u64;
        let mut popped = 0usize;
        while let Some((t, v)) = q.pop() {
            assert!(t >= last_t, "time went backwards: {t} < {last_t}");
            last_t = t;
            popped += 1;
            if popped >= 5000 {
                break;
            }
            let ahead = if v % 7 == 0 { 2000 } else { 3 };
            q.push(t + ahead, next_v);
            next_v += 1;
        }
        assert!(last_t > 10 * NUM_BUCKETS as u64, "many revolutions");
        // Popped nodes are reused: the slab holds no more nodes than
        // entries were ever queued at once.
        assert!(q.items.len() <= 3, "slab grew to {}", q.items.len());
    }

    #[test]
    fn derived_bucket_times_match_a_reference_heap() {
        // Pushes land up to three wheel rotations ahead, so the overflow
        // heap takes some and the wheel's buckets are reused for later
        // instants; pops interleave, so `base` moves by pops and, when
        // the wheel runs empty, by day-rolls. Every popped time is
        // derived from `base`, and a heap keyed on (time, push order)
        // says which entry must come out.
        use std::cmp::Reverse;
        let (mut q, mut reference) = (CalendarQueue::new(), BinaryHeap::new());
        let (mut now, mut state, mut far) = (0u64, 0x9E37_79B9_7F4A_7C15u64, 0);
        for v in 0..20_000u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let ahead = match state % 8 {
                0 => NUM_BUCKETS as u64 + state % (2 * NUM_BUCKETS as u64),
                1 => NUM_BUCKETS as u64 - 1 - (state >> 8) % 4,
                2 => 0,
                _ => (state >> 8) % 400,
            };
            far += usize::from(ahead >= NUM_BUCKETS as u64);
            q.push(now + ahead, v);
            reference.push(Reverse((now + ahead, v)));
            for _ in 0..(state >> 32) % 3 {
                let want = reference.pop().map(|Reverse(e)| e);
                assert_eq!(q.pop(), want, "after pushing {v}");
                if let Some((t, _)) = want {
                    now = t;
                }
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
        assert!(far > 1000, "only {far} pushes went to the overflow heap");
        assert!(
            now > 100 * NUM_BUCKETS as u64,
            "the wheel turned to {now} only"
        );
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        q.push(1, 1u32);
        q.push(2_000_000, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn non_copy_payloads_work() {
        let mut q: CalendarQueue<String> = CalendarQueue::new();
        for i in 0..10 {
            q.push(4, format!("s{i}"));
            q.push(90_000, format!("far{i}"));
        }
        for _ in 0..5 {
            q.pop();
        }
        assert_eq!(q.pop(), Some((4, "s5".to_string())));
        drop(q);
    }
}
