//! A Michael–Scott queue — two contended lines (head and tail) instead of
//! the stack's one, the second application context.
//!
//! Memory reclamation: dequeued sentinels are **retired by leaking**
//! (never freed), which matches the observable behaviour of the previous
//! crossbeam-epoch-based version — the vendored `defer_destroy` shim is a
//! documented leak — and makes the raw-pointer code ABA-free, since node
//! addresses are never reused. Unlike the epoch version, a dequeued
//! value's slot is cleared (`None`) when the value is moved out, so value
//! drops are exact even when the queue is dropped non-empty.

use crate::cell::{CellModel, CellPtr, Ordering, StdCell};
use std::ptr;

struct Node<T, C: CellModel> {
    value: Option<T>,
    next: C::Ptr<Node<T, C>>,
}

/// A lock-free FIFO queue (Michael & Scott, 1996).
pub struct MsQueue<T, C: CellModel = StdCell> {
    head: C::Ptr<Node<T, C>>,
    tail: C::Ptr<Node<T, C>>,
}

impl<T> Default for MsQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MsQueue<T> {
    /// New empty queue (one sentinel node).
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<T, C: CellModel> MsQueue<T, C> {
    /// New empty queue on an explicit cell substrate.
    pub fn new_in() -> Self {
        let sentinel = Box::into_raw(Box::new(Node::<T, C> {
            value: None,
            next: C::Ptr::<Node<T, C>>::new(ptr::null_mut()),
        }));
        MsQueue {
            head: C::Ptr::new(sentinel),
            tail: C::Ptr::new(sentinel),
        }
    }

    /// Enqueue at the tail; returns the CAS attempt count (≥ 1).
    pub fn enqueue(&self, value: T) -> u32 {
        let node = Box::into_raw(Box::new(Node::<T, C> {
            value: Some(value),
            next: C::Ptr::<Node<T, C>>::new(ptr::null_mut()),
        }));
        let mut attempts = 1u32;
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            // SAFETY: tail is never null (sentinel) and nodes are never
            // freed while the queue is shared (see module docs).
            let next = unsafe { (*tail).next.load(Ordering::Acquire) };
            if !next.is_null() {
                // Tail is lagging; help swing it and retry.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
                attempts += 1;
                continue;
            }
            // SAFETY: as above; a stale tail's `next` is non-null, so
            // this CAS simply fails and we retry.
            match unsafe {
                (*tail).next.compare_exchange(
                    ptr::null_mut(),
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
            } {
                Ok(_) => {
                    let _ =
                        self.tail
                            .compare_exchange(tail, node, Ordering::AcqRel, Ordering::Acquire);
                    return attempts;
                }
                Err(_) => attempts += 1,
            }
        }
    }

    /// Dequeue from the head; returns the value and CAS attempt count.
    pub fn dequeue(&self) -> Option<(T, u32)> {
        let mut attempts = 1u32;
        loop {
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: head is never null (sentinel); retired nodes stay
            // dereferenceable (leaked).
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            if next.is_null() {
                return None;
            }
            let tail = self.tail.load(Ordering::Acquire);
            if head == tail {
                // Tail lagging behind a concurrent enqueue; help.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
            }
            match self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // SAFETY: we won the head CAS, so we uniquely own the
                    // sentinel transition: `next` is the new sentinel and
                    // no other thread reads its value slot (dequeuers
                    // only touch the slot after winning a CAS that can
                    // succeed once, enqueuers only touch `next` links).
                    // Clearing the slot keeps the later Drop walk exact.
                    let value = unsafe {
                        let slot = ptr::addr_of_mut!((*next).value);
                        let v = ptr::read(slot).expect("non-sentinel value");
                        ptr::write(slot, None);
                        v
                    };
                    // The old sentinel (`head`) is retired by leaking.
                    return Some((value, attempts));
                }
                Err(_) => attempts += 1,
            }
        }
    }

    /// Whether the queue is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        let head = self.head.load(Ordering::Acquire);
        // SAFETY: head is never null; retired nodes stay dereferenceable.
        unsafe { (*head).next.load(Ordering::Acquire) }.is_null()
    }
}

impl<T, C: CellModel> Drop for MsQueue<T, C> {
    fn drop(&mut self) {
        // Exclusive access: free the live chain (current sentinel plus
        // undequeued nodes). The sentinel's value slot is None — cleared
        // on dequeue — so each value drops exactly once.
        let mut cur = self.head.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: exclusive access; each live node is freed once.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

// SAFETY: values move between threads only through atomically-published
// nodes.
unsafe impl<T: Send, C: CellModel> Send for MsQueue<T, C> {}
unsafe impl<T: Send, C: CellModel> Sync for MsQueue<T, C> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let q = MsQueue::new();
        assert!(q.is_empty());
        for i in 0..10 {
            q.enqueue(i);
        }
        assert!(!q.is_empty());
        for i in 0..10 {
            assert_eq!(q.dequeue().unwrap().0, i);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn mpmc_preserves_all_elements() {
        let q = Arc::new(MsQueue::new());
        let producers = 3;
        let per = 4_000u64;
        let mut handles = Vec::new();
        for t in 0..producers {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(t * per + i);
                }
            }));
        }
        let consumed = Arc::new(std::sync::Mutex::new(BTreeSet::new()));
        // Items taken by both consumers together. Each stops once every
        // item is taken: a per-consumer quota would strand the other
        // consumer whenever one takes more than its share. `Relaxed`:
        // the count publishes no data, the queue hands over the items.
        #[allow(clippy::disallowed_methods, reason = "test harness count")]
        let taken = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            let taken = Arc::clone(&taken);
            handles.push(thread::spawn(move || {
                let mut local = BTreeSet::new();
                while taken.load(Ordering::Relaxed) < producers * per {
                    match q.dequeue() {
                        Some((v, _)) => {
                            assert!(local.insert(v));
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
                let mut consumed = consumed.lock().unwrap();
                let expected = consumed.len() + local.len();
                consumed.extend(local);
                assert_eq!(consumed.len(), expected, "an item was dequeued twice");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Drain any remainder on this thread.
        let mut rest = BTreeSet::new();
        while let Some((v, _)) = q.dequeue() {
            rest.insert(v);
        }
        let consumed = consumed.lock().unwrap();
        let total = consumed.len() + rest.len();
        assert_eq!(total as u64, producers * per);
        assert!(consumed.is_disjoint(&rest));
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // Single producer, single consumer: strict FIFO.
        let q = Arc::new(MsQueue::new());
        let qp = Arc::clone(&q);
        let producer = thread::spawn(move || {
            for i in 0..10_000u64 {
                qp.enqueue(i);
            }
        });
        let mut expected = 0u64;
        while expected < 10_000 {
            if let Some((v, _)) = q.dequeue() {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn drop_with_remaining_elements() {
        let q = MsQueue::new();
        for i in 0..50 {
            q.enqueue(i);
        }
        drop(q);
    }

    #[test]
    fn dequeued_values_drop_exactly_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct D(Rc<Cell<u32>>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        {
            let q: MsQueue<D> = MsQueue::new();
            for _ in 0..6 {
                q.enqueue(D(Rc::clone(&drops)));
            }
            for _ in 0..2 {
                drop(q.dequeue());
            }
            assert_eq!(drops.get(), 2, "dequeued values dropped exactly once");
            // 4 remain; Drop must free them without re-dropping the two
            // values already moved out of recycled sentinels.
        }
        assert_eq!(drops.get(), 6);
    }
}
