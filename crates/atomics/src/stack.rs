//! A Treiber stack — the classic CAS-retry-loop data structure.
//!
//! Every push/pop is a load of the top pointer followed by a CAS on it;
//! under contention the CAS fails and retries, which is exactly the
//! behaviour the model's CAS success-probability term captures (E5/Fig 3).
//!
//! Memory reclamation: popped nodes are **retired by leaking** — the
//! node allocation is never freed (its value is moved out first, so
//! value drops are exact). This matches the observable behaviour of the
//! previous crossbeam-epoch-based version, whose vendored `defer_destroy`
//! shim is a documented leak, and it is what makes the raw-pointer code
//! trivially ABA-free: node addresses are never reused. Nodes still on
//! the stack are freed by `Drop`.

use crate::cell::{CellModel, CellPtr, Ordering, StdCell};
use std::ptr;

struct Node<T, C: CellModel> {
    value: T,
    next: C::Ptr<Node<T, C>>,
}

/// A lock-free LIFO stack (Treiber, 1986).
pub struct TreiberStack<T, C: CellModel = StdCell> {
    top: C::Ptr<Node<T, C>>,
}

impl<T> Default for TreiberStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TreiberStack<T> {
    /// New empty stack.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<T, C: CellModel> TreiberStack<T, C> {
    /// New empty stack on an explicit cell substrate.
    pub fn new_in() -> Self {
        TreiberStack {
            top: C::Ptr::<Node<T, C>>::new(ptr::null_mut()),
        }
    }

    /// Push a value. Lock-free; retries its CAS under contention.
    ///
    /// Returns the number of CAS attempts it took (≥ 1) — the workloads
    /// use this to report retry statistics.
    pub fn push(&self, value: T) -> u32 {
        let node = Box::into_raw(Box::new(Node::<T, C> {
            value,
            next: C::Ptr::<Node<T, C>>::new(ptr::null_mut()),
        }));
        let mut attempts = 1u32;
        loop {
            let top = self.top.load(Ordering::Acquire);
            // SAFETY: `node` is ours until the CAS publishes it.
            unsafe { (*node).next.store(top, Ordering::Relaxed) };
            match self
                .top
                .compare_exchange(top, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return attempts,
                Err(_) => attempts += 1,
            }
        }
    }

    /// Pop the most recently pushed value, with the CAS attempt count.
    pub fn pop(&self) -> Option<(T, u32)> {
        let mut attempts = 1u32;
        loop {
            let top = self.top.load(Ordering::Acquire);
            if top.is_null() {
                return None;
            }
            // SAFETY: nodes are never freed while the stack is shared
            // (popped nodes leak; see module docs), so `top` stays
            // dereferenceable even if another thread pops it first.
            let next = unsafe { (*top).next.load(Ordering::Relaxed) };
            match self
                .top
                .compare_exchange(top, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // SAFETY: we won the CAS, so we uniquely own `top`;
                    // move the value out and retire the node by leaking.
                    let value = unsafe { ptr::read(ptr::addr_of!((*top).value)) };
                    return Some((value, attempts));
                }
                Err(_) => attempts += 1,
            }
        }
    }

    /// Whether the stack is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.top.load(Ordering::Acquire).is_null()
    }
}

impl<T, C: CellModel> Drop for TreiberStack<T, C> {
    fn drop(&mut self) {
        // Exclusive access: walk and free the remaining chain. Popped
        // nodes are not on it (their values were already moved out).
        let mut cur = self.top.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: exclusive access; each on-stack node is freed once.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

// SAFETY: values move between threads only through the stack's
// atomically-published nodes.
unsafe impl<T: Send, C: CellModel> Send for TreiberStack<T, C> {}
unsafe impl<T: Send, C: CellModel> Sync for TreiberStack<T, C> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lifo_order_single_thread() {
        let s = TreiberStack::new();
        assert!(s.is_empty());
        for i in 0..10 {
            s.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(s.pop().unwrap().0, i);
        }
        assert!(s.pop().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_push_pop_preserves_elements() {
        let s = Arc::new(TreiberStack::new());
        let threads = 4;
        let per = 5_000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    s.push(t * per + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = BTreeSet::new();
        while let Some((v, _)) = s.pop() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        assert_eq!(seen.len() as u64, threads * per);
    }

    #[test]
    fn attempt_counts_start_at_one() {
        let s = TreiberStack::new();
        assert_eq!(s.push(1), 1);
        let (v, attempts) = s.pop().unwrap();
        assert_eq!((v, attempts), (1, 1));
    }

    #[test]
    fn drop_frees_remaining_nodes() {
        let s = TreiberStack::new();
        for i in 0..100 {
            s.push(i);
        }
        drop(s); // leak checkers would complain otherwise
    }

    #[test]
    fn values_with_drop_are_dropped_exactly_once() {
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
            let s: TreiberStack<D> = TreiberStack::new();
            for _ in 0..10 {
                s.push(D(Rc::clone(&drops)));
            }
            for _ in 0..4 {
                drop(s.pop());
            }
            assert_eq!(drops.get(), 4, "popped values dropped exactly once");
            // 6 remain in the stack, freed on drop.
        }
        assert_eq!(drops.get(), 10, "remaining values dropped by Drop");
    }
}
