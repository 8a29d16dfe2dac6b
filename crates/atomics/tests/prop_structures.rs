//! Property tests: the lock-free stack and queue behave exactly like
//! their sequential models under arbitrary single-threaded op
//! sequences, and retain all elements under concurrent mixes.

use bounce_atomics::queue::MsQueue;
use bounce_atomics::stack::TreiberStack;
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![any::<u64>().prop_map(Op::Push), Just(Op::Pop),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Treiber stack == Vec under any sequential op sequence.
    #[test]
    fn stack_matches_vec_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let stack = TreiberStack::new();
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    stack.push(v);
                    model.push(v);
                }
                Op::Pop => {
                    let got = stack.pop().map(|(v, _)| v);
                    let want = model.pop();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(stack.is_empty(), model.is_empty());
        }
        // Drain and compare the remainder in LIFO order.
        while let Some(want) = model.pop() {
            prop_assert_eq!(stack.pop().map(|(v, _)| v), Some(want));
        }
        prop_assert!(stack.pop().is_none());
    }

    /// M&S queue == VecDeque under any sequential op sequence.
    #[test]
    fn queue_matches_deque_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let queue = MsQueue::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    queue.enqueue(v);
                    model.push_back(v);
                }
                Op::Pop => {
                    let got = queue.dequeue().map(|(v, _)| v);
                    let want = model.pop_front();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(queue.is_empty(), model.is_empty());
        }
        while let Some(want) = model.pop_front() {
            prop_assert_eq!(queue.dequeue().map(|(v, _)| v), Some(want));
        }
        prop_assert!(queue.dequeue().is_none());
    }

    /// Concurrent pushes never lose or duplicate elements (small scale,
    /// runs fine even on one CPU).
    #[test]
    fn stack_concurrent_conservation(per_thread in 1usize..200) {
        use std::sync::Arc;
        let stack = Arc::new(TreiberStack::new());
        let threads = 3u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = Arc::clone(&stack);
                std::thread::spawn(move || {
                    for i in 0..per_thread as u64 {
                        s.push(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some((v, _)) = stack.pop() {
            prop_assert!(seen.insert(v), "duplicate {}", v);
        }
        prop_assert_eq!(seen.len(), per_thread * threads as usize);
    }
}
