//! Property tests for the directory's data structures against the
//! standard-library containers they replaced: the dense line-index map
//! must agree with the old HashMap-keyed semantics for every access
//! pattern, including lines first touched mid-run (the `OpIndexed`
//! fallback path), and the sharer bitset with a `BTreeSet<usize>`.

use bounce_sim::cache::LineId;
use bounce_sim::config::HomePolicy;
use bounce_sim::directory::{CoreSet, Directory};
use bounce_topo::presets;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// One scripted step on a sharer set.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    Remove(usize),
    Clear,
}

fn set_op() -> impl Strategy<Value = SetOp> {
    // Clears are rare so the sets grow; ids up to 200 span four words.
    (0u8..20, 0usize..=200).prop_map(|(arm, core)| match arm {
        0 => SetOp::Clear,
        1..=11 => SetOp::Insert(core),
        _ => SetOp::Remove(core),
    })
}

fn policy_from(raw: u8) -> HomePolicy {
    match raw % 3 {
        0 => HomePolicy::Fixed(0),
        1 => HomePolicy::Fixed(3),
        _ => HomePolicy::Hash,
    }
}

proptest! {
    /// The interned map is a bijection between touched lines and
    /// `0..tracked_lines()`, assigned densely in first-touch order, and
    /// every dense accessor agrees with its legacy HashMap-semantics
    /// counterpart.
    #[test]
    fn intern_matches_hashmap_semantics(
        raw_lines in proptest::collection::vec(0u64..64, 1..200),
        policy_raw in 0u8..6,
        salt in 0u64..1000,
    ) {
        let topo = presets::tiny_test_machine();
        let mut dir = Directory::new(&topo, policy_from(policy_raw), salt);
        // The reference model: the old engine resolved every access
        // through a HashMap keyed by LineId.
        let mut model: HashMap<LineId, u32> = HashMap::new();

        for (step, &raw) in raw_lines.iter().enumerate() {
            let line = LineId(raw);
            let expected = match model.get(&line) {
                Some(&i) => i,
                None => {
                    // First touch: dense assignment in touch order.
                    let i = model.len() as u32;
                    model.insert(line, i);
                    i
                }
            };
            let idx = dir.intern(line);
            prop_assert_eq!(idx, expected, "step {}: intern order", step);
            // Stable on re-intern.
            prop_assert_eq!(dir.intern(line), expected);
            prop_assert_eq!(dir.lookup(line), Some(expected));
            // Roundtrip through the dense side.
            prop_assert_eq!(dir.line_at(idx), line);
            // The precomputed home equals the pure per-access function
            // the old code called on every miss.
            prop_assert_eq!(dir.home_of(idx), dir.home_tile(line));
        }
        prop_assert_eq!(dir.tracked_lines(), model.len());
        // Untouched lines stay unknown.
        prop_assert_eq!(dir.lookup(LineId(1 << 40)), None);
    }

    /// Legacy (LineId-keyed) and dense (index-keyed) accessors alias the
    /// same entry, even for lines interned *after* other entries have
    /// been mutated — the mid-run fallback path.
    #[test]
    fn legacy_and_dense_access_alias(
        early in proptest::collection::vec(0u64..16, 1..20),
        late in proptest::collection::vec(16u64..32, 1..20),
        owners in proptest::collection::vec(0usize..8, 1..40),
    ) {
        let topo = presets::tiny_test_machine();
        let mut dir = Directory::new(&topo, HomePolicy::Hash, 7);
        for &raw in &early {
            dir.intern(LineId(raw));
        }
        // Mutate some early entries through the legacy accessor...
        for (k, &core) in owners.iter().enumerate() {
            let line = LineId(early[k % early.len()]);
            dir.entry(line).owner = Some(core);
            dir.entry(line).sharers.insert(core);
        }
        // ...then intern fresh lines mid-run and mutate via dense.
        for (k, &raw) in late.iter().enumerate() {
            let line = LineId(raw);
            let idx = dir.intern(line);
            dir.entry_at(idx).owner = Some(k % 8);
            // Dense write is visible through the legacy read and
            // vice versa (same entry, not a copy).
            prop_assert_eq!(dir.get(line).unwrap().owner, Some(k % 8));
            dir.entry(line).owner = Some((k + 1) % 8);
            prop_assert_eq!(dir.get_at(idx).owner, Some((k + 1) % 8));
        }
        // Early mutations are still visible through both faces.
        for &raw in &early {
            let line = LineId(raw);
            let idx = dir.lookup(line).unwrap();
            let legacy_owner = dir.get(line).unwrap().owner;
            prop_assert_eq!(dir.get_at(idx).owner, legacy_owner);
            let legacy_sharers: Vec<usize> = dir.get(line).unwrap().sharers.iter().collect();
            let dense_sharers: Vec<usize> = dir.get_at(idx).sharers.iter().collect();
            prop_assert_eq!(dense_sharers, legacy_sharers);
        }
        // Eviction through the legacy API updates the dense view.
        let probe = LineId(early[0]);
        let idx = dir.lookup(probe).unwrap();
        if let Some(owner) = dir.get(probe).unwrap().owner {
            dir.evict_owner(probe, owner);
            prop_assert_eq!(dir.get_at(idx).owner, None);
        }
    }

    /// The sharer bitset behaves as the `BTreeSet<usize>` it replaced:
    /// same membership, length, ascending iteration order, successor
    /// walk and `Debug` text after every insert, remove and clear.
    #[test]
    fn core_set_matches_btreeset(ops in proptest::collection::vec(set_op(), 1..300)) {
        let mut set = CoreSet::default();
        let mut model = BTreeSet::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                SetOp::Insert(c) => prop_assert_eq!(set.insert(c), model.insert(c), "step {}", step),
                SetOp::Remove(c) => prop_assert_eq!(set.remove(c), model.remove(&c), "step {}", step),
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            for c in 0..=201 {
                prop_assert_eq!(set.contains(c), model.contains(&c), "step {} core {}", step, c);
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            let members: Vec<usize> = set.iter().collect();
            prop_assert_eq!(&members, &model.iter().copied().collect::<Vec<_>>());
            let mut walked = Vec::new();
            let mut next = set.next_from(0);
            while let Some(c) = next {
                walked.push(c);
                next = set.next_from(c + 1);
            }
            prop_assert_eq!(&walked, &members);
            prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
        }
    }
}
