//! Property test for the L1 model: `SetAssocCache` against a reference
//! LRU that keeps each set as a list ordered from least to most recently
//! used, through random installs, hits found by one lookup (touch, with
//! and without the in-place E→M upgrade), `set_state` and `invalidate`,
//! over 1–4 sets and 1–4 ways.

use bounce_sim::cache::{LineId, LineState, SetAssocCache};
use proptest::prelude::*;

/// Every state; the first five are the ones a line can be installed in.
const STATES: [LineState; 6] = [
    LineState::Modified,
    LineState::Owned,
    LineState::Exclusive,
    LineState::Shared,
    LineState::Forward,
    LineState::Invalid,
];

/// Lines 0..LINES: enough to overflow 4 sets of 4 ways.
const LINES: u64 = 24;

/// One scripted step on the cache.
#[derive(Debug, Clone)]
enum Op {
    Install(LineId, LineState),
    /// Find the line and, if present, touch it; `upgrade` also turns an
    /// Exclusive line Modified through the same slot, as a write hit does.
    Hit {
        line: LineId,
        upgrade: bool,
    },
    SetState(LineId, LineState),
    Invalidate(LineId),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..6, 0..LINES, 0usize..6).prop_map(|(arm, line, state)| {
        let line = LineId(line);
        match arm {
            0 | 1 => Op::Install(line, STATES[state % 5]),
            2 => Op::Hit {
                line,
                upgrade: false,
            },
            3 => Op::Hit {
                line,
                upgrade: true,
            },
            4 => Op::SetState(line, STATES[state]),
            _ => Op::Invalidate(line),
        }
    })
}

/// The reference LRU: each set's present lines, least recently used
/// first.
struct Model {
    sets: Vec<Vec<(LineId, LineState)>>,
    ways: usize,
}

impl Model {
    fn set(&mut self, line: LineId) -> &mut Vec<(LineId, LineState)> {
        let n = self.sets.len();
        &mut self.sets[line.0 as usize % n]
    }

    fn position(&mut self, line: LineId) -> Option<usize> {
        self.set(line).iter().position(|&(l, _)| l == line)
    }

    fn state(&self, line: LineId) -> LineState {
        self.sets[line.0 as usize % self.sets.len()]
            .iter()
            .find(|&&(l, _)| l == line)
            .map_or(LineState::Invalid, |&(_, s)| s)
    }

    fn install(&mut self, line: LineId, state: LineState) -> Option<(LineId, LineState)> {
        let ways = self.ways;
        let found = self.position(line);
        let set = self.set(line);
        if let Some(i) = found {
            set.remove(i);
            set.push((line, state));
            return None;
        }
        let victim = (set.len() == ways).then(|| set.remove(0));
        set.push((line, state));
        victim
    }

    fn touch(&mut self, line: LineId) {
        if let Some(i) = self.position(line) {
            let set = self.set(line);
            let entry = set.remove(i);
            set.push(entry);
        }
    }

    /// A state change leaves the line's recency where it was.
    fn set_state(&mut self, line: LineId, state: LineState) {
        if let Some(i) = self.position(line) {
            let set = self.set(line);
            if state == LineState::Invalid {
                set.remove(i);
            } else {
                set[i].1 = state;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

proptest! {
    /// After every step each line's state, the victim of every install
    /// and the occupancy agree with the reference LRU.
    #[test]
    fn cache_matches_reference_lru(
        sets_log2 in 0u32..3,
        ways in 1usize..5,
        ops in proptest::collection::vec(op(), 1..300),
    ) {
        let sets = 1usize << sets_log2;
        let mut cache = SetAssocCache::new(sets, ways);
        let mut model = Model { sets: vec![Vec::new(); sets], ways };
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Install(line, state) => {
                    let victim = cache.install(line, state);
                    prop_assert_eq!(victim, model.install(line, state), "step {}: victim", step);
                }
                Op::Hit { line, upgrade } => {
                    let found = cache.find(line);
                    let state = found.map_or(LineState::Invalid, |(_, s)| s);
                    prop_assert_eq!(state, model.state(line), "step {}: find", step);
                    if let Some((slot, state)) = found {
                        cache.touch_at(slot);
                        model.touch(line);
                        if upgrade && state == LineState::Exclusive {
                            cache.upgrade_at(slot);
                            model.set_state(line, LineState::Modified);
                        }
                    }
                }
                Op::SetState(line, state) => {
                    cache.set_state(line, state);
                    model.set_state(line, state);
                }
                Op::Invalidate(line) => {
                    cache.invalidate(line);
                    model.set_state(line, LineState::Invalid);
                }
            }
            for l in 0..LINES {
                let line = LineId(l);
                prop_assert_eq!(cache.state(line), model.state(line), "step {}: line {}", step, l);
            }
            prop_assert_eq!(cache.occupancy(), model.occupancy(), "step {}: occupancy", step);
        }
    }
}
