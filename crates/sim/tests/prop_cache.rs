//! Property test for the L1 model: `SetAssocCache` against a reference
//! LRU that keeps each set as a list ordered from least to most recently
//! used, through random installs, hits found by one lookup (touch, with
//! and without the in-place E→M upgrade), `set_state` and `invalidate`,
//! over 1–4 sets and 1–4 ways, and at the presets' 64 sets of 8 ways
//! with lines from a few random sets, which fill in an order other than
//! their index. Each sequence may open with lookups and invalidations
//! on the never-installed cache, which has no sets yet.

#![allow(clippy::disallowed_methods, reason = "property tests of the mutators")]

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

/// Lines drawn at the presets' geometry: twelve in each of three sets.
const PRESET_LINES: u64 = 36;

/// One scripted step on the cache.
#[derive(Debug, Clone, Copy)]
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

/// A step on one of lines `0..lines`.
fn op(lines: u64) -> impl Strategy<Value = Op> {
    op_of(0..6, lines)
}

/// A step that installs nothing: a lookup, state change or invalidation.
fn lookup(lines: u64) -> impl Strategy<Value = Op> {
    op_of(2..6, lines)
}

fn op_of(arms: std::ops::Range<u8>, lines: u64) -> impl Strategy<Value = Op> {
    (arms, 0..lines, 0usize..6).prop_map(|(arm, line, state)| {
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

impl Op {
    /// The same step on line `to(line)`.
    fn relabel(self, to: impl Fn(LineId) -> LineId) -> Op {
        match self {
            Op::Install(line, state) => Op::Install(to(line), state),
            Op::Hit { line, upgrade } => Op::Hit {
                line: to(line),
                upgrade,
            },
            Op::SetState(line, state) => Op::SetState(to(line), state),
            Op::Invalidate(line) => Op::Invalidate(to(line)),
        }
    }
}

/// Run `ops` on a `sets` × `ways` cache and on the reference LRU. After
/// every step each of `lines`' states, the victim of every install and
/// the occupancy must agree.
fn check_against_reference(
    sets: usize,
    ways: usize,
    lines: &[LineId],
    ops: impl IntoIterator<Item = Op>,
) -> Result<(), TestCaseError> {
    let mut cache = SetAssocCache::new(sets, ways);
    let mut model = Model {
        sets: vec![Vec::new(); sets],
        ways,
    };
    for (step, op) in ops.into_iter().enumerate() {
        match op {
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
        for &line in lines {
            prop_assert_eq!(
                cache.state(line),
                model.state(line),
                "step {}: {:?}",
                step,
                line
            );
        }
        prop_assert_eq!(
            cache.occupancy(),
            model.occupancy(),
            "step {}: occupancy",
            step
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn cache_matches_reference_lru(
        sets_log2 in 0u32..3,
        ways in 1usize..5,
        opening in proptest::collection::vec(lookup(LINES), 0..8),
        ops in proptest::collection::vec(op(LINES), 1..300),
    ) {
        let lines: Vec<LineId> = (0..LINES).map(LineId).collect();
        check_against_reference(1 << sets_log2, ways, &lines, opening.into_iter().chain(ops))?;
    }

    /// The presets' L1 geometry. The drawn lines stand for twelve lines
    /// in each of three random sets, so the sets land in random order
    /// and each can overflow its 8 ways.
    #[test]
    fn preset_geometry_matches_reference_lru(
        set_picks in (0u64..64, 0u64..64, 0u64..64),
        opening in proptest::collection::vec(lookup(PRESET_LINES), 0..8),
        ops in proptest::collection::vec(op(PRESET_LINES), 1..300),
    ) {
        let picks = [set_picks.0, set_picks.1, set_picks.2];
        let to = |l: LineId| LineId(picks[(l.0 % 3) as usize] + 64 * (l.0 / 3));
        let lines: Vec<LineId> = (0..PRESET_LINES).map(|l| to(LineId(l))).collect();
        let ops = opening.into_iter().chain(ops).map(|op| op.relabel(to));
        check_against_reference(64, 8, &lines, ops)?;
    }
}
