//! Cache-line addressing, MESI/MESIF/MOESI line states, and a
//! set-associative L1 model with LRU replacement.

/// A cache-line address (the address with the low 6 bits stripped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(pub u64);

/// A word address: a line plus a 64-bit-word index within it (0..8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordAddr {
    /// The cache line.
    pub line: LineId,
    /// Word within the line (0..8 for 64-byte lines).
    pub word: u8,
}

impl WordAddr {
    /// Word 0 of line `l` — the common case for a padded cell.
    pub const fn of_line(l: u64) -> Self {
        WordAddr {
            line: LineId(l),
            word: 0,
        }
    }
}

/// MESI(F)/MOESI line state in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified: sole copy, dirty.
    Modified,
    /// Owned (MOESI only): dirty, but read-shared — this copy supplies
    /// readers and owes memory a writeback on eviction.
    Owned,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: one of several read-only copies.
    Shared,
    /// Forward (MESIF only): a shared copy designated to answer the next
    /// read request cache-to-cache.
    Forward,
    /// Invalid / not present.
    Invalid,
}

impl LineState {
    /// Can a load be satisfied locally from this state?
    pub fn readable(&self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// Can a store/RMW be performed locally (no coherence action)?
    pub fn writable(&self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// Does this copy owe memory a writeback when it leaves the cache?
    pub fn dirty(&self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }
}

/// One way of a cache set.
#[derive(Debug, Clone)]
struct Way {
    tag: LineId,
    state: LineState,
    /// Monotone use-stamp for LRU.
    last_use: u64,
}

/// Where a present line sits in a [`SetAssocCache`], from
/// [`SetAssocCache::find`]: one scan of the set locates the way, and the
/// slot then reads and updates it without another. Valid until the
/// cache next installs, invalidates or changes a state by line, any of
/// which may move the set's ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Position of the set in `SetAssocCache::landed`.
    set: usize,
    way: usize,
}

/// The most sets a [`SetAssocCache`] may have: each set's position in
/// the list of landed sets, and the set's own number, fit a `u16`.
pub const MAX_SETS: usize = 1 << u16::BITS;

/// The ways of a set that some line has landed in.
#[derive(Debug, Clone)]
struct Landed {
    /// The set's number.
    set: u16,
    ways: Vec<Way>,
}

/// A set-associative cache of line *states* (data lives in the engine's
/// value map — the simulator is coherence-accurate, not data-layout
/// accurate).
///
/// A set gets storage when a line first lands in it: its ways join the
/// list of landed sets, and a per-set index of 2 B entries points into
/// that list. A new cache allocates nothing, and until its first install
/// every line reads Invalid.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Each set's position in `landed`. Built when a second set lands:
    /// until then every line looks in `landed[0]`. A set that has not
    /// landed points anywhere, which is safe because a scan matches
    /// whole tags: it finds no line of this set in another set's ways.
    index: Vec<u16>,
    /// The sets that some line has landed in, in landing order. A set
    /// stays here, with its ways' capacity, when its lines leave.
    landed: Vec<Landed>,
    /// Set count minus one (the count is a power of two).
    mask: usize,
    ways: usize,
    stamp: u64,
}

impl SetAssocCache {
    /// A cache with `sets` sets of `ways` ways. Allocates nothing.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(sets <= MAX_SETS, "at most {MAX_SETS} sets");
        assert!(ways >= 1);
        SetAssocCache {
            index: Vec::new(),
            landed: Vec::new(),
            mask: sets - 1,
            ways,
            stamp: 0,
        }
    }

    fn set_of(&self, line: LineId) -> usize {
        (line.0 as usize) & self.mask
    }

    /// Position in `landed` where `set`'s ways would be: the set's own
    /// when it has landed, or some other set's (or none) when not.
    #[inline]
    fn position(&self, set: usize) -> usize {
        self.index.get(set).map_or(0, |&p| usize::from(p))
    }

    /// Current state of `line` (Invalid when absent).
    pub fn state(&self, line: LineId) -> LineState {
        self.find(line)
            .map_or(LineState::Invalid, |(_, state)| state)
    }

    /// `line`'s slot and state, or `None` when it is absent (Invalid).
    #[inline]
    pub fn find(&self, line: LineId) -> Option<(Slot, LineState)> {
        let set = self.position(self.set_of(line));
        let ways = &self.landed.get(set)?.ways;
        let way = ways.iter().position(|w| w.tag == line)?;
        Some((Slot { set, way }, ways[way].state))
    }

    /// Mark the line at `slot` most recently used (call on every hit).
    #[inline]
    pub fn touch_at(&mut self, slot: Slot) {
        self.stamp += 1;
        self.landed[slot.set].ways[slot.way].last_use = self.stamp;
    }

    /// Exclusive → Modified at `slot`: a write hit on the clean sole
    /// copy, which needs no coherence transaction.
    #[inline]
    pub fn upgrade_at(&mut self, slot: Slot) {
        let way = &mut self.landed[slot.set].ways[slot.way];
        debug_assert_eq!(way.state, LineState::Exclusive, "only E upgrades in place");
        way.state = LineState::Modified;
    }

    /// The ways of `set`, which get storage here if no line has landed
    /// in the set before.
    fn land(&mut self, set: usize) -> &mut Vec<Way> {
        let mut pos = self.position(set);
        let landed = self
            .landed
            .get(pos)
            .is_some_and(|l| usize::from(l.set) == set);
        if !landed {
            pos = self.landed.len();
            if pos == 1 {
                self.index = vec![0; self.mask + 1];
            }
            if let Some(entry) = self.index.get_mut(set) {
                *entry = u16::try_from(pos).expect("at most MAX_SETS sets land");
            }
            self.landed.push(Landed {
                set: u16::try_from(set).expect("at most MAX_SETS sets"),
                ways: Vec::new(),
            });
        }
        &mut self.landed[pos].ways
    }

    /// Install `line` in `state`, evicting the LRU way if the set is
    /// full. Returns the evicted line and its state, if any.
    pub fn install(&mut self, line: LineId, state: LineState) -> Option<(LineId, LineState)> {
        debug_assert!(state != LineState::Invalid, "install Invalid is remove");
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.ways;
        let set = self.land(self.set_of(line));
        if let Some(w) = set.iter_mut().find(|w| w.tag == line) {
            w.state = state;
            w.last_use = stamp;
            return None;
        }
        if set.len() < ways {
            set.push(Way {
                tag: line,
                state,
                last_use: stamp,
            });
            return None;
        }
        // Evict LRU.
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_use)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let evicted = set[victim].tag;
        let evicted_state = set[victim].state;
        set[victim] = Way {
            tag: line,
            state,
            last_use: stamp,
        };
        Some((evicted, evicted_state))
    }

    /// Change the state of a present line; no-op if absent.
    pub fn set_state(&mut self, line: LineId, state: LineState) {
        let Some((Slot { set, way }, _)) = self.find(line) else {
            return;
        };
        let ways = &mut self.landed[set].ways;
        if state == LineState::Invalid {
            ways.remove(way);
        } else {
            ways[way].state = state;
        }
    }

    /// Remove a line (invalidation).
    #[expect(clippy::disallowed_methods, reason = "invalidation is a `set_state`")]
    pub fn invalidate(&mut self, line: LineId) {
        self.set_state(line, LineState::Invalid);
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.landed.iter().map(|l| l.ways.len()).sum()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "unit tests of the mutators")]
mod tests {
    use super::*;

    #[test]
    fn word_addr_helper() {
        let a = WordAddr::of_line(0x40);
        assert_eq!(a.line, LineId(0x40));
        assert_eq!(a.word, 0);
    }

    #[test]
    fn state_predicates() {
        assert!(LineState::Modified.writable() && LineState::Modified.readable());
        assert!(LineState::Exclusive.writable());
        assert!(!LineState::Shared.writable() && LineState::Shared.readable());
        assert!(LineState::Forward.readable() && !LineState::Forward.writable());
        assert!(LineState::Owned.readable() && !LineState::Owned.writable());
        assert!(!LineState::Invalid.readable());
        assert!(LineState::Modified.dirty() && LineState::Owned.dirty());
        assert!(!LineState::Exclusive.dirty() && !LineState::Forward.dirty());
    }

    #[test]
    fn install_and_lookup() {
        let mut c = SetAssocCache::new(4, 2);
        assert_eq!(c.state(LineId(1)), LineState::Invalid);
        assert!(c.install(LineId(1), LineState::Exclusive).is_none());
        assert_eq!(c.state(LineId(1)), LineState::Exclusive);
        c.set_state(LineId(1), LineState::Modified);
        assert_eq!(c.state(LineId(1)), LineState::Modified);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SetAssocCache::new(4, 2);
        c.install(LineId(1), LineState::Shared);
        c.invalidate(LineId(1));
        assert_eq!(c.state(LineId(1)), LineState::Invalid);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = SetAssocCache::new(1, 2); // one set, two ways
        c.install(LineId(10), LineState::Shared);
        c.install(LineId(20), LineState::Shared);
        let (slot, _) = c.find(LineId(10)).expect("10 is present");
        c.touch_at(slot); // 20 is now LRU
        let evicted = c.install(LineId(30), LineState::Exclusive);
        assert_eq!(evicted, Some((LineId(20), LineState::Shared)));
        assert_eq!(c.state(LineId(10)), LineState::Shared);
        assert_eq!(c.state(LineId(30)), LineState::Exclusive);
    }

    #[test]
    fn reinstall_updates_in_place() {
        let mut c = SetAssocCache::new(2, 2);
        c.install(LineId(4), LineState::Shared);
        let e = c.install(LineId(4), LineState::Modified);
        assert!(e.is_none());
        assert_eq!(c.state(LineId(4)), LineState::Modified);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lines_map_to_distinct_sets() {
        let mut c = SetAssocCache::new(4, 1);
        // Lines 0..4 hit sets 0..4: no evictions.
        for i in 0..4 {
            assert!(c.install(LineId(i), LineState::Shared).is_none());
        }
        assert_eq!(c.occupancy(), 4);
        // Line 4 collides with line 0.
        let e = c.install(LineId(4), LineState::Shared);
        assert_eq!(e, Some((LineId(0), LineState::Shared)));
    }

    #[test]
    fn new_cache_holds_nothing_until_the_first_install() {
        let mut c = SetAssocCache::new(4, 2);
        for l in 0..8 {
            assert!(c.find(LineId(l)).is_none());
            assert_eq!(c.state(LineId(l)), LineState::Invalid);
        }
        c.set_state(LineId(1), LineState::Modified);
        c.invalidate(LineId(2));
        assert_eq!(c.state(LineId(1)), LineState::Invalid);
        assert_eq!(c.occupancy(), 0);
        // The first install behaves as on a cache whose sets exist.
        assert!(c.install(LineId(1), LineState::Exclusive).is_none());
        assert!(c.install(LineId(5), LineState::Shared).is_none());
        assert_eq!(
            c.install(LineId(9), LineState::Shared),
            Some((LineId(1), LineState::Exclusive))
        );
        assert_eq!(c.state(LineId(5)), LineState::Shared);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(3, 2);
    }

    #[test]
    #[should_panic(expected = "at most 65536 sets")]
    fn more_sets_than_a_u16_addresses_rejected() {
        let _ = SetAssocCache::new(MAX_SETS << 1, 2);
    }
}
