//! The coherence directory: per-line owner/sharer bookkeeping, home-slice
//! mapping, and the request queue whose service order is the arbitration
//! policy.
//!
//! One [`LineDir`] entry exists per cache line that has ever been
//! requested. The entry serialises transactions: at most one request per
//! line is in service at a time; the rest wait in its queue. This per-line
//! serialisation is the mechanism behind the paper's model — every
//! exclusive-ownership transfer ("bounce") is one serviced request.

use crate::cache::LineId;
use crate::config::HomePolicy;
use bounce_topo::{CoherenceKind, MachineTopology, TileId};
use std::collections::VecDeque;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A coherence request waiting at (or being serviced by) the directory.
///
/// 12 bytes: every event that carries one, and every directory queue
/// entry, copies it. Indices are `u32` because the topology bounds
/// them; handlers widen them back to `usize` to index.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Simulated-thread index of the requester.
    pub thread: u32,
    /// Core index of the requester.
    pub core: u32,
    /// True for GetM (exclusive / RFO), false for GetS (read).
    pub excl: bool,
}

/// A set of core ids, kept as a bitset: bit `c % 64` of word `c / 64`
/// is core `c`.
///
/// The words grow to cover the highest core ever inserted and never
/// shrink, so once a line has seen its sharers, inserting, removing and
/// clearing allocate nothing. Iteration is in ascending core order,
/// which the engine's energy sums and fabric-jitter draws follow, and
/// `Debug` prints the members like a set (`{1, 5}`).
#[derive(Default)]
pub struct CoreSet {
    words: Vec<u64>,
}

impl CoreSet {
    /// Add `core`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, core: usize) -> bool {
        let (w, bit) = (core / 64, 1u64 << (core % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let absent = self.words[w] & bit == 0;
        self.words[w] |= bit;
        absent
    }

    /// Drop `core`; returns whether it was present.
    pub fn remove(&mut self, core: usize) -> bool {
        let present = self.contains(core);
        if present {
            self.words[core / 64] &= !(1u64 << (core % 64));
        }
        present
    }

    /// Whether `core` is a member.
    pub fn contains(&self, core: usize) -> bool {
        self.words
            .get(core / 64)
            .is_some_and(|w| w & (1u64 << (core % 64)) != 0)
    }

    /// Drop every member, keeping the words.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member `>= core`, if any. Lets a caller walk the
    /// set while it mutates the structure that holds it.
    #[inline]
    pub fn next_from(&self, core: usize) -> Option<usize> {
        let (mut w, mut bits) = (core / 64, !0u64 << (core % 64));
        while let Some(&word) = self.words.get(w) {
            let m = word & bits;
            if m != 0 {
                return Some(w * 64 + m.trailing_zeros() as usize);
            }
            (w, bits) = (w + 1, !0);
        }
        None
    }

    /// Members in ascending order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&c| self.next_from(c + 1))
    }
}

impl fmt::Debug for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Directory state for one line.
///
/// The directory serialises *exclusive* transactions per line (one GetM
/// in flight at a time — the bouncing), but services read (GetS)
/// requests concurrently, as real LLC/home agents do. A waiting GetM
/// gets writer priority: no new GetS starts until it has been served.
/// The queue is private so that [`LineDir::enqueue`] and
/// [`LineDir::dequeue`] keep the count of waiting GetMs that writer
/// priority tests in O(1).
#[derive(Debug, Default)]
pub struct LineDir {
    /// Core holding the line in M/E, if any.
    pub owner: Option<usize>,
    /// Cores holding shared copies.
    pub sharers: CoreSet,
    /// Core holding the MESIF Forward copy, if any.
    pub forward: Option<usize>,
    /// The exclusive request currently in service, if any.
    pub excl_in_flight: Option<Request>,
    /// Number of read (GetS) requests currently in service.
    pub shared_in_flight: u32,
    /// Waiting requests, in arrival order.
    queue: VecDeque<Request>,
    /// Number of GetMs in `queue`.
    queued_excl: u32,
}

impl LineDir {
    /// Whether an exclusive transaction is in service.
    pub fn busy_excl(&self) -> bool {
        self.excl_in_flight.is_some()
    }

    /// Whether anything at all is in service.
    pub fn any_in_flight(&self) -> bool {
        self.busy_excl() || self.shared_in_flight > 0
    }

    /// Waiting requests, in arrival order.
    #[inline]
    pub fn queue(&self) -> &VecDeque<Request> {
        &self.queue
    }

    /// Whether a GetM is waiting (writer priority).
    #[inline]
    pub fn excl_waiting(&self) -> bool {
        self.queued_excl > 0
    }

    /// Append an arriving request to the queue.
    #[inline]
    pub fn enqueue(&mut self, req: Request) {
        self.queued_excl += req.excl as u32;
        self.queue.push_back(req);
    }

    /// Remove the waiting request at queue position `i`, if any.
    #[inline]
    pub fn dequeue(&mut self, i: usize) -> Option<Request> {
        let req = self.queue.remove(i)?;
        self.queued_excl -= req.excl as u32;
        Some(req)
    }

    /// Directory invariants, parameterised by protocol.
    ///
    /// Common to all protocols: the Forward holder, when present, is also
    /// listed as sharer; exclusive and shared service never overlap; the
    /// count of waiting GetMs matches the queue.
    /// Under MESI(F) an owned line additionally has no sharers and no
    /// Forward copy; under MOESI a (dirty) owner legitimately coexists
    /// with sharers — but is never itself listed as one — and the Forward
    /// state does not exist. Plain MESI also forbids Forward copies.
    pub fn check_invariants(&self, kind: CoherenceKind) -> Result<(), String> {
        if let Some(o) = self.owner {
            if kind == CoherenceKind::Moesi {
                if self.sharers.contains(o) {
                    return Err(format!("owner {o} also listed as sharer"));
                }
            } else if !self.sharers.is_empty() {
                return Err(format!(
                    "owner {o} coexists with sharers {:?}",
                    self.sharers
                ));
            }
            if self.forward.is_some() {
                return Err(format!("owner {o} coexists with a Forward copy"));
            }
        }
        if let Some(f) = self.forward {
            if kind != CoherenceKind::Mesif {
                return Err(format!(
                    "forward holder {f} under non-MESIF protocol {kind}"
                ));
            }
            if !self.sharers.contains(f) {
                return Err(format!("forward holder {f} not in sharer set"));
            }
        }
        if self.busy_excl() && self.shared_in_flight > 0 {
            return Err(format!(
                "exclusive service overlaps {} shared services",
                self.shared_in_flight
            ));
        }
        let waiting = self.queue.iter().filter(|r| r.excl).count();
        if waiting != self.queued_excl as usize {
            return Err(format!(
                "queued GetM count {} but {waiting} GetMs queued",
                self.queued_excl
            ));
        }
        Ok(())
    }
}

/// Maps lines to their home tile and owns all per-line entries.
///
/// Entries live in a **dense, interned table**: the first touch of a line
/// assigns it a small `u32` index ([`Directory::intern`]) and precomputes
/// its home tile; every later access is a plain vector index. The engine
/// interns every address its programs name when a thread is added,
/// keeps each fixed-address step's index by pc and stores indices in its
/// events, so neither issuing such a step nor handling an event hashes a
/// `LineId`. Only a computed address (`OpIndexed`) goes through
/// `intern` each time it is issued, and gets an index on first touch.
///
/// The `LineId`-keyed reads (`get`, `lookup`, `home_tile`) resolve
/// through the intern map.
#[derive(Debug)]
pub struct Directory {
    /// LineId -> dense index, populated on first touch.
    index: InternMap<LineId, u32>,
    /// Dense index -> LineId (inverse of `index`).
    lines: Vec<LineId>,
    /// Dense index -> per-line coherence state.
    entries: Vec<LineDir>,
    /// Dense index -> precomputed home tile.
    homes: Vec<TileId>,
    /// Candidate home tiles (all tiles for a mesh's distributed tag
    /// directory; all tiles likewise for ring LLC slices — one slice per
    /// ring stop).
    home_tiles: Vec<TileId>,
    policy: HomePolicy,
    salt: u64,
}

impl Directory {
    /// Build the directory for a machine.
    pub fn new(topo: &MachineTopology, policy: HomePolicy, salt: u64) -> Self {
        let home_tiles = topo.tiles.iter().map(|t| t.id).collect();
        Directory {
            index: InternMap::default(),
            lines: Vec::new(),
            entries: Vec::new(),
            homes: Vec::new(),
            home_tiles,
            policy,
            salt,
        }
    }

    /// The home tile of a line (pure; does not intern).
    pub fn home_tile(&self, line: LineId) -> TileId {
        match self.policy {
            HomePolicy::Fixed(i) => self.home_tiles[i % self.home_tiles.len()],
            HomePolicy::Hash => {
                let h = splitmix64(line.0 ^ self.salt);
                self.home_tiles[(h % self.home_tiles.len() as u64) as usize]
            }
        }
    }

    /// Dense index for a line, assigned (with a fresh entry and a
    /// precomputed home tile) on first touch.
    #[inline]
    pub fn intern(&mut self, line: LineId) -> u32 {
        let next = self.lines.len() as u32;
        let i = self.index.get_or_insert(line, next);
        if i == next {
            let home = self.home_tile(line);
            self.lines.push(line);
            self.entries.push(LineDir::default());
            self.homes.push(home);
        }
        i
    }

    /// Dense index of a line, if it has been touched.
    #[inline]
    pub fn lookup(&self, line: LineId) -> Option<u32> {
        self.index.get(&line)
    }

    /// The `LineId` behind a dense index.
    #[inline]
    pub fn line_at(&self, idx: u32) -> LineId {
        self.lines[idx as usize]
    }

    /// Precomputed home tile for an interned line.
    #[inline]
    pub fn home_of(&self, idx: u32) -> TileId {
        self.homes[idx as usize]
    }

    /// Mutable entry access by dense index.
    #[inline]
    pub fn entry_at(&mut self, idx: u32) -> &mut LineDir {
        &mut self.entries[idx as usize]
    }

    /// Read-only entry access by dense index.
    #[inline]
    pub fn get_at(&self, idx: u32) -> &LineDir {
        &self.entries[idx as usize]
    }

    /// Read-only lookup.
    pub fn get(&self, line: LineId) -> Option<&LineDir> {
        self.lookup(line).map(|i| &self.entries[i as usize])
    }

    /// Number of lines tracked.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    /// Drop the growth slack of the per-line tables. The intern map
    /// keeps its buckets: their count is a power of two either way.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.lines.shrink_to_fit();
        self.entries.shrink_to_fit();
        self.homes.shrink_to_fit();
    }

    /// Check every entry's invariants (tests / debug).
    pub fn check_all_invariants(&self, kind: CoherenceKind) -> Result<(), String> {
        for (line, e) in self.lines.iter().zip(&self.entries) {
            e.check_invariants(kind)
                .map_err(|m| format!("line {:#x}: {m}", line.0))?;
        }
        Ok(())
    }

    /// Drop the owner record of a line (e.g. after a silent eviction /
    /// writeback). No-op if the core is not the owner.
    pub fn evict_owner(&mut self, line: LineId, core: usize) {
        if let Some(i) = self.lookup(line) {
            let e = &mut self.entries[i as usize];
            if e.owner == Some(core) {
                e.owner = None;
            }
        }
    }

    /// Drop a sharer record of a line (silent S-state eviction).
    pub fn evict_sharer(&mut self, line: LineId, core: usize) {
        if let Some(i) = self.lookup(line) {
            let e = &mut self.entries[i as usize];
            e.sharers.remove(core);
            if e.forward == Some(core) {
                e.forward = None;
            }
        }
    }
}

/// The hasher of the two intern maps, [`Directory`]'s line index and
/// the engine's (line, core) pair index: one multiply-xor per key word,
/// where the default SipHash takes ~32 ns a lookup. The keys are the
/// simulation's own small integers, so there is no hash flooding to
/// defend against, and neither map is ever iterated, so no output
/// depends on the hash.
#[derive(Default)]
pub(crate) struct MulXorHasher(u64);

impl Hasher for MulXorHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    /// The product with the high half folded into the low: the table
    /// takes a bucket from the low bits and a tag from the top ones,
    /// and a product's low bits see only its input's low bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A fixed [`MulXorHasher`] for both intern maps.
pub(crate) type MulXorBuild = BuildHasherDefault<MulXorHasher>;

/// The table of both intern maps, and the one hash map the crate's
/// `clippy.toml` lets through. Its visit order is unordered, so it
/// offers keyed access only: no method or trait of it iterates.
#[derive(Debug)]
pub(crate) struct InternMap<K, V>(
    #[allow(clippy::disallowed_types, reason = "keyed access only")]
    std::collections::HashMap<K, V, MulXorBuild>,
);

impl<K, V> Default for InternMap<K, V> {
    fn default() -> Self {
        InternMap(Default::default())
    }
}

impl<K: Hash + Eq, V: Copy> InternMap<K, V> {
    /// The value under `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.0.get(key).copied()
    }

    /// The value under `key`, inserting `value` first if there is none.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, key: K, value: V) -> V {
        *self.0.entry(key).or_insert(value)
    }
}

/// SplitMix64 — cheap, well-distributed hash for home-slice selection.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "unit tests of the mutators")]
mod tests {
    use super::*;
    use bounce_topo::presets;

    #[test]
    fn home_hash_is_deterministic_and_spread() {
        let topo = presets::xeon_phi_7290();
        let dir = Directory::new(&topo, HomePolicy::Hash, 42);
        let h1 = dir.home_tile(LineId(0x1000));
        let h2 = dir.home_tile(LineId(0x1000));
        assert_eq!(h1, h2);
        // Many lines spread over many tiles.
        let homes: std::collections::BTreeSet<_> =
            (0..256u64).map(|i| dir.home_tile(LineId(i * 64))).collect();
        assert!(homes.len() > 10, "only {} distinct homes", homes.len());
    }

    #[test]
    fn home_fixed_pins_all_lines() {
        let topo = presets::xeon_e5_2695_v4();
        let dir = Directory::new(&topo, HomePolicy::Fixed(3), 0);
        for i in 0..64u64 {
            assert_eq!(dir.home_tile(LineId(i * 64)), TileId(3));
        }
    }

    #[test]
    fn entry_created_on_demand() {
        let topo = presets::tiny_test_machine();
        let mut dir = Directory::new(&topo, HomePolicy::Hash, 0);
        assert!(dir.get(LineId(64)).is_none());
        let i = dir.intern(LineId(64));
        dir.entry_at(i).owner = Some(1);
        assert_eq!(dir.get(LineId(64)).unwrap().owner, Some(1));
        assert_eq!(dir.tracked_lines(), 1);
    }

    #[test]
    fn invariants_catch_owner_with_sharers() {
        let mut e = LineDir {
            owner: Some(0),
            ..LineDir::default()
        };
        e.sharers.insert(1);
        assert!(e.check_invariants(CoherenceKind::Mesif).is_err());
        assert!(e.check_invariants(CoherenceKind::Mesi).is_err());
        // MOESI: a dirty owner sharing with readers is the whole point.
        assert!(e.check_invariants(CoherenceKind::Moesi).is_ok());
        // ... but the owner must not double as a sharer.
        e.sharers.insert(0);
        assert!(e.check_invariants(CoherenceKind::Moesi).is_err());
    }

    #[test]
    fn invariants_catch_forward_not_sharer() {
        let mut e = LineDir {
            forward: Some(2),
            ..LineDir::default()
        };
        assert!(e.check_invariants(CoherenceKind::Mesif).is_err());
        e.sharers.insert(2);
        assert!(e.check_invariants(CoherenceKind::Mesif).is_ok());
        // Forward copies only exist under MESIF.
        assert!(e.check_invariants(CoherenceKind::Mesi).is_err());
        assert!(e.check_invariants(CoherenceKind::Moesi).is_err());
    }

    #[test]
    fn queue_methods_keep_the_getm_count() {
        let req = |thread, excl| Request {
            thread,
            core: thread,
            excl,
        };
        let mut e = LineDir::default();
        for (t, excl) in [(0, false), (1, true), (2, false), (3, true)] {
            e.enqueue(req(t, excl));
        }
        assert!(e.excl_waiting());
        assert_eq!(e.dequeue(1).map(|r| r.thread), Some(1));
        assert_eq!(e.dequeue(2).map(|r| r.thread), Some(3));
        assert!(!e.excl_waiting());
        assert!(e.dequeue(2).is_none());
        assert!(e.check_invariants(CoherenceKind::Mesif).is_ok());
        // A count out of step with the queue is caught.
        e.queued_excl = 1;
        assert!(e.check_invariants(CoherenceKind::Mesif).is_err());
    }

    #[test]
    fn eviction_helpers() {
        let topo = presets::tiny_test_machine();
        let mut dir = Directory::new(&topo, HomePolicy::Hash, 0);
        let i = dir.intern(LineId(0));
        dir.entry_at(i).owner = Some(2);
        dir.evict_owner(LineId(0), 1); // wrong core: no-op
        assert_eq!(dir.get(LineId(0)).unwrap().owner, Some(2));
        dir.evict_owner(LineId(0), 2);
        assert_eq!(dir.get(LineId(0)).unwrap().owner, None);

        {
            let i = dir.intern(LineId(64));
            let e = dir.entry_at(i);
            e.sharers.insert(1);
            e.forward = Some(1);
        }
        dir.evict_sharer(LineId(64), 1);
        let e = dir.get(LineId(64)).unwrap();
        assert!(e.sharers.is_empty() && e.forward.is_none());
    }

    #[test]
    fn intern_is_stable_and_dense() {
        let topo = presets::xeon_phi_7290();
        let mut dir = Directory::new(&topo, HomePolicy::Hash, 42);
        let a = dir.intern(LineId(0x40));
        let b = dir.intern(LineId(0x80));
        assert_eq!(dir.intern(LineId(0x40)), a, "intern is idempotent");
        assert_eq!((a, b), (0, 1), "indices are dense in touch order");
        assert_eq!(dir.line_at(a), LineId(0x40));
        // The precomputed home agrees with the pure computation.
        assert_eq!(dir.home_of(a), dir.home_tile(LineId(0x40)));
        assert_eq!(dir.home_of(b), dir.home_tile(LineId(0x80)));
        assert_eq!(dir.tracked_lines(), 2);
    }

    #[test]
    fn dense_and_legacy_access_alias_same_entry() {
        let topo = presets::tiny_test_machine();
        let mut dir = Directory::new(&topo, HomePolicy::Hash, 0);
        let i = dir.intern(LineId(64));
        dir.entry_at(i).owner = Some(3);
        // The LineId-keyed view sees the same entry.
        assert_eq!(dir.get(LineId(64)).unwrap().owner, Some(3));
        // A repeated `intern` names the same entry.
        let again = dir.intern(LineId(64));
        dir.entry_at(again).sharers.insert(1);
        assert!(dir.get_at(i).sharers.contains(1));
    }

    #[test]
    fn intern_hash_spreads_strided_keys() {
        // The table takes a bucket from a hash's low bits and a tag from
        // its top seven, so keys that differ only in high bits (lines
        // far apart, one line's pairs on many cores) must spread over
        // both ends.
        use std::hash::BuildHasher;
        let build = MulXorBuild::default();
        let lines = (0..8000u64).map(|i| build.hash_one(LineId(i << 12)));
        let pairs = (0..8000u32).map(|i| build.hash_one((i / 72, i % 72)));
        for hashes in [lines.collect::<Vec<_>>(), pairs.collect()] {
            let (mut low, mut top) = ([0u32; 8], [0u32; 8]);
            for h in hashes {
                low[(h & 7) as usize] += 1;
                top[(h >> 61) as usize] += 1;
            }
            for b in low.into_iter().chain(top) {
                assert!((800..1200).contains(&b), "low {low:?}, top {top:?}");
            }
        }
    }

    #[test]
    fn splitmix_distributes() {
        let mut buckets = [0u32; 8];
        for i in 0..8000u64 {
            buckets[(splitmix64(i) % 8) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "bucket {b} out of range");
        }
    }
}
