//! Address-map conventions shared by every workload: where the shared
//! line, the private lines, and the lock words live in the simulated
//! address space.
//!
//! Lines are spaced 128 bytes apart (two 64-byte lines) mirroring the
//! `CachePadded` convention of the native side, so neither false sharing
//! nor adjacent-line prefetching can couple them.

use bounce_sim::cache::WordAddr;

/// Base of the shared (contended) region.
const SHARED_BASE: u64 = 0x0001_0000;
/// Base of the per-thread private region.
const PRIVATE_BASE: u64 = 0x0010_0000;
/// Base of the lock region.
const LOCK_BASE: u64 = 0x0002_0000;
/// Base of the MCS per-thread flag nodes.
const MCS_FLAG_BASE: u64 = 0x0003_0000;
/// Base of the MCS per-thread successor links.
const MCS_NEXT_BASE: u64 = 0x0004_0000;
/// Base of the per-thread scan region (set-conflicting filler lines).
const SCAN_BASE: u64 = 0x0005_0000;
/// Spacing between allocated lines (a padded cell: 2 lines).
const STRIDE: u64 = 128;

/// The canonical address map used by all experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddressMap;

impl AddressMap {
    /// The single shared contended word (word 0 of the shared line).
    pub fn shared(&self) -> WordAddr {
        WordAddr::of_line(SHARED_BASE)
    }

    /// A second shared word on a *different* line (e.g. a ticket lock's
    /// `serving` counter next to `next`).
    pub fn shared_aux(&self, k: u64) -> WordAddr {
        WordAddr::of_line(SHARED_BASE + STRIDE * (k + 1))
    }

    /// Thread `i`'s private line.
    pub fn private(&self, i: usize) -> WordAddr {
        WordAddr::of_line(PRIVATE_BASE + STRIDE * i as u64)
    }

    /// Bytes between consecutive threads' cells: thread `i`'s
    /// [`private`](Self::private) and [`scan_conflict`](Self::scan_conflict)
    /// lines sit `i` strides past thread 0's.
    pub(crate) fn stride(&self) -> u64 {
        STRIDE
    }

    /// The lock word.
    pub fn lock(&self) -> WordAddr {
        WordAddr::of_line(LOCK_BASE)
    }

    /// The ticket lock's serving word (separate line from the ticket
    /// counter, as any competent implementation pads it).
    pub fn lock_serving(&self) -> WordAddr {
        WordAddr::of_line(LOCK_BASE + STRIDE)
    }

    /// Base of the MCS flag-node region (thread j's flag is
    /// `mcs_flag_base + 128·j`).
    pub fn mcs_flag_base(&self) -> WordAddr {
        WordAddr::of_line(MCS_FLAG_BASE)
    }

    /// Base of the MCS next-link region.
    pub fn mcs_next_base(&self) -> WordAddr {
        WordAddr::of_line(MCS_NEXT_BASE)
    }

    /// Thread `i`'s scan line: private to the thread, but guaranteed to
    /// map to the *same* L1 set as [`shared`](Self::shared) — every base
    /// and stride in this map is a multiple of 64, the largest set count
    /// in use — so touching it can evict the thread's copy of the shared
    /// line ([`Workload::ReadScan`](crate::Workload::ReadScan)).
    pub fn scan_conflict(&self, i: usize) -> WordAddr {
        WordAddr::of_line(SCAN_BASE + STRIDE * i as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_regions_disjoint() {
        let m = AddressMap;
        let mut lines = HashSet::new();
        lines.insert(m.shared().line);
        lines.insert(m.shared_aux(0).line);
        lines.insert(m.shared_aux(1).line);
        lines.insert(m.lock().line);
        lines.insert(m.lock_serving().line);
        for j in 0..64u64 {
            lines.insert(bounce_sim::cache::LineId(
                m.mcs_flag_base().line.0 + 128 * j,
            ));
            lines.insert(bounce_sim::cache::LineId(
                m.mcs_next_base().line.0 + 128 * j,
            ));
        }
        for i in 0..64 {
            lines.insert(m.private(i).line);
            lines.insert(m.scan_conflict(i).line);
        }
        assert_eq!(lines.len(), 5 + 64 + 64 + 128, "no two cells share a line");
    }

    #[test]
    fn scan_lines_conflict_with_shared_set() {
        let m = AddressMap;
        for i in 0..16 {
            assert_eq!(
                m.scan_conflict(i).line.0 % 64,
                m.shared().line.0 % 64,
                "scan line {i} must map to the shared line's L1 set"
            );
        }
    }

    #[test]
    fn private_lines_strided() {
        let m = AddressMap;
        let a = m.private(0).line.0;
        let b = m.private(1).line.0;
        assert_eq!(b - a, 128, "padded spacing");
        for i in [0, 1, 287] {
            assert_eq!(m.private(0).indexed(m.stride(), i as u64), m.private(i));
            assert_eq!(
                m.scan_conflict(0).indexed(m.stride(), i as u64),
                m.scan_conflict(i)
            );
        }
    }
}
