//! Communication-distance classification between hardware threads.
//!
//! The cache-line-bouncing model distinguishes *where* the current owner of
//! a contended line sits relative to the next requester, because the cost
//! of the exclusive-ownership transfer is set by the coherence path:
//! SMT siblings share an L1 (cheapest), cores on a tile share an L2,
//! cores on a socket go through the LLC/directory, and cross-socket
//! transfers traverse QPI.

use crate::machine::{HwThreadId, Interconnect, MachineTopology};

/// The coherence domain that a line transfer between two hardware threads
/// crosses. Ordered from cheapest to most expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Same hardware thread — no transfer at all (line stays in L1).
    SameThread,
    /// Different SMT contexts on the same physical core (shared L1).
    SmtSibling,
    /// Different cores on the same tile (shared L2).
    SameTile,
    /// Different tiles on the same socket (via LLC / distributed directory).
    SameSocket,
    /// Different sockets (via QPI / package-to-package link).
    CrossSocket,
}

impl Domain {
    /// All domains, cheapest first.
    pub const ALL: [Domain; 5] = [
        Domain::SameThread,
        Domain::SmtSibling,
        Domain::SameTile,
        Domain::SameSocket,
        Domain::CrossSocket,
    ];

    /// Position of this domain in [`Domain::ALL`], in O(1).
    ///
    /// `ALL` lists the variants in declaration order, so the discriminant
    /// *is* the index (checked by a unit test). Hot paths use this
    /// instead of scanning `ALL` per transfer.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Domain::SameThread => "self",
            Domain::SmtSibling => "smt",
            Domain::SameTile => "tile",
            Domain::SameSocket => "socket",
            Domain::CrossSocket => "cross",
        }
    }
}

impl MachineTopology {
    /// Classify the communication domain between two hardware threads.
    pub fn comm_domain(&self, a: HwThreadId, b: HwThreadId) -> Domain {
        if a == b {
            return Domain::SameThread;
        }
        let ca = self.core_of(a);
        let cb = self.core_of(b);
        if ca.id == cb.id {
            return Domain::SmtSibling;
        }
        if ca.tile == cb.tile {
            return Domain::SameTile;
        }
        if ca.socket == cb.socket {
            return Domain::SameSocket;
        }
        Domain::CrossSocket
    }

    /// Interconnect hop count between the tiles hosting two hardware
    /// threads. For a mesh this is the XY (Manhattan) distance; for a ring
    /// it is the shorter arc between ring stops (plus the cross link when
    /// the sockets differ, counted as one hop); uniform interconnects
    /// report 0 or 1.
    pub fn hop_count(&self, a: HwThreadId, b: HwThreadId) -> u32 {
        let ta = self.tile_of(a);
        let tb = self.tile_of(b);
        if ta.id == tb.id {
            return 0;
        }
        match &self.interconnect {
            Interconnect::Mesh { .. } => match (ta.mesh_pos, tb.mesh_pos) {
                (Some(pa), Some(pb)) => pa.hops_to(&pb),
                // Missing positions are a validation error; fall back to a
                // single hop rather than panicking in release paths.
                _ => 1,
            },
            Interconnect::Ring {
                stops_per_socket, ..
            } => {
                let n = *stops_per_socket as i32;
                let sa = ta.ring_stop.unwrap_or(0) as i32;
                let sb = tb.ring_stop.unwrap_or(0) as i32;
                if ta.socket == tb.socket {
                    let d = (sa - sb).abs();
                    d.min(n - d).max(1) as u32
                } else {
                    // Reach own socket edge, cross the link (1 hop), reach
                    // the destination stop on the far socket.
                    let half = (n / 2).max(1);
                    (sa.min(n - sa).min(half) + 1 + sb.min(n - sb).min(half)) as u32
                }
            }
            Interconnect::Uniform { .. } => 1,
        }
    }

    /// Raw interconnect traversal latency between two threads' tiles, in
    /// cycles (hop latency × hop count, plus cross-socket link cost for
    /// rings). This is the *wire* component only; protocol costs are added
    /// by the simulator / model.
    pub fn wire_cycles(&self, a: HwThreadId, b: HwThreadId) -> u32 {
        let hops = self.hop_count(a, b);
        match &self.interconnect {
            Interconnect::Mesh { hop_cycles, .. } => hops * hop_cycles,
            Interconnect::Ring {
                hop_cycles,
                cross_link_cycles,
                ..
            } => {
                let mut c = hops * hop_cycles;
                if self.socket_of(a) != self.socket_of(b) {
                    c += cross_link_cycles;
                }
                c
            }
            Interconnect::Uniform { latency_cycles } => hops * latency_cycles,
        }
    }

    /// Average hop count from a thread's tile to every tile (used to place
    /// "home" directory slices and to compute mean mesh distances).
    pub fn mean_hops_from(&self, a: HwThreadId) -> f64 {
        let ta = self.tile_of(a).id;
        let mut total = 0u64;
        for tl in &self.tiles {
            if tl.id == ta {
                continue;
            }
            // Pick the first thread on the tile as a representative.
            let core = &self.cores[tl.cores[0].0];
            total += self.hop_count(a, core.threads[0]) as u64;
        }
        if self.tiles.len() <= 1 {
            0.0
        } else {
            total as f64 / (self.tiles.len() - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CacheLevel, CacheSharing, Interconnect, MachineTopology, MeshPos};

    #[test]
    fn domain_index_matches_all_order() {
        for (i, d) in Domain::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i, "{d:?}");
        }
    }

    fn cache() -> Vec<CacheLevel> {
        vec![CacheLevel {
            name: "L1d".into(),
            size_bytes: 32 * 1024,
            line_bytes: 64,
            assoc: 8,
            sharing: CacheSharing::PerCore,
            hit_cycles: 4,
        }]
    }

    fn two_socket() -> MachineTopology {
        // 2 sockets x 2 tiles x 2 cores x 2 smt
        let mut m = MachineTopology::homogeneous(
            "t",
            2,
            2,
            2,
            2,
            cache(),
            Interconnect::Ring {
                hop_cycles: 5,
                stops_per_socket: 2,
                cross_link_cycles: 100,
            },
            2.0,
        );
        for (i, t) in m.tiles.iter_mut().enumerate() {
            t.ring_stop = Some((i % 2) as u16);
        }
        m.validate().unwrap();
        m
    }

    #[test]
    fn domain_ladder() {
        let m = two_socket();
        let t = |i| HwThreadId(i);
        assert_eq!(m.comm_domain(t(0), t(0)), Domain::SameThread);
        assert_eq!(m.comm_domain(t(0), t(1)), Domain::SmtSibling);
        assert_eq!(m.comm_domain(t(0), t(2)), Domain::SameTile);
        assert_eq!(m.comm_domain(t(0), t(4)), Domain::SameSocket);
        assert_eq!(m.comm_domain(t(0), t(8)), Domain::CrossSocket);
    }

    #[test]
    fn domain_is_symmetric() {
        let m = two_socket();
        for a in 0..m.num_threads() {
            for b in 0..m.num_threads() {
                assert_eq!(
                    m.comm_domain(HwThreadId(a), HwThreadId(b)),
                    m.comm_domain(HwThreadId(b), HwThreadId(a))
                );
            }
        }
    }

    #[test]
    fn domain_ordering_matches_cost_intuition() {
        assert!(Domain::SameThread < Domain::SmtSibling);
        assert!(Domain::SmtSibling < Domain::SameTile);
        assert!(Domain::SameTile < Domain::SameSocket);
        assert!(Domain::SameSocket < Domain::CrossSocket);
    }

    #[test]
    fn ring_wire_cost_cross_socket_includes_link() {
        let m = two_socket();
        let same = m.wire_cycles(HwThreadId(0), HwThreadId(4));
        let cross = m.wire_cycles(HwThreadId(0), HwThreadId(8));
        assert!(cross > same + 50, "cross={cross} same={same}");
    }

    #[test]
    fn mesh_hops_and_wire() {
        let mut m = MachineTopology::homogeneous(
            "mesh",
            1,
            4,
            1,
            1,
            cache(),
            Interconnect::Mesh {
                cols: 2,
                rows: 2,
                hop_cycles: 3,
            },
            1.0,
        );
        let pos = [(0, 0), (1, 0), (0, 1), (1, 1)];
        for (t, (c, r)) in m.tiles.iter_mut().zip(pos) {
            t.mesh_pos = Some(MeshPos { col: c, row: r });
        }
        m.validate().unwrap();
        assert_eq!(m.hop_count(HwThreadId(0), HwThreadId(3)), 2);
        assert_eq!(m.wire_cycles(HwThreadId(0), HwThreadId(3)), 6);
        assert_eq!(m.hop_count(HwThreadId(0), HwThreadId(0)), 0);
    }

    #[test]
    fn mean_hops_reasonable() {
        let m = two_socket();
        let mh = m.mean_hops_from(HwThreadId(0));
        assert!(mh > 0.0 && mh < 10.0, "mh={mh}");
    }
}
