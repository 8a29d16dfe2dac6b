//! Thread-placement policies.
//!
//! Under high contention the mixture of intra-/cross-socket line transfers
//! — and hence throughput — is determined by *where* the contending
//! threads sit. The paper's placement experiment compares pinnings; these
//! policies reproduce the standard ones.

use crate::machine::{HwThreadId, MachineTopology};

/// A policy mapping "run N threads" onto concrete hardware threads.
///
/// ```
/// use bounce_topo::{presets, Placement};
///
/// let topo = presets::xeon_e5_2695_v4();
/// // Packed: fill socket 0's physical cores before touching socket 1.
/// let packed = Placement::Packed.assign(&topo, 18);
/// assert!(packed.iter().all(|&t| topo.socket_of(t).0 == 0));
/// // Scattered: alternate sockets.
/// let scattered = Placement::Scattered.assign(&topo, 2);
/// assert_ne!(topo.socket_of(scattered[0]), topo.socket_of(scattered[1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Fill physical cores of socket 0 first (one thread per core), then
    /// socket 1, …, and only then start using second/third/fourth SMT
    /// contexts. The usual "compact, cores-first" pinning.
    Packed,
    /// Round-robin across sockets core by core (socket0/core0,
    /// socket1/core0, socket0/core1, …), SMT contexts last.
    Scattered,
    /// Fill all SMT contexts of a core before moving to the next core
    /// (socket-major). Maximises SMT sharing.
    SmtFirst,
    /// Hardware-thread id order (socket-major, core-major, SMT-minor) —
    /// whatever `homogeneous()` produced. On our presets this equals
    /// SmtFirst; kept separate because host-detected topologies may have
    /// interleaved numbering.
    Linear,
}

impl Placement {
    /// All policies.
    pub const ALL: [Placement; 4] = [
        Placement::Packed,
        Placement::Scattered,
        Placement::SmtFirst,
        Placement::Linear,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Packed => "packed",
            Placement::Scattered => "scattered",
            Placement::SmtFirst => "smt-first",
            Placement::Linear => "linear",
        }
    }

    /// Choose the hardware threads that `n` software threads are pinned
    /// to, in assignment order.
    ///
    /// # Panics
    /// Panics if `n` exceeds the machine's hardware-thread count.
    pub fn assign(&self, topo: &MachineTopology, n: usize) -> Vec<HwThreadId> {
        assert!(
            n <= topo.num_threads(),
            "cannot place {n} threads on {} hardware threads",
            topo.num_threads()
        );
        let order = self.full_order(topo);
        order.into_iter().take(n).collect()
    }

    /// The complete assignment order over every hardware thread.
    pub fn full_order(&self, topo: &MachineTopology) -> Vec<HwThreadId> {
        match self {
            Placement::Linear => (0..topo.num_threads()).map(HwThreadId).collect(),
            Placement::SmtFirst => {
                // Socket-major, core-major, SMT-minor == iterate cores in
                // id order and emit each core's threads together.
                let mut out = Vec::with_capacity(topo.num_threads());
                for core in &topo.cores {
                    out.extend(core.threads.iter().copied());
                }
                out
            }
            Placement::Packed => {
                // SMT level 0 of every core (socket-major), then level 1, …
                let mut out = Vec::with_capacity(topo.num_threads());
                for smt in 0..topo.smt_ways() {
                    for core in &topo.cores {
                        if let Some(&t) = core.threads.get(smt) {
                            out.push(t);
                        }
                    }
                }
                out
            }
            Placement::Scattered => {
                // Round-robin sockets at each SMT level.
                let mut per_socket: Vec<Vec<HwThreadId>> = vec![Vec::new(); topo.num_sockets()];
                for smt in 0..topo.smt_ways() {
                    for core in &topo.cores {
                        if let Some(&t) = core.threads.get(smt) {
                            per_socket[core.socket.0].push(t);
                        }
                    }
                }
                let mut out = Vec::with_capacity(topo.num_threads());
                let mut idx = vec![0usize; per_socket.len()];
                while out.len() < topo.num_threads() {
                    for (s, q) in per_socket.iter().enumerate() {
                        if idx[s] < q.len() {
                            out.push(q[idx[s]]);
                            idx[s] += 1;
                        }
                    }
                }
                out
            }
        }
    }
}

/// A placement's full assignment order, precomputed once, with cheap
/// "first `n` threads" prefix access.
///
/// Sweeps ask for the same placement's prefixes over and over; this is
/// the one shared helper for that pattern (previously copy-pasted as
/// ad-hoc `threads_of` closures at every sweep site).
///
/// ```
/// use bounce_topo::{presets, Placement, PlacementOrder};
///
/// let topo = presets::xeon_e5_2695_v4();
/// let order = PlacementOrder::new(Placement::Packed, &topo);
/// assert_eq!(order.threads_of(4), &order.full()[..4]);
/// ```
#[derive(Debug, Clone)]
pub struct PlacementOrder {
    order: Vec<HwThreadId>,
}

impl PlacementOrder {
    /// Precompute `placement`'s full order over `topo`.
    pub fn new(placement: Placement, topo: &MachineTopology) -> Self {
        PlacementOrder {
            order: placement.full_order(topo),
        }
    }

    /// The first `n` threads of the placement order.
    ///
    /// # Panics
    /// Panics if `n` exceeds the machine's hardware-thread count.
    pub fn threads_of(&self, n: usize) -> &[HwThreadId] {
        assert!(
            n <= self.order.len(),
            "cannot take {n} threads from a {}-thread placement order",
            self.order.len()
        );
        &self.order[..n]
    }

    /// The complete order.
    pub fn full(&self) -> &[HwThreadId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{dual_socket_small, tiny_test_machine, xeon_e5_2695_v4};
    use std::collections::HashSet;

    #[test]
    fn all_policies_produce_permutations() {
        let topo = tiny_test_machine();
        for p in Placement::ALL {
            let order = p.full_order(&topo);
            assert_eq!(order.len(), topo.num_threads(), "{}", p.label());
            let set: HashSet<_> = order.iter().collect();
            assert_eq!(set.len(), topo.num_threads(), "{}", p.label());
        }
    }

    #[test]
    fn packed_uses_distinct_cores_first() {
        let topo = xeon_e5_2695_v4();
        let threads = Placement::Packed.assign(&topo, 36);
        let cores: HashSet<_> = threads.iter().map(|&t| topo.core_of(t).id).collect();
        assert_eq!(cores.len(), 36, "first 36 packed threads on 36 cores");
        // And all on both sockets only after filling socket 0.
        let first18: HashSet<_> = threads[..18].iter().map(|&t| topo.socket_of(t)).collect();
        assert_eq!(first18.len(), 1);
    }

    #[test]
    fn scattered_alternates_sockets() {
        let topo = dual_socket_small();
        let threads = Placement::Scattered.assign(&topo, 4);
        let sockets: Vec<_> = threads.iter().map(|&t| topo.socket_of(t).0).collect();
        assert_eq!(sockets, vec![0, 1, 0, 1]);
    }

    #[test]
    fn smt_first_fills_siblings() {
        let topo = dual_socket_small();
        let threads = Placement::SmtFirst.assign(&topo, 2);
        assert_eq!(
            topo.core_of(threads[0]).id,
            topo.core_of(threads[1]).id,
            "first two smt-first threads share a core"
        );
    }

    #[test]
    #[should_panic]
    fn assign_rejects_oversubscription() {
        let topo = tiny_test_machine();
        let _ = Placement::Packed.assign(&topo, topo.num_threads() + 1);
    }

    #[test]
    fn assign_is_prefix_of_full_order() {
        let topo = tiny_test_machine();
        for p in Placement::ALL {
            let full = p.full_order(&topo);
            for n in 0..=topo.num_threads() {
                assert_eq!(&p.assign(&topo, n)[..], &full[..n]);
            }
        }
    }

    #[test]
    fn placement_order_prefixes_match_assign() {
        let topo = tiny_test_machine();
        for p in Placement::ALL {
            let order = PlacementOrder::new(p, &topo);
            assert_eq!(order.full(), &p.full_order(&topo)[..]);
            for n in 0..=topo.num_threads() {
                assert_eq!(order.threads_of(n), &p.assign(&topo, n)[..]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn placement_order_rejects_oversubscription() {
        let topo = tiny_test_machine();
        let order = PlacementOrder::new(Placement::Packed, &topo);
        let _ = order.threads_of(topo.num_threads() + 1);
    }
}
