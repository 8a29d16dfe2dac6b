//! Thread-placement policies.
//!
//! Under high contention the mixture of intra-/cross-socket line transfers
//! — and hence throughput — is determined by *where* the contending
//! threads sit. The paper's placement experiment compares pinnings; these
//! policies reproduce the standard ones.

use crate::machine::{HwThreadId, MachineTopology, SocketId};

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
    /// to, in assignment order: the first `n` of [`Placement::full_order`],
    /// built directly into a vector of capacity exactly `n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds the machine's hardware-thread count.
    pub fn assign(&self, topo: &MachineTopology, n: usize) -> Vec<HwThreadId> {
        assert!(
            n <= topo.num_threads(),
            "cannot place {n} threads on {} hardware threads",
            topo.num_threads()
        );
        let mut out = Vec::with_capacity(n);
        match self {
            Placement::Linear => out.extend((0..n).map(HwThreadId)),
            Placement::SmtFirst => {
                // Socket-major, core-major, SMT-minor == iterate cores in
                // id order and emit each core's threads together.
                let order = topo.cores.iter().flat_map(|c| c.threads.iter().copied());
                out.extend(order.take(n));
            }
            // SMT level 0 of every core (socket-major), then level 1, …
            Placement::Packed => out.extend(smt_level_major(topo, None).take(n)),
            Placement::Scattered => {
                // Round-robin sockets, each in its packed order.
                let mut per_socket: Vec<_> = (0..topo.num_sockets())
                    .map(|s| smt_level_major(topo, Some(SocketId(s))))
                    .collect();
                while out.len() < n {
                    for q in &mut per_socket {
                        if out.len() < n {
                            out.extend(q.next());
                        }
                    }
                }
            }
        }
        out
    }

    /// The complete assignment order over every hardware thread.
    pub fn full_order(&self, topo: &MachineTopology) -> Vec<HwThreadId> {
        self.assign(topo, topo.num_threads())
    }
}

/// The hardware threads of `topo` (of one socket, if given) at SMT
/// level 0 of every core in id order, then at level 1, …
fn smt_level_major(
    topo: &MachineTopology,
    socket: Option<SocketId>,
) -> impl Iterator<Item = HwThreadId> + '_ {
    (0..topo.smt_ways()).flat_map(move |smt| {
        topo.cores
            .iter()
            .filter(move |c| socket.is_none_or(|s| c.socket == s))
            .filter_map(move |c| c.threads.get(smt).copied())
    })
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
    use crate::presets::{dual_socket_small, tiny_test_machine, xeon_e5_2695_v4, xeon_phi_7290};
    use std::collections::BTreeSet;

    #[test]
    fn all_policies_produce_permutations() {
        let topo = tiny_test_machine();
        for p in Placement::ALL {
            let order = p.full_order(&topo);
            assert_eq!(order.len(), topo.num_threads(), "{}", p.label());
            let set: BTreeSet<_> = order.iter().collect();
            assert_eq!(set.len(), topo.num_threads(), "{}", p.label());
        }
    }

    #[test]
    fn packed_uses_distinct_cores_first() {
        let topo = xeon_e5_2695_v4();
        let threads = Placement::Packed.assign(&topo, 36);
        let cores: BTreeSet<_> = threads.iter().map(|&t| topo.core_of(t).id).collect();
        assert_eq!(cores.len(), 36, "first 36 packed threads on 36 cores");
        // And all on both sockets only after filling socket 0.
        let first18: BTreeSet<_> = threads[..18].iter().map(|&t| topo.socket_of(t)).collect();
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
    fn orders_follow_their_definitions() {
        // Each policy's order as a sort key over the hardware threads: a
        // reference that does not walk the topology as `assign` does.
        for topo in [
            tiny_test_machine(),
            dual_socket_small(),
            xeon_e5_2695_v4(),
            xeon_phi_7290(),
        ] {
            let place = |t: HwThreadId| {
                let core = topo.core_of(t);
                let peers = topo.cores.iter().filter(|c| c.socket == core.socket);
                let in_socket = peers.filter(|c| c.id < core.id).count();
                (topo.threads[t.0].smt_index as usize, core, in_socket)
            };
            for p in Placement::ALL {
                let mut reference: Vec<_> = (0..topo.num_threads()).map(HwThreadId).collect();
                reference.sort_by_key(|&t| {
                    let (smt, core, in_socket) = place(t);
                    match p {
                        Placement::Linear => (t.0, 0, 0),
                        Placement::SmtFirst => (core.id.0, smt, 0),
                        Placement::Packed => (smt, core.id.0, 0),
                        Placement::Scattered => (smt, in_socket, core.socket.0),
                    }
                });
                let order = p.full_order(&topo);
                assert_eq!(order, reference, "{} on {}", p.label(), topo.name);
            }
        }
    }

    #[test]
    fn assign_holds_exactly_n_threads() {
        // Sweeps keep one placement per point for the whole run: a
        // KNL n = 1 point must not hold 288 slots.
        for topo in [xeon_e5_2695_v4(), xeon_phi_7290()] {
            let all = topo.num_threads();
            for p in Placement::ALL {
                let full = p.full_order(&topo);
                for n in [0, 1, all / 2, all] {
                    let assigned = p.assign(&topo, n);
                    assert_eq!(&assigned[..], &full[..n], "{} n={n}", p.label());
                    assert_eq!(
                        assigned.capacity(),
                        n,
                        "{} n={n} on {}",
                        p.label(),
                        topo.name
                    );
                }
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
