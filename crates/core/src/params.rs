//! The model's parameter set Θ.
//!
//! The whole point of the paper's model is that a *small* set of scalars
//! — one uncontended cost per primitive plus four line-transfer costs —
//! predicts latency, throughput, fairness and energy in both contention
//! regimes. Defaults below are consistent with the simulator presets;
//! [`crate::fit`] can recover them from measurements alone.

use bounce_atomics::Primitive;
use bounce_topo::Domain;

/// Exclusive-ownership transfer cost (cycles) per communication domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferCosts {
    /// Between SMT siblings on one core (line stays in the shared L1;
    /// cost is the local serialisation on the line).
    pub smt: f64,
    /// Between cores of one tile (through the shared L2).
    pub tile: f64,
    /// Between tiles of one socket (through the LLC/home directory).
    pub socket: f64,
    /// Across sockets (through QPI) or across the mesh average.
    pub cross: f64,
}

impl TransferCosts {
    /// The cost for a given domain. `SameThread` maps to the SMT cost
    /// (it never occurs as a transfer; callers exclude it).
    pub fn get(&self, d: Domain) -> f64 {
        match d {
            Domain::SameThread | Domain::SmtSibling => self.smt,
            Domain::SameTile => self.tile,
            Domain::SameSocket => self.socket,
            Domain::CrossSocket => self.cross,
        }
    }

    /// As a vector aligned with [`Domain::ALL`] (SameThread slot repeats
    /// the SMT cost).
    pub fn as_array(&self) -> [f64; 5] {
        [self.smt, self.smt, self.tile, self.socket, self.cross]
    }
}

/// The full parameter set for one machine.
#[derive(Debug, Clone)]
pub struct ModelParams {
    /// Uncontended cost (cycles) of each primitive, indexed by
    /// [`Primitive::ALL`] order: the L1-hit issue+retire latency.
    pub issue_cycles: [f64; 6],
    /// Line transfer costs by domain.
    pub transfer: TransferCosts,
    /// Cost of the very first (cold, from-memory) access — only matters
    /// for tiny runs; kept for completeness.
    pub cold_miss_cycles: f64,
    /// Static+active power per running core, watts (for the energy
    /// predictions).
    pub static_w_per_core: f64,
    /// Dynamic energy per operation, nanojoules.
    pub dynamic_nj_per_op: f64,
    /// Extra dynamic energy per *transfer* (coherence messages + wire),
    /// nanojoules.
    pub dynamic_nj_per_transfer: f64,
    /// Core frequency, GHz — converts cycles to time.
    pub freq_ghz: f64,
}

impl ModelParams {
    /// Uncontended cost of primitive `p`, cycles.
    pub fn issue(&self, p: Primitive) -> f64 {
        let idx = Primitive::ALL.iter().position(|x| *x == p).unwrap();
        self.issue_cycles[idx]
    }

    /// Defaults for the Xeon E5-2695 v4 testbed.
    ///
    /// The transfer costs are the sums the simulator assembles:
    /// e.g. socket ≈ dir lookup (18) + home→owner wire (~18) + peer
    /// lookup (12) + owner→requester wire (~18) ≈ 66 cycles.
    pub fn e5_default() -> Self {
        ModelParams {
            // load, store, swap, tas, faa, cas — L1-hit + exec.
            issue_cycles: [5.0, 5.0, 23.0, 23.0, 23.0, 25.0],
            transfer: TransferCosts {
                smt: 23.0,
                tile: 40.0,
                socket: 52.0,
                cross: 165.0,
            },
            cold_miss_cycles: 250.0,
            static_w_per_core: 3.5,
            dynamic_nj_per_op: 1.5,
            dynamic_nj_per_transfer: 4.0,
            freq_ghz: 2.1,
        }
    }

    /// Defaults for the Xeon Phi 7290 (KNL) testbed: slower cores,
    /// longer mesh distances, no cross-socket domain (single package —
    /// `cross` is set to the far-mesh-corner cost and occurs only on
    /// synthetic multi-package mesh configs).
    pub fn knl_default() -> Self {
        ModelParams {
            issue_cycles: [7.0, 7.0, 40.0, 40.0, 40.0, 44.0],
            transfer: TransferCosts {
                smt: 40.0,
                tile: 52.0,
                socket: 80.0,
                cross: 120.0,
            },
            cold_miss_cycles: 400.0,
            static_w_per_core: 0.9,
            dynamic_nj_per_op: 0.9,
            dynamic_nj_per_transfer: 3.0,
            freq_ghz: 1.5,
        }
    }

    /// Defaults for the small test machines used in unit tests.
    pub fn tiny_default() -> Self {
        ModelParams {
            issue_cycles: [5.0, 5.0, 23.0, 23.0, 23.0, 25.0],
            transfer: TransferCosts {
                smt: 23.0,
                tile: 48.0,
                socket: 60.0,
                cross: 230.0,
            },
            cold_miss_cycles: 250.0,
            static_w_per_core: 2.0,
            dynamic_nj_per_op: 1.0,
            dynamic_nj_per_transfer: 3.0,
            freq_ghz: 2.0,
        }
    }

    /// Sanity checks: positive costs, ordered transfer ladder.
    pub fn validate(&self) -> Result<(), String> {
        if self.issue_cycles.iter().any(|&c| c <= 0.0 || c.is_nan()) {
            return Err("non-positive issue cost".into());
        }
        let t = &self.transfer;
        for (name, v) in [
            ("smt", t.smt),
            ("tile", t.tile),
            ("socket", t.socket),
            ("cross", t.cross),
        ] {
            if v <= 0.0 || v.is_nan() {
                return Err(format!("non-positive transfer cost {name}"));
            }
        }
        if !(t.smt <= t.tile && t.tile <= t.socket && t.socket <= t.cross) {
            return Err(format!(
                "transfer ladder not monotone: smt={} tile={} socket={} cross={}",
                t.smt, t.tile, t.socket, t.cross
            ));
        }
        if self.freq_ghz <= 0.0 || self.freq_ghz.is_nan() {
            return Err("non-positive frequency".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ModelParams::e5_default().validate().unwrap();
        ModelParams::knl_default().validate().unwrap();
        ModelParams::tiny_default().validate().unwrap();
    }

    #[test]
    fn issue_lookup_by_primitive() {
        let p = ModelParams::e5_default();
        assert!(p.issue(Primitive::Load) < p.issue(Primitive::Faa));
        assert!(p.issue(Primitive::Cas) > p.issue(Primitive::Faa));
    }

    #[test]
    fn transfer_ladder_ordered() {
        let t = ModelParams::e5_default().transfer;
        assert!(t.smt < t.tile && t.tile < t.socket && t.socket < t.cross);
        assert_eq!(t.get(Domain::CrossSocket), t.cross);
        assert_eq!(t.get(Domain::SmtSibling), t.smt);
        let arr = t.as_array();
        assert_eq!(arr[4], t.cross);
    }

    #[test]
    fn validate_rejects_inverted_ladder() {
        let mut p = ModelParams::e5_default();
        p.transfer.smt = 1000.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_nonpositive() {
        let mut p = ModelParams::e5_default();
        p.issue_cycles[0] = 0.0;
        assert!(p.validate().is_err());
        let mut p = ModelParams::e5_default();
        p.freq_ghz = -1.0;
        assert!(p.validate().is_err());
    }
}
