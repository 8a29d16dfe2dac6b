//! The unified result type both backends produce.

use bounce_atomics::{LockShape, Primitive};

/// Which backend produced a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The `bounce-sim` coherence simulator.
    Sim,
    /// Real threads on the host machine.
    Native,
}

impl Backend {
    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        }
    }
}

/// One workload execution, reduced to the metrics the paper reports:
/// throughput, latency, fairness, energy (plus CAS success bookkeeping
/// and the transfer counts only the simulator can see).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload label (`Workload::label()`).
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// Producing backend.
    pub backend: Backend,
    /// Thread count.
    pub n: usize,
    /// Completed ops per second (attempts for conditional primitives).
    pub throughput_ops_per_sec: f64,
    /// Useful ops per second (conditional successes when the workload
    /// has conditional primitives, completed ops otherwise).
    pub goodput_ops_per_sec: f64,
    /// Conditional (CAS/TAS) attempts per second; 0 when the workload
    /// has none.
    pub cond_attempts_per_sec: f64,
    /// Fraction of conditional attempts that failed.
    pub failure_rate: f64,
    /// Mean per-op latency, cycles.
    pub mean_latency_cycles: f64,
    /// Median per-op latency, cycles (0 when not collected).
    pub p50_latency_cycles: f64,
    /// 99th-percentile per-op latency, cycles (0 when not collected).
    pub p99_latency_cycles: f64,
    /// Jain fairness over per-thread success counts.
    pub jain: f64,
    /// Energy per op, nanojoules (None when the backend cannot measure).
    pub energy_per_op_nj: Option<f64>,
    /// Exclusive-line transfers by domain (simulator only).
    pub transfers_by_domain: Option<[u64; 5]>,
    /// Completed ops per primitive in `Primitive::ALL` order (simulator
    /// only).
    pub ops_by_prim: Option<[u64; 6]>,
    /// Ops per thread (for fairness inspection).
    pub per_thread_ops: Vec<u64>,
}

impl Measurement {
    /// Ops per second per thread.
    pub fn per_thread_throughput(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.throughput_ops_per_sec / self.n as f64
        }
    }

    /// Total transfers (simulator only).
    pub fn total_transfers(&self) -> Option<u64> {
        self.transfers_by_domain.map(|t| t.iter().sum())
    }

    /// Critical-section handoffs per second, for a measurement of a
    /// lock-handoff workload of the given `shape`.
    ///
    /// Handoffs = successful acquisitions. TAS/TTAS: the
    /// successful-TAS count. Ticket: two FAAs per handoff (take
    /// ticket + advance serving). MCS: exactly one SWAP per
    /// acquisition (its release CAS only succeeds when uncontended,
    /// so goodput would undercount).
    pub fn lock_handoffs_per_sec(&self, shape: LockShape) -> f64 {
        match shape {
            LockShape::Ticket => self.goodput_ops_per_sec / 2.0,
            LockShape::Mcs => {
                let total: u64 = self.per_thread_ops.iter().sum();
                let swaps = self.ops_by_prim.map_or(0, |o| {
                    o[Primitive::ALL
                        .iter()
                        .position(|p| *p == Primitive::Swap)
                        .unwrap()]
                });
                if total == 0 {
                    0.0
                } else {
                    self.throughput_ops_per_sec * swaps as f64 / total as f64
                }
            }
            _ => self.goodput_ops_per_sec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Measurement {
        Measurement {
            workload: "hc-faa".into(),
            machine: "test".into(),
            backend: Backend::Sim,
            n: 4,
            throughput_ops_per_sec: 4e7,
            goodput_ops_per_sec: 4e7,
            cond_attempts_per_sec: 0.0,
            failure_rate: 0.0,
            mean_latency_cycles: 100.0,
            p50_latency_cycles: 90.0,
            p99_latency_cycles: 300.0,
            jain: 1.0,
            energy_per_op_nj: Some(50.0),
            transfers_by_domain: Some([0, 1, 2, 3, 4]),
            ops_by_prim: None,
            per_thread_ops: vec![10, 10, 10, 10],
        }
    }

    #[test]
    fn derived_metrics() {
        let m = mk();
        assert!((m.per_thread_throughput() - 1e7).abs() < 1.0);
        assert_eq!(m.total_transfers(), Some(10));
    }

    #[test]
    fn backend_labels() {
        assert_eq!(Backend::Sim.label(), "sim");
        assert_eq!(Backend::Native.label(), "native");
    }

    #[test]
    fn lock_handoff_accounting_by_shape() {
        let mut m = mk();
        m.goodput_ops_per_sec = 2e6;
        m.throughput_ops_per_sec = 3e6;
        m.per_thread_ops = vec![30, 30];
        let mut by_prim = [0u64; 6];
        by_prim[Primitive::ALL
            .iter()
            .position(|p| *p == Primitive::Swap)
            .unwrap()] = 20;
        m.ops_by_prim = Some(by_prim);
        // TAS/TTAS report goodput; ticket halves it (two FAAs per
        // handoff); MCS scales total throughput by the SWAP share.
        assert_eq!(m.lock_handoffs_per_sec(LockShape::Tas), 2e6);
        assert_eq!(m.lock_handoffs_per_sec(LockShape::Ttas), 2e6);
        assert_eq!(m.lock_handoffs_per_sec(LockShape::Ticket), 1e6);
        assert_eq!(m.lock_handoffs_per_sec(LockShape::Mcs), 1e6);
        m.per_thread_ops = vec![0, 0];
        assert_eq!(m.lock_handoffs_per_sec(LockShape::Mcs), 0.0);
    }

    #[test]
    fn zero_thread_guard() {
        let mut m = mk();
        m.n = 0;
        assert_eq!(m.per_thread_throughput(), 0.0);
    }
}
