//! The closed-form predictions of the cache-line-bouncing model.
//!
//! [`BouncingModel`] is the canonical [`Predictor`]: it maps every
//! [`Scenario`] variant to the paper's closed forms. The per-regime
//! `predict_*` methods remain available for direct use (and keep the
//! formulas readable one regime at a time); [`Predictor::predict`] is
//! the single entry point the harness routes through.

use crate::mixture::{domain_mixture, expected_transfer_cycles};
use crate::params::ModelParams;
use crate::scenario::{LockHandoffs, Prediction, PredictionDetail, Predictor, Scenario};
use bounce_atomics::Primitive;
use bounce_topo::{HwThreadId, MachineTopology};

/// Which resource bounds a configuration (see [`BouncingModel::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// A single thread (or uncontended line): bounded by the
    /// primitive's issue cost — add threads freely.
    IssueBound,
    /// Saturated contention: bounded by the line's transfer chain —
    /// adding threads only lengthens the queue; spread the contention
    /// or batch the ops instead.
    TransferBound,
    /// Demand-limited: the line idles between requests — local work
    /// dominates, adding threads still helps.
    DemandBound,
}

impl Regime {
    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Regime::IssueBound => "issue-bound",
            Regime::TransferBound => "transfer-bound",
            Regime::DemandBound => "demand-bound",
        }
    }
}

/// The model bound to a machine.
///
/// ```
/// use bounce_core::{Model, ModelParams, Predictor, Scenario};
/// use bounce_topo::{presets, Placement};
/// use bounce_atomics::Primitive;
///
/// let topo = presets::xeon_e5_2695_v4();
/// let model = Model::new(topo.clone(), ModelParams::e5_default());
/// let threads = Placement::Packed.assign(&topo, 24);
///
/// let p = model.predict(&Scenario::high_contention(&threads, Primitive::Faa));
/// assert!(p.throughput_ops_per_sec > 1e6);
/// assert!(p.latency_cycles > p.expected_transfer_cycles);
///
/// // Low contention scales linearly instead.
/// let lc = model.predict(&Scenario::low_contention(24, Primitive::Faa, 0.0));
/// assert!(lc.throughput_ops_per_sec > p.throughput_ops_per_sec);
/// ```
#[derive(Debug, Clone)]
pub struct BouncingModel {
    topo: MachineTopology,
    params: ModelParams,
}

/// The historical name of [`BouncingModel`], kept for existing callers.
pub type Model = BouncingModel;

impl BouncingModel {
    /// Bind parameters to a machine.
    pub fn new(topo: MachineTopology, params: ModelParams) -> Self {
        params.validate().expect("invalid model parameters");
        BouncingModel { topo, params }
    }

    /// The bound machine.
    pub fn topo(&self) -> &MachineTopology {
        &self.topo
    }

    /// The parameter set.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    fn cycles_per_sec(&self) -> f64 {
        self.params.freq_ghz * 1e9
    }

    /// Placement-weighted mean transfer cost, cycles (the model’s E\[t\]).
    pub fn expected_transfer(&self, threads: &[HwThreadId]) -> f64 {
        let mix = domain_mixture(&self.topo, threads);
        expected_transfer_cycles(&mix, &self.params.transfer.as_array())
    }

    /// High-contention prediction: all `threads` apply `prim` to one
    /// shared line with no local work between ops.
    ///
    /// * `X(1) = 1/c_p` (pure L1 hits),
    /// * `X(N≥2) = 1/E[t]` — flat in N,
    /// * `L(N) = N·E[t] + c_p`,
    /// * `E/op = N·P_static/X + e_op + e_transfer`.
    pub fn predict_hc(&self, threads: &[HwThreadId], prim: Primitive) -> Prediction {
        let n = threads.len();
        let c_p = self.params.issue(prim);
        let mix = domain_mixture(&self.topo, threads);
        if n <= 1 {
            let x_cyc = 1.0 / c_p;
            let x = x_cyc * self.cycles_per_sec();
            return Prediction {
                n,
                mixture: mix,
                expected_transfer_cycles: 0.0,
                throughput_ops_per_sec: x,
                latency_cycles: c_p,
                energy_per_op_nj: self.energy_per_op_nj(n.max(1), x),
                detail: PredictionDetail::None,
            };
        }
        let e_t = expected_transfer_cycles(&mix, &self.params.transfer.as_array());
        let x = self.cycles_per_sec() / e_t;
        Prediction {
            n,
            mixture: mix,
            expected_transfer_cycles: e_t,
            throughput_ops_per_sec: x,
            latency_cycles: n as f64 * e_t + c_p,
            energy_per_op_nj: self.energy_per_op_nj(n, x) + self.params.dynamic_nj_per_transfer,
            detail: PredictionDetail::None,
        }
    }

    /// Low-contention prediction: `n` threads, each hammering its *own*
    /// line, `work` local cycles between ops.
    pub fn predict_lc(&self, n: usize, prim: Primitive, work: f64) -> Prediction {
        let c_p = self.params.issue(prim);
        let per_op = c_p + work;
        let x = n as f64 / per_op * self.cycles_per_sec();
        Prediction {
            n,
            mixture: [0.0; 5],
            expected_transfer_cycles: 0.0,
            throughput_ops_per_sec: x,
            latency_cycles: c_p,
            energy_per_op_nj: self.energy_per_op_nj(n, x),
            detail: PredictionDetail::None,
        }
    }

    /// Contention-dilution prediction (experiment E11): `threads` share
    /// one line but insert `work` local cycles between ops. Throughput is
    /// capped by whichever is smaller: the demand each thread can
    /// generate, or the line-transfer service rate.
    ///
    /// `X = min( N/(work + c_p + E[t]),  1/E[t] )` — the crossover from
    /// the contended regime to the diluted regime sits at
    /// `N* ≈ (work + c_p)/E[t] + 1`.
    pub fn predict_dilution(
        &self,
        threads: &[HwThreadId],
        prim: Primitive,
        work: f64,
    ) -> Prediction {
        let n = threads.len();
        if n <= 1 || work == 0.0 {
            let mut p = self.predict_hc(threads, prim);
            if n == 1 && work > 0.0 {
                let per_op = self.params.issue(prim) + work;
                p.throughput_ops_per_sec = self.cycles_per_sec() / per_op;
            }
            return p;
        }
        let c_p = self.params.issue(prim);
        let mix = domain_mixture(&self.topo, threads);
        let e_t = expected_transfer_cycles(&mix, &self.params.transfer.as_array());
        // Demand-limited: each thread cycles through work + its own miss.
        let demand = n as f64 / (work + c_p + e_t);
        // Service-limited: the line can change owner once per E[t].
        let service = 1.0 / e_t;
        let x_cyc = demand.min(service);
        let x = x_cyc * self.cycles_per_sec();
        Prediction {
            n,
            mixture: mix,
            expected_transfer_cycles: e_t,
            throughput_ops_per_sec: x,
            latency_cycles: (n as f64 * e_t).min(work + c_p + e_t) + c_p,
            energy_per_op_nj: self.energy_per_op_nj(n, x) + self.params.dynamic_nj_per_transfer,
            detail: PredictionDetail::None,
        }
    }

    /// CAS retry loop prediction (read → `window` cycles of compute →
    /// CAS), self-consistent success probability:
    ///
    /// each attempt is vulnerable from its read to its CAS, a span of
    /// roughly `window + E[t]·(N−1)/2` cycles (compute plus queueing);
    /// other threads' *successful* CASes arrive Poisson-like at rate
    /// `s/(2·E[t])` (each attempt costs two transfers: the read and the
    /// CAS); `s = exp(−rate · span)` is solved by fixed point.
    ///
    /// The prediction's throughput is the *goodput* (successful CASes
    /// per second); attempts and the success probability ride in
    /// [`PredictionDetail::CasLoop`]. Latency and energy are unmodeled
    /// (zero).
    pub fn predict_cas_loop(&self, threads: &[HwThreadId], window: f64) -> Prediction {
        let n = threads.len();
        if n <= 1 {
            let c = self.params.issue(Primitive::Cas) + self.params.issue(Primitive::Load) + window;
            let x = self.cycles_per_sec() / c;
            return Prediction {
                n,
                mixture: [0.0; 5],
                expected_transfer_cycles: 0.0,
                throughput_ops_per_sec: x,
                latency_cycles: 0.0,
                energy_per_op_nj: 0.0,
                detail: PredictionDetail::CasLoop {
                    success_rate: 1.0,
                    attempt_rate_per_sec: x,
                },
            };
        }
        let mix = domain_mixture(&self.topo, threads);
        let e_t = expected_transfer_cycles(&mix, &self.params.transfer.as_array());
        let span = window + e_t * (n as f64 - 1.0) / 2.0;
        let mut s: f64 = 0.5;
        for _ in 0..64 {
            let rate = s / (2.0 * e_t);
            let next = (-rate * span).exp();
            if (next - s).abs() < 1e-12 {
                s = next;
                break;
            }
            s = 0.5 * s + 0.5 * next;
        }
        // Attempts are paced by the two transfers each costs.
        let attempts_cyc = 1.0 / (2.0 * e_t);
        let attempts = attempts_cyc * self.cycles_per_sec();
        Prediction {
            n,
            mixture: mix,
            expected_transfer_cycles: e_t,
            throughput_ops_per_sec: attempts * s,
            latency_cycles: 0.0,
            energy_per_op_nj: 0.0,
            detail: PredictionDetail::CasLoop {
                success_rate: s,
                attempt_rate_per_sec: attempts,
            },
        }
    }

    /// Contention spreading (line striping): `threads` split round-robin
    /// over `lines` independent contended lines.
    ///
    /// Each stripe behaves as an independent HC instance over its own
    /// contender subset, so system throughput is the sum of the stripes'
    /// `1/E[t]` rates, capped by total demand `N/(c_p)` when stripes
    /// outnumber contenders.
    pub fn predict_multiline(
        &self,
        threads: &[HwThreadId],
        prim: Primitive,
        lines: usize,
    ) -> Prediction {
        assert!(lines >= 1);
        let n = threads.len();
        if lines == 1 || n <= 1 {
            return self.predict_hc(threads, prim);
        }
        let c_p = self.params.issue(prim);
        // Partition the placement round-robin, exactly as the workload
        // does.
        let mut x_cyc = 0.0;
        let mut mixture = [0.0f64; 5];
        let mut e_t_weighted = 0.0;
        for l in 0..lines.min(n) {
            let stripe: Vec<HwThreadId> = threads
                .iter()
                .enumerate()
                .filter(|(i, _)| i % lines == l)
                .map(|(_, &t)| t)
                .collect();
            if stripe.len() <= 1 {
                x_cyc += 1.0 / c_p;
                continue;
            }
            let mix = domain_mixture(&self.topo, &stripe);
            let e_t = expected_transfer_cycles(&mix, &self.params.transfer.as_array());
            x_cyc += 1.0 / e_t;
            for (acc, m) in mixture.iter_mut().zip(mix) {
                *acc += m / lines as f64;
            }
            e_t_weighted += e_t / lines as f64;
        }
        // Demand cap: n threads can't exceed one op per c_p each.
        x_cyc = x_cyc.min(n as f64 / c_p);
        let x = x_cyc * self.cycles_per_sec();
        Prediction {
            n,
            mixture,
            expected_transfer_cycles: e_t_weighted,
            throughput_ops_per_sec: x,
            latency_cycles: (n as f64 / lines as f64) * e_t_weighted.max(c_p) + c_p,
            energy_per_op_nj: self.energy_per_op_nj(n, x) + self.params.dynamic_nj_per_transfer,
            detail: PredictionDetail::None,
        }
    }

    /// Read-mostly sharing: one writer (FAA-style RMW) plus `readers`
    /// load-only threads on one line, with `reader_gap` cycles of local
    /// work per read.
    ///
    /// Per write period `T_w ≈ t_x + t_s` (the write's exclusivity
    /// transfer plus the readers' concurrent re-fetch round), every
    /// reader completes about **one** read — the writer's next
    /// invalidation races ahead of any further hits. Readers therefore
    /// run at `min(1/T_w, 1/(c_load + gap + t_s))` each (saturated by
    /// the writer, or by their own re-fetch pace when `gap` is large),
    /// and the writer at `1/T_w`.
    ///
    /// The prediction's throughput is the combined reader+writer rate;
    /// the split rides in [`PredictionDetail::MixedRw`]. Latency and
    /// energy are unmodeled (zero).
    pub fn predict_mixed_rw(
        &self,
        writer: HwThreadId,
        readers: &[HwThreadId],
        reader_gap: f64,
    ) -> Prediction {
        let c_load = self.params.issue(Primitive::Load);
        let r = readers.len();
        if r == 0 {
            let x = self.cycles_per_sec() / self.params.issue(Primitive::Faa);
            return Prediction {
                n: 1,
                mixture: [0.0; 5],
                expected_transfer_cycles: 0.0,
                throughput_ops_per_sec: x,
                latency_cycles: 0.0,
                energy_per_op_nj: 0.0,
                detail: PredictionDetail::MixedRw {
                    writer_ops_per_sec: x,
                    reader_ops_per_sec: 0.0,
                },
            };
        }
        // The writer's exclusivity transfer crosses to the "average"
        // reader; the reader re-fetch crosses back.
        let mut all = readers.to_vec();
        all.push(writer);
        let mix = domain_mixture(&self.topo, &all);
        let t_x = expected_transfer_cycles(&mix, &self.params.transfer.as_array());
        let t_s = t_x; // shared fetch crosses the same distance class
        let t_w = t_x + t_s;
        let per_reader_cyc = (1.0 / t_w).min(1.0 / (c_load + reader_gap + t_s));
        let writer_x = self.cycles_per_sec() / t_w;
        let reader_x = r as f64 * per_reader_cyc * self.cycles_per_sec();
        Prediction {
            n: r + 1,
            mixture: mix,
            expected_transfer_cycles: t_x,
            throughput_ops_per_sec: writer_x + reader_x,
            latency_cycles: 0.0,
            energy_per_op_nj: 0.0,
            detail: PredictionDetail::MixedRw {
                writer_ops_per_sec: writer_x,
                reader_ops_per_sec: reader_x,
            },
        }
    }

    /// Coarse closed-form handoff rates for the lock ladder under
    /// contention (`n ≥ 2` spinners, critical section `cs` cycles).
    /// Returns handoffs per second keyed by [`bounce_atomics::LockShape`]
    /// (see [`LockHandoffs`]).
    ///
    /// Assembly per handoff (each term one line transfer ≈ E\[t\]):
    ///
    /// * **TAS**: the release store queues behind the spinners' RMW
    ///   stream — period ≈ `cs + n·E[t]`.
    /// * **TTAS**: release + concurrent re-read round + the losers' TAS
    ///   burst — period ≈ `cs + 2·E[t] + (n−1)·E[t]·β` with β ≈ ½ (the
    ///   burst partially overlaps the next holder's critical section).
    /// * **ticket**: one FAA + the serving bump + the winner's re-read
    ///   — period ≈ `cs + 3·E[t]`, independent of n.
    /// * **MCS**: one SWAP amortised + the private-flag handoff —
    ///   period ≈ `cs + 2·E[t]`, independent of n.
    pub fn predict_lock_handoffs(&self, threads: &[HwThreadId], cs: f64) -> LockHandoffs {
        let n = threads.len() as f64;
        let f = self.cycles_per_sec();
        if threads.len() < 2 {
            let c = self.params.issue(Primitive::Tas);
            let x = f / (cs + 2.0 * c);
            return LockHandoffs::uniform(x);
        }
        let e_t = self.expected_transfer(threads);
        let tas = f / (cs + n * e_t);
        let ttas = f / (cs + 2.0 * e_t + 0.5 * (n - 1.0) * e_t);
        let ticket = f / (cs + 3.0 * e_t);
        let mcs = f / (cs + 2.0 * e_t);
        LockHandoffs::new([tas, ttas, ticket, mcs])
    }

    /// Classify which resource bounds a configuration — the
    /// "which regime am I in?" question that precedes every tuning
    /// decision. Returns the regime together with the margin to the
    /// nearest boundary (≥ 1: how many times more work would move the
    /// boundary).
    pub fn classify(&self, threads: &[HwThreadId], prim: Primitive, work: f64) -> (Regime, f64) {
        let n = threads.len();
        let c_p = self.params.issue(prim);
        if n <= 1 {
            return (Regime::IssueBound, f64::INFINITY);
        }
        let e_t = self.expected_transfer(threads);
        // Demand per cycle vs the line's service rate.
        let demand = n as f64 / (work + c_p + e_t);
        let service = 1.0 / e_t;
        if demand >= service {
            // Saturated: the transfer chain is the bottleneck.
            (Regime::TransferBound, demand / service)
        } else {
            (Regime::DemandBound, service / demand)
        }
    }

    /// Energy per op, nJ: `n` running cores at `P_static` each, divided
    /// over `x` ops/s, plus the dynamic per-op energy.
    fn energy_per_op_nj(&self, n: usize, x_ops_per_sec: f64) -> f64 {
        if x_ops_per_sec <= 0.0 {
            return 0.0;
        }
        let static_per_op_j = n as f64 * self.params.static_w_per_core / x_ops_per_sec;
        static_per_op_j * 1e9 + self.params.dynamic_nj_per_op
    }
}

impl Predictor for BouncingModel {
    /// Dispatch a [`Scenario`] to the matching closed form. Pure
    /// delegation — the per-regime methods compute exactly what they
    /// always did, so routing through the trait changes no numbers.
    fn predict(&self, scenario: &Scenario) -> Prediction {
        match scenario {
            Scenario::HighContention { threads, prim } => self.predict_hc(threads, *prim),
            Scenario::LowContention { n, prim, work } => self.predict_lc(*n, *prim, *work),
            Scenario::Diluted {
                threads,
                prim,
                work,
            } => self.predict_dilution(threads, *prim, *work),
            Scenario::CasLoop { threads, window } => self.predict_cas_loop(threads, *window),
            Scenario::MultiLine {
                threads,
                prim,
                lines,
            } => self.predict_multiline(threads, *prim, *lines),
            Scenario::MixedRw {
                writer,
                readers,
                reader_gap,
            } => self.predict_mixed_rw(*writer, readers, *reader_gap),
            Scenario::LockHandoff { threads, cs } => {
                let handoffs = self.predict_lock_handoffs(threads, *cs);
                let n = threads.len();
                let (mixture, e_t) = if n >= 2 {
                    let mix = domain_mixture(&self.topo, threads);
                    let e_t = expected_transfer_cycles(&mix, &self.params.transfer.as_array());
                    (mix, e_t)
                } else {
                    ([0.0; 5], 0.0)
                };
                Prediction {
                    n,
                    mixture,
                    expected_transfer_cycles: e_t,
                    throughput_ops_per_sec: 0.0,
                    latency_cycles: 0.0,
                    energy_per_op_nj: 0.0,
                    detail: PredictionDetail::Locks(handoffs),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use bounce_atomics::LockShape;
    use bounce_topo::{presets, Placement};

    fn e5_model() -> BouncingModel {
        BouncingModel::new(presets::xeon_e5_2695_v4(), ModelParams::e5_default())
    }

    #[test]
    fn single_thread_is_issue_limited() {
        let m = e5_model();
        let threads = Placement::Packed.assign(m.topo(), 1);
        let p = m.predict_hc(&threads, Primitive::Faa);
        // 23 cycles at 2.1 GHz ≈ 91.3 M ops/s.
        let expect = 2.1e9 / 23.0;
        assert!((p.throughput_ops_per_sec - expect).abs() / expect < 1e-9);
        assert_eq!(p.expected_transfer_cycles, 0.0);
    }

    #[test]
    fn hc_throughput_flat_in_n_within_socket() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let p4 = m.predict_hc(&order[..4], Primitive::Faa);
        let p16 = m.predict_hc(&order[..16], Primitive::Faa);
        let ratio = p4.throughput_ops_per_sec / p16.throughput_ops_per_sec;
        assert!(
            (0.9..1.1).contains(&ratio),
            "within-socket HC throughput ~flat, ratio {ratio:.3}"
        );
    }

    #[test]
    fn hc_throughput_drops_crossing_socket() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let within = m.predict_hc(&order[..18], Primitive::Faa);
        let across = m.predict_hc(&order[..36], Primitive::Faa);
        assert!(
            across.throughput_ops_per_sec < 0.65 * within.throughput_ops_per_sec,
            "QPI transfers must hurt: {} vs {}",
            across.throughput_ops_per_sec,
            within.throughput_ops_per_sec
        );
    }

    #[test]
    fn hc_latency_linear_in_n() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let l8 = m.predict_hc(&order[..8], Primitive::Faa).latency_cycles;
        let l16 = m.predict_hc(&order[..16], Primitive::Faa).latency_cycles;
        let ratio = l16 / l8;
        assert!(
            (1.7..2.3).contains(&ratio),
            "latency ~doubles with n: {ratio:.2}"
        );
    }

    #[test]
    fn lc_scales_linearly() {
        let m = e5_model();
        let x1 = m.predict_lc(1, Primitive::Faa, 0.0).throughput_ops_per_sec;
        let x8 = m.predict_lc(8, Primitive::Faa, 0.0).throughput_ops_per_sec;
        assert!((x8 / x1 - 8.0).abs() < 1e-9);
        assert_eq!(
            m.predict_lc(8, Primitive::Faa, 0.0).latency_cycles,
            m.params().issue(Primitive::Faa)
        );
    }

    #[test]
    fn energy_per_op_grows_with_n_under_hc() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let e4 = m.predict_hc(&order[..4], Primitive::Faa).energy_per_op_nj;
        let e16 = m.predict_hc(&order[..16], Primitive::Faa).energy_per_op_nj;
        assert!(
            e16 > 2.0 * e4,
            "energy/op should grow ~linearly: {e4} {e16}"
        );
    }

    #[test]
    fn lc_energy_per_op_flat() {
        let m = e5_model();
        let e1 = m.predict_lc(1, Primitive::Faa, 0.0).energy_per_op_nj;
        let e16 = m.predict_lc(16, Primitive::Faa, 0.0).energy_per_op_nj;
        assert!((e16 / e1 - 1.0).abs() < 1e-9, "LC energy/op constant");
    }

    #[test]
    fn cas_loop_success_decreases_with_n() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let s2 = m
            .predict_cas_loop(&order[..2], 30.0)
            .success_rate()
            .unwrap();
        let s16 = m
            .predict_cas_loop(&order[..16], 30.0)
            .success_rate()
            .unwrap();
        let s36 = m
            .predict_cas_loop(&order[..36], 30.0)
            .success_rate()
            .unwrap();
        assert!(
            s2 > s16 && s16 > s36,
            "s2={s2:.3} s16={s16:.3} s36={s36:.3}"
        );
        assert!(s2 <= 1.0 && s36 > 0.0);
    }

    #[test]
    fn cas_loop_success_decreases_with_window() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let narrow = m.predict_cas_loop(&order[..8], 5.0).success_rate().unwrap();
        let wide = m
            .predict_cas_loop(&order[..8], 500.0)
            .success_rate()
            .unwrap();
        assert!(narrow > wide, "narrow={narrow:.3} wide={wide:.3}");
    }

    #[test]
    fn cas_loop_single_thread_never_fails() {
        let m = e5_model();
        let p = m.predict_cas_loop(&[HwThreadId(0)], 100.0);
        assert_eq!(p.success_rate(), Some(1.0));
        // Goodput (the top-level throughput) equals the attempt rate.
        assert_eq!(p.throughput_ops_per_sec, p.attempt_rate_per_sec().unwrap());
    }

    #[test]
    fn dilution_recovers_lc_like_scaling() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        // Tiny work: still service-limited.
        let hot = m.predict_dilution(&order[..16], Primitive::Faa, 10.0);
        let flat = m.predict_hc(&order[..16], Primitive::Faa);
        assert!(
            (hot.throughput_ops_per_sec / flat.throughput_ops_per_sec - 1.0).abs() < 1e-9,
            "small work stays saturated"
        );
        // Huge work: demand-limited, scales with n.
        let cold4 = m.predict_dilution(&order[..4], Primitive::Faa, 100_000.0);
        let cold16 = m.predict_dilution(&order[..16], Primitive::Faa, 100_000.0);
        let r = cold16.throughput_ops_per_sec / cold4.throughput_ops_per_sec;
        assert!((r - 4.0).abs() < 0.5, "diluted regime scales: {r:.2}");
    }

    #[test]
    fn multiline_throughput_grows_with_stripes() {
        let m = e5_model();
        let order = Placement::Packed.assign(m.topo(), 16);
        let x1 = m
            .predict_multiline(&order, Primitive::Faa, 1)
            .throughput_ops_per_sec;
        let x4 = m
            .predict_multiline(&order, Primitive::Faa, 4)
            .throughput_ops_per_sec;
        let x16 = m
            .predict_multiline(&order, Primitive::Faa, 16)
            .throughput_ops_per_sec;
        assert!(x4 > 2.0 * x1, "4 stripes: {x4} vs {x1}");
        assert!(x16 > x4, "16 stripes: {x16} vs {x4}");
        // 16 stripes over 16 threads = private lines = the LC bound.
        let lc = m.predict_lc(16, Primitive::Faa, 0.0).throughput_ops_per_sec;
        assert!((x16 / lc - 1.0).abs() < 1e-9, "{x16} vs lc {lc}");
    }

    #[test]
    fn multiline_one_stripe_is_hc() {
        let m = e5_model();
        let order = Placement::Packed.assign(m.topo(), 8);
        let a = m.predict_multiline(&order, Primitive::Faa, 1);
        let b = m.predict_hc(&order, Primitive::Faa);
        assert_eq!(a.throughput_ops_per_sec, b.throughput_ops_per_sec);
    }

    #[test]
    fn mixed_rw_reader_throughput_scales_with_readers() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let p4 = m.predict_mixed_rw(order[0], &order[1..5], 8.0);
        let p16 = m.predict_mixed_rw(order[0], &order[1..17], 8.0);
        assert!(p16.reader_ops_per_sec().unwrap() > 2.0 * p4.reader_ops_per_sec().unwrap());
        assert!(p16.throughput_ops_per_sec > p16.writer_ops_per_sec().unwrap());
    }

    #[test]
    fn mixed_rw_no_readers_degenerates_to_writer() {
        let m = e5_model();
        let p = m.predict_mixed_rw(HwThreadId(0), &[], 0.0);
        assert_eq!(p.reader_ops_per_sec(), Some(0.0));
        assert!(p.writer_ops_per_sec().unwrap() > 0.0);
        // Total (the top-level throughput) is just the writer.
        assert_eq!(p.throughput_ops_per_sec, p.writer_ops_per_sec().unwrap());
    }

    #[test]
    fn regime_classification_matches_dilution_knee() {
        let m = e5_model();
        let order = Placement::Packed.assign(m.topo(), 16);
        // Zero work at n=16: saturated.
        let (r, margin) = m.classify(&order, Primitive::Faa, 0.0);
        assert_eq!(r, Regime::TransferBound);
        assert!(margin > 5.0, "deep in saturation: {margin:.1}");
        // Far past the knee: demand bound.
        let (r, _) = m.classify(&order, Primitive::Faa, 10_000.0);
        assert_eq!(r, Regime::DemandBound);
        // Single thread: issue bound.
        let (r, _) = m.classify(&order[..1], Primitive::Faa, 0.0);
        assert_eq!(r, Regime::IssueBound);
        // The boundary sits at the dilution knee w* = (N-1)·E[t] - c_p.
        let e_t = m.expected_transfer(&order);
        let knee = 15.0 * e_t - m.params().issue(Primitive::Faa);
        let (below, _) = m.classify(&order, Primitive::Faa, knee - 10.0);
        let (above, _) = m.classify(&order, Primitive::Faa, knee + 10.0);
        assert_eq!(below, Regime::TransferBound);
        assert_eq!(above, Regime::DemandBound);
    }

    #[test]
    fn lock_prediction_ranks_queue_locks_above_tas_at_scale() {
        let m = e5_model();
        let order = Placement::Packed.assign(m.topo(), 36);
        let h = m.predict_lock_handoffs(&order, 100.0);
        let (tas, ttas, ticket, mcs) = (
            h.get(LockShape::Tas),
            h.get(LockShape::Ttas),
            h.get(LockShape::Ticket),
            h.get(LockShape::Mcs),
        );
        assert!(ticket > 2.0 * tas, "ticket {ticket:.0} vs tas {tas:.0}");
        assert!(mcs >= ticket, "mcs {mcs:.0} vs ticket {ticket:.0}");
        assert!(ttas > tas, "ttas {ttas:.0} vs tas {tas:.0} at scale");
        // Queue locks are ~flat in n.
        let small = Placement::Packed.assign(m.topo(), 4);
        let h4 = m.predict_lock_handoffs(&small, 100.0);
        assert!(
            (h4.get(LockShape::Ticket) / ticket) < 2.0,
            "ticket ~flat in n"
        );
        assert!((h4.get(LockShape::Mcs) / mcs) < 2.0, "mcs ~flat in n");
    }

    #[test]
    fn lock_prediction_uncontended_degenerates() {
        let m = e5_model();
        let one = Placement::Packed.assign(m.topo(), 1);
        let h = m.predict_lock_handoffs(&one, 50.0);
        let rates: Vec<f64> = h.iter().map(|(_, r)| r).collect();
        assert!(rates.iter().all(|&r| r == rates[0]));
        assert!(rates[0] > 0.0);
    }

    #[test]
    fn predictor_trait_matches_direct_methods() {
        let m = e5_model();
        let order = Placement::Packed.full_order(m.topo());
        let threads = &order[..12];
        // Every Scenario variant must route to its closed form with
        // identical numbers — bit-for-bit.
        let pairs: Vec<(Prediction, Prediction)> = vec![
            (
                m.predict(&Scenario::high_contention(threads, Primitive::Faa)),
                m.predict_hc(threads, Primitive::Faa),
            ),
            (
                m.predict(&Scenario::low_contention(12, Primitive::Cas, 20.0)),
                m.predict_lc(12, Primitive::Cas, 20.0),
            ),
            (
                m.predict(&Scenario::diluted(threads, Primitive::Faa, 200.0)),
                m.predict_dilution(threads, Primitive::Faa, 200.0),
            ),
            (
                m.predict(&Scenario::cas_loop(threads, 30.0)),
                m.predict_cas_loop(threads, 30.0),
            ),
            (
                m.predict(&Scenario::multi_line(threads, Primitive::Faa, 4)),
                m.predict_multiline(threads, Primitive::Faa, 4),
            ),
            (
                m.predict(&Scenario::mixed_rw(threads[0], &threads[1..], 8.0)),
                m.predict_mixed_rw(threads[0], &threads[1..], 8.0),
            ),
        ];
        for (via_trait, direct) in pairs {
            assert_eq!(via_trait, direct);
        }
        let via_trait = m.predict(&Scenario::lock_handoff(threads, 100.0));
        assert_eq!(
            via_trait.lock_handoffs(),
            Some(&m.predict_lock_handoffs(threads, 100.0))
        );
    }

    #[test]
    fn regime_labels_unique() {
        let labels: std::collections::BTreeSet<_> = [
            Regime::IssueBound,
            Regime::TransferBound,
            Regime::DemandBound,
        ]
        .iter()
        .map(|r| r.label())
        .collect();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn knl_slower_than_e5_under_hc() {
        let e5 = e5_model();
        let knl = BouncingModel::new(presets::xeon_phi_7290(), ModelParams::knl_default());
        let oe5 = Placement::Packed.assign(e5.topo(), 16);
        let oknl = Placement::Packed.assign(knl.topo(), 16);
        let xe5 = e5.predict_hc(&oe5, Primitive::Faa).throughput_ops_per_sec;
        let xknl = knl.predict_hc(&oknl, Primitive::Faa).throughput_ops_per_sec;
        assert!(xe5 > xknl, "E5 {xe5:.0} should beat KNL {xknl:.0}");
    }
}
