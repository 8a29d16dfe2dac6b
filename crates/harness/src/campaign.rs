//! The fit-and-validate campaign: the complete Fig 7 workflow — measure
//! a sweep, fit Θ on a training subset, validate throughput *and*
//! latency on the full sweep — as a reusable API.

use crate::measurement::Measurement;
use crate::modeltime::predict_timed;
use crate::simrun::SimRunConfig;
use crate::sweeps::sweep_threads;
use bounce_atomics::Primitive;
use bounce_core::fit::{fit_transfer_costs, FitReport, ScenarioObservation};
use bounce_core::validate::{mape, validated_rows, ValidationMetric, ValidationRow};
use bounce_core::{Model, ModelParams, Prediction, Scenario};
use bounce_topo::{MachineTopology, Placement, PlacementOrder};
use bounce_workloads::Workload;

/// Which sweep points train the fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainSplit {
    /// Every point trains (resubstitution — reports optimistic error).
    All,
    /// Every second multi-thread point trains; the rest are held out.
    Alternate,
}

/// Result of a fit-and-validate campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The fitted parameters and training residual.
    pub fit: FitReport,
    /// Per-point throughput validation (all multi-thread points).
    pub throughput_rows: Vec<ValidationRow>,
    /// Per-point mean-latency validation (all multi-thread points).
    pub latency_rows: Vec<ValidationRow>,
    /// The raw measurements, in sweep order.
    pub measurements: Vec<Measurement>,
}

impl Campaign {
    /// Throughput MAPE over the full sweep, percent.
    pub fn throughput_mape(&self) -> f64 {
        mape(&self.throughput_rows)
    }

    /// Latency MAPE over the full sweep, percent.
    pub fn latency_mape(&self) -> f64 {
        mape(&self.latency_rows)
    }
}

/// Run the full campaign: measure the HC sweep for `prim` at every
/// `ns`, fit the transfer costs on the chosen split, and validate both
/// throughput and mean latency against the fitted model. A failing sweep
/// point's [`bounce_sim::SimError`] is returned.
pub fn fit_and_validate(
    topo: &MachineTopology,
    prim: Primitive,
    ns: &[usize],
    cfg: &SimRunConfig,
    initial: &ModelParams,
    split: TrainSplit,
) -> Result<Campaign, bounce_sim::SimError> {
    let w = Workload::HighContention { prim };
    let order = PlacementOrder::new(cfg.placement, topo);
    let measurements = sweep_threads(topo, &w, ns, cfg)?;
    let multi: Vec<&Measurement> = measurements.iter().filter(|m| m.n >= 2).collect();
    // Each point's model input is the scenario the workload itself
    // derives — the same source of truth the simulator programs come
    // from.
    let scenario_of = |m: &Measurement| -> Scenario {
        w.scenario(order.threads_of(m.n))
            .expect("high contention maps to a scenario")
    };
    let train: Vec<ScenarioObservation> = multi
        .iter()
        .enumerate()
        .filter(|(i, _)| match split {
            TrainSplit::All => true,
            TrainSplit::Alternate => i % 2 == 0,
        })
        .map(|(_, m)| ScenarioObservation::new(scenario_of(m), m.throughput_ops_per_sec))
        .collect();
    let fit = fit_transfer_costs(topo, &train, initial);
    let model = Model::new(topo.clone(), fit.params.clone());
    let predicted: Vec<(Scenario, Prediction)> = multi
        .iter()
        .map(|m| {
            let s = scenario_of(m);
            let p = predict_timed(&model, &s);
            (s, p)
        })
        .collect();
    let triples = |measured: &dyn Fn(&Measurement) -> f64| -> Vec<(Scenario, Prediction, f64)> {
        predicted
            .iter()
            .zip(&multi)
            .map(|((s, p), m)| (s.clone(), *p, measured(m)))
            .collect()
    };
    let throughput_rows = validated_rows(
        &triples(&|m| m.throughput_ops_per_sec),
        ValidationMetric::Throughput,
    );
    let latency_rows = validated_rows(
        &triples(&|m| m.mean_latency_cycles),
        ValidationMetric::LatencyCycles,
    );
    Ok(Campaign {
        fit,
        throughput_rows,
        latency_rows,
        measurements,
    })
}

/// Convenience default: packed placement, FIFO arbitration, pinned home.
pub fn default_cfg(topo: &MachineTopology, duration_cycles: u64) -> SimRunConfig {
    let mut cfg = SimRunConfig::for_machine(topo);
    cfg.params.arbitration = bounce_sim::ArbitrationPolicy::Fifo;
    cfg.duration_cycles = duration_cycles;
    cfg.placement = Placement::Packed;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_topo::presets;

    #[test]
    fn campaign_on_tiny_machine_converges() {
        let topo = presets::tiny_test_machine();
        let cfg = default_cfg(&topo, 400_000);
        let c = fit_and_validate(
            &topo,
            Primitive::Faa,
            &[1, 2, 4, 6, 8],
            &cfg,
            &ModelParams::tiny_default(),
            TrainSplit::All,
        )
        .expect("tiny-machine sweep measures");
        assert_eq!(c.measurements.len(), 5);
        assert_eq!(c.throughput_rows.len(), 4, "n=1 excluded");
        assert!(
            c.throughput_mape() < 30.0,
            "throughput MAPE {:.1}%",
            c.throughput_mape()
        );
        // Latency validation exists and is finite.
        assert_eq!(c.latency_rows.len(), 4);
        assert!(c.latency_rows.iter().all(|r| r.measured > 0.0));
        c.fit.params.validate().unwrap();
    }

    #[test]
    fn holdout_split_trains_on_half() {
        let topo = presets::tiny_test_machine();
        let cfg = default_cfg(&topo, 300_000);
        let c = fit_and_validate(
            &topo,
            Primitive::Swap,
            &[2, 4, 6, 8],
            &cfg,
            &ModelParams::tiny_default(),
            TrainSplit::Alternate,
        )
        .expect("tiny-machine sweep measures");
        // 4 multi-thread points; alternate split trains on 2; all 4
        // validated.
        assert_eq!(c.throughput_rows.len(), 4);
        assert!(c.throughput_mape().is_finite());
    }
}
