//! Cross-crate integration tests: the full pipeline from workload spec
//! through simulator to model validation, mirroring how the paper's
//! claims are checked.

use bounce::harness::experiments::{self, ExpCtx, Machine};
use bounce::harness::simrun::{sim_measure, sim_measure_pinned, SimRunConfig};
use bounce::model::fit::{fit_transfer_costs, ScenarioObservation};
use bounce::model::validate::{mape, ValidationRow};
use bounce::model::{Model, ModelParams, Scenario};
use bounce::sim::ArbitrationPolicy;
use bounce::topo::{presets, Placement};
use bounce::workloads::Workload;
use bounce_atomics::Primitive;

fn fifo_cfg(topo: &bounce::topo::MachineTopology) -> SimRunConfig {
    let mut cfg = SimRunConfig::for_machine(topo);
    cfg.params.arbitration = ArbitrationPolicy::Fifo;
    cfg.duration_cycles = 600_000;
    cfg
}

/// The headline claim: the fitted model predicts HC throughput across a
/// sweep with small error (the paper reports close agreement; we accept
/// <= 20% MAPE on the E5 stand-in).
#[test]
fn fitted_model_predicts_hc_sweep() {
    let topo = presets::xeon_e5_2695_v4();
    let cfg = fifo_cfg(&topo);
    let order = Placement::Packed.full_order(&topo);
    let ns = [2usize, 4, 8, 18, 36, 72];
    let measured: Vec<(usize, f64)> = ns
        .iter()
        .map(|&n| {
            let m = sim_measure(
                &topo,
                &Workload::HighContention {
                    prim: Primitive::Faa,
                },
                n,
                &cfg,
            )
            .expect("simulation completes");
            (n, m.throughput_ops_per_sec)
        })
        .collect();
    let obs: Vec<ScenarioObservation> = measured
        .iter()
        .map(|(n, x)| {
            ScenarioObservation::new(Scenario::high_contention(&order[..*n], Primitive::Faa), *x)
        })
        .collect();
    let fit = fit_transfer_costs(&topo, &obs, &ModelParams::e5_default());
    let model = Model::new(topo.clone(), fit.params);
    let rows: Vec<ValidationRow> = measured
        .iter()
        .map(|(n, x)| ValidationRow {
            n: *n,
            predicted: model
                .predict_hc(&order[..*n], Primitive::Faa)
                .throughput_ops_per_sec,
            measured: *x,
        })
        .collect();
    let err = mape(&rows);
    assert!(err <= 20.0, "fitted-model MAPE {err:.1}% exceeds 20%");
}

/// The paper's qualitative rankings hold end to end on the E5 stand-in.
#[test]
fn paper_shape_rankings_hold() {
    let topo = presets::xeon_e5_2695_v4();
    let cfg = fifo_cfg(&topo);
    let hc = |prim, n| {
        sim_measure(&topo, &Workload::HighContention { prim }, n, &cfg)
            .expect("simulation completes")
            .throughput_ops_per_sec
    };
    // (1) One thread beats many under HC.
    assert!(hc(Primitive::Faa, 1) > 1.2 * hc(Primitive::Faa, 8));
    // (2) Loads scale; RMWs don't.
    assert!(hc(Primitive::Load, 8) > 4.0 * hc(Primitive::Load, 1) * 0.9);
    // (3) Crossing the socket boundary costs throughput.
    assert!(hc(Primitive::Faa, 18) > 1.3 * hc(Primitive::Faa, 36));
    // (4) LC scales linearly where HC is flat.
    let lc = |n| {
        sim_measure(
            &topo,
            &Workload::LowContention {
                prim: Primitive::Faa,
                work: 0,
            },
            n,
            &cfg,
        )
        .expect("simulation completes")
        .throughput_ops_per_sec
    };
    let r = lc(8) / lc(1);
    assert!(r > 6.0, "LC scaling {r:.1}x");
}

/// Placement ranking: the model's best placement is also the
/// simulator's best (the design-decision use case from the abstract).
#[test]
fn model_placement_ranking_matches_sim() {
    let topo = presets::xeon_e5_2695_v4();
    let cfg = fifo_cfg(&topo);
    let model = Model::new(topo.clone(), ModelParams::e5_default());
    let n = 24;
    let mut sim_best = (Placement::Linear, 0.0f64);
    let mut model_best = (Placement::Linear, 0.0f64);
    for p in Placement::ALL {
        let hw = p.assign(&topo, n);
        let meas = sim_measure_pinned(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            &hw,
            &cfg,
        )
        .expect("pinned simulation completes");
        let pred = model.predict_hc(&hw, Primitive::Faa);
        if meas.throughput_ops_per_sec > sim_best.1 {
            sim_best = (p, meas.throughput_ops_per_sec);
        }
        if pred.throughput_ops_per_sec > model_best.1 {
            model_best = (p, pred.throughput_ops_per_sec);
        }
    }
    // SmtFirst and Linear coincide on the presets; accept either when
    // they tie.
    let same = sim_best.0 == model_best.0
        || (matches!(sim_best.0, Placement::SmtFirst | Placement::Linear)
            && matches!(model_best.0, Placement::SmtFirst | Placement::Linear));
    assert!(
        same,
        "model recommends {:?} but sim prefers {:?}",
        model_best.0, sim_best.0
    );
}

/// CAS retry loops waste work under contention: goodput < throughput,
/// and failure rate grows with n — on both machines.
#[test]
fn cas_waste_grows_with_contention() {
    for machine in Machine::ALL {
        let topo = machine.topo();
        let cfg = fifo_cfg(&topo);
        let w = Workload::CasRetryLoop {
            window: 30,
            work: 0,
        };
        let m2 = sim_measure(&topo, &w, 2, &cfg).expect("simulation completes");
        let m8 = sim_measure(&topo, &w, 8, &cfg).expect("simulation completes");
        assert!(
            m8.failure_rate >= m2.failure_rate,
            "{}: failure rate should grow: {} vs {}",
            machine.label(),
            m2.failure_rate,
            m8.failure_rate
        );
        assert!(m8.goodput_ops_per_sec <= m8.throughput_ops_per_sec);
    }
}

/// The experiment registry produces every table with sane content in
/// quick mode (the repro binary's path).
#[test]
fn experiment_registry_complete() {
    let all = experiments::all_experiments(ExpCtx::quick());
    assert_eq!(all.len(), 42, "2 tables + 20 experiments x 2 machines");
    for (id, r) in &all {
        let t = r.as_ref().unwrap_or_else(|e| panic!("{id} failed: {e}"));
        assert!(!t.rows.is_empty(), "{id} empty");
        assert!(!t.headers.is_empty(), "{id} lacks headers");
        for row in &t.rows {
            assert_eq!(row.len(), t.headers.len(), "{id} ragged row");
        }
        // TSV and markdown render without panicking.
        assert!(t.to_tsv().contains('\t'));
        assert!(t.to_markdown().contains('|'));
    }
}

/// Native and simulated backends agree on the *structure* of results
/// for a single-thread workload (the only configuration whose native
/// numbers mean something on a 1-CPU host).
#[test]
fn native_and_sim_agree_on_single_thread_structure() {
    use bounce::harness::native::{native_measure, NativeConfig};
    let host = bounce::topo::host::detect();
    let w = Workload::HighContention {
        prim: Primitive::Faa,
    };
    let native = native_measure(&host, &w, 1, &NativeConfig::quick());
    assert_eq!(native.failure_rate, 0.0);
    assert!(native.throughput_ops_per_sec > 0.0);

    let topo = presets::xeon_e5_2695_v4();
    let sim = sim_measure(&topo, &w, 1, &fifo_cfg(&topo)).expect("simulation completes");
    assert_eq!(sim.failure_rate, 0.0);
    // Both see an uncontended RMW cost within the same order of
    // magnitude (tens of cycles -> tens of millions ops/s per GHz).
    assert!(sim.throughput_ops_per_sec > 1e7);
}

/// Energy: under HC the energy/op grows with n (waiting cores burn
/// power); under LC it stays flat. Both machines.
#[test]
fn energy_shapes_hold() {
    for machine in Machine::ALL {
        let topo = machine.topo();
        let cfg = fifo_cfg(&topo);
        let hc = |n| {
            sim_measure(
                &topo,
                &Workload::HighContention {
                    prim: Primitive::Faa,
                },
                n,
                &cfg,
            )
            .expect("simulation completes")
            .energy_per_op_nj
            .unwrap()
        };
        assert!(
            hc(8) > 1.5 * hc(2),
            "{}: HC energy/op must grow with n",
            machine.label()
        );
        let lc = |n| {
            sim_measure(
                &topo,
                &Workload::LowContention {
                    prim: Primitive::Faa,
                    work: 0,
                },
                n,
                &cfg,
            )
            .expect("simulation completes")
            .energy_per_op_nj
            .unwrap()
        };
        let ratio = lc(8) / lc(2);
        assert!(
            (0.5..2.0).contains(&ratio),
            "{}: LC energy/op should be ~flat, got {ratio:.2}x",
            machine.label()
        );
    }
}
