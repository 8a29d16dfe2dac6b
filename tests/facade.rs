//! The facade crate re-exports every subsystem under stable paths — a
//! downstream user writes `bounce::model::Model`, `bounce::sim::Engine`
//! etc. These tests pin that surface.

#[test]
fn facade_paths_resolve() {
    // topo
    let topo = bounce::topo::presets::xeon_e5_2695_v4();
    assert_eq!(topo.num_threads(), 72);
    let _ = bounce::topo::Placement::Packed.assign(&topo, 4);
    // atomics
    let _ = bounce::atomics::Primitive::Cas;
    let _ = bounce::atomics::CachePadded::new(0u64);
    // model
    let m = bounce::model::Model::new(topo.clone(), bounce::model::ModelParams::e5_default());
    assert!(m.params().freq_ghz > 0.0);
    // sim
    let params = bounce::sim::SimParams::e5();
    params.validate().unwrap();
    // workloads
    let w = bounce::workloads::Workload::HighContention {
        prim: bounce::atomics::Primitive::Faa,
    };
    assert!(w.is_high_contention());
    // harness
    let t = bounce::harness::Table::new("t", &["a"]);
    assert!(t.rows.is_empty());
}

#[test]
fn workload_to_sim_through_facade() {
    use bounce::sim::{Engine, SimConfig, SimParams};
    use bounce::topo::{presets, HwThreadId};
    let topo = presets::tiny_test_machine();
    let w = bounce::workloads::Workload::HighContention {
        prim: bounce::atomics::Primitive::Faa,
    };
    let mut eng = Engine::new(&topo, SimConfig::new(SimParams::e5(), 100_000));
    for (i, p) in w.sim_programs(2).into_iter().enumerate() {
        eng.add_thread(HwThreadId(i * 2), p);
    }
    let report = eng.try_run().expect("run completes");
    assert!(report.total_ops() > 0);
}
