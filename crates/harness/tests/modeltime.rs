//! `predict_timed` against the process-wide model-time counters.
//!
//! The counters are global, and every test that predicts bumps them. So
//! this check lives in its own test binary, where no other test shares
//! the process and the count can be asserted exactly.

use bounce_atomics::Primitive;
use bounce_core::{Model, ModelParams, Predictor, Scenario};
use bounce_harness::modeltime::{predict_timed, snapshot};
use bounce_topo::{presets, Placement};

#[test]
fn timed_prediction_matches_untimed_and_counts() {
    let topo = presets::tiny_test_machine();
    let model = Model::new(topo.clone(), ModelParams::tiny_default());
    let threads = Placement::Packed.assign(&topo, 4);
    let s = Scenario::high_contention(&threads, Primitive::Faa);
    let before = snapshot();
    let timed = predict_timed(&model, &s);
    let after = snapshot();
    assert_eq!(timed, model.predict(&s), "timing must not perturb values");
    assert_eq!(after.calls, before.calls + 1);
    assert!(after.seconds >= before.seconds);
}
