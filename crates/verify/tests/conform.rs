//! Conformance-pass (pass 5) integration tests: live engine traces
//! replayed through the verified model.
//!
//! Three guarantees beyond the `repro conform` campaign itself:
//!
//! * **totality** — over randomly generated quick-campaign-style
//!   scenarios, every concrete snapshot the engine records has an
//!   abstract image and every step refines the model (a property test,
//!   so the abstraction function is exercised far off the happy path);
//! * **tamper evidence** — the replayer *rejects* hand-corrupted
//!   traces: a forged directory record, a deleted event, and a
//!   relabeled event must all surface as refinement violations, or the
//!   pass could never catch a real recorder bypass;
//! * **inertness** — attaching a probe (the debug trace or the
//!   recorder) does not perturb the simulation: reports and memory are
//!   identical to a probe-free run.

use bounce_atomics::Primitive;
use bounce_sim::conform::{ConformKind, ConformRecorder};
use bounce_sim::program::builders;
use bounce_sim::protocol::protocol_for;
use bounce_sim::{
    CoherenceKind, Engine, NoProbe, Probe, Program, RunLength, SimConfig, SimParams, SimReport,
    Trace, WordAddr,
};
use bounce_topo::presets;
use bounce_verify::conform::{replay_recorder, ConformError};
use proptest::prelude::*;

/// Run `programs` (one per core, abstract order) on the tiny test
/// machine under `proto` with `probe` attached, returning the report,
/// the probe and the first word of lines 0..4.
fn run_probed<P: Probe>(
    proto: CoherenceKind,
    programs: Vec<Program>,
    duration: u64,
    probe: P,
) -> (SimReport, P, Vec<u64>) {
    let topo = presets::tiny_test_machine();
    let mut params = SimParams::for_machine(&topo);
    params.protocol = proto;
    params.run_length = RunLength::Fixed { cycles: 0 };
    let cfg = SimConfig::new(params, duration);
    let mut eng = Engine::with_probe(&topo, cfg, probe);
    for (i, p) in programs.into_iter().enumerate() {
        eng.add_thread(topo.cores[i].threads[0], p);
    }
    let report = eng.try_run().expect("simulation completes");
    let words = (0..4u64).map(|k| eng.word(WordAddr::of_line(k))).collect();
    (report, eng.into_probe(), words)
}

/// The conformance trace of `programs` under `proto`.
fn run_traced(proto: CoherenceKind, programs: Vec<Program>, duration: u64) -> ConformRecorder {
    let rec = ConformRecorder::new((0..programs.len() as u32).collect());
    run_probed(proto, programs, duration, rec).1
}

fn program_for(choice: u8, work: u64) -> Program {
    let a = WordAddr::of_line(0);
    match choice % 4 {
        0 => builders::op_loop(Primitive::Faa, a, work),
        1 => builders::op_loop(Primitive::Load, a, work),
        2 => builders::op_loop(Primitive::Swap, a, work),
        _ => builders::cas_increment_loop(a, 10, work),
    }
}

fn proto_for(choice: u8) -> CoherenceKind {
    CoherenceKind::ALL[choice as usize % CoherenceKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Property: the abstraction function is total over every state a
    /// random quick-campaign-style run reaches, and every recorded step
    /// refines the verified model — for any protocol, thread count in
    /// the model's range, and primitive mix.
    #[test]
    fn random_scenarios_refine_the_model(
        proto_choice in 0u8..3,
        n in 2usize..=4,
        choices in proptest::collection::vec(0u8..4, 4),
        works in proptest::collection::vec(5u64..60, 4),
    ) {
        let proto = proto_for(proto_choice);
        let programs: Vec<Program> = (0..n)
            .map(|i| program_for(choices[i], works[i]))
            .collect();
        let rec = run_traced(proto, programs, 15_000);
        let outcome = replay_recorder(protocol_for(proto), &rec);
        prop_assert!(
            outcome.is_ok(),
            "{proto} n={n}: {}",
            outcome.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }
}

/// A real contended trace to corrupt: two FAA threads and a reader.
fn captured_trace(proto: CoherenceKind) -> ConformRecorder {
    let a = WordAddr::of_line(0);
    let programs = vec![
        builders::op_loop(Primitive::Faa, a, 30),
        builders::op_loop(Primitive::Faa, a, 45),
        builders::op_loop(Primitive::Load, a, 25),
    ];
    let rec = run_traced(proto, programs, 10_000);
    assert!(rec.events.len() > 20, "trace is non-trivial");
    rec
}

fn assert_rejected(rec: &ConformRecorder, what: &str) {
    match replay_recorder(protocol_for(CoherenceKind::Mesif), rec) {
        Err(ConformError::Refinement(v)) => {
            assert!(!v.message.is_empty(), "violation carries a message");
        }
        Err(ConformError::Config(m)) => panic!("{what}: rejected as config error: {m}"),
        Ok(_) => panic!("{what}: forged trace replayed clean"),
    }
}

#[test]
fn forged_directory_record_is_rejected() {
    let mut rec = captured_trace(CoherenceKind::Mesif);
    // Forge the directory owner of some mid-trace post-snapshot: the
    // very next event's pre-state can no longer match the frontier.
    let mid = rec.events.len() / 2;
    let forged = rec.events[mid].post.owner.map_or(Some(1), |_| None);
    rec.events[mid].post.owner = forged;
    assert_rejected(&rec, "forged owner");
}

#[test]
fn deleted_event_is_rejected() {
    let mut rec = captured_trace(CoherenceKind::Mesif);
    // Drop a mid-trace event that changes observable state (a service
    // start or completion) — the stream then skips a transition, which
    // is exactly what a recorder bypass would look like.
    let mid = rec
        .events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                ConformKind::ServiceStart { .. } | ConformKind::ServiceDone { .. }
            ) && e.pre != e.post
        })
        .expect("a state-changing event exists");
    rec.events.remove(mid);
    assert_rejected(&rec, "deleted event");
}

#[test]
fn relabeled_event_is_rejected() {
    let mut rec = captured_trace(CoherenceKind::Mesif);
    // Flip a completed read into a completed write: the label exists in
    // the model, but no GetM was queued or serviced for that core.
    let mid = rec
        .events
        .iter()
        .position(|e| matches!(e.kind, ConformKind::ServiceDone { excl: false }))
        .expect("a completed read exists");
    rec.events[mid].kind = ConformKind::ServiceDone { excl: true };
    assert_rejected(&rec, "relabeled event");
}

#[test]
fn wrong_protocol_replay_is_rejected() {
    // A MOESI trace demotes M -> Owned on a read; MESIF's relation
    // cannot produce that state, so cross-protocol replay must fail —
    // the check is protocol-sensitive, not a rubber stamp.
    let rec = captured_trace(CoherenceKind::Moesi);
    assert!(
        rec.events
            .iter()
            .any(|e| matches!(e.kind, ConformKind::ServiceStart { excl: false })),
        "trace exercises a read while owned"
    );
    match replay_recorder(protocol_for(CoherenceKind::Mesif), &rec) {
        Err(ConformError::Refinement(_)) => {}
        other => panic!("MOESI trace under MESIF: {other:?}"),
    }
}

#[test]
fn config_errors_are_reported() {
    let rec = ConformRecorder::new(vec![0]);
    assert!(matches!(
        replay_recorder(protocol_for(CoherenceKind::Mesi), &rec),
        Err(ConformError::Config(_))
    ));
    let rec = ConformRecorder::new(vec![0, 1, 1]);
    assert!(matches!(
        replay_recorder(protocol_for(CoherenceKind::Mesi), &rec),
        Err(ConformError::Config(_))
    ));
}

#[test]
fn recorder_is_inert() {
    // The same scenario under every probe must produce the same
    // simulation: identical report and memory. `NoProbe` has no hooks;
    // an attached probe only reads engine state.
    let a = WordAddr::of_line(0);
    let mk = || {
        vec![
            builders::op_loop(Primitive::Faa, a, 20),
            builders::cas_increment_loop(a, 10, 35),
            builders::op_loop(Primitive::Load, a, 15),
        ]
    };
    let proto = CoherenceKind::Mesif;
    let (bare, NoProbe, words) = run_probed(proto, mk(), 20_000, NoProbe);
    let (traced, trace, words_traced) = run_probed(proto, mk(), 20_000, Trace::bounded(1 << 16));
    let rec = ConformRecorder::new(vec![0, 1, 2]);
    let (recorded, rec, words_recorded) = run_probed(proto, mk(), 20_000, rec);
    assert!(!trace.is_empty() && !rec.events.is_empty());
    for (probe, report, w) in [
        ("trace", traced, words_traced),
        ("recorder", recorded, words_recorded),
    ] {
        assert_eq!(w, words, "{probe}: memory identical");
        assert_eq!(
            format!("{report:?}"),
            format!("{bare:?}"),
            "{probe}: reports identical"
        );
    }
}
