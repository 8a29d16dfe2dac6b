//! `bounce-verify` — the static verification layer.
//!
//! Five passes check the simulator, its inputs and the atomics it
//! models. Four live in this crate; pass 3 is clippy configuration in
//! the crates it guards:
//!
//! 1. **Protocol model checking** ([`model`]): exhaustively enumerate
//!    every reachable single-line configuration of each
//!    [`bounce_sim::CoherenceProtocol`] across 2–4 cores, asserting
//!    SWMR, the data-value invariant, directory/L1 agreement, and
//!    absence of stuck states, and reporting dead transition-table
//!    rows. Run via `cargo run -p bounce-verify --bin modelcheck`.
//! 2. **Workload-IR lint** ([`lint`], re-exporting
//!    [`bounce_sim::analyze`]): control-flow and dataflow analysis of
//!    every workload's compiled programs — unreachable steps, reads of
//!    never-written registers, outcome branches with no dominating op,
//!    zero-cost spin cycles, spins on words no program writes. The
//!    engine runs the same pass as a mandatory gate; `repro lint`
//!    drives it over every registered workload.
//! 3. **Determinism lint**: per-crate `clippy.toml` files in
//!    `bounce-{sim,core,topo,atomics}` ban wall-clock reads, ambient
//!    RNG, hash containers, `std` atomics built outside the `cell` shim
//!    and coherence-state mutation outside the engine's
//!    probe-instrumented helpers. Run via `cargo clippy --workspace
//!    --all-targets -- -D warnings`; see DESIGN.md.
//! 4. **`schedcheck`** ([`exec`]): a loom-style exhaustive
//!    interleaving + memory-ordering model checker that runs the
//!    *real* `bounce-atomics` structures (generic over their atomic
//!    cells) on a shadow substrate, exploring every inequivalent
//!    schedule and every legal stale read of 2–3 thread scenarios
//!    with dynamic partial-order reduction, checking data-race
//!    freedom, deadlock freedom, and linearizability. Run via
//!    `cargo run -p bounce-verify --bin schedcheck`.
//! 5. **Conformance** ([`conform`]): trace refinement of the
//!    production engine against pass 1's verified model — the engine
//!    (with a `ConformRecorder` probe) records every coherence transition
//!    with concrete pre/post snapshots, an explicit abstraction
//!    function maps them onto model states, and the replayer checks
//!    each step is a transition the verified relation permits,
//!    reporting per-protocol transition-table coverage. Run via
//!    `repro conform`.

#![warn(missing_docs)]

pub mod conform;
pub mod exec;
pub mod lint;
pub mod model;

pub use bounce_sim::analyze::{
    analyze_program, analyze_steps, analyze_workload, AnalysisError, Diagnostic,
};
pub use conform::{
    abstract_snapshot, replay_recorder, ConformError, ConformOutcome, CoverageReport, Obs,
    RefinementViolation,
};
pub use lint::{lint_workload, lint_workloads, WorkloadLint, LINT_THREAD_COUNTS};
pub use model::{check, check_all_cores, replay, ArgClass, Report, Row, Violation};
