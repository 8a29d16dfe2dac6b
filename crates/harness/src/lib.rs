//! Measurement harness: runs the paper's workloads on either backend,
//! produces unified [`Measurement`]s, renders tables, and hosts the
//! E1..E12 experiment registry that regenerates every table and figure
//! of the evaluation.
//!
//! # Backends
//!
//! * [`simrun`] — the default: the `bounce-sim` coherence simulator
//!   configured as one of the paper's machines (Xeon E5 / Xeon Phi).
//!   Deterministic, runs anywhere, reports energy.
//! * [`native`] — real pinned threads issuing real atomic instructions
//!   with `rdtsc` timing and (when the host exposes it) RAPL energy.
//!   Meaningful only on a real multicore host; on this repository's CI
//!   it is exercised single-threaded for correctness.
//!
//! # Experiments
//!
//! [`experiments`] maps every reconstructed table/figure (see DESIGN.md)
//! to a function that produces a [`report::Table`]. The `repro` binary
//! in `bounce-bench` prints them; EXPERIMENTS.md records the outcomes.
//!
//! Every analytic prediction flows through [`modeltime::predict_timed`]
//! (one `Predictor` entry point, with model-evaluation time accounted
//! separately from sim time), and [`validation`] replays the whole
//! modeled campaign through sim *and* model to produce the
//! `results/VALIDATION.json` accuracy report CI gates on.

#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod measurement;
pub mod modeltime;
pub mod native;
pub mod parallel;
pub mod rapl;
pub mod report;
pub mod simrun;
pub mod sweeps;
pub mod validation;

pub use experiments::{ExpError, ExpResult};
pub use measurement::{Backend, Measurement};
pub use modeltime::{predict_timed, ModelTime};
pub use parallel::{jobs, par_map, par_run, set_jobs, PointPanic};
pub use report::Table;
pub use simrun::{sim_measure, sim_measure_seeds, SeededSummary, SimRunConfig};
pub use validation::{campaign_validation, ValidationEntry, ValidationReport};
