//! Workload generators for the two execution settings the paper studies.
//!
//! The abstract names them precisely: "the two common software execution
//! settings that result in high and low contention access on shared
//! memory". Concretely:
//!
//! * **high contention** — every thread applies an atomic primitive to
//!   *one shared cache line* ([`Workload::HighContention`]), optionally
//!   with local work between ops ([`Workload::Diluted`]) or through a
//!   read-compute-CAS retry loop ([`Workload::CasRetryLoop`]);
//! * **low contention** — every thread applies the primitive to its
//!   *own, private* cache line ([`Workload::LowContention`]);
//! * plus the application contexts: reader/writer mixes
//!   ([`Workload::MixedReadWrite`]) and lock critical sections
//!   ([`Workload::LockHandoff`]).
//!
//! A [`Workload`] is pure data. It compiles itself
//! into per-thread simulator [programs](bounce_sim::program::Program)
//! via [`Workload::sim_programs`]; the native measurement backend in
//! `bounce-harness` interprets the same spec against real atomics.

#![warn(missing_docs)]

pub mod addr;
pub mod apps;
pub mod spec;
pub mod zipf;

pub use addr::AddressMap;
pub use spec::{LockShape, Workload, READER_GAP_CYCLES};
pub use zipf::{zipf_program, Zipf};
