//! Discrete-event cache-coherence simulator — the stand-in for the
//! paper's two physical testbeds.
//!
//! The ICPP'19 study runs atomic-primitive microbenchmarks on an Intel
//! Xeon E5 and a Xeon Phi (KNL) and explains the results with a model
//! "centered around the bouncing of cache lines between threads". This
//! simulator reproduces exactly that mechanism, at coherence-transaction
//! granularity:
//!
//! * each core has a set-associative L1 holding coherence line states;
//!   the line-state policy is pluggable ([protocol]): MESIF (Intel
//!   servers, the default), plain MESI (KNL's tag directory) or MOESI
//!   (AMD-style dirty sharing);
//! * every miss becomes a request to the line's *home* directory slice
//!   (the in-LLC directory of a socket on E5, a distributed tag directory
//!   tile on KNL);
//! * the directory serialises transactions **per line** — this
//!   serialisation *is* the cache-line bouncing: each exclusive-ownership
//!   transfer costs a distance-dependent latency (ring hops + QPI on E5,
//!   mesh hops on KNL);
//! * the order in which queued requests are served is the [arbitration
//!   policy](config::ArbitrationPolicy) — fairness emerges from it;
//! * memory is *value-accurate*: a CAS in the simulator really compares
//!   and really fails, FAA really accumulates — so retry loops, locks and
//!   application workloads behave like the real thing;
//! * every event is charged energy (static power while cores are active +
//!   per-message/per-transfer dynamic energy), standing in for RAPL.
//!
//! Simulated threads run small [programs](program) — a tiny register
//! machine with atomic ops, local work, branches on op success, and
//! event-driven spin-wait — expressive enough for every workload in the
//! paper: op loops, CAS retry loops, and the lock implementations.
//!
//! What is deliberately *not* modelled: instruction pipelines, memory
//! bandwidth saturation, TLBs, prefetchers. The paper's model operates at
//! the level of line-transfer latencies, and so does the simulator.

#![warn(missing_docs)]

pub mod analyze;
pub mod cache;
pub mod config;
pub mod conform;
pub mod counters;
pub mod directory;
pub mod engine;
pub mod equeue;
pub mod error;
pub mod faults;
pub mod probe;
pub mod program;
pub mod protocol;
pub mod report;
pub mod trace;

pub use analyze::{analyze_program, analyze_steps, analyze_workload, AnalysisError, Diagnostic};
pub use cache::{LineId, LineState, SetAssocCache, WordAddr};
pub use config::{
    ArbitrationPolicy, ConfigError, EnergyParams, HomePolicy, RetryPolicy, RunLength, SimConfig,
    SimParams, Watchdog,
};
pub use conform::{ConformEvent, ConformKind, ConformRecorder, DirSnapshot};
pub use engine::Engine;
pub use equeue::CalendarQueue;
pub use error::{LineDiag, SimError, StuckThread};
pub use faults::{FabricFaultConfig, FaultConfig};
pub use probe::{NoProbe, Probe};
pub use program::{Operand, Program, ProgramError, SpinPred, Step};
pub use protocol::{CoherenceKind, CoherenceProtocol, DataSource};
pub use report::{EnergyBreakdown, RunLengthSummary, SimReport, ThreadReport};
pub use trace::{Trace, TraceEvent};
