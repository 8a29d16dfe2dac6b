//! The workload specifications and their compilation to simulator
//! programs.

use crate::addr::AddressMap;
use bounce_atomics::Primitive;
use bounce_core::Scenario;
use bounce_sim::program::{builders, Operand, Program, Step, THREAD_REG};
use bounce_topo::HwThreadId;

// `LockShape` (the lock algorithm used by [`Workload::LockHandoff`]) now
// lives in `bounce_atomics` next to the concrete lock implementations, so
// the model layer can key on it without depending on this crate. Kept as
// a re-export for existing importers.
pub use bounce_atomics::LockShape;

/// A complete workload description — what each of `n` threads does.
///
/// ```
/// use bounce_workloads::Workload;
/// use bounce_atomics::Primitive;
///
/// let w = Workload::HighContention { prim: Primitive::Cas };
/// assert!(w.is_high_contention());
/// // A workload compiles itself into one simulator program per thread.
/// let programs = w.sim_programs(4);
/// assert_eq!(programs.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// All threads apply `prim` to the one shared line, back to back.
    HighContention {
        /// Primitive under test.
        prim: Primitive,
    },
    /// Each thread applies `prim` to its own private line, back to back.
    LowContention {
        /// Primitive under test.
        prim: Primitive,
        /// Local work between ops, cycles.
        work: u64,
    },
    /// All threads share one line, with `work` cycles of local compute
    /// between ops — sweeps the HC → LC transition (experiment E11).
    Diluted {
        /// Primitive under test.
        prim: Primitive,
        /// Local work between ops, cycles.
        work: u64,
    },
    /// Read the shared word, compute for `window` cycles, CAS(old,
    /// old+1); retry on failure. The canonical lock-free-update shape.
    CasRetryLoop {
        /// Cycles between the read and the CAS.
        window: u64,
        /// Local work after a successful update, cycles.
        work: u64,
    },
    /// The first `writers` threads RMW the shared line; the rest only
    /// load it. Probes the read-mostly regime where MESIF's Forward
    /// state matters.
    MixedReadWrite {
        /// Number of writer threads (the rest read).
        writers: usize,
        /// Writers' primitive.
        prim: Primitive,
    },
    /// Read-heavy sharing under cache-capacity pressure — the coherence
    /// protocol ablation's separator (experiment E13). The first
    /// `writers` threads FAA the shared line with `writer_work` cycles
    /// between ops; every other thread loads it and then walks a private
    /// line that maps to the *same* L1 set, evicting its own copy — so
    /// each of its shared reads is a fresh directory transaction. Which
    /// data path answers those reads (MESIF's Forward copy, MOESI's
    /// serialised Owned supplier, or memory under plain MESI) dominates
    /// throughput. Meant to run with a direct-mapped L1 (`l1_ways = 1`)
    /// so a single conflicting line evicts.
    ReadScan {
        /// Number of writer threads (the rest scan-read).
        writers: usize,
        /// Writers' local work between RMWs, cycles.
        writer_work: u64,
    },
    /// Lock / critical-section handoff with the given lock algorithm.
    LockHandoff {
        /// Lock algorithm.
        shape: LockShape,
        /// Critical-section length, cycles.
        cs: u64,
        /// Non-critical-section length, cycles.
        noncs: u64,
    },
    /// Each thread updates its own *word*, but all words share one
    /// cache line — false sharing. Logically private data behaves like
    /// the high-contention setting; the padded antidote is
    /// [`Workload::LowContention`].
    FalseSharing {
        /// Primitive under test.
        prim: Primitive,
    },
    /// CAS retry loop with a bounded-exponential backoff ladder applied
    /// after consecutive failures (the backoff ablation).
    CasRetryLoopBackoff {
        /// Cycles between the read and the CAS.
        window: u64,
        /// Spin windows after the 1st, 2nd, 3rd+ consecutive failure.
        backoff: [u64; 3],
    },
    /// Contention spreading: thread `i` hammers shared line `i % lines`
    /// — the line-striped counter. `lines = 1` degenerates to
    /// [`Workload::HighContention`]; `lines = n` to
    /// [`Workload::LowContention`].
    MultiLine {
        /// Primitive under test.
        prim: Primitive,
        /// Number of distinct (padded) contended lines.
        lines: usize,
    },
    /// Zipf-skewed contention: each thread's ops target `lines` padded
    /// lines with Zipf(θ) popularity — the realistic interpolation
    /// between striped (θ = 0) and single-line (θ large) contention.
    Zipf {
        /// Primitive under test.
        prim: Primitive,
        /// Number of distinct lines.
        lines: usize,
        /// Skew exponent (θ ≥ 0; 0 = uniform).
        theta: f64,
        /// RNG seed for the per-thread op sequences.
        seed: u64,
    },
}

impl Workload {
    /// Short label for tables and bench ids.
    pub fn label(&self) -> String {
        match self {
            Workload::HighContention { prim } => format!("hc-{prim}"),
            Workload::LowContention { prim, work } => format!("lc-{prim}-w{work}"),
            Workload::Diluted { prim, work } => format!("diluted-{prim}-w{work}"),
            Workload::CasRetryLoop { window, work } => {
                format!("casloop-win{window}-w{work}")
            }
            Workload::MixedReadWrite { writers, prim } => {
                format!("mixed-{prim}-{writers}w")
            }
            Workload::ReadScan {
                writers,
                writer_work,
            } => format!("readscan-{writers}w-w{writer_work}"),
            Workload::LockHandoff { shape, cs, noncs } => {
                format!("lock-{}-cs{cs}-n{noncs}", shape.label())
            }
            Workload::FalseSharing { prim } => format!("false-sharing-{prim}"),
            Workload::CasRetryLoopBackoff { window, backoff } => {
                format!(
                    "casloop-win{window}-bo{}-{}-{}",
                    backoff[0], backoff[1], backoff[2]
                )
            }
            Workload::MultiLine { prim, lines } => format!("multiline-{prim}-l{lines}"),
            Workload::Zipf {
                prim,
                lines,
                theta,
                seed,
            } => format!("zipf-{prim}-l{lines}-t{theta:.2}-s{seed}"),
        }
    }

    /// Whether every thread hammers the same line (the high-contention
    /// family).
    pub fn is_high_contention(&self) -> bool {
        !matches!(self, Workload::LowContention { .. })
    }

    /// Compile to one simulator program per thread index `0..n`.
    ///
    /// Each role's body is built once and cloned, so the threads of a
    /// role share one step list. A body that names the thread's own
    /// line (low contention, the ReadScan reader, MCS) indexes it by
    /// [`THREAD_REG`], which the engine presets to the thread's index:
    /// program `i` must be the `i`-th thread added. False sharing,
    /// multi-line and Zipf bodies still differ per thread.
    pub fn sim_programs(&self, n: usize) -> Vec<Program> {
        let map = AddressMap;
        let shared = |body: Program| vec![body; n];
        // The first `writers` threads run `writer`, the rest `reader`.
        let split = |writers: usize, writer: Program, reader: Program| {
            (0..n)
                .map(|i| {
                    if i < writers {
                        writer.clone()
                    } else {
                        reader.clone()
                    }
                })
                .collect()
        };
        match *self {
            Workload::HighContention { prim } => shared(builders::op_loop(prim, map.shared(), 0)),
            Workload::LowContention { prim, work } => shared(builders::thread_op_loop(
                prim,
                map.private(0),
                map.stride(),
                work,
            )),
            Workload::Diluted { prim, work } => shared(builders::op_loop(prim, map.shared(), work)),
            Workload::CasRetryLoop { window, work } => {
                shared(builders::cas_increment_loop(map.shared(), window, work))
            }
            Workload::MixedReadWrite { writers, prim } => split(
                writers,
                builders::op_loop(prim, map.shared(), 0),
                reader_loop(map),
            ),
            Workload::ReadScan {
                writers,
                writer_work,
            } => split(
                writers,
                builders::op_loop(Primitive::Faa, map.shared(), writer_work),
                scan_reader_loop(map),
            ),
            Workload::LockHandoff { shape, cs, noncs } => match shape {
                LockShape::Tas => shared(builders::tas_lock_loop(map.lock(), cs, noncs)),
                LockShape::Ttas => shared(builders::ttas_lock_loop(map.lock(), cs, noncs)),
                LockShape::Ticket => shared(builders::ticket_lock_loop(
                    map.lock(),
                    map.lock_serving(),
                    cs,
                    noncs,
                )),
                LockShape::Mcs => shared(builders::mcs_lock_loop(
                    map.lock(),
                    map.mcs_flag_base(),
                    map.mcs_next_base(),
                    cs,
                    noncs,
                )),
            },
            Workload::FalseSharing { prim } => (0..n)
                .map(|i| {
                    let addr = bounce_sim::cache::WordAddr {
                        line: map.shared().line,
                        word: (i % 8) as u8,
                    };
                    builders::op_loop(prim, addr, 0)
                })
                .collect(),
            Workload::CasRetryLoopBackoff { window, backoff } => shared(
                builders::cas_increment_loop_backoff(map.shared(), window, backoff),
            ),
            Workload::MultiLine { prim, lines } => (0..n)
                .map(|i| {
                    assert!(lines >= 1, "MultiLine needs at least one line");
                    builders::op_loop(prim, map.shared_aux((i % lines) as u64), 0)
                })
                .collect(),
            Workload::Zipf {
                prim,
                lines,
                theta,
                seed,
            } => (0..n)
                .map(|i| {
                    crate::zipf::zipf_program(prim, map.shared_aux(0), lines, theta, seed, i, 128)
                })
                .collect(),
        }
    }

    /// Derive the model-facing [`Scenario`] this workload realises when
    /// run on `threads` — the one source of truth tying the simulator
    /// program (from [`Workload::sim_programs`]) to the model input.
    ///
    /// Returns `None` for workloads the analytical model does not cover:
    /// `ReadScan` (an L1-eviction stressor for the coherence protocols),
    /// `CasRetryLoopBackoff` (backoff is deliberately outside the
    /// model), `Zipf` (skewed multi-line access), CAS loops with extra
    /// non-window work, and multi-writer mixes. Notably `FalseSharing`
    /// *is* covered: distinct words on one line bounce exactly like one
    /// shared word, so it maps to the high-contention scenario.
    pub fn scenario(&self, threads: &[HwThreadId]) -> Option<Scenario> {
        match *self {
            Workload::HighContention { prim } => Some(Scenario::high_contention(threads, prim)),
            Workload::LowContention { prim, work } => {
                Some(Scenario::low_contention(threads.len(), prim, work as f64))
            }
            Workload::Diluted { prim, work } => Some(Scenario::diluted(threads, prim, work as f64)),
            Workload::CasRetryLoop { window, work: 0 } => {
                Some(Scenario::cas_loop(threads, window as f64))
            }
            Workload::MixedReadWrite { writers, .. } if writers == 1 && !threads.is_empty() => {
                Some(Scenario::mixed_rw(
                    threads[0],
                    &threads[1..],
                    READER_GAP_CYCLES as f64,
                ))
            }
            Workload::LockHandoff { cs, .. } => Some(Scenario::lock_handoff(threads, cs as f64)),
            Workload::FalseSharing { prim } => Some(Scenario::high_contention(threads, prim)),
            Workload::MultiLine { prim, lines } => Some(Scenario::multi_line(threads, prim, lines)),
            Workload::CasRetryLoop { .. }
            | Workload::MixedReadWrite { .. }
            | Workload::ReadScan { .. }
            | Workload::CasRetryLoopBackoff { .. }
            | Workload::Zipf { .. } => None,
        }
    }

    /// The standard workload battery every experiment sweep draws from.
    pub fn standard_battery() -> Vec<Workload> {
        let mut v: Vec<Workload> = Primitive::ALL
            .iter()
            .map(|&prim| Workload::HighContention { prim })
            .collect();
        v.extend(
            Primitive::RMW
                .iter()
                .map(|&prim| Workload::LowContention { prim, work: 0 }),
        );
        v.push(Workload::CasRetryLoop {
            window: 30,
            work: 0,
        });
        v.extend(LockShape::ALL.iter().map(|&shape| Workload::LockHandoff {
            shape,
            cs: 100,
            noncs: 100,
        }));
        v
    }
}

/// Cycles of local work between a [`Workload::MixedReadWrite`] reader's
/// polls. Shared between the simulator's reader loop and the
/// derived [`Scenario::MixedRw`] so the model always sees the gap the
/// sim actually runs.
pub const READER_GAP_CYCLES: u64 = 8;

/// A pure-reader loop over the shared word with a tiny pause so that a
/// reader never floods the event queue when the line is quiescent.
fn reader_loop(map: AddressMap) -> Program {
    Program::new(vec![
        Step::Op {
            prim: Primitive::Load,
            addr: map.shared(),
            operand: Operand::Const(0),
            expected: Operand::Const(0),
        },
        Step::Work(READER_GAP_CYCLES),
        Step::Goto(0),
    ])
    .expect("reader loop is well-formed")
}

/// A reader that loads the shared word and then its private
/// [`AddressMap::scan_conflict`] line (same L1 set), so that with a
/// direct-mapped L1 the shared copy is evicted between reads and every
/// shared load is a fresh directory transaction. One body for every
/// reader: the conflict load is indexed by the thread index.
fn scan_reader_loop(map: AddressMap) -> Program {
    Program::new(vec![
        Step::Op {
            prim: Primitive::Load,
            addr: map.shared(),
            operand: Operand::Const(0),
            expected: Operand::Const(0),
        },
        Step::OpIndexed {
            prim: Primitive::Load,
            base: map.scan_conflict(0),
            reg: THREAD_REG,
            stride: map.stride(),
            operand: Operand::Const(0),
            expected: Operand::Const(0),
        },
        Step::Work(8),
        Step::Goto(0),
    ])
    .expect("scan reader loop is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_per_thread_count() {
        for w in Workload::standard_battery() {
            let progs = w.sim_programs(5);
            assert_eq!(progs.len(), 5, "{}", w.label());
        }
    }

    #[test]
    fn low_contention_uses_distinct_lines() {
        let w = Workload::LowContention {
            prim: Primitive::Faa,
            work: 0,
        };
        let progs = w.sim_programs(3);
        let mut lines = std::collections::HashSet::new();
        for (i, p) in progs.iter().enumerate() {
            for s in p.steps() {
                if let Some(addr) = s.thread_word(i) {
                    lines.insert(addr.line);
                }
            }
        }
        assert_eq!(lines.len(), 3, "one private line per thread");
    }

    #[test]
    fn high_contention_uses_one_line() {
        let w = Workload::HighContention {
            prim: Primitive::Cas,
        };
        let progs = w.sim_programs(4);
        let mut lines = std::collections::HashSet::new();
        for p in &progs {
            for s in p.steps() {
                if let Step::Op { addr, .. } = s {
                    lines.insert(addr.line);
                }
            }
        }
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn scenario_derivation_matches_workload_family() {
        let hw: Vec<HwThreadId> = (0..4).map(HwThreadId).collect();
        let cases: Vec<(Workload, Option<Scenario>)> = vec![
            (
                Workload::HighContention {
                    prim: Primitive::Faa,
                },
                Some(Scenario::high_contention(&hw, Primitive::Faa)),
            ),
            (
                Workload::LowContention {
                    prim: Primitive::Cas,
                    work: 50,
                },
                Some(Scenario::low_contention(4, Primitive::Cas, 50.0)),
            ),
            (
                Workload::Diluted {
                    prim: Primitive::Faa,
                    work: 200,
                },
                Some(Scenario::diluted(&hw, Primitive::Faa, 200.0)),
            ),
            (
                Workload::CasRetryLoop {
                    window: 30,
                    work: 0,
                },
                Some(Scenario::cas_loop(&hw, 30.0)),
            ),
            (
                Workload::MixedReadWrite {
                    writers: 1,
                    prim: Primitive::Faa,
                },
                Some(Scenario::mixed_rw(
                    hw[0],
                    &hw[1..],
                    READER_GAP_CYCLES as f64,
                )),
            ),
            (
                Workload::LockHandoff {
                    shape: LockShape::Mcs,
                    cs: 100,
                    noncs: 100,
                },
                Some(Scenario::lock_handoff(&hw, 100.0)),
            ),
            (
                Workload::FalseSharing {
                    prim: Primitive::Faa,
                },
                Some(Scenario::high_contention(&hw, Primitive::Faa)),
            ),
            (
                Workload::MultiLine {
                    prim: Primitive::Faa,
                    lines: 2,
                },
                Some(Scenario::multi_line(&hw, Primitive::Faa, 2)),
            ),
            // Unmodeled families derive no scenario.
            (
                Workload::CasRetryLoop {
                    window: 30,
                    work: 100,
                },
                None,
            ),
            (
                Workload::MixedReadWrite {
                    writers: 2,
                    prim: Primitive::Faa,
                },
                None,
            ),
            (
                Workload::ReadScan {
                    writers: 1,
                    writer_work: 2000,
                },
                None,
            ),
            (
                Workload::CasRetryLoopBackoff {
                    window: 30,
                    backoff: [16, 64, 256],
                },
                None,
            ),
            (
                Workload::Zipf {
                    prim: Primitive::Faa,
                    lines: 8,
                    theta: 0.9,
                    seed: 1,
                },
                None,
            ),
        ];
        for (w, expect) in cases {
            assert_eq!(w.scenario(&hw), expect, "workload {}", w.label());
        }
    }

    #[test]
    fn lock_scenario_is_shape_independent() {
        // The model predicts the whole ladder at once, so every shape of
        // the same cs derives the same scenario.
        let hw: Vec<HwThreadId> = (0..4).map(HwThreadId).collect();
        let scenarios: Vec<Option<Scenario>> = LockShape::ALL
            .iter()
            .map(|&shape| {
                Workload::LockHandoff {
                    shape,
                    cs: 100,
                    noncs: 100,
                }
                .scenario(&hw)
            })
            .collect();
        assert!(scenarios.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn reader_gap_constant_is_what_the_reader_runs() {
        // The derived scenario's reader gap must be the literal Work
        // step in the compiled reader program.
        let w = Workload::MixedReadWrite {
            writers: 1,
            prim: Primitive::Faa,
        };
        let progs = w.sim_programs(3);
        let reader = &progs[1];
        assert!(reader
            .steps()
            .iter()
            .any(|s| matches!(s, Step::Work(g) if *g == READER_GAP_CYCLES)));
        let hw: Vec<HwThreadId> = (0..3).map(HwThreadId).collect();
        match w.scenario(&hw) {
            Some(Scenario::MixedRw { reader_gap, .. }) => {
                assert_eq!(reader_gap, READER_GAP_CYCLES as f64)
            }
            other => panic!("expected MixedRw scenario, got {other:?}"),
        }
    }

    #[test]
    fn mixed_split_readers_writers() {
        let w = Workload::MixedReadWrite {
            writers: 2,
            prim: Primitive::Faa,
        };
        let progs = w.sim_programs(6);
        let is_writer = |p: &Program| {
            p.steps()
                .iter()
                .any(|s| matches!(s, Step::Op { prim, .. } if prim.is_rmw()))
        };
        assert_eq!(progs.iter().filter(|p| is_writer(p)).count(), 2);
    }

    #[test]
    fn readscan_scanners_touch_shared_plus_private_conflict() {
        let w = Workload::ReadScan {
            writers: 1,
            writer_work: 2000,
        };
        let progs = w.sim_programs(4);
        let map = AddressMap;
        let is_writer = |p: &Program| {
            p.steps()
                .iter()
                .any(|s| matches!(s, Step::Op { prim, .. } if prim.is_rmw()))
        };
        assert_eq!(progs.iter().filter(|p| is_writer(p)).count(), 1);
        // Every scanner loads the shared line plus its own distinct
        // filler line, and that filler maps to the shared line's L1 set.
        let mut fillers = std::collections::HashSet::new();
        for (i, p) in progs.iter().enumerate().skip(1) {
            let lines: Vec<_> = p
                .steps()
                .iter()
                .filter_map(|s| s.thread_word(i).map(|a| a.line))
                .collect();
            assert_eq!(lines.len(), 2);
            assert_eq!(lines[0], map.shared().line);
            assert_eq!(lines[1].0 % 64, map.shared().line.0 % 64);
            fillers.insert(lines[1]);
        }
        assert_eq!(fillers.len(), 3, "one filler line per scanner");
    }

    #[test]
    fn labels_are_distinct() {
        let battery = Workload::standard_battery();
        let labels: std::collections::HashSet<_> = battery.iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), battery.len());
    }

    #[test]
    fn contention_classification() {
        assert!(Workload::HighContention {
            prim: Primitive::Faa
        }
        .is_high_contention());
        assert!(!Workload::LowContention {
            prim: Primitive::Faa,
            work: 0
        }
        .is_high_contention());
    }

    #[test]
    fn false_sharing_targets_distinct_words_of_one_line() {
        let w = Workload::FalseSharing {
            prim: Primitive::Faa,
        };
        let progs = w.sim_programs(8);
        let mut lines = std::collections::HashSet::new();
        let mut words = std::collections::HashSet::new();
        for p in &progs {
            for s in p.steps() {
                if let Step::Op { addr, .. } = s {
                    lines.insert(addr.line);
                    words.insert(addr.word);
                }
            }
        }
        assert_eq!(lines.len(), 1, "one physical line");
        assert_eq!(words.len(), 8, "eight logical words");
    }

    #[test]
    fn backoff_loop_compiles_per_thread() {
        let w = Workload::CasRetryLoopBackoff {
            window: 20,
            backoff: [32, 128, 512],
        };
        let progs = w.sim_programs(3);
        assert_eq!(progs.len(), 3);
        assert!(w.label().contains("bo32"));
        assert!(w.is_high_contention());
    }

    #[test]
    fn multiline_distributes_threads_over_lines() {
        let w = Workload::MultiLine {
            prim: Primitive::Faa,
            lines: 3,
        };
        let progs = w.sim_programs(9);
        let mut lines = std::collections::HashMap::new();
        for p in &progs {
            for s in p.steps() {
                if let Step::Op { addr, .. } = s {
                    *lines.entry(addr.line).or_insert(0u32) += 1;
                }
            }
        }
        assert_eq!(lines.len(), 3, "three distinct lines");
        assert!(
            lines.values().all(|&c| c == 3),
            "3 threads per line: {lines:?}"
        );
    }

    #[test]
    fn clone_eq() {
        for w in Workload::standard_battery() {
            let w2 = w.clone();
            assert_eq!(w, w2);
        }
    }

    #[test]
    fn standard_battery_covers_both_regimes() {
        let battery = Workload::standard_battery();
        assert!(battery.iter().any(|w| w.is_high_contention()));
        assert!(battery.iter().any(|w| !w.is_high_contention()));
        assert!(battery
            .iter()
            .any(|w| matches!(w, Workload::LockHandoff { .. })));
    }
}
