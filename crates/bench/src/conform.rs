//! The `repro conform` campaign: run trace-recorded scenarios on the
//! real engine and replay them through the verified coherence model
//! (verification pass 5, `bounce_verify::conform`).
//!
//! Each scenario places one simulated thread per core on at most 4
//! distinct cores — the verified model is per-core with up to 4 cores,
//! so SMT siblings would break the abstraction — and runs a small
//! program mix chosen to exercise a particular family of
//! transition-table rows:
//!
//! * `faa-pair` / `cas-trio`: contended RMW traffic — ownership bounces
//!   (`write_source` rows, `demote(M)`);
//! * `read-share`: three readers against one writer — read sourcing,
//!   `read_install`, owner demotion;
//! * `evict-churn`: a 1-set/1-way L1 alternating two lines — silent
//!   capacity evictions of dirty and shared copies;
//! * `nack-storm`: contended traffic under an `e15`-style degraded
//!   fabric (default `severe`, the worst preset experiment e15 sweeps)
//!   on the Xeon E5 topology — `nack_retry` rows for both GetS and
//!   GetM.
//!
//! The per-protocol union of exercised rows is compared against the
//! committed `results/CONFORM_COVERAGE.json` baseline: coverage may
//! grow but not shrink. The baseline is (re)written only by a
//! *canonical* run — `--quick`, all three protocols, default fabric —
//! so ad-hoc invocations can't silently move the bar.

use std::fs;
use std::path::{Path, PathBuf};

use bounce_atomics::Primitive;
use bounce_sim::conform::ConformRecorder;
use bounce_sim::program::builders;
use bounce_sim::protocol::protocol_for;
use bounce_sim::{
    CoherenceKind, Engine, FabricFaultConfig, Operand, Program, RunLength, SimConfig, SimParams,
    Step, WordAddr,
};
use bounce_topo::presets;
use bounce_verify::conform::{replay_recorder, ConformError, CoverageReport};

/// Arguments of a `repro conform` invocation.
#[derive(Debug, Clone)]
pub struct ConformArgs {
    /// Shorter scenario runs (the CI configuration).
    pub quick: bool,
    /// Protocols to check (default: all three).
    pub protocols: Vec<CoherenceKind>,
    /// Fabric fault preset for the faulted scenario (default `severe`).
    pub fabric_label: String,
    /// Directory holding `CONFORM_COVERAGE.json` (default `results`).
    pub out: PathBuf,
}

impl Default for ConformArgs {
    fn default() -> Self {
        ConformArgs {
            quick: false,
            protocols: CoherenceKind::ALL.to_vec(),
            fabric_label: DEFAULT_FABRIC.to_string(),
            out: PathBuf::from("results"),
        }
    }
}

/// Default fault preset for the NACK scenario.
pub const DEFAULT_FABRIC: &str = "severe";

/// Baseline file name under the output directory.
pub const COVERAGE_FILE: &str = "CONFORM_COVERAGE.json";

struct Scenario {
    name: &'static str,
    /// Run on the Xeon E5 preset instead of the tiny test machine.
    on_e5: bool,
    /// Apply the fabric fault preset (the NACK scenario).
    faulted: bool,
    /// Shrink the L1 to 1 set × 1 way to force capacity evictions.
    shrink_l1: bool,
    programs: fn() -> Vec<Program>,
}

fn line(k: u64) -> WordAddr {
    WordAddr::of_line(k)
}

fn faa_pair() -> Vec<Program> {
    let a = line(0);
    vec![
        builders::op_loop(Primitive::Faa, a, 40),
        builders::op_loop(Primitive::Faa, a, 55),
    ]
}

fn cas_trio() -> Vec<Program> {
    let a = line(0);
    vec![
        builders::cas_increment_loop(a, 12, 30),
        builders::cas_increment_loop(a, 8, 45),
        builders::op_loop(Primitive::Faa, a, 60),
    ]
}

fn read_share() -> Vec<Program> {
    let a = line(0);
    vec![
        builders::op_loop(Primitive::Faa, a, 400),
        builders::op_loop(Primitive::Load, a, 35),
        builders::op_loop(Primitive::Load, a, 50),
        builders::op_loop(Primitive::Load, a, 65),
    ]
}

fn evict_churn() -> Vec<Program> {
    // Thread 0 alternates RMWs on two lines that collide in its
    // 1-set/1-way L1, so every miss evicts the other line (dirty
    // writeback evictions); thread 1 read-loops one of them (shared
    // evictions on thread 0's side, demotions on reads).
    let a = line(0);
    let b = line(1);
    let churn = Program::new(vec![
        Step::Op {
            prim: Primitive::Faa,
            addr: a,
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        },
        Step::Work(25),
        Step::Op {
            prim: Primitive::Faa,
            addr: b,
            operand: Operand::Const(1),
            expected: Operand::Const(0),
        },
        Step::Work(25),
        Step::Goto(0),
    ])
    .expect("churn program is well-formed");
    vec![churn, builders::op_loop(Primitive::Load, a, 45)]
}

fn nack_storm() -> Vec<Program> {
    let a = line(0);
    vec![
        builders::op_loop(Primitive::Faa, a, 25),
        builders::cas_increment_loop(a, 10, 20),
        builders::op_loop(Primitive::Load, a, 15),
    ]
}

const SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "faa-pair",
        on_e5: false,
        faulted: false,
        shrink_l1: false,
        programs: faa_pair,
    },
    Scenario {
        name: "cas-trio",
        on_e5: false,
        faulted: false,
        shrink_l1: false,
        programs: cas_trio,
    },
    Scenario {
        name: "read-share",
        on_e5: false,
        faulted: false,
        shrink_l1: false,
        programs: read_share,
    },
    Scenario {
        name: "evict-churn",
        on_e5: false,
        faulted: false,
        shrink_l1: true,
        programs: evict_churn,
    },
    Scenario {
        name: "nack-storm",
        on_e5: true,
        faulted: true,
        shrink_l1: false,
        programs: nack_storm,
    },
];

/// Run one scenario under `proto`, returning the captured trace.
fn run_scenario(
    proto: CoherenceKind,
    sc: &Scenario,
    quick: bool,
    fabric: FabricFaultConfig,
) -> Result<ConformRecorder, String> {
    let topo = if sc.on_e5 {
        presets::xeon_e5_2695_v4()
    } else {
        presets::tiny_test_machine()
    };
    let mut params = SimParams::for_machine(&topo);
    params.protocol = proto;
    // Fixed run length: conformance wants a deterministic, bounded
    // trace, not a converged measurement.
    params.run_length = RunLength::Fixed { cycles: 0 };
    if sc.shrink_l1 {
        params.l1_sets = 1;
        params.l1_ways = 1;
    }
    if sc.faulted {
        params.fabric = fabric;
    }
    let duration = if quick { 30_000 } else { 120_000 };
    let cfg = SimConfig::new(params, duration);
    let programs = (sc.programs)();
    assert!(
        (2..=4).contains(&programs.len()),
        "conform scenarios use 2-4 threads"
    );
    let tracked: Vec<u32> = (0..programs.len() as u32).collect();
    let mut eng = Engine::with_probe(&topo, cfg, ConformRecorder::new(tracked));
    for (i, p) in programs.into_iter().enumerate() {
        // One thread per core: SMT slot 0 of cores 0..n. The verified
        // model is per-core, so siblings sharing an L1 would have no
        // abstract image.
        eng.add_thread(topo.cores[i].threads[0], p);
    }
    eng.try_run()
        .map_err(|e| format!("scenario {} under {proto}: {e}", sc.name))?;
    Ok(eng.into_probe())
}

/// Committed-coverage baseline, parsed from the hand-rolled JSON.
struct Baseline {
    fabric: String,
    rows: Vec<(String, Vec<String>)>,
}

fn extract_string_field(content: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = content.find(&pat)? + pat.len();
    let end = content[start..].find('"')? + start;
    Some(content[start..end].to_string())
}

fn parse_baseline(content: &str) -> Option<Baseline> {
    let fabric = extract_string_field(content, "fabric")?;
    let mut rows = Vec::new();
    for kind in CoherenceKind::ALL {
        let pat = format!("\"{}\": [", kind.label());
        let Some(start) = content.find(&pat) else {
            continue;
        };
        let body_start = start + pat.len();
        let body_end = content[body_start..].find(']')? + body_start;
        let keys: Vec<String> = content[body_start..body_end]
            .split('"')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect();
        rows.push((kind.label().to_string(), keys));
    }
    Some(Baseline { fabric, rows })
}

fn coverage_json(quick: bool, fabric: &str, reports: &[CoverageReport]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"quick\": {quick},\n  \"fabric\": \"{fabric}\",\n  \"protocols\": {{\n"
    ));
    for (i, r) in reports.iter().enumerate() {
        s.push_str(&format!("    \"{}\": [\n", r.protocol.label()));
        let keys = r.hit_keys();
        for (j, k) in keys.iter().enumerate() {
            let comma = if j + 1 < keys.len() { "," } else { "" };
            s.push_str(&format!("      \"{k}\"{comma}\n"));
        }
        let comma = if i + 1 < reports.len() { "," } else { "" };
        s.push_str(&format!("    ]{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}

/// Run the conformance campaign. Returns `Err` on any refinement
/// violation, scenario failure, or coverage regression against the
/// committed baseline.
pub fn run(args: &ConformArgs) -> Result<(), String> {
    let fabric = FabricFaultConfig::from_label(&args.fabric_label).ok_or_else(|| {
        format!(
            "unknown fabric fault preset '{}'; known: {}",
            args.fabric_label,
            FabricFaultConfig::LABELS.join(", ")
        )
    })?;
    if args.fabric_label == "none" {
        println!("note: --fabric-faults none disables the NACK scenario's faults; nack_retry rows will not be exercised");
    }
    let mode = if args.quick { "quick" } else { "full" };
    let mut reports: Vec<CoverageReport> = Vec::new();
    for &proto in &args.protocols {
        println!(
            "== conform: {proto} ({mode}, fabric {}) ==",
            args.fabric_label
        );
        let mut rows = Vec::new();
        for sc in &SCENARIOS {
            let rec = run_scenario(proto, sc, args.quick, fabric)?;
            let events = rec.events.len();
            match replay_recorder(protocol_for(proto), &rec) {
                Ok(outcome) => {
                    println!(
                        "  {:<12} {:>6} events, {:>2} lines, {:>2} rows — refines the model",
                        sc.name,
                        events,
                        outcome.lines,
                        outcome.rows_hit.len()
                    );
                    rows.extend(outcome.rows_hit);
                }
                Err(ConformError::Config(m)) => {
                    return Err(format!("scenario {} under {proto}: {m}", sc.name))
                }
                Err(ConformError::Refinement(v)) => {
                    return Err(format!(
                        "scenario {} under {proto} does NOT refine the verified model:\n{v}",
                        sc.name
                    ))
                }
            }
        }
        let report = CoverageReport::new(proto, rows);
        print!("{report}");
        reports.push(report);
    }

    // --- coverage gate against the committed baseline ---
    let canonical = args.quick
        && args.fabric_label == DEFAULT_FABRIC
        && args.protocols.len() == CoherenceKind::ALL.len();
    let path = args.out.join(COVERAGE_FILE);
    gate_and_write(&path, &reports, args.quick, &args.fabric_label, canonical)
}

fn gate_and_write(
    path: &Path,
    reports: &[CoverageReport],
    quick: bool,
    fabric_label: &str,
    canonical: bool,
) -> Result<(), String> {
    let baseline = match fs::read_to_string(path) {
        Ok(content) => Some(
            parse_baseline(&content)
                .ok_or_else(|| format!("could not parse coverage baseline {}", path.display()))?,
        ),
        Err(_) => None,
    };
    match baseline {
        Some(base) if base.fabric == fabric_label => {
            let mut regressed = false;
            for r in reports {
                let Some((_, keys)) = base.rows.iter().find(|(p, _)| *p == r.protocol.label())
                else {
                    continue;
                };
                let missing = r.missing_from(keys);
                if missing.is_empty() {
                    println!(
                        "coverage gate: {} >= baseline ({} rows)",
                        r.protocol.label(),
                        keys.len()
                    );
                } else {
                    regressed = true;
                    eprintln!(
                        "coverage gate: {} lost baseline rows: {}",
                        r.protocol.label(),
                        missing.join("; ")
                    );
                }
            }
            if regressed {
                return Err(format!(
                    "transition coverage dropped below the committed baseline {}",
                    path.display()
                ));
            }
        }
        Some(base) => {
            println!(
                "coverage gate skipped: baseline was recorded with fabric '{}', this run used '{fabric_label}'",
                base.fabric
            );
        }
        None => println!(
            "coverage gate: no baseline at {} (a canonical run creates it)",
            path.display()
        ),
    }
    if canonical {
        let json = coverage_json(quick, fabric_label, reports);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("coverage written to {}", path.display());
    }
    Ok(())
}
