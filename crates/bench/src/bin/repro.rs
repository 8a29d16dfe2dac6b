//! `repro` — regenerate every table and figure of the evaluation, and
//! query the model directly.
//!
//! ```text
//! repro list                      # show experiment ids
//! repro all [--quick] [--out D]  # run everything, write TSVs + stdout
//! repro all --jobs 4             # parallel run
//! repro all --out D --resume     # skip experiments already completed in D
//! repro all --filter fig1,e14    # run a subset of the campaign
//! repro fig1 --machine knl       # one experiment, one machine
//! repro table2 --markdown        # markdown instead of TSV on stdout
//! repro predict --machine e5 --threads 24 --prim faa [--placement packed]
//! repro sweep --machine e5 --prim faa --quick
//!                                 # high-contention thread sweep as JSON
//!                                 # (throughput, jain, p50/p99 latency)
//! repro --experiment e14 --machine e5   # preemption fault injection
//! repro --experiment e15 --machine e5   # degraded fabric (NACK + congestion)
//! repro fig1 --protocol mesi      # any experiment under a non-native protocol
//! repro fig1 --fabric-faults moderate --retry-policy patient
//!                                 # any experiment on a degraded interconnect
//! repro lint                      # static-lint every registered workload
//! repro validate [--quick]        # sim + model over every modeled scenario
//!                                 # family → results/VALIDATION.json (CI gate)
//! repro conform [--quick] [--protocol mesi] [--fabric-faults light]
//!                                 # trace-refinement check of the engine
//!                                 # against the verified coherence model →
//!                                 # results/CONFORM_COVERAGE.json (CI gate)
//! ```
//!
//! `--jobs N` fans independent simulation points across `N` host
//! threads (default: all cores; `--jobs 1` is the serial baseline).
//! Results are collected in sweep order, so the output is byte-identical
//! at every job count. The binary only drives the campaign; its
//! wall-clock, event rate and per-layer costs are measured by the
//! `perfbench` crate (see `perfbench/README.md`).
//!
//! # Experiment ids
//!
//! [`experiments::experiment_specs`] is the one list of experiments:
//! `repro list`, `repro <id>`, `--filter` and every error message
//! derive their ids from it. A spec id is either machine-independent
//! (`table1`) or an experiment id with a machine suffix (`fig1-e5`).
//! `repro <id>` runs the specs that `--filter <id>` would select;
//! `--machine m` narrows that to `<id>-m`.
//!
//! # Run length
//!
//! By default every simulation point uses *adaptive* run length: the
//! engine terminates early once the batch-means CI of throughput
//! converges (see DESIGN.md "Run-length control"), typically cutting
//! campaign wall-clock by well over 2×. `--exact` restores fixed
//! full-budget runs whose output is byte-identical to the historical
//! campaign. The two modes produce slightly different numbers, so the
//! output manifest records the mode and `--resume` refuses to mix them.
//!
//! # Resilience
//!
//! `repro all` isolates every experiment: a panic or a simulator
//! watchdog trip (event-budget exhaustion, livelock) in one experiment
//! is reported on stderr — naming the experiment and the failing
//! configuration — while every other experiment still completes. The
//! process exits nonzero if anything failed.
//!
//! With `--out D` the campaign maintains `D/MANIFEST.json`, updated
//! atomically after each experiment, recording output files and their
//! content hashes. `--resume` re-verifies that manifest and skips every
//! experiment whose outputs are intact, so a killed campaign restarts
//! where it stopped and the resumed `results/` directory is
//! byte-identical to an uninterrupted run.

use bounce_bench::manifest::Manifest;
use bounce_bench::{to_markdown_doc, write_table_outputs};
use bounce_harness::experiments::{self, ExpCtx, Machine};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

struct Args {
    command: String,
    machine: Option<Machine>,
    quick: bool,
    exact: bool,
    markdown: bool,
    plots: bool,
    resume: bool,
    jobs: usize,
    out: Option<PathBuf>,
    filter: Option<Vec<String>>,
    threads: usize,
    prim: bounce_atomics::Primitive,
    placement: bounce_topo::Placement,
    protocol: Option<bounce_sim::CoherenceKind>,
    fabric: Option<bounce_sim::FabricFaultConfig>,
    retry: Option<bounce_sim::RetryPolicy>,
    bad_ir_selftest: bool,
}

/// Comma-joined protocol labels for help/error text.
fn protocol_names() -> String {
    bounce_sim::CoherenceKind::ALL
        .iter()
        .map(|k| k.label())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Comma-joined fabric-fault preset labels for help/error text.
fn fabric_names() -> String {
    bounce_sim::FabricFaultConfig::LABELS.join(", ")
}

/// Comma-joined retry-policy preset labels for help/error text.
fn retry_names() -> String {
    bounce_sim::RetryPolicy::LABELS.join(", ")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "all".into(),
        machine: None,
        quick: false,
        exact: false,
        markdown: false,
        plots: false,
        resume: false,
        jobs: 0,
        out: None,
        filter: None,
        threads: 8,
        prim: bounce_atomics::Primitive::Faa,
        placement: bounce_topo::Placement::Packed,
        protocol: None,
        fabric: None,
        retry: None,
        bad_ir_selftest: false,
    };
    let mut it = std::env::args().skip(1);
    let mut saw_command = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--exact" => args.exact = true,
            "--markdown" => args.markdown = true,
            "--plots" => args.plots = true,
            "--resume" => args.resume = true,
            "--bad-ir-selftest" => args.bad_ir_selftest = true,
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs needs a number (0 = all cores)")?;
                args.jobs = v.parse().map_err(|_| format!("bad job count '{v}'"))?;
            }
            "--machine" => {
                let m = it.next().ok_or("--machine needs a value (e5|knl)")?;
                args.machine = Some(match m.as_str() {
                    "e5" => Machine::E5,
                    "knl" => Machine::Knl,
                    other => {
                        return Err(format!(
                            "unknown machine '{other}'; known presets: {} \
                             (repro models e5 and knl)",
                            bounce_topo::presets::PRESET_NAMES.join(", ")
                        ))
                    }
                });
            }
            "--protocol" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--protocol needs a value ({})", protocol_names()))?;
                args.protocol =
                    Some(bounce_sim::CoherenceKind::from_label(&v).ok_or_else(|| {
                        format!("unknown protocol '{v}'; known: {}", protocol_names())
                    })?);
            }
            "--fabric-faults" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--fabric-faults needs a value ({})", fabric_names()))?;
                args.fabric = Some(bounce_sim::FabricFaultConfig::from_label(&v).ok_or_else(
                    || {
                        format!(
                            "unknown fabric-fault preset '{v}'; known: {}",
                            fabric_names()
                        )
                    },
                )?);
            }
            "--retry-policy" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--retry-policy needs a value ({})", retry_names()))?;
                args.retry = Some(bounce_sim::RetryPolicy::from_label(&v).ok_or_else(|| {
                    format!("unknown retry policy '{v}'; known: {}", retry_names())
                })?);
            }
            "--experiment" | "-e" => {
                let v = it.next().ok_or("--experiment needs an experiment id")?;
                args.command = v;
                saw_command = true;
            }
            "--out" => {
                let d = it.next().ok_or("--out needs a directory")?;
                args.out = Some(PathBuf::from(d));
            }
            "--filter" => {
                let v = it
                    .next()
                    .ok_or("--filter needs a comma-separated id list")?;
                let ids: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if ids.is_empty() {
                    return Err("--filter needs at least one experiment id".into());
                }
                args.filter = Some(ids);
            }
            "--threads" | "-n" => {
                let v = it.next().ok_or("--threads needs a number")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
            }
            "--prim" => {
                let v = it.next().ok_or("--prim needs a primitive name")?;
                args.prim = bounce_atomics::Primitive::from_label(&v)
                    .ok_or(format!("unknown primitive '{v}'"))?;
            }
            "--placement" => {
                let v = it.next().ok_or("--placement needs a policy name")?;
                args.placement = match v.as_str() {
                    "packed" => bounce_topo::Placement::Packed,
                    "scattered" => bounce_topo::Placement::Scattered,
                    "smt-first" => bounce_topo::Placement::SmtFirst,
                    "linear" => bounce_topo::Placement::Linear,
                    other => return Err(format!("unknown placement '{other}'")),
                };
            }
            "--help" | "-h" => {
                args.command = "help".into();
                saw_command = true;
            }
            other if !saw_command && !other.starts_with('-') => {
                args.command = other.to_string();
                saw_command = true;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Whether a `--filter` token selects the (possibly machine-suffixed)
/// experiment id: `fig1` selects both `fig1-e5` and `fig1-knl`;
/// `fig1-e5` selects just that one.
fn filter_matches(token: &str, id: &str) -> bool {
    token == id || id.strip_prefix(token).is_some_and(|r| r.starts_with('-'))
}

/// The registry's experiment ids in order: every spec id with its
/// machine suffix stripped, each once.
fn experiment_ids(ctx: ExpCtx) -> Vec<String> {
    let mut ids: Vec<String> = Vec::new();
    for (sid, _) in experiments::experiment_specs(ctx) {
        let id = Machine::ALL
            .iter()
            .find_map(|m| sid.strip_suffix(m.label())?.strip_suffix('-'))
            .unwrap_or(&sid);
        if !ids.iter().any(|known| known == id) {
            ids.push(id.to_string());
        }
    }
    ids
}

/// `repro <id> [--machine m]`: run the specs the filter token `id` (or
/// `id-m`) selects, plus the spec named exactly `id` (a
/// machine-independent table keeps running under `--machine`), in
/// registry order. Stops at the first failure.
fn run_experiment(args: &Args, ctx: ExpCtx, id: &str) -> ExitCode {
    let token = match args.machine {
        Some(m) => format!("{id}-{}", m.label()),
        None => id.to_string(),
    };
    let specs: Vec<_> = experiments::experiment_specs(ctx)
        .into_iter()
        .filter(|(sid, _)| sid == id || filter_matches(&token, sid))
        .collect();
    if specs.is_empty() {
        eprintln!(
            "unknown experiment '{id}'; known: {}",
            experiment_ids(ctx).join(", ")
        );
        return ExitCode::FAILURE;
    }
    for (sid, thunk) in &specs {
        let table = match experiments::run_guarded(sid, thunk) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {sid}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(dir) = &args.out {
            if let Err(e) = write_table_outputs(dir, sid, &table, args.plots) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        if args.markdown {
            print!("{}", table.to_markdown());
        } else {
            println!("{}", table.to_tsv());
        }
    }
    ExitCode::SUCCESS
}

/// What happened to one experiment of a campaign.
enum Outcome {
    /// Skipped under `--resume`: the manifest entry verified against disk.
    Cached,
    /// Ran to completion this time (table already written if `--out`).
    Fresh(bounce_harness::report::Table),
    /// The experiment failed (panic / watchdog) or its outputs could
    /// not be written; the message names the experiment's context or
    /// the file that failed.
    Failed(String),
}

/// `repro all`: the full campaign with panic isolation, optional
/// manifest-backed resume, and a single unified error path for output
/// files. Returns nonzero if any experiment failed.
fn run_all(args: &Args, ctx: ExpCtx) -> ExitCode {
    if args.resume && args.out.is_none() {
        eprintln!("error: --resume needs --out DIR (the directory holding MANIFEST.json)");
        return ExitCode::FAILURE;
    }
    if args.resume && args.markdown {
        eprintln!(
            "error: --resume is incompatible with --markdown (resume only skips file outputs)"
        );
        return ExitCode::FAILURE;
    }

    let mut specs = experiments::experiment_specs(ctx);
    if let Some(filter) = &args.filter {
        if let Some(bad) = filter
            .iter()
            .find(|tok| !specs.iter().any(|(id, _)| filter_matches(tok, id)))
        {
            eprintln!(
                "error: --filter '{bad}' matches no experiment; known: {}",
                experiment_ids(ctx).join(", ")
            );
            return ExitCode::FAILURE;
        }
        specs.retain(|(id, _)| filter.iter().any(|tok| filter_matches(tok, id)));
    }

    // The manifest records the campaign configuration; resuming under a
    // different one would mix incompatible outputs in one directory.
    let config = format!(
        "quick={},protocol={},plots={},mode={},fabric={},retry={}",
        args.quick,
        args.protocol.map(|p| p.label()).unwrap_or("native"),
        args.plots,
        if args.exact { "exact" } else { "adaptive" },
        args.fabric.map(|f| f.label()).unwrap_or("none"),
        args.retry.map(|r| r.label()).unwrap_or("backoff"),
    );
    let manifest: Option<Mutex<Manifest>> = match &args.out {
        None => None,
        Some(dir) => {
            let loaded = if args.resume {
                match Manifest::load(dir) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("error: {e} (delete it or rerun without --resume)");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                None
            };
            if let Some(m) = &loaded {
                if m.config != config {
                    eprintln!(
                        "error: manifest in {} was written with '{}' but this run is '{}'; \
                         rerun without --resume to start over",
                        dir.display(),
                        m.config,
                        config
                    );
                    return ExitCode::FAILURE;
                }
            }
            Some(Mutex::new(loaded.unwrap_or_else(|| Manifest::new(&config))))
        }
    };
    let cached: Vec<bool> = specs
        .iter()
        .map(|(id, _)| match (&manifest, &args.out) {
            (Some(m), Some(dir)) if args.resume => m.lock().unwrap().verified_complete(dir, id),
            _ => false,
        })
        .collect();

    let outcomes: Vec<Outcome> = bounce_harness::par_run(specs.len(), |i| {
        let (id, thunk) = &specs[i];
        if cached[i] {
            return Outcome::Cached;
        }
        match experiments::run_guarded(id, thunk) {
            Err(e) => Outcome::Failed(e.to_string()),
            Ok(table) => match (&manifest, &args.out) {
                (Some(m), Some(dir)) => {
                    // Write outputs, then atomically publish the
                    // manifest entry — so a kill between experiments
                    // never records an experiment whose files are
                    // not fully on disk.
                    match write_table_outputs(dir, id, &table, args.plots).and_then(|records| {
                        let mut m = m.lock().unwrap();
                        m.entries.insert(id.clone(), records);
                        m.save(dir)
                    }) {
                        Ok(()) => Outcome::Fresh(table),
                        Err(e) => Outcome::Failed(e),
                    }
                }
                _ => Outcome::Fresh(table),
            },
        }
    });

    // stdout, in registry order. Cached experiments were not re-run, so
    // their tables are replayed from the verified files on disk —
    // keeping a resumed run's stdout identical to an uninterrupted one.
    let mut printed: Vec<(String, bounce_harness::report::Table)> = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    for ((id, _), outcome) in specs.iter().zip(&outcomes) {
        match outcome {
            Outcome::Fresh(t) => {
                if args.markdown {
                    printed.push((id.clone(), t.clone()));
                } else {
                    println!("{}", t.to_tsv());
                }
            }
            Outcome::Cached => {
                let path = args
                    .out
                    .as_ref()
                    .expect("cached implies --out")
                    .join(format!("{id}.tsv"));
                match std::fs::read_to_string(&path) {
                    Ok(tsv) => println!("{tsv}"),
                    Err(e) => {
                        failures.push((id.clone(), format!("reading {}: {e}", path.display())))
                    }
                }
            }
            Outcome::Failed(msg) => failures.push((id.clone(), msg.clone())),
        }
    }
    if args.markdown {
        print!("{}", to_markdown_doc(&printed));
    }

    if let Some(dir) = &args.out {
        let n_cached = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Cached))
            .count();
        let n_ok = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Fresh(_)))
            .count();
        eprintln!(
            "wrote {n_ok} tables to {} ({n_cached} already complete, skipped)",
            dir.display()
        );
    }
    if !failures.is_empty() {
        for (id, msg) in &failures {
            eprintln!("error: {id}: {msg}");
        }
        eprintln!(
            "{} of {} experiments failed; the rest completed",
            failures.len(),
            specs.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `repro conform`: run the trace-refinement campaign (pass 5).
fn run_conform(args: &Args) -> ExitCode {
    let cargs = bounce_bench::conform::ConformArgs {
        quick: args.quick,
        protocols: args
            .protocol
            .map(|p| vec![p])
            .unwrap_or_else(|| bounce_sim::CoherenceKind::ALL.to_vec()),
        fabric_label: args
            .fabric
            .map(|f| f.label().to_string())
            .unwrap_or_else(|| bounce_bench::conform::DEFAULT_FABRIC.to_string()),
        out: args.out.clone().unwrap_or_else(|| PathBuf::from("results")),
    };
    match bounce_bench::conform::run(&cargs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: conform: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ctx = if args.quick {
        ExpCtx::quick()
    } else {
        ExpCtx::full()
    };
    if let Some(p) = args.protocol {
        ctx = ctx.with_protocol(p);
    }
    if let Some(f) = args.fabric {
        ctx = ctx.with_fabric_faults(f);
    }
    if let Some(r) = args.retry {
        ctx = ctx.with_retry_policy(r);
    }
    ctx = ctx.with_exact(args.exact);
    // `--filter` selects experiments of the `all` campaign; on any other
    // subcommand it used to parse and then be silently ignored.
    if args.filter.is_some() && args.command != "all" {
        eprintln!(
            "error: --filter only applies to 'repro all' (the '{}' command \
             names its work directly and would silently ignore the filter); \
             known experiment ids: {}",
            args.command,
            experiment_ids(ctx).join(", ")
        );
        return ExitCode::FAILURE;
    }
    bounce_harness::set_jobs(args.jobs);
    match args.command.as_str() {
        "help" => {
            eprintln!(
                "usage: repro [predict|fit|validate|conform|sweep|topo|list|lint|all|{}] [--machine e5|knl] [--protocol {}] [--fabric-faults {}] [--retry-policy {}] [--quick] [--exact] [--jobs N] [--markdown] [--plots] [--out DIR] [--resume] [--filter IDS]",
                experiment_ids(ctx).join("|"),
                protocol_names().replace(", ", "|"),
                fabric_names().replace(", ", "|"),
                retry_names().replace(", ", "|")
            );
            ExitCode::SUCCESS
        }
        "validate" => {
            // Campaign-wide model-vs-sim validation: every modeled
            // scenario family runs through both the simulator and the
            // `Predictor` trait, reduced to one MAPE per experiment and
            // serialized to VALIDATION.json (the file CI gates on).
            let report = match bounce_harness::campaign_validation(ctx) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: validate: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for e in &report.entries {
                println!(
                    "{:<4} {:<12} {:<14} MAPE {:>7.2}%   max {:>7.2}%   ({} points)",
                    e.machine,
                    e.experiment,
                    e.metric,
                    e.mape_pct,
                    e.max_ape_pct,
                    e.rows.len()
                );
            }
            eprintln!(
                "validate: {} entries; sim {:.3}s, model {:.6}s over {} predictions",
                report.entries.len(),
                report.sim_seconds,
                report.model_seconds,
                report.model_calls
            );
            let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("results"));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("error: creating {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let path = dir.join("VALIDATION.json");
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        "fit" => {
            use bounce_harness::campaign::{default_cfg, fit_and_validate, TrainSplit};
            let machine = args.machine.unwrap_or(Machine::E5);
            let topo = machine.topo();
            let ns: Vec<usize> = if args.quick {
                vec![2, 4, 8]
            } else {
                machine.sweep_ns(false)
            };
            eprintln!("measuring + fitting on simulated {} ...", topo.name);
            let c = match fit_and_validate(
                &topo,
                args.prim,
                &ns,
                &default_cfg(&topo, if args.quick { 300_000 } else { 2_000_000 }),
                &machine.model_params(),
                TrainSplit::Alternate,
            ) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: fit on {}: {e}", topo.name);
                    return ExitCode::FAILURE;
                }
            };
            let t = &c.fit.params.transfer;
            println!("fitted transfer costs (cycles):");
            println!("  t_smt    = {:.1}", t.smt);
            println!("  t_tile   = {:.1}", t.tile);
            println!("  t_socket = {:.1}", t.socket);
            println!("  t_cross  = {:.1}", t.cross);
            println!(
                "training residual: {:.2}% rms over {} simplex iterations",
                c.fit.rms_rel_error * 100.0,
                c.fit.iterations
            );
            println!(
                "validation: throughput MAPE {:.2}%, latency MAPE {:.2}% over {} points",
                c.throughput_mape(),
                c.latency_mape(),
                c.throughput_rows.len()
            );
            ExitCode::SUCCESS
        }
        "topo" => {
            let machines: Vec<Machine> = match args.machine {
                Some(m) => vec![m],
                None => Machine::ALL.to_vec(),
            };
            for m in machines {
                print!("{}", m.topo().render_ascii());
                println!();
            }
            ExitCode::SUCCESS
        }
        "list" => {
            for id in experiment_ids(ctx) {
                println!("{id}");
            }
            ExitCode::SUCCESS
        }
        "lint" => {
            // Static workload-IR analysis of every registered workload
            // (the same pass the engine runs as a mandatory gate before
            // simulating — see `bounce_sim::analyze`). Catches a broken
            // builder or experiment spec without running a single
            // simulation event.
            let workloads = experiments::registered_workloads();
            let mut results = bounce_verify::lint_workloads(&workloads);
            if results.is_empty() {
                // An empty registry means the gate checked nothing — a
                // refactor that broke workload registration must fail
                // here, not pass vacuously.
                eprintln!("lint: no workloads registered — refusing a vacuous pass");
                return ExitCode::FAILURE;
            }
            if args.bad_ir_selftest {
                // Gate self-test: push a deliberately-malformed IR
                // (dangling `Goto`) through the same reporting path and
                // prove the analyzer error reaches the exit code.
                let diags = bounce_sim::analyze_steps(&[bounce_sim::Step::Goto(7)]);
                results.push(bounce_verify::WorkloadLint {
                    label: "bad-ir-selftest".into(),
                    diagnostics: diags
                        .into_iter()
                        .map(|e| {
                            (
                                1usize,
                                bounce_sim::Diagnostic {
                                    thread: 0,
                                    error: e,
                                },
                            )
                        })
                        .collect(),
                });
            }
            let dirty: Vec<_> = results.iter().filter(|r| !r.is_clean()).collect();
            for r in &results {
                println!("{r}");
            }
            if dirty.is_empty() {
                if args.bad_ir_selftest {
                    eprintln!("lint: bad-IR selftest produced no finding — analyzer is broken");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "lint: {} workloads clean at thread counts {:?}",
                    results.len(),
                    bounce_verify::LINT_THREAD_COUNTS
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "lint: {} of {} workloads failed",
                    dirty.len(),
                    results.len()
                );
                ExitCode::FAILURE
            }
        }
        "predict" => {
            let machine = args.machine.unwrap_or(Machine::E5);
            let topo = machine.topo();
            if args.threads == 0 || args.threads > topo.num_threads() {
                eprintln!(
                    "thread count {} out of range 1..={}",
                    args.threads,
                    topo.num_threads()
                );
                return ExitCode::FAILURE;
            }
            use bounce_core::{Predictor, Scenario};
            let model = machine.model();
            let hw = args.placement.assign(&topo, args.threads);
            let hc = model.predict(&Scenario::high_contention(&hw, args.prim));
            let lc = model.predict(&Scenario::low_contention(args.threads, args.prim, 0.0));
            println!("machine     : {}", topo.name);
            println!(
                "workload    : {} threads ({}), {} on one shared line",
                args.threads,
                args.placement.label(),
                args.prim
            );
            println!(
                "E[t]        : {:.1} cycles (mixture smt/tile/socket/cross = {:.2}/{:.2}/{:.2}/{:.2})",
                hc.expected_transfer_cycles,
                hc.mixture[1],
                hc.mixture[2],
                hc.mixture[3],
                hc.mixture[4]
            );
            println!(
                "HC predict  : {:.2} Mops/s, {:.0} cycles/op, {:.0} nJ/op",
                hc.throughput_ops_per_sec / 1e6,
                hc.latency_cycles,
                hc.energy_per_op_nj
            );
            println!(
                "LC predict  : {:.2} Mops/s, {:.0} cycles/op, {:.0} nJ/op (private lines)",
                lc.throughput_ops_per_sec / 1e6,
                lc.latency_cycles,
                lc.energy_per_op_nj
            );
            if args.prim == bounce_atomics::Primitive::Cas {
                let loop_pred = model.predict(&Scenario::cas_loop(&hw, 30.0));
                println!(
                    "CAS loop    : success rate {:.3}, goodput {:.2} Mops/s (window 30cy)",
                    loop_pred.success_rate().expect("CAS-loop prediction"),
                    loop_pred.throughput_ops_per_sec / 1e6
                );
            }
            ExitCode::SUCCESS
        }
        "sweep" => {
            // Machine-readable counterpart of the TSV tables: a
            // high-contention thread sweep as JSON, carrying the
            // first-class p50/p99 latency percentiles (and honoring
            // --fabric-faults / --retry-policy), for downstream tooling.
            let machine = args.machine.unwrap_or(Machine::E5);
            match experiments::sweep_json(ctx, machine, args.prim) {
                Ok(json) => {
                    print!("{json}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: sweep: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "conform" => run_conform(&args),
        "all" => run_all(&args, ctx),
        id => run_experiment(&args, ctx, id),
    }
}
