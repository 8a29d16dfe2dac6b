//! Determinism lint over the simulator sources.
//!
//! Scans `crates/{sim,core,topo}/src` for wall-clock reads,
//! hash-container iteration and ambient RNG, `crates/atomics/src` for
//! direct `std::sync::atomic` construction that bypasses the `cell`
//! shim (and so escapes the schedcheck model checker), and
//! `crates/sim/src/engine` for coherence-state mutation outside the
//! probe-instrumented transition helpers (which would
//! escape the pass-5 refinement trace) — see
//! [`bounce_verify::detlint`]. Exits nonzero when any finding survives
//! the waiver comments.
//!
//! ```text
//! cargo run -p bounce-verify --bin detlint
//! cargo run -p bounce-verify --bin detlint -- crates/sim/src
//! cargo run -p bounce-verify --bin detlint -- --direct-atomic crates/atomics/src
//! cargo run -p bounce-verify --bin detlint -- --conform-bypass crates/sim/src/engine
//! ```

use bounce_verify::detlint::{scan_tree, scan_tree_opts, Options};
use std::path::PathBuf;

fn main() {
    let mut direct_atomic = false;
    let mut conform_bypass = false;
    let mut args: Vec<PathBuf> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--direct-atomic" => direct_atomic = true,
            "--conform-bypass" => conform_bypass = true,
            other => args.push(PathBuf::from(other)),
        }
    }
    let mut trees = 0usize;
    let mut findings = Vec::new();
    let scanned = if args.is_empty() {
        let ws = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("verify crate lives under crates/")
            .to_path_buf();
        // The crates whose behavior feeds simulation results get the
        // determinism rules; the atomics crate gets the shim rule; the
        // engine tree additionally gets the probe-bypass rule.
        let sim_roots: Vec<PathBuf> = ["sim", "core", "topo"]
            .iter()
            .map(|c| ws.join(c).join("src"))
            .collect();
        trees += sim_roots.len() + 2;
        scan_tree(&sim_roots)
            .and_then(|mut f| {
                let atomics = [ws.join("atomics").join("src")];
                let opts = Options {
                    direct_atomic: true,
                    ..Options::default()
                };
                scan_tree_opts(&atomics, opts).map(|g| {
                    f.extend(g);
                    f
                })
            })
            .and_then(|mut f| {
                let engine = [ws.join("sim").join("src").join("engine")];
                let opts = Options {
                    conform_bypass: true,
                    ..Options::default()
                };
                scan_tree_opts(&engine, opts).map(|g| {
                    // The determinism rules already ran over this tree
                    // via `sim_roots`; keep only the bypass findings.
                    f.extend(
                        g.into_iter()
                            .filter(|x| x.rule == bounce_verify::Rule::ConformBypass),
                    );
                    f
                })
            })
    } else {
        trees += args.len();
        scan_tree_opts(
            &args,
            Options {
                direct_atomic,
                conform_bypass,
            },
        )
    };
    match scanned {
        Ok(f) => findings.extend(f),
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            std::process::exit(2);
        }
    }
    if findings.is_empty() {
        println!(
            "detlint: {trees} tree(s) clean (no wall-clock, hash-iteration, ambient-RNG, \
             shim-bypassing atomic or probe-bypassing mutation)"
        );
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("detlint: {} finding(s)", findings.len());
        std::process::exit(1);
    }
}
