//! Integration tests for the experiment-id surface of the `repro`
//! binary: `repro list`, `repro <id> [--machine m]` and the unknown-id
//! errors all derive from the one experiment registry
//! (`experiments::experiment_specs`).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn list_prints_every_experiment_id_in_registry_order() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let ids: Vec<String> = stdout(&out).lines().map(str::to_string).collect();
    assert_eq!(
        ids,
        [
            "table1",
            "table2",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "e13",
            "e14",
            "e15",
            "ablations",
            "sensitivity",
            "latency-hist",
        ]
    );
}

#[test]
fn single_experiment_matches_the_filtered_campaign() {
    let one = repro(&[
        "fig3",
        "--machine",
        "e5",
        "--quick",
        "--exact",
        "--jobs",
        "1",
    ]);
    let filtered = repro(&[
        "all", "--quick", "--exact", "--jobs", "1", "--filter", "fig3-e5",
    ]);
    assert!(one.status.success() && filtered.status.success());
    assert!(stdout(&one).contains("Fig 3"), "{}", stdout(&one));
    assert_eq!(stdout(&one), stdout(&filtered));
}

#[test]
fn machine_independent_table_runs_once() {
    let out = repro(&["table1", "--machine", "knl"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).matches("Table 1 (E1)").count(), 1);
}

#[test]
fn unknown_ids_exit_1_and_list_the_known_ids() {
    for args in [&["nosuch"][..], &["all", "--filter", "nosuch"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "repro {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("nosuch"), "repro {args:?}: {err}");
        assert!(err.contains("latency-hist"), "repro {args:?}: {err}");
    }
}
