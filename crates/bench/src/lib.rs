//! Benchmark support: shared helpers for the Criterion benches and the
//! `repro` binary that regenerates every table and figure of the
//! evaluation.

#![warn(missing_docs)]

pub mod conform;
pub mod manifest;

use bounce_harness::report::Table;
use manifest::{fnv1a_hex, FileRecord};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Write a table as TSV under `dir/<id>.tsv`, creating the directory.
pub fn write_tsv(dir: &Path, id: &str, table: &Table) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut f = fs::File::create(dir.join(format!("{id}.tsv")))?;
    f.write_all(table.to_tsv().as_bytes())
}

/// Emit a gnuplot script that plots a TSV written by [`write_tsv`]:
/// first column on the x axis, every numeric column as a series, PNG
/// output next to the data.
pub fn gnuplot_script(id: &str, table: &Table) -> String {
    let mut s = String::new();
    s.push_str("set terminal pngcairo size 900,540 enhanced\n");
    s.push_str(&format!("set output '{id}.png'\n"));
    s.push_str(&format!(
        "set title \"{}\" noenhanced\n",
        table.title.replace('"', "'")
    ));
    s.push_str(&format!(
        "set xlabel '{}'\nset key outside right\nset grid\n",
        table.headers.first().map(String::as_str).unwrap_or("x")
    ));
    s.push_str("set datafile commentschars '#'\n");
    let mut plots = Vec::new();
    for (i, h) in table.headers.iter().enumerate().skip(1) {
        // Plot only columns whose first row parses as a number.
        let numeric = table
            .rows
            .first()
            .map(|r| r[i].parse::<f64>().is_ok())
            .unwrap_or(false);
        if numeric {
            plots.push(format!(
                "'{id}.tsv' using 1:{} skip 1 with linespoints title '{}' noenhanced",
                i + 1,
                h.replace('\'', "")
            ));
        }
    }
    if plots.is_empty() {
        s.push_str("# no numeric series to plot\n");
    } else {
        s.push_str(&format!("plot {}\n", plots.join(", \\\n     ")));
    }
    s
}

/// Write a table's TSV *and* its gnuplot script under `dir`.
pub fn write_tsv_with_plot(dir: &Path, id: &str, table: &Table) -> std::io::Result<()> {
    write_tsv(dir, id, table)?;
    let mut f = fs::File::create(dir.join(format!("{id}.gp")))?;
    f.write_all(gnuplot_script(id, table).as_bytes())
}

/// Write all output files of one experiment (TSV, plus the gnuplot
/// script when `plots` is set) and return manifest records describing
/// them. All file writes in the `repro` binary funnel through here, so
/// there is exactly one failure path and the error names the file that
/// could not be written.
pub fn write_table_outputs(
    dir: &Path,
    id: &str,
    table: &Table,
    plots: bool,
) -> Result<Vec<FileRecord>, String> {
    let mut outputs = vec![(format!("{id}.tsv"), table.to_tsv())];
    if plots {
        outputs.push((format!("{id}.gp"), gnuplot_script(id, table)));
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut records = Vec::with_capacity(outputs.len());
    for (name, content) in outputs {
        let path = dir.join(&name);
        fs::write(&path, content.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        records.push(FileRecord {
            path: name,
            hash: fnv1a_hex(content.as_bytes()),
        });
    }
    Ok(records)
}

/// Render a list of experiment tables as one markdown document.
pub fn to_markdown_doc(tables: &[(String, Table)]) -> String {
    let mut out = String::from("# Reproduced tables and figures\n\n");
    for (id, t) in tables {
        out.push_str(&format!("<!-- id: {id} -->\n"));
        out.push_str(&t.to_markdown());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_roundtrip_via_disk() {
        let mut t = Table::new("t", &["a"]);
        t.push(vec!["1".into()]);
        let dir = std::env::temp_dir().join("bounce-bench-test");
        write_tsv(&dir, "demo", &t).unwrap();
        let content = std::fs::read_to_string(dir.join("demo.tsv")).unwrap();
        assert!(content.contains("# t"));
        assert!(content.contains('1'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gnuplot_script_plots_numeric_columns_only() {
        let mut t = Table::new("demo title", &["n", "x_mops", "label"]);
        t.push(vec!["1".into(), "10.5".into(), "abc".into()]);
        let gp = gnuplot_script("fig1-e5", &t);
        assert!(gp.contains("set output 'fig1-e5.png'"));
        assert!(gp.contains("using 1:2"), "numeric column plotted");
        assert!(!gp.contains("using 1:3"), "text column skipped");
        assert!(gp.contains("demo title"));
    }

    #[test]
    fn gnuplot_script_empty_table() {
        let t = Table::new("empty", &["n", "x"]);
        let gp = gnuplot_script("empty", &t);
        assert!(gp.contains("no numeric series"));
    }

    #[test]
    fn write_tsv_with_plot_creates_both_files() {
        let mut t = Table::new("t", &["n", "v"]);
        t.push(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("bounce-bench-plot-test");
        write_tsv_with_plot(&dir, "demo", &t).unwrap();
        assert!(dir.join("demo.tsv").exists());
        assert!(dir.join("demo.gp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_table_outputs_records_match_disk() {
        let mut t = Table::new("t", &["n", "v"]);
        t.push(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("bounce-bench-outputs-test");
        let _ = std::fs::remove_dir_all(&dir);
        let recs = write_table_outputs(&dir, "demo", &t, true).unwrap();
        assert_eq!(recs.len(), 2, "tsv + gnuplot script");
        for r in &recs {
            let bytes = std::fs::read(dir.join(&r.path)).unwrap();
            assert_eq!(fnv1a_hex(&bytes), r.hash, "hash of {}", r.path);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_table_outputs_error_names_file() {
        let t = Table::new("t", &["a"]);
        // A path under an existing *file* cannot be created as a dir.
        let blocker = std::env::temp_dir().join("bounce-bench-blocker");
        std::fs::write(&blocker, b"file").unwrap();
        let err = write_table_outputs(&blocker.join("sub"), "demo", &t, false).unwrap_err();
        assert!(
            err.contains("bounce-bench-blocker"),
            "error names path: {err}"
        );
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn markdown_doc_contains_all_ids() {
        let mut t = Table::new("t", &["a"]);
        t.push(vec!["1".into()]);
        let doc = to_markdown_doc(&[("x1".into(), t.clone()), ("x2".into(), t)]);
        assert!(doc.contains("id: x1") && doc.contains("id: x2"));
    }
}
