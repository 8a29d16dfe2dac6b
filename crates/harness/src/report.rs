//! Plain-text tables: the output format of every reproduced table and
//! figure (TSV for plotting, markdown for reading).

use std::fmt::Write as _;

/// A titled table of strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Title (e.g. `"Fig 1 (E3): HC throughput vs threads — Xeon E5"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must match `headers.len()`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header count.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity {} != header arity {} in '{}'",
            row.len(),
            self.headers.len(),
            self.title
        );
        self.rows.push(row);
    }

    /// Tab-separated rendering (header line prefixed with `#`).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.headers.join("\t"));
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.join("\t"));
        }
        out
    }

    /// GitHub-flavoured markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }

    /// Column index by header name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == name)
    }

    /// Parse a column as f64 (unparseable cells become NaN).
    pub fn column_f64(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.column(name)?;
        Some(
            self.rows
                .iter()
                .map(|r| r[idx].parse::<f64>().unwrap_or(f64::NAN))
                .collect(),
        )
    }
}

/// Format a float compactly for tables: large values in engineering
/// style, small ones with limited decimals.
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 {
        format!("{:.3e}", v)
    } else if v.abs() >= 100.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.3}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_and_markdown_shapes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["3".into(), "4".into()]);
        let tsv = t.to_tsv();
        assert!(tsv.starts_with("# demo\n"));
        assert!(tsv.contains("a\tb"));
        assert!(tsv.contains("3\t4"));
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn column_lookup_and_parse() {
        let mut t = Table::new("demo", &["n", "x"]);
        t.push(vec!["1".into(), "10.5".into()]);
        t.push(vec!["2".into(), "oops".into()]);
        assert_eq!(t.column("x"), Some(1));
        assert_eq!(t.column("zzz"), None);
        let xs = t.column_f64("x").unwrap();
        assert_eq!(xs[0], 10.5);
        assert!(xs[1].is_nan());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12.3456), "12.346");
        assert_eq!(fmt_f64(1234.5), "1234.5");
        assert!(fmt_f64(1.23e9).contains('e'));
    }
}
