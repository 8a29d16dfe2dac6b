//! Determinism lint: a lexical scan of simulator sources for
//! constructs that break run-to-run reproducibility.
//!
//! The simulator's contract is that a `(workload, config, seed)` triple
//! always produces the same report. Three construct families silently
//! break that:
//!
//! * **wall-clock reads** — `std::time::Instant` / `SystemTime` leaking
//!   into simulated time or seeds;
//! * **unordered-container iteration** — `HashMap` / `HashSet` visit
//!   order varies per process (`RandomState`), so any fold over it that
//!   reaches simulation state or output is nondeterministic;
//! * **ambient RNG** — `thread_rng()` draws from OS entropy instead of
//!   the run's seed.
//!
//! The issue brief suggested a `syn`-based pass, but `syn` is not among
//! the vendored dependencies and this environment cannot add crates, so
//! the scanner is *lexical*: it strips comments, string literals and
//! char literals (so prose and test fixtures can mention the banned
//! names), then matches identifier tokens at word boundaries. For
//! hash-container *iteration* — construction and keyed access are fine
//! and used deliberately (e.g. the directory's line-intern table) — it
//! tracks which local names are bound to `HashMap`/`HashSet` values and
//! flags iteration-shaped uses of those names plus direct
//! `.iter()`/`.keys()`/… chained on constructor calls.
//!
//! A deliberate use is waived by putting `detlint: allow(<rule>)` in a
//! comment on the same line, e.g.
//! `for (k, v) in map.iter() { // detlint: allow(hash-iteration): folded with a commutative op`.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `Instant` / `SystemTime`: wall-clock time in simulator code.
    WallClock,
    /// Iterating a `HashMap` / `HashSet` (unordered; order varies per
    /// process).
    HashIteration,
    /// `thread_rng` / `from_entropy`: RNG not derived from the run seed.
    AmbientRng,
    /// Constructing a `std::sync::atomic::Atomic*` directly inside
    /// `crates/atomics` instead of going through the `cell` shim —
    /// such a cell is invisible to the schedcheck model checker.
    /// Only construction is flagged; taking `&AtomicU64` etc. as a
    /// parameter (the native measurement face) stays legal.
    DirectAtomic,
    /// Mutating directory or line state inside `sim/src/engine/`
    /// outside the probe-instrumented transition helpers — such a
    /// mutation would be invisible to the conformance trace (pass 5),
    /// silently weakening the refinement proof.
    ConformBypass,
}

impl Rule {
    /// The waiver tag accepted in `detlint: allow(<tag>)` comments.
    pub fn tag(&self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashIteration => "hash-iteration",
            Rule::AmbientRng => "ambient-rng",
            Rule::DirectAtomic => "direct-atomic",
            Rule::ConformBypass => "conform-bypass",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One determinism-lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in (as given to the scanner).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Replace comments, string literals and char literals with spaces,
/// preserving line structure, and collect per-line waiver tags from
/// `detlint: allow(<tag>)` comments.
fn strip(source: &str) -> (String, Vec<(usize, String)>) {
    let b = source.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut waivers = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    // Scan a comment's text for waiver tags before blanking it.
    let note_waivers = |text: &str, line: usize, waivers: &mut Vec<(usize, String)>| {
        let mut rest = text;
        while let Some(p) = rest.find("detlint: allow(") {
            let after = &rest[p + "detlint: allow(".len()..];
            if let Some(close) = after.find(')') {
                waivers.push((line, after[..close].trim().to_string()));
                rest = &after[close..];
            } else {
                break;
            }
        }
    };
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            out.push(b'\n');
            line += 1;
            i += 1;
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = source[i..].find('\n').map(|p| i + p).unwrap_or(b.len());
            note_waivers(&source[i..end], line, &mut waivers);
            out.extend(std::iter::repeat_n(b' ', end - i));
            i = end;
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            // Block comment; handles nesting like rustc.
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            note_waivers(&source[start..i], start_line, &mut waivers);
            for &bb in &b[start..i] {
                out.push(if bb == b'\n' { b'\n' } else { b' ' });
            }
        } else if c == b'"' {
            out.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    out.extend([b' ', b' ']);
                    i += 2;
                } else if b[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                } else {
                    out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        } else if c == b'r' && i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') {
            // Raw string r"..." / r#"..."# (any hash count).
            let mut j = i + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                j += 1;
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                let end = b[j..]
                    .windows(closer.len().max(1))
                    .position(|w| w == closer.as_slice())
                    .map(|p| j + p + closer.len())
                    .unwrap_or(b.len());
                for &bb in &b[i..end] {
                    out.push(if bb == b'\n' { b'\n' } else { b' ' });
                    if bb == b'\n' {
                        line += 1;
                    }
                }
                i = end;
            } else {
                out.push(c);
                i += 1;
            }
        } else if c == b'\''
            && i + 1 < b.len()
            && !b[i + 1].is_ascii_alphabetic()
            && b[i + 1] != b'_'
        {
            // Char literal (not a lifetime): '<something>' with escapes.
            out.push(b' ');
            i += 1;
            while i < b.len() && b[i] != b'\'' {
                if b[i] == b'\\' {
                    i += 1;
                }
                out.push(b' ');
                i += 1;
            }
            if i < b.len() {
                out.push(b' ');
                i += 1;
            }
        } else if c == b'\'' && i + 2 < b.len() && b[i + 2] == b'\'' {
            // Single-char literal like 'a'.
            out.extend([b' ', b' ', b' ']);
            i += 3;
        } else {
            out.push(c);
            i += 1;
        }
    }
    (
        String::from_utf8(out).expect("spaces preserve UTF-8"),
        waivers,
    )
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// All `(line, start-offset)` word-boundary occurrences of `word` in
/// the stripped source.
fn word_hits(stripped: &str, word: &str) -> Vec<(usize, usize)> {
    let b = stripped.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(p) = stripped[from..].find(word) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident_byte(b[at - 1]);
        let end = at + word.len();
        let after_ok = end >= b.len() || !is_ident_byte(b[end]);
        if before_ok && after_ok {
            let line = 1 + stripped[..at].bytes().filter(|&c| c == b'\n').count();
            hits.push((line, at));
        }
        from = at + word.len();
    }
    hits
}

/// Identifier tokens of a stripped line, in order.
fn idents(line: &str) -> Vec<&str> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident_byte(b[i]) && !b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            out.push(&line[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// The `std::sync::atomic` type names whose direct construction the
/// [`Rule::DirectAtomic`] rule flags.
const STD_ATOMICS: [&str; 12] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Directory/line-state mutators whose call sites the
/// [`Rule::ConformBypass`] rule restricts to the instrumented
/// transition helpers. `entry_at` hands out a `&mut` directory entry;
/// the rest mutate L1 line state (`upgrade_at` is the hit path's
/// in-place E→M write upgrade) or the sharer/owner book-keeping.
const CONFORM_MUTATORS: [&str; 7] = [
    "entry_at",
    "evict_owner",
    "evict_sharer",
    "set_state",
    "upgrade_at",
    "invalidate",
    "install",
];

/// The probe-instrumented engine functions, which bracket their
/// mutations with probe hooks (pre-snapshot before, event after). Only
/// these may call a [`CONFORM_MUTATORS`] method; anywhere else the
/// mutation would be invisible to the refinement trace.
const CONFORM_INSTRUMENTED: [&str; 7] = [
    "dir_arrival",
    "fabric_admit",
    "pump",
    "depart_line",
    "service_done",
    "install",
    "issue_op",
];

/// Per-scan options: which optional rules are active.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Enable [`Rule::DirectAtomic`]. Meant for `crates/atomics`;
    /// `cell.rs` (the shim's production substrate, the one legitimate
    /// constructor) is exempted by file name.
    pub direct_atomic: bool,
    /// Enable [`Rule::ConformBypass`]. Meant for `sim/src/engine/`;
    /// `tests.rs` files are exempted by name (test scaffolding pokes
    /// state deliberately and never runs under the recorder probe).
    pub conform_bypass: bool,
}

/// Scan one file's source text with the default rule set. `path` is
/// used only for labeling findings.
pub fn scan_file(path: &Path, source: &str) -> Vec<Finding> {
    scan_file_opts(path, source, Options::default())
}

/// Scan one file's source text under `opts`.
pub fn scan_file_opts(path: &Path, source: &str, opts: Options) -> Vec<Finding> {
    let (stripped, waivers) = strip(source);
    let waived = |line: usize, rule: Rule| {
        waivers
            .iter()
            .any(|(l, tag)| *l == line && tag == rule.tag())
    };
    let mut findings = Vec::new();
    let mut push = |line: usize, rule: Rule, message: String| {
        if !waived(line, rule) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line,
                rule,
                message,
            });
        }
    };

    // --- wall-clock and ambient RNG: any mention is a finding ---
    for name in ["Instant", "SystemTime"] {
        for (line, _) in word_hits(&stripped, name) {
            push(
                line,
                Rule::WallClock,
                format!(
                    "`{name}` in simulator code: simulated time must come from the event clock"
                ),
            );
        }
    }
    for name in ["thread_rng", "from_entropy"] {
        for (line, _) in word_hits(&stripped, name) {
            push(
                line,
                Rule::AmbientRng,
                format!("`{name}`: randomness must be derived from the run seed"),
            );
        }
    }

    // --- direct std atomic construction (crates/atomics only) ---
    if opts.direct_atomic && path.file_name().is_none_or(|f| f != "cell.rs") {
        for name in STD_ATOMICS {
            for (line, at) in word_hits(&stripped, name) {
                let after = &stripped[at + name.len()..];
                if after.trim_start().starts_with("::new") {
                    push(
                        line,
                        Rule::DirectAtomic,
                        format!(
                            "`{name}::new` outside cell.rs: construct atomics through the \
                             `cell` shim so schedcheck can model them"
                        ),
                    );
                }
            }
        }
    }

    // --- probe bypass (sim/src/engine only) ---
    if opts.conform_bypass && path.file_name().is_none_or(|f| f != "tests.rs") {
        // Track the enclosing function lexically: the scanner has no
        // AST, but `fn name` lines are unambiguous after stripping.
        let mut current_fn = String::new();
        for (lineno, l) in stripped.lines().enumerate() {
            let lineno = lineno + 1;
            let toks = idents(l);
            for (i, t) in toks.iter().enumerate() {
                if *t == "fn" && i + 1 < toks.len() {
                    current_fn = toks[i + 1].to_string();
                }
            }
            for (i, t) in toks.iter().enumerate() {
                if !CONFORM_MUTATORS.contains(t) {
                    continue;
                }
                // Only call-shaped uses: `name(`. Skips the mutator's
                // own `fn install(` definition (preceded by `fn`) and
                // mentions in paths or patterns.
                if i > 0 && toks[i - 1] == "fn" {
                    continue;
                }
                let Some(at) = l
                    .find(&format!("{t}("))
                    .or_else(|| l.find(&format!("{t} (")))
                else {
                    continue;
                };
                // Word boundary on the left of the located occurrence.
                if at > 0 && is_ident_byte(l.as_bytes()[at - 1]) {
                    continue;
                }
                if !CONFORM_INSTRUMENTED.contains(&current_fn.as_str()) {
                    push(
                        lineno,
                        Rule::ConformBypass,
                        format!(
                            "`{t}` mutates coherence state inside `{}`, which is not a \
                             probe-instrumented transition helper — the conformance \
                             trace (pass 5) would miss this step",
                            if current_fn.is_empty() {
                                "<module scope>"
                            } else {
                                current_fn.as_str()
                            }
                        ),
                    );
                }
            }
        }
    }

    // --- hash-container iteration ---
    // Pass 1: names bound or typed as HashMap/HashSet anywhere in the
    // file (let bindings, struct fields, fn params — all look like
    // `name ... : ... Hash{Map,Set}` or `name = Hash{Map,Set}::new()`
    // within one logical neighborhood; a name-level over-approximation
    // is fine at this codebase's size and keeps the scanner simple).
    let mut hash_names: HashSet<String> = HashSet::new();
    for l in stripped.lines() {
        if !(l.contains("HashMap") || l.contains("HashSet")) {
            continue;
        }
        let toks = idents(l);
        for (i, t) in toks.iter().enumerate() {
            if (*t == "HashMap" || *t == "HashSet") && i > 0 {
                // The nearest preceding non-keyword identifier is the
                // bound/typed name: `let counts: HashMap<..>`,
                // `counts = HashMap::new()`, `pub index: HashMap<..>`.
                for cand in toks[..i].iter().rev() {
                    if ![
                        "let",
                        "mut",
                        "pub",
                        "crate",
                        "super",
                        "self",
                        "std",
                        "collections",
                        "static",
                        "const",
                        "ref",
                        "box",
                        "dyn",
                        "in",
                    ]
                    .contains(cand)
                    {
                        hash_names.insert((*cand).to_string());
                        break;
                    }
                }
            }
        }
    }
    // Pass 2: iteration-shaped uses. Direct chains on constructors are
    // caught textually; name-based uses via the collected set.
    for (lineno, l) in stripped.lines().enumerate() {
        let lineno = lineno + 1;
        let toks = idents(l);
        for (i, t) in toks.iter().enumerate() {
            let is_iter_method = ITER_METHODS.contains(t);
            if is_iter_method && i > 0 {
                let recv = toks[i - 1];
                let flagged = recv == "HashMap" || recv == "HashSet" || hash_names.contains(recv);
                // `for x in map` (no explicit method) is handled below.
                if flagged && l.contains(&format!(".{t}")) {
                    push(
                        lineno,
                        Rule::HashIteration,
                        format!(
                            "iteration over hash container `{recv}.{t}()`: visit order \
                             is unordered — use a BTree container or sort first"
                        ),
                    );
                }
            }
            // `for pat in name` / `for pat in &name`.
            if *t == "in" && i + 1 < toks.len() && toks[..i].first() == Some(&"for") {
                let target = toks[i + 1];
                let has_method = toks
                    .get(i + 2)
                    .map(|m| ITER_METHODS.contains(m))
                    .unwrap_or(false);
                if hash_names.contains(target) && !has_method {
                    push(
                        lineno,
                        Rule::HashIteration,
                        format!(
                            "`for .. in {target}` iterates a hash container: visit order \
                             is unordered — use a BTree container or sort first"
                        ),
                    );
                }
            }
        }
    }
    findings
}

/// Recursively scan every `*.rs` file under `roots` with the default
/// rule set, in sorted path order. I/O errors surface as `Err`.
pub fn scan_tree(roots: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    scan_tree_opts(roots, Options::default())
}

/// Recursively scan every `*.rs` file under `roots` under `opts`, in
/// sorted path order. I/O errors surface as `Err`.
pub fn scan_tree_opts(roots: &[PathBuf], opts: Options) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs(root, &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for f in files {
        let source = std::fs::read_to_string(&f)?;
        findings.extend(scan_file_opts(&f, &source, opts));
    }
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_file(Path::new("test.rs"), src)
    }

    #[test]
    fn flags_wall_clock_and_rng() {
        let f = scan("fn f() { let t = Instant::now(); let r = thread_rng(); }");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[1].rule, Rule::AmbientRng);
    }

    #[test]
    fn comments_and_strings_are_ignored() {
        let f = scan(
            "// Instant is fine in prose\n\
             /* SystemTime too */\n\
             fn f() { let s = \"thread_rng\"; let c = 'I'; }\n\
             fn g() { let r = r#\"Instant\"#; }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn word_boundaries_respected() {
        // `InstantReplay` and `my_thread_rng_helper` are different
        // identifiers.
        let f = scan("struct InstantReplay; fn my_thread_rng_helper() {}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_hash_iteration_via_binding() {
        let src = "\
            use std::collections::HashMap;\n\
            fn f() {\n\
                let mut counts: HashMap<u32, u32> = HashMap::new();\n\
                for (k, v) in counts.iter() { }\n\
            }\n";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HashIteration);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn flags_bare_for_loop_over_hash_binding() {
        let src = "\
            fn f() {\n\
                let seen = std::collections::HashSet::new();\n\
                for x in &seen { }\n\
            }\n";
        let f = scan(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HashIteration);
    }

    #[test]
    fn keyed_access_is_fine() {
        let src = "\
            fn f() {\n\
                let mut m = std::collections::HashMap::new();\n\
                m.insert(1, 2);\n\
                let v = m.get(&1);\n\
                let n = m.len();\n\
            }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn waiver_comment_suppresses() {
        let src = "\
            fn f() {\n\
                let m = std::collections::HashMap::new();\n\
                for k in m.keys() { } // detlint: allow(hash-iteration): summed commutatively\n\
                let t = Instant::now(); // detlint: allow(wall-clock)\n\
            }\n";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn waiver_only_matches_its_rule() {
        let src = "let t = Instant::now(); // detlint: allow(hash-iteration)\n";
        let f = scan(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
    }

    #[test]
    fn btree_iteration_is_fine() {
        let src = "\
            fn f() {\n\
                let m = std::collections::BTreeMap::new();\n\
                for (k, v) in m.iter() { }\n\
            }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn flags_direct_atomic_construction() {
        let opts = Options {
            direct_atomic: true,
            ..Options::default()
        };
        let src = "fn f() { let c = AtomicU64::new(0); }\n";
        let f = scan_file_opts(Path::new("locks.rs"), src, opts);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::DirectAtomic);
        // Off by default.
        assert!(scan_file(Path::new("locks.rs"), src).is_empty());
    }

    #[test]
    fn atomic_references_and_paths_stay_legal() {
        let opts = Options {
            direct_atomic: true,
            ..Options::default()
        };
        // Taking a reference, naming the type, and loading through it
        // are all fine — only `::new` construction is flagged.
        let src = "\
            use std::sync::atomic::{AtomicU64, Ordering};\n\
            fn g(cell: &AtomicU64) -> u64 { cell.load(Ordering::SeqCst) }\n";
        assert!(scan_file_opts(Path::new("primitive.rs"), src, opts).is_empty());
    }

    #[test]
    fn cell_rs_is_exempt_from_direct_atomic() {
        let opts = Options {
            direct_atomic: true,
            ..Options::default()
        };
        let src = "fn f() { let c = AtomicBool::new(false); }\n";
        assert!(scan_file_opts(Path::new("cell.rs"), src, opts).is_empty());
        assert!(scan_file_opts(Path::new("/x/atomics/src/cell.rs"), src, opts).is_empty());
    }

    #[test]
    fn direct_atomic_waiver_suppresses() {
        let opts = Options {
            direct_atomic: true,
            ..Options::default()
        };
        let src =
            "let stop = AtomicBool::new(false); // detlint: allow(direct-atomic): test-only\n";
        assert!(scan_file_opts(Path::new("seqlock.rs"), src, opts).is_empty());
    }

    #[test]
    fn flags_conform_bypass_outside_instrumented_helpers() {
        let opts = Options {
            conform_bypass: true,
            ..Options::default()
        };
        let src = "\
            impl Engine {\n\
                fn sneaky_fixup(&mut self, idx: u32) {\n\
                    self.dir.entry_at(idx).owner = None;\n\
                    self.caches[0].set_state(line, LineState::Shared);\n\
                }\n\
            }\n";
        let f = scan_file_opts(Path::new("service.rs"), src, opts);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::ConformBypass));
        assert!(f[0].message.contains("sneaky_fixup"));
        // Off by default.
        assert!(scan_file(Path::new("service.rs"), src).is_empty());
    }

    #[test]
    fn flags_in_place_upgrade_outside_issue_op() {
        let opts = Options {
            conform_bypass: true,
            ..Options::default()
        };
        let src = "\
            impl Engine {\n\
                fn issue_op(&mut self, core: usize) {\n\
                    self.caches[core].upgrade_at(slot);\n\
                }\n\
                fn quiet_upgrade(&mut self, core: usize) {\n\
                    self.caches[core].upgrade_at(slot);\n\
                }\n\
            }\n";
        let f = scan_file_opts(Path::new("interp.rs"), src, opts);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (Rule::ConformBypass, 6));
        assert!(f[0].message.contains("`upgrade_at`") && f[0].message.contains("quiet_upgrade"));
    }

    #[test]
    fn conform_mutations_inside_instrumented_helpers_are_legal() {
        let opts = Options {
            conform_bypass: true,
            ..Options::default()
        };
        let src = "\
            impl Engine {\n\
                fn depart_line(&mut self, idx: u32) {\n\
                    self.caches[0].invalidate(line);\n\
                    self.dir.entry_at(idx).sharers.clear();\n\
                }\n\
                fn install(&mut self, core: usize) {\n\
                    self.dir.evict_owner(evicted, core);\n\
                }\n\
            }\n";
        assert!(scan_file_opts(Path::new("service.rs"), src, opts).is_empty());
    }

    #[test]
    fn conform_bypass_waiver_and_tests_rs_exemption() {
        let opts = Options {
            conform_bypass: true,
            ..Options::default()
        };
        let waived = "fn helper(&mut self) { self.caches[0].invalidate(line); } \
                      // detlint: allow(conform-bypass): rollback path, replayed separately\n";
        assert!(scan_file_opts(Path::new("service.rs"), waived, opts).is_empty());
        let bare = "fn helper(&mut self) { self.caches[0].invalidate(line); }\n";
        assert!(scan_file_opts(Path::new("tests.rs"), bare, opts).is_empty());
        assert_eq!(scan_file_opts(Path::new("service.rs"), bare, opts).len(), 1);
    }

    #[test]
    fn conform_bypass_ignores_definitions_and_non_calls() {
        let opts = Options {
            conform_bypass: true,
            ..Options::default()
        };
        // The definition line of an instrumented helper and a bare
        // mention without a call are not mutations.
        let src = "\
            fn install(&mut self, core: usize, line: LineId, state: LineState) {\n\
            }\n\
            fn other(&self) { let name = install_cost; }\n";
        assert!(scan_file_opts(Path::new("service.rs"), src, opts).is_empty());
    }

    #[test]
    fn engine_sources_have_no_conform_bypass() {
        // Mirrors the CI gate: every directory/line-state mutation in
        // the engine happens inside a probe-instrumented transition
        // helper, so the conformance trace sees every step.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = here
            .parent()
            .unwrap()
            .join("sim")
            .join("src")
            .join("engine");
        let findings = scan_tree_opts(
            &[root],
            Options {
                conform_bypass: true,
                ..Options::default()
            },
        )
        .expect("scan engine sources");
        assert!(
            findings.is_empty(),
            "conform-bypass findings:\n{}",
            findings
                .iter()
                .map(|f| format!("  {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn atomics_sources_are_clean_of_direct_construction() {
        // Mirrors the CI gate: every atomic cell in `crates/atomics`
        // goes through the `cell` shim (or carries an explicit
        // waiver), so schedcheck's shadow substrate sees them all.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = here.parent().unwrap().join("atomics").join("src");
        let findings = scan_tree_opts(
            &[root],
            Options {
                direct_atomic: true,
                ..Options::default()
            },
        )
        .expect("scan atomics sources");
        assert!(
            findings.is_empty(),
            "direct-atomic findings:\n{}",
            findings
                .iter()
                .map(|f| format!("  {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn simulator_sources_are_clean() {
        // The real gate lives in the `detlint` binary and CI; this test
        // keeps the guarantee local to `cargo test`.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let roots: Vec<PathBuf> = ["sim", "core", "topo"]
            .iter()
            .map(|c| here.parent().unwrap().join(c).join("src"))
            .collect();
        let findings = scan_tree(&roots).expect("scan simulator sources");
        assert!(
            findings.is_empty(),
            "determinism lint findings:\n{}",
            findings
                .iter()
                .map(|f| format!("  {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
