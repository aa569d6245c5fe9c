//! Repo automation. `cargo run -p xtask -- lint` enforces five rules
//! on the protocol hot paths (the NI communication layer and the SVM
//! protocol engines):
//!
//! 1. **No wildcard `_ =>` arms.** Protocol message and upcall enums
//!    grow; a wildcard arm silently swallows a new variant instead of
//!    failing the build where the handler must be written.
//! 2. **No bare `.unwrap()`.** Protocol code runs inside the fault and
//!    sync engines where a panic wedges the whole simulated node;
//!    fallible lookups must surface a typed error (`.expect(..)` with
//!    a stated invariant is allowed).
//! 3. **No `allow(clippy::large_enum_variant)`.** Event and message
//!    enums are moved by value through the queue and the NI stages; one
//!    wide variant widens every value (a never-built batch variant once
//!    made each queued event 376 bytes instead of 112). Clippy's
//!    200-byte threshold stays armed: box the wide variant. No waiver.
//! 4. **No file over [`MAX_FILE_LINES`] lines.** The protocol engine
//!    was once two 1200- and 1450-line files that each mixed four
//!    mechanisms; a file that outgrows the limit is split by mechanism.
//!    No waiver.
//! 5. **No map or set keyed by `PageId`.** Page ids are dense: per-page
//!    state lives in a `genima_mem::PageVec` column, an index away, not
//!    behind a hash or a tree walk that regrows as the run touches
//!    pages (hash-map regrowth was once three quarters of what an LU
//!    run allocated). A list of `(PageId, _)` entries whose length is
//!    bounded by a constant — a node's in-flight fetches, at most one
//!    per process — is not a map that regrows, and passes. No waiver.
//!
//! The gate is scoped by directory ([`PROTOCOL_DIRS`], plus the single
//! files of [`PROTOCOL_FILES`]), so splitting a file cannot drop
//! coverage. The rules apply only to non-test code — `tests.rs` files
//! are skipped, and so is everything after the first inline
//! `#[cfg(test)]` item in a file — and only to actual code: comments and
//! string/char literals are stripped before matching, so an error
//! message mentioning `.unwrap()` or a doc example with `_ =>` never
//! trips the gate. A finding can be waived in place with a trailing
//! `// lint: allow-wildcard` or `// lint: allow-unwrap` comment on the
//! offending line.
//!
//! `cargo run -p xtask -- clippy` is the warnings gate: it runs
//! `cargo clippy --workspace --all-targets -- -D warnings` plus the
//! pinned [`CLIPPY_ALLOW`] list, so the allow-list lives in one
//! reviewed place instead of scattered CI flags.
//!
//! Two observability commands ride along:
//!
//! * `xtask obs-summary <file> [top]` — prints a top-N aggregation of
//!   a Chrome-trace timeline (per span kind and per node), or the NI
//!   monitor tables when given a `RunReport` JSON instead.
//! * `xtask obs-schema <file>...` — checks `BENCH_<kind>.json`
//!   reports with [`BenchReport::check`], the same call the `bench`
//!   driver makes on the report it just built: shape, then every
//!   declared gate recomputed from the rows it references. CI fails
//!   the `bench` matrix job on a rejection. `bench show FILE` prints
//!   a report's tables through the renderer of the run that wrote it.

use genima_obs::{monitor_tables, trace_top, BenchReport, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories the lint gate covers, relative to the repo root: every
/// `.rs` file below them, recursively, except `tests.rs` (out-of-line
/// test modules). Scoping by directory means a file split or a new
/// module cannot silently leave the gate.
const PROTOCOL_DIRS: &[&str] = &[
    "crates/coll/src",
    "crates/fault/src",
    "crates/mc/src",
    "crates/nic/src",
    "crates/obs/src",
    "crates/prof/src",
    "crates/proto/src/system",
    "crates/rnic/src",
    "crates/serve/src",
];

/// Single files the gate covers in crates that are not protocol code
/// throughout.
const PROTOCOL_FILES: &[&str] = &[
    "crates/mem/src/addr.rs",
    "crates/mem/src/diff.rs",
    "crates/mem/src/pool.rs",
    "crates/mem/src/protect.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/smallvec.rs",
    "crates/proto/src/sched.rs",
    "crates/proto/src/version.rs",
    "crates/bench/src/bin/bench/mc.rs",
    "crates/bench/src/bin/bench/serving.rs",
];

/// Clippy lints deliberately allowed workspace-wide by `xtask clippy`,
/// each pinned with the reason it stays. Everything else is `-D
/// warnings`. Keep this list empty unless a lint is structurally
/// unavoidable — prefer a scoped in-source `#[allow]` with a comment.
const CLIPPY_ALLOW: &[(&str, &str)] = &[];

/// One rule violation at a source line.
#[derive(Debug, PartialEq, Eq)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    text: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}\n    {}",
            self.file,
            self.line,
            self.rule,
            self.text.trim()
        )
    }
}

/// Strips comments and string/char-literal contents from Rust source,
/// preserving the line structure (every `\n` survives) so findings in
/// the result map back to the original line numbers. Handles line
/// comments, nested block comments, plain and raw (byte) strings, char
/// literals, and leaves lifetimes (`'a`) alone. A proper lexer would
/// be overkill; this scanner exists so `_ =>` or `.unwrap()` inside a
/// doc comment, an error message, or a format string never trips the
/// lint.
fn strip_noncode(source: &str) -> String {
    let b: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let keep_newlines = |out: &mut String, span: &[char]| {
        out.extend(span.iter().filter(|&&c| c == '\n'));
    };
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                // Line comment: drop to end of line (newline kept by
                // the outer loop).
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                // Block comment; Rust nests them.
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                keep_newlines(&mut out, &b[start..i]);
            }
            '"' => {
                // String literal: skip contents, honoring escapes.
                let start = i;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                keep_newlines(&mut out, &b[start..i]);
            }
            'r' | 'b' if raw_string_hashes(&b, i).is_some() && (i == 0 || !is_ident(b[i - 1])) => {
                // Raw (byte) string: r"..", r#".."#, br#".."# — no
                // escapes; ends at `"` followed by the opening hashes.
                let hashes = raw_string_hashes(&b, i).expect("guard checked");
                let start = i;
                while i < b.len() && b[i] != '"' {
                    i += 1;
                }
                i += 1; // opening quote
                'scan: while i < b.len() {
                    if b[i] == '"' {
                        let mut j = 0;
                        while j < hashes && b.get(i + 1 + j) == Some(&'#') {
                            j += 1;
                        }
                        if j == hashes {
                            i += 1 + hashes;
                            break 'scan;
                        }
                    }
                    i += 1;
                }
                keep_newlines(&mut out, &b[start..i.min(b.len())]);
            }
            '\'' => {
                if next == Some('\\') {
                    // Escaped char literal ('\n', '\u{..}', '\'').
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if next.is_some() && b.get(i + 2) == Some(&'\'') {
                    // Plain char literal 'x'.
                    i += 3;
                } else {
                    // Lifetime — part of the code proper.
                    out.push('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// If `b[i]` starts a raw-string opener (`r` or `br` followed by zero
/// or more `#` and a quote), returns the hash count.
fn raw_string_hashes(b: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (b.get(j) == Some(&'"')).then_some(hashes)
}

/// Identifier character, for telling `r"..."` from an identifier that
/// merely ends in `r`.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The rules: the code pattern that trips one, the trailing comment
/// that waives it on a line (if it can be waived), and the finding.
const RULES: &[(&str, Option<&str>, &str)] = &[
    (
        "_ =>",
        Some("lint: allow-wildcard"),
        "wildcard `_ =>` arm in protocol code",
    ),
    (
        ".unwrap()",
        Some("lint: allow-unwrap"),
        "bare `.unwrap()` in protocol code",
    ),
    (
        "clippy::large_enum_variant",
        None,
        "`clippy::large_enum_variant` allowed in protocol code: box the wide variant",
    ),
    (
        "<PageId,",
        None,
        "map or set keyed by `PageId`: page ids are dense, use the page column type `PageVec`",
    ),
];

/// Longest a covered file may be, tests and comments included.
const MAX_FILE_LINES: usize = 800;

/// Lints one file's contents, reporting findings under `name`. Rules
/// match against the comment- and string-stripped view of each line;
/// waivers match against the original line (they live in comments).
fn lint_source(name: &str, source: &str) -> Vec<Finding> {
    let stripped = strip_noncode(source);
    let mut findings = Vec::new();
    if let Some(line) = source.lines().nth(MAX_FILE_LINES) {
        findings.push(Finding {
            file: name.to_string(),
            line: MAX_FILE_LINES + 1,
            rule: "protocol file over 800 lines: split it by mechanism",
            text: line.to_string(),
        });
    }
    let code_lines: Vec<&str> = stripped.lines().collect();
    for (i, (code, line)) in code_lines.iter().zip(source.lines()).enumerate() {
        // The first `#[cfg(test)]` on an inline item starts the test
        // module; everything after it is exercised only by the test
        // harness. On an out-of-line declaration (`mod tests;`) it
        // gates nothing in this file, wherever it stands.
        if code.trim_start().starts_with("#[cfg(test)]") {
            let item = code_lines[i + 1..].iter().find(|l| !l.trim().is_empty());
            if item.is_some_and(|l| l.trim_end().ends_with(';')) {
                continue;
            }
            break;
        }
        for &(pattern, waiver, rule) in RULES {
            if code.contains(pattern) && !waiver.is_some_and(|w| line.contains(w)) {
                findings.push(Finding {
                    file: name.to_string(),
                    line: i + 1,
                    rule,
                    text: line.to_string(),
                });
            }
        }
    }
    findings
}

/// The workspace root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("xtask lives two levels below the workspace root")
}

/// Collects the `.rs` files under `dir` (recursively, sorted) as
/// root-relative paths, leaving out `tests.rs`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root.join(dir))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).expect("listed below the root");
        if path.is_dir() {
            rust_files(root, rel, out)?;
        } else if path.extension().is_some_and(|x| x == "rs")
            && path.file_name().is_some_and(|n| n != "tests.rs")
        {
            out.push(rel.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

/// Every file the gate covers, as root-relative paths.
fn protocol_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files: Vec<String> = PROTOCOL_FILES.iter().map(|f| f.to_string()).collect();
    for dir in PROTOCOL_DIRS {
        rust_files(root, Path::new(dir), &mut files)?;
    }
    Ok(files)
}

/// Lints every covered file; `Err` names what could not be read.
fn lint_tree(root: &Path) -> Result<(usize, Vec<Finding>), String> {
    let files = protocol_files(root).map_err(|e| format!("cannot list protocol files: {e}"))?;
    let mut findings = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        findings.extend(lint_source(rel, &source));
    }
    Ok((files.len(), findings))
}

fn run_lint() -> ExitCode {
    match lint_tree(&repo_root()) {
        Ok((files, findings)) if findings.is_empty() => {
            println!("xtask lint: {files} protocol files clean");
            ExitCode::SUCCESS
        }
        Ok((_, findings)) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `xtask obs-summary <file> [top]`: a Chrome-trace array gets the
/// top-N span aggregation; a `RunReport` JSON gets the monitor tables.
fn run_obs_summary(path: &str, top: usize) -> ExitCode {
    let v = match load_json(path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask obs-summary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = if v.as_arr().is_some() {
        trace_top(&v, top)
    } else if v.get("monitor").is_some() {
        monitor_tables(&[(path, &v)])
    } else {
        Err("expected a trace-event array or a RunReport object with a `monitor` key".to_string())
    };
    match rendered {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask obs-summary: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_obs_schema(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("usage: xtask obs-schema <file>...");
        return ExitCode::FAILURE;
    }
    let mut failures = 0u32;
    for path in paths {
        let checked = load_json(path).and_then(|v| {
            BenchReport::check(&v)
                .map(|()| v)
                .map_err(|e| e.join("\n    "))
        });
        match checked {
            Ok(v) => {
                let kind = v.get("bench").and_then(Json::as_str).unwrap_or_default();
                println!("xtask obs-schema: {path}: valid {kind} report");
            }
            Err(e) => {
                eprintln!("xtask obs-schema: {path}: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs clippy over the workspace with warnings denied, applying the
/// pinned [`CLIPPY_ALLOW`] list.
fn run_clippy() -> ExitCode {
    let mut cmd = std::process::Command::new("cargo");
    cmd.args([
        "clippy",
        "--workspace",
        "--all-targets",
        "--",
        "-D",
        "warnings",
    ]);
    for (lint, reason) in CLIPPY_ALLOW {
        println!("xtask clippy: allowing {lint} ({reason})");
        cmd.args(["-A", lint]);
    }
    cmd.current_dir(repo_root());
    match cmd.status() {
        Ok(s) if s.success() => {
            println!("xtask clippy: workspace clean (-D warnings)");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask clippy: cannot run cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: xtask lint | clippy | obs-summary <file> [top] | obs-schema <file>...";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => run_lint(),
        Some("clippy") => run_clippy(),
        Some("obs-summary") => {
            let path = match args.next() {
                Some(p) => p,
                None => {
                    eprintln!("usage: xtask obs-summary <file> [top]");
                    return ExitCode::FAILURE;
                }
            };
            let top = args.next().and_then(|t| t.parse().ok()).unwrap_or(10);
            run_obs_summary(&path, top)
        }
        Some("obs-schema") => run_obs_schema(&args.collect::<Vec<_>>()),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_wildcard_arms() {
        let src = "match m {\n    A => 1,\n    _ => 0,\n}\n";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].rule.contains("wildcard"));
    }

    #[test]
    fn flags_bare_unwrap() {
        let src = "let v = map.get(&k).unwrap();\n";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].rule.contains("unwrap"));
    }

    #[test]
    fn expect_is_allowed() {
        let src = "let v = map.get(&k).expect(\"seeded at init\");\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn waivers_suppress_findings() {
        let src = "    _ => {} // lint: allow-wildcard\n\
                   let v = o.unwrap(); // lint: allow-unwrap\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn flags_an_allowed_large_enum_variant_and_takes_no_waiver() {
        let src = "// clippy::large_enum_variant is fine in a comment\n\
                   #[allow(clippy::large_enum_variant)] // lint: allow-wildcard\n\
                   enum Event { Small(u8), Wide([u64; 40]) }\n";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        assert!(f[0].rule.contains("box the wide variant"));
    }

    #[test]
    fn flags_a_file_that_outgrows_the_line_limit() {
        let at_limit = "// filler\n".repeat(MAX_FILE_LINES);
        assert!(lint_source("x.rs", &at_limit).is_empty());
        let f = lint_source("x.rs", &(at_limit + "fn one_more() {}\n"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, MAX_FILE_LINES + 1);
        assert!(f[0].rule.contains("split it by mechanism"));
    }

    #[test]
    fn flags_a_map_keyed_by_page_id() {
        for keyed in [
            "HashMap<PageId, u32>",
            "BTreeMap<PageId, Waiters>",
            "HashSet<PageId, FixedState>",
        ] {
            let src = format!("struct S {{\n    m: {keyed},\n}}\n");
            let f = lint_source("x.rs", &src);
            assert_eq!(f.len(), 1, "{keyed}");
            assert_eq!(f[0].line, 2);
            assert!(f[0].rule.contains("PageVec"));
        }
        let column = "struct S {\n    m: PageVec<u32>,\n    v: Vec<(PageId, u32)>,\n}\n";
        assert!(lint_source("x.rs", column).is_empty());
    }

    #[test]
    fn comments_are_ignored() {
        let src = "// a doc note about .unwrap() and _ => arms\n\
                   /// same in doc comments: .unwrap()\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { o.unwrap(); }\n    // _ => also fine here\n}\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn trailing_comment_does_not_hide_code() {
        let src = "let v = o.unwrap(); // grab it\n";
        assert_eq!(lint_source("x.rs", src).len(), 1);
    }

    #[test]
    fn patterns_inside_string_literals_are_ignored() {
        let src = "let msg = \"fallback _ => arm calls .unwrap()\";\n\
                   eprintln!(\"usage: _ => or .unwrap()\");\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn patterns_inside_block_comments_are_ignored() {
        let src = "/* a note: _ => arms and .unwrap() are banned\n\
                   spanning lines /* nested: .unwrap() */ still out */\n\
                   fn f() {}\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn patterns_inside_raw_strings_are_ignored() {
        let src = "let re = r#\"match x { _ => y.unwrap() }\"#;\n\
                   let b = br\"_ => .unwrap()\";\n";
        assert!(lint_source("x.rs", src).is_empty());
    }

    #[test]
    fn code_after_string_on_same_line_is_still_linted() {
        let src = "let v = o.expect(\"_ => in message\").field.unwrap();\n";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].rule.contains("unwrap"));
    }

    #[test]
    fn stripping_preserves_line_numbers() {
        let src = "/* one\n   two\n   three */\nmatch m {\n    _ => 0,\n}\n";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn multiline_strings_keep_line_structure() {
        let src = "let s = \"first _ =>\n  second .unwrap()\n  third\";\nlet v = o.unwrap();\n";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        // A quote char literal must not open a string that swallows
        // the rest of the file, and lifetimes must not be taken for
        // char literals.
        let src = "fn f<'a>(x: &'a str) -> char { '\"' }\nlet v = o.unwrap();\n";
        let f = lint_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cfg_test_inside_string_does_not_end_linting() {
        let src = "let s = \"#[cfg(test)]\";\nlet v = o.unwrap();\n";
        assert_eq!(lint_source("x.rs", src).len(), 1);
    }

    #[test]
    fn real_protocol_files_are_clean() {
        let (_, findings) = lint_tree(&repo_root()).expect("readable tree");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn directory_scope_reaches_split_modules_and_skips_test_files() {
        let listed = protocol_files(&repo_root()).expect("readable tree");
        for file in [
            "crates/nic/src/comm/transport.rs",
            "crates/proto/src/system/degraded.rs",
            "crates/proto/src/system/interval.rs",
            "crates/proto/src/system/notice.rs",
            "crates/proto/src/system/lock.rs",
            "crates/proto/src/system/barrier.rs",
            "crates/mem/src/diff.rs",
        ] {
            assert!(listed.iter().any(|f| f == file), "{file} left the gate");
        }
        assert!(!listed.iter().any(|f| f.ends_with("/tests.rs")));
    }

    #[test]
    fn cfg_test_on_a_module_declaration_does_not_end_linting() {
        let src = "#[cfg(test)]\nmod tests;\n\nlet v = o.unwrap();\n";
        assert_eq!(lint_source("x.rs", src).len(), 1);
    }
}
