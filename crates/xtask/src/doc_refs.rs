//! `xtask doc-refs`: the documents name only what the tree has.
//!
//! Three rules, no flag and no allowlist:
//!
//! 1. **Names.** In DESIGN.md, README.md and EXPERIMENTS.md, every
//!    inline code span outside a fenced block that is a compound
//!    identifier — it contains `::` or `_`, or is CamelCase (a capital,
//!    lowercase letters or digits, a capital), optionally followed by
//!    `()` — must end in a segment that some `.rs` file of the
//!    repository contains as a whole word. String literals count, so a
//!    report field named only in its emitter passes. A line that starts
//!    with `History:` points into CHANGES.md and is exempt.
//! 2. **Section references.** Every `DESIGN.md §N[.M]` (or
//!    `DESIGN §N[.M]`, a closing backtick after `DESIGN.md` allowed, the
//!    `§` possibly on the next comment line) in a `.rs` or `.yml` file,
//!    README.md, EXPERIMENTS.md or a `SKILL.md` must name a `##` or
//!    `###` heading of DESIGN.md. Inside DESIGN.md every bare `§N[.M]`
//!    is such a reference too, except one written `paper §N`.
//! 3. **Dependencies.** Every `[dependencies]` entry of the root
//!    package's `Cargo.toml` and of each `crates/*/Cargo.toml` must be
//!    named in that package's `src/`: its name, hyphens read as
//!    underscores, is a word of the code there (`use` and `pub use`
//!    count; comments and string literals do not). A crate only tests
//!    or examples name is a `[dev-dependencies]` entry.
//!
//! Cargo build directories (any directory holding a `CACHEDIR.TAG`, and
//! any named `target`) and `.git` are not part of the tree.

use super::Finding;
use std::collections::{BTreeSet, HashSet};
use std::path::Path;

/// The documents whose code spans must name live identifiers.
const NAMED_DOCS: &[&str] = &["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// Whether `rel` is a file whose `DESIGN.md §N` references must
/// resolve: every `.rs` and `.yml` file, README.md, EXPERIMENTS.md and
/// the build-and-verify skill notes (`SKILL.md`).
fn refers(rel: &str) -> bool {
    [".rs", ".yml", "/SKILL.md"]
        .iter()
        .any(|end| rel.ends_with(end))
        || ["README.md", "EXPERIMENTS.md"].contains(&rel)
}

const DEAD_NAME: &str = "code span names nothing in any `.rs` file";
const DEAD_SECTION: &str = "section reference names no `##`/`###` heading of DESIGN.md";
const UNUSED_DEPENDENCY: &str = "dependency the package's `src/` never names";

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Adds every word (maximal run of `[A-Za-z0-9_]`) of `source` to `words`.
fn words_of(source: &str, words: &mut HashSet<String>) {
    for w in source.split(|c: char| !is_word(c)) {
        if !w.is_empty() && !words.contains(w) {
            words.insert(w.to_string());
        }
    }
}

/// The section numbers of DESIGN.md's `##` and `###` headings: `## 3.
/// Title` gives `3`, `### 6.2 Title` gives `6.2`.
fn headings(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("### ").or_else(|| l.strip_prefix("## ")))
        .filter_map(|rest| {
            let len = rest.find(|c: char| !c.is_ascii_digit() && c != '.');
            let num = rest[..len.unwrap_or(rest.len())].trim_end_matches('.');
            num.starts_with(|c: char| c.is_ascii_digit())
                .then(|| num.to_string())
        })
        .collect()
}

/// Whether `line` opens or closes a fenced block.
fn is_fence(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("```") || t.starts_with("~~~")
}

/// The inline code spans of a Markdown text outside fenced blocks, as
/// `(1-based line of the opening backtick, content)`. A span closes at
/// the next backtick run of the opening run's length within its
/// paragraph; an unclosed run is literal text.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut para: Vec<(usize, &str)> = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        let boundary = is_fence(line) || fenced || line.trim().is_empty();
        if boundary {
            spans_of_paragraph(&para, &mut spans);
            para.clear();
            if is_fence(line) {
                fenced = !fenced;
            }
        } else {
            para.push((i + 1, line));
        }
    }
    spans_of_paragraph(&para, &mut spans);
    spans
}

fn spans_of_paragraph(para: &[(usize, &str)], spans: &mut Vec<(usize, String)>) {
    // Each char with the line it sits on; a line break reads as a space.
    let mut chars: Vec<(usize, char)> = Vec::new();
    for &(n, line) in para {
        chars.extend(line.chars().map(|c| (n, c)));
        chars.push((n, '\n'));
    }
    let run_at = |i: usize| chars[i..].iter().take_while(|&&(_, c)| c == '`').count();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].1 != '`' {
            i += 1;
            continue;
        }
        let open = run_at(i);
        let start = i + open;
        let mut j = start;
        let mut close = None;
        while j < chars.len() {
            if chars[j].1 == '`' {
                let run = run_at(j);
                if run == open {
                    close = Some(j);
                    break;
                }
                j += run;
            } else {
                j += 1;
            }
        }
        match close {
            Some(end) => {
                let body: String = chars[start..end]
                    .iter()
                    .map(|&(_, c)| if c == '\n' { ' ' } else { c })
                    .collect();
                spans.push((chars[i].0, body.trim().to_string()));
                i = end + open;
            }
            None => i = start,
        }
    }
}

/// If `span` is a compound identifier, its last path segment.
fn compound_ident(span: &str) -> Option<&str> {
    let path = span.strip_suffix("()").unwrap_or(span);
    let segments: Vec<&str> = path.split("::").collect();
    let ident = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') && s.chars().all(is_word)
    };
    if !segments.iter().all(|s| ident(s)) {
        return None;
    }
    let compound = path.contains("::") || path.contains('_') || is_camel(path);
    compound.then(|| *segments.last().expect("split yields a segment"))
}

/// A capital, then one or more lowercase letters or digits, then a capital.
fn is_camel(s: &str) -> bool {
    let b = s.as_bytes();
    (0..b.len()).any(|i| {
        b[i].is_ascii_uppercase() && {
            let lower = b[i + 1..]
                .iter()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
                .count();
            lower > 0 && b.get(i + 1 + lower).is_some_and(|c| c.is_ascii_uppercase())
        }
    })
}

/// Rule 1 over one document.
fn dead_names(file: &str, text: &str, words: &HashSet<String>) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    code_spans(text)
        .into_iter()
        .filter(|(line, _)| !lines[line - 1].starts_with("History:"))
        .filter(|(_, span)| compound_ident(span).is_some_and(|last| !words.contains(last)))
        .map(|(line, span)| Finding {
            file: file.to_string(),
            line,
            rule: DEAD_NAME,
            text: format!("`{span}`"),
        })
        .collect()
}

/// Reads a section number `N` or `N.M` at the start of `s`.
fn section_number(s: &str) -> Option<&str> {
    let major = s.bytes().take_while(u8::is_ascii_digit).count();
    if major == 0 {
        return None;
    }
    let rest = &s[major..];
    let minor = rest
        .strip_prefix('.')
        .map_or(0, |r| r.bytes().take_while(u8::is_ascii_digit).count());
    Some(if minor > 0 {
        &s[..major + 1 + minor]
    } else {
        &s[..major]
    })
}

/// Skips the space between `DESIGN.md` and its `§`: blanks, or one line
/// break and the next line's comment leader.
fn skip_gap(s: &str) -> &str {
    let s = s.trim_start_matches([' ', '\t']);
    let Some(next) = s.strip_prefix('\n') else {
        return s;
    };
    let next = next.trim_start();
    let next = ["//!", "///", "//", "#"]
        .iter()
        .find_map(|lead| next.strip_prefix(lead))
        .unwrap_or(next);
    next.trim_start_matches([' ', '\t'])
}

/// Rule 2 over one file: each `DESIGN.md §N[.M]` reference, or in
/// DESIGN.md itself (`bare`) each `§N[.M]` not written `paper §N`, must
/// be a heading. Fenced blocks of a Markdown file are skipped.
fn dead_sections(file: &str, text: &str, heads: &BTreeSet<String>, bare: bool) -> Vec<Finding> {
    let markdown = file.ends_with(".md");
    let mut refs: Vec<(usize, &str)> = Vec::new();
    let mut fenced = false;
    let mut offset = 0;
    for (i, line) in text.split('\n').enumerate() {
        let here = offset;
        offset += line.len() + 1;
        if markdown && is_fence(line) {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        if bare {
            for (at, _) in line.match_indices('§') {
                let before = line[..at].trim_end_matches(' ');
                let paper = before.len() < at
                    && before
                        .strip_suffix("paper")
                        .or_else(|| before.strip_suffix("Paper"))
                        .is_some_and(|b| !b.ends_with(is_word));
                if let Some(num) = section_number(&line[at + '§'.len_utf8()..]) {
                    if !paper {
                        refs.push((i + 1, num));
                    }
                }
            }
            continue;
        }
        for (at, _) in line.match_indices("DESIGN") {
            if line[..at].ends_with(is_word) {
                continue;
            }
            let after = &text[here + at + "DESIGN".len()..];
            let after = after.strip_prefix(".md").unwrap_or(after);
            let after = after.strip_prefix('`').unwrap_or(after);
            if let Some(num) = skip_gap(after).strip_prefix('§').and_then(section_number) {
                refs.push((i + 1, num));
            }
        }
    }
    refs.into_iter()
        .filter(|(_, num)| !heads.contains(*num))
        .map(|(line, num)| Finding {
            file: file.to_string(),
            line,
            rule: DEAD_SECTION,
            text: format!("§{num}"),
        })
        .collect()
}

/// Rule 3 over one crate: each `[dependencies]` entry of `manifest`
/// whose name is no word of `code`, the crate's `src/` stripped of
/// comments and string literals.
fn unused_dependencies(file: &str, manifest: &str, code: &HashSet<String>) -> Vec<Finding> {
    let mut section = "";
    let mut findings = Vec::new();
    for (i, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let name = line.split(['.', '=', ' ']).next().unwrap_or(line);
        let entry = section == "[dependencies]" && !name.is_empty() && !name.starts_with('#');
        if entry && !code.contains(&name.replace('-', "_")) {
            findings.push(Finding {
                file: file.to_string(),
                line: i + 1,
                rule: UNUSED_DEPENDENCY,
                text: name.to_string(),
            });
        }
    }
    findings
}

/// The manifests rule 3 checks: the root package's and each crate's.
fn package_manifests(files: &[String]) -> impl Iterator<Item = &String> {
    files.iter().filter(|f| {
        f.as_str() == "Cargo.toml"
            || (f.starts_with("crates/") && f.ends_with("/Cargo.toml") && f.split('/').count() == 3)
    })
}

/// Rule 3 over the package whose manifest is `manifest`, its `src/`
/// beside it, among the tree's `files`.
fn package_findings(root: &Path, files: &[String], manifest: &str) -> Result<Vec<Finding>, String> {
    let src = manifest.replace("Cargo.toml", "src/");
    let mut code = HashSet::new();
    let sources = files
        .iter()
        .filter(|f| f.starts_with(&src) && f.ends_with(".rs"));
    for rel in sources {
        words_of(&super::strip_noncode(&read(root, rel)?), &mut code);
    }
    Ok(unused_dependencies(manifest, &read(root, manifest)?, &code))
}

/// The text of the tree's file `rel`; `Err` names it.
fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
}

/// Lists, sorted and root-relative, every file below `dir` outside
/// `.git` and cargo build directories.
fn tree_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let abs = root.join(dir);
    if abs.join("CACHEDIR.TAG").exists() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(&abs)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).expect("listed below the root");
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                tree_files(root, rel, out)?;
            }
        } else {
            out.push(rel.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

/// The three rules over the tree at `root`; `Err` names what could not be read.
pub(crate) fn check_tree(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    tree_files(root, Path::new(""), &mut files)
        .map_err(|e| format!("cannot list the tree: {e}"))?;
    let mut words = HashSet::new();
    for rel in files.iter().filter(|f| f.ends_with(".rs")) {
        words_of(&read(root, rel)?, &mut words);
    }
    let design = read(root, "DESIGN.md")?;
    let heads = headings(&design);
    let mut findings = Vec::new();
    for doc in NAMED_DOCS {
        findings.extend(dead_names(doc, &read(root, doc)?, &words));
    }
    findings.extend(dead_sections("DESIGN.md", &design, &heads, true));
    for rel in files.iter().filter(|f| refers(f)) {
        findings.extend(dead_sections(rel, &read(root, rel)?, &heads, false));
    }
    for manifest in package_manifests(&files) {
        findings.extend(package_findings(root, &files, manifest)?);
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> HashSet<String> {
        let mut w = HashSet::new();
        words_of(src, &mut w);
        w
    }

    /// Writes `@` as `DESIGN.md`, so this file's own fixtures are no
    /// references of the tree's.
    fn at(src: &str) -> String {
        src.replace('@', "DESIGN.md")
    }

    const HEADS: &str =
        "## 1. One\n\n## 28. Rules\n\n### 28.1 First\n\n## 8. Notes\n\n1. **A rule.**\n";

    #[test]
    fn a_dead_name_is_reported_with_its_file_and_line() {
        let doc = "# T\n\nThe `SvmSystem::start` is live.\nBut `RetiredLock::acquire()` and\n`retired_send` are gone.\n";
        let f = dead_names("DESIGN.md", doc, &words("impl SvmSystem { fn start() {} }"));
        let at: Vec<String> = f
            .iter()
            .map(|f| format!("{}:{} {}", f.file, f.line, f.text))
            .collect();
        assert_eq!(
            at,
            [
                "DESIGN.md:4 `RetiredLock::acquire()`",
                "DESIGN.md:5 `retired_send`"
            ]
        );
    }

    #[test]
    fn a_history_line_may_name_what_is_gone() {
        let doc = "History: CHANGES.md (`RetiredLock` became `ChainLock`).\n";
        assert!(dead_names("DESIGN.md", doc, &words("struct ChainLock;")).is_empty());
        let prose = "Here `RetiredLock` became `ChainLock`.\n";
        assert_eq!(
            dead_names("DESIGN.md", prose, &words("struct ChainLock;")).len(),
            1
        );
    }

    #[test]
    fn a_name_only_in_a_string_literal_is_live() {
        let src = "row.set(\"avg_improvement_pct\", mean);";
        let doc = "Gated as `meta`'s `avg_improvement_pct`.\n";
        assert!(dead_names("EXPERIMENTS.md", doc, &words(src)).is_empty());
    }

    #[test]
    fn all_caps_words_and_plain_words_are_not_identifiers() {
        let doc = "Diff against `HEAD`, run `bench`, read `BENCH_paper.json` and `ODP`.\n";
        assert!(dead_names("README.md", doc, &words("")).is_empty());
        for (span, last) in [
            ("GeNIMA", Some("GeNIMA")),
            ("NiModel::advise()", Some("advise")),
            ("size_of", Some("size_of")),
            ("HEAD", None),
            ("Fate::Duplicate { lag }", None),
            ("meta.avg_improvement_pct", None),
        ] {
            assert_eq!(compound_ident(span), last, "{span}");
        }
    }

    #[test]
    fn fenced_blocks_are_ignored() {
        let doc = at(
            "Text.\n\n```rust\nlet x = `gone_name`;\n// see @ §99\n```\n\nAfter `still_gone`.\n",
        );
        let f = dead_names("DESIGN.md", &doc, &words(""));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 8);
        assert!(dead_sections("README.md", &doc, &headings(HEADS), false).is_empty());
    }

    #[test]
    fn a_reference_to_a_missing_section_is_flagged() {
        let heads = headings(HEADS);
        let src =
            at("// @ §99 and @ §28.1\n/// (`@` §28.9), DESIGN §1\n// the rule (@\n// §28.7).\n");
        let f = dead_sections("x.rs", &src, &heads, false);
        let at: Vec<String> = f.iter().map(|f| format!("{} {}", f.line, f.text)).collect();
        assert_eq!(at, ["1 §99", "2 §28.9", "3 §28.7"]);
    }

    #[test]
    fn a_paper_section_inside_design_is_no_self_reference() {
        let heads = headings(HEADS);
        let doc = "## 1. One\n\nThe paper §3.1 constants, as §28.1 and paper §5 say.\n";
        assert!(dead_sections("DESIGN.md", doc, &heads, true).is_empty());
        let bare = "Calibrated from §3.1.\n";
        assert_eq!(dead_sections("DESIGN.md", bare, &heads, true).len(), 1);
    }

    #[test]
    fn a_numbered_list_item_is_not_a_section() {
        let heads = headings(HEADS);
        assert_eq!(
            heads.iter().map(String::as_str).collect::<Vec<_>>(),
            ["1", "28", "28.1", "8"]
        );
        let f = dead_sections("page.rs", &at("// @ §8.1: a fetch covers\n"), &heads, false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].text, "§8.1");
        assert!(dead_sections("page.rs", &at("// @ §8.\n"), &heads, false).is_empty());
    }

    #[test]
    fn a_dependency_the_source_never_names_is_reported() {
        let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n\
                        genima-sim.workspace = true\n\
                        genima-net = { path = \"../net\" }\n\
                        # genima-mem once\n\
                        genima-obs.workspace = true\n\
                        genima-nic.workspace = true\n\n\
                        [dev-dependencies]\nproptest.workspace = true\n";
        let src = "use genima_sim::Time;\npub use genima_obs::Json;\n\
                   /// [`genima_net::Packet`]\nfn f() -> &'static str { \"genima_nic\" }\n";
        let code = words(&super::super::strip_noncode(src));
        let f = unused_dependencies("crates/x/Cargo.toml", manifest, &code);
        let at: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.text.as_str())).collect();
        assert_eq!(at, [(6, "genima-net"), (9, "genima-nic")]);
    }

    #[test]
    fn the_root_package_declares_only_what_its_src_names() {
        let files: Vec<String> = [
            "Cargo.toml",
            "benchmark/Cargo.toml",
            "crates/x/Cargo.toml",
            "crates/x/tests/Cargo.toml",
            "src/lib.rs",
        ]
        .map(String::from)
        .into();
        let checked: Vec<&str> = package_manifests(&files).map(String::as_str).collect();
        assert_eq!(checked, ["Cargo.toml", "crates/x/Cargo.toml"]);
        let root = super::super::repo_root();
        let mut tree = Vec::new();
        tree_files(&root, Path::new(""), &mut tree).expect("listable tree");
        let findings = package_findings(&root, &tree, "Cargo.toml").expect("readable tree");
        let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(findings.is_empty(), "{}", report.join("\n"));
    }

    #[test]
    fn every_name_and_section_reference_in_the_tree_is_live() {
        let findings = check_tree(&super::super::repo_root()).expect("readable tree");
        let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(findings.is_empty(), "{}", report.join("\n"));
    }
}
