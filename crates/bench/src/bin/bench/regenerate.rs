//! The checked-in reports, rebuilt by `cargo test`. Each test runs a
//! kind's own code at the seed its `BENCH_<kind>.json` records, checks
//! the rows with the report's own gates and compares them with the
//! file, naming each moved row by its `bench explain` label. `barrier`,
//! `fault_matrix` and `serving` are rebuilt whole, byte for byte;
//! `paper` without its §5 sizes (its 60 traced cells whole, each
//! ablation study alone), and `mc` on three litmus tests, each alone:
//! odp-first-touch, mp-bar and barrier-epoch (DESIGN.md §14).

use genima::Json;
use genima_obs::BenchReport;

use crate::{explain, paper, parse_args, rows, text, Args, Kind};

/// The checked-in `BENCH_<kind>.json`, as text and parsed, and the kind
/// and arguments `bench <kind> --seed <its seed> <apps>` parses to.
fn checked_in(kind: &str, apps: &str) -> (String, Json, Kind, Args) {
    let path = format!("{}/../../BENCH_{kind}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let file = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let seed = file.get("seed").and_then(Json::as_u64).expect("a seed");
    let words = format!("{kind} --seed {seed} {apps}");
    let Ok((_, run, _, args)) = parse_args(words.split_whitespace().map(String::from)) else {
        panic!("`bench {words}` does not parse");
    };
    (text, file, run, args)
}

/// `file` with only the rows `keep` selects, and `meta` for its own.
fn narrowed(file: &Json, meta: Option<&Json>, keep: impl Fn(&&Json) -> bool) -> Json {
    let mut out = Json::obj();
    out.set("meta", meta.cloned().unwrap_or(Json::Null));
    for key in ["bench", "seed", "gates"] {
        out.set(key, file.get(key).cloned().unwrap_or(Json::Null));
    }
    let kept = rows(file).iter().filter(keep).cloned().collect();
    out.set("rows", Json::Arr(kept));
    out
}

/// Checks `built` with its own gates, then against `file`: the same
/// rows and `meta`, and no gate `file` does not declare.
///
/// # Errors
///
/// A line per failed gate, per moved row (its `bench explain` label,
/// then its moved fields), for a `meta` that differs and per gate only
/// `built` declares.
fn regenerated(built: &Json, file: &Json) -> Result<(), String> {
    let mut errors = BenchReport::check(built).err().unwrap_or_default();
    match explain::explain(file, built, None) {
        Ok(mut found) => {
            // The last line counts the moved rows.
            found.lines.pop();
            errors.extend(found.lines);
        }
        Err(e) => errors.push(e),
    }
    let [was, now] = [file, built].map(|r| explain::show(r.get("meta")));
    if was != now {
        errors.push(format!("meta: {was} -> {now}"));
    }
    let [declared, gates] = [file, built].map(|r| r.get("gates").and_then(Json::as_arr));
    let declared: Vec<_> = declared
        .unwrap_or_default()
        .iter()
        .map(|g| g.get("name"))
        .collect();
    for name in gates.unwrap_or_default().iter().map(|g| g.get("name")) {
        if !declared.contains(&name) {
            errors.push(format!("gate {} is not the file's", explain::show(name)));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// `bench <kind> --seed <the file's> --json` rewrites each file byte for
/// byte.
#[test]
fn three_sweeps_rewrite_their_files() {
    for kind in ["barrier", "fault_matrix", "serving"] {
        let (text, file, run, args) = checked_in(kind, "");
        let built = run(&args).to_json();
        regenerated(&built, &file).unwrap_or_else(|e| panic!("BENCH_{kind}.json:\n{e}"));
        let rewritten = built.dump() + "\n" == text;
        assert!(rewritten, "BENCH_{kind}.json is not as `--json` writes it");
    }
}

/// Every application's traced cells, Origin and 8×4 rows, the cell
/// claims and the headline: the paper's shapes, the 2025 hardware's
/// floors and the critical-path attribution, gated on rows rebuilt.
#[test]
fn paper_cells_rebuild_with_their_gates() {
    let (_, file, _, args) = checked_in("paper", "");
    let built = paper::finish(paper::cells(&args), &args, &paper::CELL_CLAIMS).to_json();
    let cells = narrowed(&file, file.get("meta"), |r| {
        text(r, "kind").is_some_and(|k| k != "size" && k != "ablation")
    });
    regenerated(&built, &cells).unwrap_or_else(|e| panic!("BENCH_paper.json:\n{e}"));
}

/// Each study `pick` keeps, rebuilt alone (so without `meta`): rows, claims.
fn studies_rebuild(pick: impl Fn(&str) -> bool) -> Vec<(usize, usize)> {
    let mut rebuilt = vec![];
    for (study, app) in paper::studies().filter(|&(s, _)| pick(s)) {
        let (_, file, _, args) = checked_in("paper", app);
        let built = paper::study(&args, study).to_json();
        let of_study = |r: &&Json| text(r, "study") == Some(study);
        let kept = narrowed(&file, built.get("meta"), of_study);
        regenerated(&built, &kept).unwrap_or_else(|e| panic!("BENCH_paper.json, {study}:\n{e}"));
        let gates = built.get("gates").and_then(Json::as_arr);
        rebuilt.push((rows(&built).len(), gates.map_or(0, <[Json]>::len)));
    }
    rebuilt
}

/// `homes` on FFT: the one ablation whose runs drop the application's homes.
#[test]
fn paper_homes_study_rebuilds_with_its_claims() {
    assert_eq!(studies_rebuild(|s| s == "homes"), [(3, 4)]);
}

/// The only runs of pull (`notices`) and of a replicated push (`broadcast`).
#[test]
fn paper_notice_studies_rebuild_with_their_claims() {
    let built = studies_rebuild(|s| s == "notices" || s == "broadcast");
    assert_eq!(built, [(4, 4), (2, 1)]);
}

/// The other six studies; with the three above, all nine: 30 rows, 25 claims.
#[test]
fn paper_studies_rebuild_with_their_claims() {
    let built = studies_rebuild(|s| !["homes", "notices", "broadcast"].contains(&s));
    assert_eq!(built, [(5, 2), (4, 2), (2, 2), (5, 4), (3, 2), (2, 4)]);
}

/// Each litmus test's six cells and their gates, rebuilt alone: the one
/// ODP park, and the two whose schedules turn on a barrier exit waiting
/// for its notices. A run narrowed to named litmus tests records no
/// calibration or mutant, so `meta` is left out.
#[test]
fn mc_litmus_rows_rebuild_with_their_gates() {
    for litmus in ["odp-first-touch", "mp-bar", "barrier-epoch"] {
        let (_, file, run, args) = checked_in("mc", litmus);
        let built = run(&args).to_json();
        let of_litmus = narrowed(&file, built.get("meta"), |r| {
            text(r, "litmus") == Some(litmus)
        });
        regenerated(&built, &of_litmus).unwrap_or_else(|e| panic!("BENCH_mc.json, {litmus}:\n{e}"));
    }
}

#[test]
fn a_moved_row_is_named_by_its_label_and_field() {
    let (text, file, ..) = checked_in("barrier", "");
    assert_eq!(regenerated(&file, &file), Ok(()));
    // Row 6's, the first of its value.
    let moved = text.replacen("\"barrier_us\":164.185,", "\"barrier_us\":165.185,", 1);
    let e = regenerated(&Json::parse(&moved).expect("a report"), &file).expect_err("moved");
    let lines: Vec<&str> = e.lines().map(str::trim).collect();
    let label = "row 6 (nodes=8 mode=ni-tree-4 fanout=4)";
    assert_eq!(
        lines[..2],
        [label, "barrier_us: 164.185 -> 165.185 (+0.6%)"]
    );
}
