//! `bench mc` — model-checking sweep: exhaustively explores the CI
//! litmus corpus on every protocol column, bounds the extended classic
//! shapes, calibrates DPOR pruning against naive enumeration on the
//! lock-handoff litmus, and demonstrates the seeded-mutant catch.
//! `bench mc LITMUS...` explores only the named tests, each on its
//! tier's columns with its per-row gates, and leaves out the grid
//! count, the calibration and the mutant.
//!
//! The extended rows and the naive calibration take tens of minutes
//! of single-core time, so this kind rides CI's `mc-smoke` job instead
//! of the bench matrix. Every field counts schedules or outcomes, so
//! the report repeats byte for byte.
//!
//! Gates: no exploration finds a violation or hits the depth bound;
//! every CI-corpus cell, and lock-handoff on GeNIMA-2025, is an
//! exhaustive proof that reached as many distinct outcomes as the
//! litmus's programs allow (`Explorer::allowed`; only the other
//! extended cells may report bounded coverage); DPOR prunes the
//! calibration cell at least 5× against naive enumeration while
//! exhausting it; the seeded mutant
//! is caught within 10k schedules and its minimized counterexample
//! replays bit for bit.

use genima_mc::{corpus, litmus, Config, Explorer, Litmus, Mode};
use genima_obs::bench::{meta, row};
use genima_obs::{BenchReport, Json};
use genima_proto::{Column, FeatureSet, Mutation};

use crate::{table, views, Args, View};

pub const VIEWS: &[View] = &[View {
    title: "schedules explored per litmus test and column",
    kind: None,
    cols: &[
        ("litmus", "litmus", 0),
        ("column", "column", 0),
        ("tier", "tier", 0),
        ("scheds", "schedules", 0),
        ("sleep-pruned", "sleep_pruned", 0),
        ("outcomes", "distinct_outcomes", 0),
        ("steps", "steps_total", 0),
        ("exhaustive", "exhaustive", 0),
    ],
}];

/// The exploration table, then the calibration and the mutant hunt
/// the report records in its `meta` (a run narrowed to named litmus
/// tests has neither).
pub fn print(report: &Json) -> String {
    let title =
        "DPOR against naive enumeration on lock-handoff/Base; the seeded mutant on mp/GeNIMA";
    let cols = [
        ("dpor", "calibration.dpor_schedules", 0),
        ("exhaustive", "calibration.dpor_exhaustive", 0),
        ("naive", "calibration.naive_schedules", 0),
        ("capped", "calibration.naive_capped", 0),
        ("prune ratio", "calibration.prune_ratio", 1),
        ("mutant caught", "mutant.caught", 0),
        ("at schedule", "mutant.schedules_to_violation", 0),
        ("minimized steps", "mutant.minimized_steps", 0),
        ("replays", "mutant.replay_ok", 0),
    ];
    let meta = report.get("meta").filter(|m| m.get("mutant").is_some());
    views(report, VIEWS) + &table(title, meta, &cols)
}

/// Schedule cap for the extended (classic, large) shapes: enough for
/// `sb` and `lock-handoff` to exhaust on Base, a bounded sweep
/// elsewhere.
const EXT_CAP: u64 = 1_000_000;

/// Naive-enumeration budget for the prune-ratio calibration. DPOR
/// exhausts lock-handoff on Base in ~800k schedules; naive enumeration
/// still isn't done at five times that, so the reported ratio is a
/// lower bound.
const NAIVE_CAP: u64 = 4_000_000;

/// Explores one (litmus, column) cell and pushes its row and gates.
/// A CI-tier cell, and lock-handoff on GeNIMA-2025 (whose event-driven
/// CAS handoff keeps it under the cap, DESIGN.md §10.1), must exhaust
/// its schedule space and reach every outcome the litmus allows.
fn explore_row(rep: &mut BenchReport, l: Litmus, c: Column, config: Config, tier: &str) {
    let what = format!("{}/{}", l.name, c.name());
    eprintln!("exploring {what}");
    let explorer = Explorer::new(l, c, config);
    let run = explorer.run();
    if let Some(v) = &run.violation {
        eprintln!("  UNEXPECTED VIOLATION: {}", v.desc);
    }

    let mut cell = Json::obj();
    cell.set("litmus", l.name.into());
    cell.set("column", c.name().into());
    cell.set("tier", tier.into());
    cell.set("schedules", run.schedules.into());
    cell.set("sleep_pruned", run.sleep_blocked.into());
    cell.set("truncated", run.depth_truncated.into());
    cell.set("violations", u64::from(run.violation.is_some()).into());
    cell.set("distinct_outcomes", (run.outcomes.len() as u64).into());
    cell.set("steps_total", run.steps_total.into());
    cell.set("races_precise", run.races_precise.into());
    cell.set("exhaustive", run.exhaustive().into());
    let i = rep.push(cell);
    rep.gate(
        format!("{what}: no violation"),
        row(i, "violations"),
        "==",
        0u64,
    );
    let name = format!("{what}: never hit the depth bound");
    rep.gate(name, row(i, "truncated"), "==", 0u64);
    if tier == "ci" || (l.name == "lock-handoff" && c == Column::genima_2025()) {
        let name = format!("{what}: exhaustive proof");
        rep.gate(name, row(i, "exhaustive"), "==", true);
        // An exhaustive search that misses an outcome the litmus
        // allows means a column over-synchronises: clean is not enough.
        // With no violation, reaching as many outcomes as allowed means
        // reaching every one.
        let floor = explorer.allowed().len() as u64;
        let name = format!("{what}: at least {floor} distinct outcomes");
        rep.gate(name, row(i, "distinct_outcomes"), ">=", floor);
    }
}

pub fn run(args: &Args) -> BenchReport {
    let config = Config::default();
    let mut rep = BenchReport::new("mc", args.seed);
    let whole = args.litmus.is_empty();
    let picked = |l: &Litmus| whole || args.litmus.iter().any(|n| n.name == l.name);

    // CI corpus: every cell must exhaust on every column.
    for l in corpus().into_iter().filter(picked) {
        for c in Column::all() {
            explore_row(&mut rep, l, c, config, "ci");
        }
    }
    if whole {
        rep.set_meta("ci_rows", rep.rows().len() as u64);
        let name = "the full CI litmus x column grid ran";
        let grid = corpus().len() * Column::all().len();
        rep.gate(name, meta("ci_rows"), "==", grid as u64);
    }
    // Extended classics: exhaustive where the cap allows (Base and
    // lock-handoff on GeNIMA-2025), bounded on the NI-rich end.
    let ext_cfg = Config {
        max_schedules: EXT_CAP,
        ..config
    };
    for l in litmus::extended().into_iter().filter(picked) {
        for c in [
            Column::lanai(FeatureSet::base()),
            Column::lanai(FeatureSet::genima()),
            Column::genima_2025(),
        ] {
            explore_row(&mut rep, l, c, ext_cfg, "extended");
        }
    }
    if !whole {
        return rep;
    }

    // Calibrate DPOR pruning against naive enumeration on the
    // lock-handoff litmus, Base column — the cell where DPOR itself
    // completes an exhaustive proof.
    let lh = litmus::by_name("lock-handoff").expect("lock-handoff litmus exists");
    let base = Column::lanai(FeatureSet::base());
    eprintln!("calibrating DPOR against naive enumeration on lock-handoff/Base");
    let dpor = Explorer::new(lh, base, ext_cfg).run();
    let naive_cfg = Config {
        mode: Mode::Naive,
        max_schedules: NAIVE_CAP,
        ..config
    };
    let naive = Explorer::new(lh, base, naive_cfg).run();
    let ratio = naive.schedules as f64 / dpor.schedules.max(1) as f64;
    let mut calib = Json::obj();
    calib.set("litmus", lh.name.into());
    calib.set("column", base.name().into());
    calib.set("dpor_schedules", dpor.schedules.into());
    calib.set("dpor_exhaustive", dpor.exhaustive().into());
    calib.set("naive_schedules", naive.schedules.into());
    calib.set("naive_capped", naive.budget_exhausted.into());
    calib.set("prune_ratio", ratio.into());
    rep.set_meta("calibration", calib);
    let name = "calibration: DPOR exhausted the cell";
    rep.gate(name, meta("calibration.dpor_exhaustive"), "==", true);
    let name = "calibration: DPOR prunes >= 5x against naive enumeration";
    rep.gate(name, meta("calibration.prune_ratio"), ">=", 5.0);

    // Seeded-mutant demonstration: the checker must catch the
    // reordered write notice within 10k schedules and the minimized
    // counterexample must replay bit-identically.
    let mutation = Mutation::ReorderWriteNotice;
    let hunt_cfg = Config {
        max_schedules: 10_000,
        ..config
    };
    let l = litmus::by_name("mp").expect("mp litmus exists");
    let c = Column::lanai(FeatureSet::genima());
    let hunter = Explorer::new(l, c, hunt_cfg).with_mutation(mutation);
    let hunt = hunter.run();
    let caught = hunt.violation.is_some();
    // Replaying the minimized prefix reproduces every step and the
    // violation itself.
    let replay_ok = hunt.violation.as_ref().is_some_and(|v| {
        let (steps, desc) = hunter.replay(&v.prefix);
        steps == v.steps && desc.as_deref() == Some(v.desc.as_str())
    });
    let minimized = hunt.violation.as_ref().map_or(0, |v| v.steps.len() as u64);
    let mut mutant = Json::obj();
    mutant.set("name", mutation.name().into());
    mutant.set("litmus", l.name.into());
    mutant.set("column", c.name().into());
    mutant.set("caught", caught.into());
    mutant.set("replay_ok", replay_ok.into());
    mutant.set("schedules_to_violation", hunt.schedules_to_violation.into());
    mutant.set("minimized_steps", minimized.into());
    rep.set_meta("mutant", mutant);
    rep.gate(
        "mutant: seeded bug caught",
        meta("mutant.caught"),
        "==",
        true,
    );
    let name = "mutant: minimized counterexample replays";
    rep.gate(name, meta("mutant.replay_ok"), "==", true);
    let name = "mutant: caught within 10k schedules";
    rep.gate(name, meta("mutant.schedules_to_violation"), "<", 10_000u64);
    rep
}
