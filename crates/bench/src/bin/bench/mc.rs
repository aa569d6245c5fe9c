//! `bench mc` — model-checking sweep: exhaustively explores the CI
//! litmus corpus on every protocol column, bounds the extended classic
//! shapes, calibrates DPOR pruning against naive enumeration on the
//! lock-handoff litmus, and demonstrates the seeded-mutant catch.
//!
//! The extended rows and the naive calibration take tens of minutes
//! of single-core time, so this kind rides CI's `mc-smoke` job instead
//! of the bench matrix.
//!
//! Gates: no exploration finds a violation or hits the depth bound;
//! every CI-corpus cell is an exhaustive proof (only the extended
//! classics may report bounded coverage); DPOR prunes the calibration
//! cell at least 5× against naive enumeration while exhausting it; the
//! seeded mutant is caught within 10k schedules and its minimized
//! counterexample replays.

use std::time::Instant;

use genima_mc::{corpus, litmus, Config, Explorer, Litmus, Mode, ScheduleTrace};
use genima_obs::bench::{meta, row};
use genima_obs::{BenchReport, Json};
use genima_proto::{Column, FeatureSet, Mutation};

use crate::Args;

/// Schedule cap for the extended (classic, large) shapes: enough for
/// `sb` and `lock-handoff` to exhaust on Base, a bounded sweep
/// elsewhere.
const EXT_CAP: u64 = 1_000_000;

/// Naive-enumeration budget for the prune-ratio calibration. DPOR
/// exhausts lock-handoff on Base in ~800k schedules; naive enumeration
/// still isn't done at five times that, so the reported ratio is a
/// lower bound.
const NAIVE_CAP: u64 = 4_000_000;

/// Explores one (litmus, column) cell, prints its table line and
/// pushes its row and gates.
fn explore_row(rep: &mut BenchReport, l: Litmus, c: Column, config: Config, tier: &str) {
    let start = Instant::now();
    let run = Explorer::new(l, c, config).run();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let per_sec = run.schedules as f64 / secs;
    let what = format!("{}/{}", l.name, c.name());
    println!(
        "{:<20} {:>9} {:>12} {:>9} {:>10} {:>9.0} {:>11}",
        what,
        run.schedules,
        run.sleep_blocked,
        run.outcomes.len(),
        run.steps_total,
        per_sec,
        if run.exhaustive() {
            "exhaustive"
        } else {
            "bounded"
        },
    );
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
    cell.set("states_per_sec", per_sec.into());
    cell.set("races_precise", run.races_precise.into());
    cell.set("races_fallback", run.races_fallback.into());
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
    if tier == "ci" {
        let name = format!("{what}: exhaustive proof");
        rep.gate(name, row(i, "exhaustive"), "==", true);
    }
}

pub fn run(args: &Args) -> BenchReport {
    let config = Config::default();
    let mut rep = BenchReport::new("mc", args.seed);

    println!(
        "{:<20} {:>9} {:>12} {:>9} {:>10} {:>9} {:>11}",
        "litmus/column", "scheds", "sleep-pruned", "outcomes", "steps", "sched/s", "coverage"
    );
    // CI corpus: every cell must exhaust on every column.
    for l in corpus() {
        for c in Column::all() {
            explore_row(&mut rep, l, c, config, "ci");
        }
    }
    rep.set_meta("ci_rows", rep.rows().len() as u64);
    let name = "the full CI litmus x column grid ran";
    rep.gate(name, meta("ci_rows"), ">=", 10u64);
    // Extended classics: exhaustive where the cap allows (Base),
    // bounded on the NI-rich end.
    let ext_cfg = Config {
        max_schedules: EXT_CAP,
        ..config
    };
    for l in litmus::extended() {
        for c in [
            Column::lanai(FeatureSet::base()),
            Column::lanai(FeatureSet::genima()),
            Column::genima_2025(),
        ] {
            explore_row(&mut rep, l, c, ext_cfg, "extended");
        }
    }

    // Calibrate DPOR pruning against naive enumeration on the
    // lock-handoff litmus, Base column — the cell where DPOR itself
    // completes an exhaustive proof.
    let lh = litmus::by_name("lock-handoff").expect("lock-handoff litmus exists");
    let base = Column::lanai(FeatureSet::base());
    let dpor = Explorer::new(lh, base, ext_cfg).run();
    let naive_cfg = Config {
        mode: Mode::Naive,
        max_schedules: NAIVE_CAP,
        ..config
    };
    let naive = Explorer::new(lh, base, naive_cfg).run();
    let ratio = naive.schedules as f64 / dpor.schedules.max(1) as f64;
    println!(
        "lock-handoff/Base calibration: dpor {} ({}), naive {} schedules{} -> prune ratio {:.1}x{}",
        dpor.schedules,
        if dpor.exhaustive() {
            "exhaustive"
        } else {
            "bounded"
        },
        naive.schedules,
        if naive.budget_exhausted {
            " (capped)"
        } else {
            ""
        },
        ratio,
        if naive.budget_exhausted {
            " (lower bound)"
        } else {
            ""
        },
    );
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
    let start = Instant::now();
    let hunt = Explorer::new(l, c, hunt_cfg).with_mutation(mutation).run();
    let caught = hunt.violation.is_some();
    let replay_ok = hunt.violation.as_ref().is_some_and(|v| {
        ScheduleTrace::new(l.name, c.name(), Some(mutation), v)
            .verify()
            .is_ok()
    });
    println!(
        "mutant {}: {} after {} schedules in {:.2}s (replay {})",
        mutation.name(),
        if caught { "caught" } else { "MISSED" },
        hunt.schedules,
        start.elapsed().as_secs_f64(),
        if replay_ok { "ok" } else { "FAILED" },
    );
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
