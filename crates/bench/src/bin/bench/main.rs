//! `bench <kind>` — the paper's evaluation (`bench paper`) and the
//! experiments beyond it, each a sweep that declares pass/fail gates
//! over its own rows and prints its tables from them.
//!
//! ```text
//! bench <kind> [--seed N] [--json PATH] [APP...]
//! bench show BENCH_<kind>.json
//! bench explain BEFORE.json AFTER.json [--only-column NAME] [--ignore FIELD]...
//! ```
//!
//! Every kind (one module each; its doc lists its gates) is a function
//! from [`Args`] to a [`BenchReport`] and a [`Print`] of the report's
//! JSON; argument parsing, the `--json` file, printing, gate checking
//! and the exit code live here, once. Stdout carries the tables;
//! stderr, progress and `FAIL` lines. `bench show` prints a written
//! report, so the file prints what its run printed. The process exits
//! non-zero iff `BenchReport::check` — the same call `xtask
//! obs-schema` makes on the written file — rejects the report. `APP...`
//! narrows the application sweep of `paper`, `rdma` and `critpath`;
//! `--seed` is the [`RunSeed`] every run of the sweep uses and the
//! seed the report records.

mod barrier;
mod critpath;
mod explain;
mod fault_matrix;
mod mc;
mod paper;
mod rdma;
mod serving;

use std::process::ExitCode;

use genima::{run_app_configured, ConfiguredOutcome, Json, RunConfig, Topology};
use genima_apps::{all_apps, app_by_name, App};
use genima_obs::bench::{meta, row};
use genima_obs::{BenchReport, Grid};
use genima_sim::RunSeed;

/// What every kind is given.
struct Args {
    seed: u64,
    json: Option<String>,
    apps: Vec<Box<dyn App>>,
}

type Kind = fn(&Args) -> BenchReport;

/// A report's tables, from its JSON.
type Print = fn(&Json) -> String;

const KINDS: [(&str, Kind, Print); 7] = [
    ("paper", paper::run, paper::print),
    ("fault_matrix", fault_matrix::run, |r| {
        views(r, fault_matrix::VIEWS)
    }),
    ("barrier", barrier::run, |r| views(r, barrier::VIEWS)),
    ("rdma", rdma::run, |r| views(r, rdma::VIEWS)),
    ("critpath", critpath::run, |r| views(r, critpath::VIEWS)),
    ("serving", serving::run, |r| views(r, serving::VIEWS)),
    ("mc", mc::run, mc::print),
];

/// One column of a table: its header, the dotted path of the field it
/// shows in each row, and the decimals a number prints to.
type Col<'a> = (&'a str, &'a str, usize);

/// A table of the report's rows whose `kind` is `kind` (every row when
/// `None`).
struct View {
    title: &'static str,
    kind: Option<&'static str>,
    cols: &'static [Col<'static>],
}

impl View {
    /// Whether `row` is one of this table's.
    fn selects(&self, row: &Json) -> bool {
        self.kind.is_none() || text(row, "kind") == self.kind
    }
}

/// `rows` as one table under `title`, a line per row and a column per
/// [`Col`]: a string prints as itself, a number to its decimals, and a
/// missing or `null` field as `-`.
fn table<'a>(title: &str, rows: impl IntoIterator<Item = &'a Json>, cols: &[Col]) -> String {
    let mut grid = Grid::new(cols.iter().map(|&(header, ..)| header).collect());
    for r in rows {
        let cell = |&(_, path, prec): &Col| match r.at(path) {
            Some(Json::Num(v)) => format!("{v:.prec$}"),
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Bool(b)) => b.to_string(),
            None | Some(Json::Null | Json::Arr(_) | Json::Obj(_)) => "-".to_string(),
        };
        grid.row(cols.iter().map(cell).collect());
    }
    format!("== {title}\n{}\n", grid.render())
}

/// The report's rows.
fn rows(report: &Json) -> &[Json] {
    report
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// The string at `key` in `row`.
fn text<'a>(row: &'a Json, key: &str) -> Option<&'a str> {
    row.get(key).and_then(Json::as_str)
}

/// Each of `views` over the report's rows, in order.
fn views(report: &Json, views: &[View]) -> String {
    let view = |v: &View| {
        let of = rows(report).iter().filter(|r| v.selects(r));
        table(v.title, of, v.cols)
    };
    views.iter().map(view).collect()
}

fn usage() -> ! {
    let kinds: Vec<&str> = KINDS.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "usage: bench <kind> [--seed N] [--json PATH] [APP...]\nkinds: {}\n       \
         bench show BENCH_<kind>.json\n       \
         bench explain BEFORE.json AFTER.json [--only-column NAME] [--ignore FIELD]...",
        kinds.join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> (&'static str, Kind, Print, Args) {
    let mut it = std::env::args().skip(1);
    let name = it.next().unwrap_or_else(|| usage());
    let Some(&(name, kind, print)) = KINDS.iter().find(|(k, ..)| *k == name) else {
        eprintln!("unknown kind: {name}");
        usage()
    };
    let mut args = Args {
        seed: RunSeed::default().value(),
        json: None,
        apps: Vec::new(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.seed = v.parse().unwrap_or_else(|_e| usage());
            }
            "--json" => args.json = Some(it.next().unwrap_or_else(|| usage())),
            app => match app_by_name(app) {
                Some(app) => args.apps.push(app),
                None => {
                    eprintln!("unknown app: {app}");
                    usage()
                }
            },
        }
    }
    if args.apps.is_empty() {
        args.apps = all_apps();
    }
    (name, kind, print, args)
}

/// Runs one cell of a sweep. An aborted run is reported and counted in
/// `failed` instead of ending the process, so the rest of the sweep
/// still runs; [`gate_failed_runs`] turns the count into a gate.
fn run_cell(
    what: &str,
    app: &dyn App,
    cfg: &RunConfig,
    failed: &mut u64,
) -> Option<ConfiguredOutcome> {
    match run_app_configured(app, cfg) {
        Ok(out) => Some(out),
        Err(e) => {
            eprintln!("FAIL {what}: run aborted: {e}");
            *failed += 1;
            None
        }
    }
}

/// Records how many cells of the sweep produced no usable run and
/// gates the count at zero — a missing row must fail the report, not
/// silently shrink it.
fn gate_failed_runs(rep: &mut BenchReport, failed: u64) {
    rep.set_meta("failed_runs", failed);
    rep.gate("every run completed", meta("failed_runs"), "==", 0u64);
}

/// Records how many distinct evaluation columns have rows and gates
/// the count at all six.
fn gate_six_columns(rep: &mut BenchReport) {
    let columns: std::collections::BTreeSet<&str> = rep
        .rows()
        .iter()
        .filter_map(|r| r.get("column")?.as_str())
        .collect();
    let columns = columns.len() as u64;
    rep.set_meta("columns", columns);
    rep.gate("all six columns present", meta("columns"), "==", 6u64);
}

/// The paper's headline claim as a gate on row `i`: no host interrupts.
fn gate_interrupt_free(rep: &mut BenchReport, what: &str, i: usize, field: &str) {
    let name = format!("{what}: zero host interrupts");
    rep.gate(name, row(i, field), "==", 0u64);
}

fn topo_json(topo: Topology) -> Json {
    let mut t = Json::obj();
    t.set("nodes", Json::u64(topo.nodes as u64));
    t.set("procs_per_node", Json::u64(topo.procs_per_node as u64));
    t
}

/// Prints `report`'s tables, then checks it: the summary line, or each
/// failed gate and a failing exit.
fn finish(name: &str, print: Print, report: &Json) -> ExitCode {
    print!("{}", print(report));
    match BenchReport::check(report) {
        Ok(()) => {
            let gates = report
                .get("gates")
                .and_then(Json::as_arr)
                .unwrap_or_default();
            let (gates, rows) = (gates.len(), rows(report).len());
            println!("bench {name}: {gates} gates hold over {rows} rows");
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("FAIL {e}");
            }
            eprintln!("bench {name}: {} failure(s)", errors.len());
            ExitCode::FAILURE
        }
    }
}

/// `bench show FILE`: a written report's tables and its check, as the
/// run that wrote it printed them.
fn show(path: &str) -> ExitCode {
    let report = explain::load(path).and_then(|report| {
        let bench = report.get("bench").and_then(Json::as_str);
        let kind = KINDS.iter().find(|(name, ..)| Some(*name) == bench);
        let kind = kind.ok_or(format!("{path}: not the report of a bench kind"))?;
        Ok((kind, report))
    });
    match report {
        Ok((&(name, _, print), report)) => finish(name, print, &report),
        Err(e) => {
            eprintln!("FAIL bench show: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("explain") => return explain::main(argv),
        Some("show") => return show(&argv.next().unwrap_or_else(|| usage())),
        Some(_) | None => {}
    }
    let (name, kind, print, args) = parse_args();
    let json = kind(&args).to_json();
    if let Some(path) = &args.json {
        match std::fs::write(path, json.dump() + "\n") {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    finish(name, print, &json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One data line per row of the view's kind, `-` where a field is
    /// missing or `null`, numbers to their column's decimals.
    #[test]
    fn a_view_prints_its_kind_of_row_to_each_columns_precision() {
        let report = Json::parse(
            r#"{"rows": [
                {"kind": "cell", "app": "FFT", "ratio": {"lanai": 1.26}, "n": 3},
                {"kind": "size", "app": "FFT"},
                {"kind": "cell", "app": "LU", "ratio": {"lanai": null}, "n": 4}
            ]}"#,
        )
        .expect("parse");
        let cols = &[
            ("app", "app", 0),
            ("lanai", "ratio.lanai", 1),
            ("n", "n", 2),
        ];
        let cells = View {
            title: "cells",
            kind: Some("cell"),
            cols,
        };
        let words = |text: &str| -> Vec<Vec<String>> {
            let words = |l: &str| l.split_whitespace().map(String::from).collect();
            text.lines().map(words).collect()
        };
        let out = words(&views(&report, &[cells]));
        assert_eq!(out[0], ["==", "cells"]);
        assert_eq!(out[1], ["app", "lanai", "n"]);
        assert_eq!(
            out[3..],
            [vec!["FFT", "1.3", "3.00"], vec!["LU", "-", "4.00"], vec![]]
        );
        // A missing field prints as a null one does.
        let size = report.at("rows").and_then(|r| r.idx(1));
        assert_eq!(words(&table("sizes", size, cols))[3], ["FFT", "-", "-"]);
    }

    #[test]
    fn show_prints_one_line_per_row_of_every_checked_in_report() {
        let views: [(&str, &[View]); 7] = [
            ("paper", paper::VIEWS),
            ("fault_matrix", fault_matrix::VIEWS),
            ("barrier", barrier::VIEWS),
            ("rdma", rdma::VIEWS),
            ("critpath", critpath::VIEWS),
            ("serving", serving::VIEWS),
            ("mc", mc::VIEWS),
        ];
        for ((name, _, print), (viewed, views)) in KINDS.into_iter().zip(views) {
            assert_eq!(name, viewed);
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let report = explain::load(&path).expect("a checked-in report");
            assert!(BenchReport::check(&report).is_ok(), "{path}");
            let out = print(&report);
            for v in views {
                let selected = rows(&report).iter().filter(|r| v.selects(r)).count();
                assert!(selected > 0, "{name}: `{}` selects no row", v.title);
                let section = out
                    .split("== ")
                    .find(|s| s.lines().next() == Some(v.title))
                    .unwrap_or_else(|| panic!("{name}: no `{}` in\n{out}", v.title));
                // Title, header, rule, the rows, a blank line.
                assert_eq!(section.lines().count(), selected + 4, "{name}:\n{section}");
            }
        }
    }
}
