//! `bench breakdowns` — per-protocol execution-time breakdowns and
//! protocol counters: one row per (application, column) carrying the
//! parallel time, speedup, category shares and every protocol counter.
//!
//! Gates: every run completes on all six columns, the interrupt-free
//! columns report zero host interrupts, and Ocean's lock share sits on
//! the side of [`LOCK_SHARE`] its column's release order puts it.

use genima::{sequential_time, Column, Json, RunConfig, Topology};
use genima_obs::bench::row;
use genima_obs::BenchReport;

use crate::{gate_failed_runs, gate_interrupt_free, gate_six_columns, run_cell, topo_json, Args};

/// `(app, column, op, bound)` on `shares.lock`: a GeNIMA-2025 release
/// hands the lock over before it diffs and re-protects, so Ocean's
/// one-word critical section no longer waits on 65 pages of diffs
/// (0.189 while it did); the 1999 column keeps the paper's order and
/// with it the critical-section dilation §3.3 reports (DESIGN.md §28).
const LOCK_SHARE: [(&str, &str, &str, f64); 2] = [
    ("Ocean-rowwise", "GeNIMA-2025", "<=", 0.10),
    ("Ocean-rowwise", "GeNIMA", ">=", 0.15),
];

pub fn run(args: &Args) -> BenchReport {
    let topo = Topology::new(4, 4);
    let mut rep = BenchReport::new("breakdowns", args.seed);
    rep.set_meta("topo", topo_json(topo));
    let mut failed = 0u64;
    for app in &args.apps {
        let seq = sequential_time(app.as_ref());
        println!("== {} (seq {:?})", app.name(), seq);
        for column in Column::all() {
            let cfg = RunConfig::from_column(topo, column).with_seed(args.seed);
            let what = format!("{}/{}", app.name(), column.name());
            let Some(r) = run_cell(&what, app.as_ref(), &cfg, &mut failed) else {
                continue;
            };
            let b = r.report.mean_breakdown();
            let c = r.report.counters;
            println!(
                "  {:9} su={:5.2} cmp={:7.1}ms dat={:7.1}ms lck={:7.1}ms ar={:6.1}ms bar={:7.1}ms bp={:6.1}ms | flt={} xfer={} retry={} int={} diffs={} runs={} ntc={} mpro={:5.1}ms",
                column.name(), r.report.speedup(seq),
                b.compute.as_ms(), b.data.as_ms(), b.lock.as_ms(), b.acqrel.as_ms(), b.barrier.as_ms(), b.barrier_protocol.as_ms(),
                c.faults, c.page_transfers, c.fetch_retries, c.interrupts, c.diffs, c.diff_run_messages, c.notice_messages,
                b.mprotect.as_ms(),
            );
            let full = r.report.to_json_value();
            let mut cell = Json::obj();
            cell.set("app", app.name().into());
            cell.set("column", column.name().into());
            cell.set("sequential_ms", seq.as_ms().into());
            cell.set("parallel_ms", r.report.parallel_time().as_ms().into());
            cell.set("speedup", r.report.speedup(seq).into());
            for key in ["shares", "counters"] {
                let part = full.get(key).expect("report JSON always has both");
                cell.set(key, part.clone());
            }
            let i = rep.push(cell);
            if column.features.interrupt_free() {
                gate_interrupt_free(&mut rep, &what, i, "counters.interrupts");
            }
            for (a, c, op, bound) in LOCK_SHARE {
                if (a, c) == (app.name(), column.name()) {
                    let name = format!("{what}: shares.lock {op} {bound}");
                    rep.gate(name, row(i, "shares.lock"), op, bound);
                }
            }
        }
    }
    gate_six_columns(&mut rep);
    gate_failed_runs(&mut rep, failed);
    rep
}
