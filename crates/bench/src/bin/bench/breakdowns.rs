//! `bench breakdowns` — per-protocol execution-time breakdowns and
//! protocol counters: one row per (application, column) carrying the
//! parallel time, speedup, category shares and every protocol counter.
//!
//! Gates: every run completes on all six columns, and the
//! interrupt-free columns report zero host interrupts.

use genima::{sequential_time, Column, Json, RunConfig, Topology};
use genima_obs::BenchReport;

use crate::{gate_failed_runs, gate_interrupt_free, gate_six_columns, run_cell, topo_json, Args};

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
        }
    }
    gate_six_columns(&mut rep);
    gate_failed_runs(&mut rep, failed);
    rep
}
