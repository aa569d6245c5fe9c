//! `bench critpath` — causal critical-path attribution across all six
//! protocol columns: where does each operation's latency actually go?
//!
//! Every run records the full span/flow trace, reassembles per-op
//! causal DAGs with `genima-prof`, and charges each operation's window
//! to interrupt / firmware / wire / host-handler / queue-retry
//! segments: one row per application × column carrying the segment
//! totals and per-op-class p50/p95/p99 latencies.
//!
//! Gates — the attribution must keep making sense:
//!
//! * every audited op's per-segment attribution sums to its measured
//!   latency *exactly* (the sweep's core invariant), and every row's
//!   segment totals sum to its `total_ns`,
//! * traces are complete — the analyzer refuses truncated timelines,
//!   so a ring overflow is a failed run, not a footnote,
//! * the GeNIMA and GeNIMA-2025 critical paths contain **zero**
//!   interrupt-segment time, while Base shows a nonzero interrupt
//!   share — the paper's thesis, visible in the attribution itself,
//! * Ocean-rowwise on GeNIMA-2025 spends at most a tenth of GeNIMA's
//!   `queue_retry` time ([`QUEUE_RETRY_VS_1999`]).

use genima::{sequential_time, Column, FeatureSet, Json, ObsConfig, RunConfig, Topology};
use genima_obs::bench::{meta, row, row_sum, times};
use genima_obs::{BenchReport, OpClass};
use genima_prof::{profile, Segment};

use crate::{gate_failed_runs, gate_six_columns, run_cell, topo_json, Args, View};

pub const VIEWS: &[View] = &[View {
    title: "critical-path time per segment, summed over each run's ops",
    kind: None,
    cols: &[
        ("app", "app", 0),
        ("column", "column", 0),
        ("ops", "ops", 0),
        ("interrupt(ns)", "segments_ns.interrupt", 0),
        ("firmware(ns)", "segments_ns.firmware", 0),
        ("wire(ns)", "segments_ns.wire", 0),
        ("host(ns)", "segments_ns.host_handler", 0),
        ("queue(ns)", "segments_ns.queue_retry", 0),
        ("intr share", "interrupt_share", 3),
    ],
}];

/// `(app, k)`: GeNIMA-2025 spends at most `k` times GeNIMA's (1999)
/// `queue_retry` time on this application. An absolute bound, not a
/// share of the row's own total: a saving that removes diff work from
/// the total raises every remaining share. It read 0.236x while the
/// home still twinned and diffed its own pages (DESIGN.md §10.2).
const QUEUE_RETRY_VS_1999: (&str, f64) = ("Ocean-rowwise", 0.1);

/// Ring capacity for attribution runs: large enough that no node's
/// timeline truncates on the benchmark suite (the analyzer refuses
/// truncated traces, so an overflow here is a hard failure).
const ATTRIBUTION_RING: usize = 1 << 20;

pub fn run(args: &Args) -> BenchReport {
    let topo = Topology::new(4, 4);
    let mut rep = BenchReport::new("critpath", args.seed);
    rep.set_meta("topo", topo_json(topo));
    let mut failed = 0u64;
    let mut mismatched_ops = 0u64;
    for app in &args.apps {
        let seq = sequential_time(app.as_ref());
        let mut genima_1999 = None;
        for column in Column::all() {
            let what = format!("{}/{}", app.name(), column.name());
            let cfg = RunConfig::new(topo, column)
                .with_seed(args.seed)
                .with_obs(ObsConfig::with_capacity(ATTRIBUTION_RING));
            let Some(out) = run_cell(&what, app.as_ref(), &cfg, &mut failed) else {
                continue;
            };
            let prof = profile(&out.obs);
            let audited = match prof.audited_ops() {
                Ok(ops) => ops,
                Err(trunc) => {
                    eprintln!("FAIL {what}: {trunc}");
                    failed += 1;
                    continue;
                }
            };
            for op in audited {
                if op.breakdown.total() != op.latency {
                    eprintln!(
                        "FAIL {what}: op {:#x} attribution {} ns != latency {} ns",
                        op.op,
                        op.breakdown.total().as_ns(),
                        op.latency.as_ns()
                    );
                    mismatched_ops += 1;
                }
            }
            let total = prof.total_breakdown();
            let sum_ns = total.total().as_ns();
            let intr_share = if sum_ns > 0 {
                total.interrupt.as_ns() as f64 / sum_ns as f64
            } else {
                0.0
            };
            let mut cell = Json::obj();
            cell.set("app", app.name().into());
            cell.set("column", column.name().into());
            cell.set("hw", out.report.hw.into());
            cell.set("time_ms", out.report.parallel_time().as_ms().into());
            cell.set("speedup", out.report.speedup(seq).into());
            cell.set("ops", (audited.len() as u64).into());
            cell.set("total_ns", sum_ns.into());
            let mut segs = Json::obj();
            for seg in Segment::ALL {
                segs.set(seg.name(), total.get(seg).as_ns().into());
            }
            cell.set("segments_ns", segs);
            cell.set("interrupt_share", intr_share.into());
            let by_class = prof.by_class();
            let mut classes = Vec::new();
            for class in OpClass::ALL {
                let Some(summary) = by_class.get(&class) else {
                    continue;
                };
                let mut c = Json::obj();
                c.set("class", class.name().into());
                c.set("count", summary.count.into());
                c.set("p50_ns", summary.hist.p50().as_ns().into());
                c.set("p95_ns", summary.hist.p95().as_ns().into());
                c.set("p99_ns", summary.hist.p99().as_ns().into());
                classes.push(c);
            }
            cell.set("classes", Json::Arr(classes));
            let i = rep.push(cell);
            let name = format!("{what}: segments sum to total_ns");
            rep.gate(name, row_sum(i, "segments_ns"), "==", row(i, "total_ns"));
            if column.features.interrupt_free() {
                let name = format!("{what}: no interrupt time on the critical path");
                rep.gate(name, row(i, "segments_ns.interrupt"), "==", 0u64);
            }
            if column.features == FeatureSet::base() {
                let name = format!("{what}: asynchronous protocol processing shows up");
                rep.gate(name, row(i, "segments_ns.interrupt"), ">", 0u64);
            }
            let field = "segments_ns.queue_retry";
            match (column.name(), genima_1999) {
                ("GeNIMA", _) => genima_1999 = Some(i),
                ("GeNIMA-2025", Some(g)) if app.name() == QUEUE_RETRY_VS_1999.0 => {
                    let k = QUEUE_RETRY_VS_1999.1;
                    let name = format!("{what}: {field} <= {k} x {}/GeNIMA: {field}", app.name());
                    rep.gate(name, row(i, field), "<=", times(row(g, field), k));
                }
                _ => {}
            }
        }
    }
    rep.set_meta("mismatched_ops", mismatched_ops);
    let name = "every audited op's attribution sums to its latency";
    rep.gate(name, meta("mismatched_ops"), "==", 0u64);
    gate_six_columns(&mut rep);
    gate_failed_runs(&mut rep, failed);
    rep
}
