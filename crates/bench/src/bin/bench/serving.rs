//! `bench serving` — open-loop serving workloads under concurrent
//! churn, with gated tail latency.
//!
//! Runs the two `genima-serve` workloads — the Zipf partitioned
//! key-value store and the graph-walk service — on all six evaluation
//! columns while [`churn_plan`] is live. Its outage windows sit far
//! below the ~38 ms retransmission give-up budget, so churn manifests
//! as retry storms and multi-millisecond stalls, not peer death;
//! degraded mode is armed anyway so an unlucky seed degrades instead
//! of aborting.
//!
//! Gates:
//!
//! * every column completes under churn and serves operations;
//! * GeNIMA and GeNIMA-2025 take **zero host interrupts** and keep
//!   merged p99 under a per-column bound ([`P99_BOUND_GENIMA`],
//!   [`P99_BOUND_2025`]) — bounded tails without any asynchronous
//!   protocol processing;
//! * Base's merged p99 is at least [`TAIL_RATIO`]× GeNIMA's on the
//!   same stream — the visible tail collapse of interrupt-driven
//!   protocol processing under churn;
//! * the generated op stream hashes identically across all six
//!   columns (the workload seam leaks nothing protocol-specific);
//! * a repeated GeNIMA run is bit-identical (seeded determinism).

use genima::RunConfig;
use genima_apps::{stream_hash, App};
use genima_fault::FaultPlan;
use genima_nic::NicId;
use genima_obs::bench::{meta, row, times};
use genima_obs::{BenchReport, Json};
use genima_proto::{Column, Topology};
use genima_serve::{GraphWalk, KvServe};
use genima_sim::{Dur, Time};

use crate::{gate_failed_runs, gate_interrupt_free, gate_six_columns, run_cell, Args, View};

pub const VIEWS: &[View] = &[View {
    title: "serving under churn: 10% drop and cycling 4 ms outages",
    kind: None,
    cols: &[
        ("workload", "workload", 0),
        ("column", "column", 0),
        ("time(ms)", "time_ms", 2),
        ("Mops", "mops_sustained", 3),
        ("p50us", "p50_us", 0),
        ("p99us", "p99_us", 0),
        ("p999us", "p999_us", 0),
        ("failed", "failed_ops", 0),
        ("retrans", "retransmits", 0),
        ("intr", "interrupts", 0),
    ],
}];

/// Merged-p99 gate for GeNIMA (1999 NI). An outage window freezes a
/// victim node for 4 ms and the firmware's retransmission backoff
/// (150 µs doubling per attempt) overshoots the window's end by up to
/// ~9.6 ms before the next retry, so ops queued behind a blackout
/// legally see tens of milliseconds. The gate — one power-of-two
/// histogram bucket above that recovery overshoot — says the tail
/// stays on the scale of the injected disturbance instead of
/// collapsing open-loop the way Base does.
const P99_BOUND_GENIMA: Dur = Dur::from_ns(1 << 25); // 33.6 ms

/// Merged-p99 gate for GeNIMA-2025: the modern RNIC recovers from the
/// same blackouts at finer timeout granularity, so its tail must stay
/// a bucket tighter.
const P99_BOUND_2025: Dur = Dur::from_ns(1 << 24); // 16.8 ms

/// Base must be at least this many times worse than GeNIMA at p99.
const TAIL_RATIO: f64 = 2.0;

/// Arrival window the ops are spread over.
const HORIZON: Dur = Dur::from_ms(40);

/// First arrival (leaves room for warmup on every column).
const START: Time = Time::from_ns(500_000);

/// Uniprocessor nodes in the cluster.
const NODES: usize = 4;

/// Key-value operations offered (the graph walk offers half as many).
const OPS: u64 = 800;

/// The churn plan: 10% drop for the whole run, plus 4 ms outage
/// windows cycling round-robin over nodes 1..n (node 0 hosts the
/// barrier manager and the first page homes, so it stays up — churn
/// hits the replicas, as maintenance drains do).
fn churn_plan() -> FaultPlan {
    let mut plan = FaultPlan::new().drop_rate(0.10);
    let window = Dur::from_ms(4);
    let gap = Dur::from_ms(4);
    let mut from = START + Dur::from_ms(2);
    let mut victim = 1usize;
    while from + window < START + HORIZON {
        plan = plan.outage(NicId::new(victim), from, from + window);
        from = from + window + gap;
        victim = victim % (NODES - 1) + 1;
    }
    plan
}

pub fn run(args: &Args) -> BenchReport {
    let topo = Topology::new(NODES, 1);
    let kv = KvServe::new(4_096, 0.99, 90, OPS, HORIZON)
        .with_seed(args.seed)
        .with_start(START);
    let walk = GraphWalk::new(8_192, 6, 0.99, OPS / 2, HORIZON)
        .with_seed(args.seed)
        .with_start(START);
    let mut rep = BenchReport::new("serving", args.seed);
    rep.set_meta("nodes", NODES as u64);
    rep.set_meta("ops", OPS);
    rep.set_meta("horizon_ms", HORIZON.as_ms());
    let mut failed = 0u64;
    let mut stream_stable = true;
    let mut repeat_identical = true;
    let workloads: [(&str, &dyn App); 2] = [("kv", &kv), ("walk", &walk)];
    for (wname, app) in workloads {
        let hash = stream_hash(app, topo);
        let mut first_row = None;
        let mut base_row = None;
        let mut genima_row = None;
        for column in Column::all() {
            let what = format!("{wname}/{}", column.name());
            // The workload seam must leak nothing protocol-specific:
            // the same app generates bit-identical traffic no matter
            // which column will consume it.
            if stream_hash(app, topo) != hash {
                eprintln!("FAIL {what}: op stream hash drifted");
                stream_stable = false;
            }
            let cfg = RunConfig::new(topo, column)
                .with_seed(args.seed)
                .with_faults(churn_plan())
                .with_degraded(true);
            let Some(out) = run_cell(&what, app, &cfg, &mut failed) else {
                continue;
            };
            let report = &out.report;
            let merged = report.serve.merged();
            let par = report.parallel_time();
            let mops = if par > Dur::ZERO {
                merged.count() as f64 / (par.as_ns() as f64 * 1e-9) / 1e6
            } else {
                0.0
            };
            let interrupt_free = column.features.interrupt_free();
            let p99_bound = if !interrupt_free {
                None
            } else if column.name() == "GeNIMA-2025" {
                Some(P99_BOUND_2025)
            } else {
                Some(P99_BOUND_GENIMA)
            };
            if column.name() == "GeNIMA" {
                // Seeded determinism: the same configuration must
                // reproduce the run bit-for-bit.
                let again = run_cell(&what, app, &cfg, &mut failed);
                if again.is_some_and(|again| {
                    again.report.finish != report.finish || again.report.serve != report.serve
                }) {
                    eprintln!("FAIL {what}: repeat run not bit-identical");
                    repeat_identical = false;
                }
            }
            let mut cell = Json::obj();
            cell.set("workload", wname.into());
            cell.set("column", column.name().into());
            cell.set("time_ms", report.parallel_time().as_ms().into());
            cell.set("mops_offered", app.spec(topo).arrival.offered_mops().into());
            cell.set("mops_sustained", mops.into());
            cell.set("p50_us", merged.p50().as_us().into());
            cell.set("p99_us", merged.p99().as_us().into());
            cell.set("p999_us", merged.p999().as_us().into());
            cell.set("p99_bound_us", p99_bound.map_or(0.0, |b| b.as_us()).into());
            cell.set("interrupts", report.counters.interrupts.into());
            cell.set("failed_ops", report.counters.failed_ops.into());
            cell.set("retransmits", report.recovery.retransmits.into());
            cell.set("mgmt_deliveries", report.recovery.mgmt_deliveries.into());
            cell.set("outage_drops", out.faults.outage_drops.into());
            cell.set("stream_hash", format!("{hash:016x}").as_str().into());
            cell.set("serve_latency", report.serve.json());
            let i = rep.push(cell);
            let name = format!("{what}: served operations");
            rep.gate(name, row(i, "mops_sustained"), ">", 0.0);
            let first = *first_row.get_or_insert(i);
            if first != i {
                let name = format!("{what}: same op stream as every other column");
                rep.gate(name, row(i, "stream_hash"), "==", row(first, "stream_hash"));
            }
            if interrupt_free {
                gate_interrupt_free(&mut rep, &what, i, "interrupts");
                let name = format!("{what}: carries a p99 bound");
                rep.gate(name, row(i, "p99_bound_us"), ">", 0.0);
                let name = format!("{what}: p99 within its bound");
                rep.gate(name, row(i, "p99_us"), "<=", row(i, "p99_bound_us"));
            }
            if column.name() == "Base" {
                base_row = Some(i);
            }
            if column.name() == "GeNIMA" {
                genima_row = Some(i);
            }
        }
        if let (Some(base), Some(genima)) = (base_row, genima_row) {
            let name =
                format!("{wname}: Base p99 >= {TAIL_RATIO}x GeNIMA's (visible tail collapse)");
            let bar = times(row(genima, "p99_us"), TAIL_RATIO);
            rep.gate(name, row(base, "p99_us"), ">=", bar);
        }
    }
    gate_six_columns(&mut rep);
    rep.set_meta("stream_hash_stable", stream_stable);
    let name = "regenerating a workload's op stream reproduces its hash";
    rep.gate(name, meta("stream_hash_stable"), "==", true);
    rep.set_meta("repeat_identical", repeat_identical);
    let name = "a repeated GeNIMA run is bit-identical";
    rep.gate(name, meta("repeat_identical"), "==", true);
    gate_failed_runs(&mut rep, failed);
    rep
}
