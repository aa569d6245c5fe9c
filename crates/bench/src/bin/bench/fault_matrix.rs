//! `bench fault_matrix` — sweeps fault-injection rates across all six
//! evaluation columns: one row per (drop rate, column) with the run
//! time, recovery counters and what the injector actually did.
//!
//! For each drop rate (0 %, 1 %, 5 %, 10 %, each faulty row also
//! duplicating and delaying packets) the matrix runs Ocean under that
//! [`FaultPlan`] and replays the run's traces through the genima-check
//! protocol auditor.
//!
//! Gates: every run completes (no wedge, no livelock); every protocol
//! invariant holds under loss, duplication and reordering exactly as
//! on the clean path; GeNIMA still takes **zero** host interrupts —
//! recovery lives in the NI firmware model, so the host-free property
//! survives faults.

use genima::RunConfig;
use genima_apps::OceanRowwise;
use genima_check::run_app_audited_with;
use genima_fault::FaultPlan;
use genima_obs::bench::row;
use genima_obs::{BenchReport, Json};
use genima_proto::{Column, Topology};
use genima_sim::Dur;

use crate::{gate_failed_runs, gate_interrupt_free, Args, View};

/// Ocean grid edge.
const GRID: usize = 96;

/// Uniprocessor nodes in the cluster.
const NODES: usize = 4;

pub const VIEWS: &[View] = &[View {
    title: "fault matrix: Ocean under loss, duplication and delay, per drop rate and column",
    kind: None,
    cols: &[
        ("drop", "drop_rate", 2),
        ("column", "column", 0),
        ("time(ms)", "time_ms", 2),
        ("retrans", "retransmits", 0),
        ("dup-supp", "duplicates_suppressed", 0),
        ("inj-drop", "injected_drops", 0),
        ("inj-dup", "injected_dups", 0),
        ("inj-delay", "injected_delays", 0),
        ("intr", "interrupts", 0),
        ("audit", "audit_clean", 0),
    ],
}];

/// The sweep's fault plan at one drop rate: each faulty row also
/// duplicates and delays packets so all three recovery paths (retry
/// timers, duplicate suppression, reordering tolerance) are exercised.
fn plan_at(drop: f64) -> FaultPlan {
    if drop == 0.0 {
        FaultPlan::none()
    } else {
        FaultPlan::new()
            .drop_rate(drop)
            .duplicate_rate(drop / 2.0)
            .delay(drop, Dur::from_us(300))
    }
}

pub fn run(args: &Args) -> BenchReport {
    let app = OceanRowwise::with_grid(GRID, 2);
    let topo = Topology::new(NODES, 1);
    let mut rep = BenchReport::new("fault_matrix", args.seed);
    rep.set_meta("grid", GRID as u64);
    rep.set_meta("nodes", NODES as u64);
    let mut failed = 0u64;
    for &drop in &[0.0, 0.01, 0.05, 0.10] {
        for column in Column::all() {
            let what = format!("{} at drop {drop}", column.name());
            let cfg = RunConfig::new(topo, column)
                .with_seed(args.seed)
                .with_faults(plan_at(drop));
            let run = match run_app_audited_with(&app, &cfg) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("FAIL {what}: run aborted: {e}");
                    failed += 1;
                    continue;
                }
            };
            if !run.audit.is_clean() {
                eprintln!(
                    "FAIL {what}: {} invariant violation(s), first: {:?}",
                    run.audit.violations.len(),
                    run.audit.violations.first()
                );
            }
            let f = run.faults;
            let (recovery, interrupts) = (run.report.recovery, run.report.counters.interrupts);
            let mut cell = Json::obj();
            cell.set("drop_rate", drop.into());
            cell.set("column", column.name().into());
            cell.set("time_ms", run.report.parallel_time().as_ms().into());
            cell.set("retransmits", recovery.retransmits.into());
            cell.set(
                "duplicates_suppressed",
                recovery.duplicates_suppressed.into(),
            );
            cell.set("injected_drops", f.dropped.into());
            cell.set("injected_dups", f.duplicated.into());
            cell.set("injected_delays", f.delayed.into());
            cell.set("interrupts", interrupts.into());
            cell.set("audit_clean", run.audit.is_clean().into());
            cell.set("op_latency", run.report.op_latency.json());
            let i = rep.push(cell);
            rep.gate(
                format!("{what}: audit clean"),
                row(i, "audit_clean"),
                "==",
                true,
            );
            if column.features.interrupt_free() {
                gate_interrupt_free(&mut rep, &what, i, "interrupts");
            }
        }
    }
    gate_failed_runs(&mut rep, failed);
    rep
}
