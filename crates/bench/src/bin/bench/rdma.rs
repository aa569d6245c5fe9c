//! `bench rdma` — the 1999-vs-2025 hardware comparison: runs the full
//! GeNIMA protocol on the LANai hardware profile and on the modern
//! RNIC profile over the application suite and reports what a quarter
//! century of NI hardware buys the *same* protocol code: one row per
//! (application, hardware profile) carrying the parallel time, speedup
//! over the sequential run, the host-interrupt count, and the RNIC's
//! own counters (doorbells rung, CQEs posted, ODP faults taken).
//!
//! Gates — the comparison must keep making sense:
//!
//! * both profiles take **zero** host interrupts (the full GeNIMA
//!   feature set is interrupt-free on any hardware),
//! * the RNIC rows show doorbell and CQE activity, the LANai rows
//!   none,
//! * GeNIMA-2025 beats GeNIMA-1999 on simulated time for every
//!   application — if modern hardware loses to a 33 MHz LANai, the
//!   model is wrong,
//! * and by at least the floor [`VS_1999_FLOORS`] sets where a 2025
//!   model fix bought it: 2.25x on Ocean-rowwise, whose 2025 time was
//!   lock wait until the release stopped diffing inside the critical
//!   section (DESIGN.md §10.1), then the home's diffs of its own pages
//!   until it wrote them in place (§10.2), then a fault per page of every
//!   rewrite until a run re-opened whole (§10.3), then a fault inside
//!   every critical section until an acquire re-opened the page its
//!   last holding wrote (§10.4); 2x on FFT, 2.8x on Radix-local and
//!   1.07x on LU-contiguous, whose page fetches queued behind ODP
//!   faults until a fault parked its queue pair instead of the whole
//!   NIC (§10.6) and then waited out a fault per page until the home
//!   advised its NIC of every page it closed in place (§10.5),
//! * and, on the applications whose homes write every page before any
//!   remote process reads it (FFT, LU-contiguous, Ocean-rowwise), no
//!   RNIC ODP fault in the measured region at all (§10.5).

use genima::{sequential_time, Column, FeatureSet, Json, RunConfig, Topology};
use genima_obs::bench::row;
use genima_obs::BenchReport;

use crate::{gate_failed_runs, gate_interrupt_free, run_cell, topo_json, Args, View};

pub const VIEWS: &[View] = &[View {
    title: "the GeNIMA protocol on 1999 and 2025 NI hardware",
    kind: None,
    cols: &[
        ("app", "app", 0),
        ("hw", "hw", 0),
        ("time(ms)", "time_ms", 2),
        ("speedup", "speedup", 2),
        ("vs-1999", "speedup_vs_1999", 2),
        ("intr", "interrupts", 0),
        ("doorbells", "doorbells", 0),
        ("cqes", "cqes", 0),
        ("odp", "odp_faults", 0),
    ],
}];

/// `(app, floor)` on `speedup_vs_1999`: the least the RNIC must buy an
/// application since a 2025 model fix removed what held it back.
const VS_1999_FLOORS: [(&str, f64); 4] = [
    // Lock wait: a GeNIMA-2025 release hands the lock over before it
    // diffs and re-protects (1.017 while it diffed first), the home
    // writes its own pages in place (1.577 while it diffed them), a
    // rewrite of a home run re-opens it in one fault (2.037 while every
    // page faulted), and a re-acquire re-opens the home page its last
    // holding wrote while the request is in flight (2.198 while the
    // critical section faulted on it).
    ("Ocean-rowwise", 2.25),
    // Data wait: an ODP fault parks its queue pair, not the home's
    // whole receive engine (1.103 and 1.379 while it held the engine),
    // and the home advises its NIC of the pages it closes in place, so
    // their first remote fetch takes no fault (1.661, 2.202 and 1.063
    // while every first fetch faulted).
    ("FFT", 2.0),
    ("Radix-local", 2.8),
    ("LU-contiguous", 1.07),
];

/// Applications whose homes write every page in place before any remote
/// process reads it: the home's prefetch advice leaves their
/// GeNIMA-2025 runs no ODP fault after the warm-up (6 144, 8 160 and 12
/// while every first remote fetch faulted).
const NO_ODP_FAULT: [&str; 3] = ["FFT", "LU-contiguous", "Ocean-rowwise"];

pub fn run(args: &Args) -> BenchReport {
    let topo = Topology::new(4, 4);
    let columns = [Column::lanai(FeatureSet::genima()), Column::genima_2025()];
    let mut rep = BenchReport::new("rdma", args.seed);
    rep.set_meta("topo", topo_json(topo));
    let mut failed = 0u64;
    for app in &args.apps {
        let seq = sequential_time(app.as_ref());
        let mut lanai_ms = 0.0f64;
        for column in columns {
            let what = format!("{}/{}", app.name(), column.name());
            let cfg = RunConfig::new(topo, column).with_seed(args.seed);
            let Some(out) = run_cell(&what, app.as_ref(), &cfg, &mut failed) else {
                continue;
            };
            let r = &out.report;
            let ms = r.parallel_time().as_ms();
            let vs_1999 = if column.hw.is_rdma() && ms > 0.0 {
                lanai_ms / ms
            } else {
                lanai_ms = ms;
                1.0
            };
            let mut cell = Json::obj();
            cell.set("app", app.name().into());
            cell.set("column", column.name().into());
            cell.set("hw", r.hw.into());
            cell.set("time_ms", ms.into());
            cell.set("speedup", r.speedup(seq).into());
            cell.set("speedup_vs_1999", vs_1999.into());
            cell.set("interrupts", r.counters.interrupts.into());
            cell.set("doorbells", r.ni.doorbells.into());
            cell.set("cqes", r.ni.cqes.into());
            cell.set("odp_faults", r.ni.odp_faults.into());
            cell.set("op_latency", r.op_latency.json());
            let i = rep.push(cell);
            gate_interrupt_free(&mut rep, &what, i, "interrupts");
            if column.hw.is_rdma() {
                for counter in ["doorbells", "cqes"] {
                    let name = format!("{what}: RNIC {counter} moved");
                    rep.gate(name, row(i, counter), ">", 0u64);
                }
                let name = format!("{}: 2025 hardware beats 1999", app.name());
                rep.gate(name, row(i, "speedup_vs_1999"), ">", 1.0);
                for (floored, floor) in VS_1999_FLOORS {
                    if app.name() == floored {
                        let name = format!("{floored}: speedup_vs_1999 >= {floor}");
                        rep.gate(name, row(i, "speedup_vs_1999"), ">=", floor);
                    }
                }
                if NO_ODP_FAULT.contains(&app.name()) {
                    let name = format!("{what}: no ODP fault");
                    rep.gate(name, row(i, "odp_faults"), "==", 0u64);
                }
            } else {
                for counter in ["doorbells", "cqes", "odp_faults"] {
                    let name = format!("{what}: no RNIC {counter} on the LANai");
                    rep.gate(name, row(i, counter), "==", 0u64);
                }
            }
        }
    }
    gate_failed_runs(&mut rep, failed);
    rep
}
