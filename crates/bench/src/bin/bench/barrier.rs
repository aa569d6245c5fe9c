//! `bench barrier` — barrier latency versus node count, host-managed
//! node-0 manager versus NI-tree collectives.
//!
//! The workload is a synthetic barrier storm ([`BarrierStorm`]).
//! Everything except the barrier implementation is held fixed (GeNIMA
//! feature column), so the sweep isolates the host-barrier vs
//! NI-barrier axis: `host` is the node-0 manager (O(nodes) serialized
//! host messages per episode), `ni-tree-K` the k-ary NI-tree
//! collective (O(log_K nodes) firmware hops, no host messages). A tree
//! contribution is the node's joined vector clock, one lane per
//! processor; the write notices travel as their own deposits on both
//! paths, and every exit waits for the ones its clock names.
//!
//! Gates: the best NI-tree fanout beats the host manager at 16 nodes
//! and beyond, no run takes a host interrupt, and no NI-tree run sends
//! a barrier-manager message. (A fanout-2 tree is legitimately slower
//! than the manager at 32+ nodes — depth log2(n) with a firmware
//! combine per hop — which is why fanout is a swept parameter and the
//! protocol default is 4.)

use genima::{BarrierImpl, FeatureSet, RunConfig, RunReport, Topology};
use genima_apps::{App, Arrival, Layout, OpsBuilder, WorkloadSpec};
use genima_obs::bench::row;
use genima_obs::{BenchReport, Json};
use genima_proto::BarrierId;

use crate::{gate_failed_runs, gate_interrupt_free, run_cell, Args, View};

/// Measured barrier episodes per run.
const ITERS: usize = 12;

pub const VIEWS: &[View] = &[View {
    title: "barrier latency per episode versus node count",
    kind: None,
    cols: &[
        ("nodes", "nodes", 0),
        ("mode", "mode", 0),
        ("barrier(us)", "barrier_us", 2),
        ("time(ms)", "time_ms", 2),
        ("mgr-msgs", "manager_msgs", 0),
        ("intr", "interrupts", 0),
    ],
}];

/// Synthetic barrier-dominated workload: each process writes its own
/// page (so write notices ride every episode), computes a sliver, and
/// joins the next barrier. Barrier 0 is the warmup barrier, so
/// statistics cover exactly `iters` measured episodes.
struct BarrierStorm {
    iters: usize,
}

impl App for BarrierStorm {
    fn name(&self) -> &'static str {
        "Barrier-storm"
    }

    fn problem(&self) -> String {
        format!("{} episodes", self.iters)
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let nprocs = topo.procs();
        let mut layout = Layout::new();
        let pages = layout.alloc_pages(nprocs);
        let mut sources = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut b = OpsBuilder::new();
            b.barrier(0);
            for i in 0..self.iters {
                // A deterministic sliver of imbalance so arrivals are
                // staggered, as in a real iteration.
                b.compute_us(5.0 + 0.25 * (p as f64));
                b.write(pages.page(p).base(), 64);
                b.barrier(1 + i);
            }
            sources.push(b.into_source());
        }
        WorkloadSpec {
            sources,
            homes: pages.homes_blocked(topo),
            locks: 1,
            bus_demand_per_proc: 0,
            warmup_barrier: Some(BarrierId::new(0)),
            arrival: Arrival::Closed,
        }
    }
}

/// Mean per-episode barrier time across processes, in microseconds.
fn barrier_us(report: &RunReport, iters: usize) -> f64 {
    report.mean_breakdown().barrier.as_us() / iters as f64
}

fn mode_name(barrier: BarrierImpl) -> String {
    match barrier {
        BarrierImpl::HostManager => "host".to_string(),
        BarrierImpl::NiTree { fanout } => format!("ni-tree-{fanout}"),
    }
}

pub fn run(args: &Args) -> BenchReport {
    let app = BarrierStorm { iters: ITERS };
    let modes = [
        BarrierImpl::HostManager,
        BarrierImpl::NiTree { fanout: 2 },
        BarrierImpl::NiTree { fanout: 4 },
        BarrierImpl::NiTree { fanout: 8 },
    ];
    let mut rep = BenchReport::new("barrier", args.seed);
    rep.set_meta("iters", ITERS as u64);
    let mut failed = 0u64;
    for &nodes in &[4usize, 8, 16, 32, 64] {
        let mut host_row = None;
        // (barrier_us, row index) of the fastest NI-tree fanout.
        let mut best_ni: Option<(f64, usize)> = None;
        for &mode in &modes {
            let what = format!("{} at {nodes} nodes", mode_name(mode));
            let cfg = RunConfig::new(Topology::new(nodes, 1), FeatureSet::genima())
                .with_seed(args.seed)
                .with_barrier(mode);
            let Some(run) = run_cell(&what, &app, &cfg, &mut failed) else {
                continue;
            };
            if let Err(e) = run.report.validate(&cfg.params.features) {
                eprintln!("FAIL {what}: {e}");
                failed += 1;
            }
            let us = barrier_us(&run.report, ITERS);
            let fanout = match mode {
                BarrierImpl::HostManager => 0,
                BarrierImpl::NiTree { fanout } => fanout as u64,
            };
            let mut cell = Json::obj();
            cell.set("nodes", (nodes as u64).into());
            cell.set("mode", mode_name(mode).as_str().into());
            cell.set("fanout", fanout.into());
            cell.set("barrier_us", us.into());
            cell.set("time_ms", run.report.parallel_time().as_ms().into());
            cell.set("barriers", run.report.counters.barriers.into());
            cell.set(
                "manager_msgs",
                run.report.counters.barrier_manager_msgs.into(),
            );
            cell.set("interrupts", run.report.counters.interrupts.into());
            cell.set("ni_barrier", run.report.ni_barrier.into());
            let i = rep.push(cell);
            gate_interrupt_free(&mut rep, &what, i, "interrupts");
            match mode {
                BarrierImpl::HostManager => host_row = Some(i),
                BarrierImpl::NiTree { .. } => {
                    let name = format!("{what}: zero barrier-manager messages");
                    rep.gate(name, row(i, "manager_msgs"), "==", 0u64);
                    if best_ni.is_none_or(|(b, _)| us < b) {
                        best_ni = Some((us, i));
                    }
                }
            }
        }
        if let (true, Some(host), Some((_, ni))) = (nodes >= 16, host_row, best_ni) {
            let name = format!("best NI tree beats the host manager at {nodes} nodes");
            rep.gate(name, row(ni, "barrier_us"), "<", row(host, "barrier_us"));
        }
    }
    gate_failed_runs(&mut rep, failed);
    rep
}
