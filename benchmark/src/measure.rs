//! From passes to metrics: the end-to-end set, the output checks, the
//! traced pass and the per-layer ledger.

use std::time::Instant;

use genima::RunReport;
use genima_nic::{Monitor, SizeClass, Stage};
use genima_obs::ObsConfig;
use genima_prof::Segment;
use genima_sim::{Histogram, Time};

use crate::kernels::KernelNs;
use crate::runner::{execute, fingerprint, stream_count, stream_count_and_hash, Pass, RunData};
use crate::spans::Spans;
use crate::stats::{self, LoadPoint};
use crate::workloads::{Col, Kind, RunSpec, Workload, SWEEP_CAPACITY_KOPS, SWEEP_LATENCY_KOPS};

/// Name and unit of one reported metric. Simulated-clock units carry a
/// `sim_` prefix; a bare `s`, `ms` or `ns` is always the host clock.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, reported by every workload with tracing
/// off. `BENCHMARK.json` lists the same names with their bounds.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("heap_allocs", "count"),
    def("heap_alloc_mb", "MB"),
    def("peak_heap_mb", "MB"),
    def("ok_op_share", "fraction"),
    def("sim_time_ms", "sim_ms"),
    def("sim_speedup_vs_base", "ratio"),
    def("sim_speedup_2025_vs_1999", "ratio"),
    def("op_p50_us", "sim_us"),
    def("op_p99_us", "sim_us"),
    def("sim_kops", "kops/sim_s"),
];

/// The per-layer ledger, reported by every workload with tracing on.
pub const PER_LAYER: &[MetricDef] = &[
    def("host.wall_s", "s"),
    def("sim.queue_hold_ns", "ns"),
    def("sim.hist_record_ns", "ns"),
    def("sim.resource_reserve_ns", "ns"),
    def("sim.events", "count"),
    def("sim.host_ns_per_event", "ns"),
    def("sim.host_ns_per_event.base", "ns"),
    def("sim.host_ns_per_event.genima2025", "ns"),
    def("sim.allocs_per_event", "count"),
    def("sim.queue_est_share", "fraction"),
    def("net.transfer_ns", "ns"),
    def("net.packets", "count"),
    def("net.bytes", "B"),
    def("net.est_share", "fraction"),
    def("nic.deposit_ns", "ns"),
    def("nic.fetch_ns", "ns"),
    def("nic.lock_pair_ns", "ns"),
    def("nic.coll_barrier_ns", "ns"),
    def("rnic.deposit_ns", "ns"),
    def("rnic.cas_pair_ns", "ns"),
    def("nic.retransmits", "count"),
    def("nic.dup_drops", "count"),
    def("nic.mgmt_deliveries", "count"),
    def("nic.doorbells", "count"),
    def("nic.cqes", "count"),
    def("nic.odp_faults", "count"),
    def("nic.stage_ratio.source", "ratio"),
    def("nic.stage_ratio.lanai", "ratio"),
    def("nic.stage_ratio.net", "ratio"),
    def("nic.stage_ratio.dest", "ratio"),
    def("nic.est_share", "fraction"),
    def("coll.epoch_ns", "ns"),
    def("coll.epochs", "count"),
    def("mem.diff_sparse_ns", "ns"),
    def("mem.diff_dense_ns", "ns"),
    def("mem.diff_tracked_ns", "ns"),
    def("mem.diff_apply_ns", "ns"),
    def("mem.pool_copy_ns", "ns"),
    def("mem.dirty_add_ns", "ns"),
    def("mem.diffs", "count"),
    def("mem.diff_run_messages", "count"),
    def("mem.page_transfers", "count"),
    def("mem.mprotect_calls", "count"),
    def("mem.invalidations", "count"),
    def("mem.diff_est_share", "fraction"),
    def("mem.pool_est_share", "fraction"),
    def("proto.faults", "count"),
    def("proto.fetch_retries", "count"),
    def("proto.intervals", "count"),
    def("proto.notice_messages", "count"),
    def("proto.remote_lock_acquires", "count"),
    def("proto.interrupts.base", "count"),
    def("proto.sim_share.compute", "fraction"),
    def("proto.sim_share.data", "fraction"),
    def("proto.sim_share.lock", "fraction"),
    def("proto.sim_share.acqrel", "fraction"),
    def("proto.sim_share.barrier", "fraction"),
    def("proto.sim_share.mprotect", "fraction"),
    def("proto.unattributed_share", "fraction"),
    def("apps.gen_ns_per_op", "ns"),
    def("apps.ops", "count"),
    def("apps.gen_est_share", "fraction"),
    def("serve.zipf_sample_ns", "ns"),
    def("serve.arrival_ns", "ns"),
    def("serve.sustained_over_offered", "ratio"),
    def("serve.finish_over_last_due", "ratio"),
    def("serve.p999_us", "sim_us"),
    def("serve.knee_kops", "kops"),
    def("serve.knee_kops.base", "kops"),
    def("serve.knee_kops.genima2025", "kops"),
    def("serve.capacity_kops.base", "kops/sim_s"),
    def("serve.capacity_kops.genima2025", "kops/sim_s"),
    def("fault.decide_ns", "ns"),
    def("fault.packets", "count"),
    def("fault.drops", "count"),
    def("fault.outage_drops", "count"),
    def("fault.dups", "count"),
    def("fault.est_share", "fraction"),
    def("obs.record_ns", "ns"),
    def("obs.spans", "count"),
    def("obs.dropped", "count"),
    def("obs.trace_overhead_ratio", "ratio"),
    def("prof.ops", "count"),
    def("prof.profile_ns_per_span", "ns"),
    def("prof.seg_share.interrupt", "fraction"),
    def("prof.seg_share.firmware", "fraction"),
    def("prof.seg_share.wire", "fraction"),
    def("prof.seg_share.host_handler", "fraction"),
    def("prof.seg_share.queue_retry", "fraction"),
    def("prof.seg_share.interrupt.base", "fraction"),
];

/// Metric values in the order of their definitions.
pub type Values = Vec<(&'static MetricDef, f64)>;

/// Collects one value per definition; a metric set twice, never, or
/// under an unknown name is a bug in this file.
struct Collector {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Collector {
    fn new(defs: &'static [MetricDef]) -> Collector {
        Collector {
            defs,
            values: vec![None; defs.len()],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not defined"));
        assert!(self.values[idx].is_none(), "metric {name} set twice");
        self.values[idx] = Some(value);
    }

    fn finish(self) -> Values {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| {
                (
                    d,
                    v.unwrap_or_else(|| panic!("metric {} never set", d.name)),
                )
            })
            .collect()
    }
}

/// A run of the reference pass that completed.
struct Done<'a> {
    spec: &'a RunSpec,
    setup_ns: u64,
    wall_ns: u64,
    allocs: u64,
    data: &'a RunData,
}

impl Done<'_> {
    fn report(&self) -> &RunReport {
        &self.data.report
    }

    fn sim_ns(&self) -> u64 {
        self.report().parallel_time().as_ns()
    }
}

fn done<'a>(w: &'a Workload, pass: &'a Pass, col: Col) -> Vec<Done<'a>> {
    w.runs
        .iter()
        .zip(&pass.runs)
        .filter(|(spec, _)| spec.col == col)
        .filter_map(|(spec, out)| {
            out.result.as_ref().ok().map(|data| Done {
                spec,
                setup_ns: out.setup_ns,
                wall_ns: out.wall_ns,
                allocs: out.allocs,
                data,
            })
        })
        .collect()
}

fn sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> u64 {
    items.iter().map(f).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The run of `runs` offered `kops` thousand requests per second.
fn at_rate<'a, 'b>(runs: &'b [Done<'a>], kops: u64) -> Option<&'b Done<'a>> {
    runs.iter()
        .find(|d| d.spec.serve.is_some_and(|p| p.kops == kops as f64))
}

/// Operations a user of the modelled cluster offers per run: the
/// requests of a serving run, the operation-stream entries of a batch
/// run (the same streams on every column).
pub fn user_ops(w: &Workload) -> Vec<u64> {
    let batch_ops = match w.kind {
        Kind::Batch => stream_count(w.runs[0].app.as_ref(), w.runs[0].topo),
        Kind::Sweep | Kind::Churn => 0,
    };
    w.runs
        .iter()
        .map(|r| r.serve.map_or(batch_ops, |p| p.offered))
        .collect()
}

/// `(attempted, failed)` user operations of one pass: a run that
/// errored or panicked fails every operation it was offered.
pub fn op_outcome(ops: &[u64], pass: &Pass) -> (u64, u64) {
    let attempted = ops.iter().sum();
    let failed = ops
        .iter()
        .zip(&pass.runs)
        .map(|(&offered, out)| match &out.result {
            Ok(data) => data.report.counters.failed_ops.min(offered),
            Err(_) => offered,
        })
        .sum();
    (attempted, failed)
}

/// Host-side cost of one timed pass.
#[derive(Clone, Copy, Debug)]
pub struct PassCost {
    pub setup_s: f64,
    pub wall_s: f64,
    pub allocs: f64,
    pub alloc_mb: f64,
    pub peak_mb: f64,
}

impl PassCost {
    pub fn of(pass: &Pass) -> PassCost {
        PassCost {
            setup_s: pass.setup_ns() as f64 / 1e9,
            wall_s: pass.wall_ns() as f64 / 1e9,
            allocs: pass.allocs() as f64,
            alloc_mb: pass.alloc_bytes() as f64 / 1e6,
            peak_mb: pass.peak_bytes as f64 / 1e6,
        }
    }
}

/// The latency histogram the `op_p50_us` / `op_p99_us` metrics read on
/// the GeNIMA column: request latency from due time on the serving
/// workloads (the sweep at its 20 kops point, churn merged over its
/// sub-seeds), blocked page-fetch and lock waits on the batch ones.
fn op_latency(w: &Workload, genima: &[Done]) -> Histogram {
    let mut all = Histogram::new();
    match w.kind {
        Kind::Batch => {
            for d in genima {
                all.merge(&d.report().op_latency.fetch);
                all.merge(&d.report().op_latency.lock);
            }
        }
        Kind::Sweep => {
            if let Some(d) = at_rate(genima, SWEEP_LATENCY_KOPS) {
                all = d.report().serve.merged();
            }
        }
        Kind::Churn => {
            for d in genima {
                all.merge(&d.report().serve.merged());
            }
        }
    }
    all
}

/// Thousand user operations completed per simulated second on one
/// column: the sweep's overload point, every run of the other
/// workloads.
fn throughput_kops(w: &Workload, batch_ops: u64, runs: &[Done]) -> f64 {
    let served = |d: &Done| d.report().serve.total();
    let (completed, sim_ns) = match w.kind {
        Kind::Batch => (batch_ops * runs.len() as u64, sum(runs, Done::sim_ns)),
        Kind::Sweep => {
            at_rate(runs, SWEEP_CAPACITY_KOPS).map_or((0, 0), |d| (served(d), d.sim_ns()))
        }
        Kind::Churn => (sum(runs, served), sum(runs, Done::sim_ns)),
    };
    ratio(completed as f64 * 1e6, sim_ns as f64)
}

/// The end-to-end metrics: host-clock ones as medians over the timed
/// passes, simulated ones from the reference pass (every pass is
/// checked bit-identical to it).
pub fn end_to_end(w: &Workload, ops: &[u64], reference: &Pass, costs: &[PassCost]) -> Values {
    let med = |f: fn(&PassCost) -> f64| stats::median(&costs.iter().map(f).collect::<Vec<_>>());
    let base = done(w, reference, Col::Base);
    let genima = done(w, reference, Col::Genima);
    let g2025 = done(w, reference, Col::Genima2025);
    let sim = |runs: &[Done]| sum(runs, Done::sim_ns) as f64;
    let (attempted, failed) = op_outcome(ops, reference);
    let lat = op_latency(w, &genima);

    let mut out = Collector::new(END_TO_END);
    out.set("setup_s", med(|c| c.setup_s));
    out.set("heap_allocs", med(|c| c.allocs));
    out.set("heap_alloc_mb", med(|c| c.alloc_mb));
    out.set("peak_heap_mb", med(|c| c.peak_mb));
    out.set("ok_op_share", 1.0 - ratio(failed as f64, attempted as f64));
    out.set(
        "sim_time_ms",
        ratio(sim(&genima) / 1e6, genima.len() as f64),
    );
    out.set("sim_speedup_vs_base", ratio(sim(&base), sim(&genima)));
    out.set("sim_speedup_2025_vs_1999", ratio(sim(&genima), sim(&g2025)));
    out.set("op_p50_us", stats::interp_percentile_ns(&lat, 0.50) / 1e3);
    out.set("op_p99_us", stats::interp_percentile_ns(&lat, 0.99) / 1e3);
    out.set("sim_kops", throughput_kops(w, ops[0], &genima));
    out.finish()
}

/// Output checks on one pass. Returns one line per violation.
pub fn check_pass(w: &Workload, pass: &Pass) -> Vec<String> {
    let mut bad = Vec::new();
    for (spec, out) in w.runs.iter().zip(&pass.runs) {
        let Ok(data) = &out.result else { continue };
        let r = &data.report;
        let at = format!("{}/{}/{}", w.name, spec.col.name(), spec.label);
        if let Err(e) = r.validate(&spec.col.column().features) {
            bad.push(format!("{at}: {e}"));
        }
        let interrupts = r.counters.interrupts;
        match spec.col {
            Col::Base if interrupts == 0 => {
                bad.push(format!("{at}: Base took no host interrupt"));
            }
            Col::Genima | Col::Genima2025 if interrupts != 0 => {
                bad.push(format!("{at}: {interrupts} host interrupts, must be 0"));
            }
            _ => {}
        }
        if let Some(point) = spec.serve {
            let answered = r.serve.total() + r.counters.failed_ops;
            if answered != point.offered {
                bad.push(format!(
                    "{at}: {answered} of {} requests completed or failed",
                    point.offered
                ));
            }
        }
    }
    bad
}

/// Fingerprints of a pass's runs (`None` for a failed run).
pub fn fingerprints(pass: &Pass) -> Vec<Option<u64>> {
    pass.runs
        .iter()
        .map(|o| o.result.as_ref().ok().map(fingerprint))
        .collect()
}

/// The serving workloads' operation streams must not depend on the
/// column that will consume them: the FNV hash of every run's streams
/// is compared across the three columns.
pub fn check_stream_hashes(w: &Workload) -> Vec<String> {
    if w.kind == Kind::Batch {
        return Vec::new();
    }
    let hashes = |col: Col| -> Vec<(u64, u64)> {
        w.runs
            .iter()
            .filter(|r| r.col == col)
            .map(|r| stream_count_and_hash(r.app.as_ref(), r.topo))
            .collect()
    };
    let base = hashes(Col::Base);
    [Col::Genima, Col::Genima2025]
        .into_iter()
        .filter(|&col| hashes(col) != base)
        .map(|col| {
            format!(
                "{}: operation streams of {} differ from Base's",
                w.name,
                col.name()
            )
        })
        .collect()
}

/// What the traced pass found on one column.
#[derive(Default)]
struct TracedCol {
    wall_ns: u64,
    spans: u64,
    dropped: u64,
    profile_ns: u64,
    ops: u64,
    seg: genima_prof::Breakdown,
}

impl TracedCol {
    fn seg_share(&self, seg: Segment) -> f64 {
        ratio(
            self.seg.get(seg).as_ns() as f64,
            self.seg.total().as_ns() as f64,
        )
    }
}

/// The traced pass: every Base and GeNIMA run once more with the span
/// recorder on, each trace profiled as soon as it is taken.
pub struct Traced {
    base: TracedCol,
    genima: TracedCol,
    pub violations: Vec<String>,
}

pub fn traced_pass(w: &Workload, reference: &Pass, spans: &mut Spans) -> Traced {
    let mut t = Traced {
        base: TracedCol::default(),
        genima: TracedCol::default(),
        violations: Vec::new(),
    };
    for (spec, untraced) in w.runs.iter().zip(&reference.runs) {
        let col = match spec.col {
            Col::Base => &mut t.base,
            Col::Genima => &mut t.genima,
            Col::Genima2025 => continue,
        };
        let at = format!("{}/{}/{}", w.name, spec.col.name(), spec.label);
        let out = execute(spec, ObsConfig::with_capacity(1 << 22), spans);
        let data = match out.result {
            Ok(data) => data,
            Err(msg) => {
                t.violations.push(format!("{at}: traced run failed: {msg}"));
                continue;
            }
        };
        col.wall_ns += out.wall_ns;
        col.spans += data.obs.spans.len() as u64;
        col.dropped += data.obs.dropped;
        let finish: Option<Time> = untraced.result.as_ref().ok().map(|d| d.report.finish);
        if finish != Some(data.report.finish) {
            t.violations.push(format!(
                "{at}: traced finish {:?} differs from untraced {finish:?}",
                data.report.finish
            ));
        }
        let s = spans.begin("prof.profile");
        let started = Instant::now();
        let profile = genima_prof::profile(&data.obs);
        col.profile_ns += started.elapsed().as_nanos() as u64;
        spans.end(s);
        match profile.audited_ops() {
            Ok(ops) => {
                col.ops += ops.len() as u64;
                col.seg.merge(&profile.total_breakdown());
            }
            Err(truncated) => t.violations.push(format!("{at}: {truncated}")),
        }
    }
    let dropped = t.base.dropped + t.genima.dropped;
    if dropped != 0 {
        t.violations
            .push(format!("{}: span rings dropped {dropped} records", w.name));
    }
    t
}

/// Host cost of generating the workload's operation streams: one
/// `spec()` plus a drain of every source per GeNIMA run.
pub struct GenCost {
    pub ns: u64,
    pub ops: u64,
}

pub fn generation_cost(w: &Workload, spans: &mut Spans) -> GenCost {
    spans.next_run();
    let s = spans.begin("kernel.apps.gen");
    let started = Instant::now();
    let ops = w
        .runs
        .iter()
        .filter(|r| r.col == Col::Genima)
        .map(|r| stream_count(r.app.as_ref(), r.topo))
        .sum();
    let ns = started.elapsed().as_nanos() as u64;
    spans.end(s);
    GenCost { ns, ops }
}

/// Both size classes of one NI stage: contended over uncontended time.
fn stage_ratio(m: &Monitor, stage: Stage) -> f64 {
    let (mut actual, mut uncontended) = (0, 0);
    for class in [SizeClass::Small, SizeClass::Large] {
        let st = m.stats(stage, class);
        actual += st.actual.sum().as_ns();
        uncontended += st.uncontended.sum().as_ns();
    }
    if uncontended == 0 {
        1.0
    } else {
        actual as f64 / uncontended as f64
    }
}

fn load_curve(runs: &[Done]) -> Vec<LoadPoint> {
    runs.iter()
        .filter_map(|d| {
            d.spec.serve.map(|p| LoadPoint {
                kops: p.kops,
                p99_ns: d.report().serve.merged().p99().as_ns() as f64,
                finish_over_last_due: ratio(
                    d.report().finish.as_ns() as f64,
                    p.last_due.as_ns() as f64,
                ),
            })
        })
        .collect()
}

/// The per-layer ledger. Counts and simulated shares are the GeNIMA
/// column's unless suffixed; `*_est_share` is a workload count times a
/// kernel's cost over the GeNIMA runs' `wall_s`.
pub fn per_layer(
    w: &Workload,
    reference: &Pass,
    traced: &Traced,
    k: &KernelNs,
    gen: &GenCost,
) -> Values {
    let base = done(w, reference, Col::Base);
    let genima = done(w, reference, Col::Genima);
    let g2025 = done(w, reference, Col::Genima2025);
    let wall = |runs: &[Done]| sum(runs, |d| d.wall_ns) as f64;
    let events = |runs: &[Done]| sum(runs, |d| d.report().events);
    let ns_per_event = |runs: &[Done]| ratio(wall(runs), events(runs) as f64);
    let count = |f: fn(&RunReport) -> u64| sum(&genima, |d| f(d.report()));
    let g_wall = wall(&genima);
    let share = |n: u64, ns: f64| stats::est_share(n, ns, g_wall);

    let mut monitor = Monitor::new();
    let mut mean = genima_proto::Breakdown::default();
    let mut serve = Histogram::new();
    for d in &genima {
        monitor.merge(&d.report().monitor);
        mean.merge(&d.report().mean_breakdown());
        serve.merge(&d.report().serve.merged());
    }
    let packets = monitor.packets(SizeClass::Small) + monitor.packets(SizeClass::Large);
    let diffs = count(|r| r.counters.diffs);
    let page_transfers = count(|r| r.counters.page_transfers);
    let lock_handoffs = count(|r| r.counters.remote_lock_acquires);
    let deposits = count(|r| r.counters.notice_messages + r.counters.diff_run_messages);
    let epochs = count(|r| r.counters.barriers);
    let fault_packets = sum(&genima, |d| d.data.faults.packets);

    let queue_share = share(events(&genima), k.queue_hold);
    let nic_share = share(page_transfers, k.nic_fetch)
        + share(lock_handoffs, k.nic_lock_pair)
        + share(deposits, k.nic_deposit)
        + share(epochs, k.nic_coll_barrier);
    let diff_share = share(diffs, k.diff_tracked + k.diff_apply);
    let pool_share = share(page_transfers + diffs, k.pool_copy);
    let fault_share = share(fault_packets, k.fault_decide);

    let offered = sum(&genima, |d| d.spec.serve.map_or(0, |p| p.offered));
    let last_due = sum(&genima, |d| d.spec.serve.map_or(0, |p| p.last_due.as_ns()));
    let finish = sum(&genima, |d| {
        d.spec.serve.map_or(0, |_| d.report().finish.as_ns())
    });
    let knee = |runs: &[Done]| match w.kind {
        Kind::Sweep => stats::knee_kops(&load_curve(runs)),
        Kind::Batch | Kind::Churn => 0.0,
    };
    let capacity = |runs: &[Done]| match w.kind {
        Kind::Sweep => throughput_kops(w, 0, runs),
        Kind::Batch | Kind::Churn => 0.0,
    };
    let traced_wall = (traced.base.wall_ns + traced.genima.wall_ns) as f64;
    let traced_spans = traced.base.spans + traced.genima.spans;
    let mean_share = |part: genima_sim::Dur| mean.share_of(part);

    let mut out = Collector::new(PER_LAYER);
    out.set("host.wall_s", reference.wall_ns() as f64 / 1e9);
    out.set("sim.queue_hold_ns", k.queue_hold);
    out.set("sim.hist_record_ns", k.hist_record);
    out.set("sim.resource_reserve_ns", k.resource_reserve);
    out.set("sim.events", events(&genima) as f64);
    out.set("sim.host_ns_per_event", ns_per_event(&genima));
    out.set("sim.host_ns_per_event.base", ns_per_event(&base));
    out.set("sim.host_ns_per_event.genima2025", ns_per_event(&g2025));
    out.set(
        "sim.allocs_per_event",
        ratio(sum(&genima, |d| d.allocs) as f64, events(&genima) as f64),
    );
    out.set("sim.queue_est_share", queue_share);
    out.set("net.transfer_ns", k.net_transfer);
    out.set("net.packets", packets as f64);
    out.set("net.bytes", monitor.total_bytes() as f64);
    out.set("net.est_share", share(packets, k.net_transfer));
    out.set("nic.deposit_ns", k.nic_deposit);
    out.set("nic.fetch_ns", k.nic_fetch);
    out.set("nic.lock_pair_ns", k.nic_lock_pair);
    out.set("nic.coll_barrier_ns", k.nic_coll_barrier);
    out.set("rnic.deposit_ns", k.rnic_deposit);
    out.set("rnic.cas_pair_ns", k.rnic_cas_pair);
    out.set("nic.retransmits", count(|r| r.recovery.retransmits) as f64);
    out.set(
        "nic.dup_drops",
        count(|r| r.recovery.duplicates_suppressed) as f64,
    );
    out.set(
        "nic.mgmt_deliveries",
        count(|r| r.recovery.mgmt_deliveries) as f64,
    );
    out.set(
        "nic.doorbells",
        sum(&g2025, |d| d.report().ni.doorbells) as f64,
    );
    out.set("nic.cqes", sum(&g2025, |d| d.report().ni.cqes) as f64);
    out.set(
        "nic.odp_faults",
        sum(&g2025, |d| d.report().ni.odp_faults) as f64,
    );
    out.set(
        "nic.stage_ratio.source",
        stage_ratio(&monitor, Stage::Source),
    );
    out.set("nic.stage_ratio.lanai", stage_ratio(&monitor, Stage::Lanai));
    out.set("nic.stage_ratio.net", stage_ratio(&monitor, Stage::Net));
    out.set("nic.stage_ratio.dest", stage_ratio(&monitor, Stage::Dest));
    out.set("nic.est_share", nic_share);
    out.set("coll.epoch_ns", k.coll_epoch);
    out.set("coll.epochs", epochs as f64);
    out.set("mem.diff_sparse_ns", k.diff_sparse);
    out.set("mem.diff_dense_ns", k.diff_dense);
    out.set("mem.diff_tracked_ns", k.diff_tracked);
    out.set("mem.diff_apply_ns", k.diff_apply);
    out.set("mem.pool_copy_ns", k.pool_copy);
    out.set("mem.dirty_add_ns", k.dirty_add);
    out.set("mem.diffs", diffs as f64);
    out.set(
        "mem.diff_run_messages",
        count(|r| r.counters.diff_run_messages) as f64,
    );
    out.set("mem.page_transfers", page_transfers as f64);
    out.set(
        "mem.mprotect_calls",
        count(|r| r.counters.mprotect_calls) as f64,
    );
    out.set(
        "mem.invalidations",
        count(|r| r.counters.invalidations) as f64,
    );
    out.set("mem.diff_est_share", diff_share);
    out.set("mem.pool_est_share", pool_share);
    out.set("proto.faults", count(|r| r.counters.faults) as f64);
    out.set(
        "proto.fetch_retries",
        count(|r| r.counters.fetch_retries) as f64,
    );
    out.set("proto.intervals", count(|r| r.counters.intervals) as f64);
    out.set(
        "proto.notice_messages",
        count(|r| r.counters.notice_messages) as f64,
    );
    out.set("proto.remote_lock_acquires", lock_handoffs as f64);
    out.set(
        "proto.interrupts.base",
        sum(&base, |d| d.report().counters.interrupts) as f64,
    );
    out.set("proto.sim_share.compute", mean_share(mean.compute));
    out.set("proto.sim_share.data", mean_share(mean.data));
    out.set("proto.sim_share.lock", mean_share(mean.lock));
    out.set("proto.sim_share.acqrel", mean_share(mean.acqrel));
    out.set("proto.sim_share.barrier", mean_share(mean.barrier));
    out.set("proto.sim_share.mprotect", mean_share(mean.mprotect));
    out.set(
        "proto.unattributed_share",
        1.0 - (queue_share + nic_share + diff_share + pool_share + fault_share),
    );
    out.set("apps.gen_ns_per_op", ratio(gen.ns as f64, gen.ops as f64));
    out.set("apps.ops", gen.ops as f64);
    out.set(
        "apps.gen_est_share",
        ratio(gen.ns as f64, sum(&genima, |d| d.setup_ns) as f64 + g_wall),
    );
    out.set("serve.zipf_sample_ns", k.zipf_sample);
    out.set("serve.arrival_ns", k.arrival);
    out.set(
        "serve.sustained_over_offered",
        ratio(serve.count() as f64, offered as f64),
    );
    out.set(
        "serve.finish_over_last_due",
        ratio(finish as f64, last_due as f64),
    );
    out.set("serve.p999_us", serve.p999().as_us());
    out.set("serve.knee_kops", knee(&genima));
    out.set("serve.knee_kops.base", knee(&base));
    out.set("serve.knee_kops.genima2025", knee(&g2025));
    out.set("serve.capacity_kops.base", capacity(&base));
    out.set("serve.capacity_kops.genima2025", capacity(&g2025));
    out.set("fault.decide_ns", k.fault_decide);
    out.set("fault.packets", fault_packets as f64);
    out.set(
        "fault.drops",
        sum(&genima, |d| d.data.faults.dropped) as f64,
    );
    out.set(
        "fault.outage_drops",
        sum(&genima, |d| d.data.faults.outage_drops) as f64,
    );
    out.set(
        "fault.dups",
        sum(&genima, |d| d.data.faults.duplicated) as f64,
    );
    out.set("fault.est_share", fault_share);
    out.set("obs.record_ns", k.obs_record);
    out.set("obs.spans", traced_spans as f64);
    out.set(
        "obs.dropped",
        (traced.base.dropped + traced.genima.dropped) as f64,
    );
    out.set(
        "obs.trace_overhead_ratio",
        ratio(traced_wall, wall(&base) + g_wall),
    );
    out.set("prof.ops", (traced.base.ops + traced.genima.ops) as f64);
    out.set(
        "prof.profile_ns_per_span",
        ratio(
            (traced.base.profile_ns + traced.genima.profile_ns) as f64,
            traced_spans as f64,
        ),
    );
    for seg in Segment::ALL {
        out.set(
            &format!("prof.seg_share.{}", seg.name()),
            traced.genima.seg_share(seg),
        );
    }
    out.set(
        "prof.seg_share.interrupt.base",
        traced.base.seg_share(Segment::Interrupt),
    );
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_pass;
    use crate::workloads::build;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.len() <= 64 && d.name.chars().all(ok), "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(d.unit.len() <= 16 && d.unit.chars().all(ok), "{}", d.unit);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn collector_refuses_gaps_and_repeats() {
        let mut c = Collector::new(END_TO_END);
        c.set("setup_s", 1.0);
        assert!(std::panic::catch_unwind(move || c.finish()).is_err());
        let twice = || {
            let mut c = Collector::new(END_TO_END);
            c.set("setup_s", 1.0);
            c.set("setup_s", 2.0);
        };
        assert!(std::panic::catch_unwind(twice).is_err());
    }

    /// One smoke pass per kind of workload through the whole pipeline:
    /// every metric is set, the checks pass, the ledger discriminates.
    #[test]
    fn smoke_passes_fill_both_metric_sets() {
        let k = crate::kernels::run_all(1, &mut Spans::new(false));
        for name in ["diff_ocean", "serve_kv_sweep", "serve_kv_churn"] {
            let w = build(name, 11, true).expect("workload");
            let mut spans = Spans::new(true);
            let ops = user_ops(&w);
            let reference = run_pass(&w, &mut spans);
            assert_eq!(check_pass(&w, &reference), Vec::<String>::new(), "{name}");
            assert_eq!(check_stream_hashes(&w), Vec::<String>::new(), "{name}");
            let again = run_pass(&w, &mut spans);
            assert_eq!(fingerprints(&reference), fingerprints(&again), "{name}");
            let (attempted, failed) = op_outcome(&ops, &reference);
            assert!(attempted > 0 && failed == 0, "{name}: {failed}/{attempted}");

            let e2e = end_to_end(&w, &ops, &reference, &[PassCost::of(&again)]);
            assert_eq!(e2e.len(), END_TO_END.len());
            for (d, v) in &e2e {
                assert!(v.is_finite() && *v > 0.0, "{name}: {} = {v}", d.name);
            }

            let traced = traced_pass(&w, &reference, &mut spans);
            assert_eq!(traced.violations, Vec::<String>::new(), "{name}");
            let gen = generation_cost(&w, &mut spans);
            let layers = per_layer(&w, &reference, &traced, &k, &gen);
            assert_eq!(layers.len(), PER_LAYER.len());
            let get = |n: &str| {
                layers
                    .iter()
                    .find(|(d, _)| d.name == n)
                    .map(|(_, v)| *v)
                    .expect("defined metric")
            };
            assert!(layers.iter().all(|(_, v)| v.is_finite()), "{name}");
            assert!(get("obs.spans") > 0.0 && get("prof.ops") > 0.0, "{name}");
            assert_eq!(get("prof.seg_share.interrupt"), 0.0, "{name}");
            assert!(get("prof.seg_share.interrupt.base") > 0.0, "{name}");
            assert_eq!(get("fault.drops") > 0.0, name == "serve_kv_churn");
            assert_eq!(
                get("serve.knee_kops.genima2025") > 0.0,
                name == "serve_kv_sweep"
            );
        }
    }
}
