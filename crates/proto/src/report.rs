//! Results of one cluster run.

use genima_nic::{Monitor, NiStats, RecoveryStats, SizeClass, Stage};
use genima_obs::Json;
use genima_sim::{Dur, Histogram, Time};

use crate::breakdown::{Breakdown, Counters};
use crate::error::ProtoError;
use crate::features::FeatureSet;

/// Per-operation-kind wait-latency histograms.
///
/// Each histogram records the *blocked wait* of one completed protocol
/// operation: page-fetch waits (fault trap to copy installed), lock
/// waits (acquire request to grant) and barrier waits (arrival to
/// release). Recorded unconditionally — the histograms use power-of-two
/// buckets and cost one increment per completion — and reset at the
/// warmup barrier alongside the protocol counters, so trajectories
/// carry tail latency (p50/p95/p99), not just means.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpLatency {
    /// Remote/home page-fetch waits.
    pub fetch: Histogram,
    /// Lock acquire waits.
    pub lock: Histogram,
    /// Barrier waits (arrival to release, per process).
    pub barrier: Histogram,
}

impl OpLatency {
    /// Per-op-kind tail latency as JSON: `{fetch|lock|barrier:
    /// {n, p50_us, p95_us, p99_us}}`. Used both inside the
    /// [`RunReport`] JSON (under `op_latency`) and by bench
    /// reports (`bench fault_matrix`'s rows, `bench paper`'s cells) so
    /// every row carries p50/p95/p99 per op kind, not just means.
    pub fn json(&self) -> Json {
        let hist = |h: &Histogram| {
            let mut row = Json::obj();
            row.set("n", Json::u64(h.count()));
            row.set("p50_us", Json::num(h.p50().as_us()));
            row.set("p95_us", Json::num(h.p95().as_us()));
            row.set("p99_us", Json::num(h.p99().as_us()));
            row
        };
        let mut o = Json::obj();
        o.set("fetch", hist(&self.fetch));
        o.set("lock", hist(&self.lock));
        o.set("barrier", hist(&self.barrier));
        o
    }
}

/// Per-class end-to-end latency histograms for serving workloads.
///
/// Each histogram records one completed [`Op::ServeEnd`] marker: the
/// time from a request's *generated arrival* (open-loop) to its
/// completion, so queueing delay behind earlier requests of the same
/// client is included — the quantity an outside observer of a serving
/// system sees. Empty on batch (closed-loop) runs; reset at the warmup
/// barrier alongside the op-latency histograms.
///
/// [`Op::ServeEnd`]: crate::Op::ServeEnd
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeLatency {
    /// Key-value GETs.
    pub read: Histogram,
    /// Key-value PUTs (lock-protected).
    pub write: Histogram,
    /// Graph random-walk queries.
    pub walk: Histogram,
}

impl ServeLatency {
    /// The histogram for one request class.
    pub fn of(&self, class: crate::ops::ServeClass) -> &Histogram {
        match class {
            crate::ops::ServeClass::Read => &self.read,
            crate::ops::ServeClass::Write => &self.write,
            crate::ops::ServeClass::Walk => &self.walk,
        }
    }

    /// Records one completed request of `class`.
    pub fn record(&mut self, class: crate::ops::ServeClass, wait: Dur) {
        match class {
            crate::ops::ServeClass::Read => self.read.record(wait),
            crate::ops::ServeClass::Write => self.write.record(wait),
            crate::ops::ServeClass::Walk => self.walk.record(wait),
        }
    }

    /// All classes merged into one histogram (whole-workload tail).
    pub fn merged(&self) -> Histogram {
        let mut all = self.read.clone();
        all.merge(&self.write);
        all.merge(&self.walk);
        all
    }

    /// Completed requests across every class.
    pub fn total(&self) -> u64 {
        self.read.count() + self.write.count() + self.walk.count()
    }

    /// Per-class tails as JSON: `{read|write|walk: {n, p50_us, p95_us,
    /// p99_us, p999_us}}`. Serving tails go one decade deeper than the
    /// op-latency rows — open-loop gates are stated on p99/p99.9.
    pub fn json(&self) -> Json {
        let hist = |h: &Histogram| {
            let mut row = Json::obj();
            row.set("n", Json::u64(h.count()));
            row.set("p50_us", Json::num(h.p50().as_us()));
            row.set("p95_us", Json::num(h.p95().as_us()));
            row.set("p99_us", Json::num(h.p99().as_us()));
            row.set("p999_us", Json::num(h.p999().as_us()));
            row
        };
        let mut o = Json::obj();
        o.set("read", hist(&self.read));
        o.set("write", hist(&self.write));
        o.set("walk", hist(&self.walk));
        o
    }
}

/// Everything measured during one [`SvmSystem`](crate::SvmSystem) run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock (simulated) end of the parallel section: the instant
    /// the last process finished.
    pub finish: Time,
    /// Per-process execution-time breakdowns.
    pub breakdowns: Vec<Breakdown>,
    /// Cluster-wide protocol counters.
    pub counters: Counters,
    /// Whether the run used NI-tree barriers (firmware combining tree)
    /// instead of the host-managed node-0 barrier manager.
    pub ni_barrier: bool,
    /// Snapshot of the NI firmware performance monitor.
    pub monitor: Monitor,
    /// Loss-recovery counters from the communication layer (all zero on
    /// a fault-free run).
    pub recovery: RecoveryStats,
    /// Shared pages pinned per node for incoming transfers, in bytes
    /// (the export/pin footprint remote fetch shrinks, §2).
    pub pinned_shared_bytes: Vec<u64>,
    /// Hardware profile the run executed on ("LANai-1999", "RNIC-2025").
    pub hw: &'static str,
    /// Hardware-mechanism counters (doorbells, CQEs, ODP faults); all
    /// zero on hardware without the mechanism.
    pub ni: NiStats,
    /// Per-op-kind wait-latency histograms (tail latency).
    pub op_latency: OpLatency,
    /// Per-class serving-request latency histograms (empty unless the
    /// workload issued [`Op::ServeEnd`](crate::Op::ServeEnd) markers).
    pub serve: ServeLatency,
    /// Events processed by the simulator (diagnostic).
    pub events: u64,
}

impl RunReport {
    /// The parallel execution time of the run.
    pub fn parallel_time(&self) -> Dur {
        self.finish.saturating_since(Time::ZERO)
    }

    /// Average breakdown over all processes (Figure 3 bars).
    pub fn mean_breakdown(&self) -> Breakdown {
        let mut sum = Breakdown::default();
        for b in &self.breakdowns {
            sum.merge(b);
        }
        sum.scaled_down(self.breakdowns.len().max(1) as u64)
    }

    /// Speedup of this run against a sequential time.
    pub fn speedup(&self, sequential: Dur) -> f64 {
        let p = self.parallel_time().as_ns();
        if p == 0 {
            0.0
        } else {
            sequential.as_ns() as f64 / p as f64
        }
    }

    /// Sanity-checks the report against the protocol configuration
    /// that produced it.
    ///
    /// Two invariants are enforced:
    ///
    /// 1. **Accounting closure.** Each process's breakdown categories
    ///    (compute + data + lock + acqrel + barrier) must sum to the
    ///    parallel time within a documented tolerance band. The band is
    ///    0.85x-1.15x: per-process totals drift below the wall clock
    ///    when post/deposit overheads are absorbed by the NI rather
    ///    than charged to the host, and slightly above it when
    ///    interrupt service steals compute slices that are billed to
    ///    both the victim and the faulting process (fault-free runs
    ///    across every app x column land in 0.98x-1.09x empirically;
    ///    fault injection widens the spread). A 1 ms absolute slack
    ///    keeps short calibration runs out of the relative band.
    /// 2. **Interrupt freedom.** The GeNIMA column dispatches every
    ///    remote request in NI firmware, so a configuration whose
    ///    [`FeatureSet::interrupt_free`] is true must report zero host
    ///    interrupts. A run with NI-tree barriers must likewise report
    ///    zero messages to the node-0 barrier manager — the firmware
    ///    combining tree replaces it entirely.
    pub fn validate(&self, features: &FeatureSet) -> Result<(), ProtoError> {
        if features.interrupt_free() && self.counters.interrupts != 0 {
            return Err(ProtoError::InvalidReport {
                detail: format!(
                    "{} column must be interrupt-free but report shows {} host interrupts",
                    features.name(),
                    self.counters.interrupts
                ),
            });
        }
        if self.ni_barrier && self.counters.barrier_manager_msgs != 0 {
            return Err(ProtoError::InvalidReport {
                detail: format!(
                    "NI-tree barriers must bypass the node-0 manager but report shows \
                     {} barrier manager messages",
                    self.counters.barrier_manager_msgs
                ),
            });
        }
        let par = self.parallel_time().as_ns() as f64;
        let slack = 1_000_000.0_f64; // 1 ms absolute slack for tiny runs
        let mut max_total = 0.0_f64;
        for (proc, bd) in self.breakdowns.iter().enumerate() {
            let total = bd.total().as_ns() as f64;
            max_total = max_total.max(total);
            if total > par * 1.15 + slack {
                return Err(ProtoError::InvalidReport {
                    detail: format!(
                        "proc {proc} breakdown total {:.3} ms exceeds parallel time \
                         {:.3} ms by more than 15%",
                        total / 1e6,
                        par / 1e6
                    ),
                });
            }
        }
        if !self.breakdowns.is_empty() && max_total + slack < par * 0.85 {
            return Err(ProtoError::InvalidReport {
                detail: format!(
                    "no process accounts for the run: max breakdown total {:.3} ms \
                     is under 85% of parallel time {:.3} ms",
                    max_total / 1e6,
                    par / 1e6
                ),
            });
        }
        Ok(())
    }

    /// The full report as a [`Json`] value (stable key order).
    ///
    /// Schema: `finish_ns`, `parallel_ms`, `breakdowns` (per-process
    /// category times in ms), `mean_breakdown`, `shares` (fraction of
    /// the mean total per category), `counters`, `monitor` (per
    /// stage/size-class contention ratios and tail latencies plus
    /// packet/byte traffic), `recovery`, `pinned_shared_bytes`,
    /// `events`.
    pub fn to_json_value(&self) -> Json {
        let mut root = Json::obj();
        root.set("finish_ns", Json::u64(self.finish.as_ns()));
        root.set("parallel_ms", Json::num(self.parallel_time().as_ms()));

        let mut bds = Vec::with_capacity(self.breakdowns.len());
        for b in &self.breakdowns {
            bds.push(breakdown_json(b));
        }
        root.set("breakdowns", Json::Arr(bds));

        let mean = self.mean_breakdown();
        root.set("mean_breakdown", breakdown_json(&mean));
        root.set("shares", shares_json(&mean));
        root.set("counters", counters_json(&self.counters));
        root.set("monitor", monitor_json(&self.monitor));

        let mut rec = Json::obj();
        rec.set("retransmits", Json::u64(self.recovery.retransmits));
        rec.set(
            "duplicates_suppressed",
            Json::u64(self.recovery.duplicates_suppressed),
        );
        rec.set("unreachable", Json::u64(self.recovery.unreachable));
        rec.set("mgmt_deliveries", Json::u64(self.recovery.mgmt_deliveries));
        root.set("recovery", rec);

        root.set(
            "pinned_shared_bytes",
            Json::Arr(
                self.pinned_shared_bytes
                    .iter()
                    .map(|&b| Json::u64(b))
                    .collect(),
            ),
        );
        root.set("hw", Json::str(self.hw));
        let mut ni = Json::obj();
        ni.set("doorbells", Json::u64(self.ni.doorbells));
        ni.set("cqes", Json::u64(self.ni.cqes));
        ni.set("odp_faults", Json::u64(self.ni.odp_faults));
        root.set("ni", ni);
        root.set("op_latency", self.op_latency.json());
        root.set("serve_latency", self.serve.json());
        root.set("events", Json::u64(self.events));
        root
    }

    /// The full report serialized as a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().dump()
    }
}

fn breakdown_json(b: &Breakdown) -> Json {
    let mut o = Json::obj();
    o.set("compute_ms", Json::num(b.compute.as_ms()));
    o.set("data_ms", Json::num(b.data.as_ms()));
    o.set("lock_ms", Json::num(b.lock.as_ms()));
    o.set("acqrel_ms", Json::num(b.acqrel.as_ms()));
    o.set("barrier_ms", Json::num(b.barrier.as_ms()));
    o.set("barrier_protocol_ms", Json::num(b.barrier_protocol.as_ms()));
    o.set("mprotect_ms", Json::num(b.mprotect.as_ms()));
    o.set("total_ms", Json::num(b.total().as_ms()));
    o
}

fn shares_json(mean: &Breakdown) -> Json {
    let total = mean.total().as_ns() as f64;
    let share = |d: Dur| {
        if total == 0.0 {
            Json::num(0.0)
        } else {
            Json::num(d.as_ns() as f64 / total)
        }
    };
    let mut o = Json::obj();
    o.set("compute", share(mean.compute));
    o.set("data", share(mean.data));
    o.set("lock", share(mean.lock));
    o.set("acqrel", share(mean.acqrel));
    o.set("barrier", share(mean.barrier));
    o
}

fn counters_json(c: &Counters) -> Json {
    let mut o = Json::obj();
    o.set("faults", Json::u64(c.faults));
    o.set("page_transfers", Json::u64(c.page_transfers));
    o.set("fetch_retries", Json::u64(c.fetch_retries));
    o.set("interrupts", Json::u64(c.interrupts));
    o.set("diffs", Json::u64(c.diffs));
    o.set("diff_run_messages", Json::u64(c.diff_run_messages));
    o.set("intervals", Json::u64(c.intervals));
    o.set("notice_messages", Json::u64(c.notice_messages));
    o.set("remote_lock_acquires", Json::u64(c.remote_lock_acquires));
    o.set("local_lock_acquires", Json::u64(c.local_lock_acquires));
    o.set("lock_spin_retries", Json::u64(c.lock_spin_retries));
    o.set("barriers", Json::u64(c.barriers));
    o.set("barrier_manager_msgs", Json::u64(c.barrier_manager_msgs));
    o.set("mprotect_calls", Json::u64(c.mprotect_calls));
    o.set("invalidations", Json::u64(c.invalidations));
    o.set("failed_ops", Json::u64(c.failed_ops));
    o.set("degraded_heals", Json::u64(c.degraded_heals));
    o.set("degraded_lost_msgs", Json::u64(c.degraded_lost_msgs));
    o
}

fn monitor_json(m: &Monitor) -> Json {
    let mut stages = Vec::with_capacity(8);
    for class in [SizeClass::Small, SizeClass::Large] {
        for stage in Stage::ALL {
            let st = m.stats(stage, class);
            let (p50, p95, p99) = m.tail(stage, class);
            let mut row = Json::obj();
            row.set("stage", Json::str(stage.label()));
            row.set(
                "class",
                Json::str(match class {
                    SizeClass::Small => "small",
                    SizeClass::Large => "large",
                }),
            );
            row.set("n", Json::u64(st.actual.count()));
            row.set("ratio", Json::num(st.ratio()));
            row.set("actual_mean_us", Json::num(st.actual.mean().as_us()));
            row.set(
                "uncontended_mean_us",
                Json::num(st.uncontended.mean().as_us()),
            );
            row.set("p50_us", Json::num(p50.as_us()));
            row.set("p95_us", Json::num(p95.as_us()));
            row.set("p99_us", Json::num(p99.as_us()));
            stages.push(row);
        }
    }
    let mut pk = Json::obj();
    pk.set("small", Json::u64(m.packets(SizeClass::Small)));
    pk.set("large", Json::u64(m.packets(SizeClass::Large)));
    let mut o = Json::obj();
    o.set("stages", Json::Arr(stages));
    o.set("packets", pk);
    o.set("total_bytes", Json::u64(m.total_bytes()));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_mean() {
        let report = RunReport {
            finish: Time::from_ns(1_000_000),
            breakdowns: vec![
                Breakdown {
                    compute: Dur::from_us(600),
                    data: Dur::from_us(400),
                    ..Breakdown::default()
                },
                Breakdown {
                    compute: Dur::from_us(1000),
                    ..Breakdown::default()
                },
            ],
            counters: Counters::default(),
            ni_barrier: false,
            monitor: Monitor::new(),
            recovery: RecoveryStats::default(),
            pinned_shared_bytes: vec![0, 0],
            hw: "LANai-1999",
            ni: NiStats::default(),
            op_latency: OpLatency::default(),
            serve: ServeLatency::default(),
            events: 0,
        };
        assert_eq!(report.parallel_time(), Dur::from_ms(1));
        assert!((report.speedup(Dur::from_ms(8)) - 8.0).abs() < 1e-9);
        let mean = report.mean_breakdown();
        assert_eq!(mean.compute, Dur::from_us(800));
        assert_eq!(mean.data, Dur::from_us(200));
    }

    fn sample_report(interrupts: u64) -> RunReport {
        let counters = Counters {
            interrupts,
            ..Counters::default()
        };
        RunReport {
            finish: Time::from_ns(100_000_000),
            breakdowns: vec![
                Breakdown {
                    compute: Dur::from_ms(60),
                    data: Dur::from_ms(40),
                    ..Breakdown::default()
                },
                Breakdown {
                    compute: Dur::from_ms(98),
                    ..Breakdown::default()
                },
            ],
            counters,
            ni_barrier: false,
            monitor: Monitor::new(),
            recovery: RecoveryStats::default(),
            pinned_shared_bytes: vec![4096, 0],
            hw: "LANai-1999",
            ni: NiStats::default(),
            op_latency: OpLatency::default(),
            serve: ServeLatency::default(),
            events: 7,
        }
    }

    #[test]
    fn validate_rejects_manager_msgs_under_ni_barrier() {
        let mut report = sample_report(0);
        report.ni_barrier = true;
        report.counters.barrier_manager_msgs = 2;
        assert!(matches!(
            report.validate(&FeatureSet::genima()),
            Err(ProtoError::InvalidReport { .. })
        ));
        report.counters.barrier_manager_msgs = 0;
        assert!(report.validate(&FeatureSet::genima()).is_ok());
        // Host-managed runs may message the manager freely.
        let mut host = sample_report(0);
        host.counters.barrier_manager_msgs = 40;
        assert!(host.validate(&FeatureSet::dw_rf_dd()).is_ok());
    }

    #[test]
    fn validate_accepts_closed_accounting() {
        let report = sample_report(3);
        assert!(report.validate(&FeatureSet::dw_rf_dd()).is_ok());
    }

    #[test]
    fn validate_rejects_interrupts_on_genima() {
        let report = sample_report(1);
        let err = report.validate(&FeatureSet::genima());
        assert!(matches!(err, Err(ProtoError::InvalidReport { .. })));
        assert!(sample_report(0).validate(&FeatureSet::genima()).is_ok());
    }

    #[test]
    fn validate_rejects_unaccounted_time() {
        let mut report = sample_report(0);
        // All breakdowns far below the 100 ms wall clock.
        for b in &mut report.breakdowns {
            *b = Breakdown {
                compute: Dur::from_ms(10),
                ..Breakdown::default()
            };
        }
        assert!(report.validate(&FeatureSet::base()).is_err());
        // ... and far above it.
        report.breakdowns[0].compute = Dur::from_ms(200);
        assert!(report.validate(&FeatureSet::base()).is_err());
    }

    #[test]
    fn json_roundtrip_has_schema_keys() {
        let report = sample_report(2);
        let text = report.to_json();
        let v = Json::parse(&text).expect("report JSON parses");
        assert_eq!(v.get("finish_ns").and_then(Json::as_u64), Some(100_000_000));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("interrupts"))
                .and_then(Json::as_u64),
            Some(2)
        );
        let stages = v
            .get("monitor")
            .and_then(|m| m.get("stages"))
            .and_then(Json::as_arr)
            .expect("monitor.stages array");
        assert_eq!(stages.len(), 8);
        let shares = v.get("shares").expect("shares object");
        let total: f64 = ["compute", "data", "lock", "acqrel", "barrier"]
            .iter()
            .map(|k| shares.get(k).and_then(Json::as_f64).expect("share"))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(
            v.get("pinned_shared_bytes")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(2)
        );
        assert_eq!(v.get("hw").and_then(Json::as_str), Some("LANai-1999"));
        assert_eq!(
            v.get("ni")
                .and_then(|n| n.get("odp_faults"))
                .and_then(Json::as_u64),
            Some(0)
        );
        for kind in ["fetch", "lock", "barrier"] {
            let row = v
                .get("op_latency")
                .and_then(|l| l.get(kind))
                .expect("op_latency row");
            assert_eq!(row.get("n").and_then(Json::as_u64), Some(0));
            assert_eq!(row.get("p99_us").and_then(Json::as_f64), Some(0.0));
        }
        for class in ["read", "write", "walk"] {
            let row = v
                .get("serve_latency")
                .and_then(|l| l.get(class))
                .expect("serve_latency row");
            assert_eq!(row.get("n").and_then(Json::as_u64), Some(0));
            assert_eq!(row.get("p999_us").and_then(Json::as_f64), Some(0.0));
        }
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("failed_ops"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn serve_latency_merged_pools_all_classes() {
        use crate::ops::ServeClass;
        let mut s = ServeLatency::default();
        s.record(ServeClass::Read, Dur::from_us(10));
        s.record(ServeClass::Write, Dur::from_us(100));
        s.record(ServeClass::Walk, Dur::from_us(1000));
        assert_eq!(s.total(), 3);
        assert_eq!(s.merged().count(), 3);
        assert_eq!(s.of(ServeClass::Write).count(), 1);
        let j = s.json();
        let w = j.get("walk").expect("walk row");
        assert_eq!(w.get("n").and_then(Json::as_u64), Some(1));
    }
}
