//! Observability-layer integration tests: the disabled path changes
//! nothing, the enabled path changes nothing *measured*, spans nest,
//! fault events reconcile with recovery counters, and the GeNIMA
//! timeline is interrupt-free.

use genima::{
    run_app, run_app_configured, timeline_json, validate_trace, BarrierImpl, FaultPlan, FeatureSet,
    ObsConfig, RunConfig, SpanKind, Topology, Track,
};
use genima_apps::OceanRowwise;
use genima_obs::{count_named, FlowDir, Recorder, SpanRecord};
use genima_proto::Addr;
use genima_proto::{ops_source, BarrierId, Column, LockId, Op, OpSource, SvmSystem, PAGE_SIZE};
use genima_sim::{Dur, SplitMix64};
use proptest::prelude::*;

fn small_app() -> OceanRowwise {
    OceanRowwise::with_grid(64, 2)
}

/// `ObsConfig::off` must leave the run bit-identical to the plain
/// runner: no recorder is ever allocated, so the only possible
/// difference would be a bug in the wiring itself.
#[test]
fn disabled_obs_is_bit_identical_to_plain_run() {
    let app = small_app();
    let topo = Topology::new(2, 2);
    for features in FeatureSet::ALL {
        let plain = run_app(&app, topo, features);
        let cfg = RunConfig::new(topo, features).with_obs(ObsConfig::off());
        let configured = run_app_configured(&app, &cfg).expect("clean run");
        assert_eq!(
            format!("{:?}", plain.report),
            format!("{:?}", configured.report),
            "{}: ObsConfig::off must not perturb the run",
            features.name()
        );
        assert!(configured.obs.is_empty(), "no spans without a recorder");
        assert_eq!(configured.obs.dropped, 0);
    }
}

/// Recording spans is observation only: the report with the recorder
/// installed is identical to the report without it.
#[test]
fn enabled_obs_does_not_change_the_report() {
    let app = small_app();
    let topo = Topology::new(2, 2);
    let features = FeatureSet::genima();
    let off = run_app_configured(&app, &RunConfig::new(topo, features)).expect("clean run");
    let cfg = RunConfig::new(topo, features).with_obs(ObsConfig::on());
    let on = run_app_configured(&app, &cfg).expect("clean run");
    assert_eq!(
        format!("{:?}", off.report),
        format!("{:?}", on.report),
        "span recording must be invisible to the measurements"
    );
    assert!(!on.obs.is_empty(), "an Ocean run emits spans");
    assert!(on.obs.count(SpanKind::PageFetch) > 0);
    assert!(on.obs.count(SpanKind::BarrierWait) > 0);
}

/// Reports validate on every column of a fault-free run.
#[test]
fn reports_validate_on_all_columns() {
    let app = small_app();
    let topo = Topology::new(4, 1);
    for features in FeatureSet::ALL {
        let out = run_app(&app, topo, features);
        out.report
            .validate(&features)
            .unwrap_or_else(|e| panic!("{}: {e}", features.name()));
    }
}

/// The GeNIMA timeline acceptance check: a valid Chrome-trace array
/// whose host tracks contain zero interrupt spans, with lock requests
/// serviced on the NI firmware tracks instead.
#[test]
fn genima_timeline_has_no_host_interrupts() {
    // Locks force remote requests: a program of lock-protected writes
    // makes Base interrupt and GeNIMA firmware-service visible.
    let programs = lock_heavy_programs(11, 3);
    let topo = Topology::new(3, 1);

    let base = record_run(programs(), topo, FeatureSet::base());
    assert!(
        base.count(SpanKind::Interrupt) > 0,
        "Base must interrupt the host for remote requests"
    );

    let genima = record_run(programs(), topo, FeatureSet::genima());
    assert_eq!(
        genima.count(SpanKind::Interrupt),
        0,
        "GeNIMA must never interrupt the host"
    );
    assert!(
        genima.count(SpanKind::NiLockService) > 0,
        "GeNIMA services lock requests in NI firmware"
    );
    let trace = timeline_json(&genima.spans);
    let stats = validate_trace(&trace).expect("GeNIMA trace is a valid trace_event array");
    assert!(stats.complete > 0, "trace has duration spans");
    assert_eq!(
        count_named(&trace, "interrupt"),
        0,
        "no interrupt events anywhere in the GeNIMA timeline"
    );
}

/// Fault-seeded snapshot: injected faults show up as instant events on
/// the injecting NIC's firmware track, and reconcile exactly with the
/// injector's own statistics and the recovery counters.
#[test]
fn fault_events_reconcile_with_recovery_counters() {
    let app = small_app();
    let topo = Topology::new(4, 1);
    let cfg = RunConfig::new(topo, FeatureSet::genima())
        .with_seed(0xC0FFEE)
        .with_faults(
            FaultPlan::new()
                .drop_rate(0.02)
                .duplicate_rate(0.01)
                .delay(0.02, Dur::from_us(300)),
        )
        .with_obs(ObsConfig::on());
    let out = run_app_configured(&app, &cfg).expect("recovery completes the run");
    assert!(out.faults.dropped > 0, "the plan must actually inject");
    assert_eq!(
        out.obs.count(SpanKind::FaultDrop) as u64,
        out.faults.dropped,
        "every injected drop is on the timeline"
    );
    assert_eq!(
        out.obs.count(SpanKind::FaultDup) as u64,
        out.faults.duplicated
    );
    assert_eq!(
        out.obs.count(SpanKind::FaultDelay) as u64,
        out.faults.delayed
    );
    assert_eq!(
        out.obs.count(SpanKind::Retransmit) as u64,
        out.report.recovery.retransmits,
        "every retry-timer retransmission is on the timeline"
    );
    for s in out.obs.of_kind(SpanKind::FaultDrop) {
        assert_eq!(s.track, Track::Firmware, "faults live on the NI track");
    }
    let trace = timeline_json(&out.obs.spans);
    validate_trace(&trace).expect("faulty trace still validates");
    assert_eq!(count_named(&trace, "fault_drop") as u64, out.faults.dropped);
}

/// Groups flow endpoints per flow id in time order, tie-broken Start
/// before Finish.
fn flows_by_id(spans: &[SpanRecord]) -> std::collections::BTreeMap<u64, Vec<(u64, FlowDir)>> {
    let mut by_id: std::collections::BTreeMap<u64, Vec<(u64, FlowDir)>> =
        std::collections::BTreeMap::new();
    for s in spans {
        if let Some(flow) = s.flow {
            by_id
                .entry(flow.id)
                .or_default()
                .push((s.start.as_ns(), flow.dir));
        }
    }
    for events in by_id.values_mut() {
        events.sort_by_key(|&(t, dir)| (t, matches!(dir, FlowDir::Finish)));
    }
    by_id
}

/// Every `FlowDir::Start` must pair with exactly one later `Finish`:
/// per flow id, the time-ordered endpoints alternate Start, Finish,
/// Start, Finish… (a collective's fan-in and fan-out edges share one
/// id, so an id may carry several consecutive pairs; lock grants and
/// diff deposits carry exactly one).
fn assert_flows_pair(spans: &[SpanRecord]) {
    for (id, events) in flows_by_id(spans) {
        assert_eq!(
            events.len() % 2,
            0,
            "flow {id:#x}: odd endpoint count {events:?}"
        );
        for (i, &(_, dir)) in events.iter().enumerate() {
            let expect = if i % 2 == 0 {
                FlowDir::Start
            } else {
                FlowDir::Finish
            };
            assert_eq!(
                dir, expect,
                "flow {id:#x}: endpoints do not alternate start/finish: {events:?}"
            );
        }
    }
}

/// Flow-arrow integrity: in a fault-free run, every `FlowDir::Start`
/// has exactly one matching `Finish` — across lock grants, direct
/// diff deposits, and NI-tree collective hops.
#[test]
fn flow_arrows_pair_exactly_in_fault_free_runs() {
    let app = small_app();
    let topo = Topology::new(4, 2);
    let cfg = RunConfig::new(topo, FeatureSet::genima())
        .with_barrier(BarrierImpl::NiTree { fanout: 2 })
        .with_obs(ObsConfig::on());
    let out = run_app_configured(&app, &cfg).expect("clean run");
    let coll_flows = out
        .obs
        .spans
        .iter()
        .filter(|s| {
            s.flow.is_some() && matches!(s.kind, SpanKind::CollFanIn | SpanKind::CollFanOut)
        })
        .count();
    assert!(coll_flows > 0, "NiTree run must carry collective flows");
    assert_flows_pair(&out.obs.spans);

    // Lock handoffs and remote diff deposits, via a lock-heavy program
    // on the same column.
    let report = record_run(
        lock_heavy_programs(23, 3)(),
        Topology::new(3, 1),
        FeatureSet::genima(),
    );
    for (kind, what) in [
        (SpanKind::NiLockGrant, "grant flows"),
        (SpanKind::DirectDiffDeposit, "diff-deposit flows"),
    ] {
        let n = report
            .spans
            .iter()
            .filter(|s| s.flow.is_some() && s.kind == kind)
            .count();
        assert!(n > 0, "lock program must carry {what}");
    }
    assert_flows_pair(&report.spans);
}

/// Duplicate-injection does not double a flow's finish: a redelivered
/// grant or deposit that slips past sequence dedupe is discarded
/// before its finish would be re-emitted, so the arrows still pair.
#[test]
fn duplicated_grants_do_not_double_flow_finishes() {
    let app = small_app();
    let topo = Topology::new(4, 1);
    let cfg = RunConfig::new(topo, FeatureSet::genima())
        .with_seed(0xDEC0DE)
        .with_faults(FaultPlan::new().duplicate_rate(0.10))
        .with_obs(ObsConfig::on());
    let out = run_app_configured(&app, &cfg).expect("recovery completes the run");
    assert!(out.faults.duplicated > 0, "the plan must actually inject");
    assert_flows_pair(&out.obs.spans);
}

/// Builds per-process programs of lock-protected writes separated by
/// barriers — deterministic from `seed`, data-race-free by slot
/// salting (each process owns `slot % nprocs == pid`).
fn lock_heavy_programs(seed: u64, nprocs: usize) -> impl Fn() -> Vec<Box<dyn OpSource>> {
    move || {
        let mut rng = SplitMix64::new(seed);
        let mut programs: Vec<Vec<Op>> = vec![Vec::new(); nprocs];
        let slots_per_page = (PAGE_SIZE as u64) / 64;
        for (bar, _phase) in (0..3).enumerate() {
            for (pid, ops) in programs.iter_mut().enumerate() {
                for _ in 0..4 {
                    let page = rng.next_below(8);
                    let raw = rng.next_below(slots_per_page / nprocs as u64);
                    let slot = raw * nprocs as u64 + pid as u64;
                    let lock = LockId::new((page % 4) as usize);
                    ops.push(Op::Acquire(lock));
                    ops.push(Op::WriteData {
                        addr: Addr::new(page * PAGE_SIZE as u64 + slot * 64),
                        data: vec![pid as u8 + 1; 16],
                    });
                    ops.push(Op::Release(lock));
                    if rng.next_below(3) == 0 {
                        ops.push(Op::Compute(Dur::from_us(rng.next_below(150))));
                    }
                }
            }
            for ops in programs.iter_mut() {
                ops.push(Op::Barrier(BarrierId::new(bar)));
            }
        }
        programs
            .into_iter()
            .map(|ops| Box::new(ops_source(ops)) as Box<dyn OpSource>)
            .collect()
    }
}

/// Runs raw programs on a cluster with a recorder installed and
/// returns the drained spans.
fn record_run(
    programs: Vec<Box<dyn OpSource>>,
    topo: Topology,
    features: FeatureSet,
) -> genima::ObsReport {
    let mut params = Column::lanai(features).params(topo);
    params.locks = 4;
    let mut sys = SvmSystem::new(params, programs);
    let handle =
        Recorder::shared(topo.nodes, &ObsConfig::on()).expect("enabled config yields a recorder");
    sys.set_observer(handle.clone());
    sys.run();
    let mut recorder = handle.borrow_mut();
    recorder.take()
}

/// Host-track duration spans of one kind never overlap on a node with
/// a single processor: a proc has at most one fetch, one lock wait,
/// one barrier wait, and the interrupt handler is a serial resource.
fn assert_spans_nest(spans: &[SpanRecord]) {
    let kinds = [
        SpanKind::PageFetch,
        SpanKind::LockAcquire,
        SpanKind::BarrierWait,
        SpanKind::Interrupt,
    ];
    for kind in kinds {
        let mut per_node: std::collections::BTreeMap<usize, Vec<&SpanRecord>> =
            std::collections::BTreeMap::new();
        for s in spans {
            if s.kind == kind && s.track == Track::Host {
                per_node.entry(s.node).or_default().push(s);
            }
        }
        for (node, mut list) in per_node {
            list.sort_by_key(|s| s.start);
            for pair in list.windows(2) {
                assert!(
                    pair[1].start >= pair[0].end(),
                    "{} spans overlap on node {node}: {:?} then {:?}",
                    kind.name(),
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same-kind host spans are disjoint per single-proc node across
    /// random fault-free lock/barrier schedules, on the two extreme
    /// columns (host-interrupt servicing vs NI-firmware servicing).
    #[test]
    fn spans_nest_across_random_schedules(seed in any::<u64>()) {
        let topo = Topology::new(3, 1);
        for features in [FeatureSet::base(), FeatureSet::genima()] {
            let programs = lock_heavy_programs(seed, 3);
            let report = record_run(programs(), topo, features);
            prop_assert!(!report.spans.is_empty());
            assert_spans_nest(&report.spans);
        }
    }
}
