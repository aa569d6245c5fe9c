//! Fault injection and recovery, end to end: bit-identity of the
//! clean path, exactly-once delivery under duplication and delay, full
//! protocol sweeps under loss, and graceful reporting of dead peers.

use genima::{
    run_app, run_app_configured, Column, FaultPlan, FeatureSet, HwProfile, PlanInjector,
    ProtoError, RunConfig, RunReport, RunSeed, Topology,
};
use genima_apps::{App, OceanRowwise};
use genima_check::{audit_traces, run_app_audited, run_app_audited_with, Audit};
use genima_net::{NetConfig, NicId};
use genima_nic::{Comm, FaultInjector, MsgKind, NicConfig, NoFaults, Post, SendDesc, Tag, Upcall};
use genima_sim::{Dur, EventQueue, Time};
use proptest::prelude::*;

fn assert_reports_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.parallel_time(), b.parallel_time(), "{what}: time");
    assert_eq!(a.events, b.events, "{what}: event count");
    assert_eq!(a.counters, b.counters, "{what}: counters");
    assert_eq!(a.recovery, b.recovery, "{what}: recovery counters");
    for (x, y) in a.breakdowns.iter().zip(&b.breakdowns) {
        assert_eq!(x, y, "{what}: per-process breakdowns");
    }
    assert_eq!(
        a.monitor.total_bytes(),
        b.monitor.total_bytes(),
        "{what}: monitored traffic"
    );
}

/// Runs `app` on `features` with `injector` installed and tracing on,
/// the system built as `run_app_configured` builds it, and audits the
/// trace.
fn audited_with(
    app: &dyn App,
    topo: Topology,
    features: FeatureSet,
    injector: Box<dyn FaultInjector>,
) -> (RunReport, Audit) {
    let mut sys = app
        .spec(topo)
        .into_system(Column::lanai(features).params(topo));
    sys.set_fault_injector(injector);
    sys.set_tracing(true);
    let report = sys.try_run().expect("inert run cannot abort");
    report
        .validate(&features)
        .expect("inert run reports validly");
    let audit = audit_traces(features, topo.nodes, &sys.take_trace());
    (report, audit)
}

/// Installing the inert injector — or a compiled `FaultPlan::none()` —
/// must leave every observable of a run bit-identical to not
/// installing one at all. The sequencing/dedup bookkeeping may run, but
/// no timing or counter may move.
#[test]
fn inert_injectors_are_bit_identical_to_clean_runs() {
    let app = OceanRowwise::with_grid(128, 2);
    let topo = Topology::new(4, 1);
    for features in [FeatureSet::base(), FeatureSet::genima()] {
        let clean = run_app_audited(&app, topo, features);
        let inert = audited_with(&app, topo, features, Box::new(NoFaults));
        let none_plan = PlanInjector::new(FaultPlan::none(), RunSeed::default());
        let none_plan = audited_with(&app, topo, features, Box::new(none_plan));
        assert_reports_identical(&clean.report, &inert.0, "NoFaults");
        assert_reports_identical(&clean.report, &none_plan.0, "FaultPlan::none");
        assert!(inert.1.is_clean());
        assert!(none_plan.1.is_clean());
    }
}

/// The configured entry point with an inactive plan is the same run as
/// the plain one.
#[test]
fn configured_clean_run_matches_run_app() {
    let app = OceanRowwise::with_grid(128, 2);
    let cfg = RunConfig::new(Topology::new(2, 2), FeatureSet::genima()).with_seed(7);
    let plain = run_app(&app, cfg.params.topo, cfg.params.features);
    let configured = run_app_configured(&app, &cfg).expect("clean run cannot abort");
    assert_reports_identical(&plain.report, &configured.report, "RunConfig");
    assert_eq!(configured.faults.packets, 0, "no injector consulted");
}

/// Every protocol column survives a lossy, duplicating, reordering
/// fabric: the run completes, all invariants audit clean, and GeNIMA
/// still takes zero host interrupts.
#[test]
fn all_columns_recover_from_five_percent_loss() {
    let app = OceanRowwise::with_grid(96, 2);
    let topo = Topology::new(4, 1);
    let plan = FaultPlan::new()
        .drop_rate(0.05)
        .duplicate_rate(0.05)
        .delay(0.10, Dur::from_us(250));
    for features in FeatureSet::ALL {
        let cfg = RunConfig::new(topo, features)
            .with_seed(0xFA117)
            .with_faults(plan.clone());
        let run = run_app_audited_with(&app, &cfg)
            .unwrap_or_else(|e| panic!("{features}: aborted under 5% loss: {e}"));
        assert!(
            run.audit.is_clean(),
            "{features}: invariant violations under faults: {:?}",
            run.audit.violations
        );
        if features.interrupt_free() {
            assert_eq!(
                run.report.counters.interrupts, 0,
                "recovery must not reintroduce host interrupts"
            );
        }
        let s = run.faults;
        assert!(s.packets > 0, "{features}: injector never consulted");
        assert_eq!(
            run.report.recovery.retransmits, s.dropped,
            "{features}: every probabilistic drop is retransmitted exactly once \
             at these rates (deterministic for this seed)"
        );
        assert_eq!(
            run.report.recovery.duplicates_suppressed, s.duplicated,
            "{features}: every injected duplicate is suppressed at the receiver"
        );
        assert_eq!(run.report.recovery.unreachable, 0);
    }
}

/// Identical faulty runs are still deterministic: same seed, same
/// schedule, same report.
#[test]
fn faulty_runs_are_deterministic_for_a_seed() {
    let app = OceanRowwise::with_grid(96, 2);
    let plan = FaultPlan::new()
        .drop_rate(0.08)
        .delay(0.1, Dur::from_us(200));
    let cfg = RunConfig::new(Topology::new(4, 1), FeatureSet::genima())
        .with_seed(42)
        .with_faults(plan);
    let a = run_app_configured(&app, &cfg).expect("completes");
    let b = run_app_configured(&app, &cfg).expect("completes");
    assert_reports_identical(&a.report, &b.report, "seeded faulty run");
    assert_eq!(a.faults, b.faults);
    assert!(a.faults.perturbed() > 0, "plan actually perturbed the run");

    let other = run_app_configured(
        &app,
        &RunConfig {
            seed: RunSeed::new(43),
            ..cfg
        },
    )
    .expect("completes");
    assert_ne!(
        a.faults, other.faults,
        "a different seed must fault a different schedule"
    );
}

/// A node that stays unresponsive past the whole exponential-backoff
/// budget surfaces `ProtoError::PeerUnreachable` through `try_run`
/// instead of wedging the event loop.
#[test]
fn dead_peer_surfaces_typed_error() {
    let app = OceanRowwise::with_grid(96, 2);
    let dead = NicId::new(1);
    let cfg = RunConfig::new(Topology::new(2, 1), FeatureSet::genima())
        .with_faults(FaultPlan::new().outage(dead, Time::ZERO, Time::from_ns(u64::MAX)));
    match run_app_configured(&app, &cfg) {
        Err(ProtoError::PeerUnreachable { node, peer }) => {
            assert_eq!(peer, dead.index());
            assert_ne!(node, peer);
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a run against a permanently dead node cannot complete"),
    }
}

/// A *transient* outage shorter than the backoff budget delays the run
/// but does not kill it.
#[test]
fn transient_outage_recovers() {
    let app = OceanRowwise::with_grid(96, 2);
    let topo = Topology::new(2, 1);
    let clean = run_app(&app, topo, FeatureSet::genima());
    let cfg = RunConfig::new(topo, FeatureSet::genima()).with_faults(FaultPlan::new().outage(
        NicId::new(1),
        Time::from_ns(200_000),
        Time::from_ns(1_400_000),
    ));
    let faulty = run_app_configured(&app, &cfg).expect("outage ends before the retry budget");
    assert!(faulty.faults.outage_drops > 0, "outage hit live traffic");
    assert!(faulty.report.recovery.retransmits > 0);
    assert!(
        faulty.report.parallel_time() > clean.report.parallel_time(),
        "riding out an outage costs time"
    );
}

/// Deposits `bytes` from `src` into `dst` at `t`.
fn deposit(comm: &mut Comm, t: Time, src: NicId, dst: NicId, bytes: u32, tag: Tag) -> Post {
    let desc = SendDesc {
        dst,
        bytes,
        kind: MsgKind::Deposit,
        tag,
    };
    comm.post_send(t, src, desc)
}

/// Drives a Comm to quiescence, returning (time, upcall) pairs in
/// delivery order.
fn drain(comm: &mut Comm, post: Post) -> Vec<(Time, Upcall)> {
    let mut q = EventQueue::new();
    let mut ups: Vec<(Time, Upcall)> = post.upcalls.into_iter().collect();
    for (t, e) in post.events {
        q.push(t, e);
    }
    while let Some((t, e)) = q.pop() {
        let s = comm.handle(t, e);
        ups.extend(s.upcalls);
        for (t2, e2) in s.events {
            q.push(t2, e2);
        }
    }
    ups.sort_by_key(|&(t, _)| t);
    ups
}

fn arrivals(ups: &[(Time, Upcall)]) -> Vec<(Time, u64)> {
    ups.iter()
        .filter_map(|&(t, ref u)| match *u {
            Upcall::DepositArrived { tag, .. } => Some((t, tag.value())),
            Upcall::FetchCompleted { .. }
            | Upcall::HostMsgArrived { .. }
            | Upcall::LockGranted { .. }
            | Upcall::LockDeparted { .. }
            | Upcall::AtomicCompleted { .. }
            | Upcall::CollCompleted { .. }
            | Upcall::PeerUnreachable { .. } => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A duplicated direct-diff deposit is applied exactly once: the
    /// receiver suppresses the copy by sequence number, whatever the
    /// payload size or how far the duplicate lags.
    #[test]
    fn duplicated_deposit_applies_exactly_once(
        size in 1u32..8192,
        lag_us in 1u64..2_000,
    ) {
        let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
        let plan = FaultPlan::new()
            .duplicate_nth(NicId::new(0), NicId::new(1), 1, Dur::from_us(lag_us));
        comm.set_fault_injector(Box::new(PlanInjector::new(plan, RunSeed::new(1))));
        let p = deposit(&mut comm, Time::ZERO, NicId::new(0), NicId::new(1), size, Tag::new(9));
        let ups = drain(&mut comm, p);
        let got = arrivals(&ups);
        prop_assert_eq!(got.len(), 1, "deposit must complete exactly once: {:?}", got);
        prop_assert_eq!(got[0].1, 9);
        prop_assert_eq!(comm.recovery_stats().duplicates_suppressed, 1);
    }

    /// A delayed (reordered) stale deposit never lands on top of newer
    /// content: deposit A is delayed past deposit B on the same
    /// channel, and B's completion still happens after A's — the
    /// receiver processes A first even though the fabric held it back,
    /// because per-channel sequence order is restored by suppression
    /// and ordering, and each deposit completes exactly once.
    #[test]
    fn delayed_deposit_completes_once_and_never_reorders_completions(
        size in 1u32..4096,
        extra_us in 1u64..1_500,
    ) {
        // Clean reference timing.
        let mut clean = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
        let p = deposit(&mut clean, Time::ZERO, NicId::new(0), NicId::new(1), size, Tag::new(1));
        let t_clean = arrivals(&drain(&mut clean, p))[0].0;

        let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
        let plan = FaultPlan::new()
            .delay_nth(NicId::new(0), NicId::new(1), 1, Dur::from_us(extra_us));
        comm.set_fault_injector(Box::new(PlanInjector::new(plan, RunSeed::new(2))));
        let p = deposit(&mut comm, Time::ZERO, NicId::new(0), NicId::new(1), size, Tag::new(1));
        let ups = drain(&mut comm, p);
        let got = arrivals(&ups);
        prop_assert_eq!(got.len(), 1);
        prop_assert!(
            got[0].0 >= t_clean + Dur::from_us(extra_us),
            "delay must push completion past the clean time: {} < {} + {}us",
            got[0].0, t_clean, extra_us
        );
    }

    /// Dropping any prefix packet of a multi-fragment deposit still
    /// completes the deposit exactly once, after a retransmission.
    #[test]
    fn dropped_fragment_is_retransmitted_exactly_once(
        nth in 1u64..4,
        size in 8192u32..16384,
    ) {
        let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
        let plan = FaultPlan::new().drop_nth(NicId::new(0), NicId::new(1), nth);
        comm.set_fault_injector(Box::new(PlanInjector::new(plan, RunSeed::new(3))));
        let p = deposit(&mut comm, Time::ZERO, NicId::new(0), NicId::new(1), size, Tag::new(5));
        let ups = drain(&mut comm, p);
        let got = arrivals(&ups);
        prop_assert_eq!(got.len(), 1, "exactly one completion: {:?}", got);
        prop_assert_eq!(comm.recovery_stats().retransmits, 1);
        prop_assert_eq!(comm.recovery_stats().unreachable, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// WRITE-with-immediate deposits on the 2025 RNIC are delivered
    /// exactly once under a fabric that drops 10% and duplicates 10%
    /// of packets: the sequence/retry layer recovers every loss, the
    /// receiver suppresses every duplicate before it touches memory,
    /// and each arrival surfaces through the CQE path — never twice,
    /// never zero times — whatever the message size mix or fault seed.
    #[test]
    fn rnic_writes_with_immediate_deliver_exactly_once_under_loss(
        sizes in proptest::collection::vec(1u32..8192, 1..32),
        seed in 0u64..512,
    ) {
        let hw = HwProfile::rnic_2025();
        let mut comm = Comm::with_model(hw.model(3), hw.nic, hw.net, 3, 0);
        let injector = PlanInjector::new(
            FaultPlan::new().drop_rate(0.10).duplicate_rate(0.10),
            RunSeed::new(seed),
        );
        let stats = injector.stats_handle();
        comm.set_fault_injector(Box::new(injector));
        let mut q = EventQueue::new();
        let mut ups: Vec<(Time, Upcall)> = Vec::new();
        let mut t = Time::ZERO;
        for (i, &sz) in sizes.iter().enumerate() {
            let dst = NicId::new(1 + i % 2);
            let p = deposit(&mut comm, t, NicId::new(0), dst, sz, Tag::new(i as u64));
            t = p.host_free;
            ups.extend(p.upcalls);
            for (t2, e) in p.events {
                q.push(t2, e);
            }
        }
        while let Some((te, e)) = q.pop() {
            let s = comm.handle(te, e);
            ups.extend(s.upcalls);
            for (t2, e2) in s.events {
                q.push(t2, e2);
            }
        }
        let mut seen = vec![0u32; sizes.len()];
        for (_, u) in &ups {
            if let Upcall::DepositArrived { tag, .. } = u {
                seen[tag.value() as usize] += 1;
            }
        }
        for (i, &c) in seen.iter().enumerate() {
            prop_assert_eq!(c, 1, "deposit {} surfaced {} times", i, c);
        }
        let s = stats.borrow();
        let rec = comm.recovery_stats();
        prop_assert_eq!(rec.retransmits, s.dropped, "every drop retransmitted once");
        prop_assert_eq!(rec.duplicates_suppressed, s.duplicated, "every dup suppressed");
        let ni = comm.ni_stats();
        prop_assert!(ni.doorbells > 0, "RNIC sends must ring doorbells");
        prop_assert!(ni.cqes > 0, "RNIC arrivals must post CQEs");
    }
}

/// A fetch parked on its page's mapping, and a second one queued behind
/// it on the same channel, each complete exactly once on the 2025 RNIC
/// when both requests are duplicated: each copy is suppressed once on
/// arrival — before, during or after the park — and never again when
/// the parked original is received or resumed.
#[test]
fn parked_fetches_complete_exactly_once_under_duplication() {
    let (h, a) = (NicId::new(0), NicId::new(1));
    for lag_us in [1, 20, 44, 60, 200] {
        let hw = HwProfile::rnic_2025();
        let mut comm = Comm::with_model(hw.model(2), hw.nic, hw.net, 2, 0);
        let lag = Dur::from_us(lag_us);
        let plan = FaultPlan::new()
            .duplicate_nth(a, h, 1, lag)
            .duplicate_nth(a, h, 2, lag);
        comm.set_fault_injector(Box::new(PlanInjector::new(plan, RunSeed::new(lag_us))));
        let mut both = comm.fetch(Time::ZERO, a, h, 4096, 7, Tag::new(1));
        let second = comm.fetch(both.host_free, a, h, 4096, 8, Tag::new(2));
        both.events.extend(second.events);
        let ups = drain(&mut comm, both);
        let mut done = [0u32; 2];
        for (_, u) in &ups {
            if let Upcall::FetchCompleted { tag, .. } = u {
                done[tag.value() as usize - 1] += 1;
            }
        }
        assert_eq!(done, [1, 1], "lag {lag_us}us: each fetch completes once");
        assert_eq!(
            comm.recovery_stats().duplicates_suppressed,
            2,
            "lag {lag_us}us"
        );
        assert_eq!(comm.ni_stats().odp_faults, 2, "lag {lag_us}us");
    }
}

/// End-to-end "never over newer content": the direct-diff column runs
/// its built-in data validations under heavy duplication and delay.
/// If a stale duplicate ever overwrote newer data, `Op::Validate`
/// would fail inside the run.
#[test]
fn direct_diffs_validate_under_heavy_duplication_and_delay() {
    let app = OceanRowwise::with_grid(96, 2);
    let plan = FaultPlan::new()
        .duplicate_rate(0.2)
        .delay(0.3, Dur::from_us(500));
    for features in [FeatureSet::dw_rf_dd(), FeatureSet::genima()] {
        let cfg = RunConfig::new(Topology::new(4, 1), features)
            .with_seed(0xDD)
            .with_faults(plan.clone());
        let run = run_app_configured(&app, &cfg).expect("no drops, cannot abort");
        assert!(run.faults.duplicated > 0, "plan exercised duplication");
        assert_eq!(
            run.report.recovery.duplicates_suppressed, run.faults.duplicated,
            "all duplicates suppressed before touching memory"
        );
    }
}
