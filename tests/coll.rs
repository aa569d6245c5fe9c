//! NI-firmware collective integration tests: the zero-host-protocol
//! acceptance story. With NI-tree barriers, GeNIMA completes whole
//! applications with zero host interrupts *and* zero node-0
//! barrier-manager messages; the collective spans land on the firmware
//! track; and a lossy fabric converges to bit-identical reduce
//! results.

use genima::{
    run_app_configured, timeline_json, validate_trace, BarrierImpl, FaultPlan, FeatureSet,
    ObsConfig, PlanInjector, RunConfig, SpanKind, Topology, Track,
};
use genima_apps::{App, Fft, LuContiguous, OceanRowwise, RadixLocal, WaterNsquared};
use genima_net::{NetConfig, NicId};
use genima_nic::{CollId, Comm, NicConfig, Post, ReduceOp, Upcall};
use genima_obs::count_named;
use genima_sim::{EventQueue, RunSeed, Time};

/// Five applications at reduced problem sizes, enough iterations that
/// every one crosses several barrier episodes.
fn small_apps() -> Vec<Box<dyn App>> {
    vec![
        Box::new(Fft::with_points(1 << 12)),
        Box::new(LuContiguous::with_size(128, 16)),
        Box::new(OceanRowwise::with_grid(64, 2)),
        Box::new(WaterNsquared::with_molecules(64, 2)),
        Box::new(RadixLocal::with_keys(1 << 12, 256, 2)),
    ]
}

/// The acceptance property of the collective subsystem: with NI-tree
/// barriers (the GeNIMA default), every application completes with
/// zero host interrupts and zero barrier-manager messages — the whole
/// synchronization story runs in NI firmware.
#[test]
fn genima_apps_complete_with_zero_host_protocol() {
    let topo = Topology::new(4, 1);
    for app in small_apps() {
        let cfg = RunConfig::new(topo, FeatureSet::genima());
        let run = run_app_configured(app.as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{}: clean run aborted: {e}", app.name()));
        run.report
            .validate(&cfg.params.features)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        assert!(
            run.report.ni_barrier,
            "{}: GeNIMA defaults to the NI tree",
            app.name()
        );
        assert!(
            run.report.counters.barriers > 0,
            "{}: no barriers crossed",
            app.name()
        );
        assert_eq!(
            run.report.counters.interrupts,
            0,
            "{}: host interrupts",
            app.name()
        );
        assert_eq!(
            run.report.counters.barrier_manager_msgs,
            0,
            "{}: node-0 manager messages under NI-tree barriers",
            app.name()
        );
    }
}

/// The two barrier implementations synchronize identically: same
/// episode count, same warmup handling — only the transport differs
/// (host messages through node 0 vs firmware combines up the tree).
#[test]
fn host_and_ni_barriers_cross_the_same_episodes() {
    let app = OceanRowwise::with_grid(64, 2);
    let topo = Topology::new(4, 1);
    let ni = run_app_configured(&app, &RunConfig::new(topo, FeatureSet::genima()))
        .expect("NI-tree run completes");
    let host = run_app_configured(
        &app,
        &RunConfig::new(topo, FeatureSet::genima()).with_barrier(BarrierImpl::HostManager),
    )
    .expect("host-manager run completes");
    assert_eq!(ni.report.counters.barriers, host.report.counters.barriers);
    assert!(ni.report.ni_barrier);
    assert!(!host.report.ni_barrier);
    assert_eq!(ni.report.counters.barrier_manager_msgs, 0);
    assert!(
        host.report.counters.barrier_manager_msgs > 0,
        "the host manager exchanges arrival/release messages"
    );
    assert_eq!(
        host.report.counters.interrupts, 0,
        "GeNIMA stays interrupt-free on either barrier path"
    );
}

/// Timeline acceptance: a GeNIMA run with NI-tree barriers records
/// zero host interrupt spans and puts the collective activity —
/// fan-in arrivals, firmware combines, fan-out releases — on the
/// ni-firmware track. Forcing the host manager removes every
/// collective span.
#[test]
fn ni_barrier_timeline_is_interrupt_free_with_collective_spans() {
    let app = OceanRowwise::with_grid(64, 2);
    let topo = Topology::new(4, 1);
    let cfg = RunConfig::new(topo, FeatureSet::genima()).with_obs(ObsConfig::on());
    let run = run_app_configured(&app, &cfg).expect("clean run");
    assert_eq!(
        run.obs.count(SpanKind::Interrupt),
        0,
        "no host interrupt spans"
    );
    assert!(
        run.obs.count(SpanKind::CollFanIn) > 0,
        "fan-in arrivals recorded"
    );
    assert!(
        run.obs.count(SpanKind::CollCombine) > 0,
        "firmware combines recorded"
    );
    assert!(
        run.obs.count(SpanKind::CollFanOut) > 0,
        "fan-out releases recorded"
    );
    for s in run.obs.of_kind(SpanKind::CollCombine) {
        assert_eq!(s.track, Track::Firmware, "combines run in NI firmware");
    }
    let trace = timeline_json(&run.obs.spans);
    validate_trace(&trace).expect("collective trace validates");
    assert_eq!(count_named(&trace, "interrupt"), 0);
    assert!(count_named(&trace, "coll_combine") > 0);

    let host_cfg = RunConfig::new(topo, FeatureSet::genima())
        .with_obs(ObsConfig::on())
        .with_barrier(BarrierImpl::HostManager);
    let host = run_app_configured(&app, &host_cfg).expect("clean run");
    for kind in [
        SpanKind::CollFanIn,
        SpanKind::CollCombine,
        SpanKind::CollFanOut,
    ] {
        assert_eq!(
            host.obs.count(kind),
            0,
            "host-managed barriers emit no collective spans"
        );
    }
}

/// Drives a Comm to quiescence from a batch of posts, returning the
/// upcalls in delivery order.
fn drain_all(comm: &mut Comm, posts: Vec<Post>) -> Vec<(Time, Upcall)> {
    let mut q = EventQueue::new();
    let mut ups: Vec<(Time, Upcall)> = Vec::new();
    for post in posts {
        ups.extend(post.upcalls);
        for (t, e) in post.events {
            q.push(t, e);
        }
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

/// Runs `epochs` all-reduce rounds on `ports` nodes and returns the
/// per-epoch combined vectors, in epoch order.
fn reduce_rounds(comm: &mut Comm, ports: usize, epochs: u32) -> Vec<Vec<u64>> {
    let coll = CollId::new(7);
    let mut results = Vec::new();
    for e in 0..epochs {
        let posts: Vec<_> = (0..ports)
            .map(|n| {
                comm.coll_enter(
                    Time::ZERO,
                    NicId::new(n),
                    coll,
                    ReduceOp::Sum,
                    &[n as u64 + 1, (e as u64 + 1) * (n as u64 + 1)],
                )
            })
            .collect();
        let ups = drain_all(comm, posts);
        let completions = ups
            .iter()
            .filter(|(_, u)| matches!(u, Upcall::CollCompleted { epoch, .. } if *epoch == e))
            .count();
        assert_eq!(
            completions, ports,
            "every node exits epoch {e} exactly once"
        );
        let (res_epoch, vals) = comm
            .coll_result(coll)
            .expect("result readable at completion");
        assert_eq!(res_epoch, e);
        results.push(vals.to_vec());
    }
    results
}

/// The fault-recovery property of the collective subsystem: dropping
/// fan-in and fan-out packets at 10 % loss (the protocol retransmits
/// from per-channel sequence state) still converges every epoch, with
/// reduce results bit-identical to the clean run.
#[test]
fn dropped_collective_packets_converge_bit_identically() {
    let ports = 8;
    let epochs = 3;

    let mut clean = Comm::new(NicConfig::default(), NetConfig::myrinet(), ports, 0);
    let clean_results = reduce_rounds(&mut clean, ports, epochs);
    for (e, vals) in clean_results.iter().enumerate() {
        // Sum over n of (n+1) = 36; sum over n of (e+1)(n+1) = 36(e+1).
        assert_eq!(vals.as_slice(), &[36, 36 * (e as u64 + 1)]);
    }

    let mut lossy = Comm::new(NicConfig::default(), NetConfig::myrinet(), ports, 0);
    let injector = PlanInjector::new(FaultPlan::new().drop_rate(0.10), RunSeed::new(0xC011));
    let stats = injector.stats_handle();
    lossy.set_fault_injector(Box::new(injector));
    let lossy_results = reduce_rounds(&mut lossy, ports, epochs);

    assert!(
        stats.borrow().dropped > 0,
        "the plan must actually drop packets"
    );
    assert!(
        lossy.recovery_stats().retransmits > 0,
        "drops recover through retransmission"
    );
    assert_eq!(
        clean_results, lossy_results,
        "reduce results are bit-identical under 10% loss"
    );
}

/// End to end: a full GeNIMA application over a lossy, duplicating,
/// delaying fabric keeps the zero-host-protocol property — NI-tree
/// barrier recovery lives in firmware, not in host interrupts or
/// manager messages.
#[test]
fn lossy_genima_run_keeps_zero_host_protocol() {
    let app = OceanRowwise::with_grid(64, 2);
    let clean = run_app_configured(
        &app,
        &RunConfig::new(Topology::new(4, 1), FeatureSet::genima()),
    )
    .expect("clean run");
    let cfg = RunConfig::new(Topology::new(4, 1), FeatureSet::genima())
        .with_seed(0xBA44)
        .with_faults(
            FaultPlan::new()
                .drop_rate(0.10)
                .duplicate_rate(0.05)
                .delay(0.10, genima_sim::Dur::from_us(250)),
        );
    let run = run_app_configured(&app, &cfg).expect("recovery completes the run");
    assert!(
        run.faults.dropped > 0,
        "the plan must actually drop packets"
    );
    run.report
        .validate(&cfg.params.features)
        .expect("report validates");
    assert_eq!(run.report.counters.interrupts, 0);
    assert_eq!(run.report.counters.barrier_manager_msgs, 0);
    assert_eq!(
        run.report.counters.barriers, clean.report.counters.barriers,
        "loss never double-releases or skips a barrier episode"
    );
}
