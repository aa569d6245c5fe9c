//! End-to-end protocol audits: run real workloads under every paper
//! configuration with tracing on and replay the trace against the
//! protocol invariants.

use genima::RunConfig;
use genima_apps::{App, BarnesOriginal, OceanRowwise, WaterNsquared};
use genima_check::{audit_traces, detect_races, run_app_audited, run_app_audited_with};
use genima_fault::{FaultPlan, PlanInjector};
use genima_proto::{
    ops_source, Addr, BarrierId, Column, FeatureSet, LockId, NodeId, Op, PageId, SvmSystem,
    Topology, TraceEvent, PAGE_SIZE,
};
use genima_sim::{Dur, RunSeed, Time};

/// Every invariant holds for a barrier-heavy stencil and a lock-heavy
/// molecular-dynamics workload under all five protocol columns.
#[test]
fn auditor_is_clean_across_all_five_configurations() {
    let topo = Topology::new(2, 2);
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(OceanRowwise::with_grid(128, 2)),
        Box::new(WaterNsquared::with_molecules(256, 1)),
        Box::new(BarnesOriginal::with_bodies(512, 1)),
    ];
    for app in &apps {
        for features in FeatureSet::ALL {
            let run = run_app_audited(app.as_ref(), topo, features);
            assert!(
                run.audit.is_clean(),
                "{} under {}: {}",
                app.name(),
                features.name(),
                run.audit
            );
            assert!(
                run.audit.events > run.audit.lock_events,
                "{} under {}: tracing recorded no protocol event",
                app.name(),
                features.name()
            );
        }
    }
}

/// The sixth column: the full GeNIMA protocol on the 2025 RNIC audits
/// clean on every workload, with masked-CAS locks replacing the
/// firmware lock machines (their wins and clears are the trace's lock
/// transitions) and RDMA completions replacing host interrupts
/// entirely.
#[test]
fn genima_2025_audits_clean_across_workloads() {
    let topo = Topology::new(2, 2);
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(OceanRowwise::with_grid(128, 2)),
        Box::new(WaterNsquared::with_molecules(256, 1)),
        Box::new(BarnesOriginal::with_bodies(512, 1)),
    ];
    for app in &apps {
        let run = run_app_audited(app.as_ref(), topo, Column::genima_2025());
        assert!(
            run.audit.is_clean(),
            "{} under GeNIMA-2025: {}",
            app.name(),
            run.audit
        );
        assert!(
            run.audit.events > run.audit.lock_events,
            "tracing recorded no protocol event"
        );
        assert!(
            run.audit.lock_events > 0,
            "{}: masked-CAS wins and clears must be traced",
            app.name()
        );
        assert_eq!(
            run.report.counters.interrupts,
            0,
            "{}: the RNIC column must be interrupt-free",
            app.name()
        );
        assert!(
            run.report.ni.doorbells > 0 && run.report.ni.cqes > 0,
            "{}: RNIC counters must move (doorbells {}, cqes {})",
            app.name(),
            run.report.ni.doorbells,
            run.report.ni.cqes
        );
    }
}

/// GeNIMA-2025 hands a lock over before the releaser's diffs leave, so
/// the next holder's first read can reach the home ahead of them. What
/// keeps LRC then is the version check, on both of its paths: at the
/// home itself the reader waits on the page until the diff lands; a
/// fetch from a third-node home comes back stale and is retried. p0
/// takes the lock before the barrier and p1 asks for it after, so the
/// program is race-free under every schedule and p1 is parked on the
/// lock while p0 dirties sixteen pages inside the critical section.
#[test]
fn a_read_that_outruns_the_2025_releasers_diffs_waits_at_the_home_or_refetches() {
    let (l, b) = (LockId::new(0), BarrierId::new(0));
    let (first, pages, read) = (8, 16, 8 + 11);
    let at = |page: usize| Addr::new((page * PAGE_SIZE) as u64);
    let mut holder = vec![Op::Acquire(l), Op::Barrier(b)];
    holder.extend((first..first + pages).map(|page| Op::WriteData {
        addr: at(page),
        data: vec![page as u8; 8],
    }));
    holder.extend([Op::WaitUntil(Time::ZERO + Dur::from_ms(5)), Op::Release(l)]);
    let reader = vec![
        Op::Barrier(b),
        Op::Acquire(l),
        Op::Validate {
            addr: at(read),
            expected: vec![read as u8; 8],
        },
        Op::Release(l),
    ];
    let programs = vec![holder, reader, vec![Op::Barrier(b)]];
    assert_eq!(detect_races(&programs), Ok(vec![]));

    let page = PageId::new(read);
    for home in [1, 2] {
        let mut params = Column::genima_2025().params(Topology::new(3, 1));
        params.data_mode = true;
        let srcs = programs.iter().cloned();
        let srcs = srcs.map(|ops| Box::new(ops_source(ops)) as _).collect();
        let mut sys = SvmSystem::new(params, srcs);
        sys.assign_homes(PageId::new(first), pages, NodeId::new(home));
        if home == 2 {
            // The fabric is FIFO into a port, so on a clean one p1's
            // fetch queues behind the diffs p0 has already posted to
            // that home and never sees a stale copy. A p0 -> home path
            // 200 us longer lets it.
            let (p0, h) = (NodeId::new(0).nic(), NodeId::new(home).nic());
            let slow = (1..=100).fold(FaultPlan::new(), |plan, nth| {
                plan.delay_nth(p0, h, nth, Dur::from_us(200))
            });
            sys.set_fault_injector(Box::new(PlanInjector::new(slow, RunSeed::new(1))));
        }
        sys.set_tracing(true);
        // p1's `Validate` passing is p1 reading p0's bytes.
        let report = sys.run();
        let trace = sys.take_trace();
        let audit = audit_traces(FeatureSet::genima(), 3, &trace);
        assert!(audit.is_clean(), "home n{home}: {audit}");
        // In emission order: p1's barrier exit and grant, then p0's
        // diff of the page lands, then p1's fault on it completes.
        let order: Vec<&str> = (trace.iter())
            .filter_map(|e| match e {
                TraceEvent::SyncDone { proc: 1, .. } => Some("sync"),
                TraceEvent::DiffApplied { page: pg, .. } if *pg == page => Some("diff"),
                TraceEvent::PageInstalled {
                    node: 1, page: pg, ..
                } if *pg == page => Some("fetch"),
                TraceEvent::FaultDone {
                    proc: 1, page: pg, ..
                } if *pg == page => Some("fault"),
                _ => None,
            })
            .collect();
        let retries = report.counters.fetch_retries;
        if home == 1 {
            // Blocked on a page it is the home of and woken without a
            // fetch: it sat in the home's waiter list until the diff.
            assert_eq!(order, ["sync", "sync", "diff", "fault"], "home n{home}");
            assert_eq!(retries, 0);
        } else {
            assert_eq!(
                order,
                ["sync", "sync", "diff", "fetch", "fault"],
                "home n{home}"
            );
            assert!(retries >= 1, "p1's fetch never came back stale");
        }
    }
}

/// A barrier exit waits for the write notices its joined clock names,
/// on the NI tree as at an acquire: the tree combines clocks, not
/// notices. p0 writes a page it is the home of and joins a barrier; the
/// first packet from node 0 to node 1 is the notice of that write, and
/// delaying it delays p1's exit one for one.
#[test]
fn a_tree_barrier_exit_waits_for_the_notice_deposit_it_needs() {
    let b = BarrierId::new(0);
    let writer = vec![
        Op::WriteData {
            addr: Addr::new(0),
            data: vec![7; 8],
        },
        Op::Barrier(b),
    ];
    let programs = [writer, vec![Op::Barrier(b)]];
    let (n0, n1) = (NodeId::new(0).nic(), NodeId::new(1).nic());
    for column in [Column::from(FeatureSet::genima()), Column::genima_2025()] {
        // When p1 leaves the barrier with the notice `delay` late.
        let exit = |delay: u64| {
            let mut params = column.params(Topology::new(2, 1));
            params.data_mode = true;
            let srcs = programs.iter().cloned();
            let srcs = srcs.map(|ops| Box::new(ops_source(ops)) as _).collect();
            let mut sys = SvmSystem::new(params, srcs);
            sys.assign_homes(PageId::new(0), 1, NodeId::new(0));
            let plan = FaultPlan::new().delay_nth(n0, n1, 1, Dur::from_us(delay));
            sys.set_fault_injector(Box::new(PlanInjector::new(plan, RunSeed::new(1))));
            sys.set_tracing(true);
            sys.run();
            let trace = sys.take_trace();
            let audit = audit_traces(column.features, 2, &trace);
            assert!(audit.is_clean(), "{column}, {delay} us late: {audit}");
            let exits = trace.iter().filter_map(|e| match e {
                TraceEvent::SyncDone {
                    at,
                    proc: 1,
                    vc,
                    arrived,
                } => Some((*at, vc[0], arrived[0])),
                _ => None,
            });
            let exits: Vec<(Time, u32, u32)> = exits.collect();
            assert_eq!(exits.len(), 1, "{column}: {exits:?}");
            let (at, want, have) = exits[0];
            assert!(want >= 1 && have >= want, "{column}: {exits:?}");
            at
        };
        let (on_time, late, later) = (exit(0), exit(300), exit(600));
        assert!(late > on_time, "{column}: the exit did not wait");
        assert_eq!(
            later.saturating_since(late),
            Dur::from_us(300),
            "{column}: the exit did not move with the notice"
        );
    }
}

/// GeNIMA-2025 re-opens the home pages a process wrote under a lock
/// while its next acquire of that lock is in flight (DESIGN.md §10.4).
/// Here p0, at page 0's home, reads page 0 and then writes a word of it
/// in two holdings, and p1 writes another word of it under the lock in
/// between: the grant
/// brings p1's notice, which invalidates the page p0 already re-opened,
/// and p0's write waits at the home for p1's diff. A reader on a third
/// node then sees both writers' words, on every column.
#[test]
fn a_page_reopened_before_the_grant_is_invalidated_by_what_the_grant_brings() {
    let (l, b) = (LockId::new(0), BarrierId::new(0));
    let word = |off: u64, v: u8| Op::WriteData {
        addr: Addr::new(off),
        data: vec![v; 8],
    };
    let check = |off: u64, v: u8| Op::Validate {
        addr: Addr::new(off),
        expected: vec![v; 8],
    };
    let gap = |us: u64| Op::Compute(Dur::from_us(us));
    let (mine, theirs) = (0, PAGE_SIZE as u64 / 2);
    let home = vec![
        Op::Read {
            addr: Addr::new(mine),
            len: 8,
        },
        Op::Acquire(l),
        word(mine, 1),
        Op::Release(l),
        gap(1_000),
        Op::Acquire(l),
        word(mine, 2),
        Op::Release(l),
        Op::Barrier(b),
    ];
    // p1 holds the lock across p0's second request, so the grant comes
    // at p1's release.
    let remote = vec![
        gap(300),
        Op::Acquire(l),
        word(theirs, 3),
        gap(1_000),
        Op::Release(l),
        Op::Barrier(b),
    ];
    let reader = vec![Op::Barrier(b), check(mine, 2), check(theirs, 3)];
    let programs = vec![home, remote, reader];
    assert_eq!(detect_races(&programs), Ok(vec![]));

    let page = PageId::new(0);
    for column in Column::all() {
        let mut params = column.params(Topology::new(3, 1));
        params.data_mode = true;
        let srcs = programs.iter().cloned();
        let srcs = srcs.map(|ops| Box::new(ops_source(ops)) as _).collect();
        let mut sys = SvmSystem::new(params, srcs);
        sys.set_tracing(true);
        // p2's `Validate`s passing is p2 reading both writers' bytes.
        sys.run();
        let trace = sys.take_trace();
        let audit = audit_traces(column.features, 3, &trace);
        assert!(audit.is_clean(), "{column}: {audit}");
        let order: Vec<&str> = (trace.iter())
            .filter_map(|e| match e {
                TraceEvent::SyncDone { proc: 0, .. } => Some("sync"),
                TraceEvent::DiffApplied {
                    writer: 1,
                    page: pg,
                    ..
                } if *pg == page => Some("diff"),
                TraceEvent::FaultDone {
                    proc: 0, page: pg, ..
                } if *pg == page => Some("fault"),
                _ => None,
            })
            .collect();
        // Whenever p0's write blocked, p1's diff woke it.
        let diff = order.iter().position(|&e| e == "diff");
        let fault = order.iter().position(|&e| e == "fault");
        assert!(fault.is_none_or(|f| diff < Some(f)), "{column}: {order:?}");
        if column == Column::genima_2025() {
            // p0's first acquire, its second — granted as p1 hands the
            // lock over, before p1's diff — the diff, the write woken
            // by it, the barrier.
            let want = ["sync", "sync", "diff", "fault", "sync"];
            assert_eq!(order, want, "{column}");
        }
    }
}

/// Acceptance gate: GeNIMA-2025 survives 10% packet loss plus
/// duplication with every protocol invariant intact and still zero
/// host interrupts — seq/retry recovery comes with the deterministic
/// transport, not from asynchronous host processing.
#[test]
fn genima_2025_audits_clean_at_ten_percent_loss() {
    let app = OceanRowwise::with_grid(96, 2);
    let topo = Topology::new(4, 1);
    let plan = FaultPlan::new().drop_rate(0.10).duplicate_rate(0.05);
    let cfg = RunConfig::new(topo, Column::genima_2025())
        .with_seed(0x2025)
        .with_faults(plan);
    let run = run_app_audited_with(&app, &cfg)
        .unwrap_or_else(|e| panic!("GeNIMA-2025 aborted under 10% loss: {e}"));
    assert!(
        run.audit.is_clean(),
        "invariant violations under faults: {:?}",
        run.audit.violations
    );
    assert_eq!(
        run.report.counters.interrupts, 0,
        "recovery must not reintroduce host interrupts"
    );
    let s = run.faults;
    assert!(s.dropped > 0, "10% loss must actually hit live traffic");
    assert_eq!(
        run.report.recovery.retransmits, s.dropped,
        "every drop is retransmitted (deterministic for this seed)"
    );
}

/// The zero-interrupt invariant (paper §2.3): host interrupts vanish
/// exactly when the full GeNIMA feature set is enabled. Base must
/// take interrupts (everything is host-driven); GeNIMA exactly none.
#[test]
fn interrupts_vanish_exactly_under_genima() {
    let topo = Topology::new(2, 2);
    let app = WaterNsquared::with_molecules(256, 1);
    for features in FeatureSet::ALL {
        let run = run_app_audited(&app, topo, features);
        let interrupts = run.report.counters.interrupts;
        if features.interrupt_free() {
            assert_eq!(interrupts, 0, "{} must be interrupt-free", features.name());
        } else {
            assert!(
                interrupts > 0,
                "{} is host-driven and must take interrupts",
                features.name()
            );
        }
    }
}

/// Every lock primitive traces its ownership transitions — the NI
/// chain, the host chain and the atomics cell — so the single-owner
/// replay (checked inside the audit) binds every column.
#[test]
fn lock_ownership_is_traced_on_every_column() {
    let topo = Topology::new(2, 2);
    let app = WaterNsquared::with_molecules(256, 1);
    for column in Column::all() {
        let run = run_app_audited(&app, topo, column);
        assert!(run.audit.is_clean(), "{column}: {}", run.audit);
        assert!(
            run.audit.lock_events > 0,
            "{column}: no lock transition traced"
        );
        assert!(
            run.audit.events > run.audit.lock_events,
            "{column}: tracing recorded no protocol event"
        );
    }
}

/// `run_app_audited` and `RunConfig::new` take a column or a bare
/// feature set; the feature set is that column on the 1999 LANai, not a
/// second recipe.
#[test]
fn a_feature_set_audits_as_its_lanai_column() {
    let topo = Topology::new(2, 2);
    let app = OceanRowwise::with_grid(128, 2);
    for features in FeatureSet::ALL {
        let column = Column::lanai(features);
        let bare = run_app_audited(&app, topo, features);
        let on_column = run_app_audited(&app, topo, column);
        assert_eq!(bare.report.to_json(), on_column.report.to_json());
        assert_eq!(bare.audit.events, on_column.audit.events);

        let [bare, on_column] = [RunConfig::new(topo, features), RunConfig::new(topo, column)]
            .map(|cfg| run_app_audited_with(&app, &cfg).expect("clean run"));
        assert_eq!(bare.report.to_json(), on_column.report.to_json());
        assert_eq!(bare.features, on_column.features);
    }
}
