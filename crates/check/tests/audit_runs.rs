//! End-to-end protocol audits: run real workloads under every paper
//! configuration with tracing on and replay the traces against the
//! protocol invariants.

use genima_apps::{App, BarnesOriginal, OceanRowwise, WaterNsquared};
use genima_check::{run_app_audited, run_app_audited_with};
use genima_fault::{FaultPlan, PlanInjector};
use genima_proto::{Column, FeatureSet, Topology};
use genima_sim::RunSeed;

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
                run.audit.proto_events > 0,
                "{} under {}: tracing recorded nothing",
                app.name(),
                features.name()
            );
        }
    }
}

/// The sixth column: the full GeNIMA protocol on the 2025 RNIC audits
/// clean on every workload, with masked-CAS locks replacing the
/// firmware lock machines (so the NI lock-chain trace is empty) and
/// RDMA completions replacing host interrupts entirely.
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
        assert!(run.audit.proto_events > 0, "tracing recorded nothing");
        assert_eq!(
            run.audit.lock_events, 0,
            "masked-CAS locks bypass the firmware lock machines"
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

/// Acceptance gate: GeNIMA-2025 survives 10% packet loss plus
/// duplication with every protocol invariant intact and still zero
/// host interrupts — seq/retry recovery comes with the deterministic
/// transport, not from asynchronous host processing.
#[test]
fn genima_2025_audits_clean_at_ten_percent_loss() {
    let app = OceanRowwise::with_grid(96, 2);
    let topo = Topology::new(4, 1);
    let plan = FaultPlan::new().drop_rate(0.10).duplicate_rate(0.05);
    let injector = PlanInjector::new(plan, RunSeed::new(0x2025));
    let stats = injector.stats_handle();
    let run = run_app_audited_with(&app, topo, Column::genima_2025(), |sys| {
        sys.set_fault_injector(Box::new(injector));
    })
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
    let s = stats.borrow();
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

/// NI locks only exist under GeNIMA: the firmware lock trace is
/// non-empty there and the single-owner replay holds (checked inside
/// the audit); host-driven configurations produce no NI lock events.
#[test]
fn ni_lock_trace_appears_only_under_genima() {
    let topo = Topology::new(2, 2);
    let app = WaterNsquared::with_molecules(256, 1);
    for features in FeatureSet::ALL {
        let run = run_app_audited(&app, topo, features);
        if features.interrupt_free() {
            assert!(
                run.audit.lock_events > 0,
                "GeNIMA runs NI locks; the firmware must trace transfers"
            );
        } else {
            assert_eq!(
                run.audit.lock_events,
                0,
                "{} uses host locks, not NI locks",
                features.name()
            );
        }
    }
}

/// `run_app_audited{,_with}` take a column or a bare feature set; the
/// feature set is that column on the 1999 LANai, not a second recipe.
#[test]
fn a_feature_set_audits_as_its_lanai_column() {
    let topo = Topology::new(2, 2);
    let app = OceanRowwise::with_grid(128, 2);
    for features in FeatureSet::ALL {
        let column = Column::lanai(features);
        let bare = run_app_audited(&app, topo, features);
        let on_column = run_app_audited(&app, topo, column);
        assert_eq!(bare.report.to_json(), on_column.report.to_json());
        assert_eq!(bare.audit.proto_events, on_column.audit.proto_events);

        let bare = run_app_audited_with(&app, topo, features, |_| {}).expect("clean run");
        let on_column = run_app_audited_with(&app, topo, column, |_| {}).expect("clean run");
        assert_eq!(bare.report.to_json(), on_column.report.to_json());
        assert_eq!(bare.features, on_column.features);
    }
}
