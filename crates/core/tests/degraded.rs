//! Degraded-mode fault handling: a dead peer fails individual
//! transactions instead of aborting the configured run.
//!
//! The retransmission schedule gives up on a peer after
//! `max_send_attempts` exponentially backed-off tries (~38 ms of
//! cumulative timeout on the 1999 profile). An outage longer than that
//! budget therefore turns into [`ProtoError::PeerUnreachable`] — the
//! fail-stop contract every existing caller relies on. With
//! [`RunConfig::with_degraded`] the same outage instead surfaces as
//! failed ops in the latency histograms plus `failed_ops` /
//! `degraded_heals` counters, and the run completes.

use genima::{run_app_configured, Column, ProtoError, RunConfig, Topology};
use genima_apps::{OceanRowwise, WaterNsquared};
use genima_fault::FaultPlan;
use genima_nic::NicId;
use genima_sim::Time;

/// An outage comfortably longer than the full ~38 ms retransmission
/// backoff budget, opening early enough to catch protocol traffic.
fn killer_plan() -> FaultPlan {
    FaultPlan::new().outage(
        NicId::new(1),
        Time::from_ns(200_000),
        Time::from_ns(120_000_000),
    )
}

fn config(topo: Topology, degraded: bool) -> RunConfig {
    RunConfig::new(topo, Column::genima_2025())
        .with_seed(7)
        .with_faults(killer_plan())
        .with_degraded(degraded)
}

#[test]
fn long_outage_aborts_without_degraded_mode() {
    let app = OceanRowwise::with_grid(128, 4);
    let err = run_app_configured(&app, &config(Topology::new(2, 2), false))
        .expect_err("a >38ms outage must exhaust the retransmission budget");
    assert!(
        matches!(err, ProtoError::PeerUnreachable { .. }),
        "unexpected error: {err:?}"
    );
}

#[test]
fn long_outage_survives_in_degraded_mode() {
    let app = OceanRowwise::with_grid(128, 4);
    let out = run_app_configured(&app, &config(Topology::new(2, 2), true))
        .expect("degraded mode must absorb the outage and finish");
    let c = &out.report.counters;
    assert!(
        c.failed_ops > 0,
        "the dead peer's transactions must surface as failed ops"
    );
    assert!(
        out.faults.outage_drops > 0,
        "the outage must actually have eaten packets"
    );
    // Degraded handling may not manufacture host interrupts on an
    // interrupt-free column.
    assert_eq!(c.interrupts, 0);
}

#[test]
fn base_column_survives_in_degraded_mode() {
    // Base exercises the host-side heal taxonomy: barrier arrive /
    // release messages and the lock request/forward/grant chain all
    // carry their episode state in the message, so a lost one is
    // re-delivered over the management path rather than failed.
    let app = OceanRowwise::with_grid(128, 4);
    let topo = Topology::new(2, 2);
    let cfg = RunConfig::new(topo, Column::lanai(genima::FeatureSet::base()))
        .with_seed(7)
        .with_faults(killer_plan())
        .with_degraded(true);
    let out = run_app_configured(&app, &cfg).expect("degraded Base must finish");
    assert!(out.faults.outage_drops > 0);
    assert!(
        out.report.counters.failed_ops > 0 || out.report.counters.degraded_heals > 0,
        "the outage must leave a visible degraded-mode footprint"
    );
}

#[test]
fn degraded_mode_is_inert_on_a_clean_run() {
    let app = OceanRowwise::with_grid(128, 4);
    let topo = Topology::new(2, 2);
    let clean = RunConfig::new(topo, Column::genima_2025()).with_seed(7);
    let a = run_app_configured(&app, &clean).expect("clean run");
    let b = run_app_configured(&app, &clean.clone().with_degraded(true)).expect("clean run");
    assert_eq!(a.report.finish, b.report.finish);
    assert_eq!(b.report.counters.failed_ops, 0);
    assert_eq!(b.report.counters.degraded_heals, 0);
    assert_eq!(b.report.counters.degraded_lost_msgs, 0);
}

#[test]
fn healed_direct_diffs_finish_the_flow_their_deposit_started() {
    // A direct diff's deposit starts a flow arrow at the writer and the
    // apply at the home finishes it. A timestamp update the firmware
    // gave up on is healed — applied as if it had arrived — so its
    // arrow must still end.
    let app = WaterNsquared::with_molecules(128, 2);
    let cfg = RunConfig::new(
        Topology::new(2, 2),
        Column::lanai(genima::FeatureSet::genima()),
    )
    .with_seed(7)
    .with_faults(killer_plan())
    .with_degraded(true)
    .with_obs(genima::ObsConfig::with_capacity(1 << 20));
    let out = run_app_configured(&app, &cfg).expect("degraded mode must finish");
    assert!(out.report.counters.degraded_heals > 0, "nothing was healed");
    assert_eq!(out.obs.dropped, 0, "the ring must hold the whole run");
    let ends = |kind, dir| -> std::collections::BTreeSet<u64> {
        let flows = out.obs.of_kind(kind).filter_map(|s| s.flow);
        flows.filter(|f| f.dir == dir).map(|f| f.id).collect()
    };
    let started = ends(
        genima::SpanKind::DirectDiffDeposit,
        genima_obs::FlowDir::Start,
    );
    let finished = ends(genima::SpanKind::DiffApply, genima_obs::FlowDir::Finish);
    assert!(!started.is_empty(), "no direct diff left its node");
    let open: Vec<_> = started.difference(&finished).collect();
    assert!(open.is_empty(), "{} diff flows never finish", open.len());
}
