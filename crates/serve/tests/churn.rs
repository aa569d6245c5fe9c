//! Serving workloads must survive concurrent churn (drop + outages)
//! on every evaluation column.

use genima::{run_app_configured, RunConfig};
use genima_apps::App;
use genima_fault::FaultPlan;
use genima_nic::NicId;
use genima_obs::Json;
use genima_proto::{Column, FeatureSet, Topology};
use genima_serve::{GraphWalk, KvServe};
use genima_sim::{Dur, Time};

const START: Time = Time::from_ns(500_000);
const HORIZON: Dur = Dur::from_ms(20);

fn churn() -> FaultPlan {
    FaultPlan::new()
        .drop_rate(0.10)
        .outage(
            NicId::new(1),
            START + Dur::from_ms(2),
            START + Dur::from_ms(6),
        )
        .outage(
            NicId::new(2),
            START + Dur::from_ms(8),
            START + Dur::from_ms(12),
        )
        .outage(
            NicId::new(3),
            START + Dur::from_ms(14),
            START + Dur::from_ms(18),
        )
}

fn run_all_columns(app: &dyn App) {
    let topo = Topology::new(4, 1);
    for column in Column::all() {
        let cfg = RunConfig::new(topo, column)
            .with_seed(11)
            .with_faults(churn())
            .with_degraded(true);
        let out = run_app_configured(app, &cfg)
            .unwrap_or_else(|e| panic!("{} aborted under churn: {e}", column.name()));
        let merged = out.report.serve.merged();
        assert!(
            merged.count() > 0,
            "{}: no serve ops recorded",
            column.name()
        );
        if column.features.interrupt_free() {
            assert_eq!(
                out.report.counters.interrupts,
                0,
                "{}: host interrupts under churn",
                column.name()
            );
        }
        // The serve histogram must survive the JSON path too.
        let j = out.report.to_json_value().dump();
        assert!(
            j.contains("serve_latency"),
            "report json misses serve_latency"
        );
        let _ = Json::parse(&j).expect("report json must parse");
    }
}

#[test]
fn kv_survives_churn_on_every_column() {
    run_all_columns(
        &KvServe::new(1_024, 0.99, 90, 600, HORIZON)
            .with_seed(3)
            .with_start(START),
    );
}

#[test]
fn walk_survives_churn_on_every_column() {
    run_all_columns(
        &GraphWalk::new(4_096, 4, 0.99, 300, HORIZON)
            .with_seed(3)
            .with_start(START),
    );
}

/// `bench serving`'s plan stretched over `horizon`: 10% drop plus a
/// 4 ms outage every 8 ms, cycling over nodes 1 → 2 → 3.
fn long_churn(horizon: Dur) -> FaultPlan {
    let mut plan = FaultPlan::new().drop_rate(0.10);
    let window = Dur::from_ms(4);
    let mut from = START + Dur::from_ms(2);
    let mut victim = 1;
    while from + window < START + horizon {
        plan = plan.outage(NicId::new(victim), from, from + window);
        from += window * 2;
        victim = victim % 3 + 1;
    }
    plan
}

/// ROADMAP item 1's probe — KV at 50% reads and 4 kops for two seconds
/// under [`long_churn`] — on two sub-seeds where the transport gives up
/// on an NI lock-chain packet. The packet must take the management
/// channel: a give-up that fails the requester instead deadlocks
/// sub-seed 6 (`3 of 4 processes finished; blocked: LockWait { lock:
/// LockId(1) }`) and fails 176 lock acquires on sub-seed 2, because
/// the chain has already named that requester tail.
#[test]
fn genima_grants_every_lock_wait_when_a_chain_packet_is_given_up() {
    let horizon = Dur::from_ms(2_000);
    for s in [6, 2] {
        let app = KvServe::new(4_096, 0.99, 50, 8_000, horizon)
            .with_seed(s)
            .with_start(START);
        let cfg = RunConfig::new(Topology::new(4, 1), Column::lanai(FeatureSet::genima()))
            .with_seed(100 + s)
            .with_faults(long_churn(horizon))
            .with_degraded(true);
        let out = run_app_configured(&app, &cfg)
            .unwrap_or_else(|e| panic!("sub-seed {s} aborted under churn: {e}"));
        let (c, r) = (&out.report.counters, &out.report.recovery);
        assert_eq!(out.report.serve.merged().count(), 8_000, "sub-seed {s}");
        assert_eq!(c.failed_ops, 0, "sub-seed {s}: an operation failed");
        assert_eq!(
            (r.mgmt_deliveries, r.unreachable, c.degraded_heals),
            (1, 0, 0),
            "sub-seed {s}: one chain packet healed in the firmware, nothing else given up"
        );
        assert_eq!(c.interrupts, 0, "sub-seed {s}");
    }
}
