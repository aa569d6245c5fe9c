//! Correctness checking for the GeNIMA reproduction: a happens-before
//! race detector over application op streams and a protocol-invariant
//! auditor over recorded run traces.
//!
//! Two independent layers of assurance:
//!
//! * [`detect_races`] executes per-process [`Op`] streams under
//!   FastTrack-style vector clocks and reports pairs of
//!   conflicting accesses not ordered by the streams' locks and
//!   barriers. Release consistency only promises coherent data to
//!   race-free programs, so every workload the simulator runs must
//!   pass this first.
//! * [`audit_traces`] replays the structured event trace of an actual
//!   protocol run (page installs, fault completions, diff
//!   applications, acquire completions, interrupts, NI lock ownership)
//!   and checks the protocol's own invariants under each of the five
//!   paper configurations.
//!
//! [`run_app_audited`] wires the second layer to a real run: it builds
//! the cluster exactly like `genima::run_app`, switches tracing on,
//! runs to completion and audits the drained traces. [`app_programs`]
//! materialises an application's streams for the first layer.

mod audit;
mod race;

pub use audit::{audit_traces, Audit, Violation};
pub use race::{detect_races, AccessSite, Race, ScheduleError, CELL_BYTES};

use genima_apps::App;
use genima_proto::{Column, FeatureSet, Op, ProtoError, RunReport, SvmSystem, Topology};

/// One application run with tracing enabled and its audit result.
#[derive(Debug, Clone)]
pub struct AuditedRun {
    /// The protocol variant used.
    pub features: FeatureSet,
    /// The full measurement report.
    pub report: RunReport,
    /// The invariant audit over the run's traces.
    pub audit: Audit,
}

/// Materialises `app`'s per-process op streams for [`detect_races`].
pub fn app_programs(app: &dyn App, topo: Topology) -> Vec<Vec<Op>> {
    app.spec(topo)
        .sources
        .into_iter()
        .map(|mut src| {
            let mut ops = Vec::new();
            while let Some(op) = src.next_op() {
                ops.push(op);
            }
            ops
        })
        .collect()
}

/// Runs the race detector over `app`'s streams on `topo`.
///
/// # Errors
///
/// Propagates [`ScheduleError`] when the streams cannot be executed
/// to completion (deadlock or a release without a matching hold).
pub fn check_app_races(app: &dyn App, topo: Topology) -> Result<Vec<Race>, ScheduleError> {
    detect_races(&app_programs(app, topo))
}

/// Runs `app` fault-free with tracing enabled on one evaluation
/// [`Column`] (a bare [`FeatureSet`] means the 1999 LANai) and audits
/// the protocol and NI lock traces against every applicable invariant.
/// `Column::genima_2025()` audits the full GeNIMA protocol on the 2025
/// RNIC with masked-CAS locks (the NI lock-chain replay sees no
/// firmware grant events there; the protocol invariants and the
/// interrupt-free cross-check still apply in full).
///
/// Builds the cluster exactly like `genima::run_app`, so an audited
/// run measures the same system as an ordinary one (tracing is purely
/// observational).
pub fn run_app_audited(app: &dyn App, topo: Topology, column: impl Into<Column>) -> AuditedRun {
    run_app_audited_with(app, topo, column, |_| {}).expect("a fault-free audited run cannot abort")
}

/// Like [`run_app_audited`], but lets `configure` adjust the built
/// [`SvmSystem`] before the run — typically to install a fault
/// injector — and surfaces a run abort instead of panicking.
///
/// This is how the fault sweeps audit faulty runs: recovery machinery
/// (retransmits, duplicate suppression, backoff) must preserve every
/// protocol invariant the clean path satisfies.
///
/// # Errors
///
/// Returns [`ProtoError::PeerUnreachable`] when a node exhausts its
/// retransmission budget against an unresponsive peer, and
/// [`ProtoError::InvalidReport`] when the finished run's report fails
/// [`RunReport::validate`].
pub fn run_app_audited_with(
    app: &dyn App,
    topo: Topology,
    column: impl Into<Column>,
    configure: impl FnOnce(&mut SvmSystem),
) -> Result<AuditedRun, ProtoError> {
    let column = column.into();
    let features = column.features;
    let mut sys = app.spec(topo).into_system(column.params(topo));
    sys.set_tracing(true);
    configure(&mut sys);
    let report = sys.try_run()?;
    // Self-consistency of the measurements themselves: breakdown
    // categories must account for the parallel time and interrupt-free
    // columns must report zero host interrupts.
    report.validate(&features)?;
    let proto = sys.take_trace();
    let locks = sys.take_lock_trace();
    let mut audit = audit_traces(features, topo.nodes, &proto, &locks);

    // Cross-check the interrupt counter against the trace: the counter
    // increments even where tracing might miss an event, so an
    // interrupt-free configuration must show zero in both.
    if features.interrupt_free() && report.counters.interrupts > 0 && audit.is_clean() {
        audit.violations.push(Violation::UnexpectedInterrupt {
            at: genima_sim::Time::ZERO,
            node: usize::MAX,
        });
    }

    Ok(AuditedRun {
        features,
        report,
        audit,
    })
}
