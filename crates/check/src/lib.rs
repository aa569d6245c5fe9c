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
//!   and checks the protocol's own invariants under each of the six
//!   evaluation columns.
//!
//! [`run_app_audited`] wires the second layer to a real run: it builds
//! the cluster exactly like `genima::run_app`, switches tracing on,
//! runs to completion and audits the drained trace. [`app_programs`]
//! materialises an application's streams for the first layer.

mod audit;
mod exec;
mod race;

pub use audit::{audit_traces, Audit, Violation};
pub use exec::{sc_outcomes, ScheduleError};
pub use race::{detect_races, AccessSite, Race, CELL_BYTES};

use genima_apps::App;
use genima_proto::{Column, FeatureSet, Op, ProtoError, RunReport, SvmSystem, Topology};

/// One application run with tracing enabled and its audit result.
#[derive(Debug, Clone)]
pub struct AuditedRun {
    /// The protocol variant used.
    pub features: FeatureSet,
    /// The full measurement report.
    pub report: RunReport,
    /// The invariant audit over the run's trace.
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
/// An empty result certifies one synchronisation order, round-robin
/// ([`detect_races`]), not every order: a race that needs another
/// process to take a lock first goes unseen. `exec.rs`'s
/// `a_racy_program_is_refused` is such a program: this check passes
/// it and [`sc_outcomes`], which tries every order, refuses it.
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
/// the run's trace against every applicable invariant.
/// `Column::genima_2025()` audits the full GeNIMA protocol on the 2025
/// RNIC with masked-CAS locks, whose atomics cell traces its ownership
/// changes like the NI lock chain: every invariant applies, the
/// single-owner lock replay included.
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
    let audit = audit_traces(features, topo.nodes, &sys.take_trace());
    Ok(AuditedRun {
        features,
        report,
        audit,
    })
}
