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
//! [`run_app_audited`] wires the second layer to a real run: it runs
//! the application through `genima::run_app_configured` with tracing
//! on and audits the trace the run returns. [`app_programs`]
//! materialises an application's streams for the first layer.

mod audit;
mod exec;
mod race;

pub use audit::{audit_traces, Audit, Violation};
pub use exec::{sc_outcomes, ScheduleError};
pub use race::{detect_races, AccessSite, Race, CELL_BYTES};

use genima::{run_app_configured, FaultStats, RunConfig};
use genima_apps::App;
use genima_proto::{Column, FeatureSet, Op, ProtoError, RunReport, Topology};

/// One application run with tracing enabled and its audit result.
#[derive(Debug, Clone)]
pub struct AuditedRun {
    /// The protocol variant used.
    pub features: FeatureSet,
    /// The full measurement report.
    pub report: RunReport,
    /// What the fault injector did (all zero for a clean run).
    pub faults: FaultStats,
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
/// The clean case of [`run_app_audited_with`]: the run is
/// `genima::run_app`'s with tracing on, and tracing is purely
/// observational, so an audited run measures the same system as an
/// ordinary one.
pub fn run_app_audited(app: &dyn App, topo: Topology, column: impl Into<Column>) -> AuditedRun {
    run_app_audited_with(app, &RunConfig::new(topo, column))
        .expect("a fault-free audited run cannot abort")
}

/// Runs `app` under `cfg` through `genima::run_app_configured` with
/// tracing on, checks the report and audits the trace, surfacing a run
/// abort instead of panicking.
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
pub fn run_app_audited_with(app: &dyn App, cfg: &RunConfig) -> Result<AuditedRun, ProtoError> {
    let traced = RunConfig {
        trace: true,
        ..cfg.clone()
    };
    let out = run_app_configured(app, &traced)?;
    // Self-consistency of the measurements themselves: breakdown
    // categories must account for the parallel time and interrupt-free
    // columns must report zero host interrupts.
    out.report.validate(&out.features)?;
    let audit = audit_traces(out.features, cfg.params.topo.nodes, &out.trace);
    Ok(AuditedRun {
        features: out.features,
        report: out.report,
        faults: out.faults,
        audit,
    })
}
