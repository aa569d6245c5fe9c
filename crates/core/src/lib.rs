//! GeNIMA: general-purpose network-interface support in a shared
//! memory abstraction — a full reproduction of Bilas, Liao & Singh
//! (ISCA 1999) as a deterministic cluster simulator.
//!
//! This is the top-level crate: it ties the workload generators
//! (`genima-apps`) to the SVM protocol engine (`genima-proto`, which
//! owns the communication stack and the memory system), the fault
//! injector (`genima-fault`), span recording (`genima-obs`) and the
//! hardware-DSM reference (`genima-hwdsm`): one way to run an
//! application on a cluster ([`run_app_configured`], whose
//! [`RunConfig`] carries the run's whole [`SvmParams`]), on the Origin
//! model and sequentially. `bench paper` (in `genima-bench`) runs every
//! table, figure and ablation of the paper's evaluation through it, and
//! `genima-check` audits its traced runs.
//!
//! # Quickstart
//!
//! ```
//! use genima::{run_app, FeatureSet, Topology};
//! use genima_apps::{App, OceanRowwise};
//!
//! let topo = Topology::new(2, 2);
//! let app = OceanRowwise::with_grid(128, 4);
//! let out = run_app(&app, topo, FeatureSet::genima());
//! assert_eq!(out.report.counters.interrupts, 0);
//! ```

mod runner;

pub use runner::{
    run_app, run_app_configured, run_app_on_hwdsm, sequential_time, ConfiguredOutcome, RunConfig,
};

pub use genima_apps::{all_apps, app_by_name, App};
pub use genima_fault::{FaultPlan, FaultStats, PlanInjector};
pub use genima_obs::{
    timeline_json, validate_trace, Grid, Json, ObsConfig, ObsReport, SpanKind, SpanRecord, Track,
};
pub use genima_proto::{
    BarrierImpl, Board, Breakdown, Column, Counters, FeatureSet, HwProfile, NiStats, OpLatency,
    ProtoConfig, ProtoError, RecoveryStats, RunReport, SvmParams, SvmSystem, Topology,
};
pub use genima_sim::{Dur, RunSeed, Time};
