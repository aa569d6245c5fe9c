//! `genima-obs`: the observability layer for the GeNIMA simulator.
//!
//! The paper's evaluation is an exercise in *attribution* — Figure 3
//! splits execution time into protocol categories, Tables 3/4 split
//! packet latency into NI pipeline stages. This crate unifies the
//! instrumentation those reproductions need:
//!
//! * a typed span registry ([`SpanKind`], [`SpanRecord`]) recorded into
//!   bounded per-node ring buffers ([`Recorder`]) — zero-cost when
//!   disabled, because no recorder exists at all;
//! * a Chrome `trace_event`/Perfetto timeline exporter
//!   ([`timeline_json`]) with one track per node host and one per NI
//!   firmware, and flow arrows for cross-node handoffs;
//! * a dependency-free JSON value ([`Json`]) used for `RunReport`
//!   serialization and `BENCH_*.json` trajectories;
//! * the one bench report-and-gate schema ([`BenchReport`]): rows plus
//!   gates as data, with a single checker shared by the `bench` driver
//!   and `bench show`;
//! * text summaries ([`trace_top`], [`monitor_tables`]) shared by
//!   `xtask obs-summary` and the examples, and the one text table
//!   ([`Grid`]) they, the examples and every `bench` kind print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod ring;
pub mod span;
pub mod summary;
pub mod timeline;

pub use bench::BenchReport;
pub use json::{Json, JsonError};
pub use ring::{ObsConfig, ObsHandle, ObsReport, Recorder};
pub use span::{
    flow_coll_id, flow_diff_id, flow_lock_id, op_barrier_id, op_class, op_diff_id, op_fetch_id,
    op_lock_id, Flow, FlowDir, OpClass, SpanKind, SpanRecord, Track,
};
pub use summary::{monitor_tables, trace_top, Grid};
pub use timeline::{count_named, timeline_json, validate_trace, TraceStats};
