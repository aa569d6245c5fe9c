//! The GeNIMA SVM protocol family: home-based lazy release consistency
//! with and without network-interface support.
//!
//! This crate implements the paper's protocols **for real** — vector
//! timestamps, intervals and write notices, twin/diff multiple-writer
//! handling, per-process page protection, a distributed lock layer and
//! centralized barriers — on top of the simulated communication system
//! (`genima-nic`'s `Comm`, the paper's VMMC layer, over `genima-net`)
//! and memory system (`genima-mem`).
//!
//! One audited code path, [`SvmSystem`], is parameterised by a
//! [`FeatureSet`] that switches the four NI mechanisms on and off
//! cumulatively, yielding the paper's five protocol columns:
//!
//! | [`FeatureSet`] | Paper name | Behaviour change |
//! |---|---|---|
//! | `base()`      | Base (HLRC-SMP) | everything interrupt-driven |
//! | `dw()`        | DW   | eager write-notice broadcast via remote deposit |
//! | `dw_rf()`     | DW+RF | pages and timestamps pulled with remote fetch + retry |
//! | `dw_rf_dd()`  | DW+RF+DD | direct diffs: one deposit per modified run, eager at release |
//! | `genima()`    | GeNIMA | NI locks: no interrupts or asynchronous protocol processing at all |
//!
//! Simulated application processes drive the system through the
//! [`Op`]/[`OpSource`] interface; [`SvmSystem::run`] executes the
//! whole cluster to completion and returns a [`RunReport`] with the
//! per-process execution-time breakdowns (Compute / Data / Lock /
//! Acq-Rel / Barrier) used throughout the paper's evaluation.

mod breakdown;
mod column;
mod config;
mod error;
mod features;
mod ids;
mod interval;
mod ops;
mod report;
pub mod sched;
mod system;
mod vclock;
mod version;

pub use breakdown::{Breakdown, Counters};
pub use column::Column;
pub use config::{BarrierImpl, ProtoConfig};
pub use error::ProtoError;
pub use features::FeatureSet;
pub use ids::{BarrierId, NodeId, ProcId, Topology};
pub use ops::{ops_source, Op, OpSource, OpVec, ServeClass};
pub use report::{OpLatency, RunReport, ServeLatency};
pub use sched::{ChanKey, Choice, EventPicker, FifoPicker, Mutation, SchedObj};
pub use system::{SvmParams, SvmSystem};
pub use vclock::VClock;

pub use genima_mem::{Addr, PageId, PAGE_SIZE};
pub use genima_nic::{FaultInjector, LockId, NiStats, RecoveryStats, TraceEvent};
pub use genima_rnic::{Board, HwProfile};
