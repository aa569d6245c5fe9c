//! Deterministic fault injection for the GeNIMA network and NI models.
//!
//! The simulator's fabric and firmware are perfectly reliable by
//! construction, which is exactly why the protocol stack's recovery
//! machinery (sequence numbers, retry timers, exponential backoff,
//! duplicate suppression — see DESIGN.md §11) would otherwise never be
//! exercised. This crate provides the missing adversary:
//!
//! * [`FaultPlan`] — a declarative, builder-style description of what
//!   should go wrong: packet drop/duplicate/delay probabilities,
//!   targeted *nth-packet* rules on a specific link, NI firmware stall
//!   windows, and transiently unresponsive nodes (outages).
//! * [`PlanInjector`] — compiles a plan plus a [`RunSeed`] into a
//!   [`FaultInjector`] that the communication layer consults for
//!   every wire packet. All draws come from named [`RunSeed`]
//!   streams, so the same `(plan, seed)` pair reproduces the exact
//!   same faulty schedule bit-for-bit.
//! * [`FaultStats`] — counters of what the injector actually did,
//!   shared out through a handle so they survive the injector being
//!   boxed into the communication layer.
//!
//! [`FaultPlan::none()`] is the identity plan: an injector built from
//! it returns a clean fate for every packet, and installing it must be
//! observationally identical to installing no injector at all (the
//! workspace test `tests/fault_recovery.rs` asserts bit-identical run
//! reports).

mod inject;
mod plan;

pub use inject::{FaultStats, PlanInjector, StatsHandle};
pub use plan::{FaultPlan, TargetAction};

pub use genima_net::{Fate, FaultInjector, NicId, NoFaults, PacketCtx};
pub use genima_sim::RunSeed;
