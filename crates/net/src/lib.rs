//! Myrinet-like system-area network model.
//!
//! The paper's testbed connects every node's network interface to a
//! single 8-way crossbar switch with point-to-point links of
//! 160 MBytes/s peak bandwidth in each direction. This crate models
//! exactly that: per-NIC unidirectional injection and ejection links,
//! one output-queued crossbar, cut-through forwarding with a small
//! fixed switch latency, and — crucially for the SVM protocols built on
//! top — **in-order delivery between every pair of network
//! interfaces**, the only ordering guarantee the GeNIMA protocol
//! requires (paper §2, "Network interface locks").
//!
//! The network is a *passive* timing model: [`Network::transfer`] is
//! called when a packet leaves a NIC's outgoing queue and returns the
//! precise instants at which the wire is acquired and the last word
//! reaches the destination NIC. The NIC model (crate `genima-nic`)
//! schedules simulation events from those instants.

mod config;
mod fault;
mod network;
mod packet;

pub use config::NetConfig;
pub use fault::{Fate, FaultInjector, NoFaults, PacketCtx};
pub use network::{NetTiming, Network};
pub use packet::NicId;
