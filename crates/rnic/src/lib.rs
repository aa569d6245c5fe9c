//! Modern RDMA NIC hardware model and the hardware-profile axis.
//!
//! The paper asked whether NI firmware mechanisms could avoid
//! asynchronous protocol processing on 1999 hardware. This crate asks
//! the 2025 version of the same question by providing a second
//! implementation of the [`NiModel`] seam:
//!
//! * **queue pairs with doorbell batching** — posting is a cached WQE
//!   write plus an MMIO doorbell that later posts in the same window
//!   ride for free;
//! * **completion queues with solicited events** — WRITE-with-immediate
//!   deposits raise a CQE the host polls from cache, the modern
//!   equivalent of the paper's completion flags (still zero
//!   interrupts);
//! * **on-demand paging (ODP)** — remote fetches of not-yet-mapped
//!   pages take a multi-microsecond fault the pinned-memory LANai
//!   never saw, unless the host advised the NIC to map them first;
//! * **masked atomics** — `MASKED_ATOMIC_CMP_AND_SWP` as the NI lock
//!   primitive, replacing the firmware lock state machines.
//!
//! [`HwProfile`] packages a hardware generation (NI board, network and
//! host timing) as data, with the board one [`Board`] value: a LANai or
//! an RNIC. Every protocol choice is the column's rung but the lock
//! primitive, which is the board's: the LANai firmware's chain or
//! remote atomics, or the RNIC's masked CAS.

mod config;
mod model;
mod profile;

pub use config::RnicConfig;
pub use model::RnicModel;
pub use profile::{Board, HwProfile};

pub use genima_nic::{NiModel, NiStats, ALWAYS_MAPPED};
