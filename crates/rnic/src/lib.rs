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
//! [`HwProfile`] packages a hardware generation (NI + network timing)
//! as data. A protocol column runs on either generation; the two
//! things the protocol does differently on an RDMA NIC — masked-CAS
//! locks, and a release that hands the lock over before it diffs — it
//! selects itself, once at construction, from [`HwProfile::is_rdma`].

mod config;
mod model;
mod profile;

pub use config::{AdvicePrice, RnicConfig};
pub use model::RnicModel;
pub use profile::HwProfile;

pub use genima_nic::{NiModel, NiStats, ALWAYS_MAPPED};
