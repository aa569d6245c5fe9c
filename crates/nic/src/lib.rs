//! Programmable network-interface (NI) model with the paper's three
//! general-purpose firmware mechanisms.
//!
//! Models a Myrinet-style NI per node — a slow (33 MHz) LANai
//! processor, a host post queue, DMA engines on the I/O (PCI) bus —
//! plus the firmware services GeNIMA relies on:
//!
//! * **remote deposit** — incoming data packets are DMA'd directly
//!   into exported host virtual memory, with no host processor
//!   involvement at the receiver;
//! * **remote fetch** — the firmware serves read requests for exported
//!   host memory by DMA-ing the data out of the host and sending a
//!   reply packet, again without involving the host processor;
//! * **NI locks** — the distributed lock algorithm (home NIC +
//!   last-owner chain) runs entirely in firmware; lock messages are
//!   never delivered to host memory, so they cannot get stuck behind
//!   data traffic in the incoming FIFO;
//! * **NI collectives** — the k-ary tree barrier / all-reduce state
//!   machine of `genima-coll` runs in firmware
//!   ([`Comm::coll_enter`]): hosts post a local contribution and later
//!   notice a completion flag, with the whole fan-in, combine and
//!   fan-out handled NI-to-NI.
//!
//! Messages destined for the host (the Base protocol's page/lock/diff
//! requests) are DMA'd into host memory and surfaced as
//! [`Upcall::HostMsgArrived`]; the protocol layer charges interrupt
//! and scheduling costs on top.
//!
//! The embedded [`Monitor`] reproduces the paper's firmware
//! performance monitor: per-packet residency in the four pipeline
//! stages (Source, LANai, Net, Dest — §3.1) is recorded against the
//! uncontended residency, separately for small and large messages, so
//! the contention ratios of Tables 3 and 4 can be regenerated.

mod atomic;
mod comm;
mod config;
mod lock;
mod model;
mod monitor;
mod msg;
mod trace;

pub use comm::{Comm, Post, RecoveryStats, Step};
pub use config::{LanaiConfig, LockImpl, NicConfig};
pub use lock::{ChainLock, LockAction, LockId};
pub use model::{
    FetchServe, HostPost, LanaiModel, NiModel, NiStats, RecvDma, SendTimes, ALWAYS_MAPPED,
};
pub use monitor::{Monitor, SizeClass, Stage, StageStats};
pub use msg::{CasWord, CollOp, Event, LockOp, MsgKind, Packet, SendDesc, Tag, Upcall};
pub use trace::TraceEvent;

pub use genima_coll::{CollId, ReduceOp};
pub use genima_net::{Fate, FaultInjector, NicId, NoFaults, PacketCtx};
