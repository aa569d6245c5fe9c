//! VMMC-style user-level communication library.
//!
//! Sits between the SVM protocol and the NI model, providing the
//! semantics of the paper's communication layer (§3.1):
//!
//! * **no receive operation** — data lands directly in exported
//!   destination virtual memory (remote deposit);
//! * **variable-size packets up to 4 KB** — larger transfers are split
//!   into multiple packets and the completion upcall fires when the
//!   last fragment has been deposited;
//! * **remote fetch** — the extension this paper adds to VMMC's data
//!   path, split and aggregated like a deposit.
//!
//! What the NI serves whole — NI locks, remote atomics, collectives,
//! its counters — is not wrapped: callers reach it through
//! [`Vmmc::comm`] / [`Vmmc::comm_mut`].

mod port;

pub use port::Vmmc;

pub use genima_net::{NetConfig, NicId};
pub use genima_nic::{
    CasWord, CollId, CollOp, Comm, Event, LockId, MsgKind, NiModel, NiStats, NicConfig, Post,
    ReduceOp, SendDesc, Step, Tag, Upcall, ALWAYS_MAPPED,
};
