//! Message kinds, send descriptors, internal events and upcalls.

use genima_coll::CollId;
use genima_net::NicId;
use genima_sim::Time;

use crate::lock::LockId;

/// An opaque correlation tag chosen by the layer above; it travels
/// with a packet and comes back in the matching [`Upcall`].
///
/// # Example
///
/// ```
/// use genima_nic::Tag;
/// let t = Tag::new(42);
/// assert_eq!(t.value(), 42);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(u64);

impl Tag {
    /// The tag used when the upper layer does not care about the
    /// completion.
    pub const NONE: Tag = Tag(u64::MAX);

    /// Wraps a raw correlation value.
    pub const fn new(v: u64) -> Tag {
        Tag(v)
    }

    /// Returns the raw correlation value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

/// How the destination NI treats an incoming packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Remote deposit: firmware DMAs the payload straight into
    /// exported host memory; no host processor involvement.
    Deposit,
    /// Scatter-gather deposit: one message carrying `runs`
    /// non-contiguous pieces; the sending NI gathers them from host
    /// memory and the receiving NI scatters them into place (the §5
    /// extension). Requires `NicConfig::scatter_gather`.
    GatherDeposit {
        /// Number of non-contiguous runs packed in the message.
        runs: u32,
    },
    /// A request that must reach host software (Base protocol traffic):
    /// DMA'd into the host receive region and surfaced as
    /// [`Upcall::HostMsgArrived`].
    HostMsg,
    /// Remote fetch request: firmware DMAs `reply_bytes` out of host
    /// memory and sends them back to the requester.
    FetchReq {
        /// Size of the data to fetch, in bytes.
        reply_bytes: u32,
        /// Translation key of the fetched region: a page index for
        /// page data, or [`ALWAYS_MAPPED`](crate::ALWAYS_MAPPED) for
        /// NI-resident metadata (timestamps, write notices). Hardware
        /// with on-demand paging may fault on a key's first use;
        /// pinned-memory hardware ignores it.
        key: u64,
    },
    /// The firmware-generated reply to a [`MsgKind::FetchReq`].
    FetchReply,
    /// Firmware lock traffic (request / transfer / grant); never
    /// delivered to host memory.
    LockMsg(LockOp),
    /// Firmware collective traffic (tree fan-in / fan-out); like lock
    /// messages it is served entirely in firmware and never delivered
    /// to host memory.
    CollMsg(CollOp),
    /// Remote atomic fetch-and-store on a firmware word (§2's simpler
    /// alternative to full NI locks: the locking *algorithm* stays in
    /// the protocol layer, the NI only provides the atomic primitive).
    FetchAndStore {
        /// Index of the firmware word at the destination NIC.
        cell: u32,
        /// Value to store.
        new: u64,
    },
    /// Masked atomic compare-and-swap on a firmware word (the RDMA
    /// verbs `MASKED_ATOMIC_CMP_AND_SWP` primitive): iff
    /// `(cell & mask) == (expect & mask)` the masked bits are replaced
    /// by `new`'s. The previous full value comes back in an
    /// [`MsgKind::AtomicReply`], so fetch-and-store and masked CAS
    /// share one reply path.
    MaskedCas(CasWord),
    /// Firmware-generated reply to a [`MsgKind::FetchAndStore`] or
    /// [`MsgKind::MaskedCas`], carrying the previous value.
    AtomicReply {
        /// The value the cell held before the swap.
        old: u64,
    },
}

/// Operand block of a [`MsgKind::MaskedCas`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CasWord {
    /// Index of the firmware word at the destination NIC.
    pub cell: u32,
    /// Comparand; only bits under `mask` participate.
    pub expect: u64,
    /// Replacement bits; only bits under `mask` are stored.
    pub new: u64,
    /// Bit mask selecting the compared and swapped lanes.
    pub mask: u64,
    /// When set, a failed compare parks the request in the target
    /// NIC's per-cell wait queue instead of replying; the firmware
    /// replays parked requests in FIFO order each time the cell is
    /// written, so the reply arrives exactly when the compare can
    /// succeed (the WAIT-chaining style of CORE-Direct offloads).
    /// A plain CAS (`wait == false`) always replies immediately.
    pub wait: bool,
}

/// Lock protocol operations carried by [`MsgKind::LockMsg`] packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOp {
    /// Requester → home: acquire the lock.
    Request {
        /// The lock being acquired.
        lock: LockId,
        /// The NIC that wants the lock.
        requester: NicId,
    },
    /// Home → previous chain tail: hand the lock to `requester` when
    /// the local host releases it.
    Transfer {
        /// The lock being transferred.
        lock: LockId,
        /// The NIC next in the chain.
        requester: NicId,
        /// Correlation tag of the requester's acquire call.
        tag: Tag,
    },
    /// Owner → requester: the lock (and its protocol timestamp) is
    /// yours.
    Grant {
        /// The granted lock.
        lock: LockId,
        /// Correlation tag of the requester's acquire call.
        tag: Tag,
    },
}

/// Collective protocol operations carried by [`MsgKind::CollMsg`]
/// packets.
///
/// These are pure *signals*: the reduce payload travels in the packet
/// (its byte count reflects the element width) but logically lives in
/// the firmware combine tables of `genima-coll`, exactly as a lock's
/// protocol timestamp lives in NI memory and the grant packet merely
/// announces it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollOp {
    /// Child → parent fan-in: the child's subtree is fully combined
    /// for `epoch` and its frozen contribution is ready to fold in.
    Arrive {
        /// The collective instance.
        coll: CollId,
        /// The collective episode.
        epoch: u32,
    },
    /// Parent → child fan-out: the root combine of `epoch` is done
    /// and the child may exit once it propagates further down.
    Release {
        /// The collective instance.
        coll: CollId,
        /// The collective episode.
        epoch: u32,
    },
}

/// A host-posted asynchronous send descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendDesc {
    /// Destination NIC.
    pub dst: NicId,
    /// Payload bytes, any size: [`Comm::post_send`](crate::Comm::post_send)
    /// splits a transfer larger than the network's maximum packet.
    pub bytes: u32,
    /// Treatment at the destination.
    pub kind: MsgKind,
    /// Correlation tag returned in the completion upcall.
    pub tag: Tag,
}

/// One packet in flight; internal to the communication system but
/// public so the simulation core can store it inside its event enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Payload bytes.
    pub bytes: u32,
    /// Treatment at the destination.
    pub kind: MsgKind,
    /// Correlation tag.
    pub tag: Tag,
    /// Sequence number on the `(src, dst)` channel, used for duplicate
    /// suppression and retransmission under fault injection. Zero means
    /// unsequenced: local firmware hops, and all traffic when no fault
    /// injector is installed (the clean path carries no sequencing
    /// state at all).
    pub seq: u64,
    /// When the source DMA completed (end of the Source stage), in
    /// nanoseconds: the receiver charges the wire transit from here.
    pub source_done_ns: u64,
}

/// Internal communication-system events. The simulation core wraps
/// these in its own event enum and feeds them back to
/// [`Comm::handle`](crate::Comm::handle) at the scheduled time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// The last word of `packet` reached the destination NIC.
    Delivered(Packet),
    /// The sending firmware's retransmission timer for `packet` fired:
    /// no implicit acknowledgement arrived, so the packet is presumed
    /// lost and must be sent again (this will be transmission number
    /// `attempt`, counted from zero). Only ever scheduled when a fault
    /// injector dropped the packet.
    RetryTimer {
        /// The packet to retransmit, with its original sequence number.
        packet: Packet,
        /// Transmission attempt this retry will perform (the first
        /// send was attempt 0).
        attempt: u32,
    },
    /// The page mapping that parked `packet`'s `(src, dst)` channel
    /// landed (an RDMA queue pair waits out an on-demand-paging fault;
    /// the NIC serves every other channel meanwhile). The packet was
    /// admitted and charged its wire transit on arrival; it is not
    /// deduplicated again.
    Unparked {
        /// The parked packet.
        packet: Packet,
        /// Its first arrival at the destination NI, where its Dest
        /// monitor stage starts.
        arrived: Time,
        /// Nanoseconds from `arrived` to the start of the fetch service
        /// that met the unmapped page (its `FetchService` span starts
        /// there); zero unless `faulted`.
        queued_ns: u32,
        /// `packet` is that fetch: it resumes at its reply DMA. Any
        /// other parked packet is received now, in arrival order.
        faulted: bool,
    },
}

/// Completion notifications surfaced to the protocol layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Upcall {
    /// A remote deposit finished DMA-ing into this node's memory.
    DepositArrived {
        /// Receiving NIC.
        nic: NicId,
        /// Sender's correlation tag.
        tag: Tag,
        /// Originating NIC.
        src: NicId,
    },
    /// A host-bound message is now in host memory (the protocol layer
    /// decides whether that raises an interrupt).
    HostMsgArrived {
        /// Receiving NIC.
        nic: NicId,
        /// Sender's correlation tag.
        tag: Tag,
        /// Originating NIC.
        src: NicId,
    },
    /// A remote fetch issued by this NIC completed; the data is in
    /// host memory.
    FetchCompleted {
        /// Requesting NIC (where the data now lives).
        nic: NicId,
        /// The tag passed to [`Comm::fetch`](crate::Comm::fetch).
        tag: Tag,
    },
    /// An NI lock was granted to this NIC.
    LockGranted {
        /// NIC that now owns the lock.
        nic: NicId,
        /// The granted lock.
        lock: LockId,
        /// The tag passed to [`Comm::lock_acquire`](crate::Comm::lock_acquire).
        tag: Tag,
    },
    /// This NIC's firmware handed the lock to another NIC; the local
    /// node no longer owns it.
    LockDeparted {
        /// NIC that lost the lock.
        nic: NicId,
        /// The transferred lock.
        lock: LockId,
    },
    /// A remote fetch-and-store completed.
    AtomicCompleted {
        /// The requesting NIC.
        nic: NicId,
        /// The tag passed to [`Comm::fetch_and_store`](crate::Comm::fetch_and_store).
        tag: Tag,
        /// The previous value of the cell.
        old: u64,
    },
    /// A collective this NIC participates in completed an epoch: the
    /// fan-out reached this node and the combined result sits in NI
    /// memory (read it with
    /// [`Comm::coll_result`](crate::Comm::coll_result)). The host
    /// notices a completion flag, exactly like a granted lock — no
    /// interrupt, no polling loop in the protocol layer.
    CollCompleted {
        /// The NIC that exited the epoch.
        nic: NicId,
        /// The completed collective.
        coll: CollId,
        /// The epoch exited.
        epoch: u32,
    },
    /// The firmware exhausted every retransmission attempt for a
    /// packet: the peer is presumed dead or partitioned. The protocol
    /// layer must degrade gracefully (surface a typed error) instead of
    /// waiting forever for the completion that will never come.
    PeerUnreachable {
        /// The NIC whose send failed.
        nic: NicId,
        /// The destination that never acknowledged.
        peer: NicId,
        /// Correlation tag of the abandoned operation.
        tag: Tag,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        assert_eq!(Tag::new(7).value(), 7);
        assert_ne!(Tag::new(7), Tag::NONE);
    }

    #[test]
    fn kinds_are_comparable() {
        assert_eq!(MsgKind::Deposit, MsgKind::Deposit);
        assert_ne!(MsgKind::Deposit, MsgKind::HostMsg);
        assert_eq!(
            MsgKind::FetchReq {
                reply_bytes: 4096,
                key: 7
            },
            MsgKind::FetchReq {
                reply_bytes: 4096,
                key: 7
            }
        );
    }

    #[test]
    fn masked_cas_carries_operands() {
        let w = CasWord {
            cell: 3,
            expect: 0,
            new: 1,
            mask: u64::MAX,
            wait: false,
        };
        assert_eq!(MsgKind::MaskedCas(w), MsgKind::MaskedCas(w));
    }
}
