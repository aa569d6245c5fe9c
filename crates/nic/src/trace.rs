//! The run's event trace, one stream for offline invariant auditing.
//!
//! When tracing is enabled ([`Comm::set_tracing`]), the protocol and
//! the NI firmware record an event at each of their
//! correctness-critical transitions into one buffer, in the order the
//! simulator executes them: host interrupts, page installation and
//! fault completion, diff application at the home, collective arrival
//! and release, acquire/barrier completion, and lock-ownership
//! changes, whichever primitive carries the lock. The `genima-check`
//! crate replays the stream after a run and verifies the paper's
//! protocol invariants (timestamp coverage, write notices before
//! first post-acquire access, per-page diff ordering, one owner per
//! lock, barrier epochs, and the
//! zero-interrupt property of the full GeNIMA configuration).
//!
//! Tracing is off by default and costs nothing when disabled.
//!
//! [`Comm::set_tracing`]: crate::Comm::set_tracing

use genima_mem::PageId;
use genima_net::NicId;
use genima_sim::Time;

use crate::lock::LockId;

/// One traced protocol or firmware event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A host processor on `node` took a protocol interrupt. The full
    /// GeNIMA configuration must never record this event.
    Interrupt {
        /// Interrupt delivery time.
        at: Time,
        /// The interrupted node.
        node: usize,
    },
    /// A fetched copy of `page` was installed into `node`'s cache.
    /// `ts` is the installed version; `required` is the joined
    /// requirement of every process that was waiting on the fetch —
    /// the protocol must only install versions that cover it.
    PageInstalled {
        /// Installation time.
        at: Time,
        /// The caching node.
        node: usize,
        /// The page installed.
        page: PageId,
        /// Timestamp of the installed version, as `(writer, interval)`
        /// pairs ascending by writer.
        ts: Vec<(u32, u32)>,
        /// Joined requirement of the waiting processes, the same way.
        required: Vec<(u32, u32)>,
    },
    /// A blocked page fault completed: process `proc` resumed with a
    /// copy of `page` carrying timestamp `ts`, while its vector clock
    /// obliged it to see at least `required`.
    FaultDone {
        /// Fault completion time.
        at: Time,
        /// The faulting process.
        proc: usize,
        /// The page faulted on.
        page: PageId,
        /// Timestamp of the version the process now sees, as
        /// `(writer, interval)` pairs ascending by writer.
        ts: Vec<(u32, u32)>,
        /// The process's version requirement for the page, the same way.
        required: Vec<(u32, u32)>,
    },
    /// The diff of (`writer`, `interval`) was applied to the home copy
    /// of `page`. Per (page, writer), intervals must never regress.
    DiffApplied {
        /// Application time at the home.
        at: Time,
        /// The home page.
        page: PageId,
        /// The writing process.
        writer: usize,
        /// The writer's interval number.
        interval: u32,
    },
    /// The last local arrival of barrier `barrier` on `node` posted the
    /// node's contribution to the NI combining tree (NI-tree barriers
    /// only). Exactly one arrival per node per epoch is legal.
    CollArrived {
        /// Contribution post time.
        at: Time,
        /// The arriving node.
        node: usize,
        /// The barrier (also the collective instance).
        barrier: usize,
        /// The collective epoch (episode counter of this barrier).
        epoch: u32,
    },
    /// The NI fan-out released `node` from epoch `epoch` of barrier
    /// `barrier` (NI-tree barriers only). A release must never precede
    /// the arrivals of all nodes for the same epoch — the auditor's
    /// barrier-epoch invariant.
    CollReleased {
        /// Release notice time at the node.
        at: Time,
        /// The released node.
        node: usize,
        /// The barrier (also the collective instance).
        barrier: usize,
        /// The collective epoch.
        epoch: u32,
    },
    /// Process `proc` completed an acquire or barrier exit: its vector
    /// clock advanced to `vc`, and `arrived` is the per-writer count
    /// of interval records present at its node at that instant. Write
    /// notices for every interval `vc` covers must already be present
    /// (`arrived[q] >= vc[q]`) — this is the "notices before the first
    /// post-acquire access" obligation of lazy release consistency.
    SyncDone {
        /// Synchronization completion time.
        at: Time,
        /// The resuming process.
        proc: usize,
        /// The process's vector clock after the acquire, one interval
        /// count per process.
        vc: Vec<u32>,
        /// Interval records present at the process's node, per writer.
        arrived: Vec<u32>,
    },
    /// `nic` became the owner of `lock`: a chain grant arrived (at the
    /// NI or at the host), or an atomics attempt won the home cell.
    /// Replayed from the lock's home in emission order, at most one
    /// NIC owns a lock at a time.
    LockAcquired {
        /// Time of the grant.
        at: Time,
        /// The new owner.
        nic: NicId,
        /// The lock concerned.
        lock: LockId,
    },
    /// `nic` ceded `lock`: a chain owner handed it to a successor (or
    /// answered a transfer while in the released-but-kept state), or
    /// an atomics holder cleared the home cell. A clear cell at the
    /// start of a run is a release by its home at time zero.
    LockReleased {
        /// Time of the hand-over.
        at: Time,
        /// The ceding owner.
        nic: NicId,
        /// The lock concerned.
        lock: LockId,
    },
}
