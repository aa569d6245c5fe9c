//! The system's runtime state: events, in-flight message records, and
//! what is kept per process, per node, per lock and per barrier.

use std::collections::VecDeque;

use genima_mem::{Diff, Page, PageId, PageTable, PageVec};
use genima_nic::{Event as CommEvent, LockId, LockOp, Tag, Upcall};
use genima_sim::{Dur, EventQueue, Resource, Time};

use super::in_place::InPlaceState;
use crate::breakdown::Breakdown;
use crate::ids::{BarrierId, Topology};
use crate::interval::{DirtySet, PendingInterval};
use crate::ops::{Op, OpSource};
use crate::vclock::VClock;
use crate::version::{VersionCol, VersionMap};

/// Small fixed host costs not worth configuring.
pub(crate) const EPS: Dur = Dur::from_ns(500);

/// Control flow of operation execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Operation finished; keep executing.
    Continue,
    /// Execution must stop (blocked or resync scheduled).
    Stop,
}

/// Which time bucket protocol work is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bucket {
    AcqRel,
    Barrier,
}

/// Who pays for protocol work done on behalf of others.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sink {
    /// A process pays on its own clock, into the given bucket.
    Proc(usize, Bucket),
    /// The node's protocol handler pays (Base interrupt paths); the
    /// work also steals compute from a victim processor.
    Handler(usize),
}

/// Simulation events.
#[derive(Debug)]
pub(crate) enum SysEvent {
    /// A communication-layer event.
    Comm(CommEvent),
    /// A communication-layer completion upcall.
    Up(Upcall),
    /// A process continues executing its operation stream.
    Resume(usize),
    /// The protocol handler of a node finished servicing the interrupt
    /// a host message raised (Base-protocol paths only): carry out the
    /// message's action. The last field is the operation id resolved
    /// from the message's tag (0 = unattributed).
    Job(usize, Pending, u64),
    /// Re-issue a remote fetch that found a stale timestamp.
    RetryFetch(usize, PageId),
    /// Re-try a failed atomic test-and-set (remote-atomics locks).
    RetrySpin(usize, LockId),
}

// Every push, slot sort and pop moves a whole queue entry, and every
// slot buffer the wheel warms is a multiple of one: the two 88-byte
// payloads (`Comm`, `Job`) set the size, and a wider variant must be
// boxed rather than widen every event (DESIGN.md §3).
const _: () = assert!(std::mem::size_of::<SysEvent>() <= 96);
const _: () = assert!(EventQueue::<SysEvent>::ENTRY_BYTES <= 112);

/// Correlation state for in-flight messages, keyed by tag.
#[derive(Debug)]
pub(crate) enum Pending {
    /// Base: page request arriving at the home (host message).
    PageRequestMsg {
        requester: usize,
        page: PageId,
        required: VersionMap,
    },
    /// Base: page reply (deposit) arriving at the requester.
    PageReply {
        node: usize,
        page: PageId,
        ts: VersionMap,
        data: Option<Page>,
    },
    /// RF: page fetch completion at the requester.
    FetchPage { proc: usize, page: PageId },
    /// Interval records of `writer` up to `upto` on their way to
    /// `node`: one deposited into its notice region at the close
    /// (push), or a fetch of the missing ones completing (pull).
    Notice {
        node: usize,
        writer: usize,
        upto: u32,
    },
    /// `writer`'s diff of `page` for `interval` on its way to the home:
    /// a packed host message, or the timestamp that completes a direct
    /// diff's deposits ([`DiffRoute`](super::interval::DiffRoute)).
    Diff {
        writer: usize,
        interval: u32,
        page: PageId,
        diff: Option<Diff>,
    },
    /// Base: a lock-chain message on its way to node `to` — the
    /// request to the home, the transfer to the previous tail, or the
    /// grant to the requester. `tag` names the acquiring process (what
    /// the packet tag is to the NI's copy of these messages); a grant
    /// also piggybacks the notices `to` has not been sent.
    LockMsg {
        to: usize,
        tag: Tag,
        op: LockOp,
        upto: Option<Vec<u32>>,
    },
    /// NIL: an NI lock acquire in flight.
    NiLockWait { proc: usize },
    /// Remote-atomics lock mode: a test-and-set attempt in flight.
    AtomicLockTry { proc: usize, lock: LockId },
    /// Barrier arrival notification at the manager.
    BarrierArriveMsg {
        barrier: BarrierId,
        proc: usize,
        vc: VClock,
        upto: Option<Vec<u32>>,
    },
    /// Barrier release notification at a node.
    BarrierReleaseMsg {
        barrier: BarrierId,
        node: usize,
        vc: VClock,
        upto: Option<Vec<u32>>,
    },
}

/// Why a process is blocked. Fault and lock waits carry the operation
/// id allocated when the wait began, so the completion site can emit
/// the root span (and any retries rebind their tags) without threading
/// the id through every intermediate message.
#[derive(Debug)]
pub(crate) enum Block {
    PageFault {
        page: PageId,
        write: bool,
        started: Time,
        op: u64,
    },
    LockWait {
        lock: LockId,
        started: Time,
        op: u64,
    },
    NoticeWait {
        started: Time,
        reason: WaitReason,
    },
    BarrierWait {
        barrier: BarrierId,
        started: Time,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitReason {
    Lock,
    Barrier,
}

#[derive(Debug)]
pub(crate) enum ProcState {
    Runnable,
    Blocked(Block),
    Done,
}

/// Per-process runtime state.
pub(crate) struct ProcRt {
    pub(crate) clock: Time,
    pub(crate) src: Box<dyn OpSource>,
    /// Operation in progress (with byte progress), parked across
    /// blocks and resyncs.
    pub(crate) cur: Option<(Op, u64)>,
    pub(crate) state: ProcState,
    pub(crate) vc: VClock,
    /// Per writer: highest interval whose record this process applied.
    pub(crate) seen: Vec<u32>,
    pub(crate) pt: PageTable,
    /// Per page: the diffs (writer → interval) a valid copy must have.
    pub(crate) required: VersionCol,
    /// Open interval: dirty pages.
    pub(crate) dirty: DirtySet,
    /// Closed intervals whose diffs have not been flushed (lazy).
    pub(crate) pending_intervals: Vec<PendingInterval>,
    /// The in-place home pages worth re-opening: runs and lock scope.
    pub(crate) in_place: InPlaceState,
    pub(crate) bd: Breakdown,
    /// Accumulated interrupt-steal penalty applied to the next compute.
    pub(crate) steal: Dur,
    /// Set when the warmup barrier released; the breakdown is zeroed
    /// when this process exits the barrier.
    pub(crate) warmup_reset: bool,
    /// While blocked on an in-flight fetch: the process that joined it
    /// next (see [`Waiters`]). Taken when this process is woken.
    pub(crate) next_waiter: Option<usize>,
    pub(crate) finished_at: Option<Time>,
}

impl ProcRt {
    pub(crate) fn new(src: Box<dyn OpSource>, nprocs: usize) -> ProcRt {
        ProcRt {
            clock: Time::ZERO,
            src,
            cur: None,
            state: ProcState::Runnable,
            vc: VClock::new(nprocs),
            seen: vec![0; nprocs],
            pt: PageTable::new(),
            required: VersionCol::default(),
            dirty: DirtySet::default(),
            pending_intervals: Vec::new(),
            in_place: InPlaceState::default(),
            bd: Breakdown::default(),
            steal: Dur::ZERO,
            warmup_reset: false,
            next_waiter: None,
            finished_at: None,
        }
    }
}

/// Node-level lock state (the SMP tier of HLRC-SMP). Whether the node
/// possesses the lock token is the lock chain's state, not kept here.
#[derive(Debug, Default)]
pub(crate) struct NodeLock {
    pub(crate) holder: Option<usize>,
    pub(crate) local_waiters: VecDeque<usize>,
    /// A remote request from this node is in flight; later local
    /// acquirers must queue rather than double-request.
    pub(crate) requesting: bool,
}

/// One copy of a page: the home copy, or a node's cached copy of a
/// remote page.
#[derive(Default)]
pub(crate) struct CopyState {
    /// Per writer: the latest interval whose diffs this copy contains.
    pub(crate) ts: VersionMap,
    /// Contents (data mode only).
    pub(crate) data: Option<Page>,
}

// A page column costs its value's size per page of the extent, per
// node: presence must ride in a niche, not beside it, and the contents
// are a thin pointer.
const _: () = assert!(size_of::<Option<Page>>() == 8);
const _: () = assert!(size_of::<Option<CopyState>>() == 48);

/// The processes blocked on one in-flight fetch, in wake order: the
/// initiator, then the joiners as they arrived. A blocked process
/// waits on exactly one fetch, so the FIFO is threaded through
/// [`ProcRt::next_waiter`] and neither starting nor joining a fetch
/// allocates.
pub(crate) struct Waiters {
    /// The process that issued the fetch.
    pub(crate) lead: usize,
    last: usize,
}

impl Waiters {
    pub(crate) fn new(lead: usize) -> Waiters {
        Waiters { lead, last: lead }
    }

    pub(crate) fn join(&mut self, procs: &mut [ProcRt], p: usize) {
        procs[self.last].next_waiter = Some(p);
        self.last = p;
    }

    pub(crate) fn iter<'a>(&self, procs: &'a [ProcRt]) -> impl Iterator<Item = usize> + 'a {
        std::iter::successors(Some(self.lead), |&p| procs[p].next_waiter)
    }
}

/// A node's in-flight fetches: the pages being fetched and the
/// processes waiting on each. A blocked process waits on exactly one
/// fetch, so the list never holds more entries than the node has
/// processes: it is reserved once for that many and found by scanning
/// them — memory follows the live fetches, not the shared extent.
pub(crate) struct Inflight {
    fetches: Vec<(PageId, Waiters)>,
}

impl Inflight {
    pub(crate) fn new(procs_per_node: usize) -> Inflight {
        Inflight {
            fetches: Vec::with_capacity(procs_per_node),
        }
    }

    pub(crate) fn get(&self, page: PageId) -> Option<&Waiters> {
        self.fetches
            .iter()
            .find(|(pg, _)| *pg == page)
            .map(|f| &f.1)
    }

    pub(crate) fn get_mut(&mut self, page: PageId) -> Option<&mut Waiters> {
        let fetch = self.fetches.iter_mut().find(|(pg, _)| *pg == page);
        fetch.map(|f| &mut f.1)
    }

    /// Records the fetch of `page` that `waiters.lead` just issued.
    pub(crate) fn insert(&mut self, page: PageId, waiters: Waiters) {
        debug_assert!(self.get(page).is_none(), "{page} is already being fetched");
        debug_assert!(
            self.fetches.len() < self.fetches.capacity(),
            "more fetches in flight than the node has processes"
        );
        self.fetches.push((page, waiters));
    }

    /// Ends the fetch of `page`, returning who waited on it.
    pub(crate) fn take(&mut self, page: PageId) -> Option<Waiters> {
        let at = self.fetches.iter().position(|(pg, _)| *pg == page)?;
        Some(self.fetches.swap_remove(at).1)
    }
}

/// Per-node runtime state.
pub(crate) struct NodeRt {
    /// The floating protocol process servicing interrupts.
    pub(crate) handler: Resource,
    /// The home copy of a page homed here, else the cached copy of a
    /// remote page: absent until a fetch installs it, which is what
    /// makes the first touch fetch. Read through `SvmSystem::node_copy`.
    pub(crate) copies: PageVec<CopyState>,
    /// Per page: the highest interval each *local* writer has flushed
    /// to the home. A fetched copy must cover these — otherwise the
    /// incoming version would roll back this node's own writes.
    pub(crate) local_flushed: VersionCol,
    /// Pages with an in-flight fetch and the processes waiting on it.
    pub(crate) inflight: Inflight,
    pub(crate) locks: Vec<NodeLock>,
    /// Round-robin victim for interrupt-steal accounting.
    pub(crate) steal_rr: usize,
    /// NI-tree barriers: local arrivals collected per barrier until
    /// the last one posts the node's contribution to the firmware
    /// combining tree. A short list whose idle combiners are re-keyed
    /// ([`NodeRt::coll_combiner`]): applications rarely reuse a
    /// barrier id, so a map would make and drop an entry per episode.
    pub(crate) coll_arrivals: Vec<(BarrierId, Arrivals)>,
}

impl NodeRt {
    pub(crate) fn new(topo: Topology, locks: usize) -> NodeRt {
        NodeRt {
            handler: Resource::new("protocol-handler"),
            copies: PageVec::new(),
            local_flushed: VersionCol::default(),
            inflight: Inflight::new(topo.procs_per_node),
            locks: (0..locks).map(|_| NodeLock::default()).collect(),
            steal_rr: 0,
            coll_arrivals: Vec::new(),
        }
    }

    /// The NI-tree combiner of barrier `b`: its own, else an idle one
    /// taken over, else a new one.
    pub(crate) fn coll_combiner(&mut self, b: BarrierId) -> &mut Arrivals {
        let list = &mut self.coll_arrivals;
        let at = (list.iter().position(|(id, _)| *id == b))
            .or_else(|| list.iter().position(|(_, a)| a.count == 0))
            .unwrap_or_else(|| {
                list.push((b, Arrivals::default()));
                list.len() - 1
            });
        list[at].0 = b;
        &mut list[at].1
    }
}

/// Protocol-level lock state.
pub(crate) struct LockRt {
    /// Timestamp travelling with the lock.
    pub(crate) vc: VClock,
}

/// The arrival combiner of a barrier: counts arrivals and joins their
/// clocks until a quorum is in — every process at the host manager,
/// a node's own processes in front of the NI combining tree.
#[derive(Default)]
pub(crate) struct Arrivals {
    count: usize,
    /// The clocks joined so far; `None` between episodes unless the
    /// last one's clock was handed back ([`Arrivals::recycle`]), so an
    /// episode costs at most one clock however its barrier id is
    /// reused.
    joined: Option<VClock>,
}

impl Arrivals {
    /// Registers one arrival carrying `vc`. The `quorum`-th completes
    /// the episode: it takes the joined clock and leaves the combiner
    /// ready for the next episode.
    pub(crate) fn arrive(&mut self, vc: &VClock, quorum: usize) -> Option<VClock> {
        match &mut self.joined {
            Some(joined) if self.count > 0 => joined.join(vc),
            Some(joined) => joined.clone_from(vc),
            None => self.joined = Some(vc.clone()),
        }
        self.count += 1;
        if self.count < quorum {
            return None;
        }
        self.count = 0;
        self.joined.take()
    }

    /// Hands back the clock an episode took, for the next episode to
    /// join into.
    pub(crate) fn recycle(&mut self, joined: VClock) {
        debug_assert_eq!(self.count, 0, "recycled into an open episode");
        self.joined = Some(joined);
    }
}

/// One barrier's state at the manager.
#[derive(Default)]
pub(crate) struct BarrierRt {
    pub(crate) arrivals: Arrivals,
    /// Completed episodes of this barrier (incremented at each release
    /// decision); episode N's records share `op_barrier_id(b, N)`.
    pub(crate) epoch: u64,
}
