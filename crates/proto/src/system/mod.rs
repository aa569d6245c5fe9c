//! The SVM cluster system: state, construction, and the event loop.
//!
//! The system couples the protocol state machine to the simulated
//! communication layer. Application processes execute operation
//! streams ([`exec`]); page faults and the coherence machinery live in
//! [`fault`]; intervals, write notices, locks and barriers live in
//! [`sync`].

mod degraded;
mod exec;
mod fault;
mod home;
mod sched_view;
mod sync;

use std::collections::{BTreeMap, HashMap, VecDeque};

use genima_mem::{Diff, MemConfig, Page, PageId, PageMap, PageTable, PAGE_SIZE};
use genima_nic::{Event as CommEvent, LockId, Post, Step, Tag, Upcall};
use genima_rnic::HwProfile;
use genima_sim::{Dur, EventQueue, FixedState, InlineVec, Resource, Time};
use genima_vmmc::Vmmc;

use crate::breakdown::{Breakdown, Counters};
use crate::config::{BarrierImpl, LockImpl, ProtoConfig};
use crate::error::ProtoError;
use crate::features::FeatureSet;
use crate::ids::{BarrierId, NodeId, Topology};
use crate::interval::{DirtySet, IntervalRecord, PendingInterval};
use crate::ops::{Op, OpSource};
use crate::report::RunReport;
use crate::sched::{EventPicker, Mutation};
use crate::trace::TraceEvent;
use crate::vclock::VClock;
use crate::version::VersionMap;

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

/// How remote lock acquires and releases are carried. Resolved once,
/// at construction, from the feature set, the configured lock
/// implementation and the hardware generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockStrategy {
    /// Base: host messages through the lock's home to the last
    /// owner's protocol handler.
    HostChain,
    /// NIL: the home + last-owner chain in NI firmware.
    NiChain,
    /// NIL over remote atomics where the NI offers only
    /// fetch-and-store: test-and-set on the home cell, spinning with
    /// backoff.
    AtomicSwapSpin,
    /// NIL over remote atomics on an RDMA NIC: masked CAS in `wait`
    /// mode, so a losing attempt parks at the home NIC until the cell
    /// clears.
    AtomicCasWait,
}

impl LockStrategy {
    fn of(p: &SvmParams) -> LockStrategy {
        match (p.features.nil, p.proto.lock_impl) {
            (false, LockImpl::FirmwareChain | LockImpl::RemoteAtomics) => LockStrategy::HostChain,
            (true, LockImpl::FirmwareChain) => LockStrategy::NiChain,
            (true, LockImpl::RemoteAtomics) if p.hw.is_rdma() => LockStrategy::AtomicCasWait,
            (true, LockImpl::RemoteAtomics) => LockStrategy::AtomicSwapSpin,
        }
    }
}

/// Construction parameters of an [`SvmSystem`].
#[derive(Debug, Clone)]
pub struct SvmParams {
    /// Cluster shape.
    pub topo: Topology,
    /// Which NI mechanisms the protocol exploits.
    pub features: FeatureSet,
    /// Protocol-layer costs.
    pub proto: ProtoConfig,
    /// Memory-system costs.
    pub mem: MemConfig,
    /// Hardware generation: NI model, NI timing and network timing as
    /// one data axis (1999 LANai by default).
    pub hw: HwProfile,
    /// Number of application locks.
    pub locks: usize,
    /// Barrier implementation: host-managed (node-0 manager) or the
    /// NI combining tree.
    pub barrier: BarrierImpl,
    /// Maintain real page contents (tests/examples); the large
    /// workload generators run with dirty-range tracking only.
    pub data_mode: bool,
    /// If set, statistics are reset when this barrier completes —
    /// excluding initialization and cold start, per SPLASH-2
    /// guidelines (§3.2).
    pub warmup_barrier: Option<BarrierId>,
    /// Per-processor memory-bus demand while computing, bytes/s
    /// (workload-dependent; drives the SMP bus dilation model).
    pub bus_demand_per_proc: u64,
    /// Assign unplaced pages to the node that touches them first
    /// (first-touch home allocation, the usual HLRC default) instead
    /// of striping them round-robin.
    pub first_touch_homes: bool,
    /// Degraded mode for serving workloads: when a peer becomes
    /// unreachable (retransmission gave up), recover per-transaction —
    /// fail the blocked operations fast or heal the lost message in
    /// place — instead of aborting the whole run with
    /// [`ProtoError::PeerUnreachable`]. Failed operations surface in
    /// the latency histograms and [`Counters::failed_ops`]. Off by
    /// default: batch runs treat an unreachable peer as fatal.
    pub degraded: bool,
    /// Safety valve: abort if the event count exceeds this bound.
    pub max_events: u64,
}

impl SvmParams {
    /// Paper-calibrated parameters for the given topology and
    /// protocol variant.
    pub fn new(topo: Topology, features: FeatureSet) -> SvmParams {
        features.validate();
        // The interrupt-free column gets the NI barrier by default —
        // it is the last piece of asynchronous protocol processing the
        // host otherwise retains. Every other column keeps the node-0
        // manager so the ablation isolates the NI-barrier axis.
        let barrier = if features.interrupt_free() {
            BarrierImpl::NiTree { fanout: 4 }
        } else {
            BarrierImpl::HostManager
        };
        SvmParams {
            topo,
            features,
            barrier,
            proto: ProtoConfig::paper(),
            mem: MemConfig::pentium_pro(),
            hw: HwProfile::lanai_1999(),
            locks: 64,
            data_mode: false,
            warmup_barrier: None,
            bus_demand_per_proc: ProtoConfig::paper().bus_demand_per_proc,
            first_touch_homes: false,
            degraded: false,
            max_events: 200_000_000,
        }
    }
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

// Every push, slot sort and pop moves a whole queue entry, and each
// wheel slot's first push allocates four of them: the two 88-byte
// payloads (`Comm`, `Job`) set the size, and a wider variant must be
// boxed rather than widen every event (DESIGN.md §23).
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
    /// DW: an interval record deposited into a node's notice region.
    Notice {
        node: usize,
        writer: usize,
        interval: u32,
    },
    /// Pull mode: a remote fetch of missing interval records completed.
    NoticeFetch {
        node: usize,
        writer: usize,
        upto: u32,
    },
    /// Base: a packed diff arriving at the home (host message).
    DiffMsg {
        writer: usize,
        interval: u32,
        page: PageId,
        diff: Option<Diff>,
    },
    /// DD: the timestamp update that completes a direct-diff train.
    DiffTsUpdate {
        writer: usize,
        interval: u32,
        page: PageId,
        diff: Option<Diff>,
    },
    /// Base: lock request arriving at the lock's home node.
    LockRequestMsg {
        lock: LockId,
        proc: usize,
        requester: usize,
    },
    /// Base: lock request forwarded to the last owner.
    LockForwardMsg {
        lock: LockId,
        proc: usize,
        requester: usize,
        /// The chain node the forward was addressed to.
        owner: usize,
    },
    /// Base: lock grant arriving back at the requester.
    LockGrantMsg {
        lock: LockId,
        proc: usize,
        vc: VClock,
        upto: Vec<u32>,
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
    pub(crate) required: PageMap<VersionMap>,
    /// Open interval: dirty pages.
    pub(crate) dirty: DirtySet,
    /// Pages flushed early (mid-interval) that still need a notice.
    pub(crate) flushed_early: Vec<PageId>,
    /// Closed intervals whose diffs have not been flushed (lazy).
    pub(crate) pending_intervals: Vec<PendingInterval>,
    /// Records not yet propagated (Base piggyback path).
    pub(crate) bd: Breakdown,
    /// Accumulated interrupt-steal penalty applied to the next compute.
    pub(crate) steal: Dur,
    /// Set when the warmup barrier released; the breakdown is zeroed
    /// when this process exits the barrier.
    pub(crate) warmup_reset: bool,
    /// Degraded mode: a lock acquire failed fast and the critical
    /// section it guarded must be skipped. Holds the failed lock and
    /// the acquire nesting depth; ops are consumed without executing
    /// until the matching release brings the depth to zero.
    pub(crate) skipping: Option<(LockId, u32)>,
    /// While blocked on an in-flight fetch: the process that joined it
    /// next (see [`Waiters`]). Taken when this process is woken.
    pub(crate) next_waiter: Option<usize>,
    pub(crate) finished_at: Option<Time>,
}

/// Node-level lock state (the SMP tier of HLRC-SMP).
#[derive(Debug, Default)]
pub(crate) struct NodeLock {
    pub(crate) holder: Option<usize>,
    pub(crate) local_waiters: VecDeque<usize>,
    pub(crate) remote_waiters: VecDeque<(usize, usize, u64)>, // (node, proc, op)
    /// Whether this node currently possesses the lock token.
    pub(crate) owned: bool,
    /// A remote request from this node is in flight; later local
    /// acquirers must queue rather than double-request.
    pub(crate) requesting: bool,
}

/// A node's cached copy of a remote page.
#[derive(Default)]
pub(crate) struct CopyState {
    pub(crate) ts: VersionMap,
    pub(crate) data: Option<Page>,
}

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

/// Per-node runtime state.
pub(crate) struct NodeRt {
    /// The floating protocol process servicing interrupts.
    pub(crate) handler: Resource,
    /// Per writer: highest interval whose record has arrived here.
    pub(crate) arrived: Vec<u32>,
    pub(crate) copies: PageMap<CopyState>,
    /// Per page: the highest interval each *local* writer has flushed
    /// to the home. A fetched copy must cover these — otherwise the
    /// incoming version would roll back this node's own writes.
    pub(crate) local_flushed: PageMap<VersionMap>,
    /// Pages with an in-flight fetch and the processes waiting on it.
    pub(crate) inflight: BTreeMap<PageId, Waiters>,
    pub(crate) locks: Vec<NodeLock>,
    /// Round-robin victim for interrupt-steal accounting.
    pub(crate) steal_rr: usize,
    /// Piggyback watermark: per destination node, per writer, the
    /// highest interval already carried there by this node's messages.
    pub(crate) sent_upto: Vec<Vec<u32>>,
    /// NI-tree barriers: local arrivals collected per barrier — count
    /// and joined vector clock. The last local arrival posts the
    /// node's contribution to the firmware combining tree.
    pub(crate) coll_arrivals: BTreeMap<BarrierId, (usize, VClock)>,
}

/// Protocol-level lock state.
pub(crate) struct LockRt {
    /// Timestamp travelling with the lock.
    pub(crate) vc: VClock,
    /// Base: the home's chain tail.
    pub(crate) last_owner: usize,
}

/// One barrier's state at the manager.
pub(crate) struct BarrierRt {
    pub(crate) arrived: usize,
    pub(crate) joined: VClock,
    /// Completed episodes of this barrier (incremented at each release
    /// decision); episode N's records share `op_barrier_id(b, N)`.
    pub(crate) epoch: u64,
}

/// The complete simulated SVM cluster.
///
/// Construct with [`SvmSystem::new`], optionally assign page homes
/// with [`SvmSystem::assign_homes`], then call [`SvmSystem::run`].
///
/// # Example
///
/// ```
/// use genima_proto::{ops_source, FeatureSet, Op, SvmSystem, SvmParams, Topology};
/// use genima_sim::Dur;
///
/// let topo = Topology::new(2, 1);
/// let params = SvmParams::new(topo, FeatureSet::genima());
/// let work = (0..2)
///     .map(|_| Box::new(ops_source(vec![Op::Compute(Dur::from_us(100))])) as Box<dyn genima_proto::OpSource>)
///     .collect();
/// let mut sys = SvmSystem::new(params, work);
/// let report = sys.run();
/// assert!(report.parallel_time() >= Dur::from_us(100));
/// ```
pub struct SvmSystem {
    pub(crate) p: SvmParams,
    pub(crate) lock_strategy: LockStrategy,
    pub(crate) vmmc: Vmmc,
    pub(crate) q: EventQueue<SysEvent>,
    pub(crate) procs: Vec<ProcRt>,
    pub(crate) nodes: Vec<NodeRt>,
    pub(crate) locks: Vec<LockRt>,
    pub(crate) barriers: BTreeMap<BarrierId, BarrierRt>,
    /// Global store of interval records (content is immutable once
    /// created; visibility at each node is gated by `NodeRt::arrived`).
    pub(crate) records: Vec<BTreeMap<u32, IntervalRecord>>,
    pub(crate) home_pages: home::HomeTable,
    /// Dense per-page home override; `None` falls back to the modulo
    /// placement in [`SvmSystem::home_of`].
    pub(crate) home_override: Vec<Option<NodeId>>,
    /// Processor indices of each node, precomputed once (the flush,
    /// notice and barrier wake paths used to re-collect this per call).
    pub(crate) node_procs: Vec<Vec<usize>>,
    /// Reusable page-list buffer for the flush/invalidation hot paths
    /// (take, fill, put back — no steady-state allocation).
    pub(crate) scratch_pages: Vec<PageId>,
    /// Reusable conflicted-page buffer for `apply_invalidations`.
    pub(crate) scratch_conflicts: Vec<PageId>,
    /// Reusable woken-process buffer for `apply_diff_at_home`.
    pub(crate) scratch_procs: Vec<usize>,
    /// Emptied dirty sets handed back by `flush_interval`; the next
    /// interval to open takes one instead of growing a new buffer.
    pub(crate) spare_dirty: Vec<DirtySet>,
    /// One past the highest page index observed (for pin accounting).
    pub(crate) shared_extent: usize,
    pub(crate) tags: HashMap<u64, Pending, FixedState>,
    pub(crate) next_tag: u64,
    /// Monotonic sequence feeding fetch/lock operation ids (barrier
    /// and diff ids are structural — see `genima_obs::op_barrier_id`).
    pub(crate) op_seq: u64,
    /// Per-op-kind wait-latency histograms, recorded unconditionally
    /// and reset at the warmup barrier with the counters.
    pub(crate) op_hist: crate::report::OpLatency,
    /// Per-class serving-request latency histograms, fed by
    /// [`Op::ServeEnd`] markers; reset with `op_hist`.
    pub(crate) serve_hist: crate::report::ServeLatency,
    /// Degraded mode: locks whose token may be lost (an NI lock or
    /// atomics transaction was abandoned mid-flight). Later acquires
    /// fail fast instead of re-entering the firmware state machine.
    pub(crate) dead_locks: Vec<bool>,
    pub(crate) counters: Counters,
    pub(crate) done_count: usize,
    pub(crate) measure_from: Time,
    /// Protocol events recorded while tracing is on (`None` =
    /// disabled, the default: zero overhead).
    pub(crate) trace: Option<Vec<TraceEvent>>,
    /// Observability recorder for host-side spans (`None` = disabled,
    /// the default: a single branch per emission site, like `trace`).
    pub(crate) obs: Option<genima_obs::ObsHandle>,
    /// Set when the communication layer reports an unrecoverable
    /// failure (e.g. an unreachable peer); the event loop drains out
    /// and [`SvmSystem::try_run`] returns the error.
    pub(crate) fatal: Option<ProtoError>,
    /// Free list of 4 KB buffers: twins, home copies, and page-reply
    /// payloads recycle through here so steady-state execution
    /// allocates no page-sized buffers.
    pub(crate) pool: genima_mem::PagePool,
    /// Reusable diff arena for scans whose result is applied
    /// immediately (no per-scan run/payload allocations).
    pub(crate) diff_scratch: genima_mem::DiffScratch,
    /// A deliberately seeded protocol bug (checker validation only).
    pub(crate) mutation: Option<crate::sched::Mutation>,
    /// Values recorded by [`Op::Observe`], per process in program
    /// order.
    pub(crate) observations: Vec<Vec<u64>>,
}

impl SvmSystem {
    /// Creates a cluster running one [`OpSource`] per processor.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the topology's processor
    /// count, or if the feature set is inconsistent.
    pub fn new(params: SvmParams, sources: Vec<Box<dyn OpSource>>) -> SvmSystem {
        params.features.validate();
        let nprocs = params.topo.procs();
        assert_eq!(
            sources.len(),
            nprocs,
            "need exactly one op source per processor"
        );
        let nnodes = params.topo.nodes;
        let mut vmmc = Vmmc::with_model(
            params.hw.model(nnodes),
            params.hw.nic,
            params.hw.net,
            nnodes,
            params.locks,
        );
        if let BarrierImpl::NiTree { fanout } = params.barrier {
            vmmc.comm_mut().set_coll_fanout(fanout);
        }
        vmmc.comm_mut().set_degraded(params.degraded);
        let procs = sources
            .into_iter()
            .map(|src| ProcRt {
                clock: Time::ZERO,
                src,
                cur: None,
                state: ProcState::Runnable,
                vc: VClock::new(nprocs),
                seen: vec![0; nprocs],
                pt: PageTable::new(),
                required: PageMap::default(),
                dirty: DirtySet::default(),
                flushed_early: Vec::new(),
                pending_intervals: Vec::new(),
                bd: Breakdown::default(),
                steal: Dur::ZERO,
                warmup_reset: false,
                skipping: None,
                next_waiter: None,
                finished_at: None,
            })
            .collect();
        let nodes = (0..nnodes)
            .map(|_| NodeRt {
                handler: Resource::new("protocol-handler"),
                arrived: vec![0; nprocs],
                copies: PageMap::default(),
                local_flushed: PageMap::default(),
                inflight: BTreeMap::new(),
                locks: (0..params.locks).map(|_| NodeLock::default()).collect(),
                steal_rr: 0,
                sent_upto: vec![vec![0; nprocs]; nnodes],
                coll_arrivals: BTreeMap::new(),
            })
            .collect();
        let locks = (0..params.locks)
            .map(|i| LockRt {
                vc: VClock::new(nprocs),
                last_owner: i % nnodes,
            })
            .collect();
        let mut nodes: Vec<NodeRt> = nodes;
        // The NI firmware initialises each lock as owned by its home;
        // mirror that at the protocol level.
        for (i, l) in (0..params.locks).zip(0..) {
            let _ = l;
            let home = i % nnodes;
            nodes[home].locks[i].owned = true;
        }
        SvmSystem {
            lock_strategy: LockStrategy::of(&params),
            vmmc,
            q: EventQueue::new(),
            procs,
            nodes,
            locks,
            barriers: BTreeMap::new(),
            records: vec![BTreeMap::new(); nprocs],
            home_pages: home::HomeTable::default(),
            home_override: Vec::new(),
            node_procs: (0..nnodes)
                .map(|n| {
                    params
                        .topo
                        .procs_of(NodeId::new(n))
                        .map(|p| p.index())
                        .collect()
                })
                .collect(),
            scratch_pages: Vec::new(),
            scratch_conflicts: Vec::new(),
            scratch_procs: Vec::new(),
            spare_dirty: Vec::new(),
            shared_extent: 0,
            tags: HashMap::default(),
            next_tag: 1,
            op_seq: 0,
            op_hist: crate::report::OpLatency::default(),
            serve_hist: crate::report::ServeLatency::default(),
            dead_locks: vec![false; params.locks],
            counters: Counters::default(),
            done_count: 0,
            measure_from: Time::ZERO,
            trace: None,
            obs: None,
            fatal: None,
            pool: genima_mem::PagePool::new(),
            diff_scratch: genima_mem::DiffScratch::new(),
            mutation: None,
            observations: vec![Vec::new(); nprocs],
            p: params,
        }
    }

    /// Installs an observability recorder: protocol spans (page
    /// fetches, lock waits, barrier phases, diff work, interrupts) are
    /// recorded on the host tracks and the NI firmware records its
    /// service spans on the firmware tracks. Like tracing, recording is
    /// observational only — simulated timing is unchanged.
    pub fn set_observer(&mut self, obs: genima_obs::ObsHandle) {
        self.vmmc.comm_mut().set_observer(obs.clone());
        self.obs = Some(obs);
    }

    /// Records an observability span when a recorder is installed.
    pub(crate) fn obs_record(&mut self, f: impl FnOnce(&mut genima_obs::Recorder)) {
        if let Some(h) = self.obs.as_ref() {
            f(&mut h.borrow_mut());
        }
    }

    /// Installs a fault injector in the communication layer: every
    /// wire packet is sequenced and its fate (deliver / delay /
    /// duplicate / drop) decided by `injector`; the NI firmware
    /// retransmits losses with exponential backoff and suppresses
    /// duplicates at the receiver. See the `genima-fault` crate for
    /// injector implementations.
    pub fn set_fault_injector(&mut self, injector: Box<dyn genima_nic::FaultInjector>) {
        self.vmmc.comm_mut().set_fault_injector(injector);
    }

    /// Enables or disables degraded-mode fault handling (see
    /// [`SvmParams::degraded`]): an exhausted retransmission budget
    /// fails the affected transaction instead of aborting the run.
    pub fn set_degraded(&mut self, on: bool) {
        self.p.degraded = on;
        self.vmmc.comm_mut().set_degraded(on);
    }

    /// Turns protocol *and* NI event tracing on or off. Turning it on
    /// clears any previously recorded events. Tracing is observational
    /// only — it never changes simulated timing or protocol behaviour.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
        self.vmmc.comm_mut().set_tracing(on);
    }

    /// Drains the recorded protocol trace (empty when tracing was
    /// never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Drains the NI lock-ownership trace (empty when tracing was
    /// never enabled).
    pub fn take_lock_trace(&mut self) -> Vec<genima_nic::LockTrace> {
        self.vmmc.comm_mut().take_lock_trace()
    }

    /// Records a trace event when tracing is enabled.
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    /// Assigns `count` pages starting at `start` to `node` as their
    /// home. Unassigned pages default to `page_index % nodes`.
    pub fn assign_homes(&mut self, start: PageId, count: usize, node: NodeId) {
        assert!(node.index() < self.p.topo.nodes, "home node out of range");
        let end = start.index() + count;
        if self.home_override.len() < end {
            self.home_override.resize(end, None);
        }
        for i in 0..count {
            self.home_override[start.index() + i] = Some(node);
        }
        self.shared_extent = self.shared_extent.max(end);
    }

    /// The home node of `page`.
    pub fn home_of(&self, page: PageId) -> NodeId {
        self.home_override
            .get(page.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| NodeId::new(page.index() % self.p.topo.nodes))
    }

    /// Runs the cluster until every process finishes, then reports.
    ///
    /// # Panics
    ///
    /// Panics if the event budget (`max_events`) is exceeded, which
    /// indicates a protocol livelock, if a [`Op::Validate`] check
    /// fails, or if the communication layer reports an unrecoverable
    /// failure (use [`SvmSystem::try_run`] to handle that gracefully).
    pub fn run(&mut self) -> RunReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("protocol run aborted: {e}"),
        }
    }

    /// Runs the cluster until every process finishes or the
    /// communication layer reports an unrecoverable failure.
    ///
    /// A node that exhausts its retransmission attempts to a peer
    /// surfaces [`ProtoError::PeerUnreachable`] here instead of
    /// wedging the event loop: the run stops cleanly and its partial
    /// state remains inspectable.
    ///
    /// # Panics
    ///
    /// Panics if the event budget (`max_events`) is exceeded, which
    /// indicates a protocol livelock, or if a [`Op::Validate`] check
    /// fails.
    pub fn try_run(&mut self) -> Result<RunReport, ProtoError> {
        for p in 0..self.procs.len() {
            self.q.push(Time::ZERO, SysEvent::Resume(p));
        }
        while let Some((t, ev)) = self.q.pop() {
            assert!(
                self.q.delivered() <= self.p.max_events,
                "event budget exceeded: protocol livelock?"
            );
            self.dispatch(t, ev);
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
        }
        assert_eq!(
            self.done_count,
            self.procs.len(),
            "deadlock: {} of {} processes finished; blocked: {:?}",
            self.done_count,
            self.procs.len(),
            self.procs
                .iter()
                .enumerate()
                .filter(|(_, p)| !matches!(p.state, ProcState::Done))
                .map(|(i, p)| (i, format!("{:?}", p.state)))
                .collect::<Vec<_>>()
        );
        Ok(self.build_report())
    }

    /// Runs the cluster under a controlled scheduler: at every step the
    /// picker chooses which pending channel head fires next (see
    /// [`crate::sched`]). With [`crate::sched::FifoPicker`] this is
    /// equivalent to [`SvmSystem::try_run`].
    ///
    /// Unlike `try_run`, a deadlock (every process blocked with no
    /// pending events) is surfaced as [`ProtoError::Deadlock`] rather
    /// than a panic, because a controlled schedule that wedges the
    /// protocol is a *finding*, not a harness bug.
    ///
    /// # Panics
    ///
    /// Panics if the event budget (`max_events`) is exceeded, if a
    /// [`Op::Validate`] check fails, or if the picker returns an
    /// out-of-range index.
    pub fn try_run_with_picker(
        &mut self,
        picker: &mut dyn EventPicker,
    ) -> Result<RunReport, ProtoError> {
        for p in 0..self.procs.len() {
            self.q.push(Time::ZERO, SysEvent::Resume(p));
        }
        let mut step = 0u64;
        loop {
            let choices = self.sched_choices();
            if choices.is_empty() {
                break;
            }
            let next_seq = self.q.next_seq();
            let i = match picker.pick(step, next_seq, &choices) {
                Some(i) => i,
                None => return Err(ProtoError::Halted),
            };
            assert!(i < choices.len(), "picker index {i} out of range");
            let seq = choices[i].seq;
            let (t, ev) = self
                .q
                .remove_clamped(seq)
                .expect("picked choice must be pending");
            assert!(
                self.q.delivered() <= self.p.max_events,
                "event budget exceeded: protocol livelock?"
            );
            self.dispatch(t, ev);
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
            step += 1;
        }
        if self.done_count != self.procs.len() {
            return Err(ProtoError::Deadlock {
                blocked: self
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !matches!(p.state, ProcState::Done))
                    .map(|(i, p)| (i, format!("{:?}", p.state)))
                    .collect(),
            });
        }
        Ok(self.build_report())
    }

    /// Installs a deliberately seeded protocol bug; see
    /// [`Mutation`](crate::sched::Mutation). Checker validation only.
    pub fn set_mutation(&mut self, m: Mutation) {
        self.mutation = Some(m);
    }

    /// Drains the values recorded by [`Op::Observe`], one vector per
    /// process in program order.
    pub fn take_observations(&mut self) -> Vec<Vec<u64>> {
        std::mem::take(&mut self.observations)
    }

    fn dispatch(&mut self, t: Time, ev: SysEvent) {
        match ev {
            SysEvent::Resume(p) => self.run_proc(t, p),
            SysEvent::Comm(e) => {
                let step = self.vmmc.handle(t, e);
                self.absorb_step(step);
            }
            SysEvent::Up(u) => self.upcall(t, u),
            SysEvent::Job(_, pending, op) => self.serve(t, pending, op),
            SysEvent::RetryFetch(p, page) => self.issue_rf(t, p, page),
            SysEvent::RetrySpin(p, lock) => self.atomic_lock_try(t, p, lock),
        }
    }

    pub(crate) fn absorb_post(&mut self, post: Post) -> Time {
        self.push_comm(post.events);
        for (t, u) in post.upcalls {
            self.q.push(t, SysEvent::Up(u));
        }
        post.host_free
    }

    pub(crate) fn absorb_step(&mut self, step: Step) {
        self.push_comm(step.events);
        for (t, u) in step.upcalls {
            self.q.push(t, SysEvent::Up(u));
        }
    }

    /// Queues communication events, one entry each: everything a
    /// `Post`/`Step` emits has left `transport::inject` through serial
    /// LANai and link bookings, so no two share an instant.
    fn push_comm(&mut self, events: InlineVec<(Time, CommEvent)>) {
        for (t, e) in events {
            self.q.push(t, SysEvent::Comm(e));
        }
    }

    /// Allocates a tag bound to `pending`.
    pub(crate) fn tag(&mut self, pending: Pending) -> Tag {
        let t = self.next_tag;
        self.next_tag += 1;
        self.tags.insert(t, pending);
        Tag::new(t)
    }

    /// Allocates a tag bound to `pending` and, when observing, binds
    /// the wire tag to operation `op` so the NI firmware and wire
    /// emission sites can resolve the packet back to its op.
    pub(crate) fn tag_op(&mut self, pending: Pending, op: u64) -> Tag {
        let t = self.tag(pending);
        self.obs_record(|o| o.bind_op(t.value(), op));
        t
    }

    /// Allocates the next page-fetch operation id.
    pub(crate) fn next_fetch_op(&mut self) -> u64 {
        self.op_seq += 1;
        genima_obs::op_fetch_id(self.op_seq)
    }

    /// Allocates the next lock-acquire operation id.
    pub(crate) fn next_lock_op(&mut self) -> u64 {
        self.op_seq += 1;
        genima_obs::op_lock_id(self.op_seq)
    }

    /// Resolves the op bound to `tag` and removes the binding (the
    /// pending transaction is being consumed). Returns 0 when
    /// unobserved or unbound.
    pub(crate) fn take_op(&mut self, tag: Tag) -> u64 {
        match self.obs.as_ref() {
            Some(h) => {
                let mut r = h.borrow_mut();
                let op = r.op_for(tag.value());
                r.unbind_op(tag.value());
                op
            }
            None => 0,
        }
    }

    /// The fetch op of a process currently blocked on a page fault
    /// (0 otherwise).
    pub(crate) fn fetch_op_of(&self, p: usize) -> u64 {
        match &self.procs[p].state {
            ProcState::Blocked(Block::PageFault { op, .. }) => *op,
            ProcState::Runnable
            | ProcState::Done
            | ProcState::Blocked(
                Block::LockWait { .. } | Block::NoticeWait { .. } | Block::BarrierWait { .. },
            ) => 0,
        }
    }

    /// Marks a page as part of the shared extent; under first-touch
    /// home allocation, an unplaced page is homed at the toucher.
    pub(crate) fn note_extent(&mut self, page: PageId) {
        if page.index() >= self.shared_extent {
            self.shared_extent = page.index() + 1;
        }
    }

    /// Records `node` touching `page` (first-touch home allocation).
    pub(crate) fn note_touch(&mut self, node: usize, page: PageId) {
        self.note_extent(page);
        if self.p.first_touch_homes {
            let i = page.index();
            if self.home_override.len() <= i {
                self.home_override.resize(i + 1, None);
            }
            if self.home_override[i].is_none() {
                self.home_override[i] = Some(NodeId::new(node));
            }
        }
    }

    /// Charges an interrupt on `node` at `t` with handler service
    /// `svc`, attributed to operation `op` (0 = unattributed); returns
    /// the handler completion time. Also accrues the steal penalty the
    /// interrupted compute processor suffers.
    pub(crate) fn interrupt(&mut self, node: usize, t: Time, svc: Dur, op: u64) -> Time {
        debug_assert!(
            !self.p.features.interrupt_free(),
            "GeNIMA must never take an interrupt"
        );
        self.counters.interrupts += 1;
        self.emit(TraceEvent::Interrupt { at: t, node });
        let lat = self.p.proto.interrupt_latency;
        let node_rt = &mut self.nodes[node];
        let (start, done) = node_rt.handler.reserve(t + lat, svc);
        self.obs_record(|o| {
            o.span_op(
                genima_obs::SpanKind::Interrupt,
                node,
                genima_obs::Track::Host,
                start,
                done,
                svc.as_ns(),
                op,
            );
        });
        let node_rt = &mut self.nodes[node];
        // The floating protocol process preempts one compute processor.
        let ppn = self.p.topo.procs_per_node;
        let victim = node * ppn + node_rt.steal_rr % ppn;
        node_rt.steal_rr = (node_rt.steal_rr + 1) % ppn;
        self.procs[victim].steal += svc + self.p.proto.interrupt_steal;
        done
    }

    /// Processes a communication upcall.
    fn upcall(&mut self, t: Time, up: Upcall) {
        match up {
            Upcall::DepositArrived { tag, .. } | Upcall::FetchCompleted { tag, .. } => {
                let op = self.take_op(tag);
                if let Some(pending) = self.tags.remove(&tag.value()) {
                    self.pending_arrived(t, pending, false, op);
                }
            }
            Upcall::HostMsgArrived { tag, .. } => {
                let op = self.take_op(tag);
                if let Some(pending) = self.tags.remove(&tag.value()) {
                    self.pending_arrived(t, pending, true, op);
                }
            }
            Upcall::LockGranted { lock, tag, .. } => {
                let _grant_op = self.take_op(tag);
                if let Some(Pending::NiLockWait { proc }) = self.tags.remove(&tag.value()) {
                    self.ni_lock_granted(t, proc, lock);
                }
            }
            Upcall::LockDeparted { nic, lock } => {
                self.nodes[nic.index()].locks[lock.index()].owned = false;
            }
            Upcall::CollCompleted { nic, coll, epoch } => {
                self.coll_completed(t, nic.index(), coll, epoch);
            }
            Upcall::AtomicCompleted { tag, old, .. } => {
                let _try_op = self.take_op(tag);
                if let Some(Pending::AtomicLockTry { proc, lock }) = self.tags.remove(&tag.value())
                {
                    self.atomic_lock_result(t, proc, lock, old);
                }
            }
            Upcall::PeerUnreachable { nic, peer, tag } => {
                if self.p.degraded {
                    self.degraded_give_up(t, nic, peer, tag);
                } else {
                    // Drop whatever completion the abandoned send was
                    // carrying and abort the run: the peer is presumed
                    // dead, so the completion will never arrive.
                    let _lost_op = self.take_op(tag);
                    self.tags.remove(&tag.value());
                    self.fatal = Some(ProtoError::PeerUnreachable {
                        node: nic.index(),
                        peer: peer.index(),
                    });
                }
            }
        }
    }

    /// The host handler a message needs when it arrives by host
    /// message: the node whose protocol process takes the interrupt
    /// and its service time. `None` for messages whose action needs no
    /// handler however they arrive.
    fn handler_of(&self, pending: &Pending) -> Option<(usize, Dur)> {
        let proto = &self.p.proto;
        match pending {
            Pending::PageRequestMsg { page, .. } => {
                Some((self.home_of(*page).index(), proto.svc_page_request))
            }
            Pending::DiffMsg { page, .. } => {
                Some((self.home_of(*page).index(), self.p.mem.diff_apply))
            }
            Pending::LockRequestMsg { lock, .. } => {
                Some((self.lock_home(*lock), proto.svc_lock_forward))
            }
            // Delivered to the last owner; the handler there services
            // the grant.
            Pending::LockForwardMsg { owner, .. } => Some((*owner, proto.svc_lock_grant)),
            Pending::BarrierArriveMsg { .. } => Some((0, proto.svc_barrier_arrival)),
            Pending::BarrierReleaseMsg { node, .. } => Some((*node, proto.svc_barrier_release)),
            Pending::PageReply { .. }
            | Pending::FetchPage { .. }
            | Pending::Notice { .. }
            | Pending::NoticeFetch { .. }
            | Pending::DiffTsUpdate { .. }
            | Pending::LockGrantMsg { .. }
            | Pending::NiLockWait { .. }
            | Pending::AtomicLockTry { .. } => None,
        }
    }

    /// Routes an arrived message to its protocol action. `host` is
    /// `true` when the message landed via the host-message path: its
    /// action then waits for the interrupted node's handler
    /// ([`SysEvent::Job`]). `op` is the operation the consumed tag was
    /// bound to (0 = unattributed), forwarded so downstream handlers
    /// keep the causal chain.
    fn pending_arrived(&mut self, t: Time, pending: Pending, host: bool, op: u64) {
        let handler = if host {
            self.handler_of(&pending)
        } else {
            None
        };
        match handler {
            Some((node, svc)) => {
                let done = self.interrupt(node, t, svc, op);
                self.q.push(done, SysEvent::Job(node, pending, op));
            }
            None => self.serve(t, pending, op),
        }
    }

    /// Carries out the protocol action of an arrived message.
    fn serve(&mut self, t: Time, pending: Pending, op: u64) {
        match pending {
            Pending::PageRequestMsg {
                requester,
                page,
                required,
            } => {
                let home = self.home_of(page).index();
                self.home_serve_page_request(t, home, requester, page, required, op);
            }
            Pending::PageReply {
                node,
                page,
                ts,
                data,
            } => self.base_reply_arrived(t, node, page, ts, data, op),
            Pending::FetchPage { proc, page } => self.rf_completed(t, proc, page, op),
            Pending::Notice {
                node,
                writer,
                interval: upto,
            }
            | Pending::NoticeFetch { node, writer, upto } => {
                let a = &mut self.nodes[node].arrived[writer];
                *a = (*a).max(upto);
                self.check_notice_waiters(t, node);
            }
            Pending::DiffMsg {
                writer,
                interval,
                page,
                diff,
            } => self.apply_diff_at_home(t, writer, interval, page, diff, false),
            Pending::DiffTsUpdate {
                writer,
                interval,
                page,
                diff,
            } => self.apply_diff_at_home(t, writer, interval, page, diff, true),
            Pending::LockRequestMsg {
                lock,
                proc,
                requester,
            } => self.home_forward_lock(t, lock, proc, requester, op),
            Pending::LockForwardMsg {
                lock,
                proc,
                requester,
                owner,
            } => self.owner_service_lock(t, owner, lock, proc, requester, op),
            Pending::LockGrantMsg {
                lock,
                proc,
                vc,
                upto,
            } => self.base_grant_received(t, proc, lock, vc, upto),
            Pending::NiLockWait { .. } => unreachable!("handled via LockGranted"),
            Pending::AtomicLockTry { .. } => unreachable!("handled via AtomicCompleted"),
            Pending::BarrierArriveMsg {
                barrier,
                proc,
                vc,
                upto,
            } => self.manager_note_arrival(t, barrier, proc, vc, upto),
            Pending::BarrierReleaseMsg {
                barrier,
                node,
                vc,
                upto,
            } => self.release_at_node(t, barrier, node, &vc, upto, op),
        }
    }

    fn build_report(&mut self) -> RunReport {
        let finish = self
            .procs
            .iter()
            .map(|p| p.finished_at.unwrap_or(p.clock))
            .max()
            .unwrap_or(Time::ZERO);
        let total_pages = self.shared_extent as u64;
        let pinned: Vec<u64> = (0..self.p.topo.nodes)
            .map(|n| {
                if self.p.features.rf {
                    // Only home pages must be exported.
                    let homed = (0..self.shared_extent)
                        .filter(|&i| self.home_of(PageId::new(i)).index() == n)
                        .count() as u64;
                    homed * PAGE_SIZE as u64
                } else {
                    total_pages * PAGE_SIZE as u64
                }
            })
            .collect();
        RunReport {
            finish: Time::from_ns(finish.saturating_since(self.measure_from).as_ns()),
            breakdowns: self.procs.iter().map(|p| p.bd).collect(),
            counters: self.counters,
            ni_barrier: matches!(self.p.barrier, BarrierImpl::NiTree { .. }),
            monitor: self.vmmc.comm().monitor().clone(),
            recovery: self.vmmc.comm().recovery_stats(),
            pinned_shared_bytes: pinned,
            hw: self.p.hw.name,
            ni: self.vmmc.comm().ni_stats(),
            op_latency: self.op_hist.clone(),
            serve: self.serve_hist.clone(),
            events: self.q.delivered(),
        }
    }
}

#[cfg(test)]
mod tests;
