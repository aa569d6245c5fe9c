//! The SVM cluster system: state, construction, and the event loop.
//!
//! The system couples the protocol state machine to the simulated
//! communication layer. Application processes execute operation
//! streams ([`exec`]); page faults and the coherence machinery live in
//! [`fault`]; each synchronisation mechanism has its own file —
//! [`interval`], [`notice`], [`lock`], [`barrier`] — over the runtime
//! types of [`state`], and the clock-free machines [`page`] and
//! [`notices`] decide page versions and write-notice routes.

mod barrier;
mod degraded;
mod exec;
mod fault;
mod home;
mod in_place;
mod interval;
mod lock;
mod notice;
mod notices;
mod page;
mod route;
mod sched_view;
mod state;

use std::collections::{BTreeMap, HashMap};

use genima_mem::{PageId, PageVec, PAGE_SIZE};
use genima_net::NicId;
use genima_nic::{
    ChainLock, Comm, LockId, LockImpl, MsgKind, Post, SendDesc, Step, Tag, TraceEvent,
};
use genima_rnic::{Board, HwProfile};
use genima_sim::{EventQueue, FixedState, PageBits, Time};

use self::interval::DiffRoute;
use self::notices::{NoticeRoute, Notices};
pub(crate) use self::state::*;
use crate::breakdown::Counters;
use crate::config::{BarrierImpl, ProtoConfig};
use crate::error::ProtoError;
use crate::features::FeatureSet;
use crate::ids::{BarrierId, NodeId, Topology};
use crate::interval::{DirtySet, IntervalLog};
use crate::ops::OpSource;
use crate::report::RunReport;
use crate::sched::{EventPicker, Mutation};
use crate::vclock::VClock;
use crate::version::VersionMap;

/// How remote lock acquires and releases are carried. Resolved once,
/// at construction, from the rung and the NI board: the one
/// protocol-side choice the hardware makes is the lock primitive, and
/// it is the board's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockStrategy {
    /// Base: the home + last-owner chain run by the hosts — host
    /// messages through the lock's home to the last owner's protocol
    /// handler.
    HostChain,
    /// NIL: the same chain run by the NI firmware.
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
    pub(crate) fn of(p: &SvmParams) -> LockStrategy {
        match (p.features.ni_locks(), p.hw.board) {
            (false, Board::Lanai(_) | Board::Rnic(_)) => LockStrategy::HostChain,
            (true, Board::Lanai(lanai)) => match lanai.lock_impl {
                LockImpl::FirmwareChain => LockStrategy::NiChain,
                LockImpl::RemoteAtomics => LockStrategy::AtomicSwapSpin,
            },
            (true, Board::Rnic(_)) => LockStrategy::AtomicCasWait,
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
    /// Hardware generation, the whole node: NI model, NI, network and
    /// host memory timing as one data axis.
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
    /// apply the lost message's record in place or fail the fetch that
    /// waited on it — instead of aborting the whole run with
    /// [`ProtoError::PeerUnreachable`]. Only fetches can fail; they
    /// surface in the latency histograms and [`Counters::failed_ops`].
    /// Off by default: batch runs treat an unreachable peer as fatal.
    pub degraded: bool,
    /// Safety valve: abort if the event count exceeds this bound.
    pub max_events: u64,
}

/// The complete simulated SVM cluster.
///
/// Construct with [`SvmSystem::new`], optionally assign page homes
/// with [`SvmSystem::assign_homes`], then call [`SvmSystem::run`].
///
/// # Example
///
/// ```
/// use genima_proto::{ops_source, Column, FeatureSet, Op, SvmSystem, Topology};
/// use genima_sim::Dur;
///
/// let topo = Topology::new(2, 1);
/// let params = Column::lanai(FeatureSet::genima()).params(topo);
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
    pub(crate) diff_route: DiffRoute,
    pub(crate) comm: Comm,
    pub(crate) q: EventQueue<SysEvent>,
    pub(crate) procs: Vec<ProcRt>,
    pub(crate) nodes: Vec<NodeRt>,
    pub(crate) locks: Vec<LockRt>,
    /// [`LockStrategy::HostChain`]: the lock chains the hosts run
    /// (empty otherwise — under `NiChain` the NI owns them).
    pub(crate) host_chains: Vec<ChainLock>,
    pub(crate) barriers: BTreeMap<BarrierId, BarrierRt>,
    /// Global store of interval records, per writer (content is
    /// immutable once created; visibility at each node is gated by
    /// the notice machine's watermarks).
    pub(crate) records: Vec<IntervalLog>,
    /// The write-notice machine: every node's watermarks and the route
    /// records take (DESIGN.md §18).
    pub(crate) notices: Notices,
    pub(crate) home_pages: home::HomeTable,
    /// Per-page home override; an absent page falls back to the modulo
    /// placement in [`SvmSystem::home_of`].
    pub(crate) home_override: PageVec<NodeId>,
    /// Reusable page-list buffer for the flush/invalidation hot paths
    /// (take, fill, put back — no steady-state allocation).
    pub(crate) scratch_pages: Vec<PageId>,
    /// Reusable page set in which `apply_invalidations` collects the
    /// pages its notices name (empty between calls).
    pub(crate) scratch_noticed: PageBits,
    /// Reusable woken-process buffer for `apply_diff_at_home`.
    pub(crate) scratch_procs: Vec<usize>,
    /// Reusable NI-tree barrier buffers: the reduce vector a node's
    /// last arrival posts, and the clock its release decodes.
    pub(crate) scratch_reduce: Vec<u64>,
    pub(crate) scratch_joined: VClock,
    /// Emptied dirty sets handed back by `flush_interval`; the next
    /// interval to open takes one instead of growing a new buffer.
    pub(crate) spare_dirty: Vec<DirtySet>,
    /// Versions that travelled in a Base page request or reply and were
    /// handed back: by the home when it served the request, by the
    /// requester when the reply's version displaced its copy's old one.
    /// The next request or reply is built in one. Every fetch in flight
    /// has one version travelling, so the stack is reserved for one per
    /// process and never regrows.
    pub(crate) spare_versions: Vec<VersionMap>,
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
    /// [`Op::ServeEnd`](crate::ops::Op::ServeEnd) markers; reset with `op_hist`.
    pub(crate) serve_hist: crate::report::ServeLatency,
    pub(crate) counters: Counters,
    pub(crate) measure_from: Time,
    /// Observability recorder for host-side spans (`None` = disabled,
    /// the default: a single branch per emission site, like tracing).
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
    /// Values recorded by [`Op::Observe`](crate::ops::Op::Observe), per process in program
    /// order.
    pub(crate) observations: Vec<Vec<u64>>,
}

impl SvmSystem {
    /// Creates a cluster running one [`OpSource`] per processor.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the topology's processor
    /// count, or if `params` pair the NI-tree barrier with piggybacked
    /// notices: the tree carries no notices, so nothing would bring a
    /// barrier exit the records it waits for.
    pub fn new(params: SvmParams, sources: Vec<Box<dyn OpSource>>) -> SvmSystem {
        let nprocs = params.topo.procs();
        assert_eq!(
            sources.len(),
            nprocs,
            "need exactly one op source per processor"
        );
        let notice_route = NoticeRoute::of(&params);
        assert!(
            !(matches!(params.barrier, BarrierImpl::NiTree { .. })
                && notice_route == NoticeRoute::Piggyback),
            "the NI-tree barrier carries no notices, so it needs eager notices"
        );
        let nnodes = params.topo.nodes;
        let mut comm = Comm::with_model(
            params.hw.model(nnodes),
            params.hw.nic,
            params.hw.net,
            nnodes,
            params.locks,
        );
        if let BarrierImpl::NiTree { fanout } = params.barrier {
            comm.set_coll_fanout(fanout);
        }
        comm.set_degraded(params.degraded);
        let lock_strategy = LockStrategy::of(&params);
        let host_chains = match lock_strategy {
            LockStrategy::HostChain => (0..params.locks)
                .map(|i| ChainLock::new(LockId::new(i), NodeId::new(i % nnodes).nic(), nnodes))
                .collect(),
            LockStrategy::NiChain | LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait => {
                Vec::new()
            }
        };
        SvmSystem {
            lock_strategy,
            diff_route: DiffRoute::of(&params),
            comm,
            q: EventQueue::new(),
            procs: sources
                .into_iter()
                .map(|src| ProcRt::new(src, nprocs))
                .collect(),
            nodes: (0..nnodes)
                .map(|_| NodeRt::new(params.topo, params.locks))
                .collect(),
            locks: (0..params.locks)
                .map(|_| LockRt {
                    vc: VClock::new(nprocs),
                })
                .collect(),
            host_chains,
            barriers: BTreeMap::new(),
            records: vec![IntervalLog::default(); nprocs],
            notices: Notices::new(notice_route, params.topo),
            home_pages: home::HomeTable::default(),
            home_override: PageVec::new(),
            scratch_pages: Vec::new(),
            scratch_noticed: PageBits::default(),
            scratch_procs: Vec::new(),
            scratch_reduce: Vec::new(),
            scratch_joined: VClock::new(nprocs),
            spare_dirty: Vec::new(),
            spare_versions: Vec::with_capacity(nprocs),
            shared_extent: 0,
            tags: HashMap::default(),
            next_tag: 1,
            op_seq: 0,
            op_hist: crate::report::OpLatency::default(),
            serve_hist: crate::report::ServeLatency::default(),
            counters: Counters::default(),
            measure_from: Time::ZERO,
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
        self.comm.set_observer(obs.clone());
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
        self.comm.set_fault_injector(injector);
    }

    /// Turns event tracing on or off: protocol events and the NI's
    /// lock-ownership transitions go to one stream, kept by the
    /// communication layer. Turning it on clears any previously
    /// recorded events. Tracing is observational only — it never
    /// changes simulated timing or protocol behaviour.
    pub fn set_tracing(&mut self, on: bool) {
        self.comm.set_tracing(on);
    }

    /// Drains the recorded trace in emission order (empty when tracing
    /// was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.comm.take_trace()
    }

    /// Assigns `count` pages starting at `start` to `node` as their
    /// home. Unassigned pages default to `page_index % nodes`.
    pub fn assign_homes(&mut self, start: PageId, count: usize, node: NodeId) {
        assert!(node.index() < self.p.topo.nodes, "home node out of range");
        // Highest page first: the column grows once, not page by page.
        for i in (0..count).rev() {
            self.home_override.insert(start.offset_by(i), node);
        }
        self.shared_extent = self.shared_extent.max(start.index() + count);
    }

    /// The home node of `page`.
    pub fn home_of(&self, page: PageId) -> NodeId {
        self.home_override
            .get(page)
            .copied()
            .unwrap_or_else(|| NodeId::new(page.index() % self.p.topo.nodes))
    }

    /// Runs the cluster until every process finishes, then reports.
    ///
    /// # Panics
    ///
    /// Panics on any error [`SvmSystem::try_run`] returns (use it to
    /// handle those gracefully), and where `try_run` panics.
    pub fn run(&mut self) -> RunReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("protocol run aborted: {e}"),
        }
    }

    /// Runs the cluster until every process finishes or the run
    /// cannot go on.
    ///
    /// A node that exhausts its retransmission attempts to a peer
    /// surfaces [`ProtoError::PeerUnreachable`] here instead of
    /// wedging the event loop, and a queue that drains while a process
    /// is still blocked surfaces [`ProtoError::Deadlock`]: the run
    /// stops cleanly and its partial state remains inspectable.
    ///
    /// # Panics
    ///
    /// Panics if the event budget (`max_events`) is exceeded, which
    /// indicates a protocol livelock, or if a [`Op::Validate`](crate::ops::Op::Validate) check
    /// fails.
    pub fn try_run(&mut self) -> Result<RunReport, ProtoError> {
        self.run_events(|sys, _| Ok(sys.q.pop()))
    }

    /// The first step of a run: size every page column for the shared
    /// extent known so far — `assign_homes` has named it, or it is
    /// still zero and the columns grow as pages are touched — tell the
    /// trace where the locks start, and make every process runnable.
    /// Sized here and not at construction, so the slots are first
    /// written where the run is about to use them and a system that is
    /// built but never run costs nothing.
    fn start(&mut self) {
        let extent = self.shared_extent;
        for proc in &mut self.procs {
            proc.pt.size_to(extent);
            proc.required.size_to(extent);
        }
        for node in &mut self.nodes {
            node.copies.size_to(extent);
            node.local_flushed.size_to(extent);
        }
        self.home_pages
            .size_to(extent, !self.p.features.remote_fetch());
        self.scratch_noticed.size_to(extent);
        self.trace_initial_locks();
        for p in 0..self.procs.len() {
            self.q.push(Time::ZERO, SysEvent::Resume(p));
        }
    }

    /// Delivers one event: dispatches it under the event budget and
    /// surfaces a failure the communication layer reported.
    fn step(&mut self, t: Time, ev: SysEvent) -> Result<(), ProtoError> {
        assert!(
            self.q.delivered() <= self.p.max_events,
            "event budget exceeded: protocol livelock?"
        );
        self.dispatch(t, ev);
        self.fatal.take().map_or(Ok(()), Err)
    }

    /// The processes that have not finished, with their states.
    fn unfinished(&self) -> Vec<(usize, String)> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| !matches!(p.state, ProcState::Done))
            .map(|(i, p)| (i, format!("{:?}", p.state)))
            .collect()
    }

    /// Runs the cluster under a controlled scheduler: at every step the
    /// picker chooses which pending channel head fires next (see
    /// [`crate::sched`]). With [`crate::sched::FifoPicker`] this is
    /// equivalent to [`SvmSystem::try_run`], errors included: a
    /// schedule that wedges the protocol is a [`ProtoError::Deadlock`],
    /// and a picker that stops the run early is [`ProtoError::Halted`].
    ///
    /// # Panics
    ///
    /// Panics where `try_run` panics, or if the picker returns an
    /// out-of-range index.
    pub fn try_run_with_picker(
        &mut self,
        picker: &mut dyn EventPicker,
    ) -> Result<RunReport, ProtoError> {
        self.run_events(|sys, step| {
            let choices = sys.sched_choices();
            if choices.is_empty() {
                return Ok(None);
            }
            let i = picker
                .pick(step, sys.q.next_seq(), &choices)
                .ok_or(ProtoError::Halted)?;
            assert!(i < choices.len(), "picker index {i} out of range");
            let picked = sys.q.remove_clamped(choices[i].seq);
            Ok(Some(picked.expect("picked choice must be pending")))
        })
    }

    /// The one event loop of a run: start, then deliver what `next`
    /// takes off the queue at each step (counted from zero) until it
    /// takes nothing, then finish. A process still blocked then is a
    /// deadlock.
    fn run_events(
        &mut self,
        mut next: impl FnMut(&mut Self, u64) -> Result<Option<(Time, SysEvent)>, ProtoError>,
    ) -> Result<RunReport, ProtoError> {
        self.start();
        let mut step = 0;
        while let Some((t, ev)) = next(self, step)? {
            self.step(t, ev)?;
            step += 1;
        }
        let blocked = self.unfinished();
        if !blocked.is_empty() {
            return Err(ProtoError::Deadlock { blocked });
        }
        Ok(self.build_report())
    }

    /// Installs a deliberately seeded protocol bug; see
    /// [`Mutation`](crate::sched::Mutation). Checker validation only.
    pub fn set_mutation(&mut self, m: Mutation) {
        self.mutation = Some(m);
    }

    /// Drains the values recorded by [`Op::Observe`](crate::ops::Op::Observe), one vector per
    /// process in program order.
    pub fn take_observations(&mut self) -> Vec<Vec<u64>> {
        std::mem::take(&mut self.observations)
    }

    fn dispatch(&mut self, t: Time, ev: SysEvent) {
        match ev {
            SysEvent::Resume(p) => self.run_proc(t, p),
            SysEvent::Comm(e) => {
                let step = self.comm.handle(t, e);
                self.absorb_step(step);
            }
            SysEvent::Up(u) => self.upcall(t, u),
            SysEvent::Job(_, pending, op) => self.serve(t, pending, op),
            SysEvent::RetryFetch(p, page) => self.issue_rf(t, p, page),
            SysEvent::RetrySpin(p, lock) => self.atomic_lock_try(t, p, lock),
        }
    }

    pub(crate) fn absorb_post(&mut self, post: Post) -> Time {
        self.absorb_step(Step {
            events: post.events,
            upcalls: post.upcalls,
        });
        post.host_free
    }

    /// Posts a `bytes`-sized host transfer of `kind` from `src` to `dst`
    /// at `t` and absorbs it; returns when the posting host is free.
    pub(crate) fn send(
        &mut self,
        t: Time,
        src: NicId,
        dst: NicId,
        bytes: u32,
        kind: MsgKind,
        tag: Tag,
    ) -> Time {
        let desc = SendDesc {
            dst,
            bytes,
            kind,
            tag,
        };
        let post = self.comm.post_send(t, src, desc);
        self.absorb_post(post)
    }

    /// Queues a step's communication events, one entry each, then its
    /// upcalls, and hands the emptied lists back to `comm`. Everything
    /// a `Post`/`Step` emits has left `transport::inject` through
    /// serial LANai and link bookings, so no two events share an
    /// instant.
    pub(crate) fn absorb_step(&mut self, mut step: Step) {
        for (t, e) in step.events.drain(..) {
            self.q.push(t, SysEvent::Comm(e));
        }
        for (t, u) in step.upcalls.drain(..) {
            self.q.push(t, SysEvent::Up(u));
        }
        self.comm.recycle(step.events, step.upcalls);
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
        if self.p.first_touch_homes && self.home_override.get(page).is_none() {
            self.home_override.insert(page, NodeId::new(node));
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
                if self.p.features.remote_fetch() {
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
            monitor: self.comm.monitor().clone(),
            recovery: self.comm.recovery_stats(),
            pinned_shared_bytes: pinned,
            hw: self.p.hw.name,
            ni: self.comm.ni_stats(),
            op_latency: self.op_hist.clone(),
            serve: self.serve_hist.clone(),
            events: self.q.delivered(),
        }
    }
}

#[cfg(test)]
mod tests;
