//! The communication system: all NICs plus the network fabric.
//!
//! [`Comm`] owns the per-NIC state and dispatches; every mechanism is
//! written once, behind its own seam:
//!
//! * [`transport`] — the wire. The only code that builds, sequences,
//!   retransmits and deduplicates packets and that books the LANai and
//!   Net monitor stages.
//! * [`lock`] — maps the pure chain machine ([`crate::lock::ChainLock`])
//!   onto packets, upcalls, ownership trace events and spans.
//! * [`atomic`] — the same for the per-NIC atomic unit
//!   ([`crate::atomic::AtomicUnit`]): local and remote, swap and CAS
//!   requests take one path.
//! * [`coll`] — the same for the collective machine
//!   (`genima_coll::CollState`).
//!
//! This file is the host data path (remote deposit, remote fetch) and
//! the receive dispatcher. A host transfer of any size is split into
//! packets of at most `NetConfig::max_packet` bytes and completes once,
//! when its last fragment lands (the paper's VMMC, §3.1). The machines
//! hand their actions back by value or into a reused buffer, and every
//! `Post` and `Step` draws its lists from a free list the caller refills
//! through [`Comm::recycle`]: once warm, no path through here allocates.

mod atomic;
mod coll;
mod lock;
mod transport;

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use genima_coll::{Action, CollId, CollState};
use genima_net::{NetConfig, NicId};
use genima_obs::{ObsHandle, Recorder, SpanKind, Track};
use genima_sim::{Dur, FixedState, Time};

use crate::atomic::{AtomicOp, AtomicUnit};
use crate::config::{LanaiConfig, NicConfig};
use crate::lock::{ChainLock, LockId};
use crate::model::{FetchServe, LanaiModel, NiModel, NiStats};
use crate::monitor::{Monitor, SizeClass, Stage};
use crate::msg::{Event, MsgKind, Packet, SendDesc, Tag, Upcall};
use crate::trace::TraceEvent;

pub use transport::RecoveryStats;
use transport::Transport;

/// Result of a host-side communication call: when the calling host
/// processor is free to continue, plus any simulation events to
/// schedule.
///
/// The event and upcall lists come from [`Comm`]'s free list: a caller
/// that hands them back through [`Comm::recycle`] once it has
/// scheduled them keeps the hot path free of allocation, however many
/// events a post carries.
#[derive(Debug)]
pub struct Post {
    /// The instant the posting host processor regains control.
    pub host_free: Time,
    /// Internal events to schedule (feed back via [`Comm::handle`]).
    pub events: Vec<(Time, Event)>,
    /// Upcalls that became known immediately (e.g. a locally granted
    /// lock); delivered to the protocol layer at the given time.
    pub upcalls: Vec<(Time, Upcall)>,
}

impl Post {
    /// A host call that frees the processor at `host_free` and whose
    /// firmware work produced `step`.
    fn after(host_free: Time, step: Step) -> Post {
        Post {
            host_free,
            events: step.events,
            upcalls: step.upcalls,
        }
    }
}

/// Result of processing one internal event. Its lists come from, and
/// go back to, the same free list as a [`Post`]'s.
#[derive(Debug, Default)]
pub struct Step {
    /// Follow-up internal events to schedule.
    pub events: Vec<(Time, Event)>,
    /// Completion notifications for the protocol layer.
    pub upcalls: Vec<(Time, Upcall)>,
}

/// On-wire size (bytes) of a remote-fetch request.
const FETCH_REQ_BYTES: u32 = 16;

/// Emptied steps `Comm::with_model` reserves, each with room for this
/// many upcalls and twice as many events: a run's first calls take
/// their lists from set-up, not from the run.
const SPARE: usize = 4;

/// The cluster-wide communication system: one NI per node plus the
/// switch fabric, the firmware lock tables, and the performance
/// monitor.
///
/// The system is a passive state machine driven by the simulation
/// core: host-side calls ([`Comm::post_send`], [`Comm::fetch`],
/// [`Comm::lock_acquire`], [`Comm::lock_release`]) return events to
/// schedule, and [`Comm::handle`] processes them when they fire,
/// producing follow-up events and protocol [`Upcall`]s.
///
/// # Example
///
/// ```
/// use genima_net::{NetConfig, NicId};
/// use genima_nic::{Comm, MsgKind, NicConfig, SendDesc, Tag};
/// use genima_sim::Time;
///
/// let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
/// let post = comm.post_send(
///     Time::ZERO,
///     NicId::new(0),
///     SendDesc { dst: NicId::new(1), bytes: 64, kind: MsgKind::Deposit, tag: Tag::new(1) },
/// );
/// assert_eq!(post.host_free.as_us(), 2.0); // asynchronous: 2us post overhead
/// assert_eq!(post.events.len(), 1);        // a future delivery event
/// ```
#[derive(Debug)]
pub struct Comm {
    cfg: NicConfig,
    /// Number of nodes/NICs in the cluster.
    ports: usize,
    /// The NI hardware timing model (engine occupancies, queue
    /// disciplines, DMA and notification costs). The protocol state
    /// machines below are hardware-independent.
    model: Box<dyn NiModel>,
    monitor: Monitor,
    /// Observability recorder for firmware-side spans (`None` =
    /// disabled, the default: a single branch per emission site).
    obs: Option<ObsHandle>,
    /// The fabric plus sequencing, retry and dedupe state.
    tx: Transport,
    /// Firmware lock chains, one per lock.
    locks: Vec<ChainLock>,
    /// The run's one event trace: protocol events the host layer
    /// records through [`Comm::record`] and the firmware's
    /// lock-ownership transitions, in emission order (`None` =
    /// disabled, the default: zero overhead).
    trace: Option<Vec<TraceEvent>>,
    /// Firmware atomic units, one per NIC.
    atomics: Vec<AtomicUnit>,
    /// Firmware collective instances (tree barrier / all-reduce
    /// combine tables), created lazily on first entry.
    colls: BTreeMap<CollId, CollState>,
    /// Tree fanout for collective instances created from now on.
    coll_fanout: u32,
    /// Reusable buffer for collective state-machine actions (the
    /// firmware emits at most a handful per serviced packet; reusing
    /// one buffer keeps the service loop allocation-free).
    coll_scratch: Vec<Action>,
    /// Fragments still to land, per tagged transfer of more than one
    /// packet.
    pending: HashMap<Tag, u32, FixedState>,
    /// Emptied steps whose lists the next `Post` or `Step` reuses
    /// ([`Comm::recycle`] refills it).
    spare: Vec<Step>,
}

/// Receive-side context of the packet being served, resolved once in
/// [`Comm::receive`] for every mechanism's emissions.
#[derive(Clone, Copy)]
struct Rx {
    /// First arrival at the destination NI (after any injected stall),
    /// however long a parked channel then held the packet; the Dest
    /// monitor stage starts here.
    arrived: Time,
    /// The NI accepted the packet; service starts here.
    recv_done: Time,
    class: SizeClass,
    /// The protocol operation the packet belongs to (0 = none).
    op: u64,
}

impl Comm {
    /// Creates a communication system for `ports` nodes and `nlocks`
    /// NI locks (homes assigned round-robin) on the paper's LANai
    /// boards ([`LanaiConfig::paper`]).
    pub fn new(cfg: NicConfig, net_cfg: NetConfig, ports: usize, nlocks: usize) -> Comm {
        let model = Box::new(LanaiModel::new(LanaiConfig::paper(), ports));
        Comm::with_model(model, cfg, net_cfg, ports, nlocks)
    }

    /// Creates a communication system running the protocol against an
    /// explicit NI hardware model. `cfg` carries the
    /// hardware-independent knobs the protocol still consults
    /// (capability flags, size threshold, retry policy); all timing
    /// lives in `model`.
    pub fn with_model(
        model: Box<dyn NiModel>,
        cfg: NicConfig,
        net_cfg: NetConfig,
        ports: usize,
        nlocks: usize,
    ) -> Comm {
        Comm {
            cfg,
            ports,
            model,
            monitor: Monitor::new(),
            obs: None,
            tx: Transport::new(net_cfg, ports),
            locks: (0..nlocks)
                .map(|i| ChainLock::new(LockId::new(i), NicId::new(i % ports), ports))
                .collect(),
            trace: None,
            atomics: (0..ports).map(|_| AtomicUnit::default()).collect(),
            colls: BTreeMap::new(),
            coll_fanout: 4,
            coll_scratch: Vec::new(),
            pending: HashMap::default(),
            spare: (0..SPARE)
                .map(|_| Step {
                    events: Vec::with_capacity(2 * SPARE),
                    upcalls: Vec::with_capacity(SPARE),
                })
                .collect(),
        }
    }

    /// Hands back the lists of a [`Post`] or [`Step`] whose events and
    /// upcalls the caller has scheduled: the next one reuses them.
    pub fn recycle(&mut self, mut events: Vec<(Time, Event)>, mut upcalls: Vec<(Time, Upcall)>) {
        events.clear();
        upcalls.clear();
        self.spare.push(Step { events, upcalls });
    }

    /// An empty step, its lists from the free list when it has one.
    fn take_step(&mut self) -> Step {
        self.spare.pop().unwrap_or_default()
    }

    /// Hardware-mechanism counters of the underlying NI model
    /// (doorbells, completion-queue entries, paging faults; all zero
    /// on hardware without those mechanisms).
    pub fn ni_stats(&self) -> NiStats {
        self.model.stats()
    }

    /// Installs an observability recorder: firmware service spans,
    /// retransmissions, fault-injection instants and lock-grant flows
    /// are recorded from now on. Without a recorder every emission site
    /// is a single `Option` branch.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    fn obs_record(&mut self, f: impl FnOnce(&mut Recorder)) {
        if let Some(h) = self.obs.as_ref() {
            f(&mut h.borrow_mut());
        }
    }

    /// The protocol operation bound to `tag` in the shared recorder
    /// (zero when unbound or observability is off). Tags are globally
    /// unique, so the binding made at the posting node resolves at any
    /// NIC the packet visits.
    fn obs_op(&self, tag: Tag) -> u64 {
        match self.obs.as_ref() {
            Some(h) => h.borrow().op_for(tag.value()),
            None => 0,
        }
    }

    /// Turns event tracing on or off. Turning it on clears any
    /// previously recorded events. Tracing is observational only — it
    /// never changes simulated timing or protocol behaviour.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// `true` while tracing is on, so an emitter can skip building an
    /// event nobody records.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Appends `ev` to the trace when tracing is on.
    pub fn record(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    /// Drains the recorded trace (empty when tracing was never
    /// enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// The firmware performance monitor, aggregated over all NICs.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Clears the performance monitor and the NI model's counters
    /// (used when measurement starts after a warmup phase, per the
    /// paper's methodology).
    pub fn reset_monitor(&mut self) {
        self.monitor = Monitor::new();
        self.model.reset_stats();
    }

    /// The host of `nic` advises its NI to map `pages` ahead of any
    /// remote fetch ([`NiModel::advise`]). Returns the host time it
    /// costs.
    pub fn advise(&mut self, nic: NicId, pages: Range<u64>) -> Dur {
        self.model.advise(nic, pages)
    }

    fn size_class(&self, bytes: u32) -> SizeClass {
        if bytes <= self.cfg.small_threshold {
            SizeClass::Small
        } else {
            SizeClass::Large
        }
    }

    /// Posts one asynchronous send descriptor of any size from `src`.
    ///
    /// The host posts it as packet-sized fragments, back to back; a
    /// tagged transfer of several fragments surfaces one upcall, when
    /// its last fragment has been deposited.
    ///
    /// # Example
    ///
    /// ```
    /// use genima_net::{NetConfig, NicId};
    /// use genima_nic::{Comm, MsgKind, NicConfig, SendDesc, Tag};
    /// use genima_sim::Time;
    ///
    /// let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
    /// let (dst, kind, tag) = (NicId::new(1), MsgKind::Deposit, Tag::new(1));
    /// let desc = SendDesc { dst, bytes: 8192, kind, tag };
    /// // 8 KB travels as two 4 KB packets but completes once.
    /// let post = comm.post_send(Time::ZERO, NicId::new(0), desc);
    /// assert_eq!(post.events.len(), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `desc.dst == src` (intra-node traffic never reaches
    /// the NI).
    pub fn post_send(&mut self, now: Time, src: NicId, desc: SendDesc) -> Post {
        self.post_fragments(now, desc.bytes, desc.tag, |comm, now, bytes| {
            comm.post_packet(now, src, SendDesc { bytes, ..desc })
        })
    }

    /// Posts a `bytes`-sized transfer as packet-sized fragments — full
    /// packets first, then the remainder (a zero-byte transfer is one
    /// empty packet) — each posted by `post_one(comm, now, fragment)`
    /// once the previous one has freed the host. A tagged transfer of
    /// more than one fragment is counted in `pending` until
    /// `deposit_arrived` has seen every fragment land.
    fn post_fragments(
        &mut self,
        now: Time,
        bytes: u32,
        tag: Tag,
        post_one: impl Fn(&mut Comm, Time, u32) -> Post,
    ) -> Post {
        let net = *self.network().config();
        let frags = net.packets_for(bytes);
        if frags > 1 && tag != Tag::NONE {
            self.pending.insert(tag, frags);
        }
        let mut out = Post::after(now, self.take_step());
        let mut remaining = bytes;
        for _ in 0..frags {
            let b = remaining.min(net.max_packet);
            remaining -= b;
            let mut p = post_one(self, out.host_free, b);
            out.host_free = p.host_free;
            out.events.append(&mut p.events);
            out.upcalls.append(&mut p.upcalls);
            self.recycle(p.events, p.upcalls);
        }
        out
    }

    /// Posts one packet-sized send descriptor from `src`.
    ///
    /// Models the full outgoing pipeline synchronously (post queue →
    /// LANai pick → source DMA → injection → fabric) and returns the
    /// delivery event. The posting processor is released after the
    /// post overhead unless the post queue is full, in which case it
    /// stalls until a slot frees.
    fn post_packet(&mut self, now: Time, src: NicId, desc: SendDesc) -> Post {
        assert_ne!(src, desc.dst, "intra-node messages do not use the NI");
        let hp = self.model.host_post(now, src);
        let posted_at = hp.posted_at;
        let mut post = Post::after(posted_at, self.take_step());
        if hp.doorbell {
            let op = self.obs_op(desc.tag);
            self.obs_record(|o| {
                o.instant_op(
                    SpanKind::QpDoorbell,
                    src.index(),
                    Track::Host,
                    posted_at,
                    desc.dst.index() as u64,
                    op,
                );
            });
        }
        // A scatter-gather send spends extra source-side time
        // collecting each run from host memory.
        let gather_runs = match desc.kind {
            MsgKind::GatherDeposit { runs } => {
                assert!(
                    self.cfg.scatter_gather,
                    "scatter-gather send without NicConfig::scatter_gather"
                );
                Some(runs)
            }
            MsgKind::Deposit
            | MsgKind::HostMsg
            | MsgKind::FetchReq { .. }
            | MsgKind::FetchReply
            | MsgKind::LockMsg(_)
            | MsgKind::CollMsg(_)
            | MsgKind::FetchAndStore { .. }
            | MsgKind::MaskedCas(_)
            | MsgKind::AtomicReply { .. } => None,
        };
        let times = self
            .model
            .send_path(posted_at, src, desc.bytes, gather_runs);
        self.monitor.record(
            Stage::Source,
            self.size_class(desc.bytes),
            times.dma_done - posted_at,
            times.source_expected,
        );
        self.launch(
            src,
            desc,
            times.dma_done,
            times.inject_ready,
            &mut post.events,
        );
        post
    }

    /// Posts one descriptor that the NI firmware replicates to several
    /// destinations (the §5 broadcast extension): one post-queue slot,
    /// one source DMA, one injection per destination.
    ///
    /// # Panics
    ///
    /// Panics unless `NicConfig::broadcast` is enabled, or if any
    /// destination equals `src`, or `dsts` is empty.
    pub fn post_broadcast(
        &mut self,
        now: Time,
        src: NicId,
        dsts: &[(NicId, Tag)],
        bytes: u32,
        kind: MsgKind,
    ) -> Post {
        assert!(self.cfg.broadcast, "broadcast without NicConfig::broadcast");
        assert!(!dsts.is_empty(), "broadcast needs at least one destination");
        let posted_at = self.model.host_post(now, src).posted_at;
        let mut post = Post::after(posted_at, self.take_step());

        let (dma_done, source_expected) = self.model.bcast_source(posted_at, src, bytes);
        self.monitor.record(
            Stage::Source,
            self.size_class(bytes),
            dma_done - posted_at,
            source_expected,
        );
        let mut cursor = dma_done;
        for &(dst, tag) in dsts {
            assert_ne!(dst, src, "broadcast to self");
            cursor = self.model.bcast_inject(cursor, src);
            let desc = SendDesc {
                dst,
                bytes,
                kind,
                tag,
            };
            self.launch(src, desc, dma_done, cursor, &mut post.events);
        }
        post
    }

    /// Issues a remote fetch: `bytes` of exported memory at `from`
    /// are DMA'd out of the remote host by its NI firmware and
    /// deposited into `nic`'s host memory, one request per packet-sized
    /// fragment. Completion surfaces once, as [`Upcall::FetchCompleted`]
    /// with `tag`, when the last fragment has arrived. `key` names the
    /// fetched region for the remote NI's translation machinery (a page
    /// index, or [`crate::ALWAYS_MAPPED`] for NI-resident metadata);
    /// on-demand-paging hardware faults on a key's first use, and every
    /// fragment shares the key.
    ///
    /// # Panics
    ///
    /// Panics if `from == nic`.
    pub fn fetch(
        &mut self,
        now: Time,
        nic: NicId,
        from: NicId,
        bytes: u32,
        key: u64,
        tag: Tag,
    ) -> Post {
        assert_ne!(nic, from, "local memory is read directly, not fetched");
        self.post_fragments(now, bytes, tag, |comm, now, reply_bytes| {
            let kind = MsgKind::FetchReq { reply_bytes, key };
            let desc = SendDesc {
                dst: from,
                bytes: FETCH_REQ_BYTES,
                kind,
                tag,
            };
            comm.post_packet(now, nic, desc)
        })
    }

    /// Processes one internal event at its scheduled time.
    pub fn handle(&mut self, now: Time, ev: Event) -> Step {
        match ev {
            Event::Delivered(pkt) => self.deliver(now, pkt),
            Event::RetryTimer { packet, attempt } => self.retransmit(now, packet, attempt),
            Event::Unparked {
                packet,
                arrived,
                queued_ns,
                faulted,
            } => {
                let mut step = self.take_step();
                let op = self.obs_op(packet.tag);
                if faulted {
                    let rx = Rx {
                        arrived,
                        recv_done: arrived + Dur::from_ns(queued_ns.into()),
                        class: self.size_class(packet.bytes),
                        op,
                    };
                    self.fetch_resumed(now, rx, packet, &mut step);
                } else {
                    self.receive(now, arrived, packet, op, &mut step);
                }
                step
            }
        }
    }

    /// Destination-side processing of an arrived packet: admission and
    /// wire accounting, once per packet, then [`Comm::receive`].
    fn deliver(&mut self, now: Time, pkt: Packet) -> Step {
        let mut step = self.take_step();
        let Some(now) = self.admit(now, &pkt) else {
            return step;
        };
        let op = self.obs_op(pkt.tag);
        if pkt.src != pkt.dst && op != 0 {
            // Wire occupancy, charged at the receiver: from the moment
            // the source DMA finished to the packet leaving the fabric.
            self.obs_record(|o| {
                o.span_op(
                    SpanKind::WireTransit,
                    pkt.dst.index(),
                    Track::Firmware,
                    Time::from_ns(pkt.source_done_ns),
                    now,
                    pkt.src.index() as u64,
                    op,
                );
            });
        }
        self.receive(now, now, pkt, op, &mut step);
        step
    }

    /// Receives a packet that first arrived at `arrived`, then runs the
    /// one mechanism its kind names — unless a page mapping parks its
    /// channel: then it waits for the park's end and is received
    /// there. Packets on one channel are received in arrival order (the
    /// RC rule); every other channel is served meanwhile.
    fn receive(&mut self, now: Time, arrived: Time, pkt: Packet, op: u64, step: &mut Step) {
        if let Some(until) = self.model.parked(now, pkt.src, pkt.dst) {
            let unparked = Event::Unparked {
                packet: pkt,
                arrived,
                queued_ns: 0,
                faulted: false,
            };
            step.events.push((until, unparked));
            return;
        }
        let recv_done = if pkt.src == pkt.dst {
            now // firmware-local hop: skip wire-side costs
        } else {
            self.model.recv_accept(now, pkt.dst)
        };
        let rx = Rx {
            arrived,
            recv_done,
            class: self.size_class(pkt.bytes),
            op,
        };
        match pkt.kind {
            MsgKind::Deposit
            | MsgKind::GatherDeposit { .. }
            | MsgKind::HostMsg
            | MsgKind::FetchReply => self.deposit_arrived(rx, pkt, step),
            MsgKind::FetchReq { reply_bytes, key } => {
                self.serve_fetch(rx, pkt, reply_bytes, key, step)
            }
            MsgKind::FetchAndStore { cell, new } => {
                self.serve_atomic(rx, pkt, AtomicOp::Swap { cell, new }, step)
            }
            MsgKind::MaskedCas(cas) => self.serve_atomic(rx, pkt, AtomicOp::Cas(cas), step),
            MsgKind::AtomicReply { old } => self.atomic_completed(rx, pkt, old, step),
            MsgKind::CollMsg(op) => self.serve_coll(rx, pkt, op, step),
            MsgKind::LockMsg(op) => self.serve_lock(rx, pkt, op, step),
        }
    }

    /// Books the Dest monitor stage of the packet being served: from
    /// arrival to `done`, against the uncontended receive plus
    /// `expected` service cost.
    fn book_dest(&mut self, rx: Rx, done: Time, expected: Dur) {
        self.monitor.record(
            Stage::Dest,
            rx.class,
            done - rx.arrived,
            self.model.recv_cost() + expected,
        );
    }

    /// Remote deposit: the payload is DMA'd into host memory and, once
    /// the transfer's last fragment is home, the completion surfaces
    /// under the name its kind gives it.
    fn deposit_arrived(&mut self, rx: Rx, pkt: Packet, step: &mut Step) {
        let (nic, tag, src) = (pkt.dst, pkt.tag, pkt.src);
        let (runs, upcall) = match pkt.kind {
            // Scatter on the receive side: firmware unpacks each run
            // before (or while) DMA-ing the payload home.
            MsgKind::GatherDeposit { runs } => {
                (Some(runs), Upcall::DepositArrived { nic, tag, src })
            }
            MsgKind::Deposit => (None, Upcall::DepositArrived { nic, tag, src }),
            MsgKind::HostMsg => (None, Upcall::HostMsgArrived { nic, tag, src }),
            MsgKind::FetchReply => (None, Upcall::FetchCompleted { nic, tag }),
            other => unreachable!("host-DMA arm cannot deliver {other:?}"),
        };
        let rd = self.model.deposit_dma(rx.recv_done, nic, pkt.bytes, runs);
        self.book_dest(rx, rd.dma_done, rd.expected);
        if rd.cqe {
            // The model wrote a completion-queue entry for the arrival
            // (solicited-event path).
            self.obs_record(|o| {
                o.instant_op(
                    SpanKind::CqNotify,
                    nic.index(),
                    Track::Firmware,
                    rd.dma_done,
                    src.index() as u64,
                    rx.op,
                );
            });
        }
        if let Some(left) = self.pending.get_mut(&tag) {
            *left -= 1;
            if *left > 0 {
                return; // the transfer completes with its last fragment
            }
            self.pending.remove(&tag);
        }
        step.upcalls.push((rd.dma_done, upcall));
    }

    /// Remote fetch: look up the export / translation table, DMA the
    /// data out of host memory — host→NI, the send direction of the
    /// I/O bus — and send it back. On demand-paged hardware a page not
    /// yet mapped (this fetch faults it in, or an earlier one is doing
    /// so) parks the fetch's channel; the fetch resumes at its reply
    /// DMA once the mapping lands, booking nothing ahead.
    fn serve_fetch(&mut self, rx: Rx, pkt: Packet, reply_bytes: u32, key: u64, step: &mut Step) {
        let fs = self
            .model
            .serve_fetch(rx.recv_done, pkt.src, pkt.dst, reply_bytes, key);
        if fs.odp_fault {
            self.obs_record(|o| {
                o.instant_op(
                    SpanKind::OdpFault,
                    pkt.dst.index(),
                    Track::Firmware,
                    rx.recv_done,
                    key,
                    rx.op,
                );
            });
        }
        if fs.parked {
            let queued = rx.recv_done.saturating_since(rx.arrived).as_ns();
            let unparked = Event::Unparked {
                packet: pkt,
                arrived: rx.arrived,
                queued_ns: u32::try_from(queued).unwrap_or(u32::MAX),
                faulted: true,
            };
            step.events.push((fs.data_ready, unparked));
            return;
        }
        self.fetch_reply(rx, pkt, reply_bytes, fs, step);
    }

    /// A fetch parked on its page's mapping resumes at `now`, when the
    /// mapping lands: straight to its reply DMA, with no second receive
    /// or lookup.
    fn fetch_resumed(&mut self, now: Time, rx: Rx, pkt: Packet, step: &mut Step) {
        let MsgKind::FetchReq { reply_bytes, .. } = pkt.kind else {
            unreachable!("only a fetch parks on a page mapping, not {:?}", pkt.kind);
        };
        let fs = self.model.fetch_dma(now, pkt.dst, reply_bytes);
        self.fetch_reply(rx, pkt, reply_bytes, fs, step);
    }

    /// Books and sends a served fetch's reply, staged at
    /// `fs.data_ready`. Its `FetchService` span runs from the service's
    /// first start, so a page fault inside it stays firmware time.
    fn fetch_reply(
        &mut self,
        rx: Rx,
        pkt: Packet,
        reply_bytes: u32,
        fs: FetchServe,
        step: &mut Step,
    ) {
        self.book_dest(rx, fs.data_ready, fs.expected);
        self.obs_record(|o| {
            o.span_op(
                SpanKind::FetchService,
                pkt.dst.index(),
                Track::Firmware,
                rx.recv_done,
                fs.data_ready,
                pkt.src.index() as u64,
                rx.op,
            );
        });
        self.emit(
            fs.data_ready,
            pkt.dst,
            pkt.src,
            reply_bytes,
            MsgKind::FetchReply,
            pkt.tag,
            step,
        );
    }
}

#[cfg(test)]
mod tests;
