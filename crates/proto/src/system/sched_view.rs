//! The model checker's view of the pending event set: which delivery
//! channel each event belongs to, a stable label for it, and the
//! protocol objects it may touch (its footprint). Read-only over the
//! system; nothing here runs on a free-running simulation.

use genima_mem::PageId;
use genima_nic::{CollOp, Event as CommEvent, LockId, LockOp, MsgKind, Packet, Tag, Upcall};

use super::interval::DiffRoute;
use super::notices::NoticeRoute;
use super::{Pending, SvmSystem, SysEvent};
use crate::ids::ProcId;
use crate::ops::Op;
use crate::sched::{ChanKey, Choice, SchedObj};

impl SvmSystem {
    /// The current schedulable choice set: the earliest `(time, seq)`
    /// pending event of every delivery channel, sorted by
    /// `(time, seq)`. Empty exactly when the event queue is drained.
    pub fn sched_choices(&self) -> Vec<Choice> {
        // Each channel's earliest `(time, seq)`, with its channel and event.
        let mut heads = Vec::new();
        for (time, seq, ev) in self.q.iter_pending() {
            let key = self.chan_of(ev);
            match heads.iter_mut().find(|(_, _, k, _)| *k == key) {
                Some((t, s, ..)) if (*t, *s) <= (time, seq) => {}
                Some(head) => *head = (time, seq, key, ev),
                None => heads.push((time, seq, key, ev)),
            }
        }
        heads.sort_by_key(|&(time, seq, ..)| (time, seq));
        // Label and footprint only the heads.
        heads
            .into_iter()
            .map(|(time, seq, key, ev)| {
                let (label, footprint) = self.describe(ev);
                Choice {
                    key,
                    time,
                    seq,
                    label,
                    footprint,
                }
            })
            .collect()
    }

    /// The delivery channel of a pending event.
    fn chan_of(&self, ev: &SysEvent) -> ChanKey {
        match ev {
            SysEvent::Comm(CommEvent::Delivered(p)) => ChanKey::Wire {
                src: p.src.index(),
                dst: p.dst.index(),
            },
            SysEvent::Comm(
                CommEvent::RetryTimer { packet, .. } | CommEvent::Unparked { packet, .. },
            ) => ChanKey::Wire {
                src: packet.src.index(),
                dst: packet.dst.index(),
            },
            SysEvent::Up(u) => match u {
                Upcall::DepositArrived { nic, src, .. }
                | Upcall::HostMsgArrived { nic, src, .. } => ChanKey::Mem {
                    nic: nic.index(),
                    src: src.index(),
                },
                Upcall::FetchCompleted { nic, .. } => ChanKey::Fetch { nic: nic.index() },
                Upcall::LockGranted { nic, .. } | Upcall::LockDeparted { nic, .. } => {
                    ChanKey::Lock { nic: nic.index() }
                }
                Upcall::CollCompleted { nic, .. } => ChanKey::Coll { nic: nic.index() },
                Upcall::AtomicCompleted { nic, .. } => ChanKey::Atomic { nic: nic.index() },
                Upcall::PeerUnreachable { nic, .. } => ChanKey::Lock { nic: nic.index() },
            },
            SysEvent::Resume(p) | SysEvent::RetryFetch(p, _) | SysEvent::RetrySpin(p, _) => {
                ChanKey::Proc { proc: *p }
            }
            SysEvent::Job(node, ..) => ChanKey::Handler { node: *node },
        }
    }

    fn node_of(&self, p: usize) -> usize {
        self.p.topo.node_of(ProcId::new(p)).index()
    }

    /// The process and the node whose shared state it runs against.
    fn proc_fp(&self, p: usize) -> [SchedObj; 2] {
        let node = self.node_of(p);
        [SchedObj::Proc { proc: p, node }, SchedObj::Node { node }]
    }

    fn page_obj(&self, page: PageId) -> SchedObj {
        SchedObj::Page {
            page: page.index(),
            home: self.home_of(page).index(),
        }
    }

    /// The page's home-side state plus its home node.
    fn home_fp(&self, page: PageId) -> Vec<SchedObj> {
        let node = self.home_of(page).index();
        vec![self.page_obj(page), SchedObj::Node { node }]
    }

    /// Label and footprint of a pending event (heads only — this is
    /// the expensive half of classification).
    fn describe(&self, ev: &SysEvent) -> (String, Vec<SchedObj>) {
        match ev {
            SysEvent::Comm(CommEvent::Delivered(p)) => (
                format!("pkt {}>{} {:?}", p.src.index(), p.dst.index(), p.kind),
                packet_fp(p),
            ),
            SysEvent::Comm(CommEvent::RetryTimer { packet, .. }) => (
                format!("retry {}>{}", packet.src.index(), packet.dst.index()),
                Vec::new(),
            ),
            SysEvent::Comm(CommEvent::Unparked { packet: p, .. }) => (
                format!("unpark {}>{} {:?}", p.src.index(), p.dst.index(), p.kind),
                packet_fp(p),
            ),
            SysEvent::Up(u) => self.describe_upcall(u),
            SysEvent::Resume(p) => (format!("resume p{p}"), self.resume_fp(*p)),
            SysEvent::RetryFetch(p, page) => {
                let mut fp = self.proc_fp(*p).to_vec();
                fp.push(self.page_obj(*page));
                (format!("refetch p{p} {page:?}"), fp)
            }
            SysEvent::RetrySpin(p, lock) => {
                let mut fp = self.proc_fp(*p).to_vec();
                fp.push(SchedObj::Lock { lock: lock.index() });
                (format!("respin p{p} l{}", lock.index()), fp)
            }
            SysEvent::Job(node, pending, _) => {
                let (what, obj) = match pending {
                    Pending::PageRequestMsg { page, .. } => ("pagereq", self.page_obj(*page)),
                    Pending::Diff { page, .. } => ("applydiff", self.page_obj(*page)),
                    Pending::LockMsg {
                        op: LockOp::Request { lock, .. } | LockOp::Transfer { lock, .. },
                        ..
                    } => ("lockjob", SchedObj::Lock { lock: lock.index() }),
                    Pending::BarrierArriveMsg { barrier, .. }
                    | Pending::BarrierReleaseMsg { barrier, .. } => (
                        "barrierjob",
                        SchedObj::Barrier {
                            barrier: barrier.index(),
                        },
                    ),
                    Pending::PageReply { .. }
                    | Pending::FetchPage { .. }
                    | Pending::Notice { .. }
                    | Pending::LockMsg {
                        op: LockOp::Grant { .. },
                        ..
                    }
                    | Pending::NiLockWait { .. }
                    | Pending::AtomicLockTry { .. } => {
                        unreachable!("{pending:?} needs no host handler")
                    }
                };
                (
                    format!("{what}@n{node}"),
                    vec![SchedObj::Node { node: *node }, obj],
                )
            }
        }
    }

    /// A resume runs the process until it blocks: the parked op, later
    /// ops, and release-time flushes of earlier writes. When the full
    /// program is known every one of those names a lock/barrier/page
    /// from it, so the footprint lists exactly those objects;
    /// otherwise fall back to conflicting with all synchronization.
    fn resume_fp(&self, p: usize) -> Vec<SchedObj> {
        let mut fp = self.proc_fp(p).to_vec();
        let Some(prog) = self.procs[p].src.program() else {
            fp.push(SchedObj::Sync);
            return fp;
        };
        let mut add = |obj: SchedObj| {
            if !fp.contains(&obj) {
                fp.push(obj);
            }
        };
        for op in prog {
            match op {
                Op::Compute(_) | Op::WaitUntil(_) | Op::ServeEnd { .. } => {}
                Op::Read { addr, .. }
                | Op::Write { addr, .. }
                | Op::WriteData { addr, .. }
                | Op::Validate { addr, .. }
                | Op::Observe { addr, .. } => add(self.page_obj(addr.page())),
                Op::Acquire(l) | Op::Release(l) => add(SchedObj::Lock { lock: l.index() }),
                Op::Barrier(b) => {
                    // NI-collective columns run the barrier as
                    // CollId(b), so cover both objects.
                    add(SchedObj::Coll { coll: b.index() });
                    add(SchedObj::Barrier { barrier: b.index() });
                }
            }
        }
        fp
    }

    /// Label and footprint of the transaction an arrival upcall
    /// completes, resolved through its tag.
    fn describe_pending(&self, tag: &Tag) -> (String, Vec<SchedObj>) {
        let Some(pending) = self.tags.get(&tag.value()) else {
            return ("orphan".to_string(), Vec::new());
        };
        match pending {
            Pending::PageRequestMsg { page, .. } => {
                (format!("pagereq {page:?}"), self.home_fp(*page))
            }
            Pending::PageReply { node, page, .. } => (
                format!("pagereply {page:?}>n{node}"),
                vec![
                    SchedObj::Copy {
                        node: *node,
                        page: page.index(),
                    },
                    SchedObj::Node { node: *node },
                ],
            ),
            Pending::FetchPage { proc, page } => {
                let [proc_obj, node_obj] = self.proc_fp(*proc);
                let copy = SchedObj::Copy {
                    node: self.node_of(*proc),
                    page: page.index(),
                };
                // Completion re-reads the home copy's applied map (and
                // data) to decide install vs retry.
                let fp = vec![copy, proc_obj, node_obj, self.page_obj(*page)];
                (format!("fetch {page:?}>p{proc}"), fp)
            }
            Pending::Notice { node, writer, upto } => {
                let label = match self.notices.route() {
                    NoticeRoute::Pull => format!("noticefetch w{writer}..{upto}>n{node}"),
                    NoticeRoute::Piggyback | NoticeRoute::Push { .. } => {
                        format!("notice w{writer}i{upto}>n{node}")
                    }
                };
                let (node, writer) = (*node, *writer);
                (label, vec![SchedObj::Arrived { node, writer }])
            }
            Pending::Diff {
                writer,
                interval,
                page,
                ..
            } => match self.diff_route {
                DiffRoute::Lazy => (
                    format!("diff w{writer}i{interval} {page:?}"),
                    self.home_fp(*page),
                ),
                DiffRoute::Eager { .. } | DiffRoute::HandsOverFirst { .. } => (
                    format!("diffts w{writer}i{interval} {page:?}"),
                    vec![self.page_obj(*page)],
                ),
            },
            Pending::LockMsg { to, tag, op, .. } => {
                let proc = tag.value() as usize;
                let hop = |lock: &LockId| {
                    vec![
                        SchedObj::Lock { lock: lock.index() },
                        SchedObj::Node { node: *to },
                    ]
                };
                match op {
                    LockOp::Request { lock, .. } => {
                        (format!("lockreq l{} p{proc}", lock.index()), hop(lock))
                    }
                    LockOp::Transfer { lock, .. } => (
                        format!("lockfwd l{} p{proc}>n{to}", lock.index()),
                        hop(lock),
                    ),
                    LockOp::Grant { lock, .. } => (
                        format!("lockgrant l{} p{proc}", lock.index()),
                        self.lock_proc_fp(lock.index(), proc),
                    ),
                }
            }
            Pending::NiLockWait { proc } => {
                (format!("nilock p{proc}"), self.proc_fp(*proc).to_vec())
            }
            Pending::AtomicLockTry { proc, lock } => (
                format!("atomtry l{} p{proc}", lock.index()),
                self.lock_proc_fp(lock.index(), *proc),
            ),
            Pending::BarrierArriveMsg { barrier, proc, .. } => (
                format!("bararrive b{} p{proc}", barrier.index()),
                vec![
                    SchedObj::Barrier {
                        barrier: barrier.index(),
                    },
                    SchedObj::Node { node: 0 },
                ],
            ),
            Pending::BarrierReleaseMsg { barrier, node, .. } => (
                format!("barrelease b{}>n{node}", barrier.index()),
                vec![
                    SchedObj::Barrier {
                        barrier: barrier.index(),
                    },
                    SchedObj::Node { node: *node },
                ],
            ),
        }
    }

    /// A lock and the process (with its node) acquiring it.
    fn lock_proc_fp(&self, lock: usize, proc: usize) -> Vec<SchedObj> {
        let [proc_obj, node_obj] = self.proc_fp(proc);
        vec![SchedObj::Lock { lock }, proc_obj, node_obj]
    }

    fn describe_upcall(&self, u: &Upcall) -> (String, Vec<SchedObj>) {
        match u {
            Upcall::DepositArrived { tag, .. }
            | Upcall::HostMsgArrived { tag, .. }
            | Upcall::FetchCompleted { tag, .. } => self.describe_pending(tag),
            Upcall::LockGranted { nic, lock, tag } => {
                let fp = match self.tags.get(&tag.value()) {
                    Some(Pending::NiLockWait { proc }) => self.lock_proc_fp(lock.index(), *proc),
                    Some(_) | None => vec![
                        SchedObj::Lock { lock: lock.index() },
                        SchedObj::Node { node: nic.index() },
                    ],
                };
                (format!("grant l{}>n{}", lock.index(), nic.index()), fp)
            }
            Upcall::LockDeparted { nic, lock } => (
                format!("depart l{}<n{}", lock.index(), nic.index()),
                vec![
                    SchedObj::Lock { lock: lock.index() },
                    SchedObj::Node { node: nic.index() },
                ],
            ),
            Upcall::CollCompleted { nic, coll, epoch } => (
                format!("coll c{}e{epoch}>n{}", coll.index(), nic.index()),
                vec![
                    SchedObj::Coll { coll: coll.index() },
                    SchedObj::Node { node: nic.index() },
                ],
            ),
            Upcall::AtomicCompleted { nic, tag, .. } => {
                let mut fp = match self.tags.get(&tag.value()) {
                    Some(Pending::AtomicLockTry { proc, lock }) => vec![
                        SchedObj::Lock { lock: lock.index() },
                        SchedObj::Proc {
                            proc: *proc,
                            node: self.node_of(*proc),
                        },
                    ],
                    Some(_) | None => Vec::new(),
                };
                fp.push(SchedObj::Node { node: nic.index() });
                (format!("atomdone n{}", nic.index()), fp)
            }
            Upcall::PeerUnreachable { nic, peer, .. } => (
                format!("unreachable n{}!{}", nic.index(), peer.index()),
                vec![SchedObj::Node { node: nic.index() }],
            ),
        }
    }
}

/// Firmware processes some packet kinds at delivery time (lock state
/// machine, collective combine, remote atomics); those deliveries
/// carry the touched object. Pure data movement (deposits, host
/// messages, replies) mutates protocol state only via its later
/// upcall, which has its own footprint.
fn packet_fp(pkt: &Packet) -> Vec<SchedObj> {
    match pkt.kind {
        MsgKind::LockMsg(
            LockOp::Request { lock, .. }
            | LockOp::Transfer { lock, .. }
            | LockOp::Grant { lock, .. },
        ) => vec![SchedObj::Lock { lock: lock.index() }],
        MsgKind::CollMsg(CollOp::Arrive { coll, .. } | CollOp::Release { coll, .. }) => {
            vec![SchedObj::Coll { coll: coll.index() }]
        }
        // Atomic cells are the per-lock spin words.
        MsgKind::FetchAndStore { cell, .. }
        | MsgKind::MaskedCas(genima_nic::CasWord { cell, .. }) => {
            vec![SchedObj::Lock {
                lock: cell as usize,
            }]
        }
        MsgKind::Deposit
        | MsgKind::GatherDeposit { .. }
        | MsgKind::HostMsg
        | MsgKind::FetchReq { .. }
        | MsgKind::FetchReply
        | MsgKind::AtomicReply { .. } => Vec::new(),
    }
}
