//! Locks: the node-level (SMP) tier every column shares, and under it
//! the four ways a remote acquire is carried ([`LockStrategy`]).
//!
//! The home + last-owner chain is [`genima_nic::ChainLock`] whoever
//! runs it. Under `NiChain` the NI firmware does (`Comm::lock_*`);
//! under `HostChain` the hosts do, and this file is their glue: what a
//! host adds to the machine is a host message per hop (interrupting
//! the home and the previous tail), [`EPS`] for a hop that stays on
//! the node, and the lazy-diff flush before the lock leaves.
//!
//! Where a release flushes its diffs, before or after the lock leaves
//! the node, is the run's [`DiffRoute`].
//!
//! Where home pages are written in place, an acquire also re-opens the
//! home pages the process wrote when it last held the same lock, while
//! its request is in flight: "a re-open may precede the grant, and no
//! access may" (DESIGN.md §10.4).

use std::ops::Range;

use genima_nic::{CasWord, LockAction, LockId, LockOp, MsgKind, Post, Tag, TraceEvent};
use genima_sim::Time;

use super::interval::DiffRoute;
use super::notices::SyncMsg;
use super::{
    Block, Bucket, Flow, LockStrategy, Pending, ProcState, Sink, SvmSystem, SysEvent, WaitReason,
    EPS,
};
use crate::ids::{NodeId, ProcId};

impl SvmSystem {
    /// The home node index of `lock` (the round-robin assignment the
    /// chains and the atomics cells share).
    pub(crate) fn lock_home(&self, lock: LockId) -> usize {
        lock.index() % self.p.topo.nodes
    }

    /// The traced ownership stream starts where the locks do: a chain
    /// lock owned by its home, which the auditor assumes, and an
    /// atomics cell clear, which it is told here as a release by the
    /// home at time zero.
    pub(crate) fn trace_initial_locks(&mut self) {
        let cells = matches!(
            self.lock_strategy,
            LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait
        );
        if !cells || !self.comm.tracing() {
            return;
        }
        for lock in (0..self.locks.len()).map(LockId::new) {
            let nic = NodeId::new(self.lock_home(lock)).nic();
            self.comm.record(TraceEvent::LockReleased {
                at: Time::ZERO,
                nic,
                lock,
            });
        }
    }

    /// Starts a lock acquire for `p`. Returns [`Flow::Stop`] when the
    /// process blocked.
    pub(crate) fn start_acquire(&mut self, now: Time, p: usize, l: LockId) -> Flow {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let scope = self.procs[p].in_place.acquire(l);
        let nl = &mut self.nodes[node].locks[l.index()];
        if nl.holder.is_some() || !nl.local_waiters.is_empty() || nl.requesting {
            nl.local_waiters.push_back(p);
            let lop = self.next_lock_op();
            self.procs[p].state = ProcState::Blocked(Block::LockWait {
                lock: l,
                started: now,
                op: lop,
            });
            self.reopen_lock_scope(now, p, scope);
            return Flow::Stop;
        }
        let nic = NodeId::new(node).nic();
        // The chain is ground truth for token ownership.
        let owned = match self.lock_strategy {
            LockStrategy::HostChain => self.host_chains[l.index()].owned_by(nic),
            LockStrategy::NiChain => self.comm.lock_owned_by(nic, l),
            // TAS over remote atomics has no ownership caching: every
            // acquire races on the home cell.
            LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait => false,
        };
        if owned {
            // Intra-node fast path: hardware synchronization only.
            // Tell the chain the host holds the token again so an
            // incoming transfer queues instead of granting.
            self.counters.local_lock_acquires += 1;
            if self.lock_strategy == LockStrategy::HostChain {
                self.host_chains[l.index()].local_hold(nic);
            } else {
                self.comm.lock_local_hold(nic, l);
            }
            self.nodes[node].locks[l.index()].holder = Some(p);
            let cost = self.p.proto.local_lock;
            self.procs[p].clock += cost;
            self.procs[p].bd.lock += cost;
            self.procs[p].vc.join(&self.locks[l.index()].vc);
            let t = self.procs[p].clock;
            return self.enter_notice_stage(t, p, WaitReason::Lock);
        }
        // Remote acquire.
        self.counters.remote_lock_acquires += 1;
        let lop = self.next_lock_op();
        self.nodes[node].locks[l.index()].requesting = true;
        self.procs[p].state = ProcState::Blocked(Block::LockWait {
            lock: l,
            started: now,
            op: lop,
        });
        // The host re-opens the scope from `now`, as the request leaves;
        // a grant that could come back synchronously finds it done.
        self.reopen_lock_scope(now, p, scope);
        match self.lock_strategy {
            LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait => {
                self.atomic_lock_try(now, p, l);
            }
            LockStrategy::NiChain => {
                let tag = self.tag_op(Pending::NiLockWait { proc: p }, lop);
                let post = self.comm.lock_acquire(now, nic, l, tag);
                self.absorb_post(post);
            }
            LockStrategy::HostChain => {
                let action = self.host_chains[l.index()].acquire(nic, Tag::new(p as u64));
                self.apply_chain(now, node, l, action, Sink::Proc(p, Bucket::AcqRel));
            }
        }
        Flow::Stop
    }

    /// Re-opens `run`, the scope of the lock `p` has been waiting for
    /// since `now`, with one coalesced mprotect and no trap. The host
    /// runs it during the wait; the critical section cannot start
    /// before it ends, so `p`'s clock moves there, and
    /// [`Self::lock_granted`] charges whatever outlasts the wait.
    fn reopen_lock_scope(&mut self, now: Time, p: usize, run: Range<usize>) {
        if run.is_empty() {
            return;
        }
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        self.procs[p].clock = now + self.reopen_run(p, node, run);
    }

    /// HostChain: a chain message reached node `to` (through its
    /// protocol handler, for the two kinds that interrupt): run it
    /// through the lock's machine.
    pub(crate) fn host_chain_arrived(
        &mut self,
        t: Time,
        to: usize,
        tag: Tag,
        op: LockOp,
        upto: Option<Vec<u32>>,
    ) {
        let (LockOp::Request { lock: l, .. }
        | LockOp::Transfer { lock: l, .. }
        | LockOp::Grant { lock: l, .. }) = op;
        if let LockOp::Grant { .. } = op {
            self.merge_upto(t, to, upto);
        }
        let site = NodeId::new(to).nic();
        if let Some(action) = self.host_chains[l.index()].on_message(site, op, tag) {
            self.apply_chain(t, to, l, action, Sink::Handler(to));
        }
    }

    /// HostChain: carries out what `l`'s machine decided at `node` at
    /// host time `t`; `sink` pays for a flush. Every hop that leaves
    /// the node takes a fresh tag. Returns the advanced time cursor.
    fn apply_chain(
        &mut self,
        t: Time,
        node: usize,
        l: LockId,
        action: LockAction,
        sink: Sink,
    ) -> Time {
        let nic = NodeId::new(node).nic();
        match action {
            LockAction::Send { to, op, tag } => {
                let to = to.index();
                let lop = self.lock_wait_op(tag.value() as usize).unwrap_or(0);
                let msg = Pending::LockMsg {
                    to,
                    tag,
                    op,
                    upto: None,
                };
                if to != node {
                    let tag = self.tag_op(msg, lop);
                    let bytes = self.p.proto.control_msg_bytes;
                    let dst = NodeId::new(to).nic();
                    return self.send(t, nic, dst, bytes, MsgKind::HostMsg, tag);
                }
                match op {
                    // The home structures are in local memory.
                    LockOp::Request { .. } => self.host_chain_arrived(t + EPS, to, tag, op, None),
                    // The home is itself the chain tail: its handler
                    // services the transfer without a message.
                    LockOp::Transfer { .. } => self.q.push(t + EPS, SysEvent::Job(to, msg, lop)),
                    LockOp::Grant { .. } => unreachable!("a grant leaves as `Departed`"),
                }
                t
            }
            LockAction::Departed { to, tag } => {
                self.comm.record(TraceEvent::LockReleased {
                    at: t,
                    nic,
                    lock: l,
                });
                let cursor = match self.diff_route {
                    // Lazy diffs flush when the lock leaves the node.
                    DiffRoute::Lazy => self.flush_node_pending(t, node, sink),
                    DiffRoute::Eager { .. } | DiffRoute::HandsOverFirst { .. } => t,
                };
                // The grant carries the lock's timestamp.
                let vc_bytes = self.locks[l.index()].vc.wire_bytes();
                let lop = self.lock_wait_op(tag.value() as usize).unwrap_or(0);
                let (to, op) = (to.index(), LockOp::Grant { lock: l, tag });
                self.send_sync_msg(cursor, node, to, SyncMsg::Grant, vc_bytes, lop, |upto| {
                    Pending::LockMsg { to, tag, op, upto }
                })
            }
            LockAction::Granted { tag } => {
                self.comm.record(TraceEvent::LockAcquired {
                    at: t,
                    nic,
                    lock: l,
                });
                self.remote_lock_granted(t, tag.value() as usize, l);
                t
            }
            LockAction::Regranted { .. } | LockAction::DupDropped => {
                unreachable!("{action:?}: hosts re-hold by `local_hold` and tags dedupe grants")
            }
        }
    }

    /// The operation id of `p`'s blocked lock acquire, if it is in one.
    fn lock_wait_op(&self, p: usize) -> Option<u64> {
        match &self.procs[p].state {
            ProcState::Blocked(Block::LockWait { op, .. }) => Some(*op),
            ProcState::Runnable
            | ProcState::Done
            | ProcState::Blocked(
                Block::PageFault { .. } | Block::NoticeWait { .. } | Block::BarrierWait { .. },
            ) => None,
        }
    }

    /// Remote-atomics lock mode: issue one test-and-set attempt on the
    /// lock's home cell.
    pub(crate) fn atomic_lock_try(&mut self, t: Time, p: usize, l: LockId) {
        let Some(lop) = self.lock_wait_op(p) else {
            return; // superseded (e.g. a local handoff won the race)
        };
        let tag = self.tag_op(Pending::AtomicLockTry { proc: p, lock: l }, lop);
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let post = self.atomic_lock_cell(t, node, l, true, tag);
        self.absorb_post(post);
    }

    /// Remote-atomics lock mode: one operation on the lock's home cell
    /// with the hardware's primitive — set it (`acquire`), or clear it
    /// (a release, or the undo of a superseded win; untagged).
    fn atomic_lock_cell(
        &mut self,
        t: Time,
        node: usize,
        l: LockId,
        acquire: bool,
        tag: Tag,
    ) -> Post {
        let (src, home) = (
            NodeId::new(node).nic(),
            NodeId::new(self.lock_home(l)).nic(),
        );
        let cell = l.index() as u32;
        let (expect, new) = if acquire { (0, 1) } else { (1, 0) };
        match self.lock_strategy {
            // RNIC verbs offer masked CAS: acquire is CAS(0 -> 1), so
            // a losing attempt cannot clobber the holder's bit the way
            // an unconditional swap could. `wait` parks a losing
            // acquire at the home NIC, which replays it when the cell
            // is cleared — lock handoff is a single event-driven round
            // trip with FIFO fairness, never a spin storm.
            LockStrategy::AtomicCasWait => {
                let cas = CasWord {
                    cell,
                    expect,
                    new,
                    mask: u64::MAX,
                    wait: acquire,
                };
                self.comm.masked_cas(t, src, home, cas, tag)
            }
            LockStrategy::AtomicSwapSpin => self.comm.fetch_and_store(t, src, home, cell, new, tag),
            LockStrategy::HostChain | LockStrategy::NiChain => {
                unreachable!("{:?} keeps no home cell", self.lock_strategy)
            }
        }
    }

    /// Remote-atomics lock mode: a test-and-set attempt returned.
    pub(crate) fn atomic_lock_result(&mut self, t: Time, p: usize, l: LockId, old: u64) {
        if self.lock_wait_op(p).is_none() {
            if old == 0 {
                // A superseded attempt must not strand the cell.
                let node = self.p.topo.node_of(ProcId::new(p)).index();
                let post = self.atomic_lock_cell(t, node, l, false, Tag::NONE);
                self.absorb_post(post);
            }
            return;
        }
        if old != 0 {
            // Held elsewhere. Only the plain fetch-and-store primitive
            // reports failed attempts (the RDMA masked CAS parks at
            // the home NIC and replies on success): spin with backoff,
            // each retry a full network round trip — the cost of the
            // simpler primitive.
            self.counters.lock_spin_retries += 1;
            self.q.push(
                t + self.p.proto.lock_spin_backoff,
                SysEvent::RetrySpin(p, l),
            );
            return;
        }
        // Won the test-and-set.
        let nic = self.p.topo.node_of(ProcId::new(p)).nic();
        self.comm.record(TraceEvent::LockAcquired {
            at: t,
            nic,
            lock: l,
        });
        self.remote_lock_granted(t, p, l);
    }

    /// `proc`'s remote acquire of `l` came back granted — by the
    /// chain, whoever runs it, or by winning the home cell: its node
    /// holds the lock for it and it takes the timestamp that travels
    /// with the lock.
    pub(crate) fn remote_lock_granted(&mut self, t: Time, proc: usize, l: LockId) {
        let node = self.p.topo.node_of(ProcId::new(proc)).index();
        let nl = &mut self.nodes[node].locks[l.index()];
        nl.requesting = false;
        nl.holder = Some(proc);
        self.procs[proc].vc.join(&self.locks[l.index()].vc);
        self.lock_granted(t, proc, l);
    }

    /// The tail of every blocked acquire, remote or by local handoff,
    /// after `proc` joined the lock's timestamp: close the wait at `t`
    /// (charge it, record it in the lock histogram, emit the
    /// operation's root span), then wait for notices / apply
    /// invalidations.
    fn lock_granted(&mut self, t: Time, proc: usize, l: LockId) {
        let (started, lop) = match &self.procs[proc].state {
            ProcState::Blocked(Block::LockWait { lock, started, op }) if *lock == l => {
                (*started, *op)
            }
            other => panic!("p{proc}'s acquire of {l} ended while in state {other:?}"),
        };
        let wait = t.saturating_since(started);
        self.procs[proc].bd.lock += wait;
        self.op_hist.lock.record(wait);
        let node = self.p.topo.node_of(ProcId::new(proc)).index();
        self.obs_record(|o| {
            o.span_op(
                genima_obs::SpanKind::LockAcquire,
                node,
                genima_obs::Track::Host,
                started,
                t,
                l.index() as u64,
                lop,
            );
        });
        // A re-open of the lock scope still running at the grant holds
        // the critical section back: what outlasts the wait is acq/rel.
        let reopening = self.procs[proc].clock.saturating_since(t);
        self.procs[proc].bd.acqrel += reopening;
        self.enter_notice_stage(t + reopening, proc, WaitReason::Lock);
    }

    /// Releases a lock held by `p`: close its interval, post the write
    /// notices, set the lock's timestamp, hand the lock over (locally,
    /// or through the chain or the home cell), flush diffs, re-protect.
    /// The first three always run in that order; where the hand-over
    /// sits among the last three is the [`DiffRoute`]'s.
    pub(crate) fn do_release(&mut self, now: Time, p: usize, l: LockId) {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        assert_eq!(
            self.nodes[node].locks[l.index()].holder,
            Some(p),
            "p{p} released {l} it does not hold"
        );
        self.obs_record(|o| {
            o.instant(
                genima_obs::SpanKind::LockRelease,
                node,
                genima_obs::Track::Host,
                now,
                l.index() as u64,
            );
        });
        let sink = Sink::Proc(p, Bucket::AcqRel);
        let route = self.diff_route;

        // Close the interval. The paper's order re-protects on the
        // spot, inside the critical section.
        let (closed, reprotect) = self.end_interval(p);
        match route {
            DiffRoute::Lazy | DiffRoute::Eager { .. } => {
                self.charge_reprotect(p, Bucket::AcqRel, reprotect);
            }
            DiffRoute::HandsOverFirst { .. } => {}
        }
        // Post its write notices.
        let mut cursor = self.announce_interval(now, p, closed);
        // The lock's timestamp is the releaser's clock.
        self.locks[l.index()].vc.clone_from(&self.procs[p].vc);

        // Hand over.
        let nl = &mut self.nodes[node].locks[l.index()];
        nl.holder = None;
        if let Some(next) = nl.local_waiters.pop_front() {
            // Intra-node handoff: hardware sync cost only. In the
            // paper's order the releaser's diffs stay lazy until the
            // lock leaves the node.
            nl.holder = Some(next);
            self.counters.local_lock_acquires += 1;
            self.procs[next].vc.join(&self.locks[l.index()].vc);
            self.lock_granted(cursor + self.p.proto.local_lock, next, l);
        } else {
            match route {
                // The lock may leave the node: the paper's order
                // flushes every local writer's diffs first.
                DiffRoute::Eager { .. } => cursor = self.flush_node_pending(cursor, node, sink),
                // At the departure, or after the hand-over.
                DiffRoute::Lazy | DiffRoute::HandsOverFirst { .. } => {}
            }
            let nic = NodeId::new(node).nic();
            match self.lock_strategy {
                LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait => {
                    // Clear the home cell; the store must causally
                    // follow the timestamp update above, which the
                    // in-order firmware path guarantees.
                    self.comm.record(TraceEvent::LockReleased {
                        at: cursor,
                        nic,
                        lock: l,
                    });
                    let post = self.atomic_lock_cell(cursor, node, l, false, Tag::NONE);
                    cursor = self.absorb_post(post);
                }
                LockStrategy::NiChain => {
                    let post = self.comm.lock_release(cursor, nic, l);
                    cursor = self.absorb_post(post);
                }
                LockStrategy::HostChain => {
                    // With no successor queued the node keeps the token
                    // ("the last owner keeps the lock").
                    if let Some(action) = self.host_chains[l.index()].release(nic) {
                        cursor = self.apply_chain(cursor, node, l, action, sink);
                    }
                }
            }
        }

        if let DiffRoute::HandsOverFirst { .. } = route {
            // The critical section ended at the hand-over. The releaser
            // now diffs its own interval — on both branches, so nothing
            // stays pending for a co-located process to flush later and
            // no reader spins on a diff the node is sitting on — and
            // then pays the re-protect. What orders these diffs against
            // the next holder's reads is the version check on every
            // fetched copy, not their position here.
            cursor = self.flush_pending_of(cursor, p, sink);
            self.procs[p].clock = self.procs[p].clock.max(cursor);
            self.charge_reprotect(p, Bucket::AcqRel, reprotect);
            debug_assert!(self.procs[p].pending_intervals.is_empty());
        }
        self.procs[p].clock = self.procs[p].clock.max(cursor);
    }
}
