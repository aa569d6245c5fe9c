//! Degraded-mode recovery: per-transaction handling of abandoned
//! sends ([`SvmParams::degraded`](super::SvmParams)).
//!
//! When the NI firmware gives up retransmitting a packet it raises
//! `Upcall::PeerUnreachable` at the sender. The default response is to
//! abort the run — correct for batch kernels, useless for a serving
//! system, where one unreachable peer during churn must cost *that
//! request*, not the whole run. Degraded mode resolves the abandoned
//! send's tag back to its protocol transaction and picks one of three
//! recoveries:
//!
//! * **Fail fast** — fetch-class transactions and NI lock / atomics
//!   transactions. The blocked processes resume with the operation
//!   abandoned; the wait lands in the op-latency histogram and
//!   [`Counters::failed_ops`](crate::Counters) counts it. A failed
//!   lock acquire additionally sets [`ProcRt::skipping`](super::ProcRt)
//!   so the guarded critical section is consumed without executing,
//!   and poisons the lock (`dead_locks`): an NI lock slot stuck in
//!   `AwaitingGrant` (or a home atomics cell that may already hold our
//!   bit) cannot be safely re-entered, so later acquires of that lock
//!   fail fast too.
//! * **Heal** — Base host-message transactions (lock request /
//!   forward / grant, diff, barrier arrival / release) and notice
//!   records. These carry their full protocol effect in the pending
//!   record, so the simulator serves it as if it had arrived
//!   ([`SvmSystem::serve`]), modelling delivery over a management
//!   channel. The operation completes slow;
//!   [`Counters::degraded_heals`](crate::Counters) counts it. Healing
//!   is mandatory for grants and barrier messages: the lock token (or
//!   the barrier episode) is *in* the lost message, and failing the
//!   requester would strand every later acquirer.
//! * **Count** — tags that resolve to no host transaction
//!   (firmware-internal packets, the untagged timestamp fetch of a
//!   remote-fetch pair). Nothing blocks on them directly; the loss is
//!   recorded in [`Counters::degraded_lost_msgs`](crate::Counters).

use genima_mem::PageId;
use genima_nic::{LockId, NicId, Tag};
use genima_sim::Time;

use super::{Block, Pending, ProcState, SvmSystem, SysEvent};
use crate::ids::ProcId;

/// Whether an abandoned send heals: its record carries the message's
/// whole protocol effect, so [`SvmSystem::serve`] applies it as if it
/// had arrived. The rest fail fast.
fn heals(pending: &Pending) -> bool {
    match pending {
        Pending::Notice { .. }
        | Pending::NoticeFetch { .. }
        | Pending::DiffMsg { .. }
        | Pending::DiffTsUpdate { .. }
        | Pending::LockMsg { .. }
        | Pending::BarrierArriveMsg { .. }
        | Pending::BarrierReleaseMsg { .. } => true,
        Pending::PageRequestMsg { .. }
        | Pending::PageReply { .. }
        | Pending::FetchPage { .. }
        | Pending::NiLockWait { .. }
        | Pending::AtomicLockTry { .. } => false,
    }
}

impl SvmSystem {
    /// Entry point: `nic`'s firmware abandoned the send correlated by
    /// `tag`. Resolve and recover; never sets `fatal`.
    pub(crate) fn degraded_give_up(&mut self, t: Time, nic: NicId, tag: Tag) {
        let op = self.take_op(tag);
        let Some(pending) = self.tags.remove(&tag.value()) else {
            // Firmware-internal or untagged packet: no host-side
            // transaction to fail or heal. The protocol-visible loss
            // (if any) surfaces through a tagged companion packet on
            // the same dead channel.
            self.counters.degraded_lost_msgs += 1;
            return;
        };
        if heals(&pending) {
            self.counters.degraded_heals += 1;
            return self.serve(t, pending, op);
        }
        match pending {
            // ----- fetch class: fail every waiter on the page -------
            Pending::PageRequestMsg {
                requester, page, ..
            } => self.fail_fetch(t, requester, page),
            Pending::PageReply {
                node, page, data, ..
            } => {
                if let Some(d) = data {
                    self.pool.recycle(d);
                }
                self.fail_fetch(t, node, page);
            }
            Pending::FetchPage { proc, page } => {
                let node = self.p.topo.node_of(ProcId::new(proc)).index();
                self.fail_fetch(t, node, page);
            }
            // ----- firmware lock transactions: fail + poison --------
            Pending::NiLockWait { proc } => self.fail_ni_lock(t, proc),
            Pending::AtomicLockTry { proc, lock } => {
                let node = self.p.topo.node_of(ProcId::new(proc)).index();
                if nic.index() == node {
                    // Our own attempt never left: the home cell is
                    // untouched, so one more round trip is safe.
                    self.counters.degraded_heals += 1;
                    self.counters.lock_spin_retries += 1;
                    self.q.push(
                        t + self.p.proto.lock_spin_backoff,
                        SysEvent::RetrySpin(proc, lock),
                    );
                } else {
                    // The reply was lost: the test-and-set may have
                    // succeeded, leaving the cell set with no owner.
                    // (Normally unreachable — the firmware heals atomic
                    // replies over the management channel, because for
                    // a wait-mode CAS the reply is the lock token —
                    // but kept as the safe recovery if one ever dies.)
                    self.fail_lock(t, proc, lock);
                }
            }
            Pending::Notice { .. }
            | Pending::NoticeFetch { .. }
            | Pending::DiffMsg { .. }
            | Pending::DiffTsUpdate { .. }
            | Pending::LockMsg { .. }
            | Pending::BarrierArriveMsg { .. }
            | Pending::BarrierReleaseMsg { .. } => unreachable!("{pending:?} heals"),
        }
    }

    /// Fails every process waiting on the in-flight fetch of `page` at
    /// `node`: the fetch is abandoned, the waiters resume with their
    /// access dropped. Page state is untouched (no copy installed, no
    /// protection change), so a later access simply re-faults.
    fn fail_fetch(&mut self, t: Time, node: usize, page: PageId) {
        let Some(waiters) = self.nodes[node].inflight.take(page) else {
            // Already satisfied by another path (e.g. a duplicate).
            self.counters.degraded_lost_msgs += 1;
            return;
        };
        let mut next = Some(waiters.lead);
        while let Some(p) = next {
            next = self.procs[p].next_waiter.take();
            let (started, fetch_op) = match &self.procs[p].state {
                ProcState::Blocked(Block::PageFault {
                    page: pg,
                    started,
                    op,
                    ..
                }) if *pg == page => (*started, *op),
                other => panic!("p{p} failed for {page} but in state {other:?}"),
            };
            self.counters.failed_ops += 1;
            let wait = t.saturating_since(started);
            self.procs[p].bd.data += wait;
            self.op_hist.fetch.record(wait);
            self.obs_record(|o| {
                o.span_op(
                    genima_obs::SpanKind::PageFetch,
                    node,
                    genima_obs::Track::Host,
                    started,
                    t,
                    page.index() as u64,
                    fetch_op,
                );
            });
            // Abandon the parked access: the request failed.
            self.procs[p].cur = None;
            self.procs[p].state = ProcState::Runnable;
            self.q.push(t, SysEvent::Resume(p));
        }
    }

    /// An NI lock transaction was abandoned. The lock id is not in the
    /// pending record — recover it from the requester's blocked state.
    fn fail_ni_lock(&mut self, t: Time, proc: usize) {
        match self.procs[proc].state {
            ProcState::Blocked(Block::LockWait { lock, .. }) => self.fail_lock(t, proc, lock),
            // Superseded (e.g. the grant raced the give-up): nothing
            // is blocked on this transaction any more.
            ProcState::Runnable
            | ProcState::Done
            | ProcState::Blocked(
                Block::PageFault { .. } | Block::NoticeWait { .. } | Block::BarrierWait { .. },
            ) => self.counters.degraded_lost_msgs += 1,
        }
    }

    /// Fails the remote acquire of `l` by `proc` — and every local
    /// waiter queued behind it, since nobody will re-request — then
    /// poisons the lock: its firmware slot (or home atomics cell) is
    /// in a state that cannot be safely re-entered, so all later
    /// acquires fail fast in `start_acquire`.
    fn fail_lock(&mut self, t: Time, proc: usize, l: LockId) {
        self.dead_locks[l.index()] = true;
        let node = self.p.topo.node_of(ProcId::new(proc)).index();
        let nl = &mut self.nodes[node].locks[l.index()];
        nl.requesting = false;
        let mut victims = vec![proc];
        victims.extend(nl.local_waiters.drain(..));
        for v in victims {
            self.fail_lock_wait(t, v, l);
        }
    }

    /// Fails one process blocked acquiring `l`: close the wait as a
    /// failed op, arm the skip machinery so the guarded critical
    /// section is consumed without executing, and resume.
    fn fail_lock_wait(&mut self, t: Time, proc: usize, l: LockId) {
        self.end_lock_wait(t, proc, l);
        self.counters.failed_ops += 1;
        self.procs[proc].skipping = Some((l, 1));
        self.procs[proc].state = ProcState::Runnable;
        self.q.push(t, SysEvent::Resume(proc));
    }
}
