//! Degraded-mode recovery: per-transaction handling of abandoned
//! sends ([`SvmParams::degraded`](super::SvmParams)).
//!
//! When the NI firmware gives up retransmitting a packet the default
//! response is to abort the run — correct for batch kernels, useless
//! for a serving system, where one unreachable peer during churn must
//! cost *that request*, not the whole run. Degraded mode has one
//! contract: **a packet the firmware sends on a synchronisation
//! mechanism's behalf never dies; a host data transaction may, and
//! then the host either applies its record or fails the fetch.** A
//! reader can re-fault; a lock token or a barrier episode cannot be
//! re-minted, and failing whoever waited on the lost message would
//! strand everyone queued behind them. So no synchronisation operation
//! can fail, on any column.
//!
//! | what the transport gave up | resolved by | outcome |
//! |---|---|---|
//! | untagged packet, or `LockMsg` / `CollMsg` / `AtomicReply` | `transport::retransmit` | management channel, one `retry_timeout` later (`mgmt_deliveries`) |
//! | tagged host transaction whose record is its whole effect (`Notice`, `Diff`, host-chain `LockMsg`, barrier arrive / release) | [`SvmSystem::degraded_give_up`] | [`SvmSystem::serve`] as if it had arrived ([`degraded_heals`](crate::Counters)) |
//! | the requester's own atomic attempt (`AtomicLockTry`) | `degraded_give_up` | `RetrySpin` after `lock_spin_backoff` (`degraded_heals`) |
//! | fetch class (`PageRequestMsg`, `PageReply`, `FetchPage`) | `degraded_give_up` | `fail_fetch` ([`failed_ops`](crate::Counters)) |
//! | tag already consumed | `degraded_give_up` | [`degraded_lost_msgs`](crate::Counters) |

use genima_mem::PageId;
use genima_nic::{NicId, Tag};
use genima_sim::Time;

use super::{Block, Pending, ProcState, SvmSystem, SysEvent};
use crate::ids::ProcId;

impl SvmSystem {
    /// Entry point: `nic`'s firmware abandoned the send correlated by
    /// `tag`. Resolve and recover; never sets `fatal`.
    pub(crate) fn degraded_give_up(&mut self, t: Time, nic: NicId, tag: Tag) {
        let op = self.take_op(tag);
        let Some(pending) = self.tags.remove(&tag.value()) else {
            // Already consumed — e.g. by the give-up of an earlier
            // fragment of the same transfer, which share one tag.
            // Nothing is left to apply or fail.
            self.counters.degraded_lost_msgs += 1;
            return;
        };
        match pending {
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
            Pending::AtomicLockTry { proc, lock } => {
                // The reply takes the management channel, so this is
                // our own attempt, which never left: the home cell is
                // untouched and one more round trip is safe.
                debug_assert_eq!(nic.index(), self.p.topo.node_of(ProcId::new(proc)).index());
                self.counters.degraded_heals += 1;
                self.counters.lock_spin_retries += 1;
                self.q.push(
                    t + self.p.proto.lock_spin_backoff,
                    SysEvent::RetrySpin(proc, lock),
                );
            }
            Pending::NiLockWait { .. } => {
                unreachable!("chain packets take the management channel")
            }
            // The record carries the message's whole protocol effect.
            Pending::Notice { .. }
            | Pending::Diff { .. }
            | Pending::LockMsg { .. }
            | Pending::BarrierArriveMsg { .. }
            | Pending::BarrierReleaseMsg { .. } => {
                self.counters.degraded_heals += 1;
                self.serve(t, pending, op);
            }
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
}
