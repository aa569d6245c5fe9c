//! Message routing: completion upcalls from the communication layer
//! resolve their tag to the in-flight record, which either waits for
//! the destination's protocol handler (an interrupt) or is served on
//! the spot. [`SvmSystem::serve`] is the one message → action table.

use genima_nic::{LockOp, TraceEvent, Upcall};
use genima_sim::{Dur, Time};

use super::interval::DiffRoute;
use super::{Pending, SvmSystem, SysEvent};
use crate::error::ProtoError;

impl SvmSystem {
    /// Charges an interrupt on `node` at `t` with handler service
    /// `svc`, attributed to operation `op` (0 = unattributed); returns
    /// the handler completion time. Also accrues the steal penalty the
    /// interrupted compute processor suffers.
    fn interrupt(&mut self, node: usize, t: Time, svc: Dur, op: u64) -> Time {
        debug_assert!(
            !self.p.features.interrupt_free(),
            "GeNIMA must never take an interrupt"
        );
        self.counters.interrupts += 1;
        self.comm.record(TraceEvent::Interrupt { at: t, node });
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
        // The floating protocol process preempts one compute processor.
        self.node_steal(node, svc + self.p.proto.interrupt_steal);
        done
    }

    /// Processes a communication upcall.
    pub(crate) fn upcall(&mut self, t: Time, up: Upcall) {
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
                    self.remote_lock_granted(t, proc, lock);
                }
            }
            // The firmware is ground truth for token ownership; the
            // host keeps no copy to update.
            Upcall::LockDeparted { .. } => {}
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
                    self.degraded_give_up(t, nic, tag);
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
            Pending::Diff { page, .. } => {
                Some((self.home_of(*page).index(), self.p.hw.host.diff_apply))
            }
            Pending::LockMsg { to, op, .. } => match op {
                LockOp::Request { .. } => Some((*to, proto.svc_lock_forward)),
                // Delivered to the last owner; the handler there
                // services the grant.
                LockOp::Transfer { .. } => Some((*to, proto.svc_lock_grant)),
                // The requester is blocked waiting for it.
                LockOp::Grant { .. } => None,
            },
            Pending::BarrierArriveMsg { .. } => Some((0, proto.svc_barrier_arrival)),
            Pending::BarrierReleaseMsg { node, .. } => Some((*node, proto.svc_barrier_release)),
            Pending::PageReply { .. }
            | Pending::FetchPage { .. }
            | Pending::Notice { .. }
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
    pub(crate) fn serve(&mut self, t: Time, pending: Pending, op: u64) {
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
            Pending::Notice { node, writer, upto } => {
                if self.notices.delivered(node, writer, upto) {
                    self.check_notice_waiters(t, node);
                }
            }
            Pending::Diff {
                writer,
                interval,
                page,
                diff,
            } => {
                let deposited = self.diff_route != DiffRoute::Lazy;
                self.apply_diff_at_home(t, writer, interval, page, diff, deposited);
            }
            Pending::LockMsg {
                to,
                tag,
                op: msg,
                upto,
            } => self.host_chain_arrived(t, to, tag, msg, upto),
            Pending::NiLockWait { .. } => unreachable!("handled via LockGranted"),
            Pending::AtomicLockTry { .. } => unreachable!("handled via AtomicCompleted"),
            Pending::BarrierArriveMsg {
                barrier, vc, upto, ..
            } => self.manager_note_arrival(t, barrier, vc, upto),
            Pending::BarrierReleaseMsg {
                barrier,
                node,
                vc,
                upto,
            } => {
                self.merge_upto(t, node, upto);
                self.release_at_node(t, barrier, node, &vc, op);
            }
        }
    }
}
