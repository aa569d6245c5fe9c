//! NI locks: the host calls, the arrival of chain messages, and the
//! mapping of [`LockAction`]s onto the wire, the host, the trace's
//! ownership events and the observability spans. The chain algorithm
//! itself is [`ChainLock`](crate::lock::ChainLock); nothing here reads
//! or writes its state except through its inputs.

use genima_net::NicId;
use genima_obs::{flow_lock_id, Flow, FlowDir, SpanKind, Track};
use genima_sim::Time;

use super::{Comm, Post, Rx, Step};
use crate::lock::{LockAction, LockId};
use crate::msg::{LockOp, MsgKind, Packet, Tag, Upcall};
use crate::trace::TraceEvent;

/// On-wire size (bytes) of a lock request or transfer; grants carry
/// the protocol timestamp and are `NicConfig::lock_grant_bytes`.
const LOCK_REQ_BYTES: u32 = 16;

impl Comm {
    /// The home NIC of `lock`.
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub fn lock_home(&self, lock: LockId) -> NicId {
        self.locks[lock.index()].home()
    }

    /// Returns `true` if `nic` currently owns `lock` (held or
    /// released-but-kept), i.e. a local host-level handoff is legal.
    pub fn lock_owned_by(&self, nic: NicId, lock: LockId) -> bool {
        self.locks[lock.index()].owned_by(nic)
    }

    /// Requests an NI lock. The grant surfaces as
    /// [`Upcall::LockGranted`] with `tag`; if this NIC still owns the
    /// lock the grant is local and fast.
    ///
    /// # Panics
    ///
    /// Panics if this NIC already holds or awaits the lock — the
    /// protocol layer must serialise per-node lock requests.
    pub fn lock_acquire(&mut self, now: Time, nic: NicId, lock: LockId, tag: Tag) -> Post {
        let host_free = self.model.host_ctrl(now, nic);
        let action = self.locks[lock.index()].acquire(nic, tag);
        let mut step = self.take_step();
        self.apply_lock(host_free, nic, lock, action, &mut step);
        Post::after(host_free, step)
    }

    /// Re-marks a lock this NIC kept after a release ("the last owner
    /// keeps the lock") as held by the local host again — the fast
    /// local re-acquire path. Purely NI-local; no messages.
    ///
    /// # Panics
    ///
    /// Panics if the NIC does not own the lock in released state.
    pub fn lock_local_hold(&mut self, nic: NicId, lock: LockId) {
        self.locks[lock.index()].local_hold(nic);
    }

    /// Releases an NI lock held by `nic`'s host. If a successor is
    /// queued the firmware hands the lock over immediately and a
    /// [`Upcall::LockDeparted`] is produced.
    ///
    /// # Panics
    ///
    /// Panics if the host does not hold the lock.
    pub fn lock_release(&mut self, now: Time, nic: NicId, lock: LockId) -> Post {
        let host_free = self.model.host_ctrl(now, nic);
        let done = self.model.sync_service(host_free, nic, true);
        let mut step = self.take_step();
        if let Some(action) = self.locks[lock.index()].release(nic) {
            self.apply_lock(done, nic, lock, action, &mut step);
        }
        Post::after(host_free, step)
    }

    /// A chain message reached `pkt.dst`'s firmware: run it through the
    /// lock's machine. The packet's tag is the requester's acquire tag.
    pub(super) fn serve_lock(&mut self, rx: Rx, pkt: Packet, op: LockOp, step: &mut Step) {
        let nic = pkt.dst;
        let svc_done = self.model.sync_service(rx.recv_done, nic, false);
        // A firmware-local hop never crossed the receive stage.
        if pkt.src != nic {
            self.book_dest(rx, svc_done, self.model.sync_cost());
        }
        let (LockOp::Request { lock, .. }
        | LockOp::Transfer { lock, .. }
        | LockOp::Grant { lock, .. }) = op;
        let action = self.locks[lock.index()].on_message(nic, op, pkt.tag);
        self.obs_record(|o| {
            o.span_op(
                SpanKind::NiLockService,
                nic.index(),
                Track::Firmware,
                rx.recv_done,
                svc_done,
                lock.index() as u64,
                rx.op,
            );
        });
        if let Some(action) = action {
            self.apply_lock(svc_done, nic, lock, action, step);
        }
    }

    /// Carries out what `lock`'s machine decided at `nic` at firmware
    /// time `t`.
    fn apply_lock(
        &mut self,
        t: Time,
        nic: NicId,
        lock: LockId,
        action: LockAction,
        out: &mut Step,
    ) {
        match action {
            LockAction::Send { to, op, tag } => {
                self.emit(t, nic, to, LOCK_REQ_BYTES, MsgKind::LockMsg(op), tag, out);
            }
            LockAction::Departed { to, tag } => {
                self.record(TraceEvent::LockReleased { at: t, nic, lock });
                // A NIC handing the lock to itself never lost it.
                if to != nic {
                    out.upcalls.push((t, Upcall::LockDeparted { nic, lock }));
                }
                // The departing grant starts a flow arrow; the
                // receiving NI finishes it under the same id.
                self.grant_flow(t, nic, lock, tag, FlowDir::Start);
                let op = LockOp::Grant { lock, tag };
                let bytes = self.cfg.lock_grant_bytes;
                self.emit(t, nic, to, bytes, MsgKind::LockMsg(op), tag, out);
            }
            LockAction::Granted { tag } => {
                self.record(TraceEvent::LockAcquired { at: t, nic, lock });
                self.grant_flow(t, nic, lock, tag, FlowDir::Finish);
                let at = t + self.model.notify();
                out.upcalls
                    .push((at, Upcall::LockGranted { nic, lock, tag }));
            }
            LockAction::Regranted { tag } => {
                let at = t + self.model.sync_cost() + self.model.notify();
                out.upcalls
                    .push((at, Upcall::LockGranted { nic, lock, tag }));
            }
            // No second flow finish, no spurious host wakeup.
            LockAction::DupDropped => self.count_duplicate(),
        }
    }

    /// One end of the grant's flow arrow, `(lock, tag)`-derived so both
    /// NIs compute the same id.
    fn grant_flow(&mut self, t: Time, nic: NicId, lock: LockId, tag: Tag, dir: FlowDir) {
        let id = flow_lock_id(lock.index() as u64, tag.value());
        let op = self.obs_op(tag);
        self.obs_record(|o| {
            o.instant_flow_op(
                SpanKind::NiLockGrant,
                nic.index(),
                Track::Firmware,
                t,
                lock.index() as u64,
                Flow { id, dir },
                op,
            );
        });
    }
}
