//! Remote atomics: one path for fetch-and-store and masked CAS, issued
//! locally or arriving off the wire. The cells and parked FIFOs are
//! [`AtomicUnit`](crate::atomic::AtomicUnit)'s; this file times the
//! service and routes each reply — an upcall when the requester is the
//! serving NIC itself, an `AtomicReply` packet otherwise.

use genima_net::NicId;
use genima_sim::Time;

use super::{Comm, Post, Rx, Step};
use crate::atomic::{AtomicOp, AtomicResult};
use crate::msg::{CasWord, MsgKind, Packet, SendDesc, Tag, Upcall};

/// On-wire size (bytes) of an atomic request or reply.
const ATOMIC_BYTES: u32 = 16;

impl Comm {
    /// Issues a remote atomic fetch-and-store on firmware word `cell`
    /// at `target`; the previous value surfaces as
    /// [`Upcall::AtomicCompleted`] with `tag`. The operation is served
    /// entirely in the target's NI firmware, like a remote fetch —
    /// §2's "remote atomic operations" alternative. A `target == src`
    /// swap executes locally in the NIC without network traffic.
    pub fn fetch_and_store(
        &mut self,
        now: Time,
        src: NicId,
        target: NicId,
        cell: u32,
        new: u64,
        tag: Tag,
    ) -> Post {
        self.post_atomic(now, src, target, AtomicOp::Swap { cell, new }, tag)
    }

    /// Issues a remote masked compare-and-swap on firmware word
    /// `cas.cell` at `target` (the RDMA verbs NI-lock primitive); the
    /// previous value surfaces as [`Upcall::AtomicCompleted`] with
    /// `tag` — for a [`CasWord::wait`] request, only once the compare
    /// succeeds. A `target == src` operation executes locally in the
    /// NIC without network traffic, like [`Comm::fetch_and_store`].
    pub fn masked_cas(
        &mut self,
        now: Time,
        src: NicId,
        target: NicId,
        cas: CasWord,
        tag: Tag,
    ) -> Post {
        self.post_atomic(now, src, target, AtomicOp::Cas(cas), tag)
    }

    fn post_atomic(
        &mut self,
        now: Time,
        src: NicId,
        target: NicId,
        op: AtomicOp,
        tag: Tag,
    ) -> Post {
        if src != target {
            let desc = SendDesc {
                dst: target,
                bytes: ATOMIC_BYTES,
                kind: op.msg(),
                tag,
            };
            return self.post_packet(now, src, desc);
        }
        // Local firmware op: no wire.
        let host_free = self.model.host_ctrl(now, src);
        let done = self.model.sync_service(host_free, src, true);
        let mut step = self.take_step();
        self.run_atomic(done, src, src, op, tag, &mut step);
        Post::after(host_free, step)
    }

    /// An atomic request reached `pkt.dst`'s firmware.
    pub(super) fn serve_atomic(&mut self, rx: Rx, pkt: Packet, op: AtomicOp, step: &mut Step) {
        let svc_done = self.model.sync_service(rx.recv_done, pkt.dst, false);
        self.book_dest(rx, svc_done, self.model.sync_cost());
        self.run_atomic(svc_done, pkt.dst, pkt.src, op, pkt.tag, step);
    }

    /// The reply to an atomic this NIC issued came back.
    pub(super) fn atomic_completed(&mut self, rx: Rx, pkt: Packet, old: u64, step: &mut Step) {
        let svc_done = self.model.sync_service(rx.recv_done, pkt.dst, false);
        self.atomic_reply(svc_done, pkt.dst, pkt.dst, pkt.tag, old, step);
    }

    /// Runs `src`'s request through `nic`'s atomic unit at firmware
    /// time `t`. A write replays the cell's parked requests, each
    /// served through the unit like a fresh arrival.
    fn run_atomic(
        &mut self,
        t: Time,
        nic: NicId,
        src: NicId,
        op: AtomicOp,
        tag: Tag,
        out: &mut Step,
    ) {
        let AtomicResult::Reply { old, wrote } = self.atomics[nic.index()].exec(op, src, tag)
        else {
            return; // parked: the reply goes out when the cell is written
        };
        self.atomic_reply(t, nic, src, tag, old, out);
        if !wrote {
            return;
        }
        let mut t = t;
        while let Some(w) = self.atomics[nic.index()].replay(op.cell()) {
            t = self.model.sync_service(t, nic, false);
            self.atomic_reply(t, nic, w.src, w.tag, w.old, out);
        }
    }

    fn atomic_reply(&mut self, t: Time, nic: NicId, to: NicId, tag: Tag, old: u64, out: &mut Step) {
        if to == nic {
            let at = t + self.model.notify();
            out.upcalls
                .push((at, Upcall::AtomicCompleted { nic, tag, old }));
        } else {
            let kind = MsgKind::AtomicReply { old };
            self.emit(t, nic, to, ATOMIC_BYTES, kind, tag, out);
        }
    }
}
