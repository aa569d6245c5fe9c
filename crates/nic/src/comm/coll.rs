//! NI collectives: the host entry, the arrival of tree signals, and
//! the mapping of `genima_coll` [`Action`]s onto the wire, the host
//! completion flag and the observability spans. The combine tables and
//! the tree protocol are [`CollState`]'s.

use genima_coll::{Action, CollId, CollState, ReduceOp};
use genima_net::NicId;
use genima_obs::{flow_coll_id, op_barrier_id, Flow, FlowDir, SpanKind, Track};
use genima_sim::Time;

use super::{Comm, Post, Rx, Step};
use crate::msg::{CollOp, MsgKind, Packet, Tag, Upcall};

/// Header bytes of a collective fan-in / fan-out packet; the reduce
/// payload adds 8 bytes per element on top.
const COLL_HDR_BYTES: u32 = 16;

impl Comm {
    /// Sets the tree fanout used by collective instances created from
    /// now on (existing instances keep their shape).
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn set_coll_fanout(&mut self, fanout: u32) {
        assert!(fanout >= 1, "tree fanout must be at least 1");
        self.coll_fanout = fanout;
    }

    /// The epoch `nic`'s next entry into `coll` will join (zero before
    /// the instance exists).
    pub fn coll_epoch(&self, coll: CollId, nic: NicId) -> u32 {
        match self.colls.get(&coll) {
            Some(cs) => cs.node_epoch(nic.index() as u32),
            None => 0,
        }
    }

    /// The combined result of `coll`'s most recently completed epoch.
    /// Valid to read from the moment [`Upcall::CollCompleted`] for
    /// that epoch surfaces at a node until the node re-enters the
    /// collective — the same window in which a granted lock's
    /// timestamp sits in NI memory.
    pub fn coll_result(&self, coll: CollId) -> Option<(u32, &[u64])> {
        self.colls
            .get(&coll)
            .and_then(|cs| cs.result())
            .map(|(e, vals)| (*e, vals.as_slice()))
    }

    /// Enters collective `coll` at `nic`: the host writes its local
    /// contribution (`vals`, element-wise combined with `op`; empty
    /// for a pure barrier) into NI memory and returns immediately —
    /// the whole fan-in/combine/fan-out runs in firmware, and
    /// completion surfaces as [`Upcall::CollCompleted`], noticed like
    /// a granted lock flag. The first entry cluster-wide fixes the
    /// instance's operator, element width and tree fanout (see
    /// [`Comm::set_coll_fanout`]).
    ///
    /// # Panics
    ///
    /// Panics if the node re-enters before its previous epoch
    /// completed, or if `vals`' width disagrees with the instance.
    pub fn coll_enter(
        &mut self,
        now: Time,
        nic: NicId,
        coll: CollId,
        op: ReduceOp,
        vals: &[u64],
    ) -> Post {
        let (ports, fanout) = (self.ports as u32, self.coll_fanout);
        self.colls
            .entry(coll)
            .or_insert_with(|| CollState::new(ports, fanout, op, vals.len()));
        let host_free = self.model.host_ctrl(now, nic);
        // The epoch this entry joins names the barrier operation; the
        // protocol layer derives the same id at release time.
        let epoch = self.coll_epoch(coll, nic);
        // The firmware folds the local contribution into its combine
        // table on the send-side service loop.
        let svc_done = self.model.coll_service(host_free, nic, true);
        self.combine_span(nic, coll, epoch, host_free, svc_done);
        let mut step = self.take_step();
        self.run_coll(svc_done, coll, &mut step, |cs, actions| {
            cs.local_arrive_into(nic.index() as u32, vals, actions);
        });
        Post::after(host_free, step)
    }

    /// A tree signal from `pkt.src` reached `pkt.dst`'s firmware.
    pub(super) fn serve_coll(&mut self, rx: Rx, pkt: Packet, op: CollOp, step: &mut Step) {
        let (nic, src) = (pkt.dst, pkt.src);
        let svc_done = self.model.coll_service(rx.recv_done, nic, false);
        self.book_dest(rx, svc_done, self.model.coll_cost());
        let (coll, epoch) = self.edge_flow(rx.recv_done, op, src, nic, FlowDir::Finish);
        self.combine_span(nic, coll, epoch, rx.recv_done, svc_done);
        let (node, child) = (nic.index() as u32, src.index() as u32);
        self.run_coll(svc_done, coll, step, |cs, actions| match op {
            CollOp::Arrive { .. } => cs.child_arrive_into(node, child, epoch, actions),
            CollOp::Release { .. } => cs.release_into(node, epoch, actions),
        });
    }

    /// Feeds one input to `coll`'s machine through the reused action
    /// buffer and carries out what it decided at firmware time `t`.
    fn run_coll(
        &mut self,
        t: Time,
        coll: CollId,
        out: &mut Step,
        input: impl FnOnce(&mut CollState, &mut Vec<Action>),
    ) {
        let mut actions = std::mem::take(&mut self.coll_scratch);
        let cs = self
            .colls
            .get_mut(&coll)
            .unwrap_or_else(|| panic!("signal for unknown collective {coll:?}"));
        input(cs, &mut actions);
        let bytes = COLL_HDR_BYTES + 8 * cs.width() as u32;
        for &a in &actions {
            self.apply_coll(t, coll, a, bytes, out);
        }
        actions.clear();
        self.coll_scratch = actions;
    }

    /// Maps one [`Action`] onto the firmware send path or the host
    /// completion flag: fan-in and fan-out signals become
    /// firmware-generated packets (whose byte count carries the reduce
    /// payload), an exit becomes a [`Upcall::CollCompleted`] one
    /// notification later — the host notices the completion flag
    /// exactly as it notices a granted lock.
    fn apply_coll(&mut self, t: Time, coll: CollId, action: Action, bytes: u32, out: &mut Step) {
        let (from, to, op) = match action {
            Action::SendArrive { from, to, epoch } => (from, to, CollOp::Arrive { coll, epoch }),
            Action::SendRelease { from, to, epoch } => (from, to, CollOp::Release { coll, epoch }),
            Action::Exit { node, epoch } => {
                let nic = NicId::new(node as usize);
                let at = t + self.model.notify();
                out.upcalls
                    .push((at, Upcall::CollCompleted { nic, coll, epoch }));
                return;
            }
        };
        let (from, to) = (NicId::new(from as usize), NicId::new(to as usize));
        self.edge_flow(t, op, from, to, FlowDir::Start);
        self.emit(t, from, to, bytes, MsgKind::CollMsg(op), Tag::NONE, out);
    }

    /// One end of the flow arrow of tree signal `op` travelling `from`
    /// → `to`: the start at the sender, the finish at the receiver. The
    /// id names the tree edge by its child — the sender of a fan-in,
    /// the receiver of a fan-out — so both ends agree. Returns the
    /// signal's instance and epoch.
    fn edge_flow(
        &mut self,
        t: Time,
        op: CollOp,
        from: NicId,
        to: NicId,
        dir: FlowDir,
    ) -> (CollId, u32) {
        let at_nic = match dir {
            FlowDir::Start => from,
            FlowDir::Finish => to,
        };
        let (coll, epoch, kind, child) = match op {
            CollOp::Arrive { coll, epoch } => (coll, epoch, SpanKind::CollFanIn, from),
            CollOp::Release { coll, epoch } => (coll, epoch, SpanKind::CollFanOut, to),
        };
        let id = flow_coll_id(coll.index() as u64, epoch as u64, child.index() as u64);
        let bop = op_barrier_id(coll.index() as u64, epoch as u64);
        self.obs_record(|o| {
            o.instant_flow_op(
                kind,
                at_nic.index(),
                Track::Firmware,
                t,
                coll.index() as u64,
                Flow { id, dir },
                bop,
            );
        });
        (coll, epoch)
    }

    /// The firmware's combine-table service span for one contribution.
    fn combine_span(&mut self, nic: NicId, coll: CollId, epoch: u32, start: Time, end: Time) {
        let bop = op_barrier_id(coll.index() as u64, epoch as u64);
        self.obs_record(|o| {
            o.span_op(
                SpanKind::CollCombine,
                nic.index(),
                Track::Firmware,
                start,
                end,
                coll.index() as u64,
                bop,
            );
        });
    }
}
