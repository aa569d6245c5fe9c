//! Barriers: arrival, the two combiners (the node-0 host manager and
//! the NI combining tree), episode completion, and release at a node.

use genima_nic::{CollId, ReduceOp, TraceEvent};
use genima_sim::Time;

use super::notices::SyncMsg;
use super::{Block, Bucket, Pending, ProcState, Sink, SvmSystem, WaitReason, EPS};
use crate::config::BarrierImpl;
use crate::ids::{BarrierId, NodeId, ProcId};
use crate::vclock::VClock;

impl SvmSystem {
    /// Process `p` arrives at barrier `b`: flush everything, notify
    /// the manager, block.
    pub(crate) fn barrier_arrive(&mut self, now: Time, p: usize, b: BarrierId) {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let mut cursor = self.close_interval(now, p, Bucket::Barrier);
        cursor = self.flush_pending_of(cursor, p, Sink::Proc(p, Bucket::Barrier));

        // Arrival notification: either to the node-0 manager (host
        // path) or into the NI combining tree. Only a message owns a
        // copy of the clock.
        let work = cursor.saturating_since(now);
        self.procs[p].bd.barrier += work;
        self.procs[p].bd.barrier_protocol += work;
        let ni_tree = matches!(self.p.barrier, BarrierImpl::NiTree { .. });
        if !ni_tree && node != 0 {
            // The wait below starts once the message has been posted.
            self.counters.barrier_manager_msgs += 1;
            // Arrivals for episode N happen before its release bumps
            // the epoch, so they name epoch+1 — the same id the release
            // side derives after incrementing.
            let ep = self.barriers.get(&b).map(|r| r.epoch).unwrap_or(0);
            let bop = genima_obs::op_barrier_id(b.index() as u64, ep + 1);
            let msg = SyncMsg::Barrier { deposit_bytes: 64 };
            let vc = self.procs[p].vc.clone();
            cursor = self.send_sync_msg(cursor, node, 0, msg, vc.wire_bytes(), bop, |upto| {
                Pending::BarrierArriveMsg {
                    barrier: b,
                    proc: p,
                    vc,
                    upto,
                }
            });
        }
        self.procs[p].state = ProcState::Blocked(Block::BarrierWait {
            barrier: b,
            started: cursor,
        });
        if ni_tree {
            cursor = self.coll_barrier_arrive(cursor, node, b, p);
        } else if node == 0 {
            let vc = self.procs[p].vc.clone();
            self.manager_note_arrival(cursor + EPS, b, vc, None);
        }
        self.procs[p].clock = self.procs[p].clock.max(cursor);
    }

    /// NI-tree barrier: register one local arrival; the node's *last*
    /// arrival posts the contribution into the firmware combining
    /// tree. The reduce vector is the node's joined vector clock, one
    /// lane per process, max-reduced up the tree and broadcast down in
    /// place of the manager's clock join.
    fn coll_barrier_arrive(&mut self, cursor: Time, node: usize, b: BarrierId, p: usize) -> Time {
        let quorum = self.p.topo.procs_per_node;
        let arrivals = self.nodes[node].coll_combiner(b);
        let Some(joined) = arrivals.arrive(&self.procs[p].vc, quorum) else {
            return cursor;
        };
        let mut vals = std::mem::take(&mut self.scratch_reduce);
        vals.extend(joined.lanes().iter().map(|&v| u64::from(v)));
        self.nodes[node].coll_combiner(b).recycle(joined);
        let coll = CollId::new(b.index() as u32);
        let nic = NodeId::new(node).nic();
        let epoch = self.comm.coll_epoch(coll, nic);
        self.comm.record(TraceEvent::CollArrived {
            at: cursor,
            node,
            barrier: b.index(),
            epoch,
        });
        let post = self
            .comm
            .coll_enter(cursor, nic, coll, ReduceOp::Max, &vals);
        vals.clear();
        self.scratch_reduce = vals;
        self.absorb_post(post)
    }

    /// The NI fan-out released `node` from one epoch of the collective
    /// backing barrier `b`: decode the combined reduce vector into the
    /// joined vector clock, then wake the node's waiters exactly as a
    /// manager release would. The tree carries no notices: each exit
    /// waits for, or fetches, the records its clock names.
    pub(crate) fn coll_completed(&mut self, t: Time, node: usize, coll: CollId, epoch: u32) {
        let b = BarrierId::new(coll.index());
        let nprocs = self.p.topo.procs();
        // The combined vector is borrowed from NI memory; decode it
        // into owned protocol state before touching anything else.
        let mut joined = std::mem::replace(&mut self.scratch_joined, VClock::new(0));
        let (res_epoch, vals) = self
            .comm
            .coll_result(coll)
            .expect("completed collective must hold a result");
        assert_eq!(
            res_epoch, epoch,
            "collective result advanced past the released epoch"
        );
        assert_eq!(vals.len(), nprocs, "reduce vector width mismatch");
        for (q, &v) in vals.iter().enumerate() {
            joined.set(ProcId::new(q), v as u32);
        }
        if node == 0 {
            // The root exits first (its release precedes the fan-out),
            // so episode-global bookkeeping lives here — mirroring the
            // manager's release point on the host path.
            self.barrier_episode_done(t, b);
        }
        self.comm.record(TraceEvent::CollReleased {
            at: t,
            node,
            barrier: b.index(),
            epoch,
        });
        let bop = genima_obs::op_barrier_id(b.index() as u64, epoch as u64);
        self.release_at_node(t, b, node, &joined, bop);
        self.scratch_joined = joined;
    }

    /// Episode-global bookkeeping at the release decision: count the
    /// barrier and, at the warm-up barrier, restart the measurement.
    fn barrier_episode_done(&mut self, t: Time, b: BarrierId) {
        self.counters.barriers += 1;
        if self.p.warmup_barrier == Some(b) {
            self.measure_from = t;
            self.counters = Default::default();
            self.op_hist = Default::default();
            self.serve_hist = Default::default();
            self.comm.reset_monitor();
            for proc in &mut self.procs {
                proc.warmup_reset = true;
            }
        }
    }

    /// Manager-side barrier bookkeeping (runs at node 0, either as a
    /// handler job in Base or directly at deposit arrival in DW+).
    pub(crate) fn manager_note_arrival(
        &mut self,
        t: Time,
        b: BarrierId,
        vc: VClock,
        upto: Option<Vec<u32>>,
    ) {
        self.merge_upto(t, 0, upto);
        let bar = self.barriers.entry(b).or_default();
        let Some(joined) = bar.arrivals.arrive(&vc, self.p.topo.procs()) else {
            return;
        };
        // Everyone is here: release.
        bar.epoch += 1;
        let bop = genima_obs::op_barrier_id(b.index() as u64, bar.epoch);
        self.barrier_episode_done(t, b);
        let mut cursor = t + EPS;
        self.release_at_node(cursor, b, 0, &joined, bop);
        let vc_bytes = joined.wire_bytes();
        let msg = SyncMsg::Barrier {
            deposit_bytes: 32 + vc_bytes,
        };
        for node in 1..self.p.topo.nodes {
            self.counters.barrier_manager_msgs += 1;
            cursor = self.send_sync_msg(cursor, 0, node, msg, vc_bytes, bop, |upto| {
                Pending::BarrierReleaseMsg {
                    barrier: b,
                    node,
                    vc: joined.clone(),
                    upto,
                }
            });
        }
    }

    /// Barrier release reached `node`: wake its waiting processes.
    pub(crate) fn release_at_node(
        &mut self,
        t: Time,
        b: BarrierId,
        node: usize,
        joined: &VClock,
        op: u64,
    ) {
        for p in self.p.topo.procs_of(NodeId::new(node)).map(ProcId::index) {
            let started = match &self.procs[p].state {
                ProcState::Blocked(Block::BarrierWait { barrier, started }) if *barrier == b => {
                    *started
                }
                ProcState::Runnable
                | ProcState::Done
                | ProcState::Blocked(
                    Block::PageFault { .. }
                    | Block::LockWait { .. }
                    | Block::NoticeWait { .. }
                    | Block::BarrierWait { .. },
                ) => continue,
            };
            self.procs[p].bd.barrier += t.saturating_since(started);
            self.op_hist.barrier.record(t.saturating_since(started));
            self.obs_record(|o| {
                o.span_op(
                    genima_obs::SpanKind::BarrierWait,
                    node,
                    genima_obs::Track::Host,
                    started,
                    t,
                    b.index() as u64,
                    op,
                );
            });
            self.procs[p].vc.join(joined);
            self.enter_notice_stage(t, p, WaitReason::Barrier);
        }
    }
}
