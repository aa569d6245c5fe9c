//! Write notices: carrying out what the notice machine
//! (`notices.rs`) decides — the deposits at a close, the
//! synchronisation messages, the fetches of pull — and the final stage
//! of every acquire and barrier exit: wait for the notices the new
//! clock covers, invalidate, resume.

use genima_mem::{Access, PageId};
use genima_nic::{MsgKind, TraceEvent};
use genima_sim::Time;

use super::interval::contiguous_groups;
use super::notices::{Announce, Carry, Stage, SyncMsg};
use super::page::{self, Noticed};
use super::{Block, Bucket, Flow, Pending, ProcState, Sink, SvmSystem, SysEvent, WaitReason};
use crate::ids::{NodeId, ProcId};

impl SvmSystem {
    /// Deposits the interval record `p` just closed at every other
    /// node, one post each or one post the NI replicates (paper §5's
    /// broadcast). Returns the advanced time cursor.
    fn post_record(&mut self, mut cursor: Time, p: usize, interval: u32, replicate: bool) -> Time {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let my_nic = NodeId::new(node).nic();
        let header = self.p.proto.notice_header_bytes;
        let bytes = self.records[p].wire_bytes(interval - 1..interval, header);
        let mut dsts = Vec::new();
        for dst in (0..self.p.topo.nodes).filter(|&dst| dst != node) {
            let tag = self.tag(Pending::Notice {
                node: dst,
                writer: p,
                upto: interval,
            });
            let dst_nic = NodeId::new(dst).nic();
            if replicate {
                dsts.push((dst_nic, tag));
            } else {
                cursor = self.send(cursor, my_nic, dst_nic, bytes, MsgKind::Deposit, tag);
            }
            self.counters.notice_messages += 1;
        }
        if replicate {
            let post = self
                .comm
                .post_broadcast(cursor, my_nic, &dsts, bytes, MsgKind::Deposit);
            cursor = self.absorb_post(post);
        }
        self.procs[p].clock = self.procs[p].clock.max(cursor);
        cursor
    }

    /// Announces the interval `p` just closed (if it closed one) as the
    /// notice route says. Returns the advanced time cursor.
    pub(crate) fn announce_interval(&mut self, now: Time, p: usize, closed: Option<u32>) -> Time {
        let mut cursor = now;
        if let Some(interval) = closed {
            cursor = self.procs[p].clock;
            match self.notices.announce() {
                Announce::Stay => {}
                Announce::Post { replicate } => {
                    cursor = self.post_record(cursor, p, interval, replicate);
                }
            }
        }
        self.procs[p].clock.max(cursor)
    }

    /// Sends one synchronisation control message `msg` (barrier
    /// arrival, barrier release, lock grant) from node `from` to node
    /// `to`, as the notice machine decides: a remote deposit, or a host
    /// message carrying a `vc_bytes` timestamp and whatever records
    /// ride on it. `make` builds the message around the carried
    /// watermarks. Returns the advanced time cursor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_sync_msg(
        &mut self,
        cursor: Time,
        from: usize,
        to: usize,
        msg: SyncMsg,
        vc_bytes: u32,
        op: u64,
        make: impl FnOnce(Option<Vec<u32>>) -> Pending,
    ) -> Time {
        let (src, dst) = (NodeId::new(from).nic(), NodeId::new(to).nic());
        let (records, header) = (&self.records, self.p.proto.notice_header_bytes);
        let mut rec_bytes = 0;
        let carry = self.notices.carry(from, to, msg, |q, sent| {
            rec_bytes += records[q].wire_bytes(sent, header);
        });
        match carry {
            Carry::Deposit(bytes) => {
                let tag = self.tag_op(make(None), op);
                self.send(cursor, src, dst, bytes, MsgKind::Deposit, tag)
            }
            Carry::Host(upto) => {
                let bytes = self.p.proto.control_msg_bytes + vc_bytes + rec_bytes;
                let tag = self.tag_op(make(upto), op);
                self.send(cursor, src, dst, bytes, MsgKind::HostMsg, tag)
            }
        }
    }

    /// Merges carried watermarks into a node's, and wakes whom they
    /// cover.
    pub(crate) fn merge_upto(&mut self, t: Time, node: usize, upto: Option<Vec<u32>>) {
        if upto.is_some_and(|upto| self.notices.merge(node, upto)) {
            self.check_notice_waiters(t, node);
        }
    }

    /// Wakes processes whose notice flags are now satisfied.
    pub(crate) fn check_notice_waiters(&mut self, t: Time, node: usize) {
        for p in self.p.topo.procs_of(NodeId::new(node)).map(ProcId::index) {
            let (started, reason) = match &self.procs[p].state {
                ProcState::Blocked(Block::NoticeWait { started, reason }) => (*started, *reason),
                ProcState::Runnable
                | ProcState::Done
                | ProcState::Blocked(
                    Block::PageFault { .. } | Block::LockWait { .. } | Block::BarrierWait { .. },
                ) => continue,
            };
            if self.notices.covered(node, &self.procs[p].vc) {
                let wait = t.saturating_since(started);
                match reason {
                    WaitReason::Lock => self.procs[p].bd.lock += wait,
                    WaitReason::Barrier => self.procs[p].bd.barrier += wait,
                }
                self.complete_sync(t, p, reason);
            }
        }
    }

    /// Applies all newly visible write notices for `p` (invalidating
    /// pages, updating per-page requirements) and charges the grouped
    /// `mprotect` cost. Returns the advanced cursor.
    fn apply_invalidations(&mut self, mut cursor: Time, p: usize, bucket: Bucket) -> Time {
        let nprocs = self.p.topo.procs();
        let my_node = self.p.topo.node_of(ProcId::new(p));
        for q in 0..nprocs {
            // Writers on this node share the node's physical pages via
            // hardware coherence (HLRC-SMP): their modifications are
            // already visible locally, so their records require no
            // invalidation and no diff waiting here.
            let to = self.procs[p].vc.get(ProcId::new(q));
            if q == p || self.p.topo.node_of(ProcId::new(q)) == my_node {
                self.procs[p].seen[q] = to;
                continue;
            }
            let from = self.procs[p].seen[q];
            for i in from + 1..=to {
                // `records` and `procs` are disjoint fields, so the
                // record's page list is walked in place.
                let Some(rec) = self.records[q].pages(i) else {
                    panic!("missing record for writer p{q} interval {i}")
                };
                for &page in rec {
                    page::notice(&mut self.procs[p].required, page, q as u32, i);
                    self.scratch_noticed.insert(page.index());
                }
            }
            self.procs[p].seen[q] = to;
        }

        // Conflict ([`Noticed::Conflict`]): the page's diff must reach
        // the home before it is fetched again, under a number no later
        // write to it shares. (A barrier exit has closed its interval.)
        let node = my_node.index();
        let (noticed, pt) = (&self.scratch_noticed, &self.procs[p].pt);
        let conflict = (self.procs[p].dirty.pages()).any(|pg| {
            noticed.contains(pg.index())
                && page::noticed(pt.access(pg), !self.writes_in_place(node, pg))
                    == Noticed::Conflict
        });
        if conflict {
            self.procs[p].clock = self.procs[p].clock.max(cursor);
            cursor = self.close_interval(cursor, p, bucket);
            cursor = self.flush_pending_of(cursor, p, Sink::Proc(p, bucket));
        }

        // Every page named, once each and ascending — a record's pages
        // ascend, but records overlap.
        let mut pages = std::mem::take(&mut self.scratch_pages);
        pages.clear();
        self.scratch_noticed
            .drain(|index| pages.push(PageId::new(index)));

        // Invalidate (grouped mprotect). Past the conflict, no page
        // named is written with a twin.
        let pt = &self.procs[p].pt;
        pages.retain(|&pg| page::noticed(pt.access(pg), false) == Noticed::Invalidate);
        if !pages.is_empty() {
            let mpro = self.book_mprotect(p, pages.len(), contiguous_groups(&pages));
            for &pg in &pages {
                self.procs[p].pt.set(pg, Access::None);
            }
            self.counters.invalidations += pages.len() as u64;
            self.charge(Sink::Proc(p, bucket), mpro);
            cursor += mpro;
        }
        self.scratch_pages = pages;
        cursor
    }

    /// After a grant (or local acquire): wait for the write notices
    /// covered by the new clock, then apply invalidations and resume.
    /// Always schedules a `Resume` — callers stop executing.
    pub(crate) fn enter_notice_stage(&mut self, t: Time, p: usize, reason: WaitReason) -> Flow {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        // Seeded bug: assume write notices always land before the
        // synchronization that covers them, i.e. skip the arrival
        // guard. Only adversarial schedules expose this.
        let unguarded = self.mutation == Some(crate::sched::Mutation::ReorderWriteNotice);
        let stage = self.notices.stage(node, &self.procs[p].vc);
        if unguarded || stage == Stage::Covered {
            self.complete_sync(t, p, reason);
        } else {
            self.procs[p].state = ProcState::Blocked(Block::NoticeWait { started: t, reason });
            if stage == Stage::Pull {
                self.pull_missing_notices(t, p);
            }
        }
        Flow::Stop
    }

    /// Pull: fetch the interval records the blocked acquirer is
    /// missing, one point-to-point remote fetch per lagging writer
    /// (§2's design alternative to eager push).
    fn pull_missing_notices(&mut self, t: Time, p: usize) {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let my_nic = NodeId::new(node).nic();
        for q in 0..self.p.topo.procs() {
            let want = self.procs[p].vc.get(ProcId::new(q));
            let Some(missing) = self.notices.pull(node, q, want) else {
                continue;
            };
            let qnode = self.p.topo.node_of(ProcId::new(q)).index();
            let header = self.p.proto.notice_header_bytes;
            let bytes = self.records[q].wire_bytes(missing, header).max(16);
            let tag = self.tag(Pending::Notice {
                node,
                writer: q,
                upto: want,
            });
            // Interval records live in exported protocol metadata:
            // always mapped, never an ODP fault.
            let post = self.comm.fetch(
                t,
                my_nic,
                NodeId::new(qnode).nic(),
                bytes,
                genima_nic::ALWAYS_MAPPED,
                tag,
            );
            self.absorb_post(post);
            self.counters.notice_messages += 1;
        }
    }

    /// Applies invalidations and resumes the process (the final stage
    /// of every acquire and barrier exit).
    pub(crate) fn complete_sync(&mut self, t: Time, p: usize, reason: WaitReason) {
        if self.comm.tracing() {
            let node = self.p.topo.node_of(ProcId::new(p)).index();
            let vc = self.procs[p].vc.lanes().to_vec();
            let arrived = self.notices.arrived(node).to_vec();
            self.comm.record(TraceEvent::SyncDone {
                at: t,
                proc: p,
                vc,
                arrived,
            });
        }
        let bucket = match reason {
            WaitReason::Lock => Bucket::AcqRel,
            WaitReason::Barrier => Bucket::Barrier,
        };
        let mut cursor = self.apply_invalidations(t, p, bucket);
        if reason == WaitReason::Lock {
            cursor += self.p.proto.acquire_overhead;
            self.procs[p].bd.acqrel += self.p.proto.acquire_overhead;
        }
        self.procs[p].clock = self.procs[p].clock.max(cursor);
        if reason == WaitReason::Barrier && self.procs[p].warmup_reset {
            self.procs[p].warmup_reset = false;
            self.procs[p].bd = Default::default();
        }
        self.procs[p].state = ProcState::Runnable;
        let clock = self.procs[p].clock;
        self.q.push(clock, SysEvent::Resume(p));
    }
}
