//! Write notices: how interval records reach other nodes (eager
//! deposit, piggyback on synchronisation messages, or pull), and the
//! final stage of every acquire and barrier exit — wait for the
//! notices the new clock covers, invalidate, resume.

use genima_mem::{Access, PageId};
use genima_nic::{MsgKind, TraceEvent};
use genima_sim::Time;

use super::interval::contiguous_groups;
use super::page::{self, Noticed};
use super::{Block, Bucket, Flow, Pending, ProcState, Sink, SvmSystem, SysEvent, WaitReason};
use crate::ids::{NodeId, ProcId};
use crate::vclock::VClock;

impl SvmSystem {
    /// Eagerly broadcasts an interval record to every other node via
    /// remote deposit (the DW mechanism).
    pub(crate) fn broadcast_record(&mut self, mut cursor: Time, p: usize, interval: u32) -> Time {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        if self.p.proto.pull_notices {
            // Pull mode (§2's alternative): nothing is pushed at the
            // release; acquirers fetch what they need.
            return cursor;
        }
        let my_nic = NodeId::new(node).nic();
        let header = self.p.proto.notice_header_bytes;
        let bytes = self.records[p].wire_bytes(interval - 1..interval, header);
        // §5 extension: one posted descriptor, replicated by the NI.
        let replicate = self.p.hw.nic.broadcast && self.p.topo.nodes > 1;
        let mut dsts = Vec::new();
        for dst in (0..self.p.topo.nodes).filter(|&dst| dst != node) {
            let tag = self.tag(Pending::Notice {
                node: dst,
                writer: p,
                interval,
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

    /// Computes the piggyback payload carrying all records `from`
    /// knows that it has not yet sent `to`: returns the per-writer
    /// upper bounds and the payload size (Base protocol).
    fn piggyback(&mut self, from: usize, to: usize) -> (Vec<u32>, u32) {
        let mut upto = self.spare_upto.pop().unwrap_or_default();
        upto.extend_from_slice(&self.nodes[from].arrived);
        let mut bytes = 0;
        for (q, &have) in upto.iter().enumerate() {
            let sent = std::mem::replace(&mut self.nodes[from].sent_upto[to][q], have);
            if have > sent {
                bytes += self.records[q].wire_bytes(sent..have, self.p.proto.notice_header_bytes);
            }
        }
        (upto, bytes)
    }

    /// Sends one synchronisation control message (barrier arrival,
    /// barrier release, lock grant) from node `from` to node `to`.
    /// With `deposit_bytes` it is a remote deposit of that size — the
    /// DW barrier path, whose notices travel on their own. Otherwise
    /// it is a host message carrying a `vc_bytes` timestamp and, unless
    /// DW already pushed them, the piggybacked notices `to` has not
    /// been sent. `make` builds the message around the piggyback.
    /// Returns the advanced time cursor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_sync_msg(
        &mut self,
        cursor: Time,
        from: usize,
        to: usize,
        deposit_bytes: Option<u32>,
        vc_bytes: u32,
        op: u64,
        make: impl FnOnce(Option<Vec<u32>>) -> Pending,
    ) -> Time {
        let (src, dst) = (NodeId::new(from).nic(), NodeId::new(to).nic());
        if let Some(bytes) = deposit_bytes {
            let tag = self.tag_op(make(None), op);
            self.send(cursor, src, dst, bytes, MsgKind::Deposit, tag)
        } else {
            let (upto, rec_bytes) = if self.p.features.eager_notices() {
                (None, 0)
            } else {
                let (upto, bytes) = self.piggyback(from, to);
                (Some(upto), bytes)
            };
            let bytes = self.p.proto.control_msg_bytes + vc_bytes + rec_bytes;
            let tag = self.tag_op(make(upto), op);
            self.send(cursor, src, dst, bytes, MsgKind::HostMsg, tag)
        }
    }

    /// Merges carried record visibility into a node's notice board.
    pub(crate) fn merge_upto(&mut self, t: Time, node: usize, upto: Option<Vec<u32>>) {
        let Some(mut upto) = upto else { return };
        let mut advanced = false;
        for (q, u) in upto.drain(..).enumerate() {
            if self.nodes[node].arrived[q] < u {
                self.nodes[node].arrived[q] = u;
                advanced = true;
            }
        }
        self.spare_upto.push(upto);
        if advanced {
            self.check_notice_waiters(t, node);
        }
    }

    /// Returns `true` if all records needed by `vc` have arrived at
    /// `node`.
    fn notices_covered(&self, node: usize, vc: &VClock) -> bool {
        (0..self.p.topo.procs()).all(|q| self.nodes[node].arrived[q] >= vc.get(ProcId::new(q)))
    }

    /// Wakes processes whose notice flags are now satisfied.
    pub(crate) fn check_notice_waiters(&mut self, t: Time, node: usize) {
        for i in 0..self.node_procs[node].len() {
            let p = self.node_procs[node][i];
            let (started, reason) = match &self.procs[p].state {
                ProcState::Blocked(Block::NoticeWait { started, reason }) => (*started, *reason),
                ProcState::Runnable
                | ProcState::Done
                | ProcState::Blocked(
                    Block::PageFault { .. } | Block::LockWait { .. } | Block::BarrierWait { .. },
                ) => continue,
            };
            if self.notices_covered(node, &self.procs[p].vc) {
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
        if unguarded || self.notices_covered(node, &self.procs[p].vc) {
            self.complete_sync(t, p, reason);
        } else {
            self.procs[p].state = ProcState::Blocked(Block::NoticeWait { started: t, reason });
            if self.p.proto.pull_notices {
                self.pull_missing_notices(t, p);
            }
        }
        Flow::Stop
    }

    /// Pull mode: fetch the interval records the blocked acquirer is
    /// missing, one point-to-point remote fetch per lagging writer's
    /// node (§2's design alternative to eager push).
    fn pull_missing_notices(&mut self, t: Time, p: usize) {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let my_nic = NodeId::new(node).nic();
        for q in 0..self.p.topo.procs() {
            let want = self.procs[p].vc.get(ProcId::new(q));
            if self.nodes[node].arrived[q] >= want {
                continue;
            }
            let qnode = self.p.topo.node_of(ProcId::new(q)).index();
            debug_assert_ne!(qnode, node, "local records are always arrived");
            // The writer's node holds every record the releaser's
            // clock covers (the release happened before this acquire).
            let have = self.nodes[qnode].arrived[q];
            debug_assert!(have >= want);
            let from = self.nodes[node].arrived[q];
            let header = self.p.proto.notice_header_bytes;
            let bytes = self.records[q].wire_bytes(from..want, header).max(16);
            let tag = self.tag(Pending::NoticeFetch {
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
            let arrived = self.nodes[node].arrived.clone();
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
