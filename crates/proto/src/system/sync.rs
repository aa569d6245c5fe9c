//! Intervals, write notices, locks and barriers.

#![allow(clippy::needless_range_loop)]

use genima_mem::{compute_diff_tracked, Access, Diff, PageId};
use genima_nic::{CasWord, CollId, LockId, Post, ReduceOp, Tag};
use genima_sim::{Dur, Time};

use super::{
    Block, Bucket, Flow, LockStrategy, Pending, ProcState, SvmSystem, SysEvent, WaitReason,
};
use crate::config::BarrierImpl;
use crate::ids::{BarrierId, NodeId, ProcId};
use crate::interval::{DirtyPage, IntervalRecord, PendingInterval};
use crate::trace::TraceEvent;
use crate::vclock::VClock;

/// Small fixed host costs not worth configuring.
const EPS: Dur = Dur::from_ns(500);

/// Who pays for protocol work done on behalf of others.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sink {
    /// A process pays on its own clock, into the given bucket.
    Proc(usize, Bucket),
    /// The node's protocol handler pays (Base interrupt paths); the
    /// work also steals compute from a victim processor.
    Handler(usize),
}

impl SvmSystem {
    fn charge(&mut self, sink: Sink, d: Dur) {
        match sink {
            Sink::Proc(p, bucket) => {
                self.procs[p].clock += d;
                match bucket {
                    Bucket::AcqRel => self.procs[p].bd.acqrel += d,
                    Bucket::Barrier => {
                        self.procs[p].bd.barrier += d;
                        self.procs[p].bd.barrier_protocol += d;
                    }
                }
            }
            Sink::Handler(node) => {
                self.node_steal(node, d);
            }
        }
    }

    /// Adds interrupt-handler work as compute-steal on a round-robin
    /// victim processor of `node`.
    pub(crate) fn node_steal(&mut self, node: usize, d: Dur) {
        let ppn = self.p.topo.procs_per_node;
        let victim = node * ppn + self.nodes[node].steal_rr % ppn;
        self.nodes[node].steal_rr = (self.nodes[node].steal_rr + 1) % ppn;
        self.procs[victim].steal += d;
    }

    // ----- intervals and diffs ---------------------------------------------

    /// Closes `p`'s open interval (if it wrote anything): creates the
    /// interval record, write-protects the dirty pages again, and
    /// returns the pending interval for later (or immediate) flushing.
    pub(crate) fn end_interval(&mut self, p: usize, bucket: Bucket) -> Option<PendingInterval> {
        if self.procs[p].dirty.is_empty() && self.procs[p].flushed_early.is_empty() {
            return None;
        }
        // The next interval opens on a buffer an earlier flush emptied.
        let next = self.spare_dirty.pop().unwrap_or_default();
        let dirty = std::mem::replace(&mut self.procs[p].dirty, next);
        let early = std::mem::take(&mut self.procs[p].flushed_early);
        let i = self.procs[p].vc.bump(ProcId::new(p));
        self.procs[p].seen[p] = i;
        // The dirty set is already sorted and unique; only an early
        // mid-interval flush forces a re-sort. The grouping pass below
        // reuses the same page list via the scratch buffer instead of
        // collecting the pages a second time.
        let mut scratch = std::mem::take(&mut self.scratch_pages);
        scratch.clear();
        scratch.extend(dirty.pages());
        let mut pages: Vec<PageId> = Vec::with_capacity(scratch.len() + early.len());
        pages.extend_from_slice(&scratch);
        if !early.is_empty() {
            pages.extend(early);
            pages.sort_unstable();
            pages.dedup();
        }
        self.records[p].insert(
            i,
            IntervalRecord {
                writer: ProcId::new(p),
                interval: i,
                pages,
            },
        );
        self.counters.intervals += 1;
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        self.nodes[node].arrived[p] = i;

        // Write-protect the dirty pages so the next interval faults
        // and twins again (coalesced mprotect).
        let groups = contiguous_groups(&scratch);
        let mpro = self.p.mem.mprotect.cost_grouped(scratch.len(), groups);
        for &pg in &scratch {
            self.procs[p].pt.set(pg, Access::Read);
        }
        self.counters.mprotect_calls += groups as u64;
        self.procs[p].bd.mprotect += mpro;
        self.charge(Sink::Proc(p, bucket), mpro);
        self.scratch_pages = scratch;

        Some(PendingInterval {
            interval: i,
            pages: dirty,
        })
    }

    /// Flushes one closed interval's diffs to the homes. `direct`
    /// selects direct diffs (one deposit per run) versus packed diff
    /// messages. Returns the advanced time cursor.
    pub(crate) fn flush_interval(
        &mut self,
        mut cursor: Time,
        p: usize,
        mut pi: PendingInterval,
        sink: Sink,
        direct: bool,
    ) -> Time {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let my_nic = NodeId::new(node).nic();
        for (page, mut dp) in pi.pages.drain() {
            self.counters.diffs += 1;
            // The diff operation's id is structural — any observer of
            // (writer, interval, page) derives the same id, so deposit
            // and apply sides agree without a handshake.
            let dop = genima_obs::op_diff_id(p as u64, pi.interval as u64, page.index() as u64);
            {
                // A future fetch of this page by this node must not
                // install a version older than this flush.
                let lf = self.nodes[node].local_flushed.entry(page).or_default();
                lf.raise(p as u32, pi.interval);
            }
            let cost = self.p.mem.diff_cost(dp.runs());
            self.charge(sink, cost);
            let diff_start = cursor;
            cursor += cost;
            self.obs_record(|o| {
                o.span_op(
                    genima_obs::SpanKind::DiffCompute,
                    node,
                    genima_obs::Track::Host,
                    diff_start,
                    diff_start + cost,
                    page.index() as u64,
                    dop,
                );
            });
            let diff = self.materialise_diff(node, page, &dp);
            let home = self.home_of(page).index();
            if home == node {
                // Local home: apply in place.
                let apply = self.p.mem.diff_apply;
                self.charge(sink, apply);
                cursor += apply;
                self.apply_diff_at_home(cursor, p, pi.interval, page, diff, false);
            } else if direct && self.p.hw.nic.scatter_gather {
                // §5 extension: one scatter-gather message carries all
                // runs plus the timestamp.
                let hn = NodeId::new(home).nic();
                let runs = dp.runs() as u32;
                let tag = self.tag_op(
                    Pending::DiffTsUpdate {
                        writer: p,
                        interval: pi.interval,
                        page,
                        diff,
                    },
                    dop,
                );
                let post = self
                    .vmmc
                    .deposit_gather(cursor, my_nic, hn, dp.bytes() + 16, runs, tag);
                cursor = self.absorb_post(post);
                self.counters.diff_run_messages += 1;
                self.obs_record(|o| {
                    o.instant_flow_op(
                        genima_obs::SpanKind::DirectDiffDeposit,
                        node,
                        genima_obs::Track::Host,
                        cursor,
                        page.index() as u64,
                        genima_obs::Flow {
                            id: genima_obs::flow_diff_id(
                                p as u64,
                                pi.interval as u64,
                                page.index() as u64,
                            ),
                            dir: genima_obs::FlowDir::Start,
                        },
                        dop,
                    );
                });
            } else if direct {
                // One deposit per contiguous run, then the timestamp.
                let hn = NodeId::new(home).nic();
                for (_, len) in dp.ranges.iter() {
                    let post = self.vmmc.deposit(cursor, my_nic, hn, len, Tag::NONE);
                    cursor = self.absorb_post(post);
                    self.counters.diff_run_messages += 1;
                }
                let tag = self.tag_op(
                    Pending::DiffTsUpdate {
                        writer: p,
                        interval: pi.interval,
                        page,
                        diff,
                    },
                    dop,
                );
                let post = self.vmmc.deposit(cursor, my_nic, hn, 16, tag);
                cursor = self.absorb_post(post);
                self.obs_record(|o| {
                    o.instant_flow_op(
                        genima_obs::SpanKind::DirectDiffDeposit,
                        node,
                        genima_obs::Track::Host,
                        cursor,
                        page.index() as u64,
                        genima_obs::Flow {
                            id: genima_obs::flow_diff_id(
                                p as u64,
                                pi.interval as u64,
                                page.index() as u64,
                            ),
                            dir: genima_obs::FlowDir::Start,
                        },
                        dop,
                    );
                });
            } else {
                // Packed diff in one host message (interrupts the home).
                let hn = NodeId::new(home).nic();
                let bytes = 16 + dp.bytes();
                let tag = self.tag_op(
                    Pending::DiffMsg {
                        writer: p,
                        interval: pi.interval,
                        page,
                        diff,
                    },
                    dop,
                );
                let post = self.vmmc.host_msg(cursor, my_nic, hn, bytes, tag);
                cursor = self.absorb_post(post);
            }
            // The twin is consumed by this flush; return its buffer to
            // the pool for the next twin/copy/reply on this node.
            if let Some(twin) = dp.twin.take() {
                self.pool.recycle(twin);
            }
            if let Sink::Proc(q, _) = sink {
                // Posting overhead already advanced `cursor` via
                // host_free; keep the process clock in step.
                self.procs[q].clock = self.procs[q].clock.max(cursor);
            }
        }
        self.spare_dirty.push(pi.pages);
        cursor
    }

    /// Computes the real diff content (data mode) for a dirty page.
    /// Only the byte ranges this writer recorded are scanned — a page
    /// whose interval wrote nothing costs nothing — and for a single
    /// writer the result is bit-identical to a full twin scan (the
    /// write path records every write in `dp.ranges`).
    fn materialise_diff(&self, node: usize, page: PageId, dp: &DirtyPage) -> Option<Diff> {
        if !self.p.data_mode {
            return None;
        }
        let twin = dp.twin.as_ref()?;
        let home = self.home_of(page).index();
        let cur = if home == node {
            self.home_pages.get(page).and_then(|h| h.data.as_ref())
        } else {
            self.nodes[node]
                .copies
                .get(&page)
                .and_then(|c| c.data.as_ref())
        }?;
        Some(compute_diff_tracked(twin, cur, &dp.ranges))
    }

    /// Flushes all closed-but-unflushed intervals of every process on
    /// `node` (the lock is about to leave the node, or a barrier
    /// requires global visibility).
    pub(crate) fn flush_node_pending(&mut self, mut cursor: Time, node: usize, sink: Sink) -> Time {
        let direct = self.p.features.dd;
        for i in 0..self.node_procs[node].len() {
            let p = self.node_procs[node][i];
            cursor = self.flush_pending_of(cursor, p, sink, direct);
        }
        cursor
    }

    /// Flushes `p`'s own closed intervals (barrier arrival).
    pub(crate) fn flush_proc_pending(&mut self, cursor: Time, p: usize, bucket: Bucket) -> Time {
        let direct = self.p.features.dd;
        self.flush_pending_of(cursor, p, Sink::Proc(p, bucket), direct)
    }

    /// Flushes `p`'s closed intervals oldest first and leaves it the
    /// emptied list (a flush closes no interval, so nothing is queued
    /// behind the ones being flushed).
    fn flush_pending_of(&mut self, mut cursor: Time, p: usize, sink: Sink, direct: bool) -> Time {
        let mut pending = std::mem::take(&mut self.procs[p].pending_intervals);
        for pi in pending.drain(..) {
            cursor = self.flush_interval(cursor, p, pi, sink, direct);
        }
        debug_assert!(self.procs[p].pending_intervals.is_empty());
        self.procs[p].pending_intervals = pending;
        cursor
    }

    /// Flushes everything a finishing process still holds.
    pub(crate) fn flush_everything(&mut self, p: usize) {
        if let Some(pi) = self.end_interval(p, Bucket::AcqRel) {
            self.procs[p].pending_intervals.push(pi);
        }
        let cursor = self.procs[p].clock;
        self.flush_proc_pending(cursor, p, Bucket::AcqRel);
    }

    // ----- write notices ----------------------------------------------------

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
        let bytes = {
            let rec = &self.records[p][&interval];
            rec.wire_bytes(self.p.proto.notice_header_bytes)
        };
        if self.p.hw.nic.broadcast && self.p.topo.nodes > 1 {
            // §5 extension: one posted descriptor, replicated by the NI.
            let mut dsts = Vec::new();
            for dst in 0..self.p.topo.nodes {
                if dst == node {
                    continue;
                }
                let tag = self.tag(Pending::Notice {
                    node: dst,
                    writer: p,
                    interval,
                });
                dsts.push((NodeId::new(dst).nic(), tag));
                self.counters.notice_messages += 1;
                self.nodes[node].sent_upto[dst][p] = interval;
            }
            let post = self.vmmc.broadcast_deposit(cursor, my_nic, &dsts, bytes);
            cursor = self.absorb_post(post);
        } else {
            for dst in 0..self.p.topo.nodes {
                if dst == node {
                    continue;
                }
                let tag = self.tag(Pending::Notice {
                    node: dst,
                    writer: p,
                    interval,
                });
                let post = self
                    .vmmc
                    .deposit(cursor, my_nic, NodeId::new(dst).nic(), bytes, tag);
                cursor = self.absorb_post(post);
                self.counters.notice_messages += 1;
                self.nodes[node].sent_upto[dst][p] = interval;
            }
        }
        self.procs[p].clock = self.procs[p].clock.max(cursor);
        cursor
    }

    /// Computes the piggyback payload carrying all records `from`
    /// knows that it has not yet sent `to`: returns the per-writer
    /// upper bounds and the payload size (Base protocol).
    pub(crate) fn piggyback(&mut self, from: usize, to: usize) -> (Vec<u32>, u32) {
        let nprocs = self.p.topo.procs();
        let mut upto = vec![0; nprocs];
        let mut bytes = 0;
        for q in 0..nprocs {
            let have = self.nodes[from].arrived[q];
            let sent = self.nodes[from].sent_upto[to][q];
            if have > sent {
                // Range-scan only the records that exist instead of
                // probing every interval number in the gap — barrier
                // arrivals at the manager hit this once per process.
                for r in self.records[q].range(sent + 1..=have).map(|(_, r)| r) {
                    bytes += r.wire_bytes(self.p.proto.notice_header_bytes);
                }
            }
            self.nodes[from].sent_upto[to][q] = have;
            upto[q] = have;
        }
        (upto, bytes)
    }

    /// Merges carried record visibility into a node's notice board.
    pub(crate) fn merge_upto(&mut self, t: Time, node: usize, upto: &[u32]) {
        if upto.is_empty() {
            return;
        }
        let mut advanced = false;
        for (q, &u) in upto.iter().enumerate() {
            if self.nodes[node].arrived[q] < u {
                self.nodes[node].arrived[q] = u;
                advanced = true;
            }
        }
        if advanced {
            self.check_notice_waiters(t, node);
        }
    }

    /// Returns `true` if all records needed by `vc` have arrived at
    /// `node`.
    fn notices_covered(&self, node: usize, vc: &VClock) -> bool {
        if self.mutation == Some(crate::sched::Mutation::ReorderWriteNotice) {
            // Seeded bug: assume write notices always land before the
            // synchronization that covers them, i.e. skip the arrival
            // guard. Only adversarial schedules expose this.
            return true;
        }
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
            // Comparing lanes in place avoids cloning every blocked
            // process's clock on every notice arrival.
            let covered = (0..self.p.topo.procs())
                .all(|q| self.nodes[node].arrived[q] >= self.procs[p].vc.get(ProcId::new(q)));
            if covered {
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
    pub(crate) fn apply_invalidations(
        &mut self,
        mut cursor: Time,
        p: usize,
        bucket: Bucket,
    ) -> Time {
        let nprocs = self.p.topo.procs();
        let my_node = self.p.topo.node_of(ProcId::new(p));
        let mut pages = std::mem::take(&mut self.scratch_pages);
        pages.clear();
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
                // record's page list is walked in place (the old code
                // cloned it per record).
                let rec = match self.records[q].get(&i) {
                    Some(r) => r,
                    None => panic!("missing record for writer p{q} interval {i}"),
                };
                for &page in &rec.pages {
                    let req = self.procs[p].required.entry(page).or_default();
                    req.raise(q as u32, i);
                    pages.push(page);
                }
            }
            self.procs[p].seen[q] = to;
        }
        pages.sort_unstable();
        pages.dedup();

        // Conflict: an incoming notice invalidates a page this process
        // is itself writing. Flush our diff first so it is not lost.
        let mut conflicted = std::mem::take(&mut self.scratch_conflicts);
        conflicted.clear();
        conflicted.extend(
            pages
                .iter()
                .copied()
                .filter(|&pg| self.procs[p].dirty.contains(pg)),
        );
        for &pg in &conflicted {
            cursor = self.flush_page_early(cursor, p, pg, bucket);
        }

        // Invalidate (grouped mprotect).
        pages.retain(|&pg| self.procs[p].pt.access(pg) != Access::None);
        if !pages.is_empty() {
            let groups = contiguous_groups(&pages);
            let mpro = self.p.mem.mprotect.cost_grouped(pages.len(), groups);
            for &pg in &pages {
                self.procs[p].pt.set(pg, Access::None);
            }
            self.counters.invalidations += pages.len() as u64;
            self.counters.mprotect_calls += groups as u64;
            self.procs[p].bd.mprotect += mpro;
            self.charge(Sink::Proc(p, bucket), mpro);
            cursor += mpro;
        }
        self.scratch_pages = pages;
        self.scratch_conflicts = conflicted;
        cursor
    }

    /// Flushes a single dirty page mid-interval (it is about to be
    /// invalidated under this process). Its diff is tagged with the
    /// *next* interval number; the page joins that interval's record
    /// when it closes.
    fn flush_page_early(&mut self, cursor: Time, p: usize, page: PageId, bucket: Bucket) -> Time {
        let Some(dp) = self.procs[p].dirty.remove(page) else {
            return cursor;
        };
        self.procs[p].flushed_early.push(page);
        let next_interval = self.procs[p].vc.get(ProcId::new(p)) + 1;
        let mut pages = self.spare_dirty.pop().unwrap_or_default();
        pages.insert(page, dp);
        let pi = PendingInterval {
            interval: next_interval,
            pages,
        };
        let direct = self.p.features.dd;
        self.flush_interval(cursor, p, pi, Sink::Proc(p, bucket), direct)
    }

    // ----- locks ------------------------------------------------------------

    /// The home node index of `lock` (mirrors the NI firmware's
    /// round-robin assignment).
    pub(crate) fn lock_home(&self, lock: LockId) -> usize {
        lock.index() % self.p.topo.nodes
    }

    /// Starts a lock acquire for `p`. Returns [`Flow::Stop`] when the
    /// process blocked.
    pub(crate) fn start_acquire(&mut self, now: Time, p: usize, l: LockId) -> Flow {
        if self.p.degraded && self.dead_locks[l.index()] {
            // Poisoned in an earlier degraded recovery (its firmware
            // slot or home cell cannot be safely re-entered): fail
            // fast and skip the guarded section.
            self.counters.failed_ops += 1;
            self.op_hist.lock.record(Dur::ZERO);
            self.procs[p].skipping = Some((l, 1));
            return Flow::Continue;
        }
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let nl = &mut self.nodes[node].locks[l.index()];
        if nl.holder.is_some() || !nl.local_waiters.is_empty() || nl.requesting {
            nl.local_waiters.push_back(p);
            let lop = self.next_lock_op();
            self.procs[p].state = ProcState::Blocked(Block::LockWait {
                lock: l,
                started: now,
                op: lop,
            });
            return Flow::Stop;
        }
        let nic = NodeId::new(node).nic();
        let owned = match self.lock_strategy {
            LockStrategy::HostChain => nl.owned,
            // The firmware is ground truth for token ownership.
            LockStrategy::NiChain => self.vmmc.comm().lock_owned_by(nic, l),
            // TAS over remote atomics has no ownership caching: every
            // acquire races on the home cell.
            LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait => false,
        };
        if owned {
            // Intra-node fast path: hardware synchronization only.
            self.counters.local_lock_acquires += 1;
            if self.lock_strategy == LockStrategy::NiChain {
                // Tell the firmware the host holds the token again so
                // an incoming transfer queues instead of granting.
                let post = self.vmmc.comm_mut().lock_local_hold(now, nic, l);
                self.absorb_post(post);
            }
            let nl = &mut self.nodes[node].locks[l.index()];
            nl.holder = Some(p);
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
        let nl = &mut self.nodes[node].locks[l.index()];
        nl.requesting = true;
        self.procs[p].state = ProcState::Blocked(Block::LockWait {
            lock: l,
            started: now,
            op: lop,
        });
        match self.lock_strategy {
            LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait => {
                self.atomic_lock_try(now, p, l);
            }
            LockStrategy::NiChain => {
                let tag = self.tag_op(Pending::NiLockWait { proc: p }, lop);
                let post = self.vmmc.comm_mut().lock_acquire(now, nic, l, tag);
                self.absorb_post(post);
            }
            LockStrategy::HostChain => {
                let home = self.lock_home(l);
                if home == node {
                    // The home structures are in local memory.
                    self.home_forward_lock(now + EPS, l, p, node, lop);
                } else {
                    let tag = self.tag_op(
                        Pending::LockRequestMsg {
                            lock: l,
                            proc: p,
                            requester: node,
                        },
                        lop,
                    );
                    let bytes = self.p.proto.control_msg_bytes;
                    let post = self
                        .vmmc
                        .host_msg(now, nic, NodeId::new(home).nic(), bytes, tag);
                    self.absorb_post(post);
                }
            }
        }
        Flow::Stop
    }

    /// Base: the lock home forwards the request to the chain tail.
    pub(crate) fn home_forward_lock(
        &mut self,
        t: Time,
        l: LockId,
        proc: usize,
        requester: usize,
        op: u64,
    ) {
        let prev = self.locks[l.index()].last_owner;
        self.locks[l.index()].last_owner = requester;
        let home = self.lock_home(l);
        let forward = Pending::LockForwardMsg {
            lock: l,
            proc,
            requester,
            owner: prev,
        };
        if prev == home {
            // The home itself owns the chain tail: service directly.
            self.q.push(t + EPS, SysEvent::Job(prev, forward, op));
        } else {
            let tag = self.tag_op(forward, op);
            let bytes = self.p.proto.control_msg_bytes;
            let post = self.vmmc.host_msg(
                t,
                NodeId::new(home).nic(),
                NodeId::new(prev).nic(),
                bytes,
                tag,
            );
            self.absorb_post(post);
        }
    }

    /// Base: the last owner services a forwarded request — grant now
    /// if the lock is free here, else queue the remote requester.
    pub(crate) fn owner_service_lock(
        &mut self,
        t: Time,
        node: usize,
        l: LockId,
        proc: usize,
        requester: usize,
        op: u64,
    ) {
        let nl = &mut self.nodes[node].locks[l.index()];
        if nl.owned && nl.holder.is_none() && nl.local_waiters.is_empty() {
            self.base_grant_from(t, node, l, proc, requester, Sink::Handler(node), op);
        } else {
            nl.remote_waiters.push_back((requester, proc, op));
        }
    }

    /// Base: builds and sends a lock grant (flushing lazy diffs
    /// first), handing the token to `requester`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn base_grant_from(
        &mut self,
        mut cursor: Time,
        owner: usize,
        l: LockId,
        proc: usize,
        requester: usize,
        sink: Sink,
        op: u64,
    ) -> Time {
        if !self.p.features.dd {
            // Lazy diffs flush when the lock leaves the node.
            cursor = self.flush_node_pending(cursor, owner, sink);
        }
        let vc = self.locks[l.index()].vc.clone();
        let (upto, rec_bytes) = if self.p.features.dw {
            (Vec::new(), 0)
        } else {
            self.piggyback(owner, requester)
        };
        self.nodes[owner].locks[l.index()].owned = false;
        let bytes = self.p.proto.control_msg_bytes + vc.wire_bytes() + rec_bytes;
        let tag = self.tag_op(
            Pending::LockGrantMsg {
                lock: l,
                proc,
                vc,
                upto,
            },
            op,
        );
        let post = self.vmmc.host_msg(
            cursor,
            NodeId::new(owner).nic(),
            NodeId::new(requester).nic(),
            bytes,
            tag,
        );
        cursor = self.absorb_post(post);
        cursor
    }

    /// Base: a lock grant reached the blocked requester.
    pub(crate) fn base_grant_received(
        &mut self,
        t: Time,
        proc: usize,
        l: LockId,
        vc: VClock,
        upto: Vec<u32>,
    ) {
        let node = self.p.topo.node_of(ProcId::new(proc)).index();
        self.merge_upto(t, node, &upto);
        let nl = &mut self.nodes[node].locks[l.index()];
        nl.owned = true;
        nl.requesting = false;
        nl.holder = Some(proc);
        self.procs[proc].vc.join(&vc);
        self.finish_lock_wait(t, proc, l);
    }

    /// Remote-atomics lock mode: issue one test-and-set attempt on the
    /// lock's home cell.
    pub(crate) fn atomic_lock_try(&mut self, t: Time, p: usize, l: LockId) {
        let lop = match &self.procs[p].state {
            ProcState::Blocked(Block::LockWait { op, .. }) => *op,
            ProcState::Runnable
            | ProcState::Done
            | ProcState::Blocked(
                Block::PageFault { .. } | Block::NoticeWait { .. } | Block::BarrierWait { .. },
            ) => {
                return; // superseded (e.g. a local handoff won the race)
            }
        };
        let tag = self.tag_op(Pending::AtomicLockTry { proc: p, lock: l }, lop);
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let post = self.atomic_lock_cell(t, node, l, true, tag);
        self.absorb_post(post);
    }

    /// Remote-atomics lock mode: one operation on the lock's home cell
    /// with the hardware's primitive — set it (`acquire`) or clear it.
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
                self.vmmc.comm_mut().masked_cas(t, src, home, cas, tag)
            }
            LockStrategy::AtomicSwapSpin => self
                .vmmc
                .comm_mut()
                .fetch_and_store(t, src, home, cell, new, tag),
            LockStrategy::HostChain | LockStrategy::NiChain => {
                unreachable!("{:?} keeps no home cell", self.lock_strategy)
            }
        }
    }

    /// Remote-atomics lock mode: clear the lock's home cell (release,
    /// or undo of a superseded win) — masked CAS(1 -> 0) on RDMA NICs,
    /// a plain store elsewhere.
    fn atomic_lock_clear(&mut self, t: Time, node: usize, l: LockId) -> Post {
        self.atomic_lock_cell(t, node, l, false, Tag::NONE)
    }

    /// Remote-atomics lock mode: a test-and-set attempt returned.
    pub(crate) fn atomic_lock_result(&mut self, t: Time, p: usize, l: LockId, old: u64) {
        if !matches!(
            self.procs[p].state,
            ProcState::Blocked(Block::LockWait { .. })
        ) {
            if old == 0 {
                // A superseded attempt must not strand the cell.
                let node = self.p.topo.node_of(ProcId::new(p)).index();
                let post = self.atomic_lock_clear(t, node, l);
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
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let nl = &mut self.nodes[node].locks[l.index()];
        nl.requesting = false;
        nl.holder = Some(p);
        self.procs[p].vc.join(&self.locks[l.index()].vc);
        self.finish_lock_wait(t, p, l);
    }

    /// NIL: the NI firmware granted the lock.
    pub(crate) fn ni_lock_granted(&mut self, t: Time, proc: usize, l: LockId) {
        let node = self.p.topo.node_of(ProcId::new(proc)).index();
        let nl = &mut self.nodes[node].locks[l.index()];
        nl.owned = true;
        nl.requesting = false;
        nl.holder = Some(proc);
        self.procs[proc].vc.join(&self.locks[l.index()].vc);
        self.finish_lock_wait(t, proc, l);
    }

    /// Common tail of a remote lock grant, after the caller joined the
    /// lock's timestamp into `proc`'s clock: charge the wait, then
    /// wait for notices / apply invalidations.
    fn finish_lock_wait(&mut self, t: Time, proc: usize, l: LockId) {
        let (started, lop) = match &self.procs[proc].state {
            ProcState::Blocked(Block::LockWait { lock, started, op }) if *lock == l => {
                (*started, *op)
            }
            other => panic!("p{proc} granted {l} while in state {other:?}"),
        };
        self.procs[proc].bd.lock += t.saturating_since(started);
        self.op_hist.lock.record(t.saturating_since(started));
        let wait_node = self.p.topo.node_of(ProcId::new(proc)).index();
        self.obs_record(|o| {
            o.span_op(
                genima_obs::SpanKind::LockAcquire,
                wait_node,
                genima_obs::Track::Host,
                started,
                t,
                l.index() as u64,
                lop,
            );
        });
        self.enter_notice_stage(t, proc, WaitReason::Lock);
    }

    /// After a grant (or local acquire): wait for the write notices
    /// covered by the new clock, then apply invalidations and resume.
    /// Always schedules a `Resume` — callers stop executing.
    pub(crate) fn enter_notice_stage(&mut self, t: Time, p: usize, reason: WaitReason) -> Flow {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        if self.notices_covered(node, &self.procs[p].vc) {
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
            let bytes: u32 = (from + 1..=want)
                .filter_map(|i| self.records[q].get(&i))
                .map(|r| r.wire_bytes(self.p.proto.notice_header_bytes))
                .sum::<u32>()
                .max(16);
            let tag = self.tag(Pending::NoticeFetch {
                node,
                writer: q,
                upto: want,
            });
            // Interval records live in exported protocol metadata:
            // always mapped, never an ODP fault.
            let post = self.vmmc.fetch(
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
        if self.trace.is_some() {
            let node = self.p.topo.node_of(ProcId::new(p)).index();
            let vc = self.procs[p].vc.clone();
            let arrived = self.nodes[node].arrived.clone();
            self.emit(TraceEvent::SyncDone {
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

    /// Releases a lock held by `p`, ending its interval, propagating
    /// coherence information per the feature set, and handing the lock
    /// over (locally, via firmware, or via the Base grant path).
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
        let mut cursor = now;

        // Close the interval and propagate coherence information.
        if let Some(pi) = self.end_interval(p, Bucket::AcqRel) {
            cursor = self.procs[p].clock;
            let interval = pi.interval;
            self.procs[p].pending_intervals.push(pi);
            if self.p.features.dw {
                cursor = self.broadcast_record(cursor, p, interval);
            }
        }
        cursor = self.procs[p].clock.max(cursor);

        // The lock's timestamp is the releaser's clock.
        self.locks[l.index()].vc.clone_from(&self.procs[p].vc);

        let nl = &mut self.nodes[node].locks[l.index()];
        nl.holder = None;
        if let Some(next) = nl.local_waiters.pop_front() {
            // Intra-node handoff: lazy diffs, hardware sync cost only.
            nl.holder = Some(next);
            self.counters.local_lock_acquires += 1;
            let t = cursor + self.p.proto.local_lock;
            let (started, lop) = match &self.procs[next].state {
                ProcState::Blocked(Block::LockWait { started, op, .. }) => (*started, *op),
                other => panic!("local waiter p{next} in state {other:?}"),
            };
            self.procs[next].bd.lock += t.saturating_since(started);
            self.op_hist.lock.record(t.saturating_since(started));
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
            self.procs[next].vc.join(&self.locks[l.index()].vc);
            self.enter_notice_stage(t, next, WaitReason::Lock);
        } else {
            // The lock may leave the node: flush diffs eagerly under
            // direct diffs.
            if self.p.features.dd {
                cursor = self.flush_node_pending(cursor, node, Sink::Proc(p, Bucket::AcqRel));
            }
            match self.lock_strategy {
                LockStrategy::AtomicSwapSpin | LockStrategy::AtomicCasWait => {
                    // Clear the home cell; the store must causally
                    // follow the timestamp update above, which the
                    // in-order firmware path guarantees.
                    let post = self.atomic_lock_clear(cursor, node, l);
                    cursor = self.absorb_post(post);
                }
                LockStrategy::NiChain => {
                    let nic = NodeId::new(node).nic();
                    let post = self.vmmc.comm_mut().lock_release(cursor, nic, l);
                    cursor = self.absorb_post(post);
                    // Firmware state is ground truth; mirror it now.
                    let owned = self.vmmc.comm().lock_owned_by(nic, l);
                    self.nodes[node].locks[l.index()].owned = owned;
                }
                LockStrategy::HostChain => {
                    let next = self.nodes[node].locks[l.index()].remote_waiters.pop_front();
                    if let Some((rnode, rproc, rop)) = next {
                        let sink = Sink::Proc(p, Bucket::AcqRel);
                        cursor = self.base_grant_from(cursor, node, l, rproc, rnode, sink, rop);
                    }
                    // else: keep the token ("the last owner keeps the lock").
                }
            }
        }
        self.procs[p].clock = self.procs[p].clock.max(cursor);
    }

    // ----- barriers ----------------------------------------------------------

    /// Process `p` arrives at barrier `b`: flush everything, notify
    /// the manager, block.
    pub(crate) fn barrier_arrive(&mut self, now: Time, p: usize, b: BarrierId) {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let mut cursor = now;
        if let Some(pi) = self.end_interval(p, Bucket::Barrier) {
            cursor = self.procs[p].clock;
            let interval = pi.interval;
            self.procs[p].pending_intervals.push(pi);
            if self.p.features.dw {
                cursor = self.broadcast_record(cursor, p, interval);
            }
        }
        cursor = self.procs[p].clock.max(cursor);
        cursor = self.flush_proc_pending(cursor, p, Bucket::Barrier);

        // Arrival notification: either to the node-0 manager (host
        // path) or into the NI combining tree. Only a message owns a
        // copy of the clock.
        let work = cursor.saturating_since(now);
        self.procs[p].bd.barrier += work;
        self.procs[p].bd.barrier_protocol += work;
        if let BarrierImpl::NiTree { .. } = self.p.barrier {
            self.procs[p].state = ProcState::Blocked(Block::BarrierWait {
                barrier: b,
                started: cursor,
            });
            cursor = self.coll_barrier_arrive(cursor, node, b, p);
        } else if node == 0 {
            self.procs[p].state = ProcState::Blocked(Block::BarrierWait {
                barrier: b,
                started: cursor,
            });
            let vc = self.procs[p].vc.clone();
            self.manager_note_arrival(cursor + EPS, b, p, vc, None);
        } else {
            self.counters.barrier_manager_msgs += 1;
            // Arrivals for episode N happen before its release bumps
            // the epoch, so they name epoch+1 — the same id the release
            // side derives after incrementing.
            let ep = self.barriers.get(&b).map(|r| r.epoch).unwrap_or(0);
            let bop = genima_obs::op_barrier_id(b.index() as u64, ep + 1);
            let my_nic = NodeId::new(node).nic();
            if self.p.features.dw {
                let tag = self.tag_op(
                    Pending::BarrierArriveMsg {
                        barrier: b,
                        proc: p,
                        vc: self.procs[p].vc.clone(),
                        upto: None,
                    },
                    bop,
                );
                let post = self
                    .vmmc
                    .deposit(cursor, my_nic, NodeId::new(0).nic(), 64, tag);
                cursor = self.absorb_post(post);
            } else {
                let (upto, rec_bytes) = self.piggyback(node, 0);
                let bytes =
                    self.p.proto.control_msg_bytes + self.procs[p].vc.wire_bytes() + rec_bytes;
                let tag = self.tag_op(
                    Pending::BarrierArriveMsg {
                        barrier: b,
                        proc: p,
                        vc: self.procs[p].vc.clone(),
                        upto: Some(upto),
                    },
                    bop,
                );
                let post = self
                    .vmmc
                    .host_msg(cursor, my_nic, NodeId::new(0).nic(), bytes, tag);
                cursor = self.absorb_post(post);
            }
            self.procs[p].state = ProcState::Blocked(Block::BarrierWait {
                barrier: b,
                started: cursor,
            });
        }
        self.procs[p].clock = self.procs[p].clock.max(cursor);
    }

    /// NI-tree barrier: register one local arrival; the node's *last*
    /// arrival posts the contribution into the firmware combining
    /// tree. The reduce vector carries the joined vector clock in its
    /// first `nprocs` lanes and the node's write-notice watermarks
    /// (`arrived`) in the next `nprocs` — max-reduced up the tree and
    /// broadcast down, this replaces both the manager's clock join and
    /// its piggyback bookkeeping.
    fn coll_barrier_arrive(&mut self, cursor: Time, node: usize, b: BarrierId, p: usize) -> Time {
        let nprocs = self.p.topo.procs();
        let entry = self.nodes[node]
            .coll_arrivals
            .entry(b)
            .or_insert_with(|| (0, VClock::new(nprocs)));
        entry.0 += 1;
        entry.1.join(&self.procs[p].vc);
        if entry.0 < self.p.topo.procs_per_node {
            return cursor;
        }
        let (_, joined) = self.nodes[node]
            .coll_arrivals
            .remove(&b)
            .expect("entry inserted above");
        let mut vals: Vec<u64> = (0..nprocs)
            .map(|q| joined.get(ProcId::new(q)) as u64)
            .collect();
        vals.extend(self.nodes[node].arrived.iter().map(|&a| a as u64));
        let coll = CollId::new(b.index() as u32);
        let nic = NodeId::new(node).nic();
        let epoch = self.vmmc.comm().coll_epoch(coll, nic);
        self.emit(TraceEvent::CollArrived {
            at: cursor,
            node,
            barrier: b.index(),
            epoch,
        });
        let post = self
            .vmmc
            .comm_mut()
            .coll_enter(cursor, nic, coll, ReduceOp::Max, &vals);
        self.absorb_post(post)
    }

    /// The NI fan-out released `node` from one epoch of the collective
    /// backing barrier `b`: split the combined reduce vector back into
    /// the joined vector clock and the global write-notice watermarks,
    /// then wake the node's waiters exactly as a manager release would.
    pub(crate) fn coll_completed(&mut self, t: Time, node: usize, coll: CollId, epoch: u32) {
        let b = BarrierId::new(coll.index());
        let nprocs = self.p.topo.procs();
        // The combined vector is borrowed from NI memory; decode it
        // into owned protocol state before touching anything else.
        let (joined, upto) = {
            let (res_epoch, vals) = self
                .vmmc
                .comm()
                .coll_result(coll)
                .expect("completed collective must hold a result");
            assert_eq!(
                res_epoch, epoch,
                "collective result advanced past the released epoch"
            );
            assert_eq!(vals.len(), 2 * nprocs, "reduce vector width mismatch");
            let mut joined = VClock::new(nprocs);
            for q in 0..nprocs {
                joined.set(ProcId::new(q), vals[q] as u32);
            }
            let upto: Vec<u32> = vals[nprocs..].iter().map(|&v| v as u32).collect();
            (joined, upto)
        };
        if node == 0 {
            // The root exits first (its release precedes the fan-out),
            // so episode-global bookkeeping lives here — mirroring the
            // manager's release point on the host path.
            self.counters.barriers += 1;
            if self.p.warmup_barrier == Some(b) {
                self.measure_from = t;
                self.counters = Default::default();
                self.op_hist = Default::default();
                self.serve_hist = Default::default();
                self.vmmc.comm_mut().reset_monitor();
                for p in 0..nprocs {
                    self.procs[p].warmup_reset = true;
                }
            }
        }
        self.emit(TraceEvent::CollReleased {
            at: t,
            node,
            barrier: b.index(),
            epoch,
        });
        let bop = genima_obs::op_barrier_id(b.index() as u64, epoch as u64);
        self.release_at_node(t, b, node, &joined, Some(upto), bop);
    }

    /// Manager-side barrier bookkeeping (runs at node 0, either as a
    /// handler job in Base or directly at deposit arrival in DW+).
    pub(crate) fn manager_note_arrival(
        &mut self,
        t: Time,
        b: BarrierId,
        proc: usize,
        vc: VClock,
        upto: Option<Vec<u32>>,
    ) {
        let _ = proc;
        if let Some(u) = upto {
            self.merge_upto(t, 0, &u);
        }
        let nprocs = self.p.topo.procs();
        let bar = self.barriers.entry(b).or_insert_with(|| super::BarrierRt {
            arrived: 0,
            joined: VClock::new(nprocs),
            epoch: 0,
        });
        bar.joined.join(&vc);
        bar.arrived += 1;
        if bar.arrived < nprocs {
            return;
        }
        // Everyone is here: release.
        let joined = std::mem::replace(&mut bar.joined, VClock::new(nprocs));
        bar.arrived = 0;
        bar.epoch += 1;
        let bop = genima_obs::op_barrier_id(b.index() as u64, bar.epoch);
        self.counters.barriers += 1;
        let warmup = self.p.warmup_barrier == Some(b);
        if warmup {
            self.measure_from = t;
            self.counters = Default::default();
            self.op_hist = Default::default();
            self.serve_hist = Default::default();
            self.vmmc.comm_mut().reset_monitor();
            for p in 0..nprocs {
                self.procs[p].warmup_reset = true;
            }
        }
        let mut cursor = t + EPS;
        for node in 0..self.p.topo.nodes {
            if node == 0 {
                self.release_at_node(cursor, b, 0, &joined, None, bop);
                continue;
            }
            self.counters.barrier_manager_msgs += 1;
            if self.p.features.dw {
                let tag = self.tag_op(
                    Pending::BarrierReleaseMsg {
                        barrier: b,
                        node,
                        vc: joined.clone(),
                        upto: None,
                    },
                    bop,
                );
                let bytes = 32 + joined.wire_bytes();
                let post = self.vmmc.deposit(
                    cursor,
                    NodeId::new(0).nic(),
                    NodeId::new(node).nic(),
                    bytes,
                    tag,
                );
                cursor = self.absorb_post(post);
            } else {
                let (upto, rec_bytes) = self.piggyback(0, node);
                let bytes = self.p.proto.control_msg_bytes + joined.wire_bytes() + rec_bytes;
                let tag = self.tag_op(
                    Pending::BarrierReleaseMsg {
                        barrier: b,
                        node,
                        vc: joined.clone(),
                        upto: Some(upto),
                    },
                    bop,
                );
                let post = self.vmmc.host_msg(
                    cursor,
                    NodeId::new(0).nic(),
                    NodeId::new(node).nic(),
                    bytes,
                    tag,
                );
                cursor = self.absorb_post(post);
            }
        }
    }

    /// Barrier release reached `node`: wake its waiting processes.
    pub(crate) fn release_at_node(
        &mut self,
        t: Time,
        b: BarrierId,
        node: usize,
        joined: &VClock,
        upto: Option<Vec<u32>>,
        op: u64,
    ) {
        if let Some(u) = upto {
            self.merge_upto(t, node, &u);
        }
        for i in 0..self.node_procs[node].len() {
            let p = self.node_procs[node][i];
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

/// Number of maximal runs of consecutive page ids in a sorted,
/// deduplicated list.
pub(crate) fn contiguous_groups(pages: &[PageId]) -> usize {
    let mut groups = 0;
    let mut prev: Option<usize> = None;
    for pg in pages {
        let i = pg.index();
        if prev != Some(i.wrapping_sub(1)) {
            groups += 1;
        }
        prev = Some(i);
    }
    groups
}
