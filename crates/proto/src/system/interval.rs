//! Intervals and diffs: closing a process's interval, flushing its
//! diffs to the homes by the run's [`DiffRoute`], and charging the
//! work.

use std::ops::Range;

use genima_mem::{compute_diff_tracked, Access, Diff, PageId};
use genima_nic::{MsgKind, Tag};
use genima_obs::{flow_diff_id, op_diff_id, FlowDir, SpanKind, Track};
use genima_sim::{Dur, Time};

use super::page;
use super::{Bucket, Pending, Sink, SvmParams, SvmSystem};
use crate::ids::{NodeId, ProcId};
use crate::interval::{DirtyPage, PendingInterval};

/// How a closed interval's diffs reach the homes, and where a release
/// flushes them. Resolved once per run, in `SvmSystem::new`: the choice
/// is the rung's and, for `gather`, the NI's. A page whose home is the
/// writer's own node takes no message on any route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DiffRoute {
    /// Base, DW and DW+RF: one packed host message per page, which
    /// interrupts the home. A node's diffs wait until a lock leaves the
    /// node (the host chain's departure) or a barrier, so a hand-over
    /// to a co-located process moves none.
    Lazy,
    /// DW+RF+DD and GeNIMA: direct diffs, deposited into the home copy
    /// one per contiguous run and then the timestamp, or (`gather`,
    /// paper §5's scatter-gather) all of a page's runs and the
    /// timestamp in one message. The paper's order: a release that
    /// lets the lock leave the node flushes every local writer's diffs
    /// first, so the critical section includes them (paper §3.3).
    Eager { gather: bool },
    /// GeNIMA-2025: deposited as [`DiffRoute::Eager`], but the release
    /// hands the lock over first and then flushes its own diffs, on
    /// both branches, and re-protects. Timestamp and write notices are
    /// posted before the hand-over; the diffs are ordered by nothing
    /// but the version check: a fetched copy that does not cover the
    /// reader's required version is refetched (`page::fetched`), and
    /// at the home the reader waits on the page until `page::raise_home`
    /// covers it (DESIGN.md §10.1).
    HandsOverFirst { gather: bool },
}

impl DiffRoute {
    /// The route a run takes: lazy below direct diffs, then the rung's
    /// release order, gathered where the NI can.
    pub(crate) fn of(p: &SvmParams) -> DiffRoute {
        let gather = p.hw.nic.scatter_gather;
        if !p.features.direct_diffs() {
            DiffRoute::Lazy
        } else if p.features.hands_over_first() {
            DiffRoute::HandsOverFirst { gather }
        } else {
            DiffRoute::Eager { gather }
        }
    }
}

impl SvmSystem {
    pub(crate) fn charge(&mut self, sink: Sink, d: Dur) {
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

    /// Books one `mprotect` of `pages` pages in `calls` coalesced calls
    /// to `p` — Table 2's mprotect time and the call count — and
    /// returns its cost, which the caller charges to a bucket.
    pub(crate) fn book_mprotect(&mut self, p: usize, pages: usize, calls: usize) -> Dur {
        let cost = self.p.hw.host.mprotect.cost_grouped(pages, calls);
        self.procs[p].bd.mprotect += cost;
        self.counters.mprotect_calls += calls as u64;
        cost
    }

    /// Adds interrupt-handler work as compute-steal on a round-robin
    /// victim processor of `node`.
    pub(crate) fn node_steal(&mut self, node: usize, d: Dur) {
        let ppn = self.p.topo.procs_per_node;
        let victim = node * ppn + self.nodes[node].steal_rr % ppn;
        self.nodes[node].steal_rr = (self.nodes[node].steal_rr + 1) % ppn;
        self.procs[victim].steal += d;
    }

    /// Closes `p`'s open interval (if it wrote anything): creates the
    /// interval record, raises the home copy of every page written in
    /// place and advises the NI to map those pages, write-protects the
    /// dirty pages again (recording the in-place runs among them), and
    /// queues the rest for later (or immediate) flushing. This is the
    /// *state* of closing only. Returns the closed interval's number
    /// and what the re-protect and the advice cost (nothing, if nothing
    /// was closed), which the caller charges with
    /// [`SvmSystem::charge_reprotect`] at the point its order of steps
    /// says — a process is sequential, so nothing observes its page
    /// table between the two.
    pub(crate) fn end_interval(&mut self, p: usize) -> (Option<u32>, CloseCost) {
        if self.procs[p].dirty.is_empty() {
            return (None, CloseCost::default());
        }
        // The next interval opens on a buffer an earlier flush emptied.
        let next = self.spare_dirty.pop().unwrap_or_default();
        let mut dirty = std::mem::replace(&mut self.procs[p].dirty, next);
        let i = self.procs[p].vc.bump(ProcId::new(p));
        self.procs[p].seen[p] = i;
        // The dirty set is already sorted and unique: its page list,
        // collected once into the scratch buffer, is the record and
        // serves the grouping pass below.
        let mut scratch = std::mem::take(&mut self.scratch_pages);
        scratch.clear();
        scratch.extend(dirty.pages());
        debug_assert_eq!(self.records[p].last() + 1, i);
        self.records[p].push(&scratch);
        self.counters.intervals += 1;
        self.notices.closed(p, i);
        let node = self.p.topo.node_of(ProcId::new(p)).index();

        // A page written in place is already in the home copy: the
        // interval's close is its update, and it has nothing to flush.
        // The home also advises its NI to map each run of such pages
        // (one call per run), so the first remote fetch of one takes no
        // paging fault: a reader may only fetch it after a
        // synchronisation that follows this close (DESIGN.md §10.5).
        let t = self.procs[p].clock;
        let nic = NodeId::new(node).nic();
        let mut advice = Dur::ZERO;
        self.for_each_in_place_run(node, &scratch, |sys, run| {
            for pg in run.clone() {
                sys.raise_home_version(t, p, i, PageId::new(pg));
            }
            advice += sys.comm.advise(nic, run.start as u64..run.end as u64);
        });
        dirty.retain(|pg| !self.writes_in_place(node, pg));
        if dirty.is_empty() {
            // Every page went in place: the next interval keeps this
            // buffer, and the record queues the empty one it took.
            std::mem::swap(&mut dirty, &mut self.procs[p].dirty);
        }

        // Write-protect the dirty pages so the next interval faults
        // and twins again (coalesced mprotect), priced over the pages
        // it re-protects. A page written in place and invalidated since
        // stays invalid: its home copy is waiting for another writer's
        // diff.
        let pt = &mut self.procs[p].pt;
        scratch.retain(|&pg| {
            let writable = pt.access(pg) == Access::ReadWrite;
            if writable {
                pt.set(pg, Access::Read);
            }
            writable
        });
        let reprotect = (scratch.len(), contiguous_groups(&scratch));
        // Record the in-place runs among the re-protected pages, so
        // that a write to a run's first page re-opens the whole run
        // ([`SvmSystem::reopen_run`]).
        self.for_each_in_place_run(node, &scratch, |sys, run| {
            sys.procs[p].in_place.closed(run);
        });
        self.scratch_pages = scratch;

        self.procs[p].pending_intervals.push(PendingInterval {
            interval: i,
            pages: dirty,
        });
        (Some(i), CloseCost { reprotect, advice })
    }

    /// Calls `f` on each maximal run of consecutive pages among the
    /// ascending `pages` that `node` writes in place. A 1999 column
    /// writes no page in place, so it calls nothing.
    fn for_each_in_place_run(
        &mut self,
        node: usize,
        pages: &[PageId],
        mut f: impl FnMut(&mut Self, Range<usize>),
    ) {
        let mut open: Option<Range<usize>> = None;
        for &pg in pages {
            let (i, in_place) = (pg.index(), self.writes_in_place(node, pg));
            if let Some(run) = open.as_mut().filter(|run| in_place && run.end == i) {
                run.end += 1;
                continue;
            }
            if let Some(run) = open.take() {
                f(self, run);
            }
            open = in_place.then_some(i..i + 1);
        }
        if let Some(run) = open {
            f(self, run);
        }
    }

    /// Charges `p` what closing an interval ([`Self::end_interval`])
    /// cost it: the re-protect, which is Table 2's mprotect time, and
    /// the prefetch advice, which is the close's alone.
    pub(crate) fn charge_reprotect(&mut self, p: usize, bucket: Bucket, cost: CloseCost) {
        let (pages, calls) = cost.reprotect;
        let mprotect = self.book_mprotect(p, pages, calls);
        self.charge(Sink::Proc(p, bucket), mprotect + cost.advice);
    }

    /// The first step of a barrier arrival: close `p`'s interval,
    /// re-protect on the spot and announce it. Returns the advanced
    /// time cursor.
    pub(crate) fn close_interval(&mut self, now: Time, p: usize, bucket: Bucket) -> Time {
        let (closed, reprotect) = self.end_interval(p);
        self.charge_reprotect(p, bucket, reprotect);
        self.announce_interval(now, p, closed)
    }

    /// Flushes one closed interval's diffs to the homes by the run's
    /// [`DiffRoute`]. Returns the advanced time cursor.
    fn flush_interval(
        &mut self,
        mut cursor: Time,
        p: usize,
        mut pi: PendingInterval,
        sink: Sink,
    ) -> Time {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let my_nic = NodeId::new(node).nic();
        for (page, mut dp) in pi.pages.drain() {
            self.counters.diffs += 1;
            // The diff operation's id is structural — any observer of
            // (writer, interval, page) derives the same id, so deposit
            // and apply sides agree without a handshake.
            let dop = op_diff_id(p as u64, pi.interval as u64, page.index() as u64);
            let lf = &mut self.nodes[node].local_flushed;
            page::flushed(lf, page, p as u32, pi.interval);
            let cost = self.p.hw.host.diff_cost(dp.runs());
            self.charge(sink, cost);
            let diff_start = cursor;
            cursor += cost;
            self.obs_record(|o| {
                o.span_op(
                    SpanKind::DiffCompute,
                    node,
                    Track::Host,
                    diff_start,
                    diff_start + cost,
                    page.index() as u64,
                    dop,
                );
            });
            let diff = self.materialise_diff(node, page, &dp);
            let home = self.home_of(page).index();
            let hn = NodeId::new(home).nic();
            if home == node {
                // Local home, twinned: no message — the home diffs its
                // own write and applies the diff to the home copy,
                // stamped with this flush's cursor.
                let apply = self.p.hw.host.diff_apply;
                self.charge(sink, apply);
                cursor += apply;
                self.apply_diff_at_home(cursor, p, pi.interval, page, diff, false);
            } else {
                let msg = Pending::Diff {
                    writer: p,
                    interval: pi.interval,
                    page,
                    diff,
                };
                let tag = self.tag_op(msg, dop);
                match self.diff_route {
                    DiffRoute::Lazy => {
                        // Packed diff in one host message (interrupts
                        // the home).
                        let bytes = 16 + dp.bytes();
                        cursor = self.send(cursor, my_nic, hn, bytes, MsgKind::HostMsg, tag);
                    }
                    DiffRoute::Eager { gather } | DiffRoute::HandsOverFirst { gather } => {
                        if gather {
                            // §5 extension: one scatter-gather message
                            // carries all runs plus the timestamp.
                            let (bytes, runs) = (dp.bytes() + 16, dp.runs() as u32);
                            let kind = MsgKind::GatherDeposit { runs };
                            cursor = self.send(cursor, my_nic, hn, bytes, kind, tag);
                            self.counters.diff_run_messages += 1;
                        } else {
                            // One deposit per contiguous run, then the
                            // timestamp.
                            for (_, len) in dp.ranges.iter() {
                                let kind = MsgKind::Deposit;
                                cursor = self.send(cursor, my_nic, hn, len, kind, Tag::NONE);
                                self.counters.diff_run_messages += 1;
                            }
                            cursor = self.send(cursor, my_nic, hn, 16, MsgKind::Deposit, tag);
                        }
                        // The deposit starts a flow arrow; the apply at
                        // the home finishes it under the same id.
                        let id = flow_diff_id(p as u64, pi.interval as u64, page.index() as u64);
                        self.obs_record(|o| {
                            o.instant_flow_op(
                                SpanKind::DirectDiffDeposit,
                                node,
                                Track::Host,
                                cursor,
                                page.index() as u64,
                                genima_obs::Flow {
                                    id,
                                    dir: FlowDir::Start,
                                },
                                dop,
                            );
                        });
                    }
                }
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
        let cur = self.node_copy(node, page)?.data.as_ref()?;
        Some(compute_diff_tracked(twin, cur, &dp.ranges))
    }

    /// Flushes all closed-but-unflushed intervals of every process on
    /// `node` (the lock is about to leave the node, or a barrier
    /// requires global visibility).
    pub(crate) fn flush_node_pending(&mut self, mut cursor: Time, node: usize, sink: Sink) -> Time {
        for p in self.p.topo.procs_of(NodeId::new(node)) {
            cursor = self.flush_pending_of(cursor, p.index(), sink);
        }
        cursor
    }

    /// Flushes `p`'s closed intervals oldest first and leaves it the
    /// emptied list (a flush closes no interval, so nothing is queued
    /// behind the ones being flushed).
    pub(crate) fn flush_pending_of(&mut self, mut cursor: Time, p: usize, sink: Sink) -> Time {
        let mut pending = std::mem::take(&mut self.procs[p].pending_intervals);
        for pi in pending.drain(..) {
            cursor = self.flush_interval(cursor, p, pi, sink);
        }
        debug_assert!(self.procs[p].pending_intervals.is_empty());
        self.procs[p].pending_intervals = pending;
        cursor
    }

    /// Flushes everything a finishing process still holds. Nobody
    /// synchronises with it again, so its last interval is closed but
    /// not announced.
    pub(crate) fn flush_everything(&mut self, p: usize) {
        let (_, reprotect) = self.end_interval(p);
        self.charge_reprotect(p, Bucket::AcqRel, reprotect);
        let cursor = self.procs[p].clock;
        self.flush_pending_of(cursor, p, Sink::Proc(p, Bucket::AcqRel));
    }
}

/// What closing an interval costs its process, charged with
/// [`SvmSystem::charge_reprotect`].
#[derive(Clone, Copy, Default)]
pub(crate) struct CloseCost {
    /// Re-protecting the dirty pages: pages, coalesced calls.
    pub(crate) reprotect: (usize, usize),
    /// Advising the NI to map the home pages written in place (ODP
    /// prefetch; zero on hardware that pins all memory).
    pub(crate) advice: Dur,
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
