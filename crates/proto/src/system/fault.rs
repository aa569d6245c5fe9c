//! Page faults, fetches, and diff application at the home.

use std::ops::Range;

use genima_mem::{Access, Diff, Page, PageId, PagePool};
use genima_nic::{LockId, MsgKind, Tag, TraceEvent};
use genima_sim::{Dur, Time};

use super::home::UNWRITTEN;
use super::page::{self, Fault, Fetched, Need, Request};
use super::{Block, Flow, NodeRt, Pending, ProcRt, ProcState, SvmSystem, SysEvent, Waiters};
use crate::ids::{NodeId, ProcId};
use crate::interval::DirtyPage;
use crate::ops::Op;
use crate::version::VersionMap;

impl SvmSystem {
    /// Handles a read or write fault on `page` by process `p` at
    /// global time `now` (the process clock equals `now`).
    ///
    /// Returns [`Flow::Continue`] when the fault resolved
    /// synchronously (local page, cached copy, or protection upgrade)
    /// and [`Flow::Stop`] when the process blocked on a remote
    /// transaction; in the latter case `(op, prog)` is parked.
    pub(crate) fn start_fault(
        &mut self,
        now: Time,
        p: usize,
        page: PageId,
        write: bool,
        op: Op,
        prog: u64,
    ) -> Flow {
        self.counters.faults += 1;
        let trap = self.p.proto.fault_trap;
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        let acc = self.procs[p].pt.access(page);

        // Pure protection upgrade: page is readable, write needs a twin
        // — unless it starts a run written in place before, which then
        // re-opens whole in one trap (DESIGN.md §10.3).
        if write && acc == Access::Read {
            let (twin, mpro, opened) = match self.procs[p].in_place.write_fault(page.index()) {
                Some(run) => (Dur::ZERO, self.reopen_run(p, node, run.clone()), run),
                None => {
                    let twin = self.twin_cost(node, page);
                    self.make_writable(p, node, page);
                    let one = page.index()..page.index() + 1;
                    (twin, self.book_mprotect(p, 1, 1), one)
                }
            };
            self.opened_in_place(p, node, opened);
            let cost = trap + twin + mpro;
            self.procs[p].clock += cost;
            self.procs[p].bd.acqrel += cost;
            return Flow::Continue;
        }

        let at_home = self.home_of(page).index() == node;
        let fetching = self.nodes[node].inflight.get(page).is_some();
        let copy = self.node_copy(node, page).map(|c| &c.ts);
        let decision = page::fault(copy, self.reader_need(node, p, page), at_home, fetching);
        if decision == Fault::Hit {
            // Valid copy on the node: protection change only.
            let (finish, twin) = self.map_faulted(p, node, page, write);
            self.procs[p].clock += trap + finish + twin;
            self.procs[p].bd.data += trap + finish;
            return Flow::Continue;
        }

        // Block: at the home until the missing diffs reach its copy,
        // elsewhere on a fetch. A process joining an existing wait
        // shares the first waiter's op, so the whole group traces as
        // one operation; the first allocates a fresh one.
        self.procs[p].clock += trap;
        self.procs[p].bd.data += trap;
        self.procs[p].cur = Some((op, prog));
        let lead = match decision {
            Fault::AwaitHome => {
                let waiters = self.home_pages.waiters.get(page);
                waiters.and_then(|w| w.first()).copied()
            }
            Fault::Join => self.nodes[node].inflight.get(page).map(|w| w.lead),
            Fault::Fetch | Fault::Hit => None,
        };
        let fetch_op = match lead {
            Some(lead) => self.fetch_op_of(lead),
            None => self.next_fetch_op(),
        };
        self.procs[p].state = ProcState::Blocked(Block::PageFault {
            page,
            write,
            started: now,
            op: fetch_op,
        });
        match decision {
            Fault::AwaitHome => self.home_pages.waiters.slot(page).push(p),
            Fault::Join => {
                let waiters = self.nodes[node].inflight.get_mut(page);
                let waiters = waiters.expect("a joined fetch is in flight");
                waiters.join(&mut self.procs, p);
            }
            Fault::Fetch => {
                self.nodes[node].inflight.insert(page, Waiters::new(p));
                if self.p.features.remote_fetch() {
                    self.issue_rf(now, p, page);
                } else {
                    let mut required = self.spare_versions.pop().unwrap_or_default();
                    self.reader_need(node, p, page).build_into(&mut required);
                    self.request_page(now, node, page, required, fetch_op);
                }
            }
            Fault::Hit => unreachable!("a hit returned above"),
        }
        Flow::Stop
    }

    /// Base: asks `page`'s home for a copy at `required` or newer, on
    /// behalf of fetch op `op`.
    fn request_page(&mut self, t: Time, node: usize, page: PageId, required: VersionMap, op: u64) {
        let home = self.home_of(page);
        let tag = self.tag_op(
            Pending::PageRequestMsg {
                requester: node,
                page,
                required,
            },
            op,
        );
        let bytes = self.p.proto.control_msg_bytes;
        let nic = NodeId::new(node).nic();
        self.send(t, nic, home.nic(), bytes, MsgKind::HostMsg, tag);
    }

    /// A fetched version did not cover what its waiters need: count
    /// the retry and mark it on fetch op `op`'s timeline.
    fn note_fetch_retry(&mut self, t: Time, node: usize, page: PageId, op: u64) {
        self.counters.fetch_retries += 1;
        self.obs_record(|o| {
            o.instant_op(
                genima_obs::SpanKind::FetchRetry,
                node,
                genima_obs::Track::Host,
                t,
                page.index() as u64,
                op,
            );
        });
    }

    /// What a write fault on `page` at `node` pays for its twin:
    /// nothing when the write goes into the home copy in place.
    fn twin_cost(&self, node: usize, page: PageId) -> Dur {
        if self.writes_in_place(node, page) {
            Dur::ZERO
        } else {
            self.p.hw.host.twin_copy
        }
    }

    /// Re-opens every page of `run` — an in-place run `p` re-protected
    /// at an earlier close, or its lock scope — that `p` still holds
    /// read-only: writable and dirty, with no twin, whether or not the
    /// interval writes it. A page invalidated since stays invalid.
    /// Books the coalesced `mprotect` and returns what it cost.
    pub(crate) fn reopen_run(&mut self, p: usize, node: usize, run: Range<usize>) -> Dur {
        let (mut pages, mut calls, mut after_open) = (0, 0, false);
        for page in run.map(PageId::new) {
            let open = self.procs[p].pt.access(page) == Access::Read;
            if open {
                debug_assert!(self.writes_in_place(node, page));
                self.make_writable(p, node, page);
                pages += 1;
                calls += usize::from(!after_open);
            }
            after_open = open;
        }
        self.book_mprotect(p, pages, calls)
    }

    /// Tells `p`'s in-place machine that a write fault made `opened`
    /// writable, if the pages are written in place: they may join the
    /// scope of the lock `p` holds (DESIGN.md §10.4).
    fn opened_in_place(&mut self, p: usize, node: usize, opened: Range<usize>) {
        if self.writes_in_place(node, PageId::new(opened.start)) {
            let locks = &self.nodes[node].locks;
            let holds = |l: LockId| locks[l.index()].holder == Some(p);
            self.procs[p].in_place.opened(opened, holds);
        }
    }

    /// Marks `page` writable for `p`, creating the dirty entry and,
    /// unless the write goes into the home copy in place, the twin.
    fn make_writable(&mut self, p: usize, node: usize, page: PageId) {
        self.procs[p].pt.set(page, Access::ReadWrite);
        let twinned = self.p.data_mode && !self.writes_in_place(node, page);
        let twin = twinned.then(|| {
            // The source borrows the system: take the pool out beside it.
            let mut pool = std::mem::take(&mut self.pool);
            let src = self.node_copy(node, page).and_then(|c| c.data.as_ref());
            let twin = pooled_copy(&mut pool, src);
            self.pool = pool;
            twin
        });
        self.procs[p].dirty.insert(
            page,
            DirtyPage {
                ranges: Default::default(),
                twin,
            },
        );
    }

    /// Issues (or re-issues) a remote-fetch pair for `page`: a small
    /// timestamp fetch followed by the page fetch on the same in-order
    /// channel, so the page arrives last (§2, "Remote fetch").
    pub(crate) fn issue_rf(&mut self, now: Time, p: usize, page: PageId) {
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        if self.nodes[node].inflight.get(page).is_none() {
            return; // fetch already satisfied by another path
        }
        let home = self.home_of(page).index();
        let my = NodeId::new(node).nic();
        let hn = NodeId::new(home).nic();
        let ts_bytes = self.p.proto.page_ts_bytes;
        // The timestamp lives in NI-resident metadata (never faults);
        // the page fetch carries the page index so an ODP-class NIC
        // can fault it in on first touch.
        let post = self
            .comm
            .fetch(now, my, hn, ts_bytes, genima_nic::ALWAYS_MAPPED, Tag::NONE);
        let t2 = self.absorb_post(post);
        let fetch_op = self.fetch_op_of(p);
        let tag = self.tag_op(Pending::FetchPage { proc: p, page }, fetch_op);
        let post = self.comm.fetch(
            t2,
            my,
            hn,
            genima_mem::PAGE_SIZE as u32,
            page.index() as u64,
            tag,
        );
        self.absorb_post(post);
    }

    /// A Base page reply arrived: install it, or re-request
    /// ([`page::fetched`]).
    pub(crate) fn base_reply_arrived(
        &mut self,
        t: Time,
        node: usize,
        page: PageId,
        ts: VersionMap,
        data: Option<Page>,
        op: u64,
    ) {
        let need = Self::fetch_need(&self.procs, &self.nodes[node], page);
        match page::fetched(&ts, need) {
            Fetched::Install => {
                // The copy's previous version is the next spare.
                let old = std::mem::replace(&mut self.nodes[node].copies.slot(page).ts, ts);
                self.spare_versions.push(old);
                self.install_copy(t, node, page, data);
            }
            Fetched::Stale => {
                // Ask the home again with the grown need (served once
                // the missing diffs are applied), built in the map the
                // stale version came in.
                let mut need = ts;
                Self::fetch_need(&self.procs, &self.nodes[node], page).build_into(&mut need);
                self.note_fetch_retry(t, node, page, op);
                self.request_page(t, node, page, need, op);
            }
        }
    }

    /// What the fetch of `page` in flight at `node` needs of the copy
    /// it brings ([`page::fetch_need`]), evaluated now.
    fn fetch_need<'a>(
        procs: &'a [ProcRt],
        node: &'a NodeRt,
        page: PageId,
    ) -> Need<impl Iterator<Item = &'a [(u32, u32)]>> {
        let waiters = node.inflight.get(page).into_iter();
        let required = waiters
            .flat_map(|w| w.iter(procs))
            .map(move |w| procs[w].required.pairs(page));
        page::fetch_need(node.local_flushed.pairs(page), required)
    }

    /// A remote-fetched page arrived: install it, or retry after a
    /// backoff ([`page::fetched`]).
    pub(crate) fn rf_completed(&mut self, t: Time, proc: usize, page: PageId, op: u64) {
        let node = self.p.topo.node_of(ProcId::new(proc)).index();
        if self.nodes[node].inflight.get(page).is_none() {
            return; // superseded
        }
        let home = self.home_of(page).index();
        let [home_node, fetcher] = (self.nodes)
            .get_disjoint_mut([home, node])
            .expect("a remote fetch reads another node's home copy");
        let hp = home_node.copies.get(page).unwrap_or(&UNWRITTEN);
        let need = Self::fetch_need(&self.procs, fetcher, page);
        match page::fetched(&hp.ts, need) {
            Fetched::Install => {
                // The copy takes the home's version into the buffer its
                // previous version left behind.
                let copy = fetcher.copies.slot(page);
                copy.ts.clone_from(&hp.ts);
                let data = self
                    .p
                    .data_mode
                    .then(|| pooled_copy(&mut self.pool, hp.data.as_ref()));
                self.install_copy(t, node, page, data);
            }
            Fetched::Stale => {
                self.note_fetch_retry(t, node, page, op);
                self.q.push(
                    t + self.p.proto.fetch_retry_backoff,
                    SysEvent::RetryFetch(proc, page),
                );
            }
        }
    }

    /// Installs a fetched page into the node cache and wakes the
    /// processes blocked on it. The caller has already stored the
    /// fetched version in the copy's `ts` (moved out of a reply, or
    /// copied from the home copy's in place).
    pub(crate) fn install_copy(
        &mut self,
        t: Time,
        node: usize,
        page: PageId,
        mut data: Option<Page>,
    ) {
        self.counters.page_transfers += 1;
        // Re-apply uncommitted writes of co-located writers: their
        // modifications live in the old node copy (shared within the
        // SMP) and must survive the incoming version.
        if let Some(incoming) = data.as_mut() {
            let old = self.nodes[node]
                .copies
                .get(page)
                .and_then(|c| c.data.as_ref());
            if let Some(old) = old {
                let mut scratch = std::mem::take(&mut self.diff_scratch);
                for q in self.p.topo.procs_of(NodeId::new(node)).map(ProcId::index) {
                    // Open interval: writes live in the old node copy.
                    // The tracked scan covers exactly this writer's
                    // ranges; looping over every local writer covers
                    // the union a full scan would find.
                    if let Some(dp) = self.procs[q].dirty.get(page) {
                        if let Some(twin) = &dp.twin {
                            scratch
                                .compute_tracked(twin, old, &dp.ranges)
                                .apply(incoming);
                        }
                    }
                    // Closed-but-unflushed intervals: same — their
                    // diffs have not reached the home yet, so the
                    // incoming version cannot contain them.
                    for pi in &self.procs[q].pending_intervals {
                        if let Some(dp) = pi.pages.get(page) {
                            if let Some(twin) = &dp.twin {
                                scratch
                                    .compute_tracked(twin, old, &dp.ranges)
                                    .apply(incoming);
                            }
                        }
                    }
                }
                self.diff_scratch = scratch;
            }
        }
        let copy = self.nodes[node].copies.slot(page);
        if let Some(old_data) = std::mem::replace(&mut copy.data, data) {
            self.pool.recycle(old_data);
        }
        if self.comm.tracing() {
            let ts = copy.ts.pairs().to_vec();
            let mut required = VersionMap::new();
            Self::fetch_need(&self.procs, &self.nodes[node], page).build_into(&mut required);
            self.comm.record(TraceEvent::PageInstalled {
                at: t,
                node,
                page,
                ts,
                required: required.pairs().to_vec(),
            });
        }
        let mut next = self.nodes[node].inflight.take(page).map(|w| w.lead);
        while let Some(p) = next {
            next = self.procs[p].next_waiter.take();
            self.complete_fault(t, p, page);
        }
    }

    /// Maps `page` for `p` once its fault is resolved, writable with a
    /// twin (charged to acq/rel) for a write: returns the finish cost,
    /// `mprotect` included, and the twin's.
    fn map_faulted(&mut self, p: usize, node: usize, page: PageId, write: bool) -> (Dur, Dur) {
        let finish = self.p.proto.fault_finish + self.book_mprotect(p, 1, 1);
        if !write {
            self.procs[p].pt.set(page, Access::Read);
            return (finish, Dur::ZERO);
        }
        let twin = self.twin_cost(node, page);
        self.procs[p].bd.acqrel += twin;
        self.make_writable(p, node, page);
        (finish, twin)
    }

    /// Finishes a blocked page fault for `p` at time `t`.
    pub(crate) fn complete_fault(&mut self, t: Time, p: usize, page: PageId) {
        let (write, started, fetch_op) = match &self.procs[p].state {
            ProcState::Blocked(Block::PageFault {
                page: pg,
                write,
                started,
                op,
            }) if *pg == page => (*write, *started, *op),
            other => panic!("p{p} woken for {page} but in state {other:?}"),
        };
        let node = self.p.topo.node_of(ProcId::new(p)).index();
        if self.comm.tracing() {
            let copy = self.node_copy(node, page);
            let ts = copy.map(|c| c.ts.pairs().to_vec()).unwrap_or_default();
            let mut required = VersionMap::new();
            self.reader_need(node, p, page).build_into(&mut required);
            self.comm.record(TraceEvent::FaultDone {
                at: t,
                proc: p,
                page,
                ts,
                required: required.pairs().to_vec(),
            });
        }
        let (finish, twin) = self.map_faulted(p, node, page, write);
        if write {
            self.opened_in_place(p, node, page.index()..page.index() + 1);
        }
        let end = t + finish + twin;
        self.procs[p].bd.data += t.saturating_since(started) + finish;
        self.op_hist.fetch.record(t.saturating_since(started));
        self.obs_record(|o| {
            o.span_op(
                genima_obs::SpanKind::PageFetch,
                node,
                genima_obs::Track::Host,
                started,
                end,
                page.index() as u64,
                fetch_op,
            );
        });
        self.procs[p].clock = end;
        self.procs[p].state = ProcState::Runnable;
        self.q.push(end, SysEvent::Resume(p));
    }

    /// The Base home handler serves a page request now, or defers it
    /// ([`page::request`]).
    pub(crate) fn home_serve_page_request(
        &mut self,
        t: Time,
        home: usize,
        requester: usize,
        page: PageId,
        required: VersionMap,
        op: u64,
    ) {
        let have = &self.nodes[home].copies.slot(page).ts;
        match page::request(have, &required) {
            Request::Serve => {
                self.spare_versions.push(required);
                self.reply_page(t, home, requester, page, op);
            }
            Request::Defer => {
                let deferred = self.home_pages.pending_reqs.slot(page);
                deferred.push((requester, required, op));
            }
        }
    }

    /// Sends the home copy of `page` and its version to `requester`.
    fn reply_page(&mut self, t: Time, home: usize, requester: usize, page: PageId, op: u64) {
        let hp = self.nodes[home].copies.slot(page);
        let mut ts = self.spare_versions.pop().unwrap_or_default();
        ts.clone_from(&hp.ts);
        let data = self
            .p
            .data_mode
            .then(|| pooled_copy(&mut self.pool, hp.data.as_ref()));
        let tag = self.tag_op(
            Pending::PageReply {
                node: requester,
                page,
                ts,
                data,
            },
            op,
        );
        let bytes = genima_mem::PAGE_SIZE as u32 + self.p.proto.page_ts_bytes;
        let (src, dst) = (NodeId::new(home).nic(), NodeId::new(requester).nic());
        self.send(t, src, dst, bytes, MsgKind::Deposit, tag);
    }

    /// What `p` on `node` needs of a copy of `page`
    /// ([`page::reader_need`]).
    fn reader_need(
        &self,
        node: usize,
        p: usize,
        page: PageId,
    ) -> Need<impl Iterator<Item = &[(u32, u32)]>> {
        page::reader_need(
            self.procs[p].required.pairs(page),
            self.nodes[node].local_flushed.pairs(page),
        )
    }

    /// Applies a diff (or just its timestamp, in dirty-range mode) to
    /// the home copy, unless [`page::diff`] drops it as older than the
    /// home's version, then wakes whatever the new version satisfies.
    pub(crate) fn apply_diff_at_home(
        &mut self,
        t: Time,
        writer: usize,
        interval: u32,
        page: PageId,
        diff: Option<Diff>,
        deposited: bool,
    ) {
        let home = self.home_of(page).index();
        let hp = self.nodes[home].copies.get(page);
        if hp.is_some_and(|h| page::diff(&h.ts, writer as u32, interval) == page::Diff::Drop) {
            return;
        }
        let dop = genima_obs::op_diff_id(writer as u64, interval as u64, page.index() as u64);
        self.obs_record(|o| {
            if deposited {
                // The apply completes a deposit arrow started at the
                // writer; local flushes and packed host-message diffs
                // never started one, so they stay flowless instants.
                o.instant_flow_op(
                    genima_obs::SpanKind::DiffApply,
                    home,
                    genima_obs::Track::Host,
                    t,
                    page.index() as u64,
                    genima_obs::Flow {
                        id: genima_obs::flow_diff_id(
                            writer as u64,
                            interval as u64,
                            page.index() as u64,
                        ),
                        dir: genima_obs::FlowDir::Finish,
                    },
                    dop,
                );
            } else {
                o.instant_op(
                    genima_obs::SpanKind::DiffApply,
                    home,
                    genima_obs::Track::Host,
                    t,
                    page.index() as u64,
                    dop,
                );
            }
        });
        if let (Some(d), true) = (diff, self.p.data_mode) {
            let hp = self.nodes[home].copies.slot(page);
            d.apply(hp.data.get_or_insert_with(|| self.pool.zeroed()));
        }
        self.raise_home_version(t, writer, interval, page);
    }

    /// The home copy of `page` now holds `writer`'s `interval` — a
    /// diff was applied to it, or the writer wrote it in place and
    /// closed the interval: raise its version, then wake whatever the
    /// new version satisfies.
    pub(crate) fn raise_home_version(
        &mut self,
        t: Time,
        writer: usize,
        interval: u32,
        page: PageId,
    ) {
        self.comm.record(TraceEvent::DiffApplied {
            at: t,
            page,
            writer,
            interval,
        });
        let home = self.home_of(page).index();
        // Decide who the new version satisfies, then wake them. Nothing
        // below advances the home copy's version (completing a fault or
        // sending a reply only reads it), so deciding first is exact.
        // The served list allocates only when a request is served.
        let mut woken = std::mem::take(&mut self.scratch_procs);
        let mut served = Vec::new();
        let (table, procs) = (&mut self.home_pages, &self.procs);
        let home_page = page::Home {
            version: &mut self.nodes[home].copies.slot(page).ts,
            waiters: table.waiters.slot(page),
            deferred: table.pending_reqs.get_mut(page),
        };
        let required = |p: usize| procs[p].required.pairs(page);
        let spares = &mut self.spare_versions;
        page::raise_home(
            home_page,
            writer as u32,
            interval,
            required,
            &mut woken,
            &mut served,
            spares,
        );
        for &p in &woken {
            self.complete_fault(t, p, page);
        }
        self.scratch_procs = woken;
        for (req_node, req_op) in served {
            self.reply_page(t, home, req_node, page, req_op);
        }
    }
}

/// A pooled page holding a copy of `src`, or zeros for a copy nothing
/// has written yet.
fn pooled_copy(pool: &mut PagePool, src: Option<&Page>) -> Page {
    match src {
        Some(data) => pool.copy_of(data),
        None => pool.zeroed(),
    }
}
