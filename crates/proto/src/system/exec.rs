//! Process execution: running operation streams against the protocol.

use genima_mem::{Addr, PageId, PAGE_SIZE};
use genima_sim::{Dur, Time};

use super::{Flow, ProcState, SvmSystem, SysEvent};
use crate::ops::Op;

impl SvmSystem {
    /// Runs process `p` from simulation time `now` until it blocks,
    /// exceeds its clock-skew quantum, or finishes.
    pub(crate) fn run_proc(&mut self, now: Time, p: usize) {
        if matches!(self.procs[p].state, ProcState::Done) {
            return;
        }
        self.procs[p].state = ProcState::Runnable;
        if self.procs[p].clock < now {
            self.procs[p].clock = now;
        }
        loop {
            // Bound how far a process's local clock may run ahead of
            // the global event queue, so cross-process interactions
            // stay causally ordered.
            let clock = self.procs[p].clock;
            if clock > now + self.p.proto.quantum {
                self.q.push(clock, SysEvent::Resume(p));
                return;
            }
            let (op, prog) = match self.procs[p].cur.take() {
                Some(c) => c,
                None => match self.procs[p].src.next_op() {
                    Some(op) => (op, 0),
                    None => {
                        self.finish_proc(p);
                        return;
                    }
                },
            };
            match self.exec_op(now, p, op, prog) {
                Flow::Continue => {}
                Flow::Stop => return,
            }
        }
    }

    /// Requires the process's local clock to match global time before
    /// an interacting operation; if it is ahead, parks the operation
    /// and reschedules. Returns `true` if execution must stop.
    fn need_sync(&mut self, now: Time, p: usize, op: Op, prog: u64) -> bool {
        let clock = self.procs[p].clock;
        if clock > now {
            self.procs[p].cur = Some((op, prog));
            self.q.push(clock, SysEvent::Resume(p));
            true
        } else {
            false
        }
    }

    fn exec_op(&mut self, now: Time, p: usize, op: Op, prog: u64) -> Flow {
        match op {
            Op::Compute(d) => {
                let node = self.p.topo.node_of(crate::ids::ProcId::new(p)).index();
                let demand = self.node_bus_demand(node);
                let dil = self.p.hw.host.bus.dilation(demand);
                let eff = d.scale_f64(dil) + self.procs[p].steal;
                self.procs[p].steal = Dur::ZERO;
                self.procs[p].clock += eff;
                self.procs[p].bd.compute += eff;
                Flow::Continue
            }
            Op::Read { addr, len } => self.exec_access(now, p, addr, len, false, None, prog),
            Op::Write { addr, len } => self.exec_access(now, p, addr, len, true, None, prog),
            Op::WriteData { addr, data } => {
                let len = data.len() as u32;
                assert!(
                    addr.offset() as usize + data.len() <= PAGE_SIZE,
                    "WriteData must stay within one page"
                );
                self.exec_access(now, p, addr, len, true, Some(data), prog)
            }
            Op::Validate { addr, expected } => {
                assert!(
                    self.p.data_mode,
                    "Op::Validate requires SvmParams::data_mode"
                );
                assert!(
                    addr.offset() as usize + expected.len() <= PAGE_SIZE,
                    "Validate must stay within one page"
                );
                let page = addr.page();
                if self.procs[p].pt.access(page).read_faults() {
                    // Fault it in like a read first. A synchronous
                    // resolution (protection upgrade, covered home
                    // copy) falls through to the check; a blocking one
                    // re-executes the parked op on resume.
                    let op = Op::Validate {
                        addr,
                        expected: expected.clone(),
                    };
                    if self.need_sync(now, p, op.clone(), prog) {
                        return Flow::Stop;
                    }
                    if let Flow::Stop = self.start_fault(now, p, page, false, op, prog) {
                        return Flow::Stop;
                    }
                }
                let got = self
                    .read_bytes(p, page, addr.offset() as usize, expected.len())
                    .to_vec();
                assert_eq!(
                    got, expected,
                    "validation failed at {addr} for process p{p} (page {page})"
                );
                Flow::Continue
            }
            Op::Observe { addr, len } => {
                assert!(
                    self.p.data_mode,
                    "Op::Observe requires SvmParams::data_mode"
                );
                assert!(
                    (1..=8).contains(&len) && addr.offset() as usize + len as usize <= PAGE_SIZE,
                    "Observe must read 1..=8 bytes within one page"
                );
                let page = addr.page();
                if self.procs[p].pt.access(page).read_faults() {
                    // Fault it in like a read first; same fall-through
                    // as Validate so a synchronously resolved fault
                    // still records the observation.
                    let op = Op::Observe { addr, len };
                    if self.need_sync(now, p, op.clone(), prog) {
                        return Flow::Stop;
                    }
                    if let Flow::Stop = self.start_fault(now, p, page, false, op, prog) {
                        return Flow::Stop;
                    }
                }
                let got = self.read_bytes(p, page, addr.offset() as usize, len as usize);
                let mut buf = [0u8; 8];
                buf[..len as usize].copy_from_slice(got);
                let v = u64::from_le_bytes(buf);
                self.observations[p].push(v);
                Flow::Continue
            }
            Op::Acquire(l) => {
                if self.need_sync(now, p, Op::Acquire(l), 0) {
                    return Flow::Stop;
                }
                self.start_acquire(now, p, l)
            }
            Op::Release(l) => {
                if self.need_sync(now, p, Op::Release(l), 0) {
                    return Flow::Stop;
                }
                self.do_release(now, p, l);
                Flow::Continue
            }
            Op::Barrier(b) => {
                if self.need_sync(now, p, Op::Barrier(b), 0) {
                    return Flow::Stop;
                }
                self.barrier_arrive(now, p, b);
                Flow::Stop
            }
            Op::WaitUntil(until) => {
                // Open-loop pacing: idle until the absolute sim time.
                // The gap is charged to compute (the client is "free"),
                // keeping the breakdown accounting closed.
                let clock = self.procs[p].clock;
                if until > clock {
                    let idle = until.saturating_since(clock);
                    self.procs[p].clock = until;
                    self.procs[p].bd.compute += idle;
                }
                Flow::Continue
            }
            Op::ServeEnd { class, issued } => {
                let done = self.procs[p].clock;
                self.serve_hist.record(class, done.saturating_since(issued));
                Flow::Continue
            }
        }
    }

    /// Executes a (possibly multi-page) shared access, resuming from
    /// byte progress `prog`.
    #[allow(clippy::too_many_arguments)]
    fn exec_access(
        &mut self,
        now: Time,
        p: usize,
        addr: Addr,
        len: u32,
        write: bool,
        data: Option<Vec<u8>>,
        mut prog: u64,
    ) -> Flow {
        let node = self.p.topo.node_of(crate::ids::ProcId::new(p)).index();
        while prog < len as u64 {
            let a = addr + prog;
            let page = a.page();
            self.note_touch(node, page);
            let acc = self.procs[p].pt.access(page);
            let faults = if write {
                acc.write_faults()
            } else {
                acc.read_faults()
            };
            if faults {
                let op = match &data {
                    Some(d) => Op::WriteData {
                        addr,
                        data: d.clone(),
                    },
                    None if write => Op::Write { addr, len },
                    None => Op::Read { addr, len },
                };
                if self.need_sync(now, p, op.clone(), prog) {
                    return Flow::Stop;
                }
                if write {
                    // Each page the write has left faults and dirties
                    // in turn: make room for all of them at the first.
                    let left = (a.offset() as u64 + len as u64 - prog).div_ceil(PAGE_SIZE as u64);
                    self.procs[p].dirty.reserve(left as usize);
                }
                match self.start_fault(now, p, page, write, op, prog) {
                    Flow::Continue => continue, // fast local path; re-check
                    Flow::Stop => return Flow::Stop,
                }
            }
            // Access proceeds within this page.
            let in_page = (PAGE_SIZE as u64 - a.offset() as u64).min(len as u64 - prog);
            if write {
                let off = a.offset();
                self.record_write(p, page, off, in_page as u32, data.as_ref(), prog);
            }
            prog += in_page;
        }
        Flow::Continue
    }

    /// Records a write's dirty range (and real bytes, in data mode).
    fn record_write(
        &mut self,
        p: usize,
        page: PageId,
        offset: u32,
        len: u32,
        data: Option<&Vec<u8>>,
        prog: u64,
    ) {
        if self.p.data_mode {
            if let Some(d) = data {
                let node = self.p.topo.node_of(crate::ids::ProcId::new(p)).index();
                let slice = &d[prog as usize..(prog + len as u64) as usize];
                self.write_bytes(node, page, offset as usize, slice);
            }
        }
        let dp = self.procs[p]
            .dirty
            .get_mut(page)
            .expect("writable page must be in the dirty set");
        dp.ranges.add(offset, len);
    }

    /// Aggregate bus demand on `node` from its live compute processes.
    fn node_bus_demand(&self, node: usize) -> u64 {
        let ppn = self.p.topo.procs_per_node;
        let live = (node * ppn..(node + 1) * ppn)
            .filter(|&i| !matches!(self.procs[i].state, ProcState::Done))
            .count() as u64;
        live * self.p.bus_demand_per_proc
    }

    pub(crate) fn finish_proc(&mut self, p: usize) {
        // Flush any trailing open interval so other processes never
        // wait on diffs that would otherwise be lost.
        self.flush_everything(p);
        let t = self.procs[p].clock;
        self.procs[p].state = ProcState::Done;
        self.procs[p].finished_at = Some(t);
    }

    /// Reads `len` bytes of `page` as visible to `p`'s node.
    pub(crate) fn read_bytes(&self, p: usize, page: PageId, off: usize, len: usize) -> &[u8] {
        let node = self.p.topo.node_of(crate::ids::ProcId::new(p)).index();
        let data = self.node_copy(node, page).and_then(|c| c.data.as_ref());
        data.map(|d| d.read(off, len)).unwrap_or(&ZEROS[..len])
    }

    /// Writes bytes into `node`'s copy of `page` — the write side of
    /// [`SvmSystem::node_copy`]: the home copy is filled in on its
    /// first write, any other copy must have been fetched.
    pub(crate) fn write_bytes(&mut self, node: usize, page: PageId, off: usize, data: &[u8]) {
        let at_home = self.home_of(page).index() == node;
        let copies = &mut self.nodes[node].copies;
        let copy = if at_home {
            copies.slot(page)
        } else {
            copies
                .get_mut(page)
                .expect("write to a page the node has no copy of")
        };
        let dst = copy.data.get_or_insert_with(|| self.pool.zeroed());
        dst.write(off, data);
    }
}

/// A zero page used for reads of never-written data.
static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
