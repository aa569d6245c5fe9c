//! Shared infrastructure for workload generators.

use genima_proto::{
    ops_source, Addr, BarrierId, LockId, NodeId, Op, OpSource, PageId, ProcId, ServeClass,
    SvmParams, SvmSystem, Topology, PAGE_SIZE,
};
use genima_sim::{Dur, Time};

/// Everything a workload hands to the runner: per-process operation
/// streams, page-home layout, protocol sizing hints, and the arrival
/// discipline its streams were generated under.
pub struct WorkloadSpec {
    /// One stream per processor, in processor order.
    pub sources: Vec<Box<dyn OpSource>>,
    /// Page-home assignments: `(first_page, count, home_node)`.
    pub homes: Vec<(PageId, usize, NodeId)>,
    /// How many application locks the workload uses.
    pub locks: usize,
    /// Per-processor memory-bus demand while computing (bytes/s).
    pub bus_demand_per_proc: u64,
    /// The barrier that ends initialization (statistics reset there,
    /// per SPLASH-2 measurement guidelines).
    pub warmup_barrier: Option<BarrierId>,
    /// Arrival discipline of the op streams (closed-loop SPLASH phases
    /// vs open-loop paced serving traffic).
    pub arrival: Arrival,
}

impl WorkloadSpec {
    /// Builds the SVM cluster that runs this workload: sizes `params`
    /// from the spec's hints (lock count, bus demand, warmup barrier),
    /// hands the op streams to the processors and assigns the page
    /// homes. This is the one way a workload becomes a system, and
    /// `genima::run_app_configured` its one caller outside tests: every
    /// run, audit and ablation goes through it, so they all measure the
    /// same cluster.
    pub fn into_system(self, mut params: SvmParams) -> SvmSystem {
        params.locks = self.locks.max(1);
        params.bus_demand_per_proc = self.bus_demand_per_proc;
        params.warmup_barrier = self.warmup_barrier;
        let mut sys = SvmSystem::new(params, self.sources);
        for (start, count, node) in self.homes {
            sys.assign_homes(start, count, node);
        }
        sys
    }
}

/// How a workload's operations arrive at the processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Closed-loop: each process issues its next operation the moment
    /// the previous one completes, so slow ops throttle the load (the
    /// SPLASH-2 scientific-phase model).
    Closed,
    /// Open-loop: operations were assigned pre-generated arrival times
    /// ([`genima_proto::Op::WaitUntil`] pacing off simulated time), so
    /// load keeps arriving while earlier ops are stuck and queueing
    /// delay shows up in end-to-end latency — the serving model.
    Open {
        /// Total simulated span the arrival process covers.
        horizon: Dur,
        /// Operations offered across the whole cluster within
        /// `horizon`.
        offered_ops: u64,
    },
}

impl Arrival {
    /// Offered load in million operations per second, or zero for
    /// closed-loop workloads (their rate is completion-driven).
    pub fn offered_mops(&self) -> f64 {
        match *self {
            Arrival::Closed => 0.0,
            Arrival::Open {
                horizon,
                offered_ops,
            } => {
                if horizon == Dur::ZERO {
                    0.0
                } else {
                    offered_ops as f64 / (horizon.as_ns() as f64 * 1e-9) / 1e6
                }
            }
        }
    }
}

/// A contiguous region of the shared address space.
///
/// # Example
///
/// ```
/// use genima_apps::Layout;
///
/// let mut layout = Layout::new();
/// let a = layout.alloc_bytes(10_000);
/// let b = layout.alloc_bytes(1);
/// assert!(b.base().value() > a.base().value());
/// assert_eq!(a.pages(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    first_page: usize,
    pages: usize,
}

impl Region {
    /// First byte of the region.
    pub fn base(&self) -> Addr {
        PageId::new(self.first_page).base()
    }

    /// Number of pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.pages as u64 * PAGE_SIZE as u64
    }

    /// Address `off` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics if `off` is out of range.
    pub fn addr(&self, off: u64) -> Addr {
        assert!(off < self.bytes(), "offset {off} outside region");
        self.base() + off
    }

    /// The region's `i`-th page.
    pub fn page(&self, i: usize) -> PageId {
        assert!(i < self.pages, "page {i} outside region");
        PageId::new(self.first_page + i)
    }

    /// Splits the region into `n` near-equal contiguous chunks and
    /// returns the `i`-th as a sub-region (block distribution).
    pub fn chunk(&self, i: usize, n: usize) -> Region {
        let per = self.pages.div_ceil(n);
        let start = (i * per).min(self.pages);
        let end = ((i + 1) * per).min(self.pages);
        Region {
            first_page: self.first_page + start,
            pages: end - start,
        }
    }

    /// Home assignment giving each node the chunk of the processes it
    /// hosts (block distribution over nodes).
    pub fn homes_blocked(&self, topo: Topology) -> Vec<(PageId, usize, NodeId)> {
        (0..topo.nodes)
            .map(|n| {
                let c = self.chunk(n, topo.nodes);
                (PageId::new(c.first_page), c.pages, NodeId::new(n))
            })
            .filter(|(_, count, _)| *count > 0)
            .collect()
    }
}

/// A bump allocator for the shared address space.
#[derive(Debug, Default)]
pub struct Layout {
    next_page: usize,
}

impl Layout {
    /// An empty shared address space.
    pub fn new() -> Layout {
        Layout::default()
    }

    /// Allocates a page-aligned region of at least `bytes`.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Region {
        let pages = (bytes as usize).div_ceil(PAGE_SIZE).max(1);
        self.alloc_pages(pages)
    }

    /// The next page index that would be allocated (useful to compute
    /// the extent of a group of allocations).
    pub fn mark(&self) -> usize {
        self.next_page
    }

    /// Allocates `pages` pages.
    pub fn alloc_pages(&mut self, pages: usize) -> Region {
        let r = Region {
            first_page: self.next_page,
            pages,
        };
        self.next_page += pages;
        r
    }
}

/// Builds one process's operation stream.
///
/// # Example
///
/// ```
/// use genima_apps::OpsBuilder;
///
/// let mut b = OpsBuilder::new();
/// b.compute_us(10.0);
/// b.barrier(0);
/// assert_eq!(b.len(), 2);
/// let _source = b.into_source();
/// ```
#[derive(Debug, Default)]
pub struct OpsBuilder {
    ops: Vec<Op>,
}

impl OpsBuilder {
    /// An empty stream.
    pub fn new() -> OpsBuilder {
        OpsBuilder::default()
    }

    /// Local computation in microseconds.
    pub fn compute_us(&mut self, us: f64) -> &mut Self {
        if us > 0.0 {
            self.ops.push(Op::Compute(Dur::from_us_f64(us)));
        }
        self
    }

    /// Local computation in milliseconds.
    pub fn compute_ms(&mut self, ms: f64) -> &mut Self {
        self.compute_us(ms * 1_000.0)
    }

    /// Shared read of `len` bytes at `addr`.
    pub fn read(&mut self, addr: Addr, len: u32) -> &mut Self {
        self.ops.push(Op::Read { addr, len });
        self
    }

    /// Shared write of `len` bytes at `addr`.
    pub fn write(&mut self, addr: Addr, len: u32) -> &mut Self {
        self.ops.push(Op::Write { addr, len });
        self
    }

    /// Lock acquire by index.
    pub fn acquire(&mut self, lock: usize) -> &mut Self {
        self.ops.push(Op::Acquire(LockId::new(lock)));
        self
    }

    /// Lock release by index.
    pub fn release(&mut self, lock: usize) -> &mut Self {
        self.ops.push(Op::Release(LockId::new(lock)));
        self
    }

    /// Barrier by index.
    pub fn barrier(&mut self, b: usize) -> &mut Self {
        self.ops.push(Op::Barrier(BarrierId::new(b)));
        self
    }

    /// Open-loop pacing: idle until absolute simulated time `t`
    /// (no-op if the process is already past it).
    pub fn wait_until(&mut self, t: Time) -> &mut Self {
        self.ops.push(Op::WaitUntil(t));
        self
    }

    /// Records the end of a serving operation that arrived (open-loop)
    /// at `issued`; end-to-end latency includes queueing behind
    /// earlier ops.
    pub fn serve_end(&mut self, class: ServeClass, issued: Time) -> &mut Self {
        self.ops.push(Op::ServeEnd { class, issued });
        self
    }

    /// Number of operations so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no operations were added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finishes the stream.
    pub fn into_source(self) -> Box<dyn OpSource> {
        Box::new(ops_source(self.ops))
    }
}

/// Deterministic per-process jitter helper: a seeded SplitMix64 stream
/// derived from the application name and process id.
pub fn proc_rng(app: &str, proc: ProcId) -> genima_sim::SplitMix64 {
    let seed = genima_sim::fnv1a(genima_sim::FNV_OFFSET, app.as_bytes()) ^ proc.index() as u64;
    genima_sim::SplitMix64::new(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_a_bump_allocator() {
        let mut l = Layout::new();
        let a = l.alloc_pages(4);
        let b = l.alloc_pages(2);
        assert_eq!(a.page(0), PageId::new(0));
        assert_eq!(b.page(0), PageId::new(4));
        assert_eq!(a.bytes(), 4 * PAGE_SIZE as u64);
    }

    #[test]
    fn region_chunks_cover_without_overlap() {
        let mut l = Layout::new();
        let r = l.alloc_pages(10);
        let total: usize = (0..3).map(|i| r.chunk(i, 3).pages()).sum();
        assert_eq!(total, 10);
        assert_eq!(r.chunk(0, 3).page(0), PageId::new(0));
        assert_eq!(r.chunk(1, 3).page(0), PageId::new(4));
    }

    #[test]
    fn homes_blocked_assigns_every_node() {
        let mut l = Layout::new();
        let r = l.alloc_pages(16);
        let homes = r.homes_blocked(Topology::new(4, 4));
        assert_eq!(homes.len(), 4);
        let total: usize = homes.iter().map(|(_, c, _)| c).sum();
        assert_eq!(total, 16);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_region_addr_panics() {
        let mut l = Layout::new();
        let r = l.alloc_pages(1);
        r.addr(PAGE_SIZE as u64);
    }

    #[test]
    fn proc_rng_is_deterministic_and_distinct() {
        let mut a = proc_rng("FFT", ProcId::new(0));
        let mut a2 = proc_rng("FFT", ProcId::new(0));
        let mut b = proc_rng("FFT", ProcId::new(1));
        assert_eq!(a.next_u64(), a2.next_u64());
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
