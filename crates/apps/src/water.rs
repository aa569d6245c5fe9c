//! Water: the SPLASH-2 molecular dynamics codes.
//!
//! **Water-nsquared** computes all O(n²/2) pairwise interactions; each
//! process accumulates forces privately, then updates the shared force
//! array under **fine-grained per-molecule locks** — the paper's
//! canonical victim of frequent lock/notice traffic: its eager-notice
//! messages clog the NI FIFOs in DW, and only NI locks (whose messages
//! never enter the host-bound FIFO) recover the loss (§3.3). Like the
//! paper's processes, each simulated process issues those updates as
//! it runs: its stream is drawn one phase or lock episode at a time,
//! so a spec holds no operations (DESIGN.md §12).
//!
//! **Water-spatial** decomposes space into cells; processes read the
//! boundary cells of their neighbours and take far fewer locks, so it
//! behaves like a stencil code with modest lock traffic.
//!
//! Paper sizes: 4096 molecules (nsquared), 32K (spatial... the text's
//! table is truncated; we use 4096/8192). Defaults here: 2048/4096
//! molecules with 2 timesteps — the per-molecule locking rate per unit
//! compute, which drives the result, is preserved.

use std::collections::VecDeque;

use genima_proto::{BarrierId, LockId, Op, OpSource, Topology, PAGE_SIZE};
use genima_sim::{Dur, SplitMix64};

use crate::common::{proc_rng, Arrival, Layout, OpsBuilder, Region, WorkloadSpec};
use crate::App;

/// Bytes per molecule record.
const MOL_BYTES: u64 = 680;
/// Bytes per force record (3×3 doubles).
const FORCE_BYTES: u64 = 72;

/// Water-nsquared: O(n²) interactions, per-molecule locks.
#[derive(Debug, Clone)]
pub struct WaterNsquared {
    /// Molecule count.
    pub molecules: usize,
    /// Timesteps simulated.
    pub steps: usize,
    paper_label: &'static str,
}

impl WaterNsquared {
    /// The paper's configuration (scaled; see module docs).
    pub fn paper() -> WaterNsquared {
        WaterNsquared {
            molecules: 2048,
            steps: 2,
            paper_label: "4096 molecules (scaled: 2048)",
        }
    }

    /// A custom size.
    pub fn with_molecules(molecules: usize, steps: usize) -> WaterNsquared {
        WaterNsquared {
            molecules,
            steps,
            paper_label: "custom",
        }
    }
}

impl App for WaterNsquared {
    fn name(&self) -> &'static str {
        "Water-nsquared"
    }

    fn problem(&self) -> String {
        self.paper_label.to_string()
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let p = topo.procs();
        let n = self.molecules;
        let nlocks = 256.min(n);
        let mut layout = Layout::new();
        let mols = layout.alloc_bytes(n as u64 * MOL_BYTES);
        let forces = layout.alloc_bytes(n as u64 * FORCE_BYTES);

        // Pairwise interactions per process per step.
        let pairs_per_proc = n * n / 2 / p;
        // Each process updates roughly n/2 + n/p molecules' shared
        // forces per step (SPLASH-2 Water's update pattern): one lock
        // episode each.
        let episodes = n / 2 + n / p;
        // ~200 flops per pair at 50 MFLOPS → 4 us; batch pairs
        // between lock episodes.
        let compute_per_episode_us = (pairs_per_proc as f64 / episodes as f64) * 4.0;

        let sources = (0..p)
            .map(|me| {
                Box::new(NsquaredOps {
                    me,
                    procs: p,
                    molecules: n,
                    nlocks,
                    steps: self.steps,
                    episodes,
                    compute_per_episode_us,
                    my_mols: mols.chunk(me, p),
                    forces,
                    rng: proc_rng("water-nsq", genima_proto::ProcId::new(me)),
                    step: 0,
                    phase: Phase::Start,
                    pending: VecDeque::with_capacity(PHASE_OPS),
                }) as Box<dyn OpSource>
            })
            .collect();

        let mut homes = mols.homes_blocked(topo);
        homes.extend(forces.homes_blocked(topo));
        WorkloadSpec {
            sources,
            homes,
            locks: nlocks,
            bus_demand_per_proc: 25_000_000,
            warmup_barrier: Some(BarrierId::new(0)),
            arrival: Arrival::Closed,
        }
    }
}

/// Most ops one phase or episode of [`NsquaredOps`] yields.
const PHASE_OPS: usize = 4;

/// Where a Water-nsquared process stands in its stream: the part it
/// draws next.
#[derive(Clone, Copy)]
enum Phase {
    /// Initialise own molecules, then the warm-up barrier.
    Start,
    /// A step's intra-molecular phase: local compute, then a barrier.
    Intra,
    /// Lock episode `e` of a step's force phase: batched pair
    /// computation, then a locked update of one molecule's force.
    Episode(usize),
    /// The barrier ending the force phase, then the update phase:
    /// advance own molecules (home-local) and a barrier.
    Update,
    /// Every step drawn.
    Done,
}

/// One Water-nsquared process's stream, drawn one phase or lock episode
/// at a time as the run consumes it. Fused, and it allocates nothing
/// once built: `pending` holds at most one phase ([`PHASE_OPS`]).
struct NsquaredOps {
    me: usize,
    procs: usize,
    molecules: usize,
    nlocks: usize,
    steps: usize,
    episodes: usize,
    compute_per_episode_us: f64,
    my_mols: Region,
    forces: Region,
    rng: SplitMix64,
    /// Steps fully drawn.
    step: usize,
    /// The part drawn next.
    phase: Phase,
    /// Ops drawn and not yet consumed.
    pending: VecDeque<Op>,
}

impl NsquaredOps {
    fn compute_us(&mut self, us: f64) {
        if us > 0.0 {
            self.pending.push_back(Op::Compute(Dur::from_us_f64(us)));
        }
    }

    fn barrier(&mut self, b: usize) {
        self.pending.push_back(Op::Barrier(BarrierId::new(b)));
    }

    fn write_own(&mut self) {
        self.pending.push_back(Op::Write {
            addr: self.my_mols.base(),
            len: self.my_mols.bytes() as u32,
        });
    }

    /// The phase that opens step `self.step`, or `Done` past the last.
    fn step_or_done(&self) -> Phase {
        if self.step < self.steps {
            Phase::Intra
        } else {
            Phase::Done
        }
    }

    /// Lock episode `e`, or the update phase past the last episode.
    fn episode_or_update(&self, e: usize) -> Phase {
        if e < self.episodes {
            Phase::Episode(e)
        } else {
            Phase::Update
        }
    }

    /// Draws the next phase into `pending`.
    fn refill(&mut self) {
        let (n, p) = (self.molecules, self.procs);
        // A step's three barriers are `bar`, `bar + 1` and `bar + 2`.
        let bar = 1 + 3 * self.step;
        self.phase = match self.phase {
            Phase::Start => {
                self.write_own();
                self.barrier(0);
                self.step_or_done()
            }
            Phase::Intra => {
                self.compute_us((n / p) as f64 * 20.0);
                self.barrier(bar);
                self.episode_or_update(0)
            }
            Phase::Episode(e) => {
                self.compute_us(self.compute_per_episode_us);
                // The updated molecule walks the ring starting after
                // our own chunk (n/2 following molecules).
                let mol =
                    (self.me * (n / p) + 1 + (e * 37 + self.rng.next_below(7) as usize) % (n / 2))
                        % n;
                let lock = LockId::new(mol % self.nlocks);
                self.pending.push_back(Op::Acquire(lock));
                self.pending.push_back(Op::Write {
                    addr: self.forces.addr(mol as u64 * FORCE_BYTES),
                    len: 24,
                });
                self.pending.push_back(Op::Release(lock));
                self.episode_or_update(e + 1)
            }
            Phase::Update => {
                self.barrier(bar + 1);
                self.compute_us((n / p) as f64 * 8.0);
                self.write_own();
                self.barrier(bar + 2);
                self.step += 1;
                self.step_or_done()
            }
            Phase::Done => Phase::Done,
        };
    }
}

impl OpSource for NsquaredOps {
    fn next_op(&mut self) -> Option<Op> {
        // A phase may draw nothing only once the stream is done:
        // every other phase ends in a barrier or a release.
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

/// Water-spatial: cell-list decomposition, boundary reads, few locks.
#[derive(Debug, Clone)]
pub struct WaterSpatial {
    /// Molecule count.
    pub molecules: usize,
    /// Timesteps simulated.
    pub steps: usize,
    paper_label: &'static str,
}

impl WaterSpatial {
    /// The paper's configuration (scaled).
    pub fn paper() -> WaterSpatial {
        WaterSpatial {
            molecules: 4096,
            steps: 3,
            paper_label: "8192 molecules (scaled: 4096)",
        }
    }

    /// A custom size.
    pub fn with_molecules(molecules: usize, steps: usize) -> WaterSpatial {
        WaterSpatial {
            molecules,
            steps,
            paper_label: "custom",
        }
    }
}

impl App for WaterSpatial {
    fn name(&self) -> &'static str {
        "Water-spatial"
    }

    fn problem(&self) -> String {
        self.paper_label.to_string()
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let p = topo.procs();
        let n = self.molecules;
        let nlocks = 64;
        let mut layout = Layout::new();
        let mols = layout.alloc_bytes(n as u64 * MOL_BYTES);
        // Cell-list records, one page per spatial cell: molecules that
        // cross a cell boundary are re-linked here under the cell's
        // lock. Kept separate from the molecule array — the boundary
        // reads below are unsynchronised, so only data written in a
        // *previous* phase (and fenced by a barrier) may come from
        // `mols`; all same-phase locked writes go to the cell lists.
        let cells = layout.alloc_pages(nlocks);

        // Boundary exchange: each process reads a slab of its two
        // neighbours' molecules (~1/8 of their chunk).
        let mut sources = Vec::with_capacity(p);
        for me in 0..p {
            let mut rng = proc_rng("water-sp", genima_proto::ProcId::new(me));
            let mut ops = OpsBuilder::new();
            let my_mols = mols.chunk(me, p);
            ops.write(my_mols.base(), my_mols.bytes() as u32);
            ops.barrier(0);

            let boundary = (my_mols.bytes() / 8).max(4096) as u32;
            let mut bar = 1;
            for _step in 0..self.steps {
                // Read neighbour boundary slabs.
                for nb in [
                    (me + p - 1) % p,
                    (me + 1) % p,
                    (me + p - (4 % p)) % p, // 3-D decomposition: a "vertical" neighbour
                ] {
                    if nb != me {
                        let r = mols.chunk(nb, p);
                        ops.read(r.base(), boundary.min(r.bytes() as u32));
                    }
                }
                // Pair computation within and across cells: O(n/p · k).
                ops.compute_us((n / p) as f64 * 60.0);
                // A few cell-ownership locks for molecules that cross
                // cell boundaries: re-link the molecule in the owning
                // cell's list, under that cell's lock.
                for _ in 0..8 {
                    let cell = rng.next_below(nlocks as u64) as usize;
                    ops.acquire(cell);
                    ops.write(
                        cells.addr(cell as u64 * PAGE_SIZE as u64 + rng.next_below(200) * 16),
                        16,
                    );
                    ops.release(cell);
                    ops.compute_us(40.0);
                }
                ops.barrier(bar);
                bar += 1;
                // Update own molecules.
                ops.compute_us((n / p) as f64 * 8.0);
                ops.write(my_mols.base(), my_mols.bytes() as u32);
                ops.barrier(bar);
                bar += 1;
            }
            sources.push(ops.into_source());
        }

        let mut homes = mols.homes_blocked(topo);
        homes.extend(cells.homes_blocked(topo));
        WorkloadSpec {
            sources,
            homes,
            locks: nlocks,
            bus_demand_per_proc: 25_000_000,
            warmup_barrier: Some(BarrierId::new(0)),
            arrival: Arrival::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_hash;

    /// The materialising loop Water-nsquared's `spec()` ran before its
    /// streams were drawn on demand: process `me`'s whole stream.
    fn nsquared_reference(app: &WaterNsquared, topo: Topology, me: usize) -> Vec<Op> {
        let p = topo.procs();
        let n = app.molecules;
        let nlocks = 256.min(n);
        let mut layout = Layout::new();
        let mols = layout.alloc_bytes(n as u64 * MOL_BYTES);
        let forces = layout.alloc_bytes(n as u64 * FORCE_BYTES);
        let pairs_per_proc = n * n / 2 / p;
        let episodes = n / 2 + n / p;
        let compute_per_episode_us = (pairs_per_proc as f64 / episodes as f64) * 4.0;

        let mut rng = proc_rng("water-nsq", genima_proto::ProcId::new(me));
        let mut ops = OpsBuilder::new();
        let my_mols = mols.chunk(me, p);
        ops.write(my_mols.base(), my_mols.bytes() as u32);
        ops.barrier(0);
        let mut bar = 1;
        for _step in 0..app.steps {
            ops.compute_us((n / p) as f64 * 20.0);
            ops.barrier(bar);
            bar += 1;
            for e in 0..episodes {
                ops.compute_us(compute_per_episode_us);
                let mol = (me * (n / p) + 1 + (e * 37 + rng.next_below(7) as usize) % (n / 2)) % n;
                ops.acquire(mol % nlocks);
                ops.write(forces.addr(mol as u64 * FORCE_BYTES), 24);
                ops.release(mol % nlocks);
            }
            ops.barrier(bar);
            bar += 1;
            ops.compute_us((n / p) as f64 * 8.0);
            ops.write(my_mols.base(), my_mols.bytes() as u32);
            ops.barrier(bar);
            bar += 1;
        }
        let mut src = ops.into_source();
        std::iter::from_fn(|| src.next_op()).collect()
    }

    #[test]
    fn nsquared_draws_the_reference_stream_op_for_op() {
        for (molecules, steps, topo) in [
            (64, 2, Topology::new(4, 2)),
            (256, 1, Topology::new(2, 1)),
            (512, 1, Topology::new(4, 4)),
            (2048, 2, Topology::new(8, 4)),
        ] {
            let app = WaterNsquared::with_molecules(molecules, steps);
            for (me, mut src) in app.spec(topo).sources.into_iter().enumerate() {
                let case = format!("{molecules} molecules, {steps} steps, {topo:?}, p{me}");
                for (i, want) in nsquared_reference(&app, topo, me).into_iter().enumerate() {
                    assert_eq!(src.next_op(), Some(want), "{case}: op {i}");
                }
                // Fused: a drained source stays drained.
                assert_eq!(src.next_op(), None, "{case}: yielded past the end");
                assert_eq!(src.next_op(), None, "{case}: yielded again");
            }
        }
    }

    #[test]
    fn the_paper_stream_keeps_its_fingerprint() {
        let app = WaterNsquared::paper();
        for (topo, want) in [
            (Topology::new(2, 1), 0x20c5_bc82_9345_de84),
            (Topology::new(4, 4), 0x47cc_ecd8_e986_d071),
            (Topology::new(8, 4), 0xbd62_34ad_0527_f62d),
        ] {
            assert_eq!(stream_hash(&app, topo), want, "{topo:?}");
        }
    }

    #[test]
    fn nsquared_takes_many_fine_grained_locks() {
        let topo = Topology::new(4, 4);
        let mut spec = WaterNsquared::with_molecules(512, 1).spec(topo);
        let mut locks = 0;
        while let Some(op) = spec.sources[0].next_op() {
            if matches!(op, Op::Acquire(_)) {
                locks += 1;
            }
        }
        // episodes = n/2 + n/p = 256 + 32.
        assert_eq!(locks, 288);
    }

    #[test]
    fn spatial_takes_far_fewer_locks_than_nsquared() {
        let topo = Topology::new(4, 4);
        let count = |mut src: Box<dyn genima_proto::OpSource>| {
            let mut locks = 0;
            while let Some(op) = src.next_op() {
                if matches!(op, Op::Acquire(_)) {
                    locks += 1;
                }
            }
            locks
        };
        let nsq = count(
            WaterNsquared::with_molecules(1024, 1)
                .spec(topo)
                .sources
                .remove(0),
        );
        let sp = count(
            WaterSpatial::with_molecules(1024, 1)
                .spec(topo)
                .sources
                .remove(0),
        );
        assert!(sp * 10 < nsq, "spatial {sp} vs nsquared {nsq}");
    }
}
