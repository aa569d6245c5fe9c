//! Random graph walks over adjacency rows laid out across SVM pages.
//!
//! The graph is synthetic and arithmetic: vertex `v`'s adjacency row
//! lives at a fixed offset in the shared region, and the walk's next
//! hop is a seeded hash of the current vertex — the *data* never
//! drives control flow (the simulator does not model values), but the
//! *page access pattern* is exactly that of a pointer-chasing walk:
//! `walk_len` dependent reads that each may fault on a different home
//! node. Walk start vertices are Zipf-skewed (hot vertices), so
//! popular rows stay cached while the tail of each walk wanders cold
//! pages.
//!
//! The graph is read-only after initialization, so walks take no
//! locks and the workload is race-free by construction.

use std::collections::VecDeque;

use genima_apps::{App, Layout, Region, WorkloadSpec};
use genima_proto::{Op, ServeClass, Topology, PAGE_SIZE};
use genima_sim::{Dur, SplitMix64, Time};

use crate::arrival::Pacing;
use crate::stream::{compute_us, Offer, Request};
use crate::zipf::Zipf;

/// Bytes per adjacency row (vertex id + a handful of neighbor ids).
pub const ROW_BYTES: usize = 64;

/// Adjacency rows per page.
const ROWS_PER_PAGE: usize = PAGE_SIZE / ROW_BYTES;

/// Open-loop random-walk serving workload.
///
/// # Example
///
/// ```
/// use genima_serve::GraphWalk;
/// use genima_proto::Topology;
/// use genima_apps::App;
///
/// let gw = GraphWalk::new(4096, 8, 0.99, 200, genima_sim::Dur::from_ms(2));
/// let spec = gw.spec(Topology::new(2, 2));
/// assert_eq!(spec.sources.len(), 4);
/// assert_eq!(spec.locks, 0);
/// ```
#[derive(Debug, Clone)]
pub struct GraphWalk {
    /// Vertices; must be a power of two of at least one page of rows.
    vertices: usize,
    /// Reads per walk (dependent hops).
    walk_len: usize,
    /// Zipf skew of walk start vertices.
    zipf_s: f64,
    /// Host-side compute per hop (neighbor pick), µs.
    hop_us: f64,
    /// Walks offered, their window, pacing and seed.
    offer: Offer,
}

impl GraphWalk {
    /// A walk workload with the given shape; arrivals default to
    /// Poisson starting at 500 µs, 0.1 µs per hop, seed 0.
    ///
    /// # Panics
    ///
    /// Panics unless `vertices` is a power of two covering at least
    /// one page of rows, or if `walk_len` is zero.
    pub fn new(
        vertices: usize,
        walk_len: usize,
        zipf_s: f64,
        walks: u64,
        horizon: Dur,
    ) -> GraphWalk {
        assert!(
            vertices.is_power_of_two() && vertices >= ROWS_PER_PAGE,
            "vertices must be a power of two filling at least one page"
        );
        assert!(walk_len > 0, "walks must take at least one hop");
        GraphWalk {
            vertices,
            walk_len,
            zipf_s,
            hop_us: 0.1,
            offer: Offer::new(walks, horizon),
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> GraphWalk {
        self.offer.seed = seed;
        self
    }

    /// Replaces the inter-arrival distribution.
    pub fn with_pacing(mut self, pacing: Pacing) -> GraphWalk {
        self.offer.pacing = pacing;
        self
    }

    /// Replaces the arrival-window start time.
    pub fn with_start(mut self, start: Time) -> GraphWalk {
        self.offer.start = start;
        self
    }

    /// The adjacency rows, from the first page on.
    fn adjacency(&self) -> Region {
        Layout::new().alloc_pages(self.vertices / ROWS_PER_PAGE)
    }
}

/// The seeded hash stepping a walk from vertex `v` (mask = vertices-1).
fn next_hop(v: usize, salt: u64, mask: usize) -> usize {
    (v as u64)
        .wrapping_mul(0x5851_F42D_4C95_7F2D)
        .wrapping_add(salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize
        & mask
}

impl Request for GraphWalk {
    const SALT: u64 = 0x6777_616c_6b00_0000;

    fn max_ops(&self) -> usize {
        2 * self.walk_len + 2
    }

    /// `walk_len` dependent row reads from the start vertex `v`, each
    /// followed by the hop's compute and a draw of the next hop (the
    /// last draw is made and unused).
    fn push_ops(&self, t: Time, mut v: usize, rng: &mut SplitMix64, out: &mut VecDeque<Op>) {
        let adj = self.adjacency();
        out.push_back(Op::WaitUntil(t));
        for _ in 0..self.walk_len {
            out.push_back(Op::Read {
                addr: adj.addr((v * ROW_BYTES) as u64),
                len: ROW_BYTES as u32,
            });
            out.extend(compute_us(self.hop_us));
            v = next_hop(v, rng.next_u64(), self.vertices - 1);
        }
        out.push_back(Op::ServeEnd {
            class: ServeClass::Walk,
            issued: t,
        });
    }
}

impl App for GraphWalk {
    fn name(&self) -> &'static str {
        "GraphWalk"
    }

    fn problem(&self) -> String {
        format!(
            "{} vertices, {}-hop walks, Zipf {:.2}, {} walks over {:.1}ms",
            self.vertices,
            self.walk_len,
            self.zipf_s,
            self.offer.requests,
            self.offer.horizon.as_ms()
        )
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let adj = self.adjacency();
        let zipf = Zipf::new(self.vertices, self.zipf_s);
        self.offer
            .spec(topo, self.clone(), zipf, adj.homes_blocked(topo), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_are_dependent_reads_with_no_locks() {
        let gw = GraphWalk::new(4096, 6, 0.99, 40, Dur::from_ms(1)).with_seed(2);
        let spec = gw.spec(Topology::new(2, 1));
        let mut walks = 0;
        for mut src in spec.sources {
            let mut reads_since_wait = 0;
            while let Some(op) = src.next_op() {
                match op {
                    Op::Acquire(_) | Op::Release(_) => panic!("walks take no locks"),
                    Op::WaitUntil(_) => reads_since_wait = 0,
                    Op::Read { .. } => reads_since_wait += 1,
                    Op::ServeEnd { .. } => {
                        assert_eq!(reads_since_wait, 6, "every walk takes walk_len hops");
                        walks += 1;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(walks, 40);
    }

    #[test]
    fn hop_function_stays_in_range() {
        for v in [0usize, 1, 4095] {
            for salt in [0u64, 7, u64::MAX] {
                assert!(next_hop(v, salt, 4095) < 4096);
            }
        }
    }
}
