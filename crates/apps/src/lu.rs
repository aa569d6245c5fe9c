//! LU-contiguous: the SPLASH-2 blocked dense LU factorization with
//! contiguous block allocation.
//!
//! Sharing pattern: at step `k` the owner factors the diagonal block,
//! the perimeter owners read it, and interior owners read the two
//! perimeter blocks they need; barriers separate the three sub-phases.
//! Blocks are allocated contiguously and homed at their owner's node,
//! so every write lands on a page homed where it is made — LU is
//! compute-bound with modest, coarse-grained read traffic (the paper
//! reports only an ~11% data improvement and small overall gains).
//! Home-local is not free on the 1999 columns: the paper's protocol
//! still twins each written page and diffs it at the home every
//! interval, which is LU's barrier protocol time there. GeNIMA-2025
//! writes such pages in place, with no twin and no diff.
//!
//! Paper problem size: 4096×4096. Default here: 2048×2048 with
//! 128×128 blocks (same block-ownership pattern, quarter the steps).

#![allow(clippy::needless_range_loop)]

use genima_proto::{ProcId, Topology};

use crate::common::{Arrival, Layout, OpsBuilder, WorkloadSpec};
use crate::App;

/// The LU workload.
#[derive(Debug, Clone)]
pub struct LuContiguous {
    /// Matrix dimension.
    pub n: usize,
    /// Block dimension.
    pub block: usize,
    paper_label: &'static str,
}

impl LuContiguous {
    /// The paper's configuration (scaled; see module docs).
    pub fn paper() -> LuContiguous {
        LuContiguous {
            n: 2048,
            block: 128,
            paper_label: "4096x4096 matrix (scaled: 2048x2048)",
        }
    }

    /// A custom size.
    pub fn with_size(n: usize, block: usize) -> LuContiguous {
        LuContiguous {
            n,
            block,
            paper_label: "custom",
        }
    }

    fn owner(&self, bi: usize, bj: usize, p: usize) -> usize {
        // 2-D scatter decomposition, as in SPLASH-2.
        (bi + bj * 7) % p
    }
}

impl App for LuContiguous {
    fn name(&self) -> &'static str {
        "LU-contiguous"
    }

    fn problem(&self) -> String {
        self.paper_label.to_string()
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let p = topo.procs();
        let nb = self.n / self.block; // blocks per dimension
        let block_bytes = (self.block * self.block * 8) as u64;

        let mut layout = Layout::new();
        // One contiguous region per block, grouped by owner so each
        // owner's blocks are contiguous ("LU-contiguous").
        let placeholder = layout.alloc_pages(0);
        let mut block_region = vec![vec![placeholder; nb]; nb];
        let mut homes = Vec::new();
        for owner in 0..p {
            let first = layout.mark();
            for bi in 0..nb {
                for bj in 0..nb {
                    if self.owner(bi, bj, p) == owner {
                        block_region[bi][bj] = layout.alloc_bytes(block_bytes);
                    }
                }
            }
            let count = layout.mark() - first;
            if count > 0 {
                homes.push((
                    genima_proto::PageId::new(first),
                    count,
                    topo.node_of(ProcId::new(owner)),
                ));
            }
        }

        // Flop costs at ~50 MFLOPS.
        let b3 = (self.block as f64).powi(3);
        let diag_us = b3 / 3.0 / 50.0;
        let perim_us = b3 / 2.0 / 50.0;
        let interior_us = 2.0 * b3 / 50.0;

        let mut sources = Vec::with_capacity(p);
        for me in 0..p {
            let mut ops = OpsBuilder::new();
            // Init: write own blocks.
            for bi in 0..nb {
                for bj in 0..nb {
                    if self.owner(bi, bj, p) == me {
                        let r = block_region[bi][bj];
                        ops.write(r.base(), block_bytes as u32);
                    }
                }
            }
            ops.barrier(0);

            let mut bar = 1;
            for k in 0..nb {
                // Diagonal factorization by its owner.
                if self.owner(k, k, p) == me {
                    let r = block_region[k][k];
                    ops.compute_us(diag_us);
                    ops.write(r.base(), block_bytes as u32);
                }
                ops.barrier(bar);
                bar += 1;
                // Perimeter: blocks (i,k) and (k,j), i,j > k.
                let mut read_diag = false;
                for i in k + 1..nb {
                    for &(bi, bj) in &[(i, k), (k, i)] {
                        if self.owner(bi, bj, p) == me {
                            if !read_diag {
                                let d = block_region[k][k];
                                ops.read(d.base(), block_bytes as u32);
                                read_diag = true;
                            }
                            let r = block_region[bi][bj];
                            ops.compute_us(perim_us);
                            ops.write(r.base(), block_bytes as u32);
                        }
                    }
                }
                ops.barrier(bar);
                bar += 1;
                // Interior updates: (i,j), i,j > k, reading (i,k), (k,j).
                let mut fetched: Vec<(usize, usize)> = Vec::new();
                for i in k + 1..nb {
                    for j in k + 1..nb {
                        if self.owner(i, j, p) != me {
                            continue;
                        }
                        for need in [(i, k), (k, j)] {
                            if self.owner(need.0, need.1, p) != me && !fetched.contains(&need) {
                                let r = block_region[need.0][need.1];
                                ops.read(r.base(), block_bytes as u32);
                                fetched.push(need);
                            }
                        }
                        let r = block_region[i][j];
                        ops.compute_us(interior_us);
                        ops.write(r.base(), block_bytes as u32);
                    }
                }
                ops.barrier(bar);
                bar += 1;
            }
            sources.push(ops.into_source());
        }

        WorkloadSpec {
            sources,
            homes,
            locks: 1,
            bus_demand_per_proc: 35_000_000,
            warmup_barrier: Some(genima_proto::BarrierId::new(0)),
            arrival: Arrival::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_homed_at_their_owner() {
        let topo = Topology::new(4, 4);
        let spec = LuContiguous::paper().spec(topo);
        let total_pages: usize = spec.homes.iter().map(|(_, c, _)| c).sum();
        // 16x16 blocks of 128KB = 32 pages each.
        assert_eq!(total_pages, 16 * 16 * 32);
    }

    #[test]
    fn owner_function_covers_all_processes() {
        let lu = LuContiguous::paper();
        let mut seen = [false; 16];
        for bi in 0..16 {
            for bj in 0..16 {
                seen[lu.owner(bi, bj, 16)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
