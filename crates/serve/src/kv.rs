//! A partitioned in-memory key-value store served over SVM pages.
//!
//! Keys live in fixed-size value cells packed into pages; each page is
//! one *shard* guarded by its own lock and homed by the block
//! distribution, so a key has a well-defined home node (home-node
//! partitioning). Key popularity is Zipf-skewed and ranks are
//! scattered bijectively across shards, so the hot set spreads over
//! the cluster instead of hammering page 0.
//!
//! Every operation — read or write — takes its shard lock around the
//! access. Under lazy release consistency an unsynchronized read
//! would be a data race (and the `genima-check` race detector would
//! rightly flag it); per-shard locking is also simply how partitioned
//! stores serialize writers. The op streams are therefore race-free
//! by construction, and the protocol columns differ only in how
//! expensive those locks and page fetches are.

use std::collections::VecDeque;

use genima_apps::{App, Layout, Region, WorkloadSpec};
use genima_proto::{LockId, Op, ServeClass, Topology, PAGE_SIZE};
use genima_sim::{Dur, SplitMix64, Time};

use crate::arrival::Pacing;
use crate::stream::{compute_us, Offer, Request};
use crate::zipf::Zipf;

/// Bytes per stored value; 64 values pack one 4 KB page (= one shard).
pub const VALUE_BYTES: usize = 64;

/// Keys per shard page.
const KEYS_PER_PAGE: usize = PAGE_SIZE / VALUE_BYTES;

/// Open-loop Zipf key-value serving workload.
///
/// # Example
///
/// ```
/// use genima_serve::KvServe;
/// use genima_proto::Topology;
/// use genima_apps::App;
///
/// let kv = KvServe::new(1024, 0.99, 90, 400, genima_sim::Dur::from_ms(4));
/// let spec = kv.spec(Topology::new(2, 2));
/// assert_eq!(spec.sources.len(), 4);
/// assert_eq!(spec.locks, 1024 / 64);
/// ```
#[derive(Debug, Clone)]
pub struct KvServe {
    /// Total keys; must be a power of two and at least one page's
    /// worth so the rank scatter stays a bijection.
    keys: usize,
    /// Zipf skew of key popularity.
    zipf_s: f64,
    /// Percentage of operations that are reads (0..=100).
    read_pct: u32,
    /// Host-side service compute per op (request parse + hash), µs.
    service_us: f64,
    /// Operations offered, their window, pacing and seed.
    offer: Offer,
}

impl KvServe {
    /// A store with the given shape; arrivals default to Poisson
    /// starting at 500 µs, 0.3 µs host service per op, seed 0.
    ///
    /// # Panics
    ///
    /// Panics unless `keys` is a power of two covering at least one
    /// page, or if `read_pct` exceeds 100.
    pub fn new(keys: usize, zipf_s: f64, read_pct: u32, ops: u64, horizon: Dur) -> KvServe {
        assert!(
            keys.is_power_of_two() && keys >= KEYS_PER_PAGE,
            "keys must be a power of two filling at least one page"
        );
        assert!(read_pct <= 100, "read_pct is a percentage");
        KvServe {
            keys,
            zipf_s,
            read_pct,
            service_us: 0.3,
            offer: Offer::new(ops, horizon),
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> KvServe {
        self.offer.seed = seed;
        self
    }

    /// Replaces the inter-arrival distribution.
    pub fn with_pacing(mut self, pacing: Pacing) -> KvServe {
        self.offer.pacing = pacing;
        self
    }

    /// Replaces the arrival-window start time.
    pub fn with_start(mut self, start: Time) -> KvServe {
        self.offer.start = start;
        self
    }

    /// The store: one page per shard, from the first page on.
    fn store(&self) -> Region {
        Layout::new().alloc_pages(self.keys / KEYS_PER_PAGE)
    }
}

impl Request for KvServe {
    const SALT: u64 = 0x6b76_7365_7276_6500;

    fn max_ops(&self) -> usize {
        6
    }

    /// Service compute, then the key's access under its shard lock.
    fn push_ops(&self, t: Time, key: usize, rng: &mut SplitMix64, out: &mut VecDeque<Op>) {
        let shard = LockId::new(key / KEYS_PER_PAGE);
        let addr = self.store().addr((key * VALUE_BYTES) as u64);
        let len = VALUE_BYTES as u32;
        let is_read = rng.next_below(100) < self.read_pct as u64;
        out.push_back(Op::WaitUntil(t));
        out.extend(compute_us(self.service_us));
        out.push_back(Op::Acquire(shard));
        out.push_back(if is_read {
            Op::Read { addr, len }
        } else {
            Op::Write { addr, len }
        });
        out.push_back(Op::Release(shard));
        out.push_back(Op::ServeEnd {
            class: if is_read {
                ServeClass::Read
            } else {
                ServeClass::Write
            },
            issued: t,
        });
    }
}

impl App for KvServe {
    fn name(&self) -> &'static str {
        "KvServe"
    }

    fn problem(&self) -> String {
        format!(
            "{} keys, Zipf {:.2}, {}% reads, {} ops over {:.1}ms",
            self.keys,
            self.zipf_s,
            self.read_pct,
            self.offer.requests,
            self.offer.horizon.as_ms()
        )
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let store = self.store();
        let zipf = Zipf::new(self.keys, self.zipf_s);
        let homes = store.homes_blocked(topo);
        self.offer
            .spec(topo, self.clone(), zipf, homes, store.pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_apps::Arrival;

    fn ops_of(kv: &KvServe, topo: Topology) -> Vec<Vec<Op>> {
        kv.spec(topo)
            .sources
            .into_iter()
            .map(|mut s| {
                let mut v = Vec::new();
                while let Some(op) = s.next_op() {
                    v.push(op);
                }
                v
            })
            .collect()
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let topo = Topology::new(2, 2);
        let kv = KvServe::new(1024, 0.99, 90, 200, Dur::from_ms(2)).with_seed(5);
        let a = ops_of(&kv, topo);
        let b = ops_of(&kv, topo);
        assert_eq!(a, b, "same seed must give bit-identical streams");
        let c = ops_of(
            &KvServe::new(1024, 0.99, 90, 200, Dur::from_ms(2)).with_seed(6),
            topo,
        );
        assert_ne!(a, c, "a different seed must shuffle the traffic");
    }

    #[test]
    fn every_access_is_lock_protected_and_ends_the_op() {
        let topo = Topology::new(2, 1);
        let ops = ops_of(&KvServe::new(512, 0.8, 50, 100, Dur::from_ms(1)), topo);
        for stream in &ops {
            let mut held: Option<usize> = None;
            for op in stream {
                match op {
                    Op::Acquire(l) => {
                        assert!(held.is_none());
                        held = Some(l.index());
                    }
                    Op::Release(l) => {
                        assert_eq!(held, Some(l.index()));
                        held = None;
                    }
                    Op::Read { .. } | Op::Write { .. } => {
                        assert!(held.is_some(), "bare access outside the shard lock");
                    }
                    Op::ServeEnd { .. } => assert!(held.is_none()),
                    _ => {}
                }
            }
            assert!(held.is_none());
        }
        let serves: usize = ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::ServeEnd { .. }))
            .count();
        assert_eq!(serves, 100);
    }

    #[test]
    fn offered_load_is_reported_on_the_spec() {
        let kv = KvServe::new(1024, 0.99, 90, 4_000, Dur::from_ms(4));
        let spec = kv.spec(Topology::new(2, 2));
        assert_eq!(
            spec.arrival,
            Arrival::Open {
                horizon: Dur::from_ms(4),
                offered_ops: 4_000
            }
        );
        assert!((spec.arrival.offered_mops() - 1.0).abs() < 1e-9);
    }
}
