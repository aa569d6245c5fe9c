//! A fixed, cheap hasher for maps keyed by ids the simulation itself
//! hands out. It serves the two message-tag maps (`SvmSystem.tags`,
//! `Comm.pending`) and nothing else: tags come and go, so a map fits
//! them, while page ids are dense and live in `genima_mem::PageVec`
//! columns.
//!
//! Such keys never come from outside the process, so the default
//! SipHash buys nothing, and its per-map random keys make a table's
//! tombstone pattern — and with it whether an insert-and-remove map
//! rehashes in place or doubles, and so the allocation count of a run
//! — differ from one run to the next. One multiply per lookup and the
//! same layout every run.
//!
//! Iteration order of a map built on [`FixedState`] is still an
//! artefact of the table layout. No such map may be iterated in a way
//! that reaches a report, a trace or the event queue: look keys up, or
//! sort first.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for `HashMap<K, V, FixedState>`.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// Multiplicative (Fibonacci) hasher for small integer keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Folds the high half down: the table indexes with the low bits,
    /// and the low bits of a product depend only on the low bits of
    /// the key — strided ids would share them.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The 64-bit FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a `state`, which starts at
/// [`FNV_OFFSET`] or goes on from an earlier call's result.
///
/// # Example
///
/// ```
/// use genima_sim::{fnv1a, FNV_OFFSET};
/// assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
/// assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b"), fnv1a(FNV_OFFSET, b"ab"));
/// ```
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn same_key_same_hash_on_every_builder() {
        let (a, b) = (FixedState::default(), FixedState::default());
        for i in [0u32, 1, 4095, 1 << 20] {
            assert_eq!(a.hash_one(i), b.hash_one(i));
            assert_eq!(a.hash_one(i as u64), b.hash_one(i as u64));
        }
    }

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        // Every 64th id: a plain multiply would leave the low six bits
        // of every hash equal.
        let build = FixedState::default();
        let mut buckets = [0u32; 64];
        for i in 0..4096u32 {
            buckets[(build.hash_one(i * 64) & 63) as usize] += 1;
        }
        let (min, max) = (buckets.iter().min(), buckets.iter().max());
        assert!(min >= Some(&32) && max <= Some(&96), "{buckets:?}");
    }

    #[test]
    fn a_map_on_it_behaves_like_a_map() {
        let mut m: HashMap<u32, u32, FixedState> = HashMap::default();
        for i in 0..1000 {
            m.insert(i * 8, i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(8 * 999)), Some(&999));
        assert_eq!(m.get(&3), None);
        for i in 0..1000 {
            assert_eq!(m.remove(&(i * 8)), Some(i));
        }
        assert!(m.is_empty());
    }
}
