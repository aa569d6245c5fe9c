//! A bit-per-index set for page numbers.

/// A set of page indices, one bit each: page indices are small and
/// dense. Sized for an extent with [`PageBits::size_to`] and grown to
/// the highest index inserted beyond it. [`PageBits::drain`] reads the
/// members back ascending — the sorted, duplicate-free page list a
/// sort + dedup would produce — visiting only the words an insert
/// touched, so a few pages out of a large extent cost a few words.
#[derive(Debug)]
pub struct PageBits {
    words: Vec<u64>,
    /// The words inserts touched since the last drain: `lo..hi`.
    lo: usize,
    hi: usize,
}

impl Default for PageBits {
    fn default() -> Self {
        PageBits {
            words: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl PageBits {
    /// Makes room for every index below `extent` with one exact
    /// allocation; never shrinks.
    pub fn size_to(&mut self, extent: usize) {
        let words = extent.div_ceil(64);
        if words > self.words.len() {
            self.words.reserve_exact(words - self.words.len());
            self.words.resize(words, 0);
        }
    }

    /// Adds `index`; returns `true` if it was absent (the contract of
    /// `HashSet::insert`).
    pub fn insert(&mut self, index: usize) -> bool {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.lo = self.lo.min(word);
        self.hi = self.hi.max(word + 1);
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Returns `true` if `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        (self.words.get(index / 64)).is_some_and(|w| w & (1 << (index % 64)) != 0)
    }

    /// Empties the set, passing its members to `f` in ascending order.
    pub fn drain(&mut self, mut f: impl FnMut(usize)) {
        for word in self.lo..self.hi {
            let mut bits = std::mem::take(&mut self.words[word]);
            while bits != 0 {
                f(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        (self.lo, self.hi) = (usize::MAX, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a `BTreeSet`: `insert` reports absence, a drain
        /// yields the members ascending and leaves the set empty, and
        /// the emptied set is reusable — whatever it was sized to and
        /// however far beyond that the indices reach.
        #[test]
        fn page_bits_insert_and_drain_like_a_btree_set(
            extent in 0usize..5_000,
            rounds in prop::collection::vec(
                prop::collection::vec(0usize..10_000, 0..80),
                1..5,
            ),
        ) {
            let mut bits = PageBits::default();
            bits.size_to(extent);
            for round in &rounds {
                let mut set = BTreeSet::new();
                for &index in round {
                    prop_assert_eq!(bits.insert(index), set.insert(index), "index {}", index);
                }
                for index in (0..10_000).step_by(7).chain(round.iter().copied()) {
                    prop_assert_eq!(bits.contains(index), set.contains(&index), "index {}", index);
                }
                let mut drained = Vec::new();
                bits.drain(|i| drained.push(i));
                prop_assert_eq!(&drained, &set.iter().copied().collect::<Vec<_>>());
                bits.drain(|i| panic!("drained set still holds {i}"));
                prop_assert!(bits.words.iter().all(|&w| w == 0));
            }
        }
    }

    #[test]
    fn sizing_is_exact_and_drain_keeps_the_buffer() {
        let mut bits = PageBits::default();
        bits.size_to(4_128);
        assert_eq!((bits.words.len(), bits.words.capacity()), (65, 65));
        assert!(bits.insert(4_127) && !bits.insert(4_127));
        bits.drain(|i| assert_eq!(i, 4_127));
        bits.size_to(64);
        assert_eq!(bits.words.capacity(), 65);
    }
}
