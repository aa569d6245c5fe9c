//! Sparse per-writer version timestamps, stored flat.
//!
//! A page version is "for each writer, the latest interval whose diff
//! this copy contains". The protocol keeps one per home copy and one
//! per cached copy (`CopyState::ts`), one per page a process
//! must see (`required`) and one per page a node has flushed
//! (`local_flushed`), and compares them on every fault and every
//! fetch. Almost all of them name one to four writers, so the pairs
//! live in place, sorted by writer; a page with more writers moves to
//! one heap buffer and stays there.

use std::fmt;

/// Pairs kept in place before the map moves to a heap buffer.
const INLINE: usize = 4;

// `genima_sim::InlineVec` has the same inline-then-spill shape, but its
// `Option` slots cannot be viewed as one slice, and every operation
// here is a search or a merge walk over a sorted slice.
enum Repr {
    Inline { len: u8, buf: [(u32, u32); INLINE] },
    Heap(Vec<(u32, u32)>),
}

/// A sparse timestamp: `(writer, interval)` pairs ascending by writer,
/// at most one pair per writer. An absent writer reads as interval 0.
pub(crate) struct VersionMap {
    repr: Repr,
}

impl VersionMap {
    /// The empty map (no allocation).
    pub(crate) const fn new() -> VersionMap {
        VersionMap {
            repr: Repr::Inline {
                len: 0,
                buf: [(0, 0); INLINE],
            },
        }
    }

    fn as_slice(&self) -> &[(u32, u32)] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The interval recorded for `writer`, 0 if none.
    pub(crate) fn get(&self, writer: u32) -> u32 {
        let pairs = self.as_slice();
        match pairs.binary_search_by_key(&writer, |&(w, _)| w) {
            Ok(i) => pairs[i].1,
            Err(_) => 0,
        }
    }

    /// Raises `writer`'s interval to at least `interval`, recording the
    /// writer if it was absent.
    pub(crate) fn raise(&mut self, writer: u32, interval: u32) {
        match self.as_slice().binary_search_by_key(&writer, |&(w, _)| w) {
            Ok(i) => {
                let pairs = match &mut self.repr {
                    Repr::Inline { buf, .. } => &mut buf[..],
                    Repr::Heap(v) => &mut v[..],
                };
                pairs[i].1 = pairs[i].1.max(interval);
            }
            Err(i) => self.insert_at(i, (writer, interval)),
        }
    }

    fn insert_at(&mut self, i: usize, pair: (u32, u32)) {
        match &mut self.repr {
            Repr::Inline { len, buf } if (*len as usize) < INLINE => {
                let n = *len as usize;
                buf.copy_within(i..n, i + 1);
                buf[i] = pair;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(buf);
                v.insert(i, pair);
                self.repr = Repr::Heap(v);
            }
            Repr::Heap(v) => v.insert(i, pair),
        }
    }

    /// Pointwise maximum with `other` (the lattice join).
    pub(crate) fn join(&mut self, other: &VersionMap) {
        for &(w, i) in other.as_slice() {
            self.raise(w, i);
        }
    }

    /// Returns `true` if this version is pointwise ≥ `required`.
    ///
    /// `covers` distributes over [`join`](Self::join):
    /// `v.covers(a ⊔ b) == v.covers(a) && v.covers(b)`, so a caller
    /// that only compares against a join never has to build it.
    pub(crate) fn covers(&self, required: &VersionMap) -> bool {
        let have = self.as_slice();
        let mut j = 0;
        for &(w, need) in required.as_slice() {
            while j < have.len() && have[j].0 < w {
                j += 1;
            }
            let got = if j < have.len() && have[j].0 == w {
                have[j].1
            } else {
                0
            };
            if got < need {
                return false;
            }
        }
        true
    }

    /// The `(writer, interval)` pairs, ascending by writer.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.as_slice().iter().copied()
    }
}

impl Default for VersionMap {
    fn default() -> VersionMap {
        VersionMap::new()
    }
}

impl Clone for VersionMap {
    fn clone(&self) -> VersionMap {
        let mut out = VersionMap::new();
        out.clone_from(self);
        out
    }

    /// Copies `other` into this map's existing storage: no allocation
    /// unless `other` has more pairs than this map ever held.
    fn clone_from(&mut self, other: &VersionMap) {
        let src = other.as_slice();
        match &mut self.repr {
            Repr::Heap(v) => {
                v.clear();
                v.extend_from_slice(src);
            }
            Repr::Inline { len, buf } if src.len() <= INLINE => {
                buf[..src.len()].copy_from_slice(src);
                *len = src.len() as u8;
            }
            Repr::Inline { .. } => self.repr = Repr::Heap(src.to_vec()),
        }
    }
}

impl PartialEq for VersionMap {
    fn eq(&self, other: &VersionMap) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for VersionMap {}

impl fmt::Debug for VersionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The `BTreeMap<u32, u32>` this type replaced, with the operations
    /// written the way the protocol used to write them.
    type Oracle = BTreeMap<u32, u32>;

    fn oracle_raise(m: &mut Oracle, w: u32, i: u32) {
        let e = m.entry(w).or_insert(0);
        *e = (*e).max(i);
    }

    fn oracle_covers(applied: &Oracle, required: &Oracle) -> bool {
        required
            .iter()
            .all(|(q, i)| applied.get(q).copied().unwrap_or(0) >= *i)
    }

    fn from_pairs(pairs: &[(u32, u32)]) -> (VersionMap, Oracle) {
        let (mut v, mut o) = (VersionMap::new(), Oracle::new());
        for &(w, i) in pairs {
            v.raise(w, i);
            oracle_raise(&mut o, w, i);
        }
        (v, o)
    }

    fn assert_same(v: &VersionMap, o: &Oracle) {
        let got: Vec<(u32, u32)> = v.iter().collect();
        let want: Vec<(u32, u32)> = o.iter().map(|(&w, &i)| (w, i)).collect();
        assert_eq!(got, want);
    }

    fn is_inline(v: &VersionMap) -> bool {
        matches!(v.repr, Repr::Inline { .. })
    }

    #[test]
    fn empty_map_reads_zero_and_covers_only_zeros() {
        let v = VersionMap::new();
        assert_eq!(v.get(3), 0);
        assert_eq!(v.iter().count(), 0);
        assert!(v.covers(&VersionMap::new()));
        let (zero, _) = from_pairs(&[(2, 0)]);
        assert!(v.covers(&zero), "a required interval of 0 is always met");
        let (one, _) = from_pairs(&[(2, 1)]);
        assert!(!v.covers(&one));
    }

    #[test]
    fn raise_keeps_writers_sorted_and_takes_the_maximum() {
        let (v, _) = from_pairs(&[(7, 2), (1, 5), (4, 1), (1, 3), (4, 9)]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(1, 5), (4, 9), (7, 2)]);
        assert_eq!(v.get(4), 9);
        assert_eq!(v.get(5), 0);
    }

    #[test]
    fn fifth_writer_moves_the_map_to_the_heap_in_order() {
        let (mut v, mut o) = from_pairs(&[(8, 1), (2, 1), (6, 1), (4, 1)]);
        assert!(is_inline(&v));
        v.raise(4, 3); // a writer already present never spills
        oracle_raise(&mut o, 4, 3);
        assert!(is_inline(&v));
        v.raise(5, 2);
        oracle_raise(&mut o, 5, 2);
        assert!(!is_inline(&v));
        assert_same(&v, &o);
        v.raise(0, 7);
        oracle_raise(&mut o, 0, 7);
        assert_same(&v, &o);
    }

    #[test]
    fn clone_from_reuses_storage_in_both_directions() {
        let (small, small_o) = from_pairs(&[(1, 1), (2, 2)]);
        let (big, big_o) = from_pairs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);

        let mut dst = small.clone();
        dst.clone_from(&big);
        assert_same(&dst, &big_o);
        assert_eq!(dst, big);

        // A heap map keeps its buffer when it takes a small value; the
        // representation is not part of the value.
        dst.clone_from(&small);
        assert!(!is_inline(&dst));
        assert_same(&dst, &small_o);
        assert_eq!(dst, small);
        assert!(is_inline(&dst.clone()));
    }

    #[test]
    fn covers_walks_past_writers_the_requirement_does_not_name() {
        let (applied, _) = from_pairs(&[(0, 9), (3, 2), (5, 4), (9, 1)]);
        let (need, _) = from_pairs(&[(3, 2), (9, 1)]);
        assert!(applied.covers(&need));
        let (too_new, _) = from_pairs(&[(3, 2), (9, 2)]);
        assert!(!applied.covers(&too_new));
        let (absent, _) = from_pairs(&[(4, 1)]);
        assert!(!applied.covers(&absent));
    }

    /// One step of an arbitrary interleaving over three maps.
    fn step(
        maps: &mut [(VersionMap, Oracle)],
        ((op, dst, src), (w, i)): ((u8, usize, usize), (u32, u32)),
    ) {
        let (src_v, src_o) = (maps[src].0.clone(), maps[src].1.clone());
        let (v, o) = &mut maps[dst];
        match op {
            0 => {
                v.raise(w, i);
                oracle_raise(o, w, i);
            }
            1 => {
                v.join(&src_v);
                for (&w, &i) in &src_o {
                    oracle_raise(o, w, i);
                }
            }
            _ => {
                v.clone_from(&src_v);
                o.clone_from(&src_o);
            }
        }
    }

    proptest! {
        /// Arbitrary `raise` / `join` / `clone_from` interleavings over
        /// three maps leave each one equal to its `BTreeMap` oracle:
        /// same `get`, same ordered `iter`, same `covers`. Writers
        /// 0..7 make maps cross the 4/5-pair boundary both ways.
        #[test]
        fn prop_matches_btreemap_oracle(
            ops in proptest::collection::vec(
                ((0u8..3, 0usize..3, 0usize..3), (0u32..7, 0u32..6)), 0..60),
        ) {
            let mut maps: Vec<(VersionMap, Oracle)> =
                (0..3).map(|_| (VersionMap::new(), Oracle::new())).collect();
            for op in ops {
                step(&mut maps, op);
                for (v, o) in &maps {
                    assert_same(v, o);
                    for w in 0..8 {
                        prop_assert_eq!(v.get(w), o.get(&w).copied().unwrap_or(0));
                    }
                }
                for (a, ao) in &maps {
                    for (b, bo) in &maps {
                        prop_assert_eq!(a.covers(b), oracle_covers(ao, bo));
                        prop_assert_eq!(a == b, ao == bo);
                    }
                }
            }
        }

        /// The identity that lets the fault path drop `node_required`:
        /// covering a join is covering both operands.
        #[test]
        fn prop_covers_distributes_over_join(
            v in proptest::collection::vec((0u32..7, 0u32..6), 0..8),
            a in proptest::collection::vec((0u32..7, 0u32..6), 0..8),
            b in proptest::collection::vec((0u32..7, 0u32..6), 0..8),
        ) {
            let (v, _) = from_pairs(&v);
            let (a, _) = from_pairs(&a);
            let (b, _) = from_pairs(&b);
            let mut joined = a.clone();
            joined.join(&b);
            prop_assert_eq!(v.covers(&joined), v.covers(&a) && v.covers(&b));
            prop_assert!(joined.covers(&a) && joined.covers(&b));
        }
    }
}
