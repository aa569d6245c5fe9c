//! Sparse per-writer version timestamps, stored flat.
//!
//! A page version is "for each writer, the latest interval whose diff
//! this copy contains". The protocol keeps one per home copy and one
//! per cached copy (`CopyState::ts`), one per page a process
//! must see (`required`) and one per page a node has flushed
//! (`local_flushed`); the page machine (`system/page.rs`) compares and
//! raises them on every fault, fetch, notice, flush and diff.
//!
//! Two shapes hold them. A [`VersionMap`] is one version that stands
//! alone — a copy's, or one travelling in a page request or reply:
//! almost all name one to four writers, so the pairs live in place,
//! sorted by writer; a version with more writers moves to one heap
//! buffer and stays there. A [`VersionCol`] is a whole page column of
//! versions (`required`, `local_flushed`), where a process or node
//! pays the slot for *every* page of the shared extent: a slot is the
//! one `(writer, interval)` pair that almost every filled slot holds,
//! and a page with a second writer moves to a `VersionMap` in the
//! column's spill and stays there. Both hand a version out as its
//! sorted pair slice, which is what [`VersionMap::covers`] and
//! [`VersionMap::join`] take, so no caller learns which shape — or
//! which form of a slot — it is reading.

use std::fmt;

use genima_mem::PageId;

/// Pairs kept in place before the map moves to a heap buffer.
const INLINE: usize = 4;

// The inline buffer is a plain array, not `Option` slots, so either
// form is viewed as one slice: every operation here is a search or a
// merge walk over a sorted slice.
enum Repr {
    Inline { len: u8, buf: [(u32, u32); INLINE] },
    Heap(Vec<(u32, u32)>),
}

/// A sparse timestamp: `(writer, interval)` pairs ascending by writer,
/// at most one pair per writer, every interval positive. An absent
/// writer reads as interval 0.
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

    /// The `(writer, interval)` pairs, ascending by writer.
    pub(crate) fn pairs(&self) -> &[(u32, u32)] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The interval recorded for `writer`, 0 if none.
    pub(crate) fn get(&self, writer: u32) -> u32 {
        let pairs = self.pairs();
        match pairs.binary_search_by_key(&writer, |&(w, _)| w) {
            Ok(i) => pairs[i].1,
            Err(_) => 0,
        }
    }

    /// Raises `writer`'s interval to at least `interval`, recording the
    /// writer if it was absent. Interval 0 is what an absent writer
    /// reads as, so raising to it records nothing: a version has one
    /// representation, and `{}` equals what `{(2, 0)}` would denote.
    /// (No protocol site raises to 0 — interval numbers start at 1.)
    pub(crate) fn raise(&mut self, writer: u32, interval: u32) {
        if interval == 0 {
            return;
        }
        match self.pairs().binary_search_by_key(&writer, |&(w, _)| w) {
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
                self.move_to_heap(v);
            }
            Repr::Heap(v) => v.insert(i, pair),
        }
    }

    /// The one step from the in-place form to the heap form.
    fn move_to_heap(&mut self, pairs: Vec<(u32, u32)>) {
        #[cfg(test)]
        tests::HEAP_MOVES.with(|n| n.set(n.get() + 1));
        self.repr = Repr::Heap(pairs);
    }

    /// Pointwise maximum with the version `other` (the lattice join).
    pub(crate) fn join(&mut self, other: &[(u32, u32)]) {
        for &(w, i) in other {
            self.raise(w, i);
        }
    }

    /// Makes this map the version `pairs` (ascending by writer, as
    /// every version is handed out) in one copy into its existing
    /// storage: no allocation unless `pairs` is longer than anything
    /// this map ever held, and then one of exactly that length —
    /// raising pair by pair would regrow the buffer on the way.
    pub(crate) fn set(&mut self, pairs: &[(u32, u32)]) {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        match &mut self.repr {
            Repr::Heap(v) => {
                v.clear();
                v.extend_from_slice(pairs);
            }
            Repr::Inline { len, buf } if pairs.len() <= INLINE => {
                buf[..pairs.len()].copy_from_slice(pairs);
                *len = pairs.len() as u8;
            }
            Repr::Inline { .. } => self.move_to_heap(pairs.to_vec()),
        }
    }

    /// Returns `true` if this version is pointwise ≥ `required`.
    ///
    /// `covers` distributes over [`join`](Self::join):
    /// `v.covers(a ⊔ b) == v.covers(a) && v.covers(b)`, so a caller
    /// that only compares against a join never has to build it.
    pub(crate) fn covers(&self, required: &[(u32, u32)]) -> bool {
        let have = self.pairs();
        let mut j = 0;
        for &(w, need) in required {
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

    /// Copies `other` into this map's existing storage
    /// ([`set`](Self::set)).
    fn clone_from(&mut self, other: &VersionMap) {
        self.set(other.pairs());
    }
}

impl PartialEq for VersionMap {
    fn eq(&self, other: &VersionMap) -> bool {
        self.pairs() == other.pairs()
    }
}

impl Eq for VersionMap {}

impl fmt::Debug for VersionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.pairs().iter().copied()).finish()
    }
}

/// A page column of versions: per page, the version a process must see
/// or a node has flushed. Absent is the empty version.
///
/// A slot is 8 bytes and reads three ways. `(0, 0)` — all zero — is no
/// version, so sizing the column is one zeroed allocation. `(writer,
/// interval)` with a positive interval is the page's only pair: what
/// every filled slot of an LU or Ocean run holds. `(n, 0)` with `n > 0`
/// says the page got a second writer and its version is
/// `spill[n - 1]`; like a `VersionMap` at its fifth writer, it moves
/// once and stays. The encoding rests on intervals starting at 1.
#[derive(Default)]
pub(crate) struct VersionCol {
    slots: Vec<(u32, u32)>,
    spill: Vec<VersionMap>,
}

const _: () = assert!(size_of::<(u32, u32)>() == 8);

/// The three readings of a [`VersionCol`] slot.
enum Slot {
    Empty,
    One,
    Spilled(usize),
}

impl Slot {
    fn of(slot: (u32, u32)) -> Slot {
        match slot {
            (0, 0) => Slot::Empty,
            (n, 0) => Slot::Spilled(n as usize - 1),
            (_, 1..) => Slot::One,
        }
    }
}

impl VersionCol {
    /// Makes room for pages `0..extent` in one exact allocation, all
    /// empty; a page beyond it grows the column on demand, as
    /// [`genima_mem::PageVec`] does.
    pub(crate) fn size_to(&mut self, extent: usize) {
        if extent > self.slots.len() {
            self.slots.reserve_exact(extent - self.slots.len());
            self.slots.resize(extent, (0, 0));
        }
    }

    /// The version of `page` as its pairs, ascending by writer; empty
    /// if the page has none.
    pub(crate) fn pairs(&self, page: PageId) -> &[(u32, u32)] {
        let Some(slot) = self.slots.get(page.index()) else {
            return &[];
        };
        match Slot::of(*slot) {
            Slot::Empty => &[],
            Slot::One => std::slice::from_ref(slot),
            Slot::Spilled(at) => self.spill[at].pairs(),
        }
    }

    /// Raises `writer`'s interval in `page`'s version to at least
    /// `interval` ([`VersionMap::raise`]).
    pub(crate) fn raise(&mut self, page: PageId, writer: u32, interval: u32) {
        if interval == 0 {
            return;
        }
        let i = page.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, 0));
        }
        let extent = self.slots.len();
        let slot = &mut self.slots[i];
        match Slot::of(*slot) {
            Slot::Empty => *slot = (writer, interval),
            Slot::One if slot.0 == writer => slot.1 = slot.1.max(interval),
            Slot::One => {
                // At most one map per slot ever spills, and on some
                // workloads every slot does: reserve them all at the
                // first, rather than double on the way there. A column
                // that spills then costs what `Option<VersionMap>`
                // slots cost; one that never does costs a fifth.
                if self.spill.is_empty() {
                    self.spill.reserve_exact(extent);
                }
                let mut both = VersionMap::new();
                both.raise(slot.0, slot.1);
                both.raise(writer, interval);
                self.spill.push(both);
                *slot = (self.spill.len() as u32, 0);
            }
            Slot::Spilled(at) => self.spill[at].raise(writer, interval),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    thread_local! {
        /// Maps that moved to the heap on this thread: what a test
        /// counts to show travelling versions are recycled, not rebuilt.
        pub(crate) static HEAP_MOVES: Cell<usize> = const { Cell::new(0) };
    }

    impl VersionMap {
        pub(crate) fn is_inline(&self) -> bool {
            matches!(self.repr, Repr::Inline { .. })
        }
    }

    impl VersionCol {
        /// The maps of the pages that got a second writer.
        pub(crate) fn spilled(&self) -> &[VersionMap] {
            &self.spill
        }
    }

    /// The `BTreeMap<u32, u32>` this type replaced, with the operations
    /// written the way the protocol used to write them — except that an
    /// interval of 0 records nothing.
    type Oracle = BTreeMap<u32, u32>;

    fn oracle_raise(m: &mut Oracle, w: u32, i: u32) {
        if i > 0 {
            let e = m.entry(w).or_insert(0);
            *e = (*e).max(i);
        }
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

    fn oracle_pairs(o: &Oracle) -> Vec<(u32, u32)> {
        o.iter().map(|(&w, &i)| (w, i)).collect()
    }

    fn assert_same(v: &VersionMap, o: &Oracle) {
        assert_eq!(v.pairs(), oracle_pairs(o));
    }

    #[test]
    fn empty_map_reads_zero_and_covers_only_zeros() {
        let v = VersionMap::new();
        assert_eq!(v.get(3), 0);
        assert!(v.pairs().is_empty());
        assert!(v.covers(VersionMap::new().pairs()));
        let (zero, _) = from_pairs(&[(2, 0)]);
        assert_eq!(zero, VersionMap::new(), "a zero interval records nothing");
        assert!(
            v.covers(&[(2, 0)]),
            "a required interval of 0 is always met"
        );
        let (one, _) = from_pairs(&[(2, 1)]);
        assert!(!v.covers(one.pairs()));
    }

    #[test]
    fn raise_keeps_writers_sorted_and_takes_the_maximum() {
        let (v, _) = from_pairs(&[(7, 2), (1, 5), (4, 1), (1, 3), (4, 9)]);
        assert_eq!(v.pairs(), [(1, 5), (4, 9), (7, 2)]);
        assert_eq!(v.get(4), 9);
        assert_eq!(v.get(5), 0);
    }

    #[test]
    fn fifth_writer_moves_the_map_to_the_heap_in_order() {
        let (mut v, mut o) = from_pairs(&[(8, 1), (2, 1), (6, 1), (4, 1)]);
        assert!(v.is_inline());
        v.raise(4, 3); // a writer already present never spills
        oracle_raise(&mut o, 4, 3);
        assert!(v.is_inline());
        v.raise(5, 2);
        oracle_raise(&mut o, 5, 2);
        assert!(!v.is_inline());
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
        assert!(!dst.is_inline());
        assert_same(&dst, &small_o);
        assert_eq!(dst, small);
        assert!(dst.clone().is_inline());
    }

    #[test]
    fn covers_walks_past_writers_the_requirement_does_not_name() {
        let (applied, _) = from_pairs(&[(0, 9), (3, 2), (5, 4), (9, 1)]);
        assert!(applied.covers(&[(3, 2), (9, 1)]));
        assert!(!applied.covers(&[(3, 2), (9, 2)]));
        assert!(!applied.covers(&[(4, 1)]));
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
                v.join(src_v.pairs());
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
        /// same `get`, same ordered pairs, same `covers`. Writers
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
                        prop_assert_eq!(a.covers(b.pairs()), oracle_covers(ao, bo));
                        prop_assert_eq!(a == b, ao == bo);
                    }
                }
            }
        }

        /// The identity `page::Need::met_by` rests on: covering a join
        /// is covering both operands.
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
            joined.join(b.pairs());
            prop_assert_eq!(
                v.covers(joined.pairs()),
                v.covers(a.pairs()) && v.covers(b.pairs())
            );
            prop_assert!(joined.covers(a.pairs()) && joined.covers(b.pairs()));
        }

        /// Arbitrary `raise` / `size_to` interleavings answer as a
        /// page-keyed map of `BTreeMap` versions does, before and
        /// beyond a pre-sized extent of 16 pages. Writers 0..7 take a
        /// page from one writer to two (into the spill) and from four
        /// to five (onto the heap inside it).
        #[test]
        fn prop_version_col_matches_page_vec_of_maps(steps in proptest::collection::vec(
            (0u8..8, 0usize..48, 0u32..7, 0u32..6), 1..120
        )) {
            let mut col = VersionCol::default();
            col.size_to(16);
            let mut oracle: BTreeMap<usize, Oracle> = BTreeMap::new();
            for (kind, index, w, i) in steps {
                if kind == 0 {
                    col.size_to(index); // may add room, never touches a value
                } else {
                    col.raise(PageId::new(index), w, i);
                    oracle_raise(oracle.entry(index).or_default(), w, i);
                }
                for page in 0..50 {
                    let want = oracle.get(&page).map(oracle_pairs).unwrap_or_default();
                    prop_assert_eq!(col.pairs(PageId::new(page)), want);
                }
            }
        }
    }

    #[test]
    fn same_writer_raised_twice_never_spills() {
        let mut col = VersionCol::default();
        let page = PageId::new(5);
        col.raise(page, 3, 2);
        col.raise(page, 3, 7);
        col.raise(page, 3, 4);
        assert_eq!(col.pairs(page), [(3, 7)]);
        assert!(col.spilled().is_empty());
        // Writer 0 is a writer like any other.
        col.raise(PageId::new(6), 0, 1);
        assert_eq!(col.pairs(PageId::new(6)), [(0, 1)]);
        col.raise(PageId::new(6), 0, 0);
        col.raise(PageId::new(7), 4, 0);
        assert_eq!(col.pairs(PageId::new(6)), [(0, 1)]);
        assert!(
            col.pairs(PageId::new(7)).is_empty(),
            "a zero interval records nothing"
        );
    }

    #[test]
    fn second_writer_spills_in_writer_order_whichever_came_first() {
        let mut col = VersionCol::default();
        let (lo_first, hi_first) = (PageId::new(0), PageId::new(1));
        col.raise(lo_first, 2, 1);
        col.raise(lo_first, 6, 3);
        col.raise(hi_first, 6, 3);
        col.raise(hi_first, 2, 1);
        assert_eq!(col.pairs(lo_first), [(2, 1), (6, 3)]);
        assert_eq!(col.pairs(hi_first), col.pairs(lo_first));
        assert_eq!(col.spilled().len(), 2);
        // A spilled page stays spilled and keeps raising in place.
        col.raise(lo_first, 2, 9);
        assert_eq!(col.pairs(lo_first), [(2, 9), (6, 3)]);
        assert_eq!(col.spilled().len(), 2);
    }

    #[test]
    fn a_column_that_never_spills_allocates_once() {
        let mut col = VersionCol::default();
        col.size_to(64);
        let (slots, cap) = (col.slots.as_ptr(), col.slots.capacity());
        assert_eq!(cap, 64, "sized exactly");
        for page in 0..64 {
            col.raise(PageId::new(page), (page % 5) as u32, 1 + page as u32);
            col.raise(PageId::new(page), (page % 5) as u32, 2 + page as u32);
        }
        assert_eq!((col.slots.as_ptr(), col.slots.capacity()), (slots, cap));
        assert_eq!(col.spill.capacity(), 0);
        // The first spill reserves a map for every slot, once.
        col.raise(PageId::new(9), 7, 1);
        assert_eq!(col.spill.capacity(), 64);
        let spill = col.spill.as_ptr();
        for page in 0..64 {
            col.raise(PageId::new(page), 6, 1);
        }
        assert_eq!(col.spill.len(), 64);
        assert_eq!((col.spill.as_ptr(), col.spill.capacity()), (spill, 64));
    }
}
