//! Dirty-range tracking for the synthetic-data workload path.

use std::fmt;

use crate::addr::PAGE_SIZE;
use crate::diff::WORD;

/// The set of byte ranges an interval modified within one page,
/// maintained word-aligned, coalesced and sorted.
///
/// Large workload generators use this instead of materialising page
/// contents: the *number of runs* determines how many direct-diff
/// messages GeNIMA sends for the page, and the *byte count* determines
/// diff message sizes — those are the performance-relevant properties.
///
/// # Example
///
/// ```
/// use genima_mem::DirtyRanges;
/// let mut d = DirtyRanges::new();
/// d.add(0, 4);
/// d.add(4, 4);   // adjacent: coalesces
/// d.add(100, 8); // separate run
/// assert_eq!(d.runs(), 2);
/// assert_eq!(d.bytes(), 16);
/// ```
#[derive(Clone)]
pub struct DirtyRanges {
    repr: Repr,
}

/// Runs kept in place before the set moves to a heap buffer: three fit
/// beside a `Vec` at no extra size, and most pages an interval writes
/// have one to three runs.
const INLINE: usize = 3;

/// A half-open `[start, end)` byte range; page offsets fit 16 bits.
type Run = (u16, u16);

/// Sorted, disjoint runs. A heap buffer, once it exists, is kept (also
/// across `clear`).
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [Run; INLINE] },
    Spilled(Vec<Run>),
}

const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);
const _: () = assert!(std::mem::size_of::<DirtyRanges>() <= 32);

impl DirtyRanges {
    /// Creates an empty set (no allocation).
    pub fn new() -> DirtyRanges {
        let buf = [(0, 0); INLINE];
        DirtyRanges {
            repr: Repr::Inline { len: 0, buf },
        }
    }

    fn as_slice(&self) -> &[Run] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Marks `[offset, offset+len)` dirty, expanding to word
    /// boundaries and coalescing with touching ranges.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the page or `len` is 0.
    pub fn add(&mut self, offset: u32, len: u32) {
        assert!(len > 0, "empty dirty range");
        assert!(
            (offset + len) as usize <= PAGE_SIZE,
            "dirty range [{offset}, {}) escapes the page",
            offset + len
        );
        let w = WORD as u32;
        // Both fit: at most `PAGE_SIZE`, asserted above to fit.
        let start = (offset / w * w) as u16;
        let end = ((offset + len).div_ceil(w) * w) as u16;

        // Find insertion window of overlapping/touching ranges.
        let ranges = self.as_slice();
        let mut lo = ranges.partition_point(|&(_, e)| e < start);
        let mut hi = lo;
        let mut new_start = start;
        let mut new_end = end;
        while hi < ranges.len() && ranges[hi].0 <= end {
            new_start = new_start.min(ranges[hi].0);
            new_end = new_end.max(ranges[hi].1);
            hi += 1;
        }
        if lo > 0 && ranges[lo - 1].1 >= start {
            lo -= 1;
            new_start = new_start.min(ranges[lo].0);
            new_end = new_end.max(ranges[lo].1);
        }
        // Replace runs `lo..hi` (possibly none) with the merged run.
        let run = (new_start, new_end);
        match &mut self.repr {
            Repr::Spilled(v) => drop(v.splice(lo..hi, [run])),
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                let new_len = n + 1 - (hi - lo);
                if new_len <= INLINE {
                    buf.copy_within(hi..n, lo + 1);
                    buf[lo] = run;
                    *len = new_len as u8;
                } else {
                    let mut v = Vec::with_capacity(2 * INLINE + 2);
                    v.extend_from_slice(buf);
                    v.insert(lo, run);
                    self.repr = Repr::Spilled(v);
                }
            }
        }
    }

    /// Number of contiguous dirty runs.
    pub fn runs(&self) -> usize {
        self.as_slice().len()
    }

    /// Total dirty bytes (word-aligned).
    pub fn bytes(&self) -> u32 {
        self.iter().map(|(_, len)| len).sum()
    }

    /// Returns `true` if nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Iterates over `(offset, len)` runs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let widen = |&(s, e): &Run| (u32::from(s), u32::from(e - s));
        self.as_slice().iter().map(widen)
    }

    /// Clears all ranges (start of a new interval).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Spilled(v) => v.clear(),
        }
    }
}

impl Default for DirtyRanges {
    fn default() -> DirtyRanges {
        DirtyRanges::new()
    }
}

impl PartialEq for DirtyRanges {
    fn eq(&self, other: &DirtyRanges) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for DirtyRanges {}

impl fmt::Debug for DirtyRanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn word_alignment_expands() {
        let mut d = DirtyRanges::new();
        d.add(9, 1);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(8, 4)]);
    }

    #[test]
    fn touching_ranges_coalesce() {
        let mut d = DirtyRanges::new();
        d.add(0, 4);
        d.add(8, 4);
        assert_eq!(d.runs(), 2);
        d.add(4, 4); // bridges the gap
        assert_eq!(d.runs(), 1);
        assert_eq!(d.bytes(), 12);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let mut d = DirtyRanges::new();
        d.add(0, 100);
        d.add(50, 100);
        assert_eq!(d.runs(), 1);
        assert_eq!(d.bytes(), 152); // [0, 152)
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut d = DirtyRanges::new();
        d.add(2000, 4);
        d.add(0, 4);
        d.add(1000, 4);
        let v: Vec<_> = d.iter().collect();
        assert_eq!(v, vec![(0, 4), (1000, 4), (2000, 4)]);
    }

    #[test]
    fn clear_empties() {
        let mut d = DirtyRanges::new();
        d.add(0, 4);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "escapes the page")]
    fn out_of_page_panics() {
        DirtyRanges::new().add(4094, 4);
    }

    /// The pre-inline representation, kept as the oracle: a plain
    /// sorted `Vec` of half-open `(start, end)` ranges.
    fn oracle_add(ranges: &mut Vec<(u32, u32)>, offset: u32, len: u32) {
        let w = WORD as u32;
        let (mut start, mut end) = (offset / w * w, (offset + len).div_ceil(w) * w);
        ranges.retain(|&(s, e)| {
            let touches = s <= end && e >= start;
            if touches {
                start = start.min(s);
                end = end.max(e);
            }
            !touches
        });
        ranges.push((start, end));
        ranges.sort_unstable();
    }

    proptest! {
        /// Same `runs`, `bytes` and ordered `iter` as the plain-`Vec`
        /// oracle after every step of an arbitrary `add`/`clear`
        /// sequence (`kind == 0` clears). Offsets sit on a 64-byte grid
        /// with lengths up to 160, so runs both pile up past the
        /// inline three and coalesce back under them; the fixed tail
        /// makes every case cross that boundary in both directions.
        #[test]
        fn prop_matches_sorted_vec_oracle(steps in proptest::collection::vec(
            (0u32..12, 0u32..64, 1u32..160), 1..60
        )) {
            let page = PAGE_SIZE as u32;
            let scattered = (0..5).map(|i| (1, i * 8, 4));
            let tail = [(0, 0, 1)].into_iter()  // clear
                .chain(scattered.clone())        // 0 -> 5 runs: spills
                .chain([(1, 0, page)])           // 5 -> 1 by coalescing
                .chain([(0, 0, 1)])              // cleared while spilled
                .chain(scattered);               // and grown again
            let mut d = DirtyRanges::new();
            let mut oracle: Vec<(u32, u32)> = Vec::new();
            let (mut grew, mut shrank) = (false, false);
            for (kind, slot, len) in steps.into_iter().chain(tail) {
                let before = oracle.len();
                if kind == 0 {
                    d.clear();
                    oracle.clear();
                } else {
                    let off = slot * 64;
                    let len = len.min(page - off);
                    d.add(off, len);
                    oracle_add(&mut oracle, off, len);
                }
                grew |= before <= INLINE && oracle.len() > INLINE;
                shrank |= before > INLINE && oracle.len() <= INLINE;
                prop_assert_eq!(d.runs(), oracle.len());
                prop_assert_eq!(d.is_empty(), oracle.is_empty());
                prop_assert_eq!(d.bytes(), oracle.iter().map(|&(s, e)| e - s).sum::<u32>());
                let want: Vec<(u32, u32)> = oracle.iter().map(|&(s, e)| (s, e - s)).collect();
                prop_assert_eq!(d.iter().collect::<Vec<_>>(), want);
            }
            prop_assert!(grew && shrank);
        }
    }

    proptest! {
        /// Ranges stay sorted, disjoint (with at least a word gap),
        /// word-aligned, and cover every added byte.
        #[test]
        fn prop_invariants(adds in proptest::collection::vec(
            (0u32..PAGE_SIZE as u32 - 64, 1u32..64), 1..40
        )) {
            let mut d = DirtyRanges::new();
            for &(off, len) in &adds {
                d.add(off, len);
            }
            let v: Vec<(u32, u32)> = d.iter().collect();
            let mut prev_end = None::<u32>;
            for &(s, l) in &v {
                prop_assert!(l > 0);
                prop_assert_eq!(s % 4, 0);
                prop_assert_eq!(l % 4, 0);
                if let Some(pe) = prev_end {
                    prop_assert!(s > pe, "ranges must be disjoint and non-touching");
                }
                prev_end = Some(s + l);
            }
            // Coverage: each added byte falls inside some range.
            for &(off, len) in &adds {
                for b in [off, off + len - 1] {
                    prop_assert!(
                        v.iter().any(|&(s, l)| b >= s && b < s + l),
                        "byte {} not covered", b
                    );
                }
            }
        }
    }
}
