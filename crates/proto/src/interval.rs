//! Intervals and write-notice records.

use std::ops::Range;

use genima_mem::{DirtyRanges, Page, PageId};

/// One writer's write-notice records: for each of its intervals, the
/// pages it modified in it, ascending. Propagated eagerly (remote
/// deposit, DW protocols) or piggybacked on lock grants and barrier
/// messages (Base).
///
/// A writer's interval numbers are consecutive from 1 and a record is
/// immutable once closed, so the records are one page list and the
/// offset in it each interval ends at: interval `i` is pages
/// `ends[i - 2]..ends[i - 1]` of the list. Closing an interval
/// allocates nothing of its own, and the size of any run of records is
/// a difference of two offsets. The list is kept in chunks that fill
/// once and are never reallocated — a vector that doubled asked for up
/// to four times the bytes it ended up holding — and an interval never
/// straddles two of them.
#[derive(Clone, Debug, Default)]
pub struct IntervalLog {
    ends: Vec<u32>,
    /// Each chunk with the offset of its first page in the whole list.
    chunks: Vec<(u32, Vec<PageId>)>,
}

/// Pages per chunk, unless one interval needs more: a kilobyte, so a
/// writer that closes a handful of intervals (the model checker builds
/// thousands of such systems) does not reserve a page for them.
const CHUNK_PAGES: usize = 256;

impl IntervalLog {
    /// The number of the last interval recorded (0 = none yet).
    pub fn last(&self) -> u32 {
        u32::try_from(self.ends.len()).expect("interval numbers are 32-bit")
    }

    /// Where interval `i`'s pages end; interval 0 is the empty prefix.
    fn end(&self, i: u32) -> Option<u32> {
        match i.checked_sub(1) {
            None => Some(0),
            Some(prev) => self.ends.get(prev as usize).copied(),
        }
    }

    /// Records the next interval; `pages` must be ascending and unique.
    pub fn push(&mut self, pages: &[PageId]) {
        debug_assert!(pages.windows(2).all(|w| w[0] < w[1]));
        let start = self.ends.last().copied().unwrap_or(0);
        let end = u32::try_from(start as usize + pages.len());
        self.ends
            .push(end.expect("interval log offsets are 32-bit"));
        let room = (self.chunks.last()).map_or(0, |(_, c)| c.capacity() - c.len());
        if room < pages.len() || self.chunks.is_empty() {
            let chunk = Vec::with_capacity(pages.len().max(CHUNK_PAGES));
            self.chunks.push((start, chunk));
        }
        let (_, chunk) = self.chunks.last_mut().expect("a chunk with room");
        chunk.extend_from_slice(pages);
    }

    /// The pages written in interval `i`, or `None` if the writer has
    /// closed no such interval.
    pub fn pages(&self, i: u32) -> Option<&[PageId]> {
        let (start, end) = (self.end(i.checked_sub(1)?)?, self.end(i)?);
        let after = self.chunks.partition_point(|&(first, _)| first <= start);
        let (first, chunk) = &self.chunks[after - 1];
        Some(&chunk[(start - first) as usize..(end - first) as usize])
    }

    /// On-wire size of the records after interval `sent.start` up to
    /// interval `sent.end` (record positions `sent`, counted from 0):
    /// per record, `header` plus 8 bytes per page id.
    ///
    /// The range must not be reversed.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the last recorded interval.
    pub fn wire_bytes(&self, sent: Range<u32>, header: u32) -> u32 {
        let end = |i| self.end(i).expect("wire size of an unrecorded interval");
        header * (sent.end - sent.start) + 8 * (end(sent.end) - end(sent.start))
    }
}

/// Per-page write state of an open interval.
#[derive(Clone, Debug, Default)]
pub struct DirtyPage {
    /// Word-aligned modified ranges (always maintained; determines the
    /// run structure of diffs).
    pub ranges: DirtyRanges,
    /// Pre-write snapshot, present only in data-fidelity mode.
    pub twin: Option<Page>,
}

impl DirtyPage {
    /// Number of contiguous dirty runs (direct-diff message count).
    pub fn runs(&self) -> usize {
        self.ranges.runs()
    }

    /// Total dirty bytes.
    pub fn bytes(&self) -> u32 {
        self.ranges.bytes()
    }
}

/// The pages one process wrote in one interval with their write state,
/// ascending by page.
///
/// A sorted vector, not a tree: closing an interval hands the open
/// set to the [`PendingInterval`] as it is, and the flush hands the
/// emptied buffer back for the next interval.
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    pages: Vec<(PageId, DirtyPage)>,
}

impl DirtySet {
    fn position(&self, page: PageId) -> Result<usize, usize> {
        self.pages.binary_search_by_key(&page, |&(pg, _)| pg)
    }

    /// Returns `true` if no page is dirty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The write state of `page`, if dirty.
    pub fn get(&self, page: PageId) -> Option<&DirtyPage> {
        self.position(page).ok().map(|i| &self.pages[i].1)
    }

    /// The write state of `page`, if dirty.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut DirtyPage> {
        self.position(page).ok().map(|i| &mut self.pages[i].1)
    }

    /// Makes room for `additional` more dirty pages in one step.
    pub fn reserve(&mut self, additional: usize) {
        self.pages.reserve(additional);
    }

    /// Marks `page` dirty with write state `dp`, replacing any earlier
    /// state of the page.
    pub fn insert(&mut self, page: PageId, dp: DirtyPage) {
        match self.position(page) {
            Ok(i) => self.pages[i].1 = dp,
            Err(i) => self.pages.insert(i, (page, dp)),
        }
    }

    /// Keeps only the pages `keep` accepts, in order, keeping the
    /// buffer.
    pub fn retain(&mut self, mut keep: impl FnMut(PageId) -> bool) {
        self.pages.retain(|&(pg, _)| keep(pg));
    }

    /// The dirty pages, ascending.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().map(|&(pg, _)| pg)
    }

    /// Empties the set in ascending page order, keeping its buffer.
    pub fn drain(&mut self) -> impl Iterator<Item = (PageId, DirtyPage)> + '_ {
        self.pages.drain(..)
    }
}

/// A closed interval whose diffs have not yet been flushed to the
/// homes (lazy diffing in the non-DD protocols).
#[derive(Clone, Debug)]
pub struct PendingInterval {
    /// Interval number.
    pub interval: u32,
    /// Dirty pages with their write state.
    pub pages: DirtySet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_wire_size() {
        let mut log = IntervalLog::default();
        log.push(&[PageId::new(0), PageId::new(5)]);
        assert_eq!(log.wire_bytes(0..1, 16), 32);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against one page vector per interval: every interval reads
        /// back as pushed, intervals outside `1..=last` are absent
        /// (the caller's "missing record" panic), and the wire size of
        /// every run of records — empty runs included — is the sum of
        /// the per-record formula.
        #[test]
        fn interval_log_matches_a_vector_of_page_lists(
            lens in prop::collection::vec(0usize..300, 0..24),
            header in 0u32..64,
        ) {
            // Most intervals share a chunk with their neighbours; one in
            // seven is too long for any chunk but its own.
            let oracle: Vec<Vec<PageId>> = lens
                .iter()
                .map(|&n| if n % 7 == 0 { 10 * n } else { n })
                .enumerate()
                .map(|(i, n)| (0..n).map(|k| PageId::new(i + 3 * k)).collect())
                .collect();
            let mut log = IntervalLog::default();
            for rec in &oracle {
                log.push(rec);
            }
            let last = oracle.len() as u32;
            prop_assert_eq!(log.last(), last);
            prop_assert!(log.pages(0).is_none() && log.pages(last + 1).is_none());
            for upto in 0..=last {
                if upto > 0 {
                    prop_assert_eq!(log.pages(upto), Some(&oracle[upto as usize - 1][..]));
                }
                for after in 0..=upto {
                    let summed: u32 = oracle[after as usize..upto as usize]
                        .iter()
                        .map(|rec| header + 8 * rec.len() as u32)
                        .sum();
                    prop_assert_eq!(log.wire_bytes(after..upto, header), summed);
                }
            }
        }
    }

    #[test]
    fn dirty_page_counts_runs() {
        let mut d = DirtyPage::default();
        d.ranges.add(0, 4);
        d.ranges.add(100, 8);
        assert_eq!(d.runs(), 2);
        assert_eq!(d.bytes(), 12);
        assert!(d.twin.is_none());
    }

    #[test]
    fn dirty_set_stays_sorted_and_keeps_its_buffer() {
        let mut s = DirtySet::default();
        for i in [7, 2, 9, 4] {
            s.insert(PageId::new(i), DirtyPage::default());
        }
        s.get_mut(PageId::new(4)).unwrap().ranges.add(0, 8);
        let order: Vec<usize> = s.pages().map(|p| p.index()).collect();
        assert_eq!(order, vec![2, 4, 7, 9]);
        assert!(s.get(PageId::new(9)).is_some() && s.get(PageId::new(3)).is_none());

        // Re-inserting a page replaces its state, as the map did.
        s.insert(PageId::new(4), DirtyPage::default());
        assert_eq!(s.get(PageId::new(4)).unwrap().bytes(), 0);

        s.retain(|pg| pg != PageId::new(7));
        let cap = s.pages.capacity();
        let drained: Vec<usize> = s.drain().map(|(p, _)| p.index()).collect();
        assert_eq!(drained, vec![2, 4, 9]);
        assert!(s.is_empty());
        assert_eq!(s.pages.capacity(), cap);
    }
}
