//! Intervals and write-notice records.

use genima_mem::{DirtyRanges, Page, PageId};

/// A write-notice record: the set of pages one process modified in one
/// interval. Propagated eagerly (remote deposit, DW protocols) or
/// piggybacked on lock grants and barrier messages (Base).
///
/// Whose interval it is travels in the wire header and, in the store,
/// is the record's position: a writer's interval numbers are
/// consecutive from 1. That keeps a record at two words, which the
/// store's per-writer vectors pay twice over as they double.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Pages written in the interval, ascending.
    pub pages: Box<[PageId]>,
}

impl IntervalRecord {
    /// On-wire size: header plus 8 bytes per page id.
    pub fn wire_bytes(&self, header: u32) -> u32 {
        header + 8 * self.pages.len() as u32
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

    /// Returns `true` if `page` is dirty.
    pub fn contains(&self, page: PageId) -> bool {
        self.position(page).is_ok()
    }

    /// The write state of `page`, if dirty.
    pub fn get(&self, page: PageId) -> Option<&DirtyPage> {
        self.position(page).ok().map(|i| &self.pages[i].1)
    }

    /// The write state of `page`, if dirty.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut DirtyPage> {
        self.position(page).ok().map(|i| &mut self.pages[i].1)
    }

    /// Marks `page` dirty with write state `dp`, replacing any earlier
    /// state of the page.
    pub fn insert(&mut self, page: PageId, dp: DirtyPage) {
        match self.position(page) {
            Ok(i) => self.pages[i].1 = dp,
            Err(i) => self.pages.insert(i, (page, dp)),
        }
    }

    /// Removes `page`, returning its write state if it was dirty.
    pub fn remove(&mut self, page: PageId) -> Option<DirtyPage> {
        self.position(page).ok().map(|i| self.pages.remove(i).1)
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

    #[test]
    fn record_wire_size() {
        let r = IntervalRecord {
            pages: [PageId::new(0), PageId::new(5)].into(),
        };
        assert_eq!(r.wire_bytes(16), 32);
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
        assert!(s.contains(PageId::new(9)) && !s.contains(PageId::new(3)));

        // Re-inserting a page replaces its state, as the map did.
        s.insert(PageId::new(4), DirtyPage::default());
        assert_eq!(s.get(PageId::new(4)).unwrap().bytes(), 0);

        assert!(s.remove(PageId::new(7)).is_some());
        assert!(s.remove(PageId::new(7)).is_none());
        let cap = s.pages.capacity();
        let drained: Vec<usize> = s.drain().map(|(p, _)| p.index()).collect();
        assert_eq!(drained, vec![2, 4, 9]);
        assert!(s.is_empty());
        assert_eq!(s.pages.capacity(), cap);
    }
}
