//! Dense struct-of-arrays storage for home-side page state.
//!
//! The pre-pass engine kept one `HashMap<PageId, HomePage>` record per
//! page. Page indices are small and dense (they bound `shared_extent`),
//! so every field now lives in its own index-keyed column: lookups are
//! a bounds check plus an array index, and whole-extent scans (pin
//! accounting, flush walks) touch only the column they need instead of
//! hashing every key. Slots materialise lazily — a column entry beyond
//! the written extent behaves exactly like the old missing map entry,
//! because every field's `Default` is the value the old code fell back
//! to.

use genima_mem::{Page, PageId};

use crate::version::VersionMap;

/// Column store of per-page home state, indexed by `PageId::index()`.
/// All columns always have identical length.
#[derive(Default)]
pub(crate) struct HomeTable {
    /// Per writer: latest interval whose diffs are applied here.
    applied: Vec<VersionMap>,
    /// Home copy contents (data mode only).
    data: Vec<Option<Page>>,
    /// Base: deferred page requests awaiting diffs, with the fetch op
    /// each serves.
    pending_reqs: Vec<Vec<(usize, VersionMap, u64)>>,
    /// Home-local processes waiting for diffs.
    waiters: Vec<Vec<usize>>,
}

/// Shared view of one page's columns.
pub(crate) struct HomeSlot<'a> {
    pub(crate) applied: &'a VersionMap,
    pub(crate) data: &'a Option<Page>,
    pub(crate) waiters: &'a Vec<usize>,
}

/// Mutable view of one page's columns.
pub(crate) struct HomeSlotMut<'a> {
    pub(crate) applied: &'a mut VersionMap,
    pub(crate) data: &'a mut Option<Page>,
    pub(crate) pending_reqs: &'a mut Vec<(usize, VersionMap, u64)>,
    pub(crate) waiters: &'a mut Vec<usize>,
}

impl HomeTable {
    /// Read view of `page`'s home state, `None` if the page was never
    /// materialised (the old map's missing-entry case).
    pub(crate) fn get(&self, page: PageId) -> Option<HomeSlot<'_>> {
        let i = page.index();
        if i >= self.applied.len() {
            return None;
        }
        Some(HomeSlot {
            applied: &self.applied[i],
            data: &self.data[i],
            waiters: &self.waiters[i],
        })
    }

    /// Mutable view of `page`'s home state, growing the columns on
    /// demand (the old `entry(page).or_default()`).
    pub(crate) fn slot_mut(&mut self, page: PageId) -> HomeSlotMut<'_> {
        let i = page.index();
        if i >= self.applied.len() {
            self.grow(i + 1);
        }
        HomeSlotMut {
            applied: &mut self.applied[i],
            data: &mut self.data[i],
            pending_reqs: &mut self.pending_reqs[i],
            waiters: &mut self.waiters[i],
        }
    }

    fn grow(&mut self, len: usize) {
        self.applied.resize_with(len, VersionMap::new);
        self.data.resize_with(len, || None);
        self.pending_reqs.resize_with(len, Vec::new);
        self.waiters.resize_with(len, Vec::new);
    }
}
