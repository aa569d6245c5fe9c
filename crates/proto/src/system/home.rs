//! Home-side page state, as page columns, and the one place that
//! knows where a node's copy of a page lives.

use genima_mem::{PageId, PageVec};

use super::page::Deferred;
use super::{CopyState, SvmSystem};
use crate::version::VersionMap;

#[derive(Default)]
pub(crate) struct HomeTable {
    /// Base: deferred page requests awaiting diffs. Empty, and never
    /// sized, where remote fetch replaces the request.
    pub(crate) pending_reqs: PageVec<Vec<Deferred>>,
    /// Home-local processes waiting for diffs.
    pub(crate) waiters: PageVec<Vec<usize>>,
}

impl HomeTable {
    /// Sizes the columns for pages `0..extent`; the deferred requests
    /// only if pages are requested by message (`requests`).
    pub(crate) fn size_to(&mut self, extent: usize, requests: bool) {
        if requests {
            self.pending_reqs.size_to(extent);
        }
        self.waiters.size_to(extent);
    }
}

/// A home copy no diff and no local write has reached yet.
pub(crate) static UNWRITTEN: CopyState = CopyState {
    ts: VersionMap::new(),
    data: None,
};

impl SvmSystem {
    /// `node`'s copy of `page`. Under HLRC-SMP the home copy is the
    /// home node's own physical page, so at the home this is the home
    /// copy — always there, empty at the empty version until something
    /// reaches it; elsewhere it is what the node has cached, if
    /// anything. [`SvmSystem::write_bytes`] is the write side.
    pub(crate) fn node_copy(&self, node: usize, page: PageId) -> Option<&CopyState> {
        let copy = self.nodes[node].copies.get(page);
        if self.home_of(page).index() == node {
            Some(copy.unwrap_or(&UNWRITTEN))
        } else {
            copy
        }
    }

    /// Whether a process on `node` writes `page` straight into the
    /// home copy: the node is the page's home and the rung writes home
    /// pages in place ([`crate::FeatureSet::home_writes_in_place`]).
    /// Such a write takes no twin, and its page never enters a flush.
    pub(crate) fn writes_in_place(&self, node: usize, page: PageId) -> bool {
        self.p.features.home_writes_in_place() && self.home_of(page).index() == node
    }
}
