//! The per-process page protection state machine.
//!
//! SVM systems use the virtual-memory hardware to detect shared
//! accesses: pages are kept `mprotect`-ed and the SIGSEGV handler runs
//! the coherence protocol. We model the same three-state machine per
//! process; the protocol layer decides when to upgrade or invalidate
//! and charges [`MprotectModel`](crate::MprotectModel) costs.

use crate::addr::{PageId, PageMap};

/// Hardware protection of one page for one process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Access {
    /// Any access faults (invalid page).
    #[default]
    None,
    /// Reads succeed, writes fault (clean page).
    Read,
    /// All accesses succeed (dirty page, twin exists).
    ReadWrite,
}

impl Access {
    /// Returns `true` if a read at this protection level faults.
    pub fn read_faults(self) -> bool {
        matches!(self, Access::None)
    }

    /// Returns `true` if a write at this protection level faults.
    pub fn write_faults(self) -> bool {
        !matches!(self, Access::ReadWrite)
    }
}

/// One process's view of the shared pages.
///
/// Pages absent from the table are [`Access::None`] — everything
/// starts invalid, exactly like a freshly `mmap`-ed SVM region.
///
/// # Example
///
/// ```
/// use genima_mem::{Access, PageId, PageTable};
/// let mut pt = PageTable::new();
/// let p = PageId::new(0);
/// assert!(pt.access(p).read_faults());
/// pt.set(p, Access::Read);
/// assert!(!pt.access(p).read_faults());
/// assert!(pt.access(p).write_faults());
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    map: PageMap<Access>,
    invalidations: u64,
    upgrades: u64,
}

impl PageTable {
    /// Creates an all-invalid table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Current protection of `page`.
    pub fn access(&self, page: PageId) -> Access {
        self.map.get(&page).copied().unwrap_or_default()
    }

    /// Sets the protection of `page`, returning the previous value.
    pub fn set(&mut self, page: PageId, access: Access) -> Access {
        let prev = self.map.insert(page, access).unwrap_or_default();
        match (prev, access) {
            (_, Access::None) if prev != Access::None => self.invalidations += 1,
            (Access::None, Access::Read | Access::ReadWrite)
            | (Access::Read, Access::ReadWrite) => self.upgrades += 1,
            _ => {}
        }
        prev
    }

    /// Invalidates every page in `pages`, returning how many actually
    /// changed protection (the number of `mprotect` calls needed
    /// before coalescing).
    pub fn invalidate_all<I: IntoIterator<Item = PageId>>(&mut self, pages: I) -> usize {
        let mut changed = 0;
        for p in pages {
            if self.access(p) != Access::None {
                self.set(p, Access::None);
                changed += 1;
            }
        }
        changed
    }

    /// Number of pages currently mapped with some access.
    pub fn mapped(&self) -> usize {
        self.map
            .values()
            .filter(|a| !matches!(a, Access::None))
            .count()
    }

    /// Lifetime count of protection downgrades to `None`.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Lifetime count of protection upgrades.
    pub fn upgrades(&self) -> u64 {
        self.upgrades
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_start_invalid() {
        let pt = PageTable::new();
        assert_eq!(pt.access(PageId::new(99)), Access::None);
        assert_eq!(pt.mapped(), 0);
    }

    #[test]
    fn fault_predicates() {
        assert!(Access::None.read_faults());
        assert!(Access::None.write_faults());
        assert!(!Access::Read.read_faults());
        assert!(Access::Read.write_faults());
        assert!(!Access::ReadWrite.read_faults());
        assert!(!Access::ReadWrite.write_faults());
    }

    #[test]
    fn set_returns_previous() {
        let mut pt = PageTable::new();
        let p = PageId::new(1);
        assert_eq!(pt.set(p, Access::Read), Access::None);
        assert_eq!(pt.set(p, Access::ReadWrite), Access::Read);
        assert_eq!(pt.upgrades(), 2);
        assert_eq!(pt.set(p, Access::None), Access::ReadWrite);
        assert_eq!(pt.invalidations(), 1);
    }

    #[test]
    fn invalidate_all_counts_changes() {
        let mut pt = PageTable::new();
        pt.set(PageId::new(0), Access::Read);
        pt.set(PageId::new(1), Access::ReadWrite);
        let changed = pt.invalidate_all([PageId::new(0), PageId::new(1), PageId::new(2)]);
        assert_eq!(changed, 2, "page 2 was already invalid");
        assert_eq!(pt.mapped(), 0);
    }
}
