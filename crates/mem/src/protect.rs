//! The per-process page protection state machine.
//!
//! SVM systems use the virtual-memory hardware to detect shared
//! accesses: pages are kept `mprotect`-ed and the SIGSEGV handler runs
//! the coherence protocol. We model the same three-state machine per
//! process; the protocol layer decides when to upgrade or invalidate
//! and charges [`MprotectModel`](crate::MprotectModel) costs.

use crate::addr::{PageId, PageVec};

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
    pages: PageVec<Access>,
}

impl PageTable {
    /// Creates an all-invalid table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Makes room for pages `0..extent` (see [`PageVec::size_to`]).
    pub fn size_to(&mut self, extent: usize) {
        self.pages.size_to(extent);
    }

    /// Current protection of `page`.
    pub fn access(&self, page: PageId) -> Access {
        self.pages.get(page).copied().unwrap_or_default()
    }

    /// Sets the protection of `page`, returning the previous value.
    pub fn set(&mut self, page: PageId, access: Access) -> Access {
        self.pages.insert(page, access).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_start_invalid() {
        let mut pt = PageTable::new();
        assert_eq!(pt.access(PageId::new(99)), Access::None);
        pt.size_to(128);
        assert_eq!(pt.access(PageId::new(99)), Access::None);
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
        assert_eq!(pt.set(p, Access::None), Access::ReadWrite);
        assert_eq!(pt.access(p), Access::None);
    }
}
