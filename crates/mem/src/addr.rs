//! Shared-address-space addressing.

use std::fmt;
use std::ops::Add;

/// Size of one shared page in bytes (the paper's platform uses 4 KB
/// x86 pages).
pub const PAGE_SIZE: usize = 4096;

/// A byte address in the shared virtual address space.
///
/// # Example
///
/// ```
/// use genima_mem::{Addr, PAGE_SIZE};
/// let a = Addr::new(PAGE_SIZE as u64 + 12);
/// assert_eq!(a.page().index(), 1);
/// assert_eq!(a.offset(), 12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// Wraps a raw shared-space byte address.
    pub const fn new(a: u64) -> Addr {
        Addr(a)
    }

    /// Returns the raw byte address.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The page containing this address.
    pub const fn page(self) -> PageId {
        PageId((self.0 / PAGE_SIZE as u64) as u32)
    }

    /// Byte offset within the containing page.
    pub const fn offset(self) -> u32 {
        (self.0 % PAGE_SIZE as u64) as u32
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifies one shared page.
///
/// # Example
///
/// ```
/// use genima_mem::{Addr, PageId};
/// assert_eq!(PageId::new(3).base(), Addr::new(3 * 4096));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(u32);

impl PageId {
    /// Creates a page id from a zero-based page index.
    pub const fn new(index: usize) -> PageId {
        PageId(index as u32)
    }

    /// The zero-based page index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The first byte address of the page.
    pub const fn base(self) -> Addr {
        Addr(self.0 as u64 * PAGE_SIZE as u64)
    }

    /// The page id `n` pages after this one.
    pub const fn offset_by(self, n: usize) -> PageId {
        PageId(self.0 + n as u32)
    }
}

/// A hash map keyed by [`PageId`] on the simulator's fixed hasher
/// (see [`genima_sim::FixedState`] for why, and for the rule that such
/// a map is looked up, never iterated into a result).
pub type PageMap<V> = std::collections::HashMap<PageId, V, genima_sim::FixedState>;

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{}", self.0)
    }
}

/// Iterates over all pages touched by the byte range `[addr, addr+len)`.
pub fn pages_in_range(addr: Addr, len: u64) -> impl Iterator<Item = PageId> {
    let first = addr.value() / PAGE_SIZE as u64;
    let last = if len == 0 {
        first
    } else {
        (addr.value() + len - 1) / PAGE_SIZE as u64
    };
    (first..=last).map(|i| PageId(i as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_decomposition() {
        let a = Addr::new(2 * PAGE_SIZE as u64 + 100);
        assert_eq!(a.page(), PageId::new(2));
        assert_eq!(a.offset(), 100);
        assert_eq!(a + 5, Addr::new(2 * PAGE_SIZE as u64 + 105));
        assert_eq!(a.to_string(), "0x2064");
    }

    #[test]
    fn page_base_round_trip() {
        let p = PageId::new(7);
        assert_eq!(p.base().page(), p);
        assert_eq!(p.base().offset(), 0);
        assert_eq!(p.offset_by(3), PageId::new(10));
    }

    #[test]
    fn range_iteration() {
        let v: Vec<PageId> = pages_in_range(Addr::new(4000), 200).collect();
        assert_eq!(v, vec![PageId::new(0), PageId::new(1)]);
        let v: Vec<PageId> = pages_in_range(Addr::new(4096), 4096).collect();
        assert_eq!(v, vec![PageId::new(1)]);
        let v: Vec<PageId> = pages_in_range(Addr::new(0), 0).collect();
        assert_eq!(v, vec![PageId::new(0)]);
    }
}
