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

/// A column of per-page state: a map from [`PageId`] to `V` stored
/// dense, one slot per page index, because page ids are small and
/// consecutive (they bound the shared extent). A lookup is a bounds
/// check and an index; a page beyond the column, or one whose slot was
/// never filled, is absent, exactly as a missing map key would be.
///
/// [`size_to`](Self::size_to) allocates the slots of a known extent
/// once and exactly; a page beyond it grows the column on demand.
///
/// # Example
///
/// ```
/// use genima_mem::{PageId, PageVec};
/// let mut col: PageVec<u32> = PageVec::new();
/// col.size_to(8);
/// let p = PageId::new(3);
/// assert_eq!(col.get(p), None);
/// *col.slot(p) += 5;
/// assert_eq!(col.get(p), Some(&5));
/// assert_eq!(col.insert(PageId::new(20), 1), None); // beyond the extent
/// assert_eq!(col.take(p), Some(5));
/// assert_eq!(col.get(p), None);
/// ```
#[derive(Clone, Debug)]
pub struct PageVec<V> {
    slots: Vec<Option<V>>,
}

impl<V> Default for PageVec<V> {
    fn default() -> PageVec<V> {
        PageVec { slots: Vec::new() }
    }
}

impl<V> PageVec<V> {
    /// Creates an empty column (no allocation).
    pub fn new() -> PageVec<V> {
        PageVec::default()
    }

    /// Makes room for pages `0..extent` in one exact allocation, all
    /// absent. A lazily grown vector doubles, and so overshoots a large
    /// extent by up to 2x: call this when the extent is known.
    pub fn size_to(&mut self, extent: usize) {
        if extent > self.slots.len() {
            self.slots.reserve_exact(extent - self.slots.len());
            self.slots.resize_with(extent, || None);
        }
    }

    /// The value of `page`, `None` if absent.
    pub fn get(&self, page: PageId) -> Option<&V> {
        self.slots.get(page.index())?.as_ref()
    }

    /// The value of `page` for writing, `None` if absent.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut V> {
        self.slots.get_mut(page.index())?.as_mut()
    }

    /// The value of `page`, filled with `V::default()` if absent.
    pub fn slot(&mut self, page: PageId) -> &mut V
    where
        V: Default,
    {
        self.entry(page).get_or_insert_with(V::default)
    }

    /// Sets the value of `page`, returning the one it replaces.
    pub fn insert(&mut self, page: PageId, value: V) -> Option<V> {
        self.entry(page).replace(value)
    }

    /// Removes and returns the value of `page`, leaving it absent.
    pub fn take(&mut self, page: PageId) -> Option<V> {
        self.slots.get_mut(page.index())?.take()
    }

    fn entry(&mut self, page: PageId) -> &mut Option<V> {
        let i = page.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }
}

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
    use proptest::prelude::*;
    use std::collections::HashMap;

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

    proptest! {
        /// Every operation answers as a `HashMap<PageId, u32>` does,
        /// before and beyond a pre-sized extent of 16 pages, with a
        /// second sizing call (`kind == 4`) anywhere in between — it
        /// may add room but never touches a value.
        #[test]
        fn prop_page_vec_matches_hash_map_oracle(steps in proptest::collection::vec(
            (0u32..5, 0usize..40, 0u32..1000), 1..80
        )) {
            let mut col: PageVec<u32> = PageVec::new();
            col.size_to(16);
            let mut oracle: HashMap<PageId, u32> = HashMap::new();
            for (kind, index, v) in steps {
                let page = PageId::new(index);
                match kind {
                    0 => {
                        *col.slot(page) += v;
                        *oracle.entry(page).or_default() += v;
                    }
                    1 => prop_assert_eq!(col.insert(page, v), oracle.insert(page, v)),
                    2 => prop_assert_eq!(col.take(page), oracle.remove(&page)),
                    3 => prop_assert_eq!(col.get_mut(page), oracle.get_mut(&page)),
                    _ => col.size_to(index),
                }
                for i in 0..48 {
                    let page = PageId::new(i);
                    prop_assert_eq!(col.get(page), oracle.get(&page));
                }
            }
        }
    }
}
