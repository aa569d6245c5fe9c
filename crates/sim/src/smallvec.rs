//! A tiny inline-storage vector for event-fan-out hot paths.
//!
//! [`InlineVec`] keeps up to four elements inline (no heap allocation)
//! and spills to a `Vec` beyond that. The NI communication layer's
//! `Post`/`Step` results carry one or two events in the overwhelmingly
//! common case, so inline storage removes an allocation per posted
//! packet — which matters once fault injection multiplies the number of
//! packets (retransmits, duplicates) per logical operation.

use std::fmt;

const INLINE: usize = 4;

/// A vector with inline storage for up to four elements.
///
/// Supports the small API surface the simulator needs: `push`,
/// `extend`, `len`, indexing, `retain`, and by-value/by-ref iteration.
///
/// # Example
///
/// ```
/// use genima_sim::InlineVec;
/// let mut v: InlineVec<u32> = InlineVec::new();
/// v.push(1);
/// v.extend([2, 3]);
/// assert_eq!(v.len(), 3);
/// assert_eq!(v[1], 2);
/// let collected: Vec<u32> = v.into_iter().collect();
/// assert_eq!(collected, vec![1, 2, 3]);
/// ```
#[derive(Clone)]
pub enum InlineVec<T> {
    /// Up to four elements (`INLINE`) stored in place.
    Inline {
        /// Storage; slots `0..len` are `Some`.
        buf: [Option<T>; INLINE],
        /// Number of occupied slots.
        len: usize,
    },
    /// Heap storage once the inline capacity is exceeded.
    Spilled(Vec<T>),
}

impl<T> InlineVec<T> {
    /// Creates an empty vector (no allocation).
    pub fn new() -> InlineVec<T> {
        InlineVec::Inline {
            buf: std::array::from_fn(|_| None),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            InlineVec::Inline { len, .. } => *len,
            InlineVec::Spilled(v) => v.len(),
        }
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an element, spilling to the heap when inline storage is
    /// full.
    pub fn push(&mut self, item: T) {
        match self {
            InlineVec::Inline { buf, len } => {
                if *len < INLINE {
                    buf[*len] = Some(item);
                    *len += 1;
                } else {
                    let mut v: Vec<T> = Vec::with_capacity(INLINE + 1);
                    v.extend(buf.iter_mut().filter_map(Option::take));
                    v.push(item);
                    *self = InlineVec::Spilled(v);
                }
            }
            InlineVec::Spilled(v) => v.push(item),
        }
    }

    /// Returns a reference to the element at `idx`, or `None` when out
    /// of bounds.
    pub fn get(&self, idx: usize) -> Option<&T> {
        match self {
            InlineVec::Inline { buf, len } => {
                if idx < *len {
                    buf[idx].as_ref()
                } else {
                    None
                }
            }
            InlineVec::Spilled(v) => v.get(idx),
        }
    }

    /// Iterates by reference.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { v: self, idx: 0 }
    }

    /// Keeps only the elements for which `keep` returns `true`,
    /// preserving order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            InlineVec::Inline { buf, len } => {
                let mut out = 0;
                for i in 0..*len {
                    if let Some(item) = buf[i].take() {
                        if keep(&item) {
                            buf[out] = Some(item);
                            out += 1;
                        }
                    }
                }
                *len = out;
            }
            InlineVec::Spilled(v) => v.retain(|x| keep(x)),
        }
    }

    /// Removes all elements, keeping inline storage.
    pub fn clear(&mut self) {
        match self {
            InlineVec::Inline { buf, len } => {
                for slot in buf.iter_mut().take(*len) {
                    *slot = None;
                }
                *len = 0;
            }
            InlineVec::Spilled(v) => v.clear(),
        }
    }
}

impl<T> Default for InlineVec<T> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for InlineVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for InlineVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq> Eq for InlineVec<T> {}

impl<T> std::ops::Index<usize> for InlineVec<T> {
    type Output = T;

    fn index(&self, idx: usize) -> &T {
        match self.get(idx) {
            Some(item) => item,
            None => panic!("index {idx} out of bounds (len {})", self.len()),
        }
    }
}

impl<T> Extend<T> for InlineVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T> FromIterator<T> for InlineVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(iter);
        v
    }
}

impl<T> From<Vec<T>> for InlineVec<T> {
    fn from(v: Vec<T>) -> Self {
        if v.len() <= INLINE {
            v.into_iter().collect()
        } else {
            InlineVec::Spilled(v)
        }
    }
}

/// By-reference iterator over an [`InlineVec`].
pub struct Iter<'a, T> {
    v: &'a InlineVec<T>,
    idx: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let item = self.v.get(self.idx);
        if item.is_some() {
            self.idx += 1;
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.v.len().saturating_sub(self.idx);
        (rem, Some(rem))
    }
}

impl<'a, T> IntoIterator for &'a InlineVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// By-value iterator over an [`InlineVec`].
pub enum IntoIter<T> {
    /// Draining the inline slots in order.
    Inline {
        /// Remaining slots; consumed front to back.
        buf: [Option<T>; INLINE],
        /// Next slot to yield.
        idx: usize,
        /// One past the last occupied slot.
        len: usize,
    },
    /// Draining heap storage.
    Spilled(std::vec::IntoIter<T>),
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            IntoIter::Inline { buf, idx, len } => {
                if *idx < *len {
                    let item = buf[*idx].take();
                    *idx += 1;
                    item
                } else {
                    None
                }
            }
            IntoIter::Spilled(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IntoIter::Inline { idx, len, .. } => {
                let rem = len.saturating_sub(*idx);
                (rem, Some(rem))
            }
            IntoIter::Spilled(it) => it.size_hint(),
        }
    }
}

impl<T> IntoIterator for InlineVec<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        match self {
            InlineVec::Inline { buf, len } => IntoIter::Inline { buf, idx: 0, len },
            InlineVec::Spilled(v) => IntoIter::Spilled(v.into_iter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32> = InlineVec::new();
        for i in 0..INLINE as u32 {
            v.push(i);
        }
        assert!(matches!(v, InlineVec::Inline { .. }));
        assert_eq!(v.len(), INLINE);
        v.push(99);
        assert!(matches!(v, InlineVec::Spilled(_)));
        assert_eq!(v.len(), INLINE + 1);
        let all: Vec<u32> = v.into_iter().collect();
        assert_eq!(all, vec![0, 1, 2, 3, 99]);
    }

    #[test]
    fn index_and_get() {
        let v: InlineVec<&str> = ["a", "b"].into_iter().collect();
        assert_eq!(v[0], "a");
        assert_eq!(v.get(1), Some(&"b"));
        assert_eq!(v.get(2), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let v: InlineVec<u8> = InlineVec::new();
        let _ = v[0];
    }

    #[test]
    fn retain_compacts_in_order() {
        let mut v: InlineVec<u32> = (0..4).collect();
        v.retain(|&x| x % 2 == 0);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], 0);
        assert_eq!(v[1], 2);

        let mut big: InlineVec<u32> = (0..10).collect();
        big.retain(|&x| x > 7);
        let rest: Vec<u32> = big.into_iter().collect();
        assert_eq!(rest, vec![8, 9]);
    }

    #[test]
    fn extend_across_spill_boundary() {
        let mut v: InlineVec<u32> = InlineVec::new();
        v.extend(0..3);
        v.extend(3..8);
        let all: Vec<u32> = v.iter().copied().collect();
        assert_eq!(all, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn equality_ignores_representation() {
        let inline: InlineVec<u32> = (0..3).collect();
        let spilled = InlineVec::Spilled(vec![0, 1, 2]);
        assert_eq!(inline, spilled);
    }

    #[test]
    fn clear_resets() {
        let mut v: InlineVec<u32> = (0..3).collect();
        v.clear();
        assert!(v.is_empty());
        v.push(7);
        assert_eq!(v[0], 7);
    }
}
