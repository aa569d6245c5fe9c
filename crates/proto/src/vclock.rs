//! Vector timestamps over process intervals.

use std::fmt;

use crate::ids::ProcId;

/// A vector timestamp: for each process, the highest interval whose
/// modifications this clock covers.
///
/// Lazy release consistency tracks causality between synchronization
/// operations with these clocks: a lock grant or barrier release
/// carries the releaser's clock, and the acquirer joins it into its
/// own, obliging it to apply the write notices of every newly covered
/// interval before touching shared data.
///
/// # Example
///
/// ```
/// use genima_proto::{ProcId, VClock};
/// let mut a = VClock::new(4);
/// a.bump(ProcId::new(1));
/// let mut b = VClock::new(4);
/// b.bump(ProcId::new(2));
/// b.join(&a);
/// assert!(b.covers(&a));
/// assert!(!a.covers(&b));
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct VClock {
    v: Vec<u32>,
}

impl Clone for VClock {
    fn clone(&self) -> VClock {
        VClock { v: self.v.clone() }
    }

    /// Copies `other` into this clock's existing buffer (the derived
    /// `clone_from` would allocate a fresh one): a lock's timestamp is
    /// overwritten at every release.
    fn clone_from(&mut self, other: &VClock) {
        self.v.clone_from(&other.v);
    }
}

impl VClock {
    /// The all-zero clock for `nprocs` processes.
    pub fn new(nprocs: usize) -> VClock {
        VClock { v: vec![0; nprocs] }
    }

    /// Number of process slots.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// The interval counts, one per process.
    pub fn lanes(&self) -> &[u32] {
        &self.v
    }

    /// Returns `true` if the clock has no slots.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// The interval count for `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is outside the clock's process range.
    pub fn get(&self, proc: ProcId) -> u32 {
        let i = proc.index();
        assert!(
            i < self.v.len(),
            "VClock::get: {proc} out of range for a {}-process clock",
            self.v.len()
        );
        self.v[i]
    }

    /// Sets the interval count for `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is outside the clock's process range.
    pub fn set(&mut self, proc: ProcId, value: u32) {
        let i = proc.index();
        assert!(
            i < self.v.len(),
            "VClock::set: {proc} out of range for a {}-process clock",
            self.v.len()
        );
        self.v[i] = value;
    }

    /// Increments `proc`'s slot and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is outside the clock's process range, or if
    /// the slot would overflow `u32` (the interval counter must never
    /// silently wrap — a wrapped clock re-orders every comparison).
    pub fn bump(&mut self, proc: ProcId) -> u32 {
        let i = proc.index();
        assert!(
            i < self.v.len(),
            "VClock::bump: {proc} out of range for a {}-process clock",
            self.v.len()
        );
        self.v[i] = self.v[i]
            .checked_add(1)
            .unwrap_or_else(|| panic!("VClock::bump: interval counter overflow for {proc}"));
        self.v[i]
    }

    /// Element-wise maximum with `other` (the lattice join).
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn join(&mut self, other: &VClock) {
        assert_eq!(self.v.len(), other.v.len(), "clock size mismatch");
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a = (*a).max(*b);
        }
    }

    /// Returns `true` if this clock is pointwise ≥ `other`.
    ///
    /// # Panics
    ///
    /// Panics if the clocks have different lengths.
    pub fn covers(&self, other: &VClock) -> bool {
        assert_eq!(self.v.len(), other.v.len(), "clock size mismatch");
        self.v.iter().zip(&other.v).all(|(a, b)| a >= b)
    }

    /// On-wire size in bytes (4 bytes per slot) — used to size
    /// timestamp messages.
    pub fn wire_bytes(&self) -> u32 {
        4 * self.v.len() as u32
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.v.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bump_and_get() {
        let mut c = VClock::new(3);
        assert_eq!(c.bump(ProcId::new(1)), 1);
        assert_eq!(c.bump(ProcId::new(1)), 2);
        assert_eq!(c.get(ProcId::new(1)), 2);
        assert_eq!(c.get(ProcId::new(0)), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VClock::new(3);
        a.set(ProcId::new(0), 5);
        let mut b = VClock::new(3);
        b.set(ProcId::new(1), 7);
        a.join(&b);
        assert_eq!(a.get(ProcId::new(0)), 5);
        assert_eq!(a.get(ProcId::new(1)), 7);
    }

    #[test]
    fn covers_is_partial_order() {
        let mut a = VClock::new(2);
        a.set(ProcId::new(0), 1);
        let mut b = VClock::new(2);
        b.set(ProcId::new(1), 1);
        assert!(!a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
    }

    #[test]
    fn wire_size_and_display() {
        let mut c = VClock::new(4);
        c.set(ProcId::new(2), 9);
        assert_eq!(c.wire_bytes(), 16);
        assert_eq!(c.to_string(), "⟨0,0,9,0⟩");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_join_panics() {
        VClock::new(2).join(&VClock::new(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics_with_context() {
        VClock::new(2).get(ProcId::new(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics_with_context() {
        VClock::new(2).set(ProcId::new(5), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bump_panics_with_context() {
        VClock::new(0).bump(ProcId::new(0));
    }

    #[test]
    #[should_panic(expected = "interval counter overflow")]
    fn bump_overflow_panics_instead_of_wrapping() {
        let mut c = VClock::new(1);
        c.set(ProcId::new(0), u32::MAX);
        c.bump(ProcId::new(0));
    }

    #[test]
    fn bump_near_max_still_works() {
        let mut c = VClock::new(1);
        c.set(ProcId::new(0), u32::MAX - 1);
        assert_eq!(c.bump(ProcId::new(0)), u32::MAX);
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let mut src = VClock::new(4);
        src.set(ProcId::new(2), 7);
        let mut dst = VClock::new(4);
        dst.set(ProcId::new(0), 3);
        let buf = dst.v.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.v.as_ptr(), buf, "same length: no reallocation");
        // Lengths may differ (a default-sized clock takes a real one).
        let mut empty = VClock::new(0);
        empty.clone_from(&src);
        assert_eq!(empty, src);
    }

    #[test]
    fn join_through_a_borrow_leaves_the_source_untouched() {
        // The shape the lock paths use: two clocks owned by different
        // fields of one struct, joined without a temporary copy.
        struct Pair {
            acquirer: VClock,
            lock: VClock,
        }
        let mut s = Pair {
            acquirer: VClock::new(3),
            lock: VClock::new(3),
        };
        s.acquirer.set(ProcId::new(0), 4);
        s.lock.set(ProcId::new(0), 2);
        s.lock.set(ProcId::new(1), 6);
        let before = s.lock.clone();
        s.acquirer.join(&s.lock);
        assert_eq!(s.lock, before);
        assert_eq!(s.acquirer.get(ProcId::new(0)), 4);
        assert_eq!(s.acquirer.get(ProcId::new(1)), 6);
        assert!(s.acquirer.covers(&s.lock));
    }

    proptest! {
        /// Join is a lattice operation: commutative, associative,
        /// idempotent, and an upper bound of both operands.
        #[test]
        fn prop_join_lattice(
            xs in proptest::collection::vec(0u32..100, 8),
            ys in proptest::collection::vec(0u32..100, 8),
            zs in proptest::collection::vec(0u32..100, 8),
        ) {
            let mk = |v: &Vec<u32>| {
                let mut c = VClock::new(8);
                for (i, &x) in v.iter().enumerate() {
                    c.set(ProcId::new(i), x);
                }
                c
            };
            let (x, y, z) = (mk(&xs), mk(&ys), mk(&zs));

            // Commutative.
            let mut xy = x.clone(); xy.join(&y);
            let mut yx = y.clone(); yx.join(&x);
            prop_assert_eq!(&xy, &yx);

            // Associative.
            let mut xy_z = xy.clone(); xy_z.join(&z);
            let mut yz = y.clone(); yz.join(&z);
            let mut x_yz = x.clone(); x_yz.join(&yz);
            prop_assert_eq!(&xy_z, &x_yz);

            // Idempotent and an upper bound.
            let mut xx = x.clone(); xx.join(&x);
            prop_assert_eq!(&xx, &x);
            prop_assert!(xy.covers(&x) && xy.covers(&y));
        }
    }
}
