//! The central event queue of the discrete-event engine.
//!
//! Since the engine hot-path pass the queue is a hierarchical timing
//! wheel rather than a binary heap: pushes append to a slot buffer in
//! O(1), pops drain the current slot in amortized O(1), and steady
//! state allocates nothing because buffers are pooled: a slot the
//! cursor leaves empty hands its buffer to a spare stack, and a slot's
//! first push takes one from there, so a run warms as many buffers as
//! it has slots non-empty at once, not one per slot. The original heap
//! implementation survives as [`reference::HeapQueue`] (behind
//! `cfg(test)` / the `ref-heap` feature) and is the oracle the wheel is
//! property-tested against — pop order is provably identical, not
//! assumed.

use crate::time::Time;

/// log2 of the slot width in nanoseconds (1024 ns per slot).
const SLOT_SHIFT: u32 = 10;
/// log2 of the slot count per wheel epoch (1024 slots ≈ 1 ms horizon).
const SLOT_BITS: u32 = 10;
/// Slots per epoch.
const NSLOTS: usize = 1 << SLOT_BITS;

/// The slot tick a timestamp falls into.
#[inline]
fn tick(t: Time) -> u64 {
    t.as_ns() >> SLOT_SHIFT
}

/// The wheel epoch a tick falls into.
#[inline]
fn epoch(tick: u64) -> u64 {
    tick >> SLOT_BITS
}

/// A time-ordered event queue with stable FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in the order in
/// which they were pushed. Together with a seeded random-number
/// generator this makes every simulation in this workspace exactly
/// reproducible.
///
/// # Example
///
/// ```
/// use genima_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(10), 'b');
/// q.push(Time::from_ns(10), 'c');
/// q.push(Time::from_ns(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// One slot per tick of the current epoch. A slot holds at most
    /// one tick's events at a time (same epoch ⇒ unique tick per
    /// slot), so earlier slots strictly precede later ones in time.
    slots: Box<[Slot<E>]>,
    /// Events in epochs beyond `cur_epoch`, unordered.
    far: Vec<Entry<E>>,
    /// Emptied slot buffers, most recently released on top. A buffer
    /// leaves its slot only when the cursor passes the slot empty —
    /// the slot being drained keeps its own for same-tick pushes, and
    /// one `remove_clamped` emptied stays put until the cursor gets
    /// there.
    spare: Vec<Vec<Entry<E>>>,
    /// The epoch the wheel currently covers.
    cur_epoch: u64,
    /// First slot of `cur_epoch` that may still hold events.
    cursor: usize,
    /// Total pending entries (slots + far).
    len: usize,
    seq: u64,
    now: Time,
    popped: u64,
    stats: QueueStats,
}

/// Allocation accounting for the event queue, mirroring the page
/// pool's `PoolStats`: steady-state simulation should run almost
/// entirely on `slot_reuses` — a push into capacity some earlier event
/// left behind, in the slot or in a spare buffer — with `fresh_allocs`
/// frozen after warm-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueStats {
    /// Pushes that appended into existing slot/spare/overflow capacity.
    pub slot_reuses: u64,
    /// Pushes that forced a slot buffer or the overflow vector to grow.
    pub fresh_allocs: u64,
}

#[derive(Debug)]
struct Slot<E> {
    items: Vec<Entry<E>>,
    /// `true` when `items` is sorted descending by `(time, seq)` so
    /// the minimum pops from the back in O(1).
    sorted: bool,
}

impl<E> Slot<E> {
    const EMPTY: Slot<E> = Slot {
        items: Vec::new(),
        sorted: true,
    };
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies in the queue: the payload plus
    /// its `(time, seq)` key. What every push, slot sort and pop moves.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Creates an empty queue positioned at [`Time::ZERO`].
    pub fn new() -> EventQueue<E> {
        EventQueue {
            slots: std::iter::repeat_with(|| Slot::EMPTY)
                .take(NSLOTS)
                .collect(),
            far: Vec::new(),
            spare: Vec::new(),
            cur_epoch: 0,
            cursor: 0,
            len: 0,
            seq: 0,
            now: Time::ZERO,
            popped: 0,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the timestamp of the most
    /// recently popped event — scheduling into the past would break
    /// causality.
    pub fn push(&mut self, time: Time, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < {now}",
            now = self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let entry = Entry { time, seq, event };
        let grew = if epoch(tick(time)) == self.cur_epoch {
            self.place(entry)
        } else {
            let full = self.far.len() == self.far.capacity();
            self.far.push(entry);
            full
        };
        if grew {
            self.stats.fresh_allocs += 1;
        } else {
            self.stats.slot_reuses += 1;
        }
    }

    /// Appends `entry` to its slot of the current epoch; a slot without
    /// a buffer takes a spare one first. Returns `true` if the slot's
    /// buffer had to grow for it.
    fn place(&mut self, entry: Entry<E>) -> bool {
        let slot = &mut self.slots[(tick(entry.time) & (NSLOTS as u64 - 1)) as usize];
        if slot.items.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                slot.items = buf;
            }
        }
        let full = slot.items.len() == slot.items.capacity();
        slot.items.push(entry);
        slot.sorted = slot.items.len() <= 1;
        full
    }

    /// Removes and returns the earliest event, advancing the queue's
    /// notion of *now* to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let slot = &mut self.slots[self.cursor];
            if !slot.items.is_empty() {
                if !slot.sorted {
                    slot.items
                        .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                    slot.sorted = true;
                }
                let entry = slot.items.pop().expect("slot checked non-empty");
                self.len -= 1;
                debug_assert!(entry.time >= self.now);
                self.now = entry.time;
                self.popped += 1;
                return Some((entry.time, entry.event));
            }
            // The cursor leaves the slot empty: its buffer is spare.
            if slot.items.capacity() != 0 {
                self.spare.push(std::mem::take(&mut slot.items));
            }
            if self.cursor + 1 < NSLOTS {
                self.cursor += 1;
            } else {
                self.advance_epoch();
            }
        }
    }

    /// All slots of the current epoch are drained: jump to the next
    /// epoch that holds events and pull its entries out of the far
    /// tier. Only called with `len > 0`, so `far` cannot be empty.
    fn advance_epoch(&mut self) {
        let min_tick = self
            .far
            .iter()
            .map(|e| tick(e.time))
            .min()
            .expect("len > 0 with empty slots implies far events");
        self.cur_epoch = epoch(min_tick);
        self.cursor = 0;
        let mut i = 0;
        while i < self.far.len() {
            if epoch(tick(self.far[i].time)) == self.cur_epoch {
                let entry = self.far.swap_remove(i);
                self.place(entry);
            } else {
                i += 1;
            }
        }
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        for slot in &self.slots[self.cursor..] {
            if let Some(t) = slot.items.iter().map(|e| e.time).min() {
                return Some(t);
            }
        }
        // The current epoch is drained; the minimum lives in the far
        // tier (later epochs ⇒ strictly later times).
        self.far.iter().map(|e| e.time).min()
    }

    /// Returns the timestamp of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Returns allocation-recycling statistics (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Returns the sequence number the next [`EventQueue::push`] will
    /// be assigned. Controlled schedulers use this watermark to
    /// attribute newly created events to the step that pushed them.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Iterates over every pending entry as `(time, seq, event)` in
    /// **unspecified order** — callers that need an order must sort by
    /// `(time, seq)` themselves.
    pub fn iter_pending(&self) -> impl Iterator<Item = (Time, u64, &E)> {
        self.slots
            .iter()
            .flat_map(|s| s.items.iter())
            .chain(self.far.iter())
            .map(|e| (e.time, e.seq, &e.event))
    }

    /// Removes the pending entry with sequence number `seq` and
    /// delivers it **at or after the current time**: the returned
    /// timestamp is `max(scheduled, now)`, and *now* advances to it.
    ///
    /// This is the controlled-scheduler escape hatch: a model checker
    /// may deliver pending events out of their `(time, seq)` order to
    /// explore alternative interleavings, which corresponds to
    /// adversarially delaying the skipped events. Clamping keeps the
    /// causality invariant of [`EventQueue::push`] intact — handlers
    /// dispatched with the clamped time never schedule into the past.
    ///
    /// Returns `None` if no entry with that sequence number is pending.
    /// Counts toward [`EventQueue::delivered`] exactly like
    /// [`EventQueue::pop`].
    pub fn remove_clamped(&mut self, seq: u64) -> Option<(Time, E)> {
        let entry = 'found: {
            for slot in self.slots.iter_mut() {
                if let Some(i) = slot.items.iter().position(|e| e.seq == seq) {
                    let entry = slot.items.swap_remove(i);
                    slot.sorted = slot.items.len() <= 1;
                    break 'found entry;
                }
            }
            if let Some(i) = self.far.iter().position(|e| e.seq == seq) {
                break 'found self.far.swap_remove(i);
            }
            return None;
        };
        self.len -= 1;
        let at = entry.time.max(self.now);
        self.now = at;
        self.popped += 1;
        Some((at, entry.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The pre-pass binary-heap queue, kept as the reference oracle the
/// timing wheel is property-tested against (and benchmarked against in
/// `bench engine`). Not part of the production engine.
#[cfg(any(test, feature = "ref-heap"))]
pub mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::Time;

    /// The original `BinaryHeap`-backed event queue, API-identical to
    /// [`EventQueue`](super::EventQueue).
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: Time,
        popped: u64,
    }

    #[derive(Debug)]
    struct Entry<E> {
        time: Time,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest
            // (time, seq) pops first.
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    impl<E> HeapQueue<E> {
        /// Creates an empty queue positioned at [`Time::ZERO`].
        pub fn new() -> HeapQueue<E> {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: Time::ZERO,
                popped: 0,
            }
        }

        /// Schedules `event` to fire at `time`; panics on a past time.
        pub fn push(&mut self, time: Time, event: E) {
            assert!(
                time >= self.now,
                "event scheduled in the past: {time} < {now}",
                now = self.now
            );
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        /// Removes and returns the earliest event.
        pub fn pop(&mut self) -> Option<(Time, E)> {
            let entry = self.heap.pop()?;
            debug_assert!(entry.time >= self.now);
            self.now = entry.time;
            self.popped += 1;
            Some((entry.time, entry.event))
        }

        /// Returns the timestamp of the earliest pending event.
        pub fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|e| e.time)
        }

        /// Returns the timestamp of the most recently popped event.
        pub fn now(&self) -> Time {
            self.now
        }

        /// Returns the number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Returns `true` if no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Returns the total number of events delivered so far.
        pub fn delivered(&self) -> u64 {
            self.popped
        }

        /// Returns the next sequence number to be assigned.
        pub fn next_seq(&self) -> u64 {
            self.seq
        }

        /// Iterates over every pending entry in unspecified order.
        pub fn iter_pending(&self) -> impl Iterator<Item = (Time, u64, &E)> {
            self.heap.iter().map(|e| (e.time, e.seq, &e.event))
        }

        /// Removes the entry with sequence number `seq`, delivering it
        /// clamped to `max(scheduled, now)`.
        pub fn remove_clamped(&mut self, seq: u64) -> Option<(Time, E)> {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            let idx = entries.iter().position(|e| e.seq == seq);
            let removed = idx.map(|i| entries.swap_remove(i));
            self.heap = BinaryHeap::from(entries);
            let entry = removed?;
            let at = entry.time.max(self.now);
            self.now = at;
            self.popped += 1;
            Some((at, entry.event))
        }
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            HeapQueue::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop().unwrap(), (Time::from_ns(10), 1));
        assert_eq!(q.pop().unwrap(), (Time::from_ns(20), 2));
        assert_eq!(q.pop().unwrap(), (Time::from_ns(30), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.push(Time::from_ns(5), ());
        q.pop();
        assert_eq!(q.now(), Time::from_ns(5));
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), ());
        q.pop();
        q.push(Time::from_ns(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(9), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(9)));
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 'a');
        q.push(Time::from_ns(40), 'd');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Time::from_ns(20), 'b');
        q.push(Time::from_ns(30), 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'd');
    }

    #[test]
    fn next_seq_is_the_allocation_watermark() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_seq(), 0);
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_ns(2), 'b');
        assert_eq!(q.next_seq(), 2);
        // Popping never reuses or rewinds sequence numbers.
        q.pop();
        assert_eq!(q.next_seq(), 2);
        q.push(Time::from_ns(3), 'c');
        assert_eq!(q.next_seq(), 3);
    }

    #[test]
    fn iter_pending_exposes_every_entry_with_stable_seqs() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 'c');
        q.push(Time::from_ns(10), 'a');
        q.push(Time::from_ns(20), 'b');
        q.pop(); // 'a' leaves
        let mut pending: Vec<(Time, u64, char)> =
            q.iter_pending().map(|(t, s, &e)| (t, s, e)).collect();
        pending.sort_by_key(|&(t, s, _)| (t, s));
        assert_eq!(
            pending,
            vec![(Time::from_ns(20), 2, 'b'), (Time::from_ns(30), 0, 'c')]
        );
    }

    #[test]
    fn remove_clamped_delivers_out_of_order_at_now() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 'a'); // seq 0
        q.push(Time::from_ns(20), 'b'); // seq 1
        q.push(Time::from_ns(30), 'c'); // seq 2
                                        // Deliver 'c' first: its own time is later than now, so it
                                        // arrives at its scheduled time.
        assert_eq!(q.remove_clamped(2), Some((Time::from_ns(30), 'c')));
        assert_eq!(q.now(), Time::from_ns(30));
        // 'a' was scheduled earlier than now: clamped forward.
        assert_eq!(q.remove_clamped(0), Some((Time::from_ns(30), 'a')));
        assert_eq!(q.delivered(), 2);
        // The clamp keeps push's causality check satisfied.
        q.push(Time::from_ns(30), 'd');
        // Once delivery has run ahead of schedule, the remaining
        // skipped events are clamped forward too (a controlled
        // scheduler drains everything through remove_clamped).
        assert_eq!(q.remove_clamped(1), Some((Time::from_ns(30), 'b')));
        assert_eq!(q.pop(), Some((Time::from_ns(30), 'd')));
    }

    #[test]
    fn remove_clamped_missing_seq_is_none_and_harmless() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 'a');
        assert_eq!(q.remove_clamped(77), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.delivered(), 0);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 'a')));
    }

    #[test]
    fn remove_clamped_head_matches_pop() {
        // Removing the head seq behaves exactly like pop, so a FIFO
        // picker driving remove_clamped reproduces the normal run.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, e) in [(5u64, 'x'), (9, 'y'), (9, 'z')] {
            a.push(Time::from_ns(t), e);
            b.push(Time::from_ns(t), e);
        }
        while let Some(got) = {
            let head = a
                .iter_pending()
                .min_by_key(|&(t, s, _)| (t, s))
                .map(|(_, s, _)| s);
            head.and_then(|s| a.remove_clamped(s))
        } {
            assert_eq!(Some(got), b.pop());
        }
        assert!(b.pop().is_none());
    }

    #[test]
    fn crossing_the_wheel_horizon_keeps_order() {
        // Events far beyond the near wheel's epoch live in the far
        // tier and must surface exactly in (time, seq) order.
        let mut q = EventQueue::new();
        let ms = 1_000_000; // one epoch is ~1.05 ms
        let times = [5, 3 * ms, ms, 7, 2 * ms, 40 * ms, ms + 1];
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_unstable();
        for (t, i) in expect {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(t), i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_lone_event_warms_one_buffer_per_live_slot_not_per_slot_visited() {
        // One pending event hops across every slot of the wheel and
        // through ~98 epochs. The slot it sits in and the slot it just
        // left are the only two that ever hold a buffer at once.
        let mut q = EventQueue::new();
        let stride = 1_031; // just over one slot: a new slot every hop
        let mut t = 0u64;
        q.push(Time::from_ns(t), ());
        for _ in 0..100_000 {
            let (at, ()) = q.pop().unwrap();
            assert_eq!(at.as_ns(), t);
            t += stride;
            q.push(Time::from_ns(t), ());
        }
        assert!(epoch(tick(Time::from_ns(t))) >= 50);
        let s = q.stats();
        assert!(s.fresh_allocs <= 4, "{s:?}");
        assert_eq!(s.fresh_allocs + s.slot_reuses, 100_001);
    }

    #[test]
    fn steady_state_recycles_slot_capacity() {
        let mut q = EventQueue::new();
        // Hold model: keep 64 events pending, pop one push one. After
        // warm-up every push must land in recycled capacity.
        let mut t = 0u64;
        for i in 0..64 {
            q.push(Time::from_ns(i * 100), ());
            t = i * 100;
        }
        fn step(q: &mut EventQueue<()>, t: &mut u64) {
            let (at, ()) = q.pop().unwrap();
            *t = (*t).max(at.as_ns()) + 6400;
            q.push(Time::from_ns(*t), ());
        }
        // Warm-up grows slot and overflow capacity once...
        for _ in 0..5_000 {
            step(&mut q, &mut t);
        }
        let warm = q.stats();
        // ...after which the same traffic recycles it.
        for _ in 0..10_000 {
            step(&mut q, &mut t);
        }
        let s = q.stats();
        let grew = s.fresh_allocs - warm.fresh_allocs;
        assert!(grew < 50, "steady state must recycle: {warm:?} -> {s:?}");
        assert!(s.slot_reuses - warm.slot_reuses > 9_900, "{s:?}");
    }
}
