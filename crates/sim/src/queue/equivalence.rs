//! Property-based equivalence of the timing-wheel [`EventQueue`]
//! against the pre-pass binary-heap oracle, [`HeapQueue`].
//!
//! Arbitrary interleaved push/pop/remove_clamped sequences — including
//! same-instant bursts, pushes exactly at `now` and into the tick being
//! drained, far-horizon times that cross wheel epochs, and removals at
//! both ends of the pending set — must behave identically on both
//! implementations: every returned `(time, event)`, every `now`/`len`/
//! `delivered`/`next_seq` observation, and the final drain order. The
//! wheel moves slot buffers between slots as it drains; none of that
//! may show.

use proptest::prelude::*;

use super::reference::HeapQueue;
use super::EventQueue;
use crate::time::Time;

/// Decodes one generated `(kind, a, b)` triple into a queue operation.
/// The kind byte is weighted toward pushes so queues actually fill.
#[derive(Clone, Debug)]
enum Op {
    /// Push at `now + offset` (offset 0 = same-instant burst member).
    Push(u64),
    Pop,
    Remove(Which),
    Peek,
}

/// Which pending entry a removal takes — deterministic on both queues
/// regardless of iteration order.
#[derive(Clone, Debug)]
enum Which {
    /// The k-th (mod len) in sorted-seq order.
    Nth(usize),
    /// The earliest: in the cursor's slot — or, once removals ran
    /// `now` ahead, in a slot behind the one `now` is in.
    First,
    /// The latest: in a slot ahead of the cursor (or the far tier),
    /// which the cursor then finds emptied with its buffer in place.
    Last,
}

fn decode(kind: u8, a: u64, b: usize, now: u64) -> Op {
    match kind % 12 {
        // Near-wheel offsets, including plenty of zero offsets for
        // same-instant bursts.
        0 | 1 => Op::Push(a % 2_000),
        // Far offsets crossing the ~1 ms epoch horizon.
        2 => Op::Push(a % 5_000_000),
        3 => Op::Push(0),
        4 | 5 => Op::Pop,
        6 => Op::Remove(Which::Nth(b)),
        7 => Op::Remove(Which::First),
        8 => Op::Remove(Which::Last),
        // Later in the 1024 ns tick `now` is in: the slot the cursor
        // is draining, which must still own a buffer.
        9 | 10 => Op::Push(a % (1024 - now % 1024)),
        _ => Op::Peek,
    }
}

fn pick_seq<E>(q: &EventQueue<E>, which: Which) -> Option<u64> {
    let mut keys: Vec<(u64, Time)> = q.iter_pending().map(|(t, s, _)| (s, t)).collect();
    keys.sort_unstable();
    let by_time = |&(s, t): &(u64, Time)| (t, s);
    let picked = match which {
        Which::Nth(k) => keys.get(k % keys.len().max(1)).copied(),
        Which::First => keys.into_iter().min_by_key(by_time),
        Which::Last => keys.into_iter().max_by_key(by_time),
    };
    picked.map(|(s, _)| s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_heap_on_arbitrary_interleavings(
        raw in prop::collection::vec((0u8..=255, 0u64..u64::MAX, 0usize..64), 1..400)
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut label = 0u32;
        for &(kind, a, b) in &raw {
            let now = wheel.now().as_ns();
            match decode(kind, a, b, now) {
                Op::Push(offset) => {
                    let t = Time::from_ns(now + offset);
                    wheel.push(t, label);
                    heap.push(t, label);
                    label += 1;
                }
                Op::Pop => {
                    // Plain pop is only legal while no pending entry
                    // predates `now` (a controlled scheduler that ran
                    // `now` ahead via remove_clamped drains everything
                    // through remove_clamped) — both implementations
                    // debug_assert that contract.
                    let legal = wheel
                        .iter_pending()
                        .all(|(t, _, _)| t >= wheel.now());
                    if legal {
                        prop_assert_eq!(wheel.pop(), heap.pop());
                    }
                }
                Op::Remove(which) => {
                    if let Some(s) = pick_seq(&wheel, which) {
                        prop_assert_eq!(wheel.remove_clamped(s), heap.remove_clamped(s));
                    } else {
                        prop_assert_eq!(wheel.remove_clamped(u64::MAX), None);
                        prop_assert_eq!(heap.remove_clamped(u64::MAX), None);
                    }
                }
                Op::Peek => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                }
            }
            prop_assert_eq!(wheel.now(), heap.now());
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.delivered(), heap.delivered());
            prop_assert_eq!(wheel.next_seq(), heap.next_seq());
        }
        // Both pending sets are identical (same (time, seq, event)).
        let mut wp: Vec<(Time, u64, u32)> =
            wheel.iter_pending().map(|(t, s, &e)| (t, s, e)).collect();
        let mut hp: Vec<(Time, u64, u32)> =
            heap.iter_pending().map(|(t, s, &e)| (t, s, e)).collect();
        wp.sort_unstable();
        hp.sort_unstable();
        prop_assert_eq!(wp, hp);
        // Final drain delivers identically (head-seq remove_clamped is
        // pop for in-order entries and stays legal for clamped ones).
        loop {
            let head = wheel
                .iter_pending()
                .min_by_key(|&(t, s, _)| (t, s))
                .map(|(_, s, _)| s);
            let Some(s) = head else { break };
            prop_assert_eq!(wheel.remove_clamped(s), heap.remove_clamped(s));
        }
        prop_assert!(heap.is_empty());
    }

    /// Pop-driven runs across at least three wheel epochs: the cursor
    /// sweeps whole epochs, hands every drained slot's buffer on, and
    /// refills slots from the far tier at each epoch boundary.
    #[test]
    fn buffer_hand_off_is_invisible_across_epochs(
        raw in prop::collection::vec((0u8..=255, 0u64..u64::MAX), 1..300)
    ) {
        const EPOCH_NS: u64 = 1 << 20;
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut label = 0u32;
        let mut push = |wheel: &mut EventQueue<u32>, heap: &mut HeapQueue<u32>, t: u64| {
            wheel.push(Time::from_ns(t), label);
            heap.push(Time::from_ns(t), label);
            label += 1;
        };
        // One far-tier entry in each of the next three epochs.
        for e in 1..=3 {
            push(&mut wheel, &mut heap, e * EPOCH_NS + raw[0].1 % EPOCH_NS);
        }
        for &(kind, a) in &raw {
            let now = wheel.now().as_ns();
            match kind % 5 {
                0 => push(&mut wheel, &mut heap, now + a % 20_000),
                1 => push(&mut wheel, &mut heap, now + a % (1024 - now % 1024)),
                2 => push(&mut wheel, &mut heap, now + a % (4 * EPOCH_NS)),
                _ => prop_assert_eq!(wheel.pop(), heap.pop()),
            }
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        while let Some(got) = wheel.pop() {
            prop_assert_eq!(Some(got), heap.pop());
        }
        prop_assert!(heap.is_empty());
        prop_assert!(wheel.now().as_ns() >= 3 * EPOCH_NS);
    }

    #[test]
    fn same_instant_bursts_stay_fifo(burst in 1usize..300, base in 0u64..3_000_000) {
        let mut wheel: EventQueue<usize> = EventQueue::new();
        let mut heap: HeapQueue<usize> = HeapQueue::new();
        let t = Time::from_ns(base);
        for i in 0..burst {
            wheel.push(t, i);
            heap.push(t, i);
        }
        for _ in 0..burst {
            prop_assert_eq!(wheel.pop(), heap.pop());
        }
        prop_assert!(wheel.pop().is_none());
    }
}

#[test]
fn max_horizon_times_are_representable() {
    let mut wheel: EventQueue<u8> = EventQueue::new();
    let mut heap: HeapQueue<u8> = HeapQueue::new();
    for (t, e) in [(0u64, 0u8), (1, 1), (u64::MAX - 1, 2), (u64::MAX, 3)] {
        wheel.push(Time::from_ns(t), e);
        heap.push(Time::from_ns(t), e);
    }
    loop {
        let a = wheel.pop();
        assert_eq!(a, heap.pop());
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.now(), Time::from_ns(u64::MAX));
}
