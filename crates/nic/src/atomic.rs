//! The firmware atomic unit of one NIC.
//!
//! §2's "remote atomic operations" alternative to full NI locks: the
//! NI serves fetch-and-store and masked compare-and-swap on a small
//! array of firmware words, and parks `wait`-mode CAS requests whose
//! compare failed until the cell is written. [`AtomicUnit`] is a pure
//! machine — cells plus parked FIFOs, no clock, no network — so the
//! communication layer runs local and remote, swap and CAS requests
//! through the same two calls and only decides where each reply goes.

use std::collections::VecDeque;

use genima_net::NicId;

use crate::msg::{CasWord, MsgKind, Tag};

/// One request to the atomic unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AtomicOp {
    /// Unconditional fetch-and-store.
    Swap { cell: u32, new: u64 },
    /// Masked compare-and-swap.
    Cas(CasWord),
}

impl AtomicOp {
    /// The firmware word the request addresses.
    pub(crate) fn cell(self) -> u32 {
        match self {
            AtomicOp::Swap { cell, .. } => cell,
            AtomicOp::Cas(cas) => cas.cell,
        }
    }

    /// The wire form of the request.
    pub(crate) fn msg(self) -> MsgKind {
        match self {
            AtomicOp::Swap { cell, new } => MsgKind::FetchAndStore { cell, new },
            AtomicOp::Cas(cas) => MsgKind::MaskedCas(cas),
        }
    }
}

/// Outcome of [`AtomicUnit::exec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AtomicResult {
    /// Answer the requester with the cell's previous value; `wrote`
    /// tells whether the cell changed (and parked requests may now be
    /// replayable).
    Reply { old: u64, wrote: bool },
    /// A failed `wait`-mode compare: held in the cell's FIFO, no reply
    /// until a write lets it succeed.
    Parked,
}

/// A parked request the unit just served: answer `src`'s request `tag`
/// with `old`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Served {
    pub src: NicId,
    pub tag: Tag,
    pub old: u64,
}

/// A masked-CAS request whose compare failed while [`CasWord::wait`]
/// was set.
#[derive(Clone, Copy, Debug)]
struct Waiter {
    /// NIC awaiting the reply (may be the unit's own NIC for a
    /// loopback CAS).
    src: NicId,
    cas: CasWord,
    tag: Tag,
}

/// Firmware words (lazily grown, zero-initialised) and the per-cell
/// FIFOs of parked `wait`-mode CAS requests. Cells are small dense
/// integers, so both are indexed by cell and grown together; a FIFO
/// that empties keeps its buffer for the next request to park.
#[derive(Debug, Default)]
pub(crate) struct AtomicUnit {
    cells: Vec<u64>,
    waiters: Vec<VecDeque<Waiter>>,
}

impl AtomicUnit {
    fn cell(&mut self, cell: u32) -> &mut u64 {
        let cell = cell as usize;
        if self.cells.len() <= cell {
            self.cells.resize(cell + 1, 0);
            self.waiters.resize_with(cell + 1, VecDeque::new);
        }
        &mut self.cells[cell]
    }

    /// Executes a masked CAS against the word, returning the previous
    /// value and whether the swap was performed.
    fn cas(&mut self, cas: CasWord) -> (u64, bool) {
        let word = self.cell(cas.cell);
        let old = *word;
        let hit = (old ^ cas.expect) & cas.mask == 0;
        if hit {
            *word = (old & !cas.mask) | (cas.new & cas.mask);
        }
        (old, hit)
    }

    /// Runs `op`, issued by `src` under `tag`, against the cells.
    pub(crate) fn exec(&mut self, op: AtomicOp, src: NicId, tag: Tag) -> AtomicResult {
        match op {
            AtomicOp::Swap { cell, new } => AtomicResult::Reply {
                old: std::mem::replace(self.cell(cell), new),
                wrote: true,
            },
            AtomicOp::Cas(cas) => {
                let (old, wrote) = self.cas(cas);
                if cas.wait && !wrote {
                    self.waiters[cas.cell as usize].push_back(Waiter { src, cas, tag });
                    AtomicResult::Parked
                } else {
                    AtomicResult::Reply { old, wrote }
                }
            }
        }
    }

    /// After a write to `cell`: re-executes the head of its parked
    /// FIFO like a fresh arrival and, if the compare now succeeds,
    /// dequeues and returns it. Call until `None` — each success
    /// writes the cell in turn, and the first head that still fails
    /// holds everything behind it (strict FIFO). This is what makes
    /// `wait`-mode lock handoff event-driven: no requester ever polls
    /// a cell it already lost.
    pub(crate) fn replay(&mut self, cell: u32) -> Option<Served> {
        let w = *self.waiters.get(cell as usize)?.front()?;
        let (old, wrote) = self.cas(w.cas);
        if !wrote {
            return None;
        }
        self.waiters[cell as usize].pop_front();
        Some(Served {
            src: w.src,
            tag: w.tag,
            old,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const CELL: u32 = 5;

    fn cas(expect: u64, new: u64, wait: bool) -> CasWord {
        CasWord {
            cell: CELL,
            expect,
            new,
            mask: u64::MAX,
            wait,
        }
    }

    #[test]
    fn cells_start_zero_and_are_independent() {
        let mut unit = AtomicUnit::default();
        let op = AtomicOp::Swap { cell: 3, new: 7 };
        let first = unit.exec(op, NicId::new(0), Tag::new(1));
        assert_eq!(
            first,
            AtomicResult::Reply {
                old: 0,
                wrote: true
            }
        );
        let again = unit.exec(op, NicId::new(0), Tag::new(2));
        assert_eq!(
            again,
            AtomicResult::Reply {
                old: 7,
                wrote: true
            }
        );
        let other = AtomicOp::Swap { cell: 4, new: 1 };
        let fresh = unit.exec(other, NicId::new(0), Tag::new(3));
        assert_eq!(
            fresh,
            AtomicResult::Reply {
                old: 0,
                wrote: true
            }
        );
    }

    #[test]
    fn masked_cas_touches_only_the_masked_lanes() {
        let mut unit = AtomicUnit::default();
        unit.exec(
            AtomicOp::Swap {
                cell: 0,
                new: 0xab_00,
            },
            NicId::new(0),
            Tag::NONE,
        );
        let low_byte = CasWord {
            cell: 0,
            expect: 0,
            new: 0xff_cd,
            mask: 0xff,
            wait: false,
        };
        let r = unit.exec(AtomicOp::Cas(low_byte), NicId::new(1), Tag::new(1));
        assert_eq!(
            r,
            AtomicResult::Reply {
                old: 0xab_00,
                wrote: true
            }
        );
        let r = unit.exec(AtomicOp::Cas(low_byte), NicId::new(1), Tag::new(2));
        assert_eq!(
            r,
            AtomicResult::Reply {
                old: 0xab_cd,
                wrote: false
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a reference FIFO: a failed `wait`-mode CAS parks
        /// and says nothing; every write — a swap or a successful CAS
        /// — replays the parked requests strictly oldest-first, each
        /// success writing the cell for the next, and the first head
        /// that still fails holds back everything behind it, even
        /// requests that would succeed.
        #[test]
        fn parked_cas_is_served_strictly_fifo_and_swaps_replay_the_queue(
            ops in proptest::collection::vec((0u8..3, 0u64..3, 0u64..3), 1..60)
        ) {
            let mut unit = AtomicUnit::default();
            let mut value = 0u64;
            let mut parked: VecDeque<(Tag, u64, u64)> = VecDeque::new();
            for (i, &(kind, expect, new)) in ops.iter().enumerate() {
                let (src, tag) = (NicId::new(i % 3), Tag::new(i as u64));
                let op = match kind {
                    0 => AtomicOp::Swap { cell: CELL, new },
                    _ => AtomicOp::Cas(cas(expect, new, kind == 2)),
                };
                let hit = kind == 0 || value == expect;
                let got = unit.exec(op, src, tag);
                if hit {
                    prop_assert_eq!(got, AtomicResult::Reply { old: value, wrote: true });
                    value = new;
                } else if kind == 2 {
                    prop_assert_eq!(got, AtomicResult::Parked);
                    parked.push_back((tag, expect, new));
                } else {
                    prop_assert_eq!(got, AtomicResult::Reply { old: value, wrote: false });
                }
                if !hit {
                    continue;
                }
                while let Some(served) = unit.replay(CELL) {
                    let (tag, expect, new) = parked.pop_front().expect("served an unparked request");
                    prop_assert_eq!(served.tag, tag, "served out of park order");
                    prop_assert_eq!(served.src, NicId::new(tag.value() as usize % 3));
                    prop_assert_eq!((expect, served.old), (value, value));
                    value = new;
                }
                // Replay stopped: nothing parked, or the head is blocked.
                prop_assert!(parked.front().is_none_or(|&(_, expect, _)| expect != value));
            }
        }
    }
}
