//! Happens-before race detection over application operation streams.
//!
//! The detector runs the per-process [`Op`] streams on the op-stream
//! executor (`exec.rs`) in round-robin order, each process until it
//! blocks, and judges each access by the FastTrack-style vector clock
//! the executor keeps for its process.
//!
//! Shared accesses are checked at **byte-range precision** against a
//! shadow memory indexed by 64-byte cell: each cell holds, per
//! process, the byte range and epoch of the last write and the last
//! read that touched it. Two accesses conflict when their byte ranges
//! overlap and at least one writes; they race when the recorded epoch
//! does not happen-before the later access's clock. Byte precision
//! matters here: a page-based SVM with a multiple-writer protocol
//! tolerates *false sharing* (disjoint writes to the same cell, page
//! or cache line merge cleanly through twin/diff), so only genuinely
//! overlapping unordered accesses are protocol-visible races.
//!
//! The shadow keeps a small set of write and read segments per cell.
//! A segment is dropped only when the same process covers its whole
//! byte range again at an equal or later epoch — any future conflict
//! with the dropped segment would also conflict with its replacement,
//! so no race is lost. Touching same-epoch segments merge, and a cell
//! spans only 64 bytes, so the per-cell set stays small.

use std::collections::{HashMap, HashSet};

use genima_proto::{Op, ProcId, VClock};

use crate::exec::{Executor, Hooks, ScheduleError};

/// Shadow-cell granularity in bytes.
pub const CELL_BYTES: u64 = 64;

/// One shared access, identified by its position in an op stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessSite {
    /// The accessing process.
    pub proc: usize,
    /// Index of the operation in the process's stream.
    pub op_index: usize,
    /// `true` for writes.
    pub write: bool,
}

/// A detected race: two accesses with overlapping byte ranges, at
/// least one a write, not ordered by happens-before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Race {
    /// First byte of the cell both accesses touched.
    pub cell_base: u64,
    /// The earlier access (still recorded in the shadow memory).
    pub first: AccessSite,
    /// The later access that completed the race.
    pub second: AccessSite,
}

/// One recorded access within a cell: the epoch and the byte range
/// (relative to the cell base) it covered.
#[derive(Clone, Copy)]
struct Seg {
    proc: usize,
    clock: u32,
    op_index: usize,
    /// Byte range `[start, end)` within the cell.
    start: u32,
    end: u32,
}

/// Shadow state of one 64-byte cell: the last write and last read per
/// process that touched it, with their byte ranges.
#[derive(Clone, Default)]
struct Cell {
    writes: Vec<Seg>,
    reads: Vec<Seg>,
}

fn overlaps(a: &Seg, start: u32, end: u32) -> bool {
    a.start < end && start < a.end
}

/// `true` if the epoch (`q`, `cq`) happens-before the clock `c`.
fn ordered(c: &VClock, q: usize, cq: u32) -> bool {
    cq <= c.get(ProcId::new(q))
}

/// The detector state over one set of op streams.
#[derive(Clone, Default)]
pub(crate) struct Detector {
    cells: HashMap<u64, Cell>,
    reported: HashSet<u64>,
    pub(crate) races: Vec<Race>,
}

impl Hooks for Detector {
    /// Checks the access against every cell it touches and records it
    /// there.
    fn access(&mut self, p: usize, op_index: usize, op: &Op, clock: &VClock) {
        let (addr, len, write) = match op {
            Op::Read { addr, len } | Op::Observe { addr, len } => (addr, *len as u64, false),
            Op::Validate { addr, expected } => (addr, expected.len() as u64, false),
            Op::Write { addr, len } => (addr, *len as u64, true),
            Op::WriteData { addr, data } => (addr, data.len() as u64, true),
            // Pure timing / bookkeeping markers: no shared accesses.
            Op::Compute(_)
            | Op::WaitUntil(_)
            | Op::ServeEnd { .. }
            | Op::Acquire(_)
            | Op::Release(_)
            | Op::Barrier(_) => return,
        };
        if len == 0 {
            return;
        }
        let (addr, me) = (addr.value(), clock.get(ProcId::new(p)));
        for cell_id in addr / CELL_BYTES..(addr + len).div_ceil(CELL_BYTES) {
            let base = cell_id * CELL_BYTES;
            let start = (addr.max(base) - base) as u32;
            let end = ((addr + len).min(base + CELL_BYTES) - base) as u32;
            let cell = self.cells.entry(cell_id).or_default();
            // A write conflicts with earlier writes and reads, a read
            // with earlier writes only; the writes are searched first.
            let reads = if write { &cell.reads[..] } else { &[] };
            let race = (cell.writes.iter().map(|s| (s, true)))
                .chain(reads.iter().map(|s| (s, false)))
                .find(|(s, _)| {
                    s.proc != p && overlaps(s, start, end) && !ordered(clock, s.proc, s.clock)
                })
                .map(|(s, was_write)| Race {
                    cell_base: base,
                    first: AccessSite {
                        proc: s.proc,
                        op_index: s.op_index,
                        write: was_write,
                    },
                    second: AccessSite {
                        proc: p,
                        op_index,
                        write,
                    },
                });
            let seg = Seg {
                proc: p,
                clock: me,
                op_index,
                start,
                end,
            };
            let slot = if write {
                &mut cell.writes
            } else {
                &mut cell.reads
            };
            // Drop own segments the new range fully covers at an equal or
            // later epoch: a future access that would conflict with the
            // dropped segment also conflicts with this one, and this one's
            // epoch races whenever the older epoch would have.
            slot.retain(|s| !(s.proc == p && s.clock <= me && start <= s.start && s.end <= end));
            match slot
                .iter_mut()
                .find(|s| s.proc == p && s.clock == me && s.end >= start && end >= s.start)
            {
                // Same epoch, touching ranges: widen in place (one logical
                // access split across ops).
                Some(s) => {
                    s.start = s.start.min(start);
                    s.end = s.end.max(end);
                    s.op_index = op_index;
                }
                None => slot.push(seg),
            }

            if let Some(r) = race {
                if self.reported.insert(cell_id) {
                    self.races.push(r);
                }
            }
        }
    }
}

/// Runs the detector over one pre-materialised op stream per process.
///
/// Returns every detected race, at most one per 64-byte cell, in
/// detection order. An empty vector means the streams are race-free
/// under the happens-before relation their locks and barriers induce
/// in round-robin order: each process in turn runs until it blocks.
///
/// # Errors
///
/// Returns a [`ScheduleError`] when the streams cannot be executed to
/// completion (deadlock, or a release without a matching hold).
pub fn detect_races(programs: &[Vec<Op>]) -> Result<Vec<Race>, ScheduleError> {
    let mut exec = Executor::new(programs, Detector::default());
    while !exec.finished() {
        let mut progress = false;
        for p in 0..programs.len() {
            while exec.step(p)? {
                progress = true;
            }
        }
        if !progress {
            return Err(exec.deadlock());
        }
    }
    Ok(exec.hooks.races)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_proto::{Addr, BarrierId, LockId};

    fn w(addr: u64, len: u32) -> Op {
        Op::Write {
            addr: Addr::new(addr),
            len,
        }
    }

    fn r(addr: u64, len: u32) -> Op {
        Op::Read {
            addr: Addr::new(addr),
            len,
        }
    }

    #[test]
    fn unsynchronised_writes_race() {
        let races = detect_races(&[vec![w(0, 4)], vec![w(0, 4)]]).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].cell_base, 0);
    }

    #[test]
    fn lock_ordered_writes_do_not_race() {
        let a = vec![
            Op::Acquire(LockId::new(0)),
            w(0, 4),
            Op::Release(LockId::new(0)),
        ];
        let races = detect_races(&[a.clone(), a]).unwrap();
        assert!(races.is_empty());
    }

    #[test]
    fn barrier_orders_write_then_read() {
        let p0 = vec![w(128, 4), Op::Barrier(BarrierId::new(0))];
        let p1 = vec![Op::Barrier(BarrierId::new(0)), r(128, 4)];
        assert!(detect_races(&[p0, p1]).unwrap().is_empty());
    }

    #[test]
    fn read_write_without_order_races() {
        let p0 = vec![r(64, 4)];
        let p1 = vec![Op::Compute(genima_sim::Dur::from_us(1)), w(64, 4)];
        let races = detect_races(&[p0, p1]).unwrap();
        assert_eq!(races.len(), 1);
        assert!(races[0].second.write);
    }

    #[test]
    fn disjoint_cells_do_not_race() {
        let races = detect_races(&[vec![w(0, 4)], vec![w(64, 4)]]).unwrap();
        assert!(races.is_empty());
    }

    #[test]
    fn same_page_different_cells_do_not_race() {
        // Page-grain false sharing is not a data race.
        let races = detect_races(&[vec![w(0, 64)], vec![w(2048, 64)]]).unwrap();
        assert!(races.is_empty());
    }

    #[test]
    fn false_sharing_within_a_cell_does_not_race() {
        // Disjoint byte ranges in one 64-byte cell: the multiple-writer
        // protocol merges these cleanly, so they are not a race.
        let races = detect_races(&[vec![w(0, 24)], vec![w(32, 24)]]).unwrap();
        assert!(races.is_empty());
    }

    #[test]
    fn overlapping_ranges_within_a_cell_race() {
        let races = detect_races(&[vec![w(0, 24)], vec![w(16, 24)]]).unwrap();
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn lock_protected_read_of_locked_write_is_ordered() {
        let l = LockId::new(3);
        let p0 = vec![Op::Acquire(l), w(256, 8), Op::Release(l)];
        let p1 = vec![Op::Acquire(l), r(256, 8), Op::Release(l)];
        assert!(detect_races(&[p0, p1]).unwrap().is_empty());
    }

    #[test]
    fn release_without_hold_is_an_error() {
        let err = detect_races(&[vec![Op::Release(LockId::new(0))]]).unwrap_err();
        assert!(matches!(err, ScheduleError::ReleaseWithoutHold { .. }));
    }

    #[test]
    fn lock_cycle_deadlocks() {
        let (a, b) = (LockId::new(0), LockId::new(1));
        let p0 = vec![
            Op::Acquire(a),
            Op::Barrier(BarrierId::new(0)),
            Op::Acquire(b),
        ];
        let p1 = vec![
            Op::Acquire(b),
            Op::Barrier(BarrierId::new(0)),
            Op::Acquire(a),
        ];
        let err = detect_races(&[p0, p1]).unwrap_err();
        assert!(matches!(err, ScheduleError::Deadlock { .. }));
    }

    #[test]
    fn race_is_reported_once_per_cell() {
        let p0 = vec![w(0, 4), w(0, 4), w(4, 4)];
        let p1 = vec![w(0, 4), w(4, 4)];
        let races = detect_races(&[p0, p1]).unwrap();
        assert_eq!(races.len(), 1, "cell 0 reported once: {races:?}");
    }

    #[test]
    fn multi_cell_access_checks_every_cell() {
        // A 128-byte write spans two cells; a conflicting write to the
        // second cell must be caught.
        let p0 = vec![w(0, 128)];
        let p1 = vec![w(64, 4)];
        let races = detect_races(&[p0, p1]).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].cell_base, 64);
    }

    #[test]
    fn gap_between_same_epoch_segments_does_not_race() {
        // [0,4) and [32,36) are same-epoch but not touching, so they
        // must stay separate segments; a foreign write into the gap is
        // race-free. (A buggy merge into [0,36) would false-positive.)
        let races = detect_races(&[vec![w(0, 4), w(32, 4)], vec![w(8, 4)]]).unwrap();
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn touching_same_epoch_writes_merge_in_place() {
        // [0,8) then [8,16) are one logical access split across ops:
        // they merge, and a conflicting access reports the merged
        // segment's latest op index.
        let races = detect_races(&[vec![w(0, 8), w(8, 8)], vec![w(12, 4)]]).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first.op_index, 1);
    }

    #[test]
    fn merge_widens_leftwards_too() {
        // The second write lands *before* the first ([8,16) then
        // [0,8)); the touching-range merge must handle either side.
        let races = detect_races(&[vec![w(8, 8), w(0, 8)], vec![w(4, 4)]]).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first.op_index, 1);
    }

    #[test]
    fn epoch_rollover_rewrite_supersedes_older_segment() {
        let l = LockId::new(0);
        // p0 writes [0,8), rolls its epoch over via the release bump,
        // and rewrites the same range. The epoch-1 segment is covered
        // and dropped; the unsynchronised foreign write must race
        // against the epoch-2 replacement (op 3), proving the drop
        // lost no conflict.
        let p0 = vec![Op::Acquire(l), w(0, 8), Op::Release(l), w(0, 8)];
        let p1 = vec![w(0, 8)];
        let races = detect_races(&[p0, p1]).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first.op_index, 3);
    }

    #[test]
    fn partial_later_epoch_write_keeps_the_wider_old_segment() {
        let l = LockId::new(0);
        // The epoch-2 write [0,8) covers only part of the epoch-1
        // [0,32) segment, so the old segment must survive — dropping
        // it would miss the race with a foreign write at [16,24).
        let p0 = vec![Op::Acquire(l), w(0, 32), Op::Release(l), w(0, 8)];
        let p1 = vec![w(16, 8)];
        let races = detect_races(&[p0, p1]).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first.op_index, 1);
    }

    #[test]
    fn touching_ranges_across_epochs_do_not_merge() {
        let l = LockId::new(0);
        // [0,8) at epoch 1 and [8,16) at epoch 2 touch but must not
        // merge: p1's lock-ordered read of [0,8) is race-free, while
        // its unordered read of [8,16) races with the epoch-2 half
        // only. A cross-epoch merge would misreport the first read.
        let p0 = vec![Op::Acquire(l), w(0, 8), Op::Release(l), w(8, 8)];
        let p1 = vec![Op::Acquire(l), r(0, 8), Op::Release(l), r(8, 8)];
        let races = detect_races(&[p0, p1]).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first.op_index, 3);
        assert_eq!(races[0].second.op_index, 3);
        assert!(!races[0].second.write);
    }
}
