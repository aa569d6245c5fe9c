//! Protocol fuzzing: randomly generated *well-synchronized* programs
//! executed under every protocol column with full data validation.
//!
//! The generator builds programs from alternating phases:
//!
//! * a **write phase** where each process writes a random set of
//!   disjoint (process-salted) regions with values derived from the
//!   phase and writer, some under locks;
//! * a **barrier**;
//! * a **read phase** where every process validates a random sample of
//!   everything written so far;
//! * another **barrier** before the next write phase (so reads never
//!   race with writes — programs are data-race-free, as LRC requires).
//!
//! Any divergence between what LRC promises and what the twins, diffs,
//! write notices, timestamps and fetches actually deliver panics inside
//! the simulator via `Op::Validate`.
//!
//! Every program runs twice: once under the default `page % nodes`
//! homes, which never give two adjacent pages one home, and once with
//! the pages homed in one contiguous block per node.

use genima_nic::{LanaiConfig, LockImpl};
use genima_proto::{
    ops_source, Addr, BarrierId, Board, Column, FeatureSet, LockId, NodeId, Op, OpSource, PageId,
    SvmParams, SvmSystem, Topology, PAGE_SIZE,
};
use genima_sim::{Dur, SplitMix64};
use proptest::prelude::*;

const NPAGES: u64 = 24;

/// One write: (page, slot) — slots are 64-byte aligned so concurrent
/// writers never touch the same word.
#[derive(Clone, Debug)]
struct Cell {
    page: u64,
    slot: u64,
}

fn cell_addr(c: &Cell) -> Addr {
    Addr::new(c.page * PAGE_SIZE as u64 + c.slot * 64)
}

fn cell_value(phase: usize, writer: usize, c: &Cell) -> Vec<u8> {
    let v = (phase as u8)
        .wrapping_mul(31)
        .wrapping_add(writer as u8 * 7)
        .wrapping_add(c.slot as u8)
        .max(1);
    vec![v; 16]
}

/// Builds the per-process programs for a seeded random schedule.
fn build_programs(
    seed: u64,
    nprocs: usize,
    phases: usize,
    writes_per_phase: usize,
) -> Vec<Box<dyn OpSource>> {
    let mut rng = SplitMix64::new(seed);
    // Written history: (phase, writer, cell) for later validation.
    let mut history: Vec<(usize, usize, Cell)> = Vec::new();
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); nprocs];
    let slots_per_page = (PAGE_SIZE as u64) / 64;
    let mut bar = 0;

    for phase in 0..phases {
        // Each process owns a disjoint slot space this phase:
        // slot % nprocs == pid.
        let mut phase_writes: Vec<(usize, Cell)> = Vec::new();
        for pid in 0..nprocs {
            for _ in 0..writes_per_phase {
                let page = rng.next_below(NPAGES);
                let raw = rng.next_below(slots_per_page / nprocs as u64);
                let slot = raw * nprocs as u64 + pid as u64;
                phase_writes.push((pid, Cell { page, slot }));
            }
        }
        for (pid, cell) in &phase_writes {
            let use_lock = rng.next_below(3) == 0;
            let ops = &mut programs[*pid];
            if use_lock {
                ops.push(Op::Acquire(LockId::new((cell.page % 8) as usize)));
            }
            ops.push(Op::WriteData {
                addr: cell_addr(cell),
                data: cell_value(phase, *pid, cell),
            });
            if use_lock {
                ops.push(Op::Release(LockId::new((cell.page % 8) as usize)));
            }
            if rng.next_below(4) == 0 {
                ops.push(Op::Compute(Dur::from_us(rng.next_below(200))));
            }
        }
        // Overwrites within a phase would race between processes; the
        // slot-salting above prevents cross-process conflicts, and we
        // keep only the LAST write per cell per writer for validation.
        for (pid, cell) in phase_writes {
            history.retain(|(_, w, c)| !(c.page == cell.page && c.slot == cell.slot && *w == pid));
            // A cell rewritten by the same writer in an earlier phase
            // is also superseded.
            history.retain(|(_, w, c)| !(c.page == cell.page && c.slot == cell.slot && *w == pid));
            history.push((phase, pid, cell));
        }
        // Deduplicate cells overwritten across phases by the same
        // writer (keep the latest phase).
        history.sort_by_key(|(ph, w, c)| (c.page, c.slot, *w, *ph));
        history.dedup_by(|a, b| a.1 == b.1 && a.2.page == b.2.page && a.2.slot == b.2.slot);

        for ops in programs.iter_mut() {
            ops.push(Op::Barrier(BarrierId::new(bar)));
        }
        bar += 1;

        // Read phase: every process validates a sample of the history.
        for (pid, ops) in programs.iter_mut().enumerate() {
            for (ph, w, c) in &history {
                if rng.next_below(3) == 0 || *w == pid {
                    ops.push(Op::Validate {
                        addr: cell_addr(c),
                        expected: cell_value(*ph, *w, c),
                    });
                }
            }
        }
        for ops in programs.iter_mut() {
            ops.push(Op::Barrier(BarrierId::new(bar)));
        }
        bar += 1;
    }
    programs
        .into_iter()
        .map(|ops| Box::new(ops_source(ops)) as Box<dyn OpSource>)
        .collect()
}

fn run_fuzz(seed: u64, column: impl Into<Column>, nodes: usize, ppn: usize) {
    run_fuzz_with(seed, column, nodes, ppn, |_| {});
}

fn run_fuzz_with(
    seed: u64,
    column: impl Into<Column>,
    nodes: usize,
    ppn: usize,
    tweak: impl FnOnce(&mut SvmParams),
) {
    let topo = Topology::new(nodes, ppn);
    let mut params = column.into().params(topo);
    params.data_mode = true;
    params.locks = 8;
    tweak(&mut params);
    for blocked in [false, true] {
        let programs = build_programs(seed, topo.procs(), 3, 6);
        let mut sys = SvmSystem::new(params.clone(), programs);
        if blocked {
            // Contiguous homes, as the applications place theirs, so that
            // in-place runs longer than a page form (DESIGN.md §10.3).
            let block = NPAGES as usize / nodes;
            for n in 0..nodes {
                sys.assign_homes(PageId::new(n * block), block, NodeId::new(n));
            }
        }
        sys.run(); // panics on any validation failure or deadlock
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random well-synchronized programs satisfy release consistency
    /// under every protocol column on a 2x2 cluster.
    #[test]
    fn fuzz_all_protocols_2x2(seed in any::<u64>()) {
        for f in Column::all() {
            run_fuzz(seed, f, 2, 2);
        }
    }

    /// Same on a 4-node cluster with one process each (every access is
    /// potentially remote).
    #[test]
    fn fuzz_genima_and_base_4x1(seed in any::<u64>()) {
        run_fuzz(seed, FeatureSet::base(), 4, 1);
        run_fuzz(seed, FeatureSet::genima(), 4, 1);
        run_fuzz(seed, Column::genima_2025(), 4, 1);
    }

    /// The §5 NI extensions (scatter-gather diffs, broadcast notices)
    /// and the pull-notice alternative must preserve release
    /// consistency too.
    #[test]
    fn fuzz_ni_extensions(seed in any::<u64>()) {
        run_fuzz_with(seed, FeatureSet::genima(), 2, 2, |p| {
            p.hw.nic.scatter_gather = true;
        });
        run_fuzz_with(seed, FeatureSet::genima(), 2, 2, |p| {
            p.hw.nic.broadcast = true;
        });
        run_fuzz_with(seed, FeatureSet::genima(), 2, 2, |p| {
            p.proto.pull_notices = true;
        });
        run_fuzz_with(seed, FeatureSet::genima(), 2, 2, |p| {
            p.hw.board = Board::Lanai(LanaiConfig {
                lock_impl: LockImpl::RemoteAtomics,
                ..LanaiConfig::paper()
            });
        });
        run_fuzz_with(seed, FeatureSet::genima(), 2, 2, |p| {
            p.hw.nic.scatter_gather = true;
            p.hw.nic.broadcast = true;
            p.hw.board = Board::Lanai(LanaiConfig {
                pipelined_sends: true,
                ..LanaiConfig::paper()
            });
            p.proto.pull_notices = true;
        });
    }
}

/// A fixed-seed smoke version that always runs (proptest cases above
/// randomize per invocation).
#[test]
fn fuzz_fixed_seeds() {
    for seed in [1, 42, 0xDEAD_BEEF, u64::MAX / 7] {
        for f in Column::all() {
            run_fuzz(seed, f, 2, 2);
        }
        run_fuzz(seed, FeatureSet::genima(), 4, 4);
        run_fuzz(seed, Column::genima_2025(), 4, 4);
    }
}
/// Regression: the seed that exposed the stale-reply rollback — a
/// Base-protocol page reply generated before a co-located writer's
/// flush must be re-requested, not installed (it would roll the node
/// copy back and lose the local write).
#[test]
fn regression_stale_reply_rollback() {
    let seed = 15529674121103605229u64;
    for f in Column::all() {
        run_fuzz(seed, f, 2, 2);
    }
}

/// Regression: fuzz seed 16791101178840247249, a case the program
/// fuzzer once shrank to, run by name on every `cargo test`.
/// Historically tripped validation on the delayed-diff columns; kept
/// across the full 2x2 matrix plus the all-remote 4x1 shape.
#[test]
fn regression_fuzz_seed_16791101178840247249() {
    let seed = 16791101178840247249u64;
    for f in Column::all() {
        run_fuzz(seed, f, 2, 2);
    }
    run_fuzz(seed, FeatureSet::base(), 4, 1);
    run_fuzz(seed, FeatureSet::genima(), 4, 1);
    run_fuzz(seed, Column::genima_2025(), 4, 1);
}

/// Regression: fuzz seed 3448139302961865587, a case the program
/// fuzzer once shrank to, run by name on every `cargo test`. This seed
/// also covers the §5 NI extension combinations that the
/// `fuzz_ni_extensions` property exercises randomly.
#[test]
fn regression_fuzz_seed_3448139302961865587() {
    let seed = 3448139302961865587u64;
    for f in Column::all() {
        run_fuzz(seed, f, 2, 2);
    }
    run_fuzz_with(seed, FeatureSet::genima(), 2, 2, |p| {
        p.hw.nic.scatter_gather = true;
        p.hw.nic.broadcast = true;
        p.proto.pull_notices = true;
    });
}

/// Regression: under DW, with blocked homes, a process whose acquire
/// invalidated a page it was writing flushed that page's diff early,
/// tagged with its open interval's number, then wrote the page again
/// in the same interval. The early diff alone raised the home copy to
/// that interval, so a reader past the next barrier took the home copy
/// before the second diff arrived. The acquire now closes the interval
/// first.
#[test]
fn regression_rewrite_after_conflicting_acquire() {
    for f in Column::all() {
        run_fuzz(140, f, 4, 1);
    }
}
