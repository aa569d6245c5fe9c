//! `bench diff` — host-side diff-engine throughput: block scan and
//! write-tracked scan versus the reference word-by-word scan.
//!
//! Each case is a twin/current page pair with a controlled dirty
//! structure, built deterministically from `--seed`:
//!
//! * `clean`   — no modified words: the block scan's best case (one
//!   branch per 32 bytes) and the tracked scan's ideal (zero bytes
//!   read).
//! * `sparse`  — 8 scattered single-word runs, the paper's typical
//!   fine-grained write pattern (≤8 dirty runs per page).
//! * `medium`  — 64 scattered short runs.
//! * `dense`   — every other word modified (512 runs), the worst case
//!   for run bookkeeping: the reference scan pays one `Vec` per run.
//! * `full`    — every word modified: pure payload-copy bandwidth.
//!
//! Gates: on every case both engines' output is bit-identical to the
//! reference scan — a wrong-but-fast diff engine fails before its
//! timing means anything — and the block scan is at least 3× the
//! reference on the sparse case. The EXPERIMENTS.md targets are
//! stricter (≥5× sparse, ≥3× dense); the gate sits at 3× to stay
//! robust on noisy shared runners.

use genima_mem::{
    compute_diff_reference, compute_diff_tracked, DiffScratch, DirtyRanges, Page, PAGE_SIZE, WORD,
};
use genima_obs::bench::row;
use genima_obs::{BenchReport, Json};
use genima_sim::SplitMix64;

use crate::{time_ns, Args, View};

/// Timed calls per (case, engine).
const ITERS: usize = 4000;

pub const VIEWS: &[View] = &[View {
    title: "diff engines: ns per page, and speedup over the reference scan",
    kind: None,
    cols: &[
        ("case", "case", 0),
        ("runs", "runs", 0),
        ("bytes", "bytes", 0),
        ("ref(ns)", "ref_ns", 0),
        ("block(ns)", "block_ns", 0),
        ("tracked(ns)", "tracked_ns", 0),
        ("block-x", "speedup_block", 1),
        ("tracked-x", "speedup_tracked", 1),
        ("identical", "identical", 0),
    ],
}];

/// One benchmark scenario: a twin, the current page derived from it,
/// and the dirty ranges the write path would have recorded.
struct Case {
    name: &'static str,
    twin: Page,
    cur: Page,
    dirty: DirtyRanges,
}

fn build_case(name: &'static str, seed: u64, word_stride: Option<usize>, runs: usize) -> Case {
    // SplitMix64: every run and platform measures the same contents.
    let mut rng = SplitMix64::new(seed);
    let mut twin = Page::zeroed();
    // Non-trivial baseline content so compares exercise real data.
    for w in (0..PAGE_SIZE).step_by(8) {
        twin.write(w, &rng.next_u64().to_le_bytes());
    }
    let mut cur = twin.twin();
    let mut dirty = DirtyRanges::new();
    match word_stride {
        // Periodic pattern: every `stride`-th word flipped.
        Some(stride) => {
            for w in (0..PAGE_SIZE / WORD).step_by(stride) {
                let off = w * WORD;
                let b = (rng.next_u64() as u32).to_le_bytes();
                // Guarantee a difference whatever the rng produced.
                let mut old = [0u8; 4];
                old.copy_from_slice(cur.read(off, 4));
                let new = if b == old {
                    [!b[0], b[1], b[2], b[3]]
                } else {
                    b
                };
                cur.write(off, &new);
                dirty.add(off as u32, WORD as u32);
            }
        }
        // Scattered runs: `runs` short runs spread over the page, at
        // least one clean word apart so run count is exact.
        None => {
            let spacing = PAGE_SIZE / WORD / runs.max(1);
            for r in 0..runs {
                let base_word = r * spacing;
                let off = base_word * WORD;
                let len = WORD * (1 + (rng.next_u64() as usize % 2.min(spacing - 1).max(1)));
                for i in 0..len {
                    let old = cur.read(off + i, 1)[0];
                    cur.write(off + i, &[old ^ 0x5a]);
                }
                dirty.add(off as u32, len as u32);
            }
        }
    }
    Case {
        name,
        twin,
        cur,
        dirty,
    }
}

fn build_cases(seed: u64) -> Vec<Case> {
    let mut cases = vec![build_case("clean", seed, None, 0)];
    cases[0].dirty.clear(); // truly untouched: tracked scan skips it
    cases.push(build_case("sparse", seed ^ 1, None, 8));
    cases.push(build_case("medium", seed ^ 2, None, 64));
    cases.push(build_case("dense", seed ^ 3, Some(2), 0));
    cases.push(build_case("full", seed ^ 4, Some(1), 0));
    cases
}

pub fn run(args: &Args) -> BenchReport {
    let mut rep = BenchReport::new("diff", args.seed);
    rep.set_meta("iters", ITERS as u64);
    rep.set_meta("page_size", PAGE_SIZE as u64);
    for case in build_cases(args.seed) {
        let reference = compute_diff_reference(&case.twin, &case.cur);
        // Correctness before speed: both engines must be bit-identical
        // to the reference scan on this exact input.
        let mut scratch = DiffScratch::new();
        let block_ok = scratch.compute(&case.twin, &case.cur) == &reference;
        let tracked_ok = compute_diff_tracked(&case.twin, &case.cur, &case.dirty) == reference;
        for (engine, ok) in [("block", block_ok), ("tracked", tracked_ok)] {
            if !ok {
                eprintln!(
                    "FAIL {}: {engine} scan output differs from reference",
                    case.name
                );
            }
        }

        let ref_ns = time_ns(ITERS, || {
            compute_diff_reference(&case.twin, &case.cur).run_count()
        });
        let block_ns = time_ns(ITERS, || scratch.compute(&case.twin, &case.cur).run_count());
        let mut tscratch = DiffScratch::new();
        let tracked_ns = time_ns(ITERS, || {
            tscratch
                .compute_tracked(&case.twin, &case.cur, &case.dirty)
                .run_count()
        });
        let mut cell = Json::obj();
        cell.set("case", case.name.into());
        cell.set("runs", (reference.run_count() as u64).into());
        cell.set("bytes", (reference.bytes() as u64).into());
        cell.set("ref_ns", ref_ns.into());
        cell.set("block_ns", block_ns.into());
        cell.set("tracked_ns", tracked_ns.into());
        cell.set("speedup_block", (ref_ns / block_ns).into());
        cell.set("speedup_tracked", (ref_ns / tracked_ns).into());
        cell.set("identical", (block_ok && tracked_ok).into());
        let i = rep.push(cell);
        let name = format!("{}: engines bit-identical to the reference", case.name);
        rep.gate(name, row(i, "identical"), "==", true);
        if case.name == "sparse" {
            let name = "sparse: block scan >= 3x the reference";
            rep.gate(name, row(i, "speedup_block"), ">=", 3.0);
        }
    }
    rep
}
