//! Twinning and diffing over real page contents.
//!
//! The diff engine is the hottest host-side data-plane operation: every
//! interval flush scans each dirty page against its twin. Three scan
//! strategies share one output representation ([`Diff`]):
//!
//! * [`compute_diff`] — the production **block scan**: twin and current
//!   are compared 32 bytes at a time (paired `u128` loads folded into
//!   one branch) and only a block that differs is refined word by
//!   word. Clean spans of a page cost one branch per 32 bytes instead
//!   of eight.
//! * [`compute_diff_tracked`] — the **write-tracked scan**: given the
//!   [`DirtyRanges`](crate::DirtyRanges) the interval actually wrote,
//!   only those byte ranges are scanned and a clean page is skipped
//!   without reading it at all.
//! * the original **word-by-word scan**, kept in this module's tests
//!   as the executable specification the fast paths are checked
//!   against (`block scan == reference`, `tracked == full scan`).
//!
//! All three produce bit-identical [`Diff`]s for the same inputs (for
//! the tracked scan: the same inputs restricted to what the writer
//! touched — see its documentation).

use crate::addr::PAGE_SIZE;
use crate::dirty::DirtyRanges;

/// Comparison granularity in bytes: diffs are computed word by word,
/// as in the original LRC implementations.
pub const WORD: usize = 4;

/// Coarse comparison granularity of the block scan, in bytes: two
/// `u128` loads per side, folded into one branch.
const BLOCK: usize = 32;

/// One shared page's contents.
///
/// # Example
///
/// ```
/// use genima_mem::Page;
/// let mut p = Page::zeroed();
/// p.write(8, &[1, 2, 3, 4]);
/// assert_eq!(&p.bytes()[8..12], &[1, 2, 3, 4]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    // The length is in the type, so the box is a thin pointer: a page
    // column holds `Option<Page>` per slot and pays 8 bytes, not 16.
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A page of zeros.
    pub fn zeroed() -> Page {
        // Zeroed on the heap and re-typed in place: no stack copy.
        let bytes = vec![0u8; PAGE_SIZE].into_boxed_slice();
        Page {
            bytes: bytes.try_into().expect("a vector of PAGE_SIZE bytes"),
        }
    }

    /// The page contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// Writes `data` at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write would run past the end of the page.
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the read would run past the end of the page.
    pub fn read(&self, offset: usize, len: usize) -> &[u8] {
        &self.bytes[offset..offset + len]
    }

    /// Overwrites this page with the contents of `src` (buffer reuse —
    /// no allocation, unlike `clone`).
    pub fn copy_from(&mut self, src: &Page) {
        self.bytes.copy_from_slice(&src.bytes[..]);
    }

    /// Resets every byte to zero (buffer reuse — no allocation).
    pub fn zero(&mut self) {
        self.bytes.fill(0);
    }

    /// Creates a twin: a snapshot taken before the first write of an
    /// interval. Allocates; steady-state protocol code twins through
    /// [`PagePool`](crate::PagePool) instead.
    pub fn twin(&self) -> Page {
        self.clone()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Page({nonzero} nonzero bytes)")
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

/// The word-granularity difference between a page and its twin.
///
/// Runs are stored flat: one `(offset, len)` index plus a single
/// payload buffer holding every run's bytes back to back, so a diff
/// costs two allocations however many runs it has (the old
/// representation paid one `Vec` per run). In the Base protocol a diff
/// is packed into one message per page; in GeNIMA's *direct diffs*
/// each run becomes its own remote-deposit message aimed straight at
/// the home copy (§2, "Remote Deposit").
///
/// # Example
///
/// ```
/// use genima_mem::Diff;
/// let mut d = Diff::default();
/// d.push_run(8, &[1, 2, 3, 4]);
/// d.push_run(100, &[5; 8]);
/// assert_eq!(d.run_count(), 2);
/// assert_eq!(d.bytes(), 12);
/// assert_eq!(d.runs().next(), Some((8, &[1u8, 2, 3, 4][..])));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diff {
    /// `(page offset, byte length)` per run, ascending, disjoint.
    runs: Vec<(u32, u32)>,
    /// All run payloads, concatenated in run order.
    payload: Vec<u8>,
}

impl Diff {
    /// Number of contiguous modified runs — the number of messages
    /// direct diffs will send for this page.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total modified payload bytes.
    pub fn bytes(&self) -> u32 {
        self.payload.len() as u32
    }

    /// Returns `true` if the page did not change.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates over `(offset, data)` runs in ascending offset order.
    /// Each `data` slice borrows the shared payload buffer.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        let mut at = 0usize;
        self.runs.iter().map(move |&(off, len)| {
            let data = &self.payload[at..at + len as usize];
            at += len as usize;
            (off, data)
        })
    }

    /// Appends a run. Runs must be pushed in ascending offset order,
    /// word-aligned, and separated by at least one untouched word —
    /// the canonical form every scan produces.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or the run breaks canonical form.
    pub fn push_run(&mut self, offset: u32, data: &[u8]) {
        assert!(!data.is_empty(), "empty diff run");
        assert_eq!(offset as usize % WORD, 0, "run offset must be word-aligned");
        assert_eq!(data.len() % WORD, 0, "run length must be whole words");
        if let Some(&(o, l)) = self.runs.last() {
            assert!(
                offset >= o + l + WORD as u32,
                "runs must ascend with at least a word gap"
            );
        }
        self.runs.push((offset, data.len() as u32));
        self.payload.extend_from_slice(data);
    }

    /// Empties the diff, keeping both buffers' capacity for reuse.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.payload.clear();
    }

    /// Applies the diff to `page` (typically the home copy).
    pub fn apply(&self, page: &mut Page) {
        for (offset, data) in self.runs() {
            page.write(offset as usize, data);
        }
    }

    /// Appends a span of contiguous changed words, merging into the
    /// previous run when adjacent. A skipped (unchanged) word between
    /// two pushes breaks contiguity, so runs come out exactly as the
    /// reference scan produces them.
    fn push_span(&mut self, offset: u32, bytes: &[u8]) {
        if let Some(last) = self.runs.last_mut() {
            if last.0 + last.1 == offset {
                last.1 += bytes.len() as u32;
                self.payload.extend_from_slice(bytes);
                return;
            }
        }
        self.runs.push((offset, bytes.len() as u32));
        self.payload.extend_from_slice(bytes);
    }

    /// Appends one changed word (see [`Diff::push_span`]).
    fn push_word(&mut self, offset: u32, word: &[u8]) {
        self.push_span(offset, word);
    }
}

/// Reads sixteen bytes at `off` as one comparable value. Little-endian
/// layout is forced so word lane `i` of the value maps to bytes
/// `4i..4i+4` on every platform.
#[inline]
fn wide_at(bytes: &[u8], off: usize) -> u128 {
    let mut buf = [0u8; 16];
    buf.copy_from_slice(&bytes[off..off + 16]);
    u128::from_le_bytes(buf)
}

/// Returns `true` if every 32-bit lane of the XOR is nonzero, i.e.
/// all four words of the sixteen-byte group changed.
#[inline]
fn all_lanes_changed(x: u128) -> bool {
    x as u32 != 0 && (x >> 32) as u32 != 0 && (x >> 64) as u32 != 0 && (x >> 96) as u32 != 0
}

/// Emits the changed words of one sixteen-byte group given its
/// already-computed XOR: a word differs exactly where its 32-bit lane
/// of `x` is nonzero, so refinement costs no memory re-reads.
#[inline]
fn refine_half(cur: &[u8], base: usize, x: u128, out: &mut Diff) {
    if x == 0 {
        return;
    }
    for lane in 0..4usize {
        if (x >> (32 * lane)) as u32 != 0 {
            let off = base + lane * WORD;
            out.push_word(off as u32, &cur[off..off + WORD]);
        }
    }
}

/// Scans `[start, end)` of the page (word-aligned bounds) into `out`:
/// 32-byte block compares over the aligned middle (two `u128` XORs
/// folded into one branch), lane refinement only where a block
/// differs, word compares on the unaligned head and tail.
fn scan_region(twin: &[u8], cur: &[u8], start: usize, end: usize, out: &mut Diff) {
    debug_assert_eq!(start % WORD, 0);
    debug_assert_eq!(end % WORD, 0);
    debug_assert!(end <= PAGE_SIZE);
    let mut w = start;
    let word_check = |w: usize, out: &mut Diff| {
        if twin[w..w + WORD] != cur[w..w + WORD] {
            out.push_word(w as u32, &cur[w..w + WORD]);
        }
    };
    // Head: words up to the first block boundary.
    while w < end && !w.is_multiple_of(BLOCK) {
        word_check(w, out);
        w += WORD;
    }
    // Middle: one branch per block; refine only inside changed blocks,
    // reusing the XOR values the branch already computed. A block
    // whose every word changed (bulk overwrite) is appended whole.
    while w + BLOCK <= end {
        let x1 = wide_at(twin, w) ^ wide_at(cur, w);
        let x2 = wide_at(twin, w + 16) ^ wide_at(cur, w + 16);
        if x1 | x2 != 0 {
            if all_lanes_changed(x1) && all_lanes_changed(x2) {
                out.push_span(w as u32, &cur[w..w + BLOCK]);
            } else {
                refine_half(cur, w, x1, out);
                refine_half(cur, w + 16, x2, out);
            }
        }
        w += BLOCK;
    }
    // Tail: the words after the last full block.
    while w < end {
        word_check(w, out);
        w += WORD;
    }
}

/// Compares `current` against its `twin` and returns the modified
/// runs, scanning in 32-byte blocks with per-word refinement
/// inside changed blocks. Output is bit-identical to the original
/// word-by-word scan.
///
/// # Example
///
/// ```
/// use genima_mem::{compute_diff, Page};
/// let twin = Page::zeroed();
/// let mut cur = twin.twin();
/// cur.write(100, &[9; 8]);
/// let d = compute_diff(&twin, &cur);
/// assert_eq!(d.run_count(), 1);
/// assert_eq!(d.bytes(), 8);
/// let mut home = Page::zeroed();
/// d.apply(&mut home);
/// assert_eq!(home, cur);
/// ```
pub fn compute_diff(twin: &Page, current: &Page) -> Diff {
    let mut out = Diff::default();
    scan_region(twin.bytes(), current.bytes(), 0, PAGE_SIZE, &mut out);
    out
}

/// Compares only the byte ranges `dirty` says the interval wrote.
///
/// A page with no recorded writes produces an empty diff without a
/// single byte read. Because [`DirtyRanges`](crate::DirtyRanges) keeps
/// ranges word-aligned, disjoint, and separated by at least one
/// untouched word, run boundaries fall exactly where a full scan would
/// put them: for a single writer the output is bit-identical to
/// [`compute_diff`]. (When co-located processes share the node copy, a
/// full scan would additionally pick up *their* bytes; the tracked
/// scan deliberately excludes them — each writer flushes its own runs,
/// and the home applies the union.)
pub fn compute_diff_tracked(twin: &Page, current: &Page, dirty: &DirtyRanges) -> Diff {
    let mut out = Diff::default();
    if dirty.is_empty() {
        return out;
    }
    let (t, c) = (twin.bytes(), current.bytes());
    for (off, len) in dirty.iter() {
        scan_region(t, c, off as usize, (off + len) as usize, &mut out);
    }
    out
}

/// A reusable diff arena: run index and payload buffers persist across
/// computations, so scanning N pages in a flush loop costs zero
/// allocations after the first page.
///
/// # Example
///
/// ```
/// use genima_mem::{DiffScratch, Page};
/// let twin = Page::zeroed();
/// let mut cur = twin.twin();
/// cur.write(0, &[1; 4]);
/// let mut scratch = DiffScratch::new();
/// assert_eq!(scratch.compute(&twin, &cur).run_count(), 1);
/// cur.write(512, &[2; 4]);
/// assert_eq!(scratch.compute(&twin, &cur).run_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DiffScratch {
    diff: Diff,
}

impl DiffScratch {
    /// Creates an empty arena.
    pub fn new() -> DiffScratch {
        DiffScratch::default()
    }

    /// Block-scans the whole page into the arena and returns the diff.
    pub fn compute(&mut self, twin: &Page, current: &Page) -> &Diff {
        self.diff.clear();
        scan_region(twin.bytes(), current.bytes(), 0, PAGE_SIZE, &mut self.diff);
        &self.diff
    }

    /// Scans only the tracked dirty ranges into the arena (see
    /// [`compute_diff_tracked`]).
    pub fn compute_tracked(&mut self, twin: &Page, current: &Page, dirty: &DirtyRanges) -> &Diff {
        self.diff.clear();
        if dirty.is_empty() {
            return &self.diff;
        }
        let (t, c) = (twin.bytes(), current.bytes());
        for (off, len) in dirty.iter() {
            scan_region(t, c, off as usize, (off + len) as usize, &mut self.diff);
        }
        &self.diff
    }

    /// Moves the computed diff out (for a diff that must outlive the
    /// arena, e.g. queued in an in-flight message). The arena restarts
    /// empty and re-grows on the next computation.
    pub fn take(&mut self) -> Diff {
        std::mem::take(&mut self.diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original word-by-word scan: the executable specification
    /// the block and tracked scans are tested against.
    fn compute_diff_reference(twin: &Page, current: &Page) -> Diff {
        let t = twin.bytes();
        let c = current.bytes();
        let mut runs: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut open: Option<(u32, Vec<u8>)> = None;
        for w in (0..PAGE_SIZE).step_by(WORD) {
            let changed = t[w..w + WORD] != c[w..w + WORD];
            match (&mut open, changed) {
                (Some((_, data)), true) => data.extend_from_slice(&c[w..w + WORD]),
                (Some(_), false) => runs.push(open.take().expect("open run")),
                (None, true) => open = Some((w as u32, c[w..w + WORD].to_vec())),
                (None, false) => {}
            }
        }
        if let Some(run) = open {
            runs.push(run);
        }
        let mut out = Diff::default();
        for (offset, data) in runs {
            out.push_run(offset, &data);
        }
        out
    }

    #[test]
    fn identical_pages_have_empty_diff() {
        let p = Page::zeroed();
        let d = compute_diff(&p, &p.twin());
        assert!(d.is_empty());
        assert_eq!(d.bytes(), 0);
    }

    #[test]
    fn adjacent_words_merge_into_one_run() {
        let twin = Page::zeroed();
        let mut cur = twin.twin();
        cur.write(0, &[1; 4]);
        cur.write(4, &[2; 4]);
        let d = compute_diff(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.bytes(), 8);
    }

    #[test]
    fn separated_words_make_separate_runs() {
        let twin = Page::zeroed();
        let mut cur = twin.twin();
        cur.write(0, &[1; 4]);
        cur.write(100, &[2; 4]);
        cur.write(4092, &[3; 4]);
        let d = compute_diff(&twin, &cur);
        assert_eq!(d.run_count(), 3);
        let offs: Vec<u32> = d.runs().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0, 100, 4092]);
    }

    #[test]
    fn sub_word_write_diffs_whole_word() {
        let twin = Page::zeroed();
        let mut cur = twin.twin();
        cur.write(9, &[7]); // one byte inside word 2
        let d = compute_diff(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        let (off, data) = d.runs().next().unwrap();
        assert_eq!(off, 8);
        assert_eq!(data.len(), 4);
        assert_eq!(d.bytes(), 4);
    }

    #[test]
    fn apply_reconstructs_page() {
        let mut twin = Page::zeroed();
        twin.write(0, &[5; 64]);
        let mut cur = twin.twin();
        cur.write(10, &[1, 2, 3]);
        cur.write(2000, &[4; 100]);
        let d = compute_diff(&twin, &cur);
        let mut home = twin.clone();
        d.apply(&mut home);
        assert_eq!(home, cur);
    }

    #[test]
    fn changes_straddling_block_boundaries_merge() {
        // A run crossing a 32-byte block boundary must stay one run.
        let twin = Page::zeroed();
        let mut cur = twin.twin();
        cur.write(28, &[9; 8]); // words at 28 and 32: adjacent blocks
        let d = compute_diff(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs().next().unwrap(), (28, &[9u8; 8][..]));
        assert_eq!(d, compute_diff_reference(&twin, &cur));
    }

    #[test]
    fn tracked_skips_clean_page_and_matches_full_scan() {
        let twin = Page::zeroed();
        let mut cur = twin.twin();
        let mut dirty = DirtyRanges::new();
        assert!(compute_diff_tracked(&twin, &cur, &dirty).is_empty());
        cur.write(40, &[1; 12]);
        dirty.add(40, 12);
        let tracked = compute_diff_tracked(&twin, &cur, &dirty);
        assert_eq!(tracked, compute_diff(&twin, &cur));
    }

    #[test]
    fn tracked_drops_value_identical_writes() {
        // A write that stores the bytes already there is tracked as
        // dirty but produces no run — exactly like the full scan.
        let mut twin = Page::zeroed();
        twin.write(100, &[3; 8]);
        let cur = twin.twin();
        let mut dirty = DirtyRanges::new();
        dirty.add(100, 8);
        assert!(compute_diff_tracked(&twin, &cur, &dirty).is_empty());
    }

    #[test]
    fn scratch_reuses_buffers_and_take_moves_out() {
        let twin = Page::zeroed();
        let mut cur = twin.twin();
        cur.write(0, &[1; 4]);
        let mut scratch = DiffScratch::new();
        assert_eq!(scratch.compute(&twin, &cur).run_count(), 1);
        cur.write(2048, &[2; 4]);
        let d = scratch.compute(&twin, &cur);
        assert_eq!(d.run_count(), 2);
        let owned = scratch.take();
        assert_eq!(owned.run_count(), 2);
        assert!(scratch.compute(&twin, &twin.twin()).is_empty());
    }

    /// A twin of seeded words and the page a writer made of it, with
    /// the ranges it recorded: every `stride`-th word replaced, or
    /// else `runs` one- or two-word runs spread evenly over the page,
    /// at least one clean word apart so the run count is exact.
    fn shaped(seed: u64, stride: Option<usize>, runs: usize) -> (Page, Page, DirtyRanges) {
        let mut rng = genima_sim::SplitMix64::new(seed);
        let mut twin = Page::zeroed();
        for w in (0..PAGE_SIZE).step_by(8) {
            twin.write(w, &rng.next_u64().to_le_bytes());
        }
        let mut cur = twin.twin();
        let mut dirty = DirtyRanges::new();
        match stride {
            Some(stride) => {
                for off in (0..PAGE_SIZE).step_by(stride * WORD) {
                    let b = (rng.next_u64() as u32).to_le_bytes();
                    // A difference whatever the generator drew.
                    let new = if b == cur.read(off, WORD) {
                        [!b[0], b[1], b[2], b[3]]
                    } else {
                        b
                    };
                    cur.write(off, &new);
                    dirty.add(off as u32, WORD as u32);
                }
            }
            None => {
                let spacing = PAGE_SIZE / WORD / runs.max(1);
                for r in 0..runs {
                    let off = r * spacing * WORD;
                    let len = WORD * (1 + (rng.next_u64() as usize % 2.min(spacing - 1).max(1)));
                    for i in 0..len {
                        let old = cur.read(off + i, 1)[0];
                        cur.write(off + i, &[old ^ 0x5a]);
                    }
                    dirty.add(off as u32, len as u32);
                }
            }
        }
        (twin, cur, dirty)
    }

    /// The shapes the proptests' short write lists do not reach: a
    /// page with no write, up to one with every other word written
    /// (512 runs) and one written whole.
    #[test]
    fn every_scan_matches_the_reference_from_a_clean_page_to_a_full_one() {
        // (shape, seed, word stride, runs) -> (runs, bytes) of its diff.
        let shapes = [
            ("clean", 1999, None, 0, (0, 0)),
            ("sparse", 1999 ^ 1, None, 8, (8, 48)),
            ("medium", 1999 ^ 2, None, 64, (64, 376)),
            ("dense", 1999 ^ 3, Some(2), 0, (512, 2048)),
            ("full", 1999 ^ 4, Some(1), 0, (1, 4096)),
        ];
        let mut scratch = DiffScratch::new();
        for (shape, seed, stride, runs, want) in shapes {
            let (twin, cur, dirty) = shaped(seed, stride, runs);
            let reference = compute_diff_reference(&twin, &cur);
            assert_eq!((reference.run_count(), reference.bytes()), want, "{shape}");
            assert_eq!(scratch.compute(&twin, &cur), &reference, "{shape}: block");
            let tracked = compute_diff_tracked(&twin, &cur, &dirty);
            assert_eq!(tracked, reference, "{shape}: tracked");
            let tracked = scratch.compute_tracked(&twin, &cur, &dirty);
            assert_eq!(tracked, &reference, "{shape}: tracked, in the arena");
        }
        // The clean page records no range, and its diff is empty.
        let (twin, cur, dirty) = shaped(1999, None, 0);
        assert!(dirty.is_empty());
        assert!(compute_diff_tracked(&twin, &cur, &dirty).is_empty());
    }

    /// Applies a write list to a copy of `base`, returning the result.
    fn write_all(base: &Page, writes: &[(usize, Vec<u8>)]) -> Page {
        let mut cur = base.twin();
        for (off, data) in writes {
            let len = data.len().min(PAGE_SIZE - off);
            cur.write(*off, &data[..len]);
        }
        cur
    }

    fn arb_writes(max_len: usize, count: usize) -> impl Strategy<Value = Vec<(usize, Vec<u8>)>> {
        proptest::collection::vec(
            (
                0usize..PAGE_SIZE,
                proptest::collection::vec(any::<u8>(), 1..max_len),
            ),
            0..count,
        )
    }

    proptest! {
        /// The fundamental diff invariant: applying diff(twin, cur) to
        /// a copy of the twin reproduces cur exactly.
        #[test]
        fn prop_diff_apply_round_trips(writes in arb_writes(64, 20)) {
            let twin = Page::zeroed();
            let cur = write_all(&twin, &writes);
            let d = compute_diff(&twin, &cur);
            let mut rebuilt = twin.clone();
            d.apply(&mut rebuilt);
            prop_assert_eq!(rebuilt, cur);
        }

        /// Runs are disjoint, word-aligned, ascending, and non-empty.
        #[test]
        fn prop_runs_are_canonical(writes in arb_writes(32, 16)) {
            let twin = Page::zeroed();
            let cur = write_all(&twin, &writes);
            let d = compute_diff(&twin, &cur);
            let mut prev_end = 0u32;
            for (i, (offset, data)) in d.runs().enumerate() {
                prop_assert!(!data.is_empty());
                prop_assert_eq!(offset as usize % WORD, 0);
                prop_assert_eq!(data.len() % WORD, 0);
                if i > 0 {
                    // A gap of at least one unmodified word separates runs.
                    prop_assert!(offset >= prev_end + WORD as u32);
                }
                prev_end = offset + data.len() as u32;
            }
        }

        /// The block scan is bit-identical to the reference word scan
        /// on arbitrary twins and write patterns, including sub-word
        /// writes and runs touching both page boundaries.
        #[test]
        fn prop_block_scan_matches_reference(
            base in arb_writes(48, 12),
            writes in arb_writes(48, 24),
            first in proptest::collection::vec(any::<u8>(), 0..8),
            last in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let twin = write_all(&Page::zeroed(), &base);
            let mut all = writes;
            if !first.is_empty() {
                all.push((0, first)); // run starting at the page boundary
            }
            if !last.is_empty() {
                all.push((PAGE_SIZE - last.len(), last)); // run ending the page
            }
            let cur = write_all(&twin, &all);
            let fast = compute_diff(&twin, &cur);
            let reference = compute_diff_reference(&twin, &cur);
            prop_assert_eq!(&fast, &reference);
            let mut scratch = DiffScratch::new();
            prop_assert_eq!(scratch.compute(&twin, &cur), &reference);
        }

        /// The tracked scan equals the full scan whenever the dirty
        /// ranges cover every write (the single-writer case the
        /// protocol guarantees), for arbitrary sequences of sub-word
        /// and multi-word writes.
        #[test]
        fn prop_tracked_matches_full_scan(
            base in arb_writes(48, 12),
            writes in arb_writes(48, 24),
        ) {
            let twin = write_all(&Page::zeroed(), &base);
            let mut cur = twin.twin();
            let mut dirty = DirtyRanges::new();
            for (off, data) in &writes {
                let len = data.len().min(PAGE_SIZE - off);
                cur.write(*off, &data[..len]);
                dirty.add(*off as u32, len as u32);
            }
            let tracked = compute_diff_tracked(&twin, &cur, &dirty);
            let full = compute_diff(&twin, &cur);
            prop_assert_eq!(&tracked, &full);
            let mut scratch = DiffScratch::new();
            prop_assert_eq!(scratch.compute_tracked(&twin, &cur, &dirty), &full);
        }
    }
}
