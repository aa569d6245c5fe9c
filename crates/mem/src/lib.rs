//! Node memory system for the SVM protocols.
//!
//! Provides the mechanisms the paper's protocols are built from:
//!
//! * 4 KB shared **pages** with real byte contents ([`Page`]),
//! * **twinning and diffing** ([`Diff`]) — the classic multiple-writer
//!   solution: before the first write in an interval the page is
//!   copied (the *twin*); at a release the page is compared with its
//!   twin — in 32-byte blocks with word refinement, or only over
//!   the tracked dirty ranges — and each contiguous run of modified
//!   words is propagated to the home copy,
//! * **pooled page buffers** ([`PagePool`]) — a free list of 4 KB
//!   buffers so twinning, diff application, and page-fetch replies
//!   recycle a fixed working set instead of allocating per operation,
//! * **dirty-range tracking** ([`DirtyRanges`]) — the synthetic-data
//!   path used by the large workload generators, which records which
//!   byte ranges an interval modified without materialising page
//!   contents (the run structure is what determines direct-diff
//!   message counts),
//! * **page columns** ([`PageVec`]) — per-page state stored dense,
//!   indexed by page id, the one container keyed by a page,
//! * a per-process **page protection state machine** ([`PageTable`],
//!   [`Access`]) standing in for `mprotect`/SIGSEGV,
//! * the **mprotect cost model** ([`MprotectModel`]) with the paper's
//!   coalescing optimisation (§3.1), and
//! * the **SMP memory-bus contention model** ([`BusModel`]) that
//!   reproduces the compute-time dilation the paper observes for FFT
//!   and Ocean (§3.4, "Memory bus contention and cache effects").

mod addr;
mod bus;
mod config;
mod diff;
mod dirty;
mod mprotect;
mod pool;
mod protect;

pub use addr::{pages_in_range, Addr, PageId, PageVec, PAGE_SIZE};
pub use bus::BusModel;
pub use config::MemConfig;
pub use diff::{compute_diff, compute_diff_tracked, Diff, DiffScratch, Page, WORD};
pub use dirty::DirtyRanges;
pub use mprotect::MprotectModel;
pub use pool::{PagePool, PoolStats};
pub use protect::{Access, PageTable};
