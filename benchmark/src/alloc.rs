//! A counting global allocator: calls, bytes requested and live bytes.
//!
//! `heap_allocs`, `heap_alloc_mb` and `peak_heap_mb` are read from here, as `sim_bench`
//! reads its allocation rate. The benchmark is single-threaded, so the
//! counters are plain relaxed statistics that publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    REQUESTED.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer, so `System`'s contract is the caller's contract;
// the counters never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        grow(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grow(new_size);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `alloc` + `realloc` calls so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes those calls asked for so far.
pub fn requested_bytes() -> u64 {
    REQUESTED.load(Relaxed)
}

/// Restarts the high-water mark at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// High-water mark of live bytes since [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
