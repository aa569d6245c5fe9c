//! Water-nsquared's streams cost memory in processes, never in
//! operations (DESIGN.md §12). A spec holds each process's op source,
//! not its ops: `spec()` allocates the same calls and bytes whatever
//! the molecule and step counts, and draining a source allocates
//! nothing, so the generation that runs inside the simulation adds no
//! allocation there. A count, not a time: the same on every machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use genima_apps::{App, WaterNsquared};
use genima_proto::Topology;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer, so `System`'s contract is the caller's contract;
// the counter never touches the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and bytes so far.
fn counts() -> (u64, u64) {
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

/// Allocation calls and bytes since `before`.
fn since(before: (u64, u64)) -> (u64, u64) {
    let now = counts();
    (now.0 - before.0, now.1 - before.1)
}

/// What `app.spec()` allocates on 8x4, and what draining every source
/// it returns allocates.
fn spec_and_drain(app: &dyn App) -> [(u64, u64); 2] {
    let before = counts();
    let spec = app.spec(Topology::new(8, 4));
    let built = since(before);
    let mut sources = spec.sources;
    let before = counts();
    let mut drained = 0u64;
    for src in &mut sources {
        while src.next_op().is_some() {
            drained += 1;
        }
    }
    let drain = since(before);
    assert!(drained > 0, "{}: the sources yielded nothing", app.name());
    [built, drain]
}

// The only test in this binary: the counter is process-wide, and a
// second test running beside this one would be counted into it.
#[test]
fn a_spec_allocates_the_same_at_any_size_and_a_drain_nothing() {
    let [base, base_drain] = spec_and_drain(&WaterNsquared::with_molecules(512, 1));
    assert_eq!(
        base_drain,
        (0, 0),
        "512 molecules, 1 step: drawing ops allocated (calls, bytes)"
    );
    for (molecules, steps) in [(512, 4), (2048, 1), (2048, 4)] {
        let [spec, drain] = spec_and_drain(&WaterNsquared::with_molecules(molecules, steps));
        assert_eq!(
            spec, base,
            "{molecules} molecules, {steps} steps: spec() allocated (calls, bytes) {spec:?}, \
             {base:?} at 512 molecules and 1 step — something stores ops again"
        );
        assert_eq!(
            drain,
            (0, 0),
            "{molecules} molecules, {steps} steps: drawing ops allocated (calls, bytes)"
        );
    }
}
