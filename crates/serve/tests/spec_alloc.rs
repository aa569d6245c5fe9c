//! The serving apps' streams cost memory in processes and keys, never
//! in requests (DESIGN.md §12). A spec holds each process's request
//! source, not its requests: `spec()` allocates the same calls and
//! bytes whatever load it offers, and draining a source allocates
//! nothing. A count, not a time: the same on every machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use genima_apps::App;
use genima_proto::Topology;
use genima_serve::{GraphWalk, KvServe};
use genima_sim::Dur;

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

/// The two serving apps, offering `requests` over 100 ms.
fn apps(requests: u64) -> [Box<dyn App>; 2] {
    let horizon = Dur::from_ms(100);
    [
        Box::new(KvServe::new(4096, 0.99, 90, requests, horizon)),
        Box::new(GraphWalk::new(8192, 6, 0.99, requests, horizon)),
    ]
}

/// What `app.spec()` allocates on 4x1, and what draining every source
/// it returns allocates.
fn spec_and_drain(app: &dyn App) -> [(u64, u64); 2] {
    let before = counts();
    let spec = app.spec(Topology::new(4, 1));
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
fn a_spec_allocates_the_same_at_any_offered_load_and_a_drain_nothing() {
    for (small, large) in apps(2_000).iter().zip(apps(200_000).iter()) {
        let name = small.name();
        let [small_spec, small_drain] = spec_and_drain(small.as_ref());
        let [large_spec, large_drain] = spec_and_drain(large.as_ref());
        assert_eq!(
            small_spec, large_spec,
            "{name}: spec() allocated (calls, bytes) {small_spec:?} at 2 000 requests \
             and {large_spec:?} at 200 000 — something stores requests again"
        );
        for drain in [small_drain, large_drain] {
            assert_eq!(
                drain,
                (0, 0),
                "{name}: drawing requests allocated (calls, bytes)"
            );
        }
    }
}
