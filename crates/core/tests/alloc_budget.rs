//! Allocation budget of the protocol hot path (ROADMAP item 1c).
//!
//! Version timestamps are allocation-free (DESIGN.md §4), and neither
//! the first dirty run of a page nor the initiator of an in-flight
//! fetch is on the heap (DESIGN.md §6, §4). This test keeps that
//! from rotting silently: it counts heap allocations inside `try_run`
//! on a lock-dominated and a diff-dominated workload, on all six
//! columns, and fails when allocations per delivered event exceed the
//! measured value by more than a quarter. A count, not a time: the
//! same on every machine. The six Water runs read 0.73–1.22 before
//! PR 13 and 0.19–0.45 after it, the six Ocean runs 2.57–2.97 and
//! 1.00–1.18: every one of those is over the budget below.
//!
//! PR 17 holds the bytes those calls request to the same slack. Counts
//! were spent by then; bytes were not — three quarters of what an LU
//! run allocated was hash-map regrowth of per-page state, which the
//! page columns (DESIGN.md §4) allocate once and exactly. Bytes
//! repeat exactly too.
//!
//! PR 18 added the serving rows. Water and Ocean close a few hundred
//! intervals and send a few thousand grants; a key-value store closes
//! an interval per write and sends a grant per operation, which is
//! where the interval log and the recycled piggyback vector
//! (DESIGN.md §4) are felt — on Base and GeNIMA, the two columns that
//! differ there. Before it the two read 0.156 / 0.076 allocations and
//! 30.4 / 30.4 bytes per event, and the pooled wheel buffers took
//! every batch row down with them (Water 0.090–0.247 and 17–34 bytes,
//! Ocean 0.443–0.541 and 262–291): all fourteen over the budget below.
//!
//! PR 20 added the LU rows and re-measured the rest. A slot of the
//! `required` and `local_flushed` columns shrank from a 40-byte map to
//! the 8-byte pair it almost always holds, the in-flight column became
//! a list, and the versions a Base page request and reply carry are
//! recycled (DESIGN.md §4). Before it LU read 32.6 / 43.1 bytes per
//! event, Ocean 111.9–132.2, and Water on Base and DW 0.055 / 0.035
//! allocations: those ten are over the budget below.
//!
//! The LU row on GeNIMA-2025 bounds the list of in-place runs each
//! process keeps there (DESIGN.md §10.3); it is the budget as it read
//! before that list existed.
//!
//! The FFT rows on Base and GeNIMA moved here when the bench kind that
//! gated them, and also timed the host, was deleted (DESIGN.md §14).
//!
//! When a change moves a number on purpose, print the new table with
//! `BUDGET_PRINT=1 cargo test -p genima --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use genima::{Column, Dur, Topology};
use genima_apps::{App, Fft, LuContiguous, OceanRowwise, WaterNsquared};
use genima_serve::KvServe;

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

/// Headroom over the measured value before the test fails.
const SLACK: f64 = 1.25;

/// (app, column) -> allocations and requested bytes per delivered
/// event inside `try_run`, as measured at PR 20 (FFT: when it moved
/// here).
const MEASURED: &[(&str, &str, f64, f64)] = &[
    ("water-nsq", "Base", 0.014, 5.0),
    ("water-nsq", "DW", 0.009, 3.7),
    ("water-nsq", "DW+RF", 0.009, 3.7),
    ("water-nsq", "DW+RF+DD", 0.008, 3.5),
    ("water-nsq", "GeNIMA", 0.012, 4.6),
    ("water-nsq", "GeNIMA-2025", 0.012, 7.3),
    ("ocean", "Base", 0.109, 63.6),
    ("ocean", "DW", 0.098, 61.0),
    ("ocean", "DW+RF", 0.097, 61.2),
    ("ocean", "DW+RF+DD", 0.097, 61.2),
    ("ocean", "GeNIMA", 0.156, 73.8),
    ("ocean", "GeNIMA-2025", 0.161, 78.6),
    ("lu", "Base", 0.044, 17.2),
    ("lu", "GeNIMA", 0.086, 28.2),
    ("lu", "GeNIMA-2025", 0.083, 28.3),
    ("kv", "Base", 0.006, 2.8),
    ("kv", "GeNIMA", 0.008, 3.6),
    ("fft", "Base", 0.038, 47.5),
    ("fft", "GeNIMA", 0.032, 47.5),
];

/// One workload of the budget: an app, its cluster and its columns.
struct Workload {
    name: &'static str,
    app: Box<dyn App>,
    topo: Topology,
    columns: Vec<Column>,
}

/// The batch workloads run 4 nodes x 2 procs, Water and Ocean on every
/// column, LU (fetch-dominated: the columns are most of what it
/// allocates) on the two that differ most and on GeNIMA-2025, where it
/// writes the most in-place runs (DESIGN.md §10.3); the store serves 20 kops
/// for 100 ms on 4 x 1, the benchmark's shape; FFT (all-to-all
/// transposes) runs on the two ends.
fn workloads() -> Vec<Workload> {
    let batch = |name, app| Workload {
        name,
        app,
        topo: Topology::new(4, 2),
        columns: Column::all().to_vec(),
    };
    let ends = ["Base", "GeNIMA"].map(|c| Column::by_name(c).expect("a paper column"));
    vec![
        batch("water-nsq", Box::new(WaterNsquared::with_molecules(256, 2))),
        batch("ocean", Box::new(OceanRowwise::with_grid(256, 8))),
        Workload {
            columns: [&ends[..], &[Column::genima_2025()]].concat(),
            ..batch("lu", Box::new(LuContiguous::with_size(512, 32)))
        },
        Workload {
            name: "kv",
            app: Box::new(KvServe::new(4096, 0.99, 90, 2_000, Dur::from_ms(100))),
            topo: Topology::new(4, 1),
            columns: ends.to_vec(),
        },
        Workload {
            columns: ends.to_vec(),
            ..batch("fft", Box::new(Fft::with_points(1 << 16)))
        },
    ]
}

// The only test in this binary: the counter is process-wide, and a
// second test running beside this one would be counted into it.
#[test]
fn allocations_per_event_stay_within_the_measured_budget() {
    let mut got = Vec::new();
    for w in workloads() {
        for column in &w.columns {
            let mut sys = w.app.spec(w.topo).into_system(column.params(w.topo));
            let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
            let report = sys.run();
            let allocs = (CALLS.load(Relaxed) - before.0) as f64;
            let bytes = (BYTES.load(Relaxed) - before.1) as f64;
            let events = report.events as f64;
            got.push((w.name, column.name(), allocs / events, bytes / events));
        }
    }
    if std::env::var("BUDGET_PRINT").is_ok() {
        for (app, col, allocs, bytes) in &got {
            println!("    (\"{app}\", \"{col}\", {allocs:.3}, {bytes:.1}),");
        }
        return;
    }
    assert_eq!(got.len(), MEASURED.len(), "budget table out of date");
    for (&(app, col, allocs, bytes), &(ma, mc, m_allocs, m_bytes)) in got.iter().zip(MEASURED) {
        assert_eq!((app, col), (ma, mc), "budget table order drifted");
        assert!(
            allocs <= m_allocs * SLACK,
            "{app} on {col}: {allocs:.3} allocations per event, budget \
             {m_allocs:.3} x {SLACK} — find the new allocation site (DESIGN.md §4, §6) \
             or, if it is wanted, re-measure the table"
        );
        assert!(
            bytes <= m_bytes * SLACK,
            "{app} on {col}: {bytes:.1} bytes allocated per event, budget \
             {m_bytes:.1} x {SLACK} — find what grows (DESIGN.md §4) or, if it is \
             wanted, re-measure the table"
        );
    }
}
