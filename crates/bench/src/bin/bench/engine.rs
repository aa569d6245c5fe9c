//! `bench engine` — engine hot-path throughput: the timing-wheel
//! [`EventQueue`] versus the pre-pass `BinaryHeap` oracle, plus
//! whole-system events/sec and steady-state allocation rates.
//!
//! * **Calibration** (`hold-*` rows) — the classic hold model: a queue
//!   holds N pending events; every step pops the head and schedules a
//!   replacement at `now + U(1µs, 1ms)`, so the wheel pays its full
//!   slot-scan and lazy-sort cost while the heap pays its O(log N)
//!   sift at depth N. Both queues see the identical offset stream, and
//!   each is timed as the fastest of five chunks so the ratio does not
//!   depend on which queue a noisy neighbour happened to hit. Each
//!   population runs twice: on a `u64` payload (a 24-byte entry, the
//!   queue's own cost) and on a payload the size of the protocol's
//!   `SysEvent` (`/wide`, a 112-byte entry — what the system rows and
//!   every real run push, sort and pop).
//! * **System** (`sys-*` rows) — full protocol runs timed end to end:
//!   simulated events per wall-clock second, and heap allocations and
//!   requested bytes per event via the driver's counting global
//!   allocator.
//!
//! Gates: the wheel is at least 3× the heap on the largest `u64` hold
//! population, and on both payloads its steady-state allocation rate
//! stays at or below 0.1 allocations per event — the pooled slot
//! buffers must recycle their capacity, not reallocate per event. Each
//! system row's allocations per event (set-up included) stay within a
//! quarter of the value measured when the wheel began pooling its slot
//! buffers (DESIGN.md §26), and the bytes those allocations request
//! within a quarter of the value measured when a page-column slot
//! became 8 bytes (DESIGN.md §27) — counts, so the gates hold on any
//! machine.

use std::time::Instant;

use genima::{Column, RunConfig, Topology};
use genima_apps::{App, Fft, OceanRowwise};
use genima_obs::bench::row;
use genima_obs::{BenchReport, Json};
use genima_sim::{EventQueue, HeapQueue, SplitMix64, Time};

use crate::{alloc_bytes, allocs, gate_failed_runs, run_cell, time_ns, Args, View};

/// Timed hold-model steps per population.
const ITERS: usize = 200_000;

pub const VIEWS: &[View] = &[
    View {
        title: "hold model: the wheel against the heap",
        kind: Some("hold"),
        cols: &[
            ("hold", "name", 0),
            ("entry(B)", "entry_bytes", 0),
            ("heap(ns/ev)", "heap_ns_per_event", 1),
            ("wheel(ns/ev)", "wheel_ns_per_event", 1),
            ("speedup", "speedup", 2),
            ("allocs/ev", "wheel_allocs_per_event", 4),
        ],
    },
    View {
        title: "whole-system runs",
        kind: Some("system"),
        cols: &[
            ("system", "name", 0),
            ("events", "events", 0),
            ("events/sec", "events_per_sec", 0),
            ("allocs/ev", "allocs_per_event", 3),
            ("bytes/ev", "bytes_per_event", 1),
        ],
    },
];

/// Hold-model offset: uniform in [1µs, 1ms). The lower bound keeps the
/// replacement out of the slot currently draining (the wheel's slot
/// sort then amortises over a whole slot, as in a real run); the upper
/// bound spans the wheel's full epoch so far-tier traffic is exercised.
fn offset(rng: &mut SplitMix64) -> u64 {
    1_000 + rng.next_u64() % 999_000
}

/// What a system row may cost per delivered event: (allocations,
/// requested bytes).
type Ceilings = (f64, f64);

/// A payload the size of the protocol's `SysEvent`, which the system
/// rows queue: a 112-byte wheel entry against the `u64` payload's 24.
type Wide = [u64; 12];

/// Pre-fills a queue with `n` pending events from `rng`.
fn fill<E: Default>(push: &mut impl FnMut(Time, E), rng: &mut SplitMix64, n: usize) {
    for _ in 0..n {
        push(Time::from_ns(offset(rng)), E::default());
    }
}

/// Runs the hold model on `q` through its `pop` and `push`: warms up
/// over roughly one epoch, then returns (ns per event as the fastest
/// of five chunks, allocations per event over that timed window). The
/// replacement offset is derived from the popped instant, so both
/// queue implementations (which pop identical instants) schedule the
/// identical event stream.
fn hold<Q, E: Default>(
    n: usize,
    q: &mut Q,
    pop: fn(&mut Q) -> Option<(Time, E)>,
    push: fn(&mut Q, Time, E),
) -> (f64, f64) {
    let mut step = || {
        let now = pop(q).expect("hold model never drains").0.as_ns();
        let off = now % 999_000 + 1_000;
        push(q, Time::from_ns(now + off), E::default());
        off as usize
    };
    for _ in 0..n.min(ITERS) {
        step();
    }
    let before = allocs();
    let ns = time_ns(ITERS, step);
    // `time_ns` makes a warmup chunk plus five timed chunks of calls.
    (ns, (allocs() - before) as f64 / (ITERS / 5 * 6) as f64)
}

/// The hold model at population `n` with payload `E`, recorded as row
/// `name`; returns the row index. Identical initial fill and identical
/// pop-driven offset stream on both queues, so both do the same
/// scheduling work. The wheel's allocation rate covers only
/// post-warmup steps: slot capacities established during the fill
/// must be recycled, not regrown.
fn hold_row<E: Default>(rep: &mut BenchReport, name: &str, seed: u64, n: usize) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut heap: HeapQueue<E> = HeapQueue::new();
    fill(&mut |t, e| heap.push(t, e), &mut rng, n);
    let (heap_ns, _) = hold(n, &mut heap, HeapQueue::pop, HeapQueue::push);

    let mut rng = SplitMix64::new(seed);
    let mut wheel: EventQueue<E> = EventQueue::new();
    fill(&mut |t, e| wheel.push(t, e), &mut rng, n);
    let (wheel_ns, wheel_allocs) = hold(n, &mut wheel, EventQueue::pop, EventQueue::push);

    let mut cell = Json::obj();
    cell.set("kind", "hold".into());
    cell.set("name", name.into());
    cell.set("pending", (n as u64).into());
    cell.set("entry_bytes", (EventQueue::<E>::ENTRY_BYTES as u64).into());
    cell.set("heap_ns_per_event", heap_ns.into());
    cell.set("wheel_ns_per_event", wheel_ns.into());
    cell.set("speedup", (heap_ns / wheel_ns).into());
    cell.set("wheel_allocs_per_event", wheel_allocs.into());
    rep.push(cell)
}

pub fn run(args: &Args) -> BenchReport {
    let mut rep = BenchReport::new("engine", args.seed);
    rep.set_meta("iters", ITERS as u64);

    for pow in [10u32, 14, 17] {
        let n = 1usize << pow;
        let seed = args.seed ^ pow as u64;
        // The `u64` rows calibrate the wheel against the heap; the
        // wide rows price the entry the simulator actually queues.
        let name = format!("hold-2^{pow}");
        let narrow = hold_row::<u64>(&mut rep, &name, seed, n);
        let wide = hold_row::<Wide>(&mut rep, &(name + "/wide"), seed, n);
        if pow == 17 {
            let name = "hold-2^17: wheel >= 3x the heap";
            rep.gate(name, row(narrow, "speedup"), ">=", 3.0);
            for (i, which) in [(narrow, "hold-2^17"), (wide, "hold-2^17/wide")] {
                let name = format!("{which}: <= 0.1 allocations per event in steady state");
                rep.gate(name, row(i, "wheel_allocs_per_event"), "<=", 0.1);
            }
        }
    }

    // Per app: the (allocations, requested bytes) per-event ceilings of
    // its Base and GeNIMA rows. Allocations: 1.25 x the 0.166 / 0.207 /
    // 0.066 / 0.086 measured at PR 18 (0.60 / 0.59 / 0.27 / 0.28 at
    // PR 17, 1.23 / 1.15 / 0.62 / 0.63 at PR 13, 3.03 / 2.83 / 2.05 /
    // 2.05 before it). These runs deliver 2.4-5.7 k events, so until
    // the wheel pooled its buffers most of each figure was slots
    // warming up (DESIGN.md §26). Bytes: 1.25 x the 115.1 / 120.8 /
    // 65.9 / 72.4 measured at PR 20 (173.0 / 173.6 / 114.3 / 120.2
    // before its 8-byte version slots, DESIGN.md §27).
    let apps: Vec<(&str, Box<dyn App>, [Ceilings; 2])> = vec![
        (
            "ocean",
            Box::new(OceanRowwise::with_grid(256, 8)),
            [(0.208, 143.9), (0.259, 151.0)],
        ),
        (
            "fft",
            Box::new(Fft::with_points(1 << 16)),
            [(0.083, 82.4), (0.108, 90.5)],
        ),
    ];
    let mut failed = 0u64;
    for (name, app, ceilings) in &apps {
        for (column, (ceiling, byte_ceiling)) in [Column::all()[0], Column::all()[4]]
            .into_iter()
            .zip(ceilings)
        {
            let label = format!("{name}/{}", column.name());
            let cfg = RunConfig::new(Topology::new(4, 2), column).with_seed(args.seed);
            let before = (allocs(), alloc_bytes());
            let start = Instant::now();
            let Some(out) = run_cell(&label, app.as_ref(), &cfg, &mut failed) else {
                continue;
            };
            let wall = start.elapsed().as_nanos() as f64;
            let events = out.report.events;
            let events_per_sec = events as f64 / (wall / 1e9);
            let allocs_per_event = (allocs() - before.0) as f64 / events.max(1) as f64;
            let bytes_per_event = (alloc_bytes() - before.1) as f64 / events.max(1) as f64;
            let mut cell = Json::obj();
            cell.set("kind", "system".into());
            cell.set("name", label.as_str().into());
            cell.set("events", events.into());
            cell.set("events_per_sec", events_per_sec.into());
            cell.set("allocs_per_event", allocs_per_event.into());
            cell.set("bytes_per_event", bytes_per_event.into());
            let i = rep.push(cell);
            let name = format!("{label}: the run delivered events");
            rep.gate(name, row(i, "events"), ">", 0u64);
            let name = format!("{label}: allocations per event within the measured budget");
            rep.gate(name, row(i, "allocs_per_event"), "<=", *ceiling);
            let name = format!("{label}: bytes allocated per event within the measured budget");
            rep.gate(name, row(i, "bytes_per_event"), "<=", *byte_ceiling);
        }
    }
    gate_failed_runs(&mut rep, failed);
    rep
}
