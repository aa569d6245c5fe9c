//! `bench <kind>` — the paper's evaluation (`bench paper`) and the
//! experiments beyond it, each a sweep that prints its tables and
//! declares pass/fail gates over its own rows.
//!
//! ```text
//! bench <kind> [--seed N] [--json PATH] [APP...]
//! bench explain BEFORE.json AFTER.json [--only-column NAME] [--ignore FIELD]...
//! ```
//!
//! Every kind (one module each; its doc lists its gates) is a function
//! from [`Args`] to a [`BenchReport`]; argument parsing, the `--json`
//! file, gate checking and the exit code live here, once. The process
//! exits non-zero iff `BenchReport::check` — the same call
//! `xtask obs-schema` makes on the written file — rejects the report.
//! `APP...` narrows the application sweep of `paper`, `rdma` and
//! `critpath`; `--seed` is the [`RunSeed`] every run of the sweep uses
//! and the seed the report records.

mod barrier;
mod critpath;
mod diff;
mod engine;
mod explain;
mod fault_matrix;
mod mc;
mod paper;
mod rdma;
mod serving;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use genima::{run_app_configured, ConfiguredOutcome, Json, RunConfig, Topology};
use genima_apps::{all_apps, app_by_name, App};
use genima_obs::bench::{meta, row};
use genima_obs::BenchReport;
use genima_sim::RunSeed;

/// Counts every allocation (and reallocation) and the bytes each one
/// asks for, so the `engine` kind can gate both per event. Frees are
/// not interesting.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by this process so far.
fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes those allocations asked for.
fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// What every kind is given.
struct Args {
    seed: u64,
    json: Option<String>,
    apps: Vec<Box<dyn App>>,
}

type Kind = fn(&Args) -> BenchReport;

const KINDS: [(&str, Kind); 9] = [
    ("paper", paper::run),
    ("fault_matrix", fault_matrix::run),
    ("barrier", barrier::run),
    ("diff", diff::run),
    ("engine", engine::run),
    ("rdma", rdma::run),
    ("critpath", critpath::run),
    ("serving", serving::run),
    ("mc", mc::run),
];

fn usage() -> ! {
    let kinds: Vec<&str> = KINDS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: bench <kind> [--seed N] [--json PATH] [APP...]\nkinds: {}\n       \
         bench explain BEFORE.json AFTER.json [--only-column NAME] [--ignore FIELD]...",
        kinds.join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> (&'static str, Kind, Args) {
    let mut it = std::env::args().skip(1);
    let name = it.next().unwrap_or_else(|| usage());
    let Some(&(name, kind)) = KINDS.iter().find(|(k, _)| *k == name) else {
        eprintln!("unknown kind: {name}");
        usage()
    };
    let mut args = Args {
        seed: RunSeed::default().value(),
        json: None,
        apps: Vec::new(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.seed = v.parse().unwrap_or_else(|_e| usage());
            }
            "--json" => args.json = Some(it.next().unwrap_or_else(|| usage())),
            app => match app_by_name(app) {
                Some(app) => args.apps.push(app),
                None => {
                    eprintln!("unknown app: {app}");
                    usage()
                }
            },
        }
    }
    if args.apps.is_empty() {
        args.apps = all_apps();
    }
    (name, kind, args)
}

/// Runs one cell of a sweep. An aborted run is reported and counted in
/// `failed` instead of ending the process, so the rest of the table
/// still prints; [`gate_failed_runs`] turns the count into a gate.
fn run_cell(
    what: &str,
    app: &dyn App,
    cfg: &RunConfig,
    failed: &mut u64,
) -> Option<ConfiguredOutcome> {
    match run_app_configured(app, cfg) {
        Ok(out) => Some(out),
        Err(e) => {
            eprintln!("FAIL {what}: run aborted: {e}");
            *failed += 1;
            None
        }
    }
}

/// Records how many cells of the sweep produced no usable run and
/// gates the count at zero — a missing row must fail the report, not
/// silently shrink it.
fn gate_failed_runs(rep: &mut BenchReport, failed: u64) {
    rep.set_meta("failed_runs", failed);
    rep.gate("every run completed", meta("failed_runs"), "==", 0u64);
}

/// Records how many distinct evaluation columns have rows and gates
/// the count at all six.
fn gate_six_columns(rep: &mut BenchReport) {
    let columns: std::collections::BTreeSet<&str> = rep
        .rows()
        .iter()
        .filter_map(|r| r.get("column")?.as_str())
        .collect();
    let columns = columns.len() as u64;
    rep.set_meta("columns", columns);
    rep.gate("all six columns present", meta("columns"), "==", 6u64);
}

/// The paper's headline claim as a gate on row `i`: no host interrupts.
fn gate_interrupt_free(rep: &mut BenchReport, what: &str, i: usize, field: &str) {
    let name = format!("{what}: zero host interrupts");
    rep.gate(name, row(i, field), "==", 0u64);
}

fn topo_json(topo: Topology) -> Json {
    let mut t = Json::obj();
    t.set("nodes", Json::u64(topo.nodes as u64));
    t.set("procs_per_node", Json::u64(topo.procs_per_node as u64));
    t
}

/// Nanoseconds per call of `f`: the `iters` calls run as five chunks
/// (after a warmup chunk) and the fastest chunk's mean is reported,
/// which shrugs off frequency ramps and scheduler noise on shared CI
/// runners — so a ratio of two such timings is a property of the code,
/// not of the machine's worst moment. Results stay live via
/// `black_box`.
fn time_ns(iters: usize, mut f: impl FnMut() -> usize) -> f64 {
    const CHUNKS: usize = 5;
    let per_chunk = (iters / CHUNKS).max(1);
    for _ in 0..per_chunk {
        std::hint::black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..CHUNKS {
        let start = Instant::now();
        for _ in 0..per_chunk {
            std::hint::black_box(f());
        }
        let mean = start.elapsed().as_nanos() as f64 / per_chunk as f64;
        best = best.min(mean);
    }
    best
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("explain") {
        return explain::main(argv);
    }
    let (name, kind, args) = parse_args();
    let report = kind(&args);
    let json = report.to_json();
    if let Some(path) = &args.json {
        match std::fs::write(path, json.dump() + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match BenchReport::check(&json) {
        Ok(()) => {
            println!(
                "bench {name}: {} gates hold over {} rows",
                report.gates().len(),
                report.rows().len()
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("FAIL {e}");
            }
            eprintln!("bench {name}: {} failure(s)", errors.len());
            ExitCode::FAILURE
        }
    }
}
