//! Critical-path attribution for one application under three columns:
//! where does an operation's latency actually go, and what does the
//! paper's thesis look like on the critical path itself?
//!
//! ```sh
//! cargo run --release --example critical_path [app-name] [out-dir]
//! ```
//!
//! Runs Base, GeNIMA (1999 LANai) and GeNIMA-2025 (modern RNIC) with
//! full tracing, reassembles per-operation causal DAGs, and prints the
//! per-segment breakdown (interrupt / firmware / wire / host handler /
//! queue+retry) plus per-op-class p50/p95/p99 latencies. Also writes
//! `critpath_<app>_<column>.folded` files you can feed straight to
//! `inferno-flamegraph` or `flamegraph.pl`.
//!
//! On Base the interrupt segment is nonzero — asynchronous protocol
//! processing sits on the critical path. On both GeNIMA columns it is
//! exactly zero: the NI firmware serves remote requests, and the hosts
//! are never interrupted.

use genima::{run_app_configured, Column, FeatureSet, ObsConfig, RunConfig, Topology};
use genima_apps::app_by_name;
use genima_obs::Grid;
use genima_prof::{folded_stacks, profile, Segment};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "lu-contiguous".to_string());
    let out_dir = args.next().unwrap_or_else(|| ".".to_string());
    let app = app_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown application {name:?}");
        std::process::exit(2)
    });
    let topo = Topology::new(4, 4);
    let slug = app.name().to_lowercase().replace('-', "_");

    let columns = [
        Column::lanai(FeatureSet::base()),
        Column::lanai(FeatureSet::genima()),
        Column::genima_2025(),
    ];
    let mut grid = Grid::new(vec![
        "column",
        "ops",
        "interrupt(us)",
        "firmware(us)",
        "wire(us)",
        "host(us)",
        "queue(us)",
    ]);
    for column in columns {
        let cfg = RunConfig::new(topo, column).with_obs(ObsConfig::with_capacity(1 << 20));
        let out = run_app_configured(app.as_ref(), &cfg).unwrap_or_else(|e| {
            eprintln!("{} run failed: {e}", column.name());
            std::process::exit(1)
        });
        let prof = profile(&out.obs);
        let audited = prof.audited_ops().unwrap_or_else(|trunc| {
            eprintln!("{}: {trunc}", column.name());
            std::process::exit(1)
        });
        // The sweep's invariant, checked on every op of every run.
        for op in audited {
            assert_eq!(
                op.breakdown.total(),
                op.latency,
                "attribution must sum to the op's measured latency"
            );
        }
        let total = prof.total_breakdown();
        grid.row(vec![
            column.name().to_string(),
            audited.len().to_string(),
            format!("{:.1}", total.interrupt.as_us()),
            format!("{:.1}", total.firmware.as_us()),
            format!("{:.1}", total.wire.as_us()),
            format!("{:.1}", total.host_handler.as_us()),
            format!("{:.1}", total.queue_retry.as_us()),
        ]);
        println!("== {} on {}", app.name(), column.name());
        for (class, summary) in prof.by_class() {
            println!(
                "   {:<8} n={:<5} p50={}ns p95={}ns p99={}ns",
                class.name(),
                summary.count,
                summary.hist.p50().as_ns(),
                summary.hist.p95().as_ns(),
                summary.hist.p99().as_ns(),
            );
        }
        if column.features.interrupt_free() {
            assert_eq!(
                total.get(Segment::Interrupt).as_ns(),
                0,
                "GeNIMA critical paths must contain zero interrupt time"
            );
        }
        let folded = folded_stacks(&prof);
        let path = format!(
            "{out_dir}/critpath_{slug}_{}.folded",
            column.name().to_lowercase().replace(['+', '-'], "_")
        );
        if let Err(e) = std::fs::write(&path, folded) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        }
        println!("   folded stacks -> {path}\n");
    }
    println!("{}", grid.render());
    println!(
        "Base pays for asynchronous protocol processing in interrupt time; \
         the GeNIMA columns spend none — the NI firmware serves every request."
    );
}
