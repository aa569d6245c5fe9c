//! Capture Perfetto/Chrome-trace timelines of one application under
//! two protocol columns and compare where the time goes.
//!
//! ```sh
//! cargo run --release --example trace_timeline [app-name] [out-dir]
//! ```
//!
//! Writes `trace_<app>_dw_rf_dd.json` and `trace_<app>_genima.json`
//! (default: current directory; the repository's `.gitignore` covers
//! them at its root), each a Chrome `trace_event` array you
//! can open at <https://ui.perfetto.dev> or `chrome://tracing`. Every
//! node gets a process with two tracks — `host` and `ni-firmware` —
//! and lock handoffs / direct diff deposits are drawn as flow arrows
//! between them.
//!
//! The run prints a top-N span summary per column (the same
//! aggregation as `xtask obs-summary <trace.json>`) and demonstrates
//! the paper's central claim on the timeline itself: the GeNIMA track
//! contains **zero** host interrupt spans, because every remote
//! request is serviced by the NI firmware.

use genima::{
    run_app_configured, timeline_json, validate_trace, FeatureSet, Json, ObsConfig, RunConfig,
    Topology,
};
use genima_apps::app_by_name;
use genima_obs::{count_named, trace_top};

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

    for (tag, features) in [
        ("dw_rf_dd", FeatureSet::dw_rf_dd()),
        ("genima", FeatureSet::genima()),
    ] {
        let cfg = RunConfig::new(topo, features).with_obs(ObsConfig::on());
        let out = run_app_configured(app.as_ref(), &cfg).unwrap_or_else(|e| {
            eprintln!("{} run failed: {e}", features.name());
            std::process::exit(1)
        });
        let trace = timeline_json(&out.obs.spans);
        let stats = validate_trace(&trace).unwrap_or_else(|e| {
            eprintln!("{} trace invalid: {e}", features.name());
            std::process::exit(1)
        });
        let path = format!("{out_dir}/trace_{slug}_{tag}.json");
        if let Err(e) = std::fs::write(&path, &trace) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        }
        let interrupts = count_named(&trace, "interrupt");
        println!(
            "== {} ({}): {} events ({} spans, {} instants, {} flow endpoints), \
             {} host interrupt spans -> {path}",
            features.name(),
            app.name(),
            stats.events,
            stats.complete,
            stats.instants,
            stats.flows,
            interrupts,
        );
        if out.obs.dropped > 0 {
            println!(
                "   (ring overflow: {} oldest spans evicted; raise ObsConfig::with_capacity)",
                out.obs.dropped
            );
        }
        let parsed = Json::parse(&trace).expect("just validated");
        match trace_top(&parsed, 8) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("summary failed: {e}");
                std::process::exit(1)
            }
        }
        if features.interrupt_free() {
            assert_eq!(
                interrupts, 0,
                "GeNIMA timeline must contain zero host interrupt spans"
            );
            println!(
                "GeNIMA's host tracks show no interrupt spans: request service lives \
                 entirely on the ni-firmware tracks.\n"
            );
        }
    }
    println!("open the trace files at https://ui.perfetto.dev");
}
