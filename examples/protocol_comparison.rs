//! Protocol comparison: sweep all five protocol variants (Figure 2's
//! columns) over a chosen application and print speedups plus the
//! mechanism-by-mechanism deltas.
//!
//! ```sh
//! cargo run --release --example protocol_comparison [app-name]
//! ```
//!
//! `app-name` is any Table 1 name (default: Water-nsquared, the
//! application whose behaviour motivates each mechanism).

use genima::{run_app, sequential_time, FeatureSet, Grid, Topology};
use genima_apps::app_by_name;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "water-nsquared".to_string());
    let app = app_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown application {name:?}; try e.g. FFT, Radix-local, Barnes-spatial");
        std::process::exit(2)
    });
    let topo = Topology::new(4, 4);
    let seq = sequential_time(app.as_ref());

    println!(
        "{} on {}x{} — sequential {seq}\n",
        app.name(),
        topo.nodes,
        topo.procs_per_node
    );
    let mut table = Grid::new(vec![
        "Protocol",
        "Speedup",
        "Interrupts",
        "Lock wait",
        "Data wait",
        "Notices",
        "Diff msgs",
    ]);
    let mut prev: Option<f64> = None;
    for f in FeatureSet::ALL {
        let out = run_app(app.as_ref(), topo, f);
        let su = out.report.speedup(seq);
        let b = out.report.mean_breakdown();
        let c = out.report.counters;
        let delta = prev.map_or(String::new(), |p| {
            format!(" ({:+.1}%)", (su / p - 1.0) * 100.0)
        });
        table.row(vec![
            f.name().to_string(),
            format!("{su:.2}{delta}"),
            c.interrupts.to_string(),
            format!("{}", b.lock),
            format!("{}", b.data),
            c.notice_messages.to_string(),
            (c.diffs + c.diff_run_messages).to_string(),
        ]);
        prev = Some(su);
    }
    println!("{}", table.render());
    println!(
        "Each row adds one NI mechanism: DW = eager write notices via remote deposit,\n\
         RF = remote fetch of pages+timestamps, DD = direct diffs (one deposit per\n\
         modified run), NIL = locks in NI firmware. GeNIMA = all four: zero interrupts."
    );
}
