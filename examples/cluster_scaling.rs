//! Cluster scaling: how topology shapes SVM performance.
//!
//! Runs one application over several cluster shapes with the same total
//! processor count (SMP clustering trades bus contention for network
//! traffic — the two-level hierarchy of HLRC-SMP), then scales the
//! processor count, reproducing the flavour of the paper's Table 5.
//!
//! ```sh
//! cargo run --release --example cluster_scaling [app-name]
//! ```

use genima::{run_app, sequential_time, FeatureSet, Grid, Topology};
use genima_apps::app_by_name;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "water-spatial".to_string());
    let app = app_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown application {name:?}");
        std::process::exit(2)
    });
    let seq = sequential_time(app.as_ref());
    println!("{} — sequential {seq}\n", app.name());

    println!("-- Same 16 processors, different clustering");
    let mut t = Grid::new(vec![
        "Topology",
        "Base",
        "GeNIMA",
        "Page transfers (GeNIMA)",
    ]);
    for (nodes, ppn) in [(16, 1), (8, 2), (4, 4), (2, 8)] {
        let topo = Topology::new(nodes, ppn);
        let base = run_app(app.as_ref(), topo, FeatureSet::base());
        let genima = run_app(app.as_ref(), topo, FeatureSet::genima());
        t.row(vec![
            format!("{nodes} x {ppn}-way"),
            format!("{:.2}", base.report.speedup(seq)),
            format!("{:.2}", genima.report.speedup(seq)),
            genima.report.counters.page_transfers.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Fewer, fatter nodes keep more sharing inside hardware coherence");
    println!("(fewer page transfers) at the cost of SMP bus pressure.\n");

    println!("-- Scaling the processor count (4-way nodes, GeNIMA)");
    let mut t = Grid::new(vec!["Processors", "Speedup", "Efficiency"]);
    for nodes in [1usize, 2, 4, 8] {
        let topo = Topology::new(nodes, 4);
        let r = run_app(app.as_ref(), topo, FeatureSet::genima());
        let su = r.report.speedup(seq);
        t.row(vec![
            (nodes * 4).to_string(),
            format!("{su:.2}"),
            format!("{:.0}%", su / (nodes * 4) as f64 * 100.0),
        ]);
    }
    println!("{}", t.render());
}
