//! Certify one workload: race-freedom of its op streams, then a full
//! protocol audit under every paper configuration.
//!
//! ```sh
//! cargo run --release -p genima-check --example check_workloads
//! ```

use genima_apps::{App, WaterNsquared};
use genima_check::{check_app_races, run_app_audited};
use genima_proto::{Column, Topology};

fn main() {
    let topo = Topology::new(2, 2);
    let app = WaterNsquared::with_molecules(256, 1);

    match check_app_races(&app, topo) {
        Ok(races) if races.is_empty() => {
            println!("{}: race-free under happens-before", app.name());
        }
        Ok(races) => {
            println!("{}: {} race(s)!", app.name(), races.len());
            for r in races {
                println!("  {r:?}");
            }
        }
        Err(err) => println!("{}: schedule error: {err}", app.name()),
    }

    for column in Column::all() {
        let run = run_app_audited(&app, topo, column);
        println!(
            "{:<11} events {:>5}, lock events {:>4}, interrupts {:>4} -> {}",
            column.name(),
            run.audit.events,
            run.audit.lock_events,
            run.report.counters.interrupts,
            if run.audit.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", run.audit.violations.len())
            }
        );
    }
}
