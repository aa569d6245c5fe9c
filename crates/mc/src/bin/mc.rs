//! Command-line model checker.
//!
//! ```text
//! mc [--litmus NAME|all] [--column NAME|all] [--naive]
//!    [--max-steps N] [--max-schedules N] [--require-exhaustive] [--mutate NAME] [--out FILE]
//!    [--replay FILE]
//! ```
//!
//! Default mode explores every selected litmus × column and exits
//! nonzero on any violation (writing the counterexample to `--out`
//! when given). `--mutate` *expects* the seeded bug to be caught:
//! exit status 0 means the checker found, minimized, and
//! replay-verified a counterexample. `--replay` re-executes a stored
//! trace and demands a bit-identical reproduction.

use std::process::ExitCode;

use genima_mc::{corpus, litmus, Config, Explorer, Mode, ScheduleTrace};
use genima_proto::{Column, Mutation};

struct Args {
    litmus: String,
    column: String,
    naive: bool,
    max_steps: u64,
    max_schedules: u64,
    require_exhaustive: bool,
    mutate: Option<Mutation>,
    out: Option<String>,
    replay: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mc [--litmus NAME|all] [--column NAME|all] [--naive] \
         [--max-steps N] [--max-schedules N] [--require-exhaustive] [--mutate NAME] [--out FILE] [--replay FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        litmus: "all".into(),
        column: "all".into(),
        naive: false,
        max_steps: 4000,
        max_schedules: u64::MAX,
        require_exhaustive: false,
        mutate: None,
        out: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--litmus" => a.litmus = val(),
            "--column" => a.column = val(),
            "--naive" => a.naive = true,
            "--max-steps" => a.max_steps = val().parse().unwrap_or_else(|_| usage()),
            "--max-schedules" => a.max_schedules = val().parse().unwrap_or_else(|_| usage()),
            "--require-exhaustive" => a.require_exhaustive = true,
            "--mutate" => {
                let name = val();
                a.mutate = Some(Mutation::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown mutation `{name}` (try: reorder-write-notice)");
                    std::process::exit(2);
                }))
            }
            "--out" => a.out = Some(val()),
            "--replay" => a.replay = Some(val()),
            _ => usage(), // lint: allow-wildcard — open set of CLI flags
        }
    }
    a
}

fn selected_litmus(name: &str) -> Vec<genima_mc::Litmus> {
    if name == "all" {
        corpus()
    } else {
        match litmus::by_name(name) {
            Some(l) => vec![l],
            None => {
                let names: Vec<_> = corpus()
                    .into_iter()
                    .chain(litmus::extended())
                    .map(|l| l.name)
                    .collect();
                eprintln!("unknown litmus `{name}` (have: {})", names.join(", "));
                std::process::exit(2);
            }
        }
    }
}

fn selected_columns(name: &str) -> Vec<Column> {
    if name == "all" {
        Column::all().to_vec()
    } else {
        match litmus::column_by_name(name) {
            Some(c) => vec![c],
            None => {
                let names: Vec<_> = Column::all().iter().map(|c| c.name()).collect();
                eprintln!("unknown column `{name}` (have: {})", names.join(", "));
                std::process::exit(2);
            }
        }
    }
}

fn write_trace(path: &str, trace: &ScheduleTrace) {
    if let Err(e) = std::fs::write(path, trace.dump() + "\n") {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("counterexample written to {path}");
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let trace = match ScheduleTrace::parse(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        return match trace.verify() {
            Ok(()) => {
                println!(
                    "replay ok: {} on {} reproduces `{}` bit-identically over {} steps",
                    trace.litmus,
                    trace.column,
                    trace.violation,
                    trace.steps.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("replay FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let config = Config {
        mode: if args.naive { Mode::Naive } else { Mode::Dpor },
        max_steps: args.max_steps,
        max_schedules: args.max_schedules,
    };

    let mut caught = 0usize;
    let mut clean = 0usize;
    let mut failed = false;
    for l in selected_litmus(&args.litmus) {
        for f in selected_columns(&args.column) {
            let mut e = Explorer::new(l, f, config);
            if let Some(m) = args.mutate {
                e = e.with_mutation(m);
            }
            let rep = e.run();
            let coverage = if rep.exhaustive() {
                "exhaustive"
            } else {
                "bounded"
            };
            match &rep.violation {
                Some(v) => {
                    let trace = ScheduleTrace::new(l.name, f.name(), args.mutate, v);
                    println!(
                        "{} on {}: VIOLATION after {} schedules ({} steps minimized): {}",
                        l.name,
                        f.name(),
                        rep.schedules_to_violation,
                        v.steps.len(),
                        v.desc
                    );
                    if let Err(err) = trace.verify() {
                        eprintln!("  counterexample failed replay verification: {err}");
                        failed = true;
                    } else {
                        println!("  replay-verified bit-identically");
                    }
                    if let Some(path) = &args.out {
                        write_trace(path, &trace);
                    }
                    if args.mutate.is_some() {
                        caught += 1;
                    } else {
                        failed = true;
                    }
                }
                None => {
                    println!(
                        "{} on {}: clean; {} schedules ({}), {} outcomes, {} sleep-pruned, \
                         {} depth-truncated, avg {} steps",
                        l.name,
                        f.name(),
                        rep.schedules,
                        coverage,
                        rep.outcomes.len(),
                        rep.sleep_blocked,
                        rep.depth_truncated,
                        rep.steps_total / rep.schedules.max(1)
                    );
                    println!(
                        "  races: {} precise, {} fallback",
                        rep.races_precise, rep.races_fallback
                    );
                    if rep.exhaustive() && rep.outcomes.len() < l.min_outcomes {
                        eprintln!(
                            "  SUSPICIOUS: exhaustive search saw {} outcomes, litmus expects >= {}",
                            rep.outcomes.len(),
                            l.min_outcomes
                        );
                        failed = true;
                    }
                    if args.require_exhaustive && !rep.exhaustive() {
                        eprintln!("  NOT EXHAUSTIVE: coverage was bounded but --require-exhaustive is set");
                        failed = true;
                    }
                    if args.mutate.is_some() {
                        clean += 1;
                    }
                }
            }
        }
    }

    if args.mutate.is_some() {
        // A mutant hunt succeeds only when at least one configuration
        // caught the seeded bug.
        if caught == 0 {
            eprintln!("mutant NOT caught ({clean} configurations explored clean)");
            return ExitCode::FAILURE;
        }
        println!("mutant caught in {caught} configuration(s)");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
