//! The repository's benchmark: five workloads on both clocks.
//!
//! ```text
//! genima-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! genima-benchmark compare A.json B.json
//! ```
//!
//! With no `--workload` every workload runs; with no `--trace` both
//! the end-to-end passes (tracing off) and the per-layer pass (tracing
//! on) run. Results go to `out/results.json`, the benchmark's own
//! spans to `out/trace.json`, and the last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`. The exit
//! code is non-zero when an output check fails. See `README.md`.

mod alloc;
mod compare;
mod kernels;
mod measure;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use genima_obs::Json;

use crate::kernels::KernelNs;
use crate::measure::{PassCost, Values};
use crate::spans::Spans;
use crate::workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where results and the trace are written: inside the benchmark's own
/// directory, wherever the command was started from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Fewest timed passes behind a median, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 3;

const USAGE: &str = "usage: genima-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\n       genima-benchmark compare A.json B.json";

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    /// `Some(false)`: end-to-end passes only; `Some(true)`: per-layer
    /// pass only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
}

enum Command {
    Run(Options),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("compare takes two result files".into()),
        };
    }
    let mut opts = Options {
        workloads: WORKLOADS.iter().map(|(name, _)| *name).collect(),
        seed: 1999,
        seconds: 10,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|(name, _)| name == value);
                let (name, _) = known.ok_or_else(|| format!("unknown workload {value:?}"))?;
                opts.workloads = vec![name];
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?,
            "--trace" => {
                opts.trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Command::Run(opts))
}

/// Everything one workload reported.
struct WorkloadResult {
    name: &'static str,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// Host seconds inside `try_run`, one entry per timed pass.
    /// Reported, never bounded: see README, "Why `wall_s` is not gated".
    walls: Vec<f64>,
    end_to_end: Option<Values>,
    per_layer: Option<Values>,
}

fn min_max(values: &[f64]) -> (f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (min, values.iter().copied().fold(min, f64::max))
}

fn print_values(title: &str, values: &Values) {
    println!("  {title}");
    for (def, v) in values {
        println!("    {:<34} {:>18.6} {}", def.name, v, def.unit);
    }
}

/// Warm-up pass (also the reference every later pass must equal bit
/// for bit), then timed passes until `seconds` have been measured.
fn end_to_end_phase(w: &Workload, opts: &Options, result: &mut WorkloadResult) {
    let mut spans = Spans::new(false);
    let ops = measure::user_ops(w);
    result.violations.extend(measure::check_stream_hashes(w));
    let reference = runner::run_pass(w, &mut spans);
    result.violations.extend(measure::check_pass(w, &reference));
    let expected = measure::fingerprints(&reference);

    let min_passes = if opts.smoke { 1 } else { MIN_TIMED_PASSES };
    let budget = Duration::from_secs(if opts.smoke { 0 } else { opts.seconds });
    let started = Instant::now();
    let mut costs: Vec<PassCost> = Vec::new();
    while costs.len() < min_passes || started.elapsed() < budget {
        let pass = runner::run_pass(w, &mut spans);
        if measure::fingerprints(&pass) != expected {
            result.violations.push(format!(
                "{}: timed pass {} is not bit-identical to the first pass",
                w.name,
                costs.len() + 1
            ));
        }
        costs.push(PassCost::of(&pass));
    }

    (result.attempted, result.failed) = measure::op_outcome(&ops, &reference);
    let values = measure::end_to_end(w, &ops, &reference, &costs);
    let walls: Vec<f64> = costs.iter().map(|c| c.wall_s).collect();
    println!(
        "  {} timed passes; {} of {} operations failed",
        costs.len(),
        result.failed,
        result.attempted
    );
    let (min, max) = min_max(&walls);
    println!(
        "  wall_s (host, not gated): median {:.4} min {min:.4} max {max:.4} \
         quartile spread {:.4}",
        stats::median(&walls),
        stats::spread(&walls),
    );
    result.walls = walls;
    print_values(
        "end to end (tracing off, medians over the timed passes)",
        &values,
    );
    result.end_to_end = Some(values);
}

/// One untraced pass for the counts, the traced pass, the kernels.
fn per_layer_phase(
    w: &Workload,
    opts: &Options,
    spans: &mut Spans,
    kernel_ns: &mut Option<KernelNs>,
    result: &mut WorkloadResult,
) {
    let reference = runner::run_pass(w, spans);
    result.violations.extend(measure::check_pass(w, &reference));
    let traced = measure::traced_pass(w, &reference, spans);
    result.violations.extend(traced.violations.iter().cloned());
    let gen = measure::generation_cost(w, spans);
    let k = *kernel_ns.get_or_insert_with(|| kernels::run_all(opts.seed, spans));
    if result.end_to_end.is_none() {
        let ops = measure::user_ops(w);
        (result.attempted, result.failed) = measure::op_outcome(&ops, &reference);
    }
    let values = measure::per_layer(w, &reference, &traced, &k, &gen);
    print_values("per layer (GeNIMA column unless suffixed)", &values);
    result.per_layer = Some(values);
}

fn values_json(values: &Values, prefix: &str, into: &mut Json) {
    for (def, v) in values {
        let mut m = Json::obj();
        m.set("value", Json::num(*v));
        m.set("unit", Json::str(def.unit));
        into.set(format!("{prefix}{}", def.name), m);
    }
}

fn results_json(opts: &Options, results: &[WorkloadResult]) -> Json {
    let mut workloads = Json::obj();
    for r in results {
        let mut w = Json::obj();
        w.set("correct", Json::Bool(r.violations.is_empty()));
        w.set("attempted", Json::u64(r.attempted));
        w.set("failed", Json::u64(r.failed));
        w.set("timed_passes", Json::u64(r.walls.len() as u64));
        if !r.walls.is_empty() {
            let (min, max) = min_max(&r.walls);
            let mut wall = Json::obj();
            wall.set("median", Json::num(stats::median(&r.walls)));
            wall.set("min", Json::num(min));
            wall.set("max", Json::num(max));
            w.set("wall_s", wall);
        }
        for (key, values) in [("end_to_end", &r.end_to_end), ("per_layer", &r.per_layer)] {
            if let Some(values) = values {
                let mut set = Json::obj();
                values_json(values, "", &mut set);
                w.set(key, set);
            }
        }
        workloads.set(r.name, w);
    }
    let mut root = Json::obj();
    root.set("seed", Json::u64(opts.seed));
    root.set("seconds", Json::u64(opts.seconds));
    root.set("smoke", Json::Bool(opts.smoke));
    root.set("workloads", workloads);
    root
}

/// The object the builder's contract asks for on the last line. Metric
/// names are bare when one workload ran and `workload/metric` otherwise.
fn summary_json(results: &[WorkloadResult]) -> Json {
    let mut metrics = Json::obj();
    for r in results {
        let prefix = if results.len() == 1 {
            String::new()
        } else {
            format!("{}/", r.name)
        };
        for values in [&r.end_to_end, &r.per_layer].into_iter().flatten() {
            values_json(values, &prefix, &mut metrics);
        }
    }
    let mut root = Json::obj();
    root.set(
        "correct",
        Json::Bool(results.iter().all(|r| r.violations.is_empty())),
    );
    root.set(
        "attempted",
        Json::u64(results.iter().map(|r| r.attempted).sum()),
    );
    root.set("failed", Json::u64(results.iter().map(|r| r.failed).sum()));
    root.set("metrics", metrics);
    root
}

fn write_out(file: &str, json: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, json.dump()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run(opts: &Options) -> Result<bool, String> {
    let mut traced_spans = Spans::new(true);
    let mut kernel_ns = None;
    let mut results = Vec::new();
    for &name in &opts.workloads {
        let w = workloads::build(name, opts.seed, opts.smoke).expect("listed workloads build");
        println!(
            "workload {name} (seed {}{})",
            opts.seed,
            if opts.smoke { ", smoke sizes" } else { "" }
        );
        let mut result = WorkloadResult {
            name,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            walls: Vec::new(),
            end_to_end: None,
            per_layer: None,
        };
        if opts.trace != Some(true) {
            end_to_end_phase(&w, opts, &mut result);
        }
        if opts.trace != Some(false) {
            per_layer_phase(&w, opts, &mut traced_spans, &mut kernel_ns, &mut result);
        }
        for v in &result.violations {
            eprintln!("CHECK FAILED {v}");
        }
        results.push(result);
    }

    write_out("results.json", &results_json(opts, &results))?;
    if opts.trace != Some(false) {
        println!("{} benchmark spans, self time by name:", traced_spans.len());
        for (name, ns) in traced_spans.self_time_by_name() {
            println!("    {name:<34} {:>12.3} ms", ns as f64 / 1e6);
        }
        write_out("trace.json", &traced_spans.to_json())?;
    }
    let summary = summary_json(&results);
    println!("{}", summary.dump());
    Ok(summary.get("correct").and_then(Json::as_bool) == Some(true))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(a, b)) => compare::run(&a, &b).map(|regressed| !regressed),
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let cmd = parse_args(&args(&[
            "--workload",
            "diff_ocean",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        let Ok(Command::Run(o)) = cmd else {
            panic!("driver flags must parse")
        };
        assert_eq!(o.workloads, ["diff_ocean"]);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 10, Some(true), false)
        );
        let Ok(Command::Run(all)) = parse_args(&args(&["--smoke"])) else {
            panic!("--smoke alone must parse")
        };
        assert_eq!(all.workloads.len(), WORKLOADS.len());
        assert!(all.smoke && all.trace.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seed", "x"],
            &["--frobnicate", "1"],
            &["compare", "only-one.json"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(matches!(
            parse_args(&args(&["compare", "a.json", "b.json"])),
            Ok(Command::Compare(..))
        ));
    }

    #[test]
    fn summary_names_are_bare_for_one_workload_and_prefixed_for_more() {
        let result = |name: &'static str| WorkloadResult {
            name,
            attempted: 10,
            failed: 1,
            violations: Vec::new(),
            walls: vec![1.0, 2.0, 3.0],
            end_to_end: Some(vec![(&measure::END_TO_END[0], 1.25)]),
            per_layer: None,
        };
        let one = summary_json(&[result("bulk_lu")]);
        let keys: Vec<&str> = one
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = one
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("bare name");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let two = summary_json(&[result("bulk_lu"), result("diff_ocean")]);
        assert!(two
            .get("metrics")
            .and_then(|m| m.get("diff_ocean/setup_s"))
            .is_some());
        assert_eq!(two.get("attempted").and_then(Json::as_u64), Some(20));
        assert_eq!(two.get("failed").and_then(Json::as_u64), Some(2));
        let parsed = Json::parse(&two.dump()).expect("summary round-trips");
        assert_eq!(parsed, two);
    }
}
