//! `compare A.json B.json`: two result files against the bounds that
//! `BENCHMARK.json` fixes for the end-to-end metrics.

use genima_obs::Json;

/// Where the bounds live: beside the benchmark's directory.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Bound and direction of one end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the first file's value by which the second may be
    /// worse.
    pub bound: f64,
}

pub fn bounds_from(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry: {}", m.dump())),
            }
        })
        .collect()
}

/// End-to-end metrics of the host side. The others are simulated and
/// must repeat exactly between two runs of one commit on one seed;
/// these may differ (time, and a few bytes of hash-map layout).
const HOST_SIDE: [&str; 4] = ["setup_s", "heap_allocs", "heap_alloc_mb", "peak_heap_mb"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical: what a simulated or count metric of one commit
    /// must be on one seed.
    Same,
    /// Different, and no worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Within => "within",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, judged by `bound`.
pub fn judge(bound: &Bound, a: f64, b: f64) -> Verdict {
    if a == b {
        return Verdict::Same;
    }
    let worse_by = if bound.higher_is_better { a - b } else { b - a };
    if worse_by > bound.bound * a.abs() {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

fn metric_value(set: Option<&Json>, name: &str) -> Option<f64> {
    set?.get(name)?.get("value")?.as_f64()
}

/// Compares every workload and metric the two files share. Returns the
/// report and whether any end-to-end metric regressed.
pub fn compare(bounds: &[Bound], a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("result file has no workloads object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = format!(
        "{:<16} {:<32} {:>16} {:>16} {:>8}  {}\n",
        "workload", "metric", "A", "B", "B/A", "verdict"
    );
    let mut regressed = false;
    let mut deterministic_same = true;
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            out.push_str(&format!("{name:<16} only in A\n"));
            continue;
        };
        let mut row = |metric: &str, va: f64, vb: f64, verdict: &str| {
            let ratio = if va == 0.0 { f64::NAN } else { vb / va };
            out.push_str(&format!(
                "{name:<16} {metric:<32} {va:>16.6} {vb:>16.6} {ratio:>8.4}  {verdict}\n"
            ));
        };
        for bound in bounds {
            let va = metric_value(ra.get("end_to_end"), &bound.name);
            let vb = metric_value(rb.get("end_to_end"), &bound.name);
            let (Some(va), Some(vb)) = (va, vb) else {
                continue;
            };
            let verdict = judge(bound, va, vb);
            regressed |= verdict == Verdict::Regressed;
            deterministic_same &=
                HOST_SIDE.contains(&bound.name.as_str()) || verdict == Verdict::Same;
            row(&bound.name, va, vb, verdict.label());
        }
        let wall = |r: &Json| r.get("wall_s")?.get("median")?.as_f64();
        if let (Some(va), Some(vb)) = (wall(ra), wall(rb)) {
            row("wall_s (median, not gated)", va, vb, "unbounded");
        }
        let layers = |r: &Json| r.get("per_layer").and_then(Json::as_obj).map(<[_]>::to_vec);
        if let (Some(la), Some(_)) = (layers(ra), layers(rb)) {
            for (metric, _) in &la {
                let va = metric_value(ra.get("per_layer"), metric);
                let vb = metric_value(rb.get("per_layer"), metric);
                if let (Some(va), Some(vb)) = (va, vb) {
                    row(metric, va, vb, if va == vb { "same" } else { "unbounded" });
                }
            }
        }
    }
    out.push_str(&format!(
        "simulated-clock end-to-end metrics identical: {}\n",
        if deterministic_same { "yes" } else { "no" }
    ));
    out.push_str(if regressed {
        "verdict: REGRESSED beyond a bound\n"
    } else {
        "verdict: within every bound\n"
    });
    Ok((out, regressed))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `compare` subcommand. `Ok(true)` means a regression was found.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let bounds = bounds_from(&read_json(BENCHMARK_JSON)?)?;
    let (report, regressed) = compare(&bounds, &read_json(path_a)?, &read_json(path_b)?)?;
    print!("{report}");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "setup_s".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn judge_applies_the_bound_in_the_metric_s_direction() {
        assert_eq!(judge(&lower(0.10), 2.0, 2.0), Verdict::Same);
        assert_eq!(judge(&lower(0.10), 2.0, 2.19), Verdict::Within);
        assert_eq!(judge(&lower(0.10), 2.0, 2.21), Verdict::Regressed);
        assert_eq!(judge(&lower(0.10), 2.0, 0.5), Verdict::Within);
        let higher = Bound {
            name: "sim_kops".into(),
            higher_is_better: true,
            bound: 0.01,
        };
        assert_eq!(judge(&higher, 100.0, 99.5), Verdict::Within);
        assert_eq!(judge(&higher, 100.0, 98.0), Verdict::Regressed);
        assert_eq!(judge(&higher, 100.0, 140.0), Verdict::Within);
    }

    fn results(setup: f64, sim: f64) -> Json {
        let metric = |v: f64, unit: &str| {
            let mut m = Json::obj();
            m.set("value", Json::num(v));
            m.set("unit", Json::str(unit));
            m
        };
        let mut e2e = Json::obj();
        e2e.set("setup_s", metric(setup, "s"));
        e2e.set("sim_time_ms", metric(sim, "sim_ms"));
        let mut w = Json::obj();
        w.set("end_to_end", e2e);
        let mut ws = Json::obj();
        ws.set("bulk_lu", w);
        let mut root = Json::obj();
        root.set("workloads", ws);
        Json::parse(&root.dump()).expect("round trip")
    }

    #[test]
    fn compare_reports_rows_and_flags_regressions() {
        let bounds = vec![
            lower(0.10),
            Bound {
                name: "sim_time_ms".into(),
                higher_is_better: false,
                bound: 0.01,
            },
        ];
        let (text, bad) = compare(&bounds, &results(1.0, 50.0), &results(1.05, 50.0)).unwrap();
        assert!(!bad, "{text}");
        assert!(
            text.contains("within") && text.contains("identical: yes"),
            "{text}"
        );
        let (text, bad) = compare(&bounds, &results(1.0, 50.0), &results(1.0, 51.0)).unwrap();
        assert!(
            bad && text.contains("REGRESSED") && text.contains("identical: no"),
            "{text}"
        );
        assert!(compare(&bounds, &Json::obj(), &results(1.0, 1.0)).is_err());
    }

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics, with the same units, inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_code() {
        let j = read_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str, field: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .expect("list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s(field))
                })
                .collect()
        };
        let code = |defs: &[crate::measure::MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", "unit"), code(END_TO_END));
        assert_eq!(names("per_layer", "unit"), code(PER_LAYER));
        let listed: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(names("workloads", "why"), listed);
        let bounds = bounds_from(&j).expect("bounds");
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better);
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
        let secs = j
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&secs));
    }
}
