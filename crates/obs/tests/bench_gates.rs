//! Mutation tests for the one checker on the real, checked-in
//! `BENCH_<kind>.json` files: each file passes as committed, and
//! flipping a single gated field makes [`BenchReport::check`] reject
//! it with the gate that guards that field. A gate that exists in a
//! bench kind but not in the file checker (or the other way round)
//! cannot pass here, because there is only the one.

use genima_obs::{BenchReport, Json};

fn load(kind: &str) -> Json {
    let path = format!("{}/../../BENCH_{kind}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The value at dotted `path` under `v`, mutably.
fn at<'a>(v: &'a mut Json, path: &str) -> &'a mut Json {
    path.split('.').fold(v, |v, key| match v {
        Json::Obj(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` on the way to `{path}`")),
        other => panic!("`{key}` of `{path}`: not an object: {}", other.dump()),
    })
}

/// The first row for which every `(field, value)` pair matches.
fn row<'a>(report: &'a mut Json, matching: &[(&str, &str)]) -> &'a mut Json {
    let Json::Arr(rows) = at(report, "rows") else {
        panic!("`rows` is not an array");
    };
    let matches = |r: &Json, (k, want): &(&str, &str)| {
        r.get(k)
            .is_some_and(|v| v.dump().trim_matches('"') == *want)
    };
    rows.iter_mut()
        .find(|r| matching.iter().all(|m| matches(r, m)))
        .unwrap_or_else(|| panic!("no row matching {matching:?}"))
}

fn num(report: &mut Json, matching: &[(&str, &str)], field: &str) -> f64 {
    let v = at(row(report, matching), field).as_f64();
    v.unwrap_or_else(|| panic!("`{field}` is not a number"))
}

/// Applies `mutate` to the checked-in report of `kind` and asserts the
/// checker rejects it with a failed gate whose name contains `gate`.
fn rejects(kind: &str, gate: &str, mutate: impl FnOnce(&mut Json)) {
    let mut v = load(kind);
    mutate(&mut v);
    let errors = BenchReport::check(&v).expect_err("mutated report must be rejected");
    let hit = |e: &String| e.contains("failed") && e.contains(gate);
    assert!(
        errors.iter().any(hit),
        "{kind}: expected a failed `{gate}` gate, got {errors:#?}"
    );
}

#[test]
fn every_checked_in_report_passes_unmodified() {
    for kind in ["paper", "fault_matrix", "barrier", "serving", "mc"] {
        let v = load(kind);
        assert_eq!(v.get("bench").and_then(Json::as_str), Some(kind));
        assert_eq!(BenchReport::check(&v), Ok(()), "BENCH_{kind}.json");
    }
}

/// Sets `field` of the first row matching `matching` to `value` and
/// expects the gate named like `gate` to fire.
fn flip(kind: &str, matching: &[(&str, &str)], field: &str, value: impl Into<Json>, gate: &str) {
    rejects(kind, gate, |v| *at(row(v, matching), field) = value.into());
}

const GENIMA: &[(&str, &str)] = &[("column", "GeNIMA")];

/// Sets `app`'s GeNIMA-2025 cell's speedup to `k` times its GeNIMA
/// cell's — the 2025 hardware buying `k` over the 1999 LANai — and
/// expects the gate named like `gate` to fire.
fn vs_1999(app: &str, k: f64, gate: &str) {
    rejects("paper", gate, |v| {
        let lanai = num(v, &cell(app, "GeNIMA"), "speedup");
        *at(row(v, &cell(app, "GeNIMA-2025")), "speedup") = Json::num(k * lanai);
    });
}

#[test]
fn a_host_interrupt_on_a_genima_row_is_rejected() {
    let rnic = cell("FFT", "GeNIMA-2025");
    let field = "counters.interrupts";
    flip("paper", &rnic, field, 1u64, "zero host interrupts");
    flip(
        "serving",
        GENIMA,
        "interrupts",
        1u64,
        "zero host interrupts",
    );
    flip(
        "fault_matrix",
        GENIMA,
        "interrupts",
        1u64,
        "zero host interrupts",
    );
    let field = "counters.interrupts";
    flip("paper", GENIMA, field, 1u64, "zero host interrupts");
}

#[test]
fn a_lost_comparison_is_rejected() {
    vs_1999("FFT", 0.9, "FFT/GeNIMA-2025: speedup > FFT/GeNIMA");
    let tree = [("mode", "ni-tree-4")];
    flip(
        "barrier",
        &tree,
        "manager_msgs",
        1u64,
        "zero barrier-manager",
    );
    // The retired file checker never re-checked this one.
    let host = [("nodes", "16"), ("mode", "host")];
    let gate = "beats the host manager at 16 nodes";
    flip("barrier", &host, "barrier_us", 0.0, gate);
    flip(
        "mc",
        &[("tier", "ci")],
        "exhaustive",
        false,
        "exhaustive proof",
    );
    let extended = [("tier", "extended")];
    flip("mc", &extended, "violations", 1u64, "no violation");
}

#[test]
fn a_base_tail_under_twice_genimas_is_rejected() {
    // The retired file checker accepted any Base p99 >= GeNIMA's; the
    // bench itself demanded 2x. The stricter reading is the gate.
    rejects("serving", "Base p99 >= 2x GeNIMA's", |v| {
        let genima = num(v, &[("workload", "kv"), ("column", "GeNIMA")], "p99_us");
        let base = row(v, &[("workload", "kv"), ("column", "Base")]);
        *at(base, "p99_us") = Json::num(1.5 * genima);
    });
}

#[test]
fn critpath_attribution_is_gated_to_the_nanosecond() {
    let (base, genima) = (cell("FFT", "Base"), cell("FFT", "GeNIMA"));
    rejects("paper", "FFT/Base: segments sum to total_ns", |v| {
        let wire = num(v, &base, "segments_ns.wire");
        *at(row(v, &base), "segments_ns.wire") = Json::num(wire + 1.0);
    });
    // One nanosecond of interrupt time on a GeNIMA critical path; the
    // sum gate is kept satisfied so the thesis gate is the one firing.
    rejects("paper", "FFT/GeNIMA: segments_ns.interrupt == 0", |v| {
        let total = num(v, &genima, "total_ns");
        *at(row(v, &genima), "segments_ns.interrupt") = Json::u64(1);
        *at(row(v, &genima), "total_ns") = Json::num(total + 1.0);
    });
}

#[test]
fn facts_recorded_in_meta_are_gated_too() {
    let gate = "repeated GeNIMA run is bit-identical";
    rejects("serving", gate, |v| {
        *at(v, "meta.repeat_identical") = false.into();
    });
    rejects("paper", "every run completed", |v| {
        *at(v, "meta.failed_runs") = 1u64.into();
    });
    let gate = "every audited op's attribution sums to its latency";
    rejects("paper", gate, |v| {
        *at(v, "meta.mismatched_ops") = 1u64.into();
    });
    rejects("mc", "prunes >= 5x", |v| {
        *at(v, "meta.calibration.prune_ratio") = 4.0.into();
    });
}

#[test]
fn oceans_lock_wait_creeping_back_is_rejected() {
    // Each GeNIMA-2025 row as it read while a release still diffed and
    // re-protected inside the critical section (DESIGN.md §10.1) ...
    let ocean = cell("Ocean-rowwise", "GeNIMA-2025");
    vs_1999("Ocean-rowwise", 1.017, ">= 2.25 x");
    flip("paper", &ocean, "shares.lock", 0.189, "<= 0.1");
    // ... and as they read while the home still twinned, diffed and
    // applied its own pages (DESIGN.md §10.2). The cell keeps its
    // segments summing to its total, so the 1999 comparison is the gate
    // that fires.
    vs_1999("Ocean-rowwise", 1.577, ">= 2.25 x");
    let queue = "segments_ns.queue_retry";
    let gate = "segments_ns.queue_retry <= 0.1 x Ocean-rowwise/GeNIMA";
    rejects("paper", gate, |v| {
        let ocean_1999 = cell("Ocean-rowwise", "GeNIMA");
        let then = 0.236 * num(v, &ocean_1999, queue);
        let moved = then - num(v, &ocean, queue);
        let total = num(v, &ocean, "total_ns");
        *at(row(v, &ocean), queue) = Json::num(then);
        *at(row(v, &ocean), "total_ns") = Json::num(total + moved);
    });
    let lu = cell("LU-contiguous", "GeNIMA-2025");
    let (field, gate) = (
        "mean_breakdown.barrier_protocol_ms",
        "barrier_protocol_ms <= 0.1 x LU-contiguous/GeNIMA",
    );
    flip("paper", &lu, field, 162.23, gate);
    // ... and the 1999 row as it would read if somebody took the
    // paper's dilation out of the paper's column.
    let ocean_1999 = [("app", "Ocean-rowwise"), ("column", "GeNIMA")];
    flip("paper", &ocean_1999, "shares.lock", 0.036, ">= 0.15");
}

#[test]
fn the_odp_stall_creeping_back_is_rejected() {
    // Each GeNIMA-2025 row as it read while an ODP fault held the home's
    // whole receive engine, not just the faulting queue pair (DESIGN.md
    // §10.6): 2025 hardware then waited longer for Radix's data than the
    // 1999 LANai did.
    for (app, floor, k, data_ms) in [
        ("FFT", 2.0, 1.103, 227.24),
        ("Radix-local", 2.8, 1.379, 218.34),
    ] {
        let gate = format!("{app}/GeNIMA-2025: speedup >= {floor} x {app}/GeNIMA");
        vs_1999(app, k, &gate);
        let gate = format!("{app}/GeNIMA-2025: mean_breakdown.data_ms <= 0.6 x");
        let field = "mean_breakdown.data_ms";
        flip("paper", &cell(app, "GeNIMA-2025"), field, data_ms, &gate);
    }
}

#[test]
fn a_fault_on_the_first_fetch_of_every_home_page_creeping_back_is_rejected() {
    // Each GeNIMA-2025 row as it read while a home left the pages it
    // closed in place for the first remote fetch to map, one ODP fault
    // each (DESIGN.md §10.5).
    for (app, floor, k) in [
        ("FFT", 2.0, 1.66),
        ("Radix-local", 2.8, 2.2),
        ("LU-contiguous", 1.07, 1.063),
    ] {
        let gate = format!("{app}/GeNIMA-2025: speedup >= {floor} x {app}/GeNIMA");
        vs_1999(app, k, &gate);
    }
    for (app, faults) in [
        ("FFT", 6_144u64),
        ("LU-contiguous", 8_160),
        ("Ocean-rowwise", 12),
    ] {
        let gate = format!("{app}/GeNIMA-2025: ni.odp_faults == 0");
        let rnic = cell(app, "GeNIMA-2025");
        flip("paper", &rnic, "ni.odp_faults", faults, &gate);
    }
}

#[test]
fn a_fault_per_page_of_oceans_rewrites_creeping_back_is_rejected() {
    // Each GeNIMA-2025 row as it read while a rewrite of a home run
    // faulted once per page instead of re-opening the run in one fault
    // (DESIGN.md §10.3): as many faults as the 1999 column takes.
    vs_1999("Ocean-rowwise", 2.037, ">= 2.25 x");
    let gate = "Ocean-rowwise/GeNIMA-2025: counters.faults <= 0.06 x";
    let cell = cell("Ocean-rowwise", "GeNIMA-2025");
    flip("paper", &cell, "counters.faults", 16_068u64, gate);
}

#[test]
fn a_fault_in_every_critical_section_of_oceans_creeping_back_is_rejected() {
    // Each GeNIMA-2025 row as it read while a re-acquire left the page
    // its last holding wrote protected, so that every critical section
    // faulted on it (DESIGN.md §10.4).
    vs_1999("Ocean-rowwise", 2.198, ">= 2.25 x");
    let gate = "Ocean-rowwise/GeNIMA-2025: counters.faults <= 0.06 x";
    let cell = cell("Ocean-rowwise", "GeNIMA-2025");
    flip("paper", &cell, "counters.faults", 1_188u64, gate);
}

#[test]
fn a_dropped_ci_litmus_is_rejected() {
    // The CI grid is every litmus of the corpus on every column; one
    // litmus fewer is six rows fewer.
    let gate = "the full CI litmus x column grid ran";
    rejects("mc", gate, |v| {
        let rows = at(v, "meta.ci_rows").as_f64().expect("a row count");
        *at(v, "meta.ci_rows") = Json::num(rows - 6.0);
    });
}

#[test]
fn a_lost_outcome_is_rejected() {
    // An exhaustive search that reaches fewer outcomes than the litmus
    // allows is a column that over-synchronises, not a clean one.
    let cell = [("litmus", "lock-reopen"), ("column", "GeNIMA")];
    let gate = "lock-reopen/GeNIMA: at least 3 distinct outcomes";
    flip("mc", &cell, "distinct_outcomes", 2u64, gate);
}

#[test]
fn a_bounded_lock_handoff_on_2025_is_rejected() {
    let cell = [("litmus", "lock-handoff"), ("column", "GeNIMA-2025")];
    let gate = "lock-handoff/GeNIMA-2025: exhaustive proof";
    flip("mc", &cell, "exhaustive", false, gate);
}

/// A `cell` row of `BENCH_paper.json`.
fn cell<'a>(app: &'a str, column: &'a str) -> [(&'a str, &'a str); 3] {
    [("kind", "cell"), ("app", app), ("column", column)]
}

#[test]
fn the_papers_shapes_are_gated() {
    // Barnes-spatial is the one application GeNIMA slows down (§3.3).
    rejects("paper", "Barnes-spatial/GeNIMA: speedup <", |v| {
        let base = num(v, &cell("Barnes-spatial", "Base"), "speedup");
        let genima = row(v, &cell("Barnes-spatial", "GeNIMA"));
        *at(genima, "speedup") = Json::num(base + 0.01);
    });
    // The Origin beats Base everywhere (Figure 1).
    let origin = [
        ("kind", "origin"),
        ("app", "LU-contiguous"),
        ("topo", "4x4"),
    ];
    let gate = "LU-contiguous/Origin 4x4: speedup > LU-contiguous/Base";
    flip("paper", &origin, "speedup", 10.0, gate);
    // The headline as it read with `interrupt_latency` doubled: the five
    // 1999 columns moved, and the band says so.
    rejects("paper", "avg_improvement_pct <= 14.21", |v| {
        *at(v, "meta.avg_improvement_pct") = 19.44.into();
    });
}

#[test]
fn the_headline_means_are_the_cell_rows_means() {
    let v = load("paper");
    let rows = v.get("rows").and_then(Json::as_arr).expect("rows");
    let speedup = |app: &str, column: &str| {
        let hit = rows.iter().find(|r| {
            let s = |k: &str| r.get(k).and_then(Json::as_str);
            (s("kind"), s("app"), s("column")) == (Some("cell"), Some(app), Some(column))
        });
        hit.and_then(|r| r.get("speedup")?.as_f64())
            .expect("a cell row")
    };
    let apps = rows.iter().filter(|r| {
        let s = |k: &str| r.get(k).and_then(Json::as_str);
        (s("kind"), s("column")) == (Some("cell"), Some("Base"))
    });
    let apps: Vec<&str> = apps.filter_map(|r| r.get("app")?.as_str()).collect();
    assert_eq!(apps.len(), 10);
    let mean = |apps: &[&str]| {
        let sum: f64 = apps
            .iter()
            .map(|a| (speedup(a, "GeNIMA") / speedup(a, "Base") - 1.0) * 100.0)
            .sum();
        sum / apps.len() as f64
    };
    let nine: Vec<&str> = apps
        .iter()
        .copied()
        .filter(|&a| a != "Barnes-spatial")
        .collect();
    for (field, want) in [
        ("avg_improvement_pct", mean(&apps)),
        ("avg_improvement_pct_without_barnes_spatial", mean(&nine)),
    ] {
        let got = v.get("meta").and_then(|m| m.get(field)?.as_f64());
        let got = got.unwrap_or_else(|| panic!("no meta.{field}"));
        assert!(
            (got - want).abs() < 1e-9,
            "meta.{field} = {got}, rows say {want}"
        );
    }
}
