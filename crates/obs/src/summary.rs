//! Text summaries of captured artifacts: top-N aggregations of a
//! timeline and the NI-monitor stage tables of a JSON `RunReport`.
//!
//! Both `xtask obs-summary` and `examples/ni_monitor.rs` render through
//! these helpers, so the stage tables have exactly one implementation.

use crate::json::Json;
use std::collections::BTreeMap;

/// A minimal aligned-column text table.
#[derive(Clone, Debug)]
pub struct Grid {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Grid {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Grid {
        Grid {
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (shorter rows are padded with blanks).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with each column padded to its widest cell.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String], widths: &[usize]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(|c| c.as_str()).unwrap_or("");
                out.push_str(cell);
                let pad = w.saturating_sub(cell.chars().count());
                if i + 1 < widths.len() {
                    for _ in 0..pad + 2 {
                        out.push(' ');
                    }
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers, &widths);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        emit(&mut out, &rule, &widths);
        for r in &self.rows {
            emit(&mut out, r, &widths);
        }
        out
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Agg {
    count: u64,
    total_us: f64,
    max_us: f64,
}

impl Agg {
    fn add(&mut self, dur_us: f64) {
        self.count += 1;
        self.total_us += dur_us;
        if dur_us > self.max_us {
            self.max_us = dur_us;
        }
    }
}

/// Top-N aggregation of a parsed `trace_event` array: per-kind and
/// per-node tables of event counts and busy time. Flow and metadata
/// events are excluded (they duplicate the records they annotate).
pub fn trace_top(trace: &Json, top: usize) -> Result<String, String> {
    let events = trace
        .as_arr()
        .ok_or_else(|| "trace is not a JSON array".to_string())?;
    let mut by_kind: BTreeMap<String, Agg> = BTreeMap::new();
    let mut by_node: BTreeMap<u64, Agg> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        if ph != "X" && ph != "i" {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("<unnamed>")
            .to_string();
        let pid = ev.get("pid").and_then(|p| p.as_u64()).unwrap_or(0);
        let dur = ev.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0);
        by_kind.entry(name).or_default().add(dur);
        by_node.entry(pid).or_default().add(dur);
    }
    let mut kinds: Vec<(String, Agg)> = by_kind.into_iter().collect();
    kinds.sort_by(|a, b| {
        b.1.total_us
            .partial_cmp(&a.1.total_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.1.count.cmp(&a.1.count))
    });
    let mut out = String::new();
    let mut kind_grid = Grid::new(vec!["span kind", "count", "total ms", "max us"]);
    for (name, agg) in kinds.iter().take(top) {
        kind_grid.row(vec![
            name.clone(),
            agg.count.to_string(),
            format!("{:.3}", agg.total_us / 1000.0),
            format!("{:.1}", agg.max_us),
        ]);
    }
    out.push_str(&format!("top {} span kinds by busy time\n", top));
    out.push_str(&kind_grid.render());
    let mut nodes: Vec<(u64, Agg)> = by_node.into_iter().collect();
    nodes.sort_by(|a, b| {
        b.1.total_us
            .partial_cmp(&a.1.total_us)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut node_grid = Grid::new(vec!["node", "events", "total ms"]);
    for (node, agg) in nodes.iter().take(top) {
        node_grid.row(vec![
            node.to_string(),
            agg.count.to_string(),
            format!("{:.3}", agg.total_us / 1000.0),
        ]);
    }
    out.push_str(&format!("\ntop {} nodes by recorded busy time\n", top));
    out.push_str(&node_grid.render());
    Ok(out)
}

fn stage_rows<'a>(report: &'a Json, class: &str) -> Result<Vec<&'a Json>, String> {
    let stages = report
        .get("monitor")
        .and_then(|m| m.get("stages"))
        .and_then(|s| s.as_arr())
        .ok_or_else(|| "report has no monitor.stages array".to_string())?;
    Ok(stages
        .iter()
        .filter(|s| s.get("class").and_then(|c| c.as_str()) == Some(class))
        .collect())
}

/// Renders the paper's Tables 3/4 view — per-stage contention ratios
/// and residency tails, small and large messages — for one or more
/// labelled JSON `RunReport`s side by side.
pub fn monitor_tables(reports: &[(&str, &Json)]) -> Result<String, String> {
    let mut out = String::new();
    for (class, label) in [
        ("small", "small messages (<=256B)"),
        ("large", "large messages"),
    ] {
        let mut headers = vec!["Stage".to_string()];
        for (name, _) in reports {
            headers.push(name.to_string());
        }
        let mut ratio_grid = Grid::new(headers.iter().map(|h| h.as_str()).collect());
        let mut tail_headers = vec!["Stage".to_string()];
        for (name, _) in reports {
            tail_headers.push(format!("{name} p50/p95/p99"));
        }
        let mut tail_grid = Grid::new(tail_headers.iter().map(|h| h.as_str()).collect());
        let per_report: Vec<Vec<&Json>> = reports
            .iter()
            .map(|(_, report)| stage_rows(report, class))
            .collect::<Result<_, _>>()?;
        let stage_count = per_report.iter().map(|r| r.len()).max().unwrap_or(0);
        for i in 0..stage_count {
            let stage_name = per_report
                .iter()
                .find_map(|rows| rows.get(i))
                .and_then(|s| s.get("stage"))
                .and_then(|s| s.as_str())
                .unwrap_or("?")
                .to_string();
            let mut ratio_cells = vec![stage_name.clone()];
            let mut tail_cells = vec![stage_name];
            for rows in &per_report {
                if let Some(s) = rows.get(i) {
                    let n = s.get("n").and_then(|v| v.as_u64()).unwrap_or(0);
                    if n == 0 {
                        ratio_cells.push("-".to_string());
                        tail_cells.push("-".to_string());
                    } else {
                        let ratio = s.get("ratio").and_then(|v| v.as_f64()).unwrap_or(1.0);
                        ratio_cells.push(format!("{ratio:.2}  (n={n})"));
                        let p50 = s.get("p50_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
                        let p95 = s.get("p95_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
                        let p99 = s.get("p99_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
                        tail_cells.push(format!("{p50:.1} / {p95:.1} / {p99:.1} us"));
                    }
                } else {
                    ratio_cells.push("-".to_string());
                    tail_cells.push("-".to_string());
                }
            }
            ratio_grid.row(ratio_cells);
            tail_grid.row(tail_cells);
        }
        out.push_str(&format!("-- {label}\n{}\n", ratio_grid.render()));
        out.push_str(&format!(
            "-- {label}, residency tails\n{}\n",
            tail_grid.render()
        ));
    }
    let mut traffic = Grid::new(vec!["run", "small pkts", "large pkts", "total bytes"]);
    for (name, report) in reports {
        let packets = report.get("monitor").and_then(|m| m.get("packets"));
        let small = packets
            .and_then(|p| p.get("small"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let large = packets
            .and_then(|p| p.get("large"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let bytes = report
            .get("monitor")
            .and_then(|m| m.get("total_bytes"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        traffic.row(vec![
            name.to_string(),
            small.to_string(),
            large.to_string(),
            bytes.to_string(),
        ]);
    }
    out.push_str(&format!("-- traffic\n{}", traffic.render()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(stage: &str, class: &str, n: u64, ratio: f64) -> Json {
        let mut s = Json::obj();
        s.set("stage", Json::str(stage))
            .set("class", Json::str(class))
            .set("n", Json::u64(n))
            .set("ratio", Json::num(ratio))
            .set("p50_us", Json::num(10.0))
            .set("p95_us", Json::num(20.0))
            .set("p99_us", Json::num(30.0));
        s
    }

    fn sample_report() -> Json {
        let mut packets = Json::obj();
        packets
            .set("small", Json::u64(10))
            .set("large", Json::u64(2));
        let mut monitor = Json::obj();
        monitor
            .set("packets", packets)
            .set("total_bytes", Json::u64(9000))
            .set(
                "stages",
                Json::Arr(vec![
                    stage("SourceLat", "small", 10, 1.5),
                    stage("DestLat", "small", 10, 2.0),
                    stage("SourceLat", "large", 0, 1.0),
                    stage("DestLat", "large", 2, 1.1),
                ]),
            );
        let mut report = Json::obj();
        report.set("monitor", monitor);
        report
    }

    #[test]
    fn monitor_tables_render_both_classes() {
        let report = sample_report();
        let text =
            monitor_tables(&[("Base", &report), ("GeNIMA", &report)]).expect("tables render");
        assert!(text.contains("small messages"));
        assert!(text.contains("large messages"));
        assert!(text.contains("SourceLat"));
        assert!(text.contains("1.50  (n=10)"));
        assert!(text.contains("10.0 / 20.0 / 30.0 us"));
        // The empty large-class SourceLat cell renders as "-".
        assert!(text.contains('-'));
        assert!(text.contains("total bytes"));
    }

    #[test]
    fn monitor_tables_reject_reports_without_monitor() {
        let empty = Json::obj();
        assert!(monitor_tables(&[("x", &empty)]).is_err());
    }

    #[test]
    fn trace_top_aggregates_by_kind_and_node() {
        let text = r#"[
            {"name":"page_fetch","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
            {"name":"page_fetch","ph":"X","ts":50,"dur":300,"pid":1,"tid":0},
            {"name":"retransmit","ph":"i","ts":70,"pid":1,"tid":1},
            {"name":"flow","ph":"s","ts":70,"pid":1,"tid":1,"id":9},
            {"name":"process_name","ph":"M","ts":0,"pid":0}
        ]"#;
        let parsed = Json::parse(text).expect("parse");
        let out = trace_top(&parsed, 10).expect("summary");
        assert!(out.contains("page_fetch"));
        assert!(out.contains("retransmit"));
        // Flow and metadata events are excluded from counts.
        assert!(!out.contains("process_name"));
        assert!(out.contains("0.400"), "total ms of page_fetch: {out}");
    }

    #[test]
    fn grid_pads_columns() {
        let mut g = Grid::new(vec!["a", "long-header"]);
        g.row(vec!["wide-cell".to_string(), "x".to_string()]);
        let text = g.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[2].starts_with("wide-cell"));
    }
}
