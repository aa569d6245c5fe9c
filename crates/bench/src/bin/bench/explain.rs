//! `bench explain <before.json> <after.json>` — which rows of a report
//! moved between two runs of one kind, and which of their numbers.
//!
//! ```text
//! bench explain BEFORE AFTER [--only-column NAME]
//! ```
//!
//! Two reports of one kind at one seed hold the same rows in the same
//! order, so the join is by index, checked by identity: every
//! top-level string field of a row except hashes, plus `drop_rate` /
//! `nodes` / `fanout`. A kind or seed that differs, a row whose
//! identity differs and a row only one side has are refused by name —
//! never skipped. Each row that differs is printed with its moved
//! fields ranked by relative change, then `N of M rows moved`.
//!
//! `--only-column NAME` fails if a row whose `column` is not `NAME`
//! moved: the proof that a change to one column left the others alone.

use std::process::ExitCode;

use genima::Json;

/// Numeric fields that name a row rather than measure it.
const IDENTITY_NUMBERS: [&str; 3] = ["drop_rate", "nodes", "fanout"];

/// Moved fields printed per row; the rest are counted.
const TOP: usize = 8;

/// What [`explain`] found.
pub struct Explained {
    /// The report: one block per moved row, then the count.
    pub lines: Vec<String>,
    /// Labels of the rows `--only-column` does not allow to move.
    pub outside: Vec<String>,
}

/// The fields that say which row this is, as `key=value`.
fn identity(row: &Json) -> Vec<String> {
    let fields = row.as_obj().unwrap_or_default().iter();
    fields
        .filter(|(k, v)| match v {
            Json::Str(_) => !k.ends_with("hash"),
            Json::Num(_) => IDENTITY_NUMBERS.contains(&k.as_str()),
            Json::Null | Json::Bool(_) | Json::Arr(_) | Json::Obj(_) => false,
        })
        .map(|(k, v)| format!("{k}={}", v.dump().trim_matches('"')))
        .collect()
}

/// Every scalar under `v` with its dotted path: `a.b`, and `a[2].c` or
/// — where the element names itself — `a[lock].c`.
fn flatten<'a>(path: &str, v: &'a Json, out: &mut Vec<(String, &'a Json)>) {
    match v {
        Json::Obj(entries) => {
            for (k, v) in entries {
                let sep = if path.is_empty() { "" } else { "." };
                flatten(&format!("{path}{sep}{k}"), v, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                match v.get("class").and_then(Json::as_str) {
                    Some(class) => flatten(&format!("{path}[{class}]"), v, out),
                    None => flatten(&format!("{path}[{i}]"), v, out),
                }
            }
        }
        Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_) => {
            out.push((path.to_string(), v));
        }
    }
}

/// The value `fields` holds at `path`.
fn find<'a>(fields: &[(String, &'a Json)], path: &str) -> Option<&'a Json> {
    let hit = fields.iter().find(|(p, _)| p == path);
    hit.map(|&(_, v)| v)
}

fn rows<'a>(report: &'a Json, side: &str) -> Result<&'a [Json], String> {
    let rows = report.get("rows").and_then(Json::as_arr);
    rows.ok_or(format!("{side} has no `rows` array"))
}

/// `v` as JSON, or `(absent)`.
pub fn show(v: Option<&Json>) -> String {
    v.map_or("(absent)".to_string(), Json::dump)
}

/// One moved field: the relative change it ranks by, and its line.
fn moved_field(path: &str, a: Option<&Json>, b: Option<&Json>) -> (f64, String) {
    let numbers = a.and_then(Json::as_f64).zip(b.and_then(Json::as_f64));
    match numbers {
        Some((x, y)) if x != 0.0 => {
            let rel = (y - x) / x.abs();
            let line = format!("{path}: {} -> {} ({:+.1}%)", show(a), show(b), rel * 100.0);
            (rel.abs(), line)
        }
        Some(_) | None => (f64::INFINITY, format!("{path}: {} -> {}", show(a), show(b))),
    }
}

/// Joins `before` and `after` row by row.
///
/// # Errors
///
/// The two are not reports of one kind and seed, or their rows do not
/// pair up; the message names the first row that does not.
pub fn explain(
    before: &Json,
    after: &Json,
    only_column: Option<&str>,
) -> Result<Explained, String> {
    for key in ["bench", "seed"] {
        let (a, b) = (before.get(key), after.get(key));
        if a.is_none() || a != b {
            return Err(format!("`{key}` differs: {} vs {}", show(a), show(b)));
        }
    }
    let (old, new) = (rows(before, "before")?, rows(after, "after")?);
    let mut out = Explained {
        lines: Vec::new(),
        outside: Vec::new(),
    };
    let mut moved = 0;
    for (i, (a, b)) in old.iter().zip(new).enumerate() {
        let (ida, idb) = (identity(a), identity(b));
        if ida != idb {
            return Err(format!(
                "row {i} is ({}) before and ({}) after: a row is missing or the order changed",
                ida.join(" "),
                idb.join(" ")
            ));
        }
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        flatten("", a, &mut fa);
        flatten("", b, &mut fb);
        let mut fields: Vec<(f64, String)> = Vec::new();
        for &(ref path, x) in &fa {
            let y = find(&fb, path);
            if y != Some(x) {
                fields.push(moved_field(path, Some(x), y));
            }
        }
        for &(ref path, y) in &fb {
            if find(&fa, path).is_none() {
                fields.push(moved_field(path, None, Some(y)));
            }
        }
        if fields.is_empty() {
            continue;
        }
        moved += 1;
        let label = format!("row {i} ({})", ida.join(" "));
        let column = a.get("column").and_then(Json::as_str);
        if only_column.is_some() && column != only_column {
            out.outside.push(label.clone());
        }
        out.lines.push(label);
        // Largest relative change first; ties keep field order.
        fields.sort_by(|x, y| y.0.total_cmp(&x.0));
        let shown = fields.iter().take(TOP);
        out.lines
            .extend(shown.map(|(_, line)| format!("    {line}")));
        if fields.len() > TOP {
            let rest = fields.len() - TOP;
            out.lines.push(format!("    ... and {rest} more"));
        }
    }
    // The rows one side has beyond the other's last.
    let paired = old.len().min(new.len());
    let (longer, side) = if old.len() > new.len() {
        (old, "before")
    } else {
        (new, "after")
    };
    if let Some(only) = longer.get(paired) {
        let label = identity(only).join(" ");
        return Err(format!("row {paired} ({label}) is in {side} only"));
    }
    out.lines.push(format!("{moved} of {paired} rows moved"));
    Ok(out)
}

fn usage() -> ! {
    eprintln!("usage: bench explain BEFORE.json AFTER.json [--only-column NAME]");
    std::process::exit(2)
}

/// The JSON in the file at `path`.
pub fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `explain` subcommand; `args` is what follows the word.
pub fn main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (mut paths, mut only_column) = (Vec::new(), None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only-column" => only_column = Some(args.next().unwrap_or_else(|| usage())),
            _ => paths.push(arg),
        }
    }
    let [before, after] = paths.as_slice() else {
        usage()
    };
    let only_column = only_column.as_deref();
    let found = load(before).and_then(|b| explain(&b, &load(after)?, only_column));
    let found = match found {
        Ok(found) => found,
        Err(e) => {
            eprintln!("FAIL bench explain: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &found.lines {
        println!("{line}");
    }
    for row in &found.outside {
        let column = only_column.unwrap_or_default();
        eprintln!("FAIL {row} moved and is not a {column} row");
    }
    if found.outside.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-column report with `lock` shares as given, in row order.
    fn report(rows: &[(&str, &str, f64)]) -> Json {
        let rows = rows.iter().map(|&(app, column, lock)| {
            let mut shares = Json::obj();
            shares.set("lock", lock.into());
            let mut row = Json::obj();
            row.set("app", app.into());
            row.set("column", column.into());
            row.set("stream_hash", Json::Str(format!("{lock}")));
            row.set("shares", shares);
            row
        });
        let mut v = Json::obj();
        v.set("bench", "paper".into());
        v.set("seed", Json::u64(1999));
        v.set("rows", Json::Arr(rows.collect()));
        v
    }

    #[test]
    fn a_row_may_move_inside_the_column_and_not_outside_it_and_none_may_go_missing() {
        let before = report(&[("Ocean", "GeNIMA", 0.188), ("Ocean", "GeNIMA-2025", 0.189)]);
        let only = Some("GeNIMA-2025");

        // Inside the column: reported, ranked, allowed.
        let after = report(&[("Ocean", "GeNIMA", 0.188), ("Ocean", "GeNIMA-2025", 0.036)]);
        let found = explain(&before, &after, only).expect("rows pair up");
        assert!(found.outside.is_empty());
        assert_eq!(
            found.lines,
            [
                "row 1 (app=Ocean column=GeNIMA-2025)",
                // A moved hash is a moved field, not a different row.
                "    stream_hash: \"0.189\" -> \"0.036\"",
                "    shares.lock: 0.189 -> 0.036 (-81.0%)",
                "1 of 2 rows moved",
            ]
        );

        // Outside it: reported and refused.
        let after = report(&[("Ocean", "GeNIMA", 0.19), ("Ocean", "GeNIMA-2025", 0.036)]);
        let found = explain(&before, &after, only).expect("rows pair up");
        assert_eq!(found.outside, ["row 0 (app=Ocean column=GeNIMA)"]);
        assert_eq!(found.lines.last().unwrap(), "2 of 2 rows moved");
        assert!(explain(&before, &after, None).unwrap().outside.is_empty());

        // A missing row is named, at the end or in the middle.
        let err = |after: &Json| explain(&before, after, only).err().unwrap();
        let short = report(&[("Ocean", "GeNIMA", 0.188)]);
        assert_eq!(
            err(&short),
            "row 1 (app=Ocean column=GeNIMA-2025) is in before only"
        );
        let dropped_first = report(&[("Ocean", "GeNIMA-2025", 0.189)]);
        assert!(err(&dropped_first).starts_with(
            "row 0 is (app=Ocean column=GeNIMA) before and (app=Ocean column=GeNIMA-2025) after"
        ));
        let mut reseeded = before.clone();
        let Json::Obj(fields) = &mut reseeded else {
            unreachable!("a report is an object");
        };
        fields[1].1 = Json::u64(7);
        assert_eq!(err(&reseeded), "`seed` differs: 1999 vs 7");
    }
}
