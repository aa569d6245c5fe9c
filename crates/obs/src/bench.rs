//! The one report-and-gate schema every `bench <kind>` writes and
//! `bench show` reads.
//!
//! A [`BenchReport`] is rows plus **gates as data**: each gate is
//! `{name, lhs, op, rhs}` with `op` one of `== != < <= > >=` and each
//! operand either a scalar literal or a reference into the report:
//!
//! * `{"row": i, "field": "a.b"}` — the dotted path into `rows[i]`,
//! * `{"field": "a.b"}` — the dotted path into the `meta` object,
//! * `{"row": i, "sum": "a"}` — the numeric members of the object at
//!   `a`, added up,
//! * any of these with `"times": k` — the resolved number, scaled.
//!
//! References resolve to scalars; booleans count as 0/1. Ordering ops
//! need numbers on both sides, `==`/`!=` take two scalars of one type.
//!
//! [`BenchReport::check`] is the only checker: it validates the shape,
//! resolves every reference and *recomputes* every gate from the
//! referenced fields. A bench kind exits non-zero iff `check` rejects
//! the report it just built, and the file checker makes the same call,
//! so the two cannot drift.

use std::cmp::Ordering;

use crate::json::Json;

/// References `meta.<field>`.
pub fn meta(field: &str) -> Json {
    let mut r = Json::obj();
    r.set("field", field.into());
    r
}

/// References `rows[i].<field>`.
pub fn row(i: usize, field: &str) -> Json {
    let mut r = Json::obj();
    r.set("row", Json::u64(i as u64));
    r.set("field", field.into());
    r
}

/// References the sum of the numeric members of `rows[i].<field>`.
pub fn row_sum(i: usize, field: &str) -> Json {
    let mut r = Json::obj();
    r.set("row", Json::u64(i as u64));
    r.set("sum", field.into());
    r
}

/// Scales a reference: `times(row(i, "p99_us"), 2.0)` resolves to twice
/// the field.
pub fn times(mut reference: Json, k: f64) -> Json {
    reference.set("times", Json::Num(k));
    reference
}

/// What one bench kind measured and what must hold of it.
#[derive(Clone, Debug)]
pub struct BenchReport {
    bench: &'static str,
    seed: u64,
    meta: Json,
    rows: Vec<Json>,
    gates: Vec<Json>,
}

impl BenchReport {
    /// An empty report for bench kind `bench` run at `seed`.
    pub fn new(bench: &'static str, seed: u64) -> BenchReport {
        BenchReport {
            bench,
            seed,
            meta: Json::obj(),
            rows: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records a run-wide fact (sweep parameters, or an outcome that
    /// is not a row field, such as how many runs aborted).
    pub fn set_meta(&mut self, key: &str, value: impl Into<Json>) {
        self.meta.set(key, value.into());
    }

    /// Appends a row and returns its index for gates to reference.
    pub fn push(&mut self, row: Json) -> usize {
        self.rows.push(row);
        self.rows.len() - 1
    }

    /// Declares that `lhs op rhs` must hold; operands are literals or
    /// the references [`row`], [`row_sum`], [`meta`] and [`times`]
    /// build.
    pub fn gate(
        &mut self,
        name: impl Into<String>,
        lhs: impl Into<Json>,
        op: &str,
        rhs: impl Into<Json>,
    ) {
        let mut g = Json::obj();
        g.set("name", Json::Str(name.into()));
        g.set("lhs", lhs.into());
        g.set("op", Json::str(op));
        g.set("rhs", rhs.into());
        self.gates.push(g);
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[Json] {
        &self.rows
    }

    /// The gates declared so far, as they will be written.
    pub fn gates(&self) -> &[Json] {
        &self.gates
    }

    /// The report as it is written to `BENCH_<kind>.json`.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.set("bench", Json::str(self.bench));
        root.set("seed", Json::u64(self.seed));
        root.set("meta", self.meta.clone());
        root.set("rows", Json::Arr(self.rows.clone()));
        root.set("gates", Json::Arr(self.gates.clone()));
        root
    }

    /// Checks a parsed report: shape (string `bench`, integer `seed`,
    /// non-empty `rows` of objects where rows of the same `kind` share
    /// one key set, a `gates` array naming no gate twice), then every
    /// gate — references
    /// must resolve and the comparison, recomputed from the referenced
    /// fields, must hold.
    ///
    /// # Errors
    ///
    /// A malformed report yields the first shape error; a well-formed
    /// one yields one message per gate that fails or cannot be
    /// evaluated.
    pub fn check(v: &Json) -> Result<(), Vec<String>> {
        let shape = |e: &str| Err(vec![e.to_string()]);
        if v.get("bench").and_then(Json::as_str).is_none() {
            return shape("missing string `bench`");
        }
        if v.get("seed").and_then(Json::as_u64).is_none() {
            return shape("missing integer `seed`");
        }
        let meta = v.get("meta");
        if meta.is_some_and(|m| m.as_obj().is_none()) {
            return shape("`meta` must be an object");
        }
        let Some(rows) = v.get("rows").and_then(Json::as_arr) else {
            return shape("missing `rows` array");
        };
        if rows.is_empty() {
            return shape("`rows` is empty");
        }
        let mut key_sets: Vec<(Option<&str>, Vec<&str>)> = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            let Some(entries) = r.as_obj() else {
                return shape(&format!("row {i} is not an object"));
            };
            let kind = r.get("kind").and_then(Json::as_str);
            let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            match key_sets.iter().find(|(k, _)| *k == kind) {
                Some((_, first)) if *first != keys => {
                    let kind = kind.unwrap_or("(no kind)");
                    return shape(&format!(
                        "row {i}: keys differ from the earlier `{kind}` rows"
                    ));
                }
                Some(_) => {}
                None => key_sets.push((kind, keys)),
            }
        }
        let Some(gates) = v.get("gates").and_then(Json::as_arr) else {
            return shape("missing `gates` array");
        };
        let mut names: Vec<&str> = gates
            .iter()
            .filter_map(|g| g.get("name")?.as_str())
            .collect();
        names.sort_unstable();
        if let Some(twice) = names.windows(2).find(|w| w[0] == w[1]) {
            return shape(&format!("gate `{}` is declared twice", twice[0]));
        }
        let errors: Vec<String> = gates
            .iter()
            .filter_map(|g| eval(g, rows, meta).err())
            .collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

/// Resolves a gate operand to a scalar: `Json::Num` (booleans as 0/1)
/// or `Json::Str`.
fn resolve(operand: &Json, rows: &[Json], meta: Option<&Json>) -> Result<Json, String> {
    let scalar = |v: &Json| match v {
        Json::Num(_) | Json::Str(_) => Ok(v.clone()),
        Json::Bool(b) => Ok(Json::Num(f64::from(u8::from(*b)))),
        Json::Null | Json::Arr(_) | Json::Obj(_) => Err("is not a scalar".to_string()),
    };
    if operand.as_obj().is_none() {
        return scalar(operand);
    }
    let path = |key: &str| operand.get(key).and_then(Json::as_str);
    let (path, sum) = match (path("field"), path("sum")) {
        (Some(p), None) => (p, false),
        (None, Some(p)) => (p, true),
        (None, None) | (Some(_), Some(_)) => {
            return Err("needs exactly one string `field` or `sum`".to_string());
        }
    };
    let base = match operand.get("row") {
        None => meta.ok_or("report has no `meta` object")?,
        Some(i) => {
            let i = i.as_u64().ok_or("`row` is not an index")?;
            rows.get(i as usize).ok_or_else(|| format!("no row {i}"))?
        }
    };
    let at = base
        .at(path)
        .ok_or_else(|| format!("does not resolve: no `{path}`"))?;
    let value = if sum {
        let members = at.as_obj().ok_or("is not an object to sum")?;
        let mut total = 0.0;
        for (key, v) in members {
            total += v
                .as_f64()
                .ok_or_else(|| format!("`{key}` is not a number"))?;
        }
        Json::Num(total)
    } else {
        scalar(at)?
    };
    match (operand.get("times"), value) {
        (None, value) => Ok(value),
        (Some(k), Json::Num(n)) => Ok(Json::Num(n * k.as_f64().ok_or("`times` is not a number")?)),
        (Some(_), _other) => Err("cannot scale a string".to_string()),
    }
}

/// Recomputes one gate against the report's rows and `meta`.
fn eval(gate: &Json, rows: &[Json], meta: Option<&Json>) -> Result<(), String> {
    let name = gate
        .get("name")
        .and_then(Json::as_str)
        .ok_or("gate without a string `name`")?;
    let part = |key: &str| {
        gate.get(key)
            .ok_or_else(|| format!("gate `{name}`: missing `{key}`"))
    };
    let side = |key: &str| {
        let operand = part(key)?;
        let value = resolve(operand, rows, meta)
            .map_err(|e| format!("gate `{name}`: `{}` {e}", operand.dump()))?;
        Ok::<_, String>((operand, value))
    };
    let op = part("op")?.as_str().unwrap_or_default();
    let ((lhs, l), (rhs, r)) = (side("lhs")?, side("rhs")?);
    let (ord, ordered) = match (&l, &r) {
        (Json::Num(a), Json::Num(b)) => (a.partial_cmp(b), true),
        (Json::Str(a), Json::Str(b)) => (Some(a.cmp(b)), false),
        (l, r) => {
            return Err(format!(
                "gate `{name}`: cannot compare {} with {}",
                l.dump(),
                r.dump()
            ));
        }
    };
    let ord = ord.ok_or_else(|| format!("gate `{name}`: comparison with NaN"))?;
    let holds = match op {
        "==" => ord == Ordering::Equal,
        "!=" => ord != Ordering::Equal,
        "<" | "<=" | ">" | ">=" if !ordered => {
            return Err(format!("gate `{name}`: ordering op `{op}` on strings"));
        }
        "<" => ord == Ordering::Less,
        "<=" => ord != Ordering::Greater,
        ">" => ord == Ordering::Greater,
        ">=" => ord != Ordering::Less,
        unknown => return Err(format!("gate `{name}`: unknown op `{unknown}`")),
    };
    if holds {
        Ok(())
    } else {
        Err(format!(
            "gate `{name}` failed: {} = {} {op} {} = {}",
            lhs.dump(),
            l.dump(),
            rhs.dump(),
            r.dump()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-row report with a nested object, a string field and two
    /// `meta` facts, plus whatever gates the test declares.
    fn report(gates: impl FnOnce(&mut BenchReport)) -> Json {
        let mut rep = BenchReport::new("unit", 7);
        rep.set_meta("failed_runs", 0u64);
        rep.set_meta("calibration", Json::Obj(vec![("ratio".into(), 6.5.into())]));
        for (col, intr, p99) in [("Base", 12u64, 80.0), ("GeNIMA", 0, 40.0)] {
            let segs = vec![("wire".into(), 30u64.into()), ("fw".into(), 12u64.into())];
            let mut r = Json::obj();
            r.set("column", col.into());
            r.set("interrupts", intr.into());
            r.set("p99_us", Json::Num(p99));
            r.set("total_ns", 42u64.into());
            r.set("segments_ns", Json::Obj(segs));
            r.set("clean", true.into());
            rep.push(r);
        }
        gates(&mut rep);
        rep.to_json()
    }

    fn errors(v: &Json) -> Vec<String> {
        BenchReport::check(v).expect_err("report must be rejected")
    }

    /// The single error a one-gate report is rejected with.
    fn gate_error(lhs: Json, op: &str, rhs: impl Into<Json>) -> String {
        let mut e = errors(&report(|r| r.gate("g", lhs, op, rhs)));
        assert_eq!(e.len(), 1, "{e:?}");
        e.remove(0)
    }

    #[test]
    fn references_resolve_into_rows_nested_objects_and_meta() {
        let v = report(|r| {
            r.gate("row field", row(1, "interrupts"), "==", 0u64);
            r.gate("nested", row(0, "segments_ns.wire"), "==", 30u64);
            r.gate("sum", row_sum(0, "segments_ns"), "==", row(0, "total_ns"));
            r.gate("meta", meta("failed_runs"), "==", 0u64);
            r.gate("meta nested", meta("calibration.ratio"), ">=", 5.0);
            r.gate("bool as 0/1", row(0, "clean"), "==", true);
            r.gate("string", row(0, "column"), "!=", row(1, "column"));
            r.gate(
                "scaled",
                row(0, "p99_us"),
                ">=",
                times(row(1, "p99_us"), 2.0),
            );
        });
        assert_eq!(BenchReport::check(&v), Ok(()));
        // The written form round-trips through text.
        let reparsed = Json::parse(&v.dump()).expect("emitted JSON parses");
        assert_eq!(BenchReport::check(&reparsed), Ok(()));
    }

    #[test]
    fn every_op_is_recomputed() {
        for (op, holds_lt, holds_eq, holds_gt) in [
            ("==", false, true, false),
            ("!=", true, false, true),
            ("<", true, false, false),
            ("<=", true, true, false),
            (">", false, false, true),
            (">=", false, true, true),
        ] {
            for (rhs, expect) in [(50.0, holds_lt), (40.0, holds_eq), (30.0, holds_gt)] {
                let v = report(|r| r.gate("g", row(1, "p99_us"), op, rhs));
                assert_eq!(BenchReport::check(&v).is_ok(), expect, "40 {op} {rhs}");
            }
        }
    }

    #[test]
    fn a_failed_gate_names_itself_and_both_resolved_sides() {
        let v = report(|r| r.gate("Base is interrupt-free", row(0, "interrupts"), "==", 0u64));
        assert_eq!(
            errors(&v),
            vec![
                "gate `Base is interrupt-free` failed: \
                 {\"row\":0,\"field\":\"interrupts\"} = 12 == 0 = 0"
            ]
        );
    }

    #[test]
    fn malformed_gates_are_rejected() {
        assert!(gate_error(row(0, "interrupts"), "=~", 12u64).contains("unknown op `=~`"));
        assert!(gate_error(row(0, "nope"), "==", 0u64).contains("does not resolve"));
        assert!(gate_error(row(9, "interrupts"), "==", 0u64).contains("no row 9"));
        assert!(gate_error(meta("nope"), "==", 0u64).contains("does not resolve"));
        assert!(gate_error(row(0, "segments_ns"), "==", 0u64).contains("not a scalar"));
        assert!(gate_error(row_sum(0, "column"), "==", 0u64).contains("not an object to sum"));
        assert!(gate_error(Json::obj(), "==", 0u64).contains("exactly one"));
        assert!(gate_error(row(0, "column"), "<", "GeNIMA").contains("ordering op `<` on strings"));
        assert!(gate_error(row(0, "column"), "==", 0u64).contains("cannot compare"));
        assert!(gate_error(times(row(0, "column"), 2.0), "==", "x").contains("cannot scale"));
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        let good = report(|_| {}).dump();
        for (from, to, why) in [
            (
                "\"bench\":\"unit\"",
                "\"bench\":3",
                "missing string `bench`",
            ),
            ("\"seed\":7", "\"seed\":\"x\"", "missing integer `seed`"),
            ("\"seed\":7", "\"seed\":1.5", "missing integer `seed`"),
            ("\"gates\":[]", "\"gatez\":[]", "missing `gates` array"),
            (
                "\"meta\":{",
                "\"meta\":[],\"m\":{",
                "`meta` must be an object",
            ),
            ("\"rows\":[", "\"rows\":[],\"r\":[", "`rows` is empty"),
            ("\"rows\":[", "\"rows\":[3,", "row 0 is not an object"),
        ] {
            let v = Json::parse(&good.replace(from, to)).expect("fixture parses");
            assert_eq!(errors(&v), vec![why.to_string()], "{to}");
        }
    }

    #[test]
    fn a_gate_name_declared_twice_is_rejected() {
        let v = report(|r| {
            r.gate("GeNIMA is interrupt-free", row(1, "interrupts"), "==", 0u64);
            r.gate("Base wire", row(0, "segments_ns.wire"), "==", 30u64);
            r.gate("GeNIMA is interrupt-free", meta("failed_runs"), "==", 0u64);
        });
        let twice = "gate `GeNIMA is interrupt-free` is declared twice";
        assert_eq!(errors(&v), vec![twice.to_string()]);
    }

    #[test]
    fn rows_of_one_kind_share_one_key_set() {
        let rows = |second: &str| {
            let text = format!(
                "{{\"bench\":\"unit\",\"seed\":1,\"gates\":[],\"rows\":[\
                 {{\"kind\":\"hold\",\"pending\":1}},{second},\
                 {{\"kind\":\"system\",\"events\":5}}]}}"
            );
            Json::parse(&text).expect("fixture parses")
        };
        // Kinds may differ from each other; key order within one does
        // not matter.
        let v = rows("{\"pending\":2,\"kind\":\"hold\"}");
        assert_eq!(BenchReport::check(&v), Ok(()));
        let v = rows("{\"kind\":\"hold\",\"pending\":2,\"extra\":0}");
        assert!(errors(&v)[0].contains("row 1: keys differ from the earlier `hold` rows"));
        let v = rows("{\"kind\":\"system\",\"pending\":2}");
        assert!(errors(&v)[0].contains("row 2: keys differ from the earlier `system` rows"));
    }
}
