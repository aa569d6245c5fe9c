//! The benchmark's own spans around its calls into each layer.
//!
//! Spans inside the program are a later change (ROADMAP item 1b); these
//! are recorded from outside, kept in memory and written once at exit.

use std::time::Instant;

use genima_obs::Json;

/// One recorded call: `{name, start_ns, end_ns, parent, run_id}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one simulator run (or one kernel) share an identifier.
    pub run_id: u32,
}

/// Handle returned by [`Spans::begin`]; `None` while recording is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// In-memory span log. Off for the end-to-end passes, so those time
/// nothing but the program.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    /// Starts a new run: later spans carry a fresh `run_id`.
    pub fn next_run(&mut self) {
        self.run_id += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Ends `id` and any span still open inside it (a panic caught by
    /// the harness unwinds past the inner `end` calls).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == idx {
                break;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: its duration minus the part its direct
    /// children cover.
    pub fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let own = Spans::self_times(&self.spans);
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some(row) => row.1 += t,
                None => by_name.push((s.name, t)),
            }
        }
        by_name.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
        by_name
    }

    pub fn to_json(&self) -> Json {
        let own = Spans::self_times(&self.spans);
        let rows = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                let mut o = Json::obj();
                o.set("name", Json::str(s.name));
                o.set("start_ns", Json::u64(s.start_ns));
                o.set("end_ns", Json::u64(s.end_ns));
                o.set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                );
                o.set("run_id", Json::u64(u64::from(s.run_id)));
                o.set("self_ns", Json::u64(self_ns));
                o
            })
            .collect();
        Json::Arr(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("run", 0, 100, None),
            span("setup", 10, 30, Some(0)),
            span("spec", 12, 20, Some(1)),
            span("try_run", 30, 90, Some(0)),
        ];
        // run: 100 - 20 - 60; setup: 20 - 8; the grandchild is charged
        // to its parent only.
        assert_eq!(Spans::self_times(&spans), vec![20, 12, 8, 60]);
    }

    #[test]
    fn nesting_parents_and_run_ids_are_recorded() {
        let mut s = Spans::new(true);
        s.next_run();
        let outer = s.begin("outer");
        let inner = s.begin("inner");
        s.end(inner);
        s.end(outer);
        s.next_run();
        let lone = s.begin("lone");
        s.end(lone);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, None);
        assert_eq!((s.spans[1].run_id, s.spans[2].run_id), (1, 2));
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);
    }

    #[test]
    fn ending_an_outer_span_closes_what_a_panic_left_open() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer");
        let _leaked = s.begin("inner");
        s.end(outer);
        assert!(s.open.is_empty());
        let next = s.begin("next");
        s.end(next);
        assert_eq!(s.spans[2].parent, None);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.begin("x");
        s.end(id);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn json_round_trips_through_the_obs_parser() {
        let mut s = Spans::new(true);
        s.next_run();
        let a = s.begin("proto.try_run");
        let b = s.begin("obs.take");
        s.end(b);
        s.end(a);
        let parsed = Json::parse(&s.to_json().dump()).expect("trace parses");
        let rows = parsed.as_arr().expect("array of spans");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("name").and_then(Json::as_str),
            Some("proto.try_run")
        );
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        assert_eq!(rows[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(rows[1].get("run_id").and_then(Json::as_u64), Some(1));
        let dur = |r: &Json| {
            r.get("end_ns").and_then(Json::as_u64).unwrap()
                - r.get("start_ns").and_then(Json::as_u64).unwrap()
        };
        assert_eq!(
            rows[0].get("self_ns").and_then(Json::as_u64),
            Some(dur(&rows[0]) - dur(&rows[1]))
        );
    }
}
