//! Chrome `trace_event` / Perfetto timeline export.
//!
//! A run becomes a JSON array of trace events: one process per node,
//! two threads per process (host and NI firmware). Spans are `ph:"X"`
//! complete events, instants are `ph:"i"`, and correlated pairs
//! (direct-diff deposit → apply, NI lock grant sent → received) add
//! `ph:"s"`/`ph:"f"` flow events so the cross-node handoffs render as
//! arrows. Open the file at <https://ui.perfetto.dev> or
//! `chrome://tracing`.

use crate::json::Json;
use crate::span::{FlowDir, SpanRecord};

fn base_event(rec: &SpanRecord, ph: &str) -> Json {
    let mut ev = Json::obj();
    ev.set("name", Json::str(rec.kind.name()))
        .set("cat", Json::str(rec.kind.category()))
        .set("ph", Json::str(ph))
        .set("ts", Json::num(rec.start.as_us()))
        .set("pid", Json::u64(rec.node as u64))
        .set("tid", Json::u64(rec.track.tid()));
    ev
}

fn meta_event(node: usize, name: &str, tid: Option<u64>, value: &str) -> Json {
    let mut args = Json::obj();
    args.set("name", Json::str(value));
    let mut ev = Json::obj();
    ev.set("name", Json::str(name))
        .set("ph", Json::str("M"))
        .set("ts", Json::num(0.0))
        .set("pid", Json::u64(node as u64));
    if let Some(t) = tid {
        ev.set("tid", Json::u64(t));
    }
    ev.set("args", args);
    ev
}

/// Renders records as a `trace_event` JSON array (the "JSON array
/// format": a plain array of event objects, which both Perfetto and
/// `chrome://tracing` accept).
pub fn timeline_json(spans: &[SpanRecord]) -> String {
    let mut events = Vec::new();
    let nodes = spans.iter().map(|s| s.node + 1).max().unwrap_or(0);
    for node in 0..nodes {
        events.push(meta_event(
            node,
            "process_name",
            None,
            &format!("node {node}"),
        ));
        events.push(meta_event(node, "thread_name", Some(0), "host"));
        events.push(meta_event(node, "thread_name", Some(1), "ni-firmware"));
    }
    for rec in spans {
        if rec.kind.is_instant() {
            let mut ev = base_event(rec, "i");
            ev.set("s", Json::str("t"));
            let mut args = Json::obj();
            args.set("arg", Json::u64(rec.arg));
            if rec.op != 0 {
                args.set("op", Json::u64(rec.op));
            }
            ev.set("args", args);
            events.push(ev);
        } else {
            let mut ev = base_event(rec, "X");
            ev.set("dur", Json::num(rec.dur.as_us()));
            let mut args = Json::obj();
            args.set("arg", Json::u64(rec.arg));
            if rec.op != 0 {
                args.set("op", Json::u64(rec.op));
            }
            ev.set("args", args);
            events.push(ev);
        }
        if let Some(flow) = rec.flow {
            let ph = match flow.dir {
                FlowDir::Start => "s",
                FlowDir::Finish => "f",
            };
            // Flow names must match at both endpoints for the arrow to
            // bind, so both sides emit the shared name "flow".
            let mut ev = Json::obj();
            ev.set("name", Json::str("flow"))
                .set("cat", Json::str(rec.kind.category()))
                .set("ph", Json::str(ph))
                .set("ts", Json::num(rec.start.as_us()))
                .set("pid", Json::u64(rec.node as u64))
                .set("tid", Json::u64(rec.track.tid()))
                .set("id", Json::u64(flow.id));
            if flow.dir == FlowDir::Finish {
                ev.set("bp", Json::str("e"));
            }
            events.push(ev);
        }
    }
    Json::Arr(events).dump()
}

/// Summary statistics of a parsed trace, returned by
/// [`validate_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events, including metadata.
    pub events: usize,
    /// `ph:"X"` complete events.
    pub complete: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"s"`/`ph:"f"` flow events.
    pub flows: usize,
    /// `ph:"M"` metadata events.
    pub metadata: usize,
}

/// Checks that `text` is a structurally valid `trace_event` JSON
/// array: every element an object carrying `name`/`ph`/`ts`/`pid`
/// (plus `dur` on complete events). Returns per-phase counts.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let parsed = Json::parse(text).map_err(|e| e.to_string())?;
    let events = parsed
        .as_arr()
        .ok_or_else(|| "trace is not a JSON array".to_string())?;
    let mut stats = TraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        if ev.as_obj().is_none() {
            return Err(format!("event {i} is not an object"));
        }
        for key in ["name", "ph", "ts", "pid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} is missing {key:?}"));
            }
        }
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i} has a non-string ph"))?;
        stats.events += 1;
        match ph {
            "X" => {
                if ev.get("dur").and_then(|d| d.as_f64()).is_none() {
                    return Err(format!("complete event {i} is missing dur"));
                }
                stats.complete += 1;
            }
            "i" => stats.instants += 1,
            "s" | "f" => {
                if ev.get("id").is_none() {
                    return Err(format!("flow event {i} is missing id"));
                }
                stats.flows += 1;
            }
            "M" => stats.metadata += 1,
            other => return Err(format!("event {i} has unknown phase {other:?}")),
        }
    }
    Ok(stats)
}

/// Number of events named `name` in a parsed-and-validated trace.
/// Returns 0 on malformed input (validate first for diagnostics).
pub fn count_named(text: &str, name: &str) -> usize {
    match Json::parse(text) {
        Ok(parsed) => parsed
            .as_arr()
            .map(|events| {
                events
                    .iter()
                    .filter(|ev| ev.get("name").and_then(|n| n.as_str()) == Some(name))
                    .count()
            })
            .unwrap_or(0),
        Err(e) => {
            let _parse_failure = e;
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Recorder;
    use crate::span::{flow_lock_id, Flow, SpanKind, Track};
    use genima_sim::Time;

    fn sample_spans() -> Vec<SpanRecord> {
        let mut r = Recorder::new(2, 64);
        r.span(
            SpanKind::PageFetch,
            0,
            Track::Host,
            Time::from_ns(1000),
            Time::from_ns(21000),
            7,
        );
        r.instant(SpanKind::FetchRetry, 0, Track::Host, Time::from_ns(5000), 7);
        r.span(
            SpanKind::NiLockService,
            1,
            Track::Firmware,
            Time::from_ns(2000),
            Time::from_ns(4000),
            3,
        );
        let id = flow_lock_id(3, 41);
        r.instant_flow_op(
            SpanKind::NiLockGrant,
            1,
            Track::Firmware,
            Time::from_ns(4000),
            3,
            Flow {
                id,
                dir: FlowDir::Start,
            },
            0,
        );
        r.instant_flow_op(
            SpanKind::NiLockGrant,
            0,
            Track::Firmware,
            Time::from_ns(9000),
            3,
            Flow {
                id,
                dir: FlowDir::Finish,
            },
            0,
        );
        r.take().spans
    }

    #[test]
    fn timeline_is_valid_trace_event_array() {
        let text = timeline_json(&sample_spans());
        let stats = validate_trace(&text).expect("valid trace");
        // 2 nodes × 3 metadata, 2 complete, 3 instants, 2 flows.
        assert_eq!(stats.metadata, 6);
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.instants, 3);
        assert_eq!(stats.flows, 2);
        assert_eq!(stats.events, 13);
    }

    #[test]
    fn flow_endpoints_share_id_and_name() {
        let text = timeline_json(&sample_spans());
        let parsed = Json::parse(&text).expect("parse");
        let flows: Vec<&Json> = parsed
            .as_arr()
            .expect("array")
            .iter()
            .filter(|ev| {
                let ph = ev.get("ph").and_then(|p| p.as_str());
                ph == Some("s") || ph == Some("f")
            })
            .collect();
        assert_eq!(flows.len(), 2);
        assert_eq!(
            flows[0].get("id").and_then(|v| v.as_u64()),
            flows[1].get("id").and_then(|v| v.as_u64())
        );
        assert_eq!(flows[0].get("name").and_then(|v| v.as_str()), Some("flow"));
    }

    #[test]
    fn count_named_finds_kinds() {
        let text = timeline_json(&sample_spans());
        assert_eq!(count_named(&text, "page_fetch"), 1);
        assert_eq!(count_named(&text, "interrupt"), 0);
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(validate_trace("{}").is_err());
        assert!(validate_trace("[{\"name\":\"x\"}]").is_err());
        assert!(
            validate_trace("[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":0}]").is_err(),
            "complete event without dur must fail"
        );
        assert!(validate_trace("[]").expect("empty array is fine").events == 0);
    }

    #[test]
    fn ts_and_dur_are_microseconds() {
        let text = timeline_json(&sample_spans());
        let parsed = Json::parse(&text).expect("parse");
        let fetch = parsed
            .as_arr()
            .expect("array")
            .iter()
            .find(|ev| ev.get("name").and_then(|n| n.as_str()) == Some("page_fetch"))
            .expect("page_fetch present");
        assert_eq!(fetch.get("ts").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(fetch.get("dur").and_then(|v| v.as_f64()), Some(20.0));
    }
}
