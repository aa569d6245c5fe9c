//! Whole-run profiles: group a recorder's output by operation, extract
//! every critical path, and summarize per op class.

use crate::dag::OpDag;
use crate::segment::Breakdown;
use genima_obs::{ObsReport, OpClass, SpanRecord};
use genima_sim::{Dur, Histogram};
use std::collections::BTreeMap;
use std::fmt;

/// One profiled operation: its measured latency and where that time
/// went.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// The operation id.
    pub op: u64,
    /// Decoded class.
    pub class: OpClass,
    /// End-to-end latency (envelope over all the op's records).
    pub latency: Dur,
    /// Per-segment attribution; totals `latency` exactly.
    pub breakdown: Breakdown,
}

/// Latency summary for one op class.
#[derive(Clone, Debug, Default)]
pub struct ClassSummary {
    /// Number of operations of this class.
    pub count: u64,
    /// Latency distribution (p50/p95/p99 via [`Histogram`]).
    pub hist: Histogram,
    /// Summed per-segment attribution across the class's ops.
    pub breakdown: Breakdown,
}

/// The analyzer's refusal to attribute over a truncated timeline: some
/// node's ring evicted records, so op windows may be missing activity
/// and any "attribution sums to latency" claim would be unsound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated {
    /// Total records evicted across all nodes.
    pub dropped: u64,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timeline truncated: {} record(s) evicted from ring buffers; \
             complete attribution is unavailable (raise ObsConfig ring \
             capacity)",
            self.dropped
        )
    }
}

/// Everything the profiler extracted from one run's trace.
#[derive(Clone, Debug)]
pub struct Profile {
    /// One entry per operation seen in the trace, in op-id order.
    pub ops: Vec<OpProfile>,
    /// Total records evicted across all nodes' rings.
    pub dropped: u64,
}

impl Profile {
    /// Whether every node's timeline survived intact.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// The profiled operations, *only* when the trace is complete.
    /// Over a truncated timeline the analyzer refuses: evicted records
    /// can hide activity inside an op's window, so per-segment sums
    /// would silently misattribute time to queueing.
    pub fn audited_ops(&self) -> Result<&[OpProfile], Truncated> {
        if self.is_complete() {
            Ok(&self.ops)
        } else {
            Err(Truncated {
                dropped: self.dropped,
            })
        }
    }

    /// Per-class latency/attribution summaries over all profiled ops.
    pub fn by_class(&self) -> BTreeMap<OpClass, ClassSummary> {
        let mut out: BTreeMap<OpClass, ClassSummary> = BTreeMap::new();
        for op in &self.ops {
            let s = out.entry(op.class).or_default();
            s.count += 1;
            s.hist.record(op.latency);
            s.breakdown.merge(&op.breakdown);
        }
        out
    }

    /// Attribution summed over every profiled op.
    pub fn total_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for op in &self.ops {
            b.merge(&op.breakdown);
        }
        b
    }
}

/// Groups `records` into per-op DAGs. Records with `op == 0` (not
/// attributed to any operation) are ignored.
pub fn build_dags(records: &[SpanRecord]) -> Vec<OpDag> {
    let mut by_op: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for r in records {
        if r.op != 0 {
            by_op.entry(r.op).or_default().push(*r);
        }
    }
    by_op
        .into_iter()
        .filter_map(|(op, recs)| OpDag::new(op, recs))
        .collect()
}

/// Profiles one run: builds per-op DAGs from the report's records and
/// runs the critical-path sweep on each.
pub fn profile(report: &ObsReport) -> Profile {
    let ops = build_dags(&report.spans)
        .into_iter()
        .map(|dag| OpProfile {
            op: dag.op,
            class: dag.class,
            latency: dag.latency(),
            breakdown: dag.breakdown(),
        })
        .collect();
    Profile {
        ops,
        dropped: report.dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_obs::{op_fetch_id, op_lock_id, SpanKind, Track};
    use genima_sim::Time;

    fn span(kind: SpanKind, start: u64, end: u64, op: u64) -> SpanRecord {
        SpanRecord {
            kind,
            node: 0,
            track: Track::Host,
            start: Time::from_ns(start),
            dur: Dur::from_ns(end - start),
            arg: 0,
            flow: None,
            op,
        }
    }

    fn report(spans: Vec<SpanRecord>, dropped: u64) -> ObsReport {
        ObsReport { spans, dropped }
    }

    #[test]
    fn groups_ops_and_sums_attribution() {
        let f = op_fetch_id(1);
        let l = op_lock_id(1);
        let p = profile(&report(
            vec![
                span(SpanKind::PageFetch, 0, 100, f),
                span(SpanKind::LockAcquire, 50, 90, l),
                span(SpanKind::Interrupt, 20, 30, f),
                // Unattributed record: ignored.
                span(SpanKind::Interrupt, 0, 5, 0),
            ],
            0,
        ));
        assert_eq!(p.ops.len(), 2);
        assert!(p.is_complete());
        let audited = p.audited_ops().expect("complete trace");
        for op in audited {
            assert_eq!(op.breakdown.total(), op.latency);
        }
        let by = p.by_class();
        assert_eq!(by[&OpClass::Fetch].count, 1);
        assert_eq!(by[&OpClass::Lock].count, 1);
        assert_eq!(by[&OpClass::Fetch].breakdown.interrupt, Dur::from_ns(10));
    }

    #[test]
    fn truncated_timelines_are_refused() {
        let f = op_fetch_id(1);
        let p = profile(&report(vec![span(SpanKind::PageFetch, 0, 100, f)], 3));
        assert!(!p.is_complete());
        let err = p.audited_ops().expect_err("must refuse");
        assert_eq!(err.dropped, 3);
        assert!(err.to_string().contains("truncated"));
        // The raw (unaudited) ops remain inspectable.
        assert_eq!(p.ops.len(), 1);
    }
}
