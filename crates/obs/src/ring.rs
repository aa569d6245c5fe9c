//! The recorder: bounded per-node ring buffers of [`SpanRecord`]s.
//!
//! The overhead contract: when observability is *off* no recorder is
//! constructed at all — instrumented components hold `Option<ObsHandle>
//! = None` and every emission site is a single branch on that option,
//! exactly the pattern the audit-trace sinks already use. When *on*,
//! each node's records live in a ring of fixed capacity; once full, the
//! oldest record is evicted and counted in `dropped`, so memory stays
//! bounded no matter how long the run is.

use crate::span::{Flow, SpanKind, SpanRecord, Track};
use genima_sim::{Dur, Time};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Shared handle to a [`Recorder`]; the simulator is single-threaded,
/// so `Rc<RefCell<…>>` suffices (same precedent as the fault
/// injector's `StatsHandle`).
pub type ObsHandle = Rc<RefCell<Recorder>>;

/// Observability configuration carried by `RunConfig`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether a recorder is installed at all.
    pub enabled: bool,
    /// Per-node ring capacity (records); ignored when disabled.
    pub ring_capacity: usize,
}

impl ObsConfig {
    /// Default per-node ring capacity.
    pub const DEFAULT_RING: usize = 1 << 16;

    /// Observability disabled: no recorder, no allocations, the run is
    /// bit-identical to an unobserved one.
    pub fn off() -> ObsConfig {
        ObsConfig {
            enabled: false,
            ring_capacity: 0,
        }
    }

    /// Observability enabled with the default ring capacity.
    pub fn on() -> ObsConfig {
        ObsConfig {
            enabled: true,
            ring_capacity: ObsConfig::DEFAULT_RING,
        }
    }

    /// Enabled with an explicit per-node ring capacity (min 1).
    pub fn with_capacity(cap: usize) -> ObsConfig {
        ObsConfig {
            enabled: true,
            ring_capacity: cap.max(1),
        }
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::off()
    }
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<SpanRecord>,
    dropped: u64,
}

/// Collects [`SpanRecord`]s into bounded per-node rings.
///
/// The recorder also carries the run's *tag→op* binding table: the
/// protocol layer binds each wire tag it allocates to the operation it
/// serves, and every downstream emission site (NI firmware, wire
/// delivery) resolves the packet's tag back to the op id without the
/// wire formats knowing anything about tracing.
#[derive(Debug)]
pub struct Recorder {
    rings: Vec<Ring>,
    capacity: usize,
    ops: HashMap<u64, u64>,
}

impl Recorder {
    /// Creates a recorder for `nodes` nodes with per-node `capacity`.
    pub fn new(nodes: usize, capacity: usize) -> Recorder {
        let capacity = capacity.max(1);
        let mut rings = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            rings.push(Ring::default());
        }
        Recorder {
            rings,
            capacity,
            ops: HashMap::new(),
        }
    }

    /// Binds wire tag `tag` to operation `op`. Tag `0` (`Tag::NONE`)
    /// and op `0` are never bound.
    pub fn bind_op(&mut self, tag: u64, op: u64) {
        if tag != 0 && op != 0 {
            self.ops.insert(tag, op);
        }
    }

    /// The operation bound to `tag`, or `0` when unbound.
    pub fn op_for(&self, tag: u64) -> u64 {
        self.ops.get(&tag).copied().unwrap_or(0)
    }

    /// Removes a tag binding once its pending transaction is consumed.
    pub fn unbind_op(&mut self, tag: u64) {
        self.ops.remove(&tag);
    }

    /// Creates a shared handle per `cfg`; `None` when disabled.
    pub fn shared(nodes: usize, cfg: &ObsConfig) -> Option<ObsHandle> {
        if cfg.enabled {
            Some(Rc::new(RefCell::new(Recorder::new(
                nodes,
                cfg.ring_capacity,
            ))))
        } else {
            None
        }
    }

    /// Appends a record, evicting the oldest when the node's ring is
    /// full. Rings grow on demand if `node` exceeds the initial count.
    pub fn record(&mut self, rec: SpanRecord) {
        while self.rings.len() <= rec.node {
            self.rings.push(Ring::default());
        }
        let ring = &mut self.rings[rec.node];
        if ring.buf.len() >= self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(rec);
    }

    /// Records a span from `start` to `end` on a node's track.
    pub fn span(
        &mut self,
        kind: SpanKind,
        node: usize,
        track: Track,
        start: Time,
        end: Time,
        arg: u64,
    ) {
        self.span_op(kind, node, track, start, end, arg, 0);
    }

    /// Records a span attributed to operation `op` (`0` = none).
    #[allow(clippy::too_many_arguments)]
    pub fn span_op(
        &mut self,
        kind: SpanKind,
        node: usize,
        track: Track,
        start: Time,
        end: Time,
        arg: u64,
        op: u64,
    ) {
        self.record(SpanRecord {
            kind,
            node,
            track,
            start,
            dur: end.saturating_since(start),
            arg,
            flow: None,
            op,
        });
    }

    /// Records a zero-duration instant.
    pub fn instant(&mut self, kind: SpanKind, node: usize, track: Track, at: Time, arg: u64) {
        self.instant_op(kind, node, track, at, arg, 0);
    }

    /// Records an instant attributed to operation `op` (`0` = none).
    pub fn instant_op(
        &mut self,
        kind: SpanKind,
        node: usize,
        track: Track,
        at: Time,
        arg: u64,
        op: u64,
    ) {
        self.record(SpanRecord {
            kind,
            node,
            track,
            start: at,
            dur: Dur::ZERO,
            arg,
            flow: None,
            op,
        });
    }

    /// Records an instant that is one endpoint of a flow arrow,
    /// attributed to operation `op`.
    #[allow(clippy::too_many_arguments)]
    pub fn instant_flow_op(
        &mut self,
        kind: SpanKind,
        node: usize,
        track: Track,
        at: Time,
        arg: u64,
        flow: Flow,
        op: u64,
    ) {
        self.record(SpanRecord {
            kind,
            node,
            track,
            start: at,
            dur: Dur::ZERO,
            arg,
            flow: Some(flow),
            op,
        });
    }

    /// Total records currently held across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.buf.len()).sum()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every ring into a time-sorted [`ObsReport`].
    pub fn take(&mut self) -> ObsReport {
        let mut spans = Vec::with_capacity(self.len());
        let mut dropped = 0;
        for ring in &mut self.rings {
            spans.extend(ring.buf.drain(..));
            dropped += ring.dropped;
            ring.dropped = 0;
        }
        self.ops.clear();
        spans.sort_by_key(|s| (s.start, s.node, s.track.tid(), s.kind.name()));
        ObsReport { spans, dropped }
    }
}

/// The drained result of an observed run.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// All records, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Records evicted because a ring overflowed. A non-zero count
    /// means some node's timeline is truncated and attribution over it
    /// is incomplete.
    pub dropped: u64,
}

impl ObsReport {
    /// Number of records of one kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }

    /// Iterator over records of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: usize, ns: u64) -> SpanRecord {
        SpanRecord {
            kind: SpanKind::PageFetch,
            node,
            track: Track::Host,
            start: Time::from_ns(ns),
            dur: Dur::from_ns(10),
            arg: 0,
            flow: None,
            op: 0,
        }
    }

    #[test]
    fn off_config_creates_no_handle() {
        assert!(Recorder::shared(4, &ObsConfig::off()).is_none());
        assert!(Recorder::shared(4, &ObsConfig::on()).is_some());
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut r = Recorder::new(1, 3);
        for i in 0..5 {
            r.record(rec(0, i));
        }
        let report = r.take();
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.dropped, 2);
        // Oldest evicted: survivors are 2, 3, 4.
        assert_eq!(report.spans[0].start, Time::from_ns(2));
    }

    #[test]
    fn op_bindings_resolve_and_clear() {
        let mut r = Recorder::new(1, 8);
        r.bind_op(7, 42);
        r.bind_op(0, 99); // Tag::NONE never binds
        assert_eq!(r.op_for(7), 42);
        assert_eq!(r.op_for(0), 0);
        r.unbind_op(7);
        assert_eq!(r.op_for(7), 0);
    }

    #[test]
    fn take_sorts_across_nodes() {
        let mut r = Recorder::new(2, 16);
        r.record(rec(1, 50));
        r.record(rec(0, 20));
        r.record(rec(1, 10));
        let report = r.take();
        let starts: Vec<u64> = report.spans.iter().map(|s| s.start.as_ns()).collect();
        assert_eq!(starts, vec![10, 20, 50]);
        assert!(r.take().spans.is_empty());
    }

    #[test]
    fn rings_grow_on_demand() {
        let mut r = Recorder::new(1, 8);
        r.record(rec(5, 1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.take().spans[0].node, 5);
    }

    #[test]
    fn report_count_by_kind() {
        let mut r = Recorder::new(1, 8);
        r.span(
            SpanKind::LockAcquire,
            0,
            Track::Host,
            Time::from_ns(0),
            Time::from_ns(5),
            9,
        );
        r.instant(
            SpanKind::Retransmit,
            0,
            Track::Firmware,
            Time::from_ns(3),
            1,
        );
        let report = r.take();
        assert_eq!(report.count(SpanKind::LockAcquire), 1);
        assert_eq!(report.count(SpanKind::Retransmit), 1);
        assert_eq!(report.count(SpanKind::PageFetch), 0);
        assert_eq!(
            report.of_kind(SpanKind::LockAcquire).next().map(|s| s.arg),
            Some(9)
        );
    }
}
