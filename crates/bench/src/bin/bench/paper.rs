//! `bench paper` — the paper's evaluation (§3–§5): Figures 1–4,
//! Tables 1–5, the §5 problem-size sweep and nine ablations, run,
//! printed and gated in one report. The tables print from the rows.
//!
//! Rows, one key set per `kind`:
//!
//! * `cell` — one traced run per (application, column) on 4×4:
//!   parallel time, speedup, category shares, the mean breakdown
//!   (Figure 3, Tables 1–2), every protocol counter, the firmware
//!   monitor's contention ratios keyed by size class and stage (Tables
//!   3–4; `null` where a stage saw no packet, the paper's `-`) beside
//!   the class's packet count, the pinned bytes summed over nodes; the
//!   hardware profile, the RNIC's own counters (doorbells, CQEs, ODP
//!   faults) and the per-op-kind latency tails; and the critical-path
//!   attribution of the run's trace (`genima-prof`): the audited ops,
//!   their interrupt / firmware / wire / host-handler / queue-retry
//!   segment totals, the interrupt share and each op class's
//!   p50/p95/p99;
//! * `origin` — the Origin 2000 model on 4×4 and 8×4 (Figures 1/4,
//!   Table 5);
//! * `genima_8x4` — GeNIMA on 8×4 (Table 5);
//! * `size` — Base and GeNIMA across problem sizes (§5);
//! * `ablation` — one per variant of each study in [`ABLATIONS`].
//!
//! Gates: every line of [`CELL_CLAIMS`] and [`ABLATION_CLAIMS`] — the
//! paper's shape claims, the 2025 hardware's floors and each
//! ablation's finding, as data; per application, GeNIMA beats Base
//! (Barnes-spatial loses), the Origin beats Base, GeNIMA gains from 16
//! to 32 processors and the Origin beats it there, Base takes
//! interrupts and the interrupt-free columns none, large messages see a
//! LANai ratio ≤ 3 on the 1999 columns, GeNIMA-2025 beats GeNIMA and
//! rings doorbells and posts CQEs where the LANai GeNIMA has none; per
//! cell, the critical-path segments sum to `total_ns`, with interrupt
//! time on Base's and none on the interrupt-free columns'; every
//! audited op's segments sum to its latency; the GeNIMA improvement
//! falls with problem size; and the headline means stay in their
//! [`AVG_IMPROVEMENT`] bands. `APP...` narrows the sweep; a gate whose
//! rows it leaves out is not declared.

use std::collections::HashMap;

use genima::{
    app_by_name, run_app_on_hwdsm, sequential_time, App, Board, Column, Dur, FeatureSet, Json,
    ObsConfig, ObsReport, RunConfig, RunReport, SvmParams, Topology,
};
use genima_apps::{all_apps, Fft, WaterNsquared, WorkloadSpec};
use genima_nic::{LanaiConfig, LockImpl, SizeClass, Stage};
use genima_obs::bench::{meta, row, row_sum, times};
use genima_obs::{BenchReport, OpClass};
use genima_prof::{profile, Segment, Truncated};

use crate::{
    gate_failed_runs, gate_interrupt_free, gate_six_columns, rows, run_cell, table, text,
    topo_json, views, Args, Col, View,
};

/// A change to one run on top of its column's paper parameters: the
/// switches the ablations flip.
#[derive(Clone, Copy)]
enum Switch {
    Untouched,
    PostQueue(usize),
    Pipelined(bool),
    PullNotices,
    /// What an `mprotect` call costs per page past its first, in ns.
    MprotectExtraPageNs(u64),
    InterruptUs(u64),
    ScatterGather,
    Broadcast(bool),
    RemoteAtomics,
    /// The application's homes dropped; pages go to their first toucher.
    FirstTouch,
    /// The application's homes dropped; pages are striped round-robin.
    Striped,
}

use Switch::*;

impl Switch {
    fn apply(self, p: &mut SvmParams) {
        match self {
            PostQueue(depth) => lanai(p).post_queue_capacity = depth,
            Pipelined(on) => lanai(p).pipelined_sends = on,
            PullNotices => p.proto.pull_notices = true,
            MprotectExtraPageNs(ns) => p.hw.host.mprotect.per_extra_page = Dur::from_ns(ns),
            InterruptUs(us) => p.proto.interrupt_latency = Dur::from_us(us),
            ScatterGather => p.hw.nic.scatter_gather = true,
            Broadcast(on) => p.hw.nic.broadcast = on,
            RemoteAtomics => lanai(p).lock_impl = LockImpl::RemoteAtomics,
            FirstTouch => p.first_touch_homes = true,
            Untouched | Striped => {}
        }
    }
}

/// An application with its page homes dropped, the run of the
/// [`FirstTouch`] and [`Striped`] switches: every page is placed by
/// [`SvmParams::first_touch_homes`] or striped round-robin.
struct Homeless<'a>(&'a dyn App);

impl App for Homeless<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn problem(&self) -> String {
        self.0.problem()
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let mut spec = self.0.spec(topo);
        spec.homes.clear();
        spec
    }
}

/// The LANai board a switch tunes.
///
/// # Panics
///
/// Panics if the column runs on an RNIC: the LANai ablations have no
/// RNIC rows.
fn lanai(p: &mut SvmParams) -> &mut LanaiConfig {
    match &mut p.hw.board {
        Board::Lanai(lanai) => lanai,
        Board::Rnic(_) => panic!("a LANai switch on {}", p.hw.name),
    }
}

/// One run of a study: `(column, variant, switch)`.
type Variant = (&'static str, &'static str, Switch);

/// The nine ablation studies as `(study, app, variants)`; each variant
/// is a row keyed `study/column/variant`.
const ABLATIONS: [(&str, &str, &[Variant]); 9] = [
    // §3.3 remedy (i): a deeper post queue absorbs the direct-diff storm.
    (
        "post_queue",
        "Barnes-spatial",
        &[
            ("GeNIMA", "depth 8", PostQueue(8)),
            ("GeNIMA", "depth 16", PostQueue(16)),
            ("GeNIMA", "depth 32", PostQueue(32)),
            ("GeNIMA", "depth 64", PostQueue(64)),
            ("GeNIMA", "depth 256", PostQueue(256)),
        ],
    ),
    // §3.3 remedy (iii), the NT firmware: the source DMA overlaps the
    // next pick, so the post queue drains faster.
    (
        "pipelining",
        "Barnes-spatial",
        &[
            ("DW+RF", "serial", Pipelined(false)),
            ("DW+RF", "pipelined", Pipelined(true)),
            ("GeNIMA", "serial", Pipelined(false)),
            ("GeNIMA", "pipelined", Pipelined(true)),
        ],
    ),
    // §2: notices piggybacked on grants (Base), pushed at releases, or
    // pulled with remote fetch at acquires (the rejected alternative).
    (
        "notices",
        "Water-nsquared",
        &[
            ("Base", "piggybacked", Untouched),
            ("DW", "push", Untouched),
            ("GeNIMA", "push", Untouched),
            ("GeNIMA", "pull", PullNotices),
        ],
    ),
    // §3.1: coalesced mprotect calls on the mprotect-bound application.
    (
        "mprotect",
        "Radix-local",
        &[
            ("GeNIMA", "coalesced", MprotectExtraPageNs(1500)),
            ("GeNIMA", "per-page", MprotectExtraPageNs(8000)),
        ],
    ),
    // How much of Base's loss is the interrupt itself; GeNIMA takes
    // none, whatever one costs.
    (
        "interrupts",
        "Water-nsquared",
        &[
            ("Base", "10us", InterruptUs(10)),
            ("Base", "30us", InterruptUs(30)),
            ("Base", "60us", InterruptUs(60)),
            ("Base", "120us", InterruptUs(120)),
            ("GeNIMA", "none", Untouched),
        ],
    ),
    // §3.3 remedy (ii) / §5: all of a page's runs in one message.
    (
        "scatter_gather",
        "Barnes-spatial",
        &[
            ("DW+RF", "packed", Untouched),
            ("GeNIMA", "direct", Untouched),
            ("GeNIMA", "gathered", ScatterGather),
        ],
    ),
    // §5: one posted descriptor replaces nodes-1 posts per release.
    (
        "broadcast",
        "Water-nsquared",
        &[
            ("GeNIMA", "per-destination", Broadcast(false)),
            ("GeNIMA", "broadcast", Broadcast(true)),
        ],
    ),
    // §2's open question: the firmware lock chain, or a test-and-set
    // lock over NI remote atomics.
    (
        "lock_impl",
        "Water-nsquared",
        &[
            ("GeNIMA", "firmware chain", Untouched),
            ("GeNIMA", "remote atomics", RemoteAtomics),
        ],
    ),
    // Home-based LRC lives by home placement: the application's blocked
    // assignment, first touch, or round-robin striping.
    (
        "homes",
        "FFT",
        &[
            ("GeNIMA", "owner-assigned", Untouched),
            ("GeNIMA", "first-touch", FirstTouch),
            ("GeNIMA", "round-robin", Striped),
        ],
    ),
];

/// What the paper claims of the 4×4 cells beyond the gates [`cells`]
/// declares per application, in the grammar of [`Paper::claim`]. A cell
/// is keyed `app/column`.
pub const CELL_CLAIMS: [&str; 22] = [
    // §3.3: remote fetch cuts FFT's data wait (the paper: ~45%), NI
    // locks cut Water-nsquared's lock time (~60%), and direct diffs turn
    // each of Barnes-spatial's scattered runs into a message (>30x).
    "FFT/DW+RF: mean_breakdown.data_ms <= 0.9 x FFT/DW",
    "Water-nsquared/GeNIMA: mean_breakdown.lock_ms <= 0.75 x Water-nsquared/DW+RF+DD",
    "Barnes-spatial/DW+RF+DD: counters.diff_run_messages > 10 x Barnes-spatial/DW+RF: counters.diffs",
    // §4, Table 3: GeNIMA sends more small messages than Base, and wins.
    "Water-nsquared/GeNIMA: contention.small.packets > Water-nsquared/Base",
    // §2: with remote fetch a node pins its homes, not every page.
    "Volrend-stealing/Base: pinned_bytes >= 2 x Volrend-stealing/DW+RF",
    // Table 2: Radix and Barnes-spatial are barrier-bound, the
    // lock-bound Water-nsquared is not.
    "Radix-local/GeNIMA: shares.barrier >= 0.35",
    "Barnes-spatial/GeNIMA: shares.barrier >= 0.35",
    "Water-nsquared/GeNIMA: shares.barrier <= 0.05",
    // A GeNIMA-2025 release hands the lock over before it diffs and
    // re-protects, so Ocean's one-word critical section no longer waits
    // on 65 pages of diffs (0.189 while it did); the 1999 column keeps
    // the paper's order and with it §3.3's critical-section dilation
    // (DESIGN.md §10.1).
    "Ocean-rowwise/GeNIMA-2025: shares.lock <= 0.1",
    "Ocean-rowwise/GeNIMA: shares.lock >= 0.15",
    // GeNIMA-2025 writes a page at its home in place: LU's blocked homes
    // put every write of its own blocks there, so the barrier no longer
    // waits on twins, diffs and applies the home never needed (DESIGN.md
    // §10.2). The 1999 column keeps diffing them.
    "LU-contiguous/GeNIMA-2025: mean_breakdown.barrier_protocol_ms <= 0.1 x LU-contiguous/GeNIMA: mean_breakdown.barrier_protocol_ms",
    // An ODP fault parks the faulting fetch's queue pair, not the home's
    // whole receive engine, so the first touches of FFT's transpose and
    // Radix's permutation no longer stall every other fetch at the home
    // (0.92 and 1.20 x the 1999 data wait while they did: 2025 hardware
    // waited longer for Radix's data than the 33 MHz LANai; DESIGN.md
    // §10.6).
    "FFT/GeNIMA-2025: mean_breakdown.data_ms <= 0.6 x FFT/GeNIMA: mean_breakdown.data_ms",
    "Radix-local/GeNIMA-2025: mean_breakdown.data_ms <= 0.6 x Radix-local/GeNIMA: mean_breakdown.data_ms",
    // A GeNIMA-2025 write to the first page of a home run it wrote and
    // re-protected before re-opens the whole run in one fault, so
    // Ocean's sweeps no longer fault once per band page (1.0 x while
    // they did: the 1999 column, which twins every page it opens, still
    // does; DESIGN.md §10.3), and a re-acquire of its reduction lock
    // re-opens the page the last holding wrote, so no critical section
    // faults on it either (0.074 x while they did; §10.4).
    "Ocean-rowwise/GeNIMA-2025: counters.faults <= 0.06 x Ocean-rowwise/GeNIMA: counters.faults",
    // What the RNIC must buy an application over the LANai since a 2025
    // model fix removed what held it back. Ocean's lock wait: the
    // release hands the lock over before it diffs and re-protects (1.017
    // x while it diffed first), the home writes its own pages in place
    // (1.577 x while it diffed them), a rewrite of a home run re-opens it
    // in one fault (2.037 x while every page faulted), and a re-acquire
    // re-opens the home page its last holding wrote while the request is
    // in flight (2.198 x while the critical section faulted on it).
    "Ocean-rowwise/GeNIMA-2025: speedup >= 2.25 x Ocean-rowwise/GeNIMA",
    // Data wait: an ODP fault parks its queue pair, not the home's whole
    // receive engine (1.103 and 1.379 x while it held the engine), and
    // the home advises its NIC of the pages it closes in place, so their
    // first remote fetch takes no fault (1.661, 2.202 and 1.063 x while
    // every first fetch faulted; DESIGN.md §10.5, §10.6).
    "FFT/GeNIMA-2025: speedup >= 2 x FFT/GeNIMA",
    "Radix-local/GeNIMA-2025: speedup >= 2.8 x Radix-local/GeNIMA",
    "LU-contiguous/GeNIMA-2025: speedup >= 1.07 x LU-contiguous/GeNIMA",
    // The homes of these write every page in place before any remote
    // process reads it, so the home's prefetch advice leaves them no ODP
    // fault after the warm-up (6 144, 8 160 and 12 while every first
    // remote fetch faulted).
    "FFT/GeNIMA-2025: ni.odp_faults == 0",
    "LU-contiguous/GeNIMA-2025: ni.odp_faults == 0",
    "Ocean-rowwise/GeNIMA-2025: ni.odp_faults == 0",
    // An absolute bound on Ocean's critical-path queue and retry time,
    // not a share of the row's own total: a saving that removes diff
    // work from the total raises every remaining share. It read 0.236 x
    // while the home still twinned and diffed its own pages (DESIGN.md
    // §10.2).
    "Ocean-rowwise/GeNIMA-2025: segments_ns.queue_retry <= 0.1 x Ocean-rowwise/GeNIMA",
];

/// What each ablation finds, keyed `study/column/variant`.
const ABLATION_CLAIMS: [&str; 25] = [
    // Send pipelining recovers part of the direct-diff loss.
    "pipelining/DW+RF/pipelined: speedup > pipelining/DW+RF/serial",
    "pipelining/GeNIMA/pipelined: speedup > pipelining/GeNIMA/serial",
    // A deeper post queue never hurts.
    "post_queue/GeNIMA/depth 256: speedup >= post_queue/GeNIMA/depth 32",
    "post_queue/GeNIMA/depth 32: speedup >= post_queue/GeNIMA/depth 8",
    // Pull brings "no noticeable benefits" (§2): within 1% of push, with
    // fewer notice messages and still no interrupt.
    "notices/GeNIMA/pull: speedup >= 0.99 x notices/GeNIMA/push",
    "notices/GeNIMA/pull: speedup <= 1.01 x notices/GeNIMA/push",
    "notices/GeNIMA/pull: counters.notice_messages < notices/GeNIMA/push",
    "notices/GeNIMA/pull: counters.interrupts == 0",
    // Coalescing is worth its mprotect time.
    "mprotect/GeNIMA/coalesced: speedup >= mprotect/GeNIMA/per-page",
    "mprotect/GeNIMA/coalesced: mprotect_ms < mprotect/GeNIMA/per-page",
    // Base falls monotonically with the interrupt's cost, and even a
    // 10 us interrupt leaves it below GeNIMA.
    "interrupts/Base/10us: speedup > interrupts/Base/30us",
    "interrupts/Base/30us: speedup > interrupts/Base/60us",
    "interrupts/Base/60us: speedup > interrupts/Base/120us",
    "interrupts/Base/10us: speedup < interrupts/GeNIMA/none",
    // Scatter-gather recovers the direct-diff loss with fewer messages.
    "scatter_gather/GeNIMA/gathered: speedup > scatter_gather/GeNIMA/direct",
    "scatter_gather/GeNIMA/gathered: diff_messages < scatter_gather/GeNIMA/direct",
    // NI broadcast is at least as fast as per-destination deposits.
    "broadcast/GeNIMA/broadcast: speedup >= broadcast/GeNIMA/per-destination",
    // Remote atomics spin, take no interrupt, and land within 2% of the
    // firmware chain at this contention.
    "lock_impl/GeNIMA/remote atomics: counters.lock_spin_retries > 0",
    "lock_impl/GeNIMA/remote atomics: counters.interrupts == 0",
    "lock_impl/GeNIMA/remote atomics: speedup >= 0.98 x lock_impl/GeNIMA/firmware chain",
    "lock_impl/GeNIMA/remote atomics: speedup <= 1.02 x lock_impl/GeNIMA/firmware chain",
    // First touch recovers the owner assignment exactly (each process
    // initialises its own rows); striping costs diffs and speed.
    "homes/GeNIMA/first-touch: speedup == homes/GeNIMA/owner-assigned",
    "homes/GeNIMA/first-touch: diff_messages == homes/GeNIMA/owner-assigned",
    "homes/GeNIMA/round-robin: diff_messages > homes/GeNIMA/owner-assigned",
    "homes/GeNIMA/round-robin: speedup < homes/GeNIMA/owner-assigned",
];

/// `(meta field, low, high)`: the headline — the mean over the
/// applications of GeNIMA speedup ÷ Base speedup − 1, in percent — held
/// within a point of its value (13.21 over ten, 17.45 without
/// Barnes-spatial). The five 1999 columns are the paper's calibration,
/// so moving them must be a stated decision.
const AVG_IMPROVEMENT: [(&str, f64, f64); 2] = [
    ("avg_improvement_pct", 12.21, 14.21),
    ("avg_improvement_pct_without_barnes_spatial", 16.45, 18.45),
];

/// The one application GeNIMA slows down (§3.3).
const REGRESSES: &str = "Barnes-spatial";

/// Ring capacity for the traced cells: large enough that no node's
/// timeline truncates on the application suite (the profiler refuses
/// truncated traces, so an overflow here is a failed run).
const ATTRIBUTION_RING: usize = 1 << 20;

const STAGES: [(&str, Stage); 4] = [
    ("source", Stage::Source),
    ("lanai", Stage::Lanai),
    ("net", Stage::Net),
    ("dest", Stage::Dest),
];

/// §5's problem sizes, smallest first per application: `(app, label)`.
fn sizes() -> Vec<(Box<dyn App>, String)> {
    let fft = [1u64 << 18, 1 << 20, 1 << 22].map(|points| {
        let app: Box<dyn App> = Box::new(Fft::with_points(points));
        (app, format!("{}K points", points >> 10))
    });
    let water = [512usize, 2048, 4096].map(|mols| {
        let app: Box<dyn App> = Box::new(WaterNsquared::with_molecules(mols, 2));
        (app, format!("{mols} molecules"))
    });
    fft.into_iter().chain(water).collect()
}

/// The report under construction, the row each key names, and each
/// application's sequential time.
pub struct Paper {
    rep: BenchReport,
    keys: HashMap<String, usize>,
    seqs: HashMap<&'static str, Dur>,
    failed: u64,
    unresolved: u64,
    /// Audited ops whose segments do not sum to their latency.
    mismatched_ops: u64,
}

impl Paper {
    fn new(seed: u64) -> Paper {
        Paper {
            rep: BenchReport::new("paper", seed),
            keys: HashMap::new(),
            seqs: HashMap::new(),
            failed: 0,
            unresolved: 0,
            mismatched_ops: 0,
        }
    }

    fn push(&mut self, key: String, row: Json) -> usize {
        let i = self.rep.push(row);
        self.keys.insert(key, i);
        i
    }

    /// Declares `KEY: FIELD OP RHS` as a gate of that name: `rows[KEY]`'s
    /// dotted `FIELD` against RHS, which is a number or `[K x ]KEY[:
    /// FIELD]` — `K ×` another row's field, the same field unless one is
    /// named. A key with no row is counted, so that a claim cannot stop
    /// gating unnoticed.
    fn claim(&mut self, claim: &str) {
        let grammar = "a claim reads `KEY: FIELD OP RHS`";
        let (lhs, rest) = claim.split_once(": ").expect(grammar);
        let mut words = rest.splitn(3, ' ');
        let (Some(field), Some(op), Some(rhs)) = (words.next(), words.next(), words.next()) else {
            panic!("{grammar}: `{claim}`");
        };
        let operand = match rhs.parse::<f64>() {
            Ok(bound) => Some(Json::num(bound)),
            Err(_) => {
                let (k, rhs) = match rhs.split_once(" x ") {
                    Some((k, rhs)) => (Some(k.parse::<f64>().expect(grammar)), rhs),
                    None => (None, rhs),
                };
                let (key, f) = rhs.split_once(": ").unwrap_or((rhs, field));
                self.keys.get(key).map(|&j| match k {
                    Some(k) => times(row(j, f), k),
                    None => row(j, f),
                })
            }
        };
        match (self.keys.get(lhs), operand) {
            (Some(&i), Some(rhs)) => self.rep.gate(claim, row(i, field), op, rhs),
            (None, _) | (_, None) => self.unresolved += 1,
        }
    }

    /// `rows[key].path`, if it is a number.
    fn num(&self, key: &str, path: &str) -> Option<f64> {
        self.rep.rows()[*self.keys.get(key)?].at(path)?.as_f64()
    }
}

/// The plain listings: one line per row of a kind.
pub const VIEWS: &[View] = &[
    View {
        title: "critical-path time per segment, summed over each run's ops",
        kind: Some("cell"),
        cols: &[
            ("app", "app", 0),
            ("column", "column", 0),
            ("ops", "ops", 0),
            ("interrupt(ns)", "segments_ns.interrupt", 0),
            ("firmware(ns)", "segments_ns.firmware", 0),
            ("wire(ns)", "segments_ns.wire", 0),
            ("host(ns)", "segments_ns.host_handler", 0),
            ("queue(ns)", "segments_ns.queue_retry", 0),
            ("intr share", "interrupt_share", 3),
        ],
    },
    View {
        title: "Problem sizes (section 5)",
        kind: Some("size"),
        cols: &[
            ("app", "app", 0),
            ("size", "size", 0),
            ("base_speedup", "base_speedup", 2),
            ("genima_speedup", "genima_speedup", 2),
            ("improvement_pct", "improvement_pct", 1),
        ],
    },
    View {
        title: "Ablations",
        kind: Some("ablation"),
        cols: &[
            ("study", "study", 0),
            ("app", "app", 0),
            ("column", "column", 0),
            ("variant", "variant", 0),
            ("speedup", "speedup", 2),
            ("diff_messages", "diff_messages", 0),
            ("notice_messages", "counters.notice_messages", 0),
            ("interrupts", "counters.interrupts", 0),
            ("lock_spin_retries", "counters.lock_spin_retries", 0),
            ("mprotect_ms", "mprotect_ms", 1),
        ],
    },
];

/// An object of `fields`, in order.
fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A table computed from the rows: one line per object of `rows`, a
/// column per key of the first, numbers to `prec` decimals.
fn derived(title: &str, prec: usize, rows: impl IntoIterator<Item = Json>) -> String {
    let rows: Vec<Json> = rows.into_iter().collect();
    let heads = rows.first().and_then(Json::as_obj).unwrap_or_default();
    let cols: Vec<Col> = heads
        .iter()
        .map(|(h, _)| (h.as_str(), h.as_str(), prec))
        .collect();
    table(title, &rows, &cols)
}

/// Every figure and table of the paper, from the report's rows.
pub fn print(report: &Json) -> String {
    // The column a row stands for in the per-application tables.
    let column = |r: &Json| match text(r, "kind")? {
        "cell" => text(r, "column").map(String::from),
        "origin" => Some(format!("Origin {}", text(r, "topo")?)),
        "genima_8x4" => Some("GeNIMA 8x4".to_string()),
        _ => None,
    };
    let row_of = |a: &str, c: &str| {
        let mut of = rows(report).iter().filter(|r| text(r, "app") == Some(a));
        of.find(|r| column(r).as_deref() == Some(c))
    };
    let num = |a: &str, c: &str, path: &str| row_of(a, c)?.at(path)?.as_f64();
    let cells = rows(report)
        .iter()
        .filter(|r| text(r, "kind") == Some("cell"));
    let mut apps: Vec<&str> = cells.filter_map(|r| text(r, "app")).collect();
    apps.dedup();
    let ms = |a: &str, c: &str, part: &str| num(a, c, &format!("mean_breakdown.{part}_ms"));
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::num);
    // `n` as a percentage of `d`.
    let pct = |n: Option<f64>, d: Option<f64>| {
        opt(n
            .zip(d)
            .map(|(n, d)| if d > 0.0 { n / d * 100.0 } else { 0.0 }))
    };
    let app = |a: &str| ("Application", Json::str(a));
    let per_app = |title: &str, columns: &[&str]| {
        let speedup = |a: &str| {
            obj([app(a)]
                .into_iter()
                .chain(columns.iter().map(|&c| (c, opt(num(a, c, "speedup"))))))
        };
        derived(title, 2, apps.iter().map(|a| speedup(a)))
    };
    let columns = Column::all().map(|c| c.name());
    let mut out = per_app(
        "Figures 1, 2, 4: speedups, 16 processors",
        &[&["Origin 4x4"][..], &columns].concat(),
    );

    let parts = ["total", "compute", "data", "lock", "acqrel", "barrier"];
    let figure3 = apps.iter().flat_map(|a| {
        let base = ms(a, "Base", "total");
        columns.map(|c| {
            let parts = parts.map(|p| (p, opt(ms(a, c, p).zip(base).map(|(v, b)| v / b))));
            obj([app(a), ("Column", c.into())].into_iter().chain(parts))
        })
    });
    out += &derived("Figure 3: mean breakdown, Base total = 1.0", 3, figure3);

    let table1 = apps.iter().map(|a| {
        let cut = |from: &str, to: &str, part: &str| {
            let (from, to) = (ms(a, from, part), ms(a, to, part));
            pct(from.zip(to).map(|(f, t)| f - t), from)
        };
        let problem = app_by_name(a).map_or(Json::Null, |app| Json::str(app.problem()));
        obj([
            app(a),
            ("Problem", problem),
            (
                "Uniproc(s)",
                opt(num(a, "Base", "sequential_ms").map(|ms| ms / 1e3)),
            ),
            ("Overall%", cut("Base", "GeNIMA", "total")),
            ("Data% RF", cut("DW", "DW+RF", "data")),
            ("Data% GeNIMA", cut("DW", "GeNIMA", "data")),
            ("Lock%", cut("DW+RF+DD", "GeNIMA", "lock")),
        ])
    });
    let title =
        "Table 1: improvement Base->GeNIMA, data DW->DW+RF and DW->GeNIMA, lock DW+RF+DD->GeNIMA";
    out += &derived(title, 2, table1);

    let table2 = apps.iter().map(|a| {
        let ms = |part: &str| ms(a, "GeNIMA", part);
        let overhead = ms("total").zip(ms("compute")).map(|(t, c)| t - c);
        obj([
            app(a),
            ("BT%", pct(ms("barrier"), ms("total"))),
            ("BPT%", pct(ms("barrier_protocol"), ms("barrier"))),
            ("MT%", pct(ms("mprotect"), overhead)),
        ])
    });
    let title = "Table 2 (GeNIMA): barrier, barrier-protocol and mprotect shares";
    out += &derived(title, 1, table2);

    for (class, n) in [("small", 3), ("large", 4)] {
        let ratios = apps.iter().map(|&a| {
            let stages = STAGES.iter().flat_map(|(stage, _)| {
                let path = format!("contention.{class}.{stage}");
                [("Base", "B"), ("GeNIMA", "G")]
                    .map(|(c, tag)| (format!("{stage} {tag}"), opt(num(a, c, &path))))
            });
            obj([("Application".to_string(), Json::str(a))]
                .into_iter()
                .chain(stages))
        });
        let title =
            format!("Table {n}: {class}-message contention ratios, Base (B) and GeNIMA (G)");
        out += &derived(&title, 1, ratios);
    }

    let title = "Table 5: speedups, 32 processors";
    out += &per_app(title, &["GeNIMA", "GeNIMA 8x4", "Origin 8x4"]);

    // vs-1999 is a cell's speedup over the 1999 GeNIMA cell's.
    let mut hardware = Vec::new();
    for a in &apps {
        for c in ["GeNIMA", "GeNIMA-2025"] {
            let Some(r) = row_of(a, c) else { continue };
            let mut r = r.clone();
            let vs = num(a, c, "speedup").zip(num(a, "GeNIMA", "speedup"));
            r.set("vs_1999", opt(vs.map(|(s, lanai)| s / lanai)));
            hardware.push(r);
        }
    }
    let cols = [
        ("app", "app", 0),
        ("hw", "hw", 0),
        ("time(ms)", "parallel_ms", 2),
        ("speedup", "speedup", 2),
        ("vs-1999", "vs_1999", 2),
        ("intr", "counters.interrupts", 0),
        ("doorbells", "ni.doorbells", 0),
        ("cqes", "ni.cqes", 0),
        ("odp", "ni.odp_faults", 0),
    ];
    out += &table(
        "the GeNIMA protocol on 1999 and 2025 NI hardware",
        &hardware,
        &cols,
    );
    out += &views(report, VIEWS);
    let headline = [
        ("ten applications", "avg_improvement_pct", 2),
        (
            "without Barnes-spatial",
            "avg_improvement_pct_without_barnes_spatial",
            2,
        ),
    ];
    let title = "Base -> GeNIMA improvement, % (the paper: ~37-38% for the well-performing ones)";
    out + &table(title, report.get("meta"), &headline)
}

/// The contention ratios of Tables 3–4 by size class and stage, `null`
/// where a stage saw no packet, beside each class's packet count.
fn contention(r: &RunReport) -> Json {
    let mut classes = Json::obj();
    for (name, class) in [("small", SizeClass::Small), ("large", SizeClass::Large)] {
        let mut stages = Json::obj();
        stages.set("packets", Json::u64(r.monitor.packets(class)));
        for (stage_name, stage) in STAGES {
            let s = r.monitor.stats(stage, class);
            let seen = s.actual.count() > 0;
            stages.set(stage_name, if seen { s.ratio().into() } else { Json::Null });
        }
        classes.set(name, stages);
    }
    classes
}

/// The `key` object of a report's own JSON, `full`.
fn part(full: &Json, key: &str) -> Json {
    full.get(key)
        .expect("a report's JSON has every part")
        .clone()
}

fn cell_row(app: &str, column: &str, seq: Dur, r: &RunReport) -> Json {
    let full = r.to_json_value();
    let mut cell = Json::obj();
    cell.set("kind", "cell".into());
    cell.set("app", app.into());
    cell.set("column", column.into());
    cell.set("sequential_ms", seq.as_ms().into());
    cell.set("parallel_ms", r.parallel_time().as_ms().into());
    cell.set("speedup", r.speedup(seq).into());
    for key in ["shares", "counters", "mean_breakdown"] {
        cell.set(key, part(&full, key));
    }
    cell.set("contention", contention(r));
    let pinned = r.pinned_shared_bytes.iter().sum();
    cell.set("pinned_bytes", Json::u64(pinned));
    for key in ["hw", "ni", "op_latency"] {
        cell.set(key, part(&full, key));
    }
    cell
}

/// Appends a traced cell's critical-path attribution to its row: the
/// audited ops, their segment totals and interrupt share, and each op
/// class's latency percentiles. Returns how many ops' segments do not
/// sum to their latency, each reported.
///
/// # Errors
///
/// The trace is truncated (a ring evicted records), so no op's
/// attribution can be trusted complete.
fn critical_path(what: &str, obs: &ObsReport, cell: &mut Json) -> Result<u64, Truncated> {
    let prof = profile(obs);
    let ops = prof.audited_ops()?;
    let mut mismatched = 0;
    for op in ops.iter().filter(|op| op.breakdown.total() != op.latency) {
        eprintln!(
            "FAIL {what}: op {:#x} attribution {} ns != latency {} ns",
            op.op,
            op.breakdown.total().as_ns(),
            op.latency.as_ns()
        );
        mismatched += 1;
    }
    let total = prof.total_breakdown();
    let sum_ns = total.total().as_ns();
    let share = if sum_ns > 0 {
        total.interrupt.as_ns() as f64 / sum_ns as f64
    } else {
        0.0
    };
    cell.set("ops", (ops.len() as u64).into());
    cell.set("total_ns", sum_ns.into());
    let segments = Segment::ALL.map(|seg| (seg.name(), total.get(seg).as_ns().into()));
    cell.set("segments_ns", obj(segments));
    cell.set("interrupt_share", share.into());
    let by_class = prof.by_class();
    let class = |class: OpClass| {
        let s = by_class.get(&class)?;
        let p = |h: Dur| h.as_ns().into();
        Some(obj([
            ("class", class.name().into()),
            ("count", s.count.into()),
            ("p50_ns", p(s.hist.p50())),
            ("p95_ns", p(s.hist.p95())),
            ("p99_ns", p(s.hist.p99())),
        ]))
    };
    let classes = OpClass::ALL.into_iter().filter_map(class).collect();
    cell.set("classes", Json::Arr(classes));
    Ok(mismatched)
}

/// `variant` is `[study, app, column, variant]`.
fn ablation_row(variant: [&str; 4], seq: Dur, r: &RunReport) -> Json {
    let mut row = Json::obj();
    row.set("kind", "ablation".into());
    for (key, value) in ["study", "app", "column", "variant"]
        .into_iter()
        .zip(variant)
    {
        row.set(key, value.into());
    }
    row.set("speedup", r.speedup(seq).into());
    let c = r.counters;
    row.set("diff_messages", Json::u64(c.diffs + c.diff_run_messages));
    row.set("mprotect_ms", r.mean_breakdown().mprotect.as_ms().into());
    row.set("counters", part(&r.to_json_value(), "counters"));
    row
}

/// Per application: its six 4×4 cells, the Origin on 4×4 and 8×4 and
/// GeNIMA on 8×4, with the gates every application shares.
pub fn cells(args: &Args) -> Paper {
    let (p16, p32) = (Topology::new(4, 4), Topology::new(8, 4));
    let genima = Column::lanai(FeatureSet::genima());
    let mut paper = Paper::new(args.seed);
    paper.rep.set_meta("topo", topo_json(p16));
    for app in &args.apps {
        let (a, seq) = (app.name(), sequential_time(app.as_ref()));
        paper.seqs.insert(a, seq);
        for column in Column::all() {
            let key = format!("{a}/{}", column.name());
            let cfg = RunConfig::new(p16, column)
                .with_seed(args.seed)
                .with_obs(ObsConfig::with_capacity(ATTRIBUTION_RING));
            let Some(out) = run_cell(&key, app.as_ref(), &cfg, &mut paper.failed) else {
                continue;
            };
            let mut cell = cell_row(a, column.name(), seq, &out.report);
            match critical_path(&key, &out.obs, &mut cell) {
                Ok(mismatched) => paper.mismatched_ops += mismatched,
                Err(truncated) => {
                    eprintln!("FAIL {key}: {truncated}");
                    paper.failed += 1;
                    continue;
                }
            }
            let i = paper.push(key.clone(), cell);
            let name = format!("{key}: segments sum to total_ns");
            let segments = row_sum(i, "segments_ns");
            paper.rep.gate(name, segments, "==", row(i, "total_ns"));
            if column.features.interrupt_free() {
                gate_interrupt_free(&mut paper.rep, &key, i, "counters.interrupts");
                paper.claim(&format!("{key}: segments_ns.interrupt == 0"));
            }
            // Table 4 is the LANai's; the RNIC's engine queues large
            // messages up to 3.9x and has no 1999 counterpart.
            let lanai = paper.num(&key, "contention.large.lanai");
            if !column.hw.is_rdma() && lanai.is_some() {
                paper.claim(&format!("{key}: contention.large.lanai <= 3"));
            }
        }
        for topo in [p16, p32] {
            let label = format!("{}x{}", topo.nodes, topo.procs_per_node);
            let r = run_app_on_hwdsm(app.as_ref(), topo);
            let mut row = Json::obj();
            row.set("kind", "origin".into());
            row.set("app", a.into());
            row.set("topo", label.as_str().into());
            row.set("parallel_ms", r.finish.as_ms().into());
            row.set("speedup", r.speedup(seq).into());
            paper.push(format!("{a}/Origin {label}"), row);
        }
        let key = format!("{a}/GeNIMA 8x4");
        let cfg = RunConfig::new(p32, genima);
        if let Some(out) = run_cell(&key, app.as_ref(), &cfg, &mut paper.failed) {
            let r = out.report;
            let mut row = Json::obj();
            row.set("kind", "genima_8x4".into());
            row.set("app", a.into());
            row.set("parallel_ms", r.parallel_time().as_ms().into());
            row.set("speedup", r.speedup(seq).into());
            row.set("interrupts", r.counters.interrupts.into());
            let i = paper.push(key.clone(), row);
            gate_interrupt_free(&mut paper.rep, &key, i, "interrupts");
        }
        let op = if a == REGRESSES { "<" } else { ">" };
        for claim in [
            format!("{a}/GeNIMA: speedup {op} {a}/Base"),
            format!("{a}/Origin 4x4: speedup > {a}/Base"),
            format!("{a}/GeNIMA 8x4: speedup > {a}/GeNIMA"),
            format!("{a}/Origin 8x4: speedup > {a}/GeNIMA 8x4"),
            format!("{a}/Base: counters.interrupts > 0"),
            // The paper's thesis in the attribution itself.
            format!("{a}/Base: segments_ns.interrupt > 0"),
            // Modern hardware losing to a 33 MHz LANai would be a wrong
            // model; the LANai has no RNIC counter to move.
            format!("{a}/GeNIMA-2025: speedup > {a}/GeNIMA"),
            format!("{a}/GeNIMA-2025: ni.doorbells > 0"),
            format!("{a}/GeNIMA-2025: ni.cqes > 0"),
            format!("{a}/GeNIMA: ni.doorbells == 0"),
            format!("{a}/GeNIMA: ni.cqes == 0"),
            format!("{a}/GeNIMA: ni.odp_faults == 0"),
        ] {
            paper.claim(&claim);
        }
    }
    paper
}

/// The whole evaluation: [`cells`], §5's sizes, the ablations and every
/// claim.
pub fn run(args: &Args) -> BenchReport {
    let mut paper = cells(args);
    let p16 = Topology::new(4, 4);
    let sizes = sizes();
    for (app, size) in &sizes {
        let a = app.name();
        if !paper.seqs.contains_key(a) {
            continue;
        }
        let seq = sequential_time(app.as_ref());
        let key = format!("{a}/{size}");
        let [base, genima] = [FeatureSet::base(), FeatureSet::genima()]
            .map(|f| RunConfig::new(p16, f))
            .map(|cfg| run_cell(&key, app.as_ref(), &cfg, &mut paper.failed));
        let (Some(base), Some(genima)) = (base, genima) else {
            continue;
        };
        let (b, g) = (base.report.speedup(seq), genima.report.speedup(seq));
        let mut row = Json::obj();
        row.set("kind", "size".into());
        row.set("app", a.into());
        row.set("size", size.as_str().into());
        row.set("base_speedup", b.into());
        row.set("genima_speedup", g.into());
        row.set("improvement_pct", ((g / b - 1.0) * 100.0).into());
        paper.push(key, row);
    }
    for pair in sizes.windows(2) {
        let ((small, s), (large, l)) = (&pair[0], &pair[1]);
        let a = small.name();
        if a == large.name() && paper.seqs.contains_key(a) {
            paper.claim(&format!("{a}/{s}: improvement_pct > {a}/{l}"));
        }
    }

    ablations(&mut paper, args, |_| true);
    finish(paper, args, &[&CELL_CLAIMS[..], &ABLATION_CLAIMS].concat())
}

/// The ablation studies `keep` selects among those whose application
/// `args` names: a row per variant, each run through [`run_cell`] on
/// 4×4 with its [`Switch`] applied.
fn ablations(paper: &mut Paper, args: &Args, keep: impl Fn(&str) -> bool) {
    let p16 = Topology::new(4, 4);
    for (study, a, variants) in ABLATIONS.into_iter().filter(|(study, ..)| keep(study)) {
        let Some(app) = args.apps.iter().find(|app| app.name() == a) else {
            continue;
        };
        let app = app.as_ref();
        let seq = *paper.seqs.entry(a).or_insert_with(|| sequential_time(app));
        let homeless = Homeless(app);
        for &(column, variant, switch) in variants {
            let key = format!("{study}/{column}/{variant}");
            let on = Column::by_name(column).expect("an ablation runs on an evaluation column");
            let mut cfg = RunConfig::new(p16, on);
            switch.apply(&mut cfg.params);
            let homes_dropped = matches!(switch, FirstTouch | Striped);
            let run: &dyn App = if homes_dropped { &homeless } else { app };
            if let Some(out) = run_cell(&key, run, &cfg, &mut paper.failed) {
                let row = ablation_row([study, a, column, variant], seq, &out.report);
                paper.push(key, row);
            }
        }
    }
}

/// Declares `claims`, then the headline and the claim count (about the
/// whole suite), every audited op's attribution, all six columns and
/// every run completed.
pub fn finish(mut paper: Paper, args: &Args, claims: &[&str]) -> BenchReport {
    for claim in claims {
        paper.claim(claim);
    }

    if args.apps.len() == all_apps().len() {
        let improvement = |a: &str| {
            let b = paper.num(&format!("{a}/Base"), "speedup")?;
            let g = paper.num(&format!("{a}/GeNIMA"), "speedup")?;
            Some((g / b - 1.0) * 100.0)
        };
        let mean = |apps: Vec<&str>| {
            let v: Vec<f64> = apps.iter().filter_map(|a| improvement(a)).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let names: Vec<&str> = args.apps.iter().map(|a| a.name()).collect();
        let all = mean(names.clone());
        let nine = mean(names.into_iter().filter(|&a| a != REGRESSES).collect());
        for ((field, low, high), v) in AVG_IMPROVEMENT.into_iter().zip([all, nine]) {
            paper.rep.set_meta(field, v);
            for (op, bound) in [(">=", low), ("<=", high)] {
                let name = format!("{field} {op} {bound}");
                paper.rep.gate(name, meta(field), op, bound);
            }
        }
        paper.rep.set_meta("unresolved_claims", paper.unresolved);
        let gate = "every claim names a row";
        paper.rep.gate(gate, meta("unresolved_claims"), "==", 0u64);
    }
    paper.rep.set_meta("mismatched_ops", paper.mismatched_ops);
    let gate = "every audited op's attribution sums to its latency";
    paper.rep.gate(gate, meta("mismatched_ops"), "==", 0u64);
    gate_six_columns(&mut paper.rep);
    gate_failed_runs(&mut paper.rep, paper.failed);
    paper.rep
}

/// The ablation studies as `(study, app)`, in the report's order.
#[cfg(test)]
pub fn studies() -> impl Iterator<Item = (&'static str, &'static str)> {
    ABLATIONS.into_iter().map(|(study, app, _)| (study, app))
}

/// The ablation `study` alone: its rows and the claims about them.
#[cfg(test)]
pub fn study(args: &Args, study: &str) -> BenchReport {
    let mut paper = Paper::new(args.seed);
    ablations(&mut paper, args, |s| s == study);
    let prefix = format!("{study}/");
    for claim in ABLATION_CLAIMS.iter().filter(|c| c.starts_with(&prefix)) {
        paper.claim(claim);
    }
    assert_eq!(paper.unresolved, 0, "a claim of {study} names no row");
    assert_eq!(paper.failed, 0, "a run of {study} aborted");
    paper.rep
}
