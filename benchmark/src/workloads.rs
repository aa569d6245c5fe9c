//! The five workloads: which simulator runs make up one pass of each.

use std::rc::Rc;

use genima_apps::{App, LuContiguous, OceanRowwise, WaterNsquared};
use genima_fault::FaultPlan;
use genima_nic::NicId;
use genima_proto::{Column, Op, Topology};
use genima_serve::KvServe;
use genima_sim::{Dur, RunSeed, Time};

/// The three evaluation columns every workload runs on, so a change to
/// interrupt handlers, LANai firmware or the RNIC model each has one
/// column that exercises it and two that bypass it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Col {
    Base,
    Genima,
    Genima2025,
}

impl Col {
    pub const ALL: [Col; 3] = [Col::Base, Col::Genima, Col::Genima2025];

    pub fn column(self) -> Column {
        let all = Column::all();
        match self {
            Col::Base => all[0],
            Col::Genima => all[4],
            Col::Genima2025 => all[5],
        }
    }

    pub fn name(self) -> &'static str {
        self.column().name()
    }
}

/// What the serving runs need besides the app to place a point on the
/// latency-versus-load curve.
#[derive(Clone, Copy, Debug)]
pub struct ServePoint {
    /// Offered rate, thousand operations per simulated second.
    pub kops: f64,
    /// Requests offered across the cluster.
    pub offered: u64,
    /// Due time of the last request. A run that ends much later than
    /// this is working off a backlog. (The nominal end of the horizon
    /// would not do: the last Poisson arrival of 1250 per process
    /// lands 5% past it by chance alone in one run of seven.)
    pub last_due: Time,
}

/// One simulator run of a pass.
pub struct RunSpec {
    pub col: Col,
    /// Distinguishes the runs of one column (`"20kops"`, `"lossy0"`);
    /// empty for the batch workloads' single run.
    pub label: String,
    pub app: Rc<dyn App>,
    pub topo: Topology,
    pub faults: FaultPlan,
    /// Seed of the fault injector's streams.
    pub fault_seed: u64,
    pub degraded: bool,
    pub serve: Option<ServePoint>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop: a SPLASH-2 application run to completion.
    Batch,
    /// Open loop over a grid of offered rates on a clean fabric.
    Sweep,
    /// Open loop at one rate under packet loss and node outages.
    Churn,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub runs: Vec<RunSpec>,
}

/// Name and one-line reason of every workload, as `BENCHMARK.json`
/// lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "bulk_lu",
        "closed loop, LU 2048^2 on 8x4: page fetches and bulk data dominate, zero locks",
    ),
    (
        "locks_water",
        "closed loop, Water-nsquared 2048 molecules on 8x4: locks and small packets dominate, cheapest events",
    ),
    (
        "diff_ocean",
        "closed loop, Ocean 1024^2 on 8x4: diffs, intervals and barriers dominate, 4x the paper's page working set",
    ),
    (
        "serve_kv_sweep",
        "open loop, Zipf KV 90% reads on 4x1 at 5-80 kops on a clean fabric: the latency-versus-load curve through the knee",
    ),
    (
        "serve_kv_churn",
        "open loop, Zipf KV 50% writes at 4 kops on 4x1 under 5% loss, duplicates, delays and cycling 1 ms outages: the recovery paths",
    ),
];

/// Offered rates of the sweep, kops: below, around and beyond the knee
/// of all three columns.
pub const SWEEP_KOPS: [u64; 9] = [5, 10, 15, 20, 30, 40, 50, 60, 80];
/// The rate whose latency the end-to-end metrics report: under every
/// column's knee but GeNIMA's is within 2x of it.
pub const SWEEP_LATENCY_KOPS: u64 = 20;
/// The overload rate whose completion rate is the capacity.
pub const SWEEP_CAPACITY_KOPS: u64 = 80;
/// Independent fault schedules of one churn pass.
pub const CHURN_SUBSEEDS: usize = 8;

const KV_KEYS: usize = 4096;
const KV_SKEW: f64 = 0.99;
/// First arrival; leaves room for the warm-up barrier on every column.
const SERVE_START: Time = Time::from_ns(500_000);
/// Cluster of the serving workloads: four uniprocessor nodes.
const SERVE_TOPO: Topology = Topology {
    nodes: 4,
    procs_per_node: 1,
};

/// Generates `app`'s operation streams and feeds every operation to
/// `f` with its processor's index, processor by processor.
pub fn for_each_op(app: &dyn App, topo: Topology, mut f: impl FnMut(usize, &Op)) {
    for (proc, mut src) in app.spec(topo).sources.into_iter().enumerate() {
        while let Some(op) = src.next_op() {
            f(proc, &op);
        }
    }
}

/// One point of a serving workload: the store and what it offers.
fn kv_point(read_pct: u32, kops: u64, horizon: Dur, seed: u64) -> (Rc<dyn App>, ServePoint) {
    let offered = kops * horizon.as_ns() / 1_000_000;
    let kv = KvServe::new(KV_KEYS, KV_SKEW, read_pct, offered, horizon)
        .with_seed(seed)
        .with_start(SERVE_START);
    let mut last_due = Time::ZERO;
    for_each_op(&kv, SERVE_TOPO, |_, op| {
        if let Op::ServeEnd { issued, .. } = op {
            last_due = last_due.max(*issued);
        }
    });
    let point = ServePoint {
        kops: kops as f64,
        offered,
        last_due,
    };
    (Rc::new(kv), point)
}

fn batch(app: Rc<dyn App>) -> (Kind, Vec<RunSpec>) {
    let runs = Col::ALL
        .iter()
        .map(|&col| RunSpec {
            col,
            label: String::new(),
            app: Rc::clone(&app),
            topo: Topology::new(8, 4),
            faults: FaultPlan::none(),
            fault_seed: 0,
            degraded: false,
            serve: None,
        })
        .collect();
    (Kind::Batch, runs)
}

fn sweep(seed: RunSeed, horizon: Dur) -> (Kind, Vec<RunSpec>) {
    let points: Vec<_> = SWEEP_KOPS
        .iter()
        .map(|&kops| kv_point(90, kops, horizon, seed.derive(&format!("sweep.{kops}"))))
        .collect();
    let mut runs = Vec::new();
    for col in Col::ALL {
        for (app, point) in &points {
            runs.push(RunSpec {
                col,
                label: format!("{}kops", point.kops),
                app: Rc::clone(app),
                topo: SERVE_TOPO,
                faults: FaultPlan::none(),
                fault_seed: 0,
                degraded: false,
                serve: Some(*point),
            });
        }
    }
    (Kind::Sweep, runs)
}

/// Duplicates and short delays on every churn run: they exercise the
/// dedupe table and reorder tolerance and can never lose an operation.
fn noisy_fabric() -> FaultPlan {
    FaultPlan::new()
        .duplicate_rate(0.02)
        .delay(0.05, Dur::from_us(200))
}

/// 5% independent packet loss for the whole run. Eight straight losses
/// of one packet (the give-up budget) have probability 4e-11, so every
/// loss is recovered by retransmission.
fn lossy_plan() -> FaultPlan {
    noisy_fabric().drop_rate(0.05)
}

/// 1 ms of total silence per window, cycling round-robin over nodes
/// 1..n every 4 ms (node 0 hosts the barrier manager, as in
/// `serving_bench`). The RNIC's eight attempts span 2.5 ms and the
/// LANai's 38 ms, so the attempt after the window always lands: the
/// plan stalls and retransmits but never gives a peer up.
fn outage_plan(nodes: usize, horizon: Dur) -> FaultPlan {
    let mut plan = noisy_fabric();
    let window = Dur::from_ms(1);
    let gap = Dur::from_ms(3);
    let mut from = SERVE_START + Dur::from_ms(2);
    let mut victim = 1;
    while from + window < SERVE_START + horizon {
        plan = plan.outage(NicId::new(victim), from, from + window);
        from = from + window + gap;
        victim = victim % (nodes - 1) + 1;
    }
    plan
}

fn churn(seed: RunSeed, horizon: Dur) -> (Kind, Vec<RunSpec>) {
    let points: Vec<_> = (0..CHURN_SUBSEEDS)
        .map(|sub| kv_point(50, 4, horizon, seed.derive(&format!("churn.kv.{sub}"))))
        .collect();
    let mut runs = Vec::new();
    for col in Col::ALL {
        for (sub, (app, point)) in points.iter().enumerate() {
            let lossy = sub % 2 == 0;
            runs.push(RunSpec {
                col,
                label: format!("{}{sub}", if lossy { "lossy" } else { "outage" }),
                app: Rc::clone(app),
                topo: SERVE_TOPO,
                faults: if lossy {
                    lossy_plan()
                } else {
                    outage_plan(SERVE_TOPO.nodes, horizon)
                },
                fault_seed: seed.derive(&format!("churn.fault.{sub}")),
                degraded: true,
                serve: Some(*point),
            });
        }
    }
    (Kind::Churn, runs)
}

/// Builds workload `name` from `seed`. `smoke` divides every problem
/// size by eight.
///
/// The batch workloads take nothing from the seed: their operation
/// streams come from `genima_apps::proc_rng(app, proc)`.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let (name, _) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
    let seed = RunSeed::new(seed);
    let div = if smoke { 8 } else { 1 };
    let (kind, runs) = match *name {
        "bulk_lu" if smoke => batch(Rc::new(LuContiguous::with_size(256, 16))),
        "bulk_lu" => batch(Rc::new(LuContiguous::paper())),
        "locks_water" if smoke => batch(Rc::new(WaterNsquared::with_molecules(256, 2))),
        "locks_water" => batch(Rc::new(WaterNsquared::paper())),
        "diff_ocean" => batch(Rc::new(OceanRowwise::with_grid(1024 / div as usize, 30))),
        "serve_kv_sweep" => sweep(seed, Dur::from_ms(1000 / div)),
        "serve_kv_churn" => churn(seed, Dur::from_ms(2000 / div)),
        _ => unreachable!("every listed workload has an arm"),
    };
    Some(Workload { name, kind, runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_builds_on_three_columns() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            let w = build(name, 7, true).expect("listed workload builds");
            assert_eq!(w.name, name);
            for col in Col::ALL {
                assert!(w.runs.iter().any(|r| r.col == col), "{name}/{col:?}");
            }
        }
        assert!(build("nope", 7, true).is_none());
        assert_eq!(
            [Col::Base.name(), Col::Genima.name(), Col::Genima2025.name()],
            ["Base", "GeNIMA", "GeNIMA-2025"]
        );
    }

    #[test]
    fn serving_streams_follow_the_seed_and_match_across_columns() {
        let labels = |w: &Workload, col: Col| -> Vec<String> {
            w.runs
                .iter()
                .filter(|r| r.col == col)
                .map(|r| format!("{} {}", r.label, r.app.problem()))
                .collect()
        };
        let a = build("serve_kv_sweep", 1, true).unwrap();
        assert_eq!(labels(&a, Col::Base), labels(&a, Col::Genima2025));
        assert_eq!(labels(&a, Col::Base).len(), SWEEP_KOPS.len());
        let c = build("serve_kv_churn", 1, true).unwrap();
        assert_eq!(labels(&c, Col::Genima).len(), CHURN_SUBSEEDS);
        let seeds = |s: u64| -> Vec<u64> {
            build("serve_kv_churn", s, true)
                .unwrap()
                .runs
                .iter()
                .map(|r| r.fault_seed)
                .collect()
        };
        assert_eq!(seeds(1), seeds(1));
        assert_ne!(seeds(1), seeds(2));
    }

    #[test]
    fn outage_windows_stay_inside_the_horizon_and_spare_node_zero() {
        let horizon = Dur::from_ms(250);
        let plan = outage_plan(4, horizon);
        assert!(plan.is_active());
        // 2 ms lead-in, then one 1 ms window every 4 ms.
        let windows = (250 - 2) / 4;
        let none = noisy_fabric();
        assert_ne!(plan, none);
        let mut rebuilt = none;
        let mut from = SERVE_START + Dur::from_ms(2);
        for i in 0..windows {
            rebuilt = rebuilt.outage(NicId::new(i % 3 + 1), from, from + Dur::from_ms(1));
            from += Dur::from_ms(4);
        }
        assert_eq!(plan, rebuilt);
    }
}
