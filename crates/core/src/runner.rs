//! Running applications on the simulated cluster.

use genima_apps::App;
use genima_fault::{FaultPlan, FaultStats, PlanInjector};
use genima_hwdsm::{HwDsm, HwDsmConfig, HwReport};
use genima_obs::{ObsConfig, ObsReport, Recorder};
use genima_proto::{BarrierImpl, Column, FeatureSet, ProtoError, RunReport, Topology};
use genima_sim::{Dur, RunSeed};

/// Everything a whole-run invocation can vary besides the application:
/// cluster shape, evaluation column, the single workspace-level RNG
/// seed, and the fault plan.
///
/// One [`RunSeed`] drives every pseudo-random stream in the run (fault
/// fates and delay amounts, each from its own named sub-stream), so a
/// faulty run is reproducible from one `--seed` value.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Cluster shape.
    pub topo: Topology,
    /// Protocol variant on its hardware generation.
    pub column: Column,
    /// Workspace-level seed all randomness derives from.
    pub seed: RunSeed,
    /// What goes wrong; [`FaultPlan::none`] for a clean run.
    pub faults: FaultPlan,
    /// Span recording; [`ObsConfig::off`] keeps the run observation-free
    /// (no recorder is allocated and no emission branch is taken).
    pub obs: ObsConfig,
    /// Barrier implementation override; `None` keeps the feature-set
    /// default (NI-tree collectives on GeNIMA, the host-side node-0
    /// manager everywhere else). Benches use this to isolate the
    /// host-barrier vs NI-barrier axis on an otherwise identical run.
    pub barrier: Option<BarrierImpl>,
    /// Degraded-mode fault handling: when a peer exhausts its
    /// retransmission budget, recover per-transaction (synchronisation
    /// traffic heals over the management channel; a lost fetch fails
    /// into the latency histogram, and nothing else can fail) instead
    /// of aborting the whole run. Off by default so existing callers
    /// keep the fail-stop `Err(PeerUnreachable)` contract.
    pub degraded: bool,
}

impl RunConfig {
    /// A clean-run configuration with the workspace default seed. A
    /// bare [`FeatureSet`] means that feature set on the 1999 LANai.
    pub fn new(topo: Topology, column: impl Into<Column>) -> RunConfig {
        RunConfig {
            topo,
            column: column.into(),
            seed: RunSeed::default(),
            faults: FaultPlan::none(),
            obs: ObsConfig::off(),
            barrier: None,
            degraded: false,
        }
    }

    /// Replaces the run seed.
    pub fn with_seed(mut self, seed: u64) -> RunConfig {
        self.seed = RunSeed::new(seed);
        self
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> RunConfig {
        self.faults = faults;
        self
    }

    /// Replaces the observability configuration.
    pub fn with_obs(mut self, obs: ObsConfig) -> RunConfig {
        self.obs = obs;
        self
    }

    /// Forces a barrier implementation regardless of the feature set.
    pub fn with_barrier(mut self, barrier: BarrierImpl) -> RunConfig {
        self.barrier = Some(barrier);
        self
    }

    /// Enables or disables degraded-mode fault handling.
    pub fn with_degraded(mut self, degraded: bool) -> RunConfig {
        self.degraded = degraded;
        self
    }
}

/// Result of a configured (possibly faulty) run.
#[derive(Debug, Clone)]
pub struct ConfiguredOutcome {
    /// The protocol variant used.
    pub features: FeatureSet,
    /// The full measurement report (includes loss-recovery counters).
    pub report: RunReport,
    /// What the fault injector actually did (all zero for a clean run).
    pub faults: FaultStats,
    /// Recorded spans (empty unless [`RunConfig::obs`] was enabled).
    pub obs: ObsReport,
}

/// Runs `app` fault-free on one evaluation [`Column`] — a feature set
/// on a hardware generation. A bare [`FeatureSet`] means that feature
/// set on the paper's 1999 LANai; `Column::genima_2025()` runs the
/// full GeNIMA protocol on the 2025 RNIC model with masked-CAS locks.
///
/// # Example
///
/// ```
/// use genima::{run_app, FeatureSet, Topology};
/// use genima_apps::OceanRowwise;
///
/// let out = run_app(
///     &OceanRowwise::with_grid(128, 2),
///     Topology::new(2, 1),
///     FeatureSet::base(),
/// );
/// assert!(out.report.counters.barriers > 0);
/// ```
pub fn run_app(app: &dyn App, topo: Topology, column: impl Into<Column>) -> ConfiguredOutcome {
    match run_app_configured(app, &RunConfig::new(topo, column)) {
        Ok(out) => out,
        Err(e) => panic!("protocol run aborted: {e}"),
    }
}

/// Runs `app` under a full [`RunConfig`], installing a fault injector
/// when the plan is active.
///
/// An inactive plan ([`FaultPlan::none`]) installs no injector at all,
/// so [`run_app`] is exactly the clean case of this function.
///
/// # Errors
///
/// Returns [`ProtoError::PeerUnreachable`] when a node exhausts its
/// retransmission budget against an unresponsive peer (e.g. an
/// [`FaultPlan::outage`] longer than the full backoff schedule).
pub fn run_app_configured(app: &dyn App, cfg: &RunConfig) -> Result<ConfiguredOutcome, ProtoError> {
    let mut params = cfg.column.params(cfg.topo);
    if let Some(b) = cfg.barrier {
        params.barrier = b;
    }
    params.degraded = cfg.degraded;
    let mut sys = app.spec(cfg.topo).into_system(params);
    let stats = if cfg.faults.is_active() {
        let injector = PlanInjector::new(cfg.faults.clone(), cfg.seed);
        let handle = injector.stats_handle();
        sys.set_fault_injector(Box::new(injector));
        Some(handle)
    } else {
        None
    };
    let recorder = Recorder::shared(cfg.topo.nodes, &cfg.obs);
    if let Some(h) = recorder.as_ref() {
        sys.set_observer(h.clone());
    }
    let report = sys.try_run()?;
    Ok(ConfiguredOutcome {
        features: cfg.column.features,
        report,
        faults: stats.map(|h| *h.borrow()).unwrap_or_default(),
        obs: recorder.map(|h| h.borrow_mut().take()).unwrap_or_default(),
    })
}

/// Runs `app` sequentially and returns the parallel-section time — the
/// denominator of every speedup in the paper.
///
/// Matches the paper's methodology (§3.2): the sequential version runs
/// *without linking to the SVM library or introducing any other
/// overheads* — no page protection, no twinning, no protocol — so it
/// executes on a plain uniprocessor model (local memory latencies,
/// trivial synchronization). Initialization before the warmup barrier
/// is excluded on both sides, per SPLASH-2 guidelines.
pub fn sequential_time(app: &dyn App) -> Dur {
    let topo = Topology::new(1, 1);
    let spec = app.spec(topo);
    let cfg = HwDsmConfig {
        // A uniprocessor pays plain memory-hierarchy costs.
        remote_miss: genima_sim::Dur::from_ns(300),
        local_miss: genima_sim::Dur::from_ns(150),
        lock_op: genima_sim::Dur::from_ns(500),
        barrier_op: genima_sim::Dur::ZERO,
        ..HwDsmConfig::origin2000()
    };
    HwDsm::with_config(
        cfg,
        topo,
        spec.sources,
        spec.locks.max(1),
        spec.warmup_barrier,
    )
    .run()
    .finish
}

/// Runs `app` on the hardware-DSM reference machine (Origin 2000
/// model) with the same operation streams.
pub fn run_app_on_hwdsm(app: &dyn App, topo: Topology) -> HwReport {
    let spec = app.spec(topo);
    HwDsm::with_config(
        HwDsmConfig::origin2000(),
        topo,
        spec.sources,
        spec.locks.max(1),
        spec.warmup_barrier,
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_apps::OceanRowwise;

    #[test]
    fn parallel_beats_sequential_for_a_stencil() {
        let app = OceanRowwise::paper();
        let seq = sequential_time(&app);
        let par = run_app(&app, Topology::new(4, 4), FeatureSet::genima());
        let speedup = par.report.speedup(seq);
        assert!(
            speedup > 3.0,
            "16 processors must beat 1 on Ocean: speedup {speedup:.2}"
        );
    }

    #[test]
    fn genima_2025_runs_interrupt_free_and_faster_than_1999() {
        let app = OceanRowwise::with_grid(128, 4);
        let topo = Topology::new(2, 2);
        let old = run_app(&app, topo, Column::lanai(FeatureSet::genima()));
        let new = run_app(&app, topo, Column::genima_2025());
        assert_eq!(new.report.counters.interrupts, 0);
        assert_eq!(new.report.hw, "RNIC-2025");
        assert!(new.report.ni.doorbells > 0, "RNIC path must ring doorbells");
        assert!(
            new.report.finish < old.report.finish,
            "2025 hardware must beat 1999: {:?} vs {:?}",
            new.report.finish,
            old.report.finish
        );
    }

    #[test]
    fn a_feature_set_names_its_lanai_column() {
        let app = OceanRowwise::with_grid(128, 2);
        let topo = Topology::new(2, 2);
        for features in FeatureSet::ALL {
            let bare = run_app(&app, topo, features);
            let column = run_app(&app, topo, Column::lanai(features));
            assert_eq!(bare.report.to_json(), column.report.to_json());
            assert_eq!(bare.features, features);
        }
    }

    #[test]
    fn hwdsm_beats_svm_on_the_same_streams() {
        let app = OceanRowwise::with_grid(256, 6);
        let seq = sequential_time(&app);
        let topo = Topology::new(4, 4);
        let svm = run_app(&app, topo, FeatureSet::base());
        let hw = run_app_on_hwdsm(&app, topo);
        assert!(
            hw.speedup(seq) > svm.report.speedup(seq),
            "hardware DSM {:.2} must beat Base SVM {:.2} (Figure 1)",
            hw.speedup(seq),
            svm.report.speedup(seq)
        );
    }
}
