//! Running applications on the simulated cluster.

use genima_apps::App;
use genima_fault::{FaultPlan, FaultStats, PlanInjector};
use genima_hwdsm::{HwDsm, HwDsmConfig, HwReport};
use genima_obs::{ObsConfig, ObsReport, Recorder};
use genima_proto::{
    BarrierImpl, Column, FeatureSet, ProtoError, RunReport, SvmParams, Topology, TraceEvent,
};
use genima_sim::{Dur, RunSeed};

/// Everything a whole-run invocation can vary besides the application:
/// the system's parameters (cluster shape, protocol variant on its
/// hardware, and whatever a study tunes on top), the single
/// workspace-level RNG seed, the fault plan and what the run records.
///
/// One [`RunSeed`] drives every pseudo-random stream in the run (fault
/// fates and delay amounts, each from its own named sub-stream), so a
/// faulty run is reproducible from one `--seed` value.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The system the run builds, before the application sizes it
    /// (lock count, bus demand, warm-up barrier).
    pub params: SvmParams,
    /// Workspace-level seed all randomness derives from.
    pub seed: RunSeed,
    /// What goes wrong; [`FaultPlan::none`] for a clean run.
    pub faults: FaultPlan,
    /// Span recording; [`ObsConfig::off`] keeps the run observation-free
    /// (no recorder is allocated and no emission branch is taken).
    pub obs: ObsConfig,
    /// Record the protocol's event trace into
    /// [`ConfiguredOutcome::trace`] (what `genima-check` audits). Purely
    /// observational: the run is the same with it on or off.
    pub trace: bool,
}

impl RunConfig {
    /// A clean-run configuration of `column`'s parameters on `topo`
    /// with the workspace default seed. A bare [`FeatureSet`] means
    /// that feature set on the 1999 LANai.
    pub fn new(topo: Topology, column: impl Into<Column>) -> RunConfig {
        RunConfig {
            params: column.into().params(topo),
            seed: RunSeed::default(),
            faults: FaultPlan::none(),
            obs: ObsConfig::off(),
            trace: false,
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

    /// Forces a barrier implementation in place of the column's
    /// default (NI-tree collectives on the interrupt-free columns, the
    /// host-side node-0 manager everywhere else). Benches use this to
    /// isolate the host-barrier vs NI-barrier axis on an otherwise
    /// identical run.
    pub fn with_barrier(mut self, barrier: BarrierImpl) -> RunConfig {
        self.params.barrier = barrier;
        self
    }

    /// Enables or disables degraded-mode fault handling
    /// ([`SvmParams::degraded`]): when a peer exhausts its
    /// retransmission budget, recover per-transaction instead of
    /// aborting the whole run. Off by default, so a run keeps the
    /// fail-stop `Err(PeerUnreachable)` contract.
    pub fn with_degraded(mut self, degraded: bool) -> RunConfig {
        self.params.degraded = degraded;
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
    /// The protocol's event trace in emission order (empty unless
    /// [`RunConfig::trace`] was set).
    pub trace: Vec<TraceEvent>,
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
    let mut sys = app.spec(cfg.params.topo).into_system(cfg.params.clone());
    let stats = if cfg.faults.is_active() {
        let injector = PlanInjector::new(cfg.faults.clone(), cfg.seed);
        let handle = injector.stats_handle();
        sys.set_fault_injector(Box::new(injector));
        Some(handle)
    } else {
        None
    };
    let recorder = Recorder::shared(cfg.params.topo.nodes, &cfg.obs);
    if let Some(h) = recorder.as_ref() {
        sys.set_observer(h.clone());
    }
    sys.set_tracing(cfg.trace);
    let report = sys.try_run()?;
    Ok(ConfiguredOutcome {
        features: cfg.params.features,
        report,
        faults: stats.map(|h| *h.borrow()).unwrap_or_default(),
        obs: recorder.map(|h| h.borrow_mut().take()).unwrap_or_default(),
        trace: sys.take_trace(),
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
    let cfg = HwDsmConfig {
        // A uniprocessor pays plain memory-hierarchy costs.
        remote_miss: Dur::from_ns(300),
        local_miss: Dur::from_ns(150),
        lock_op: Dur::from_ns(500),
        barrier_op: Dur::ZERO,
        ..HwDsmConfig::origin2000()
    };
    run_on_hwdsm(app, Topology::new(1, 1), cfg).finish
}

/// Runs `app` on the hardware-DSM reference machine (Origin 2000
/// model) with the same operation streams.
pub fn run_app_on_hwdsm(app: &dyn App, topo: Topology) -> HwReport {
    run_on_hwdsm(app, topo, HwDsmConfig::origin2000())
}

/// Runs `app`'s streams on `topo` on the hardware-DSM model `cfg`.
fn run_on_hwdsm(app: &dyn App, topo: Topology, cfg: HwDsmConfig) -> HwReport {
    let spec = app.spec(topo);
    let locks = spec.locks.max(1);
    HwDsm::with_config(cfg, topo, spec.sources, locks, spec.warmup_barrier).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_apps::{OceanRowwise, WaterNsquared};

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

    /// Tracing is observational: with the trace on, every column's
    /// report is the one it makes with the trace off, clean and under
    /// loss.
    #[test]
    fn tracing_moves_no_report() {
        let app = WaterNsquared::with_molecules(256, 1);
        let lossy = FaultPlan::new().drop_rate(0.05);
        for column in Column::all() {
            for faults in [FaultPlan::none(), lossy.clone()] {
                let cfg = RunConfig::new(Topology::new(2, 2), column)
                    .with_seed(5)
                    .with_faults(faults);
                let traced = RunConfig {
                    trace: true,
                    ..cfg.clone()
                };
                let [off, on] = [&cfg, &traced].map(|c| match run_app_configured(&app, c) {
                    Ok(out) => out,
                    Err(e) => panic!("{column}: {e}"),
                });
                assert!(off.trace.is_empty() && !on.trace.is_empty(), "{column}");
                assert_eq!(off.report.to_json(), on.report.to_json(), "{column}");
                assert_eq!(off.faults, on.faults, "{column}");
            }
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
