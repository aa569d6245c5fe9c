//! SPLASH-2-shaped workload generators for the GeNIMA evaluation.
//!
//! The paper evaluates ten applications (§3.2): six original SPLASH-2
//! codes (FFT, LU-contiguous, Ocean-rowwise, Water-nsquared,
//! Water-spatial, Barnes-original) and four restructured versions
//! (Radix-local, Volrend-stealing, Raytrace, Barnes-spatial). We do
//! not port the SPLASH-2 sources; instead each generator reproduces
//! the **sharing and synchronization pattern** that determines SVM
//! behaviour — all-to-all transposes, stencil halos, per-molecule
//! locks, permutation writes with page-grain false sharing, task
//! queues with stealing, scattered octree updates — as streams of
//! [`Op`](genima_proto::Op)s, with compute costs calibrated to the paper's 200 MHz
//! Pentium Pro nodes.
//!
//! Every application implements [`App`]: given a cluster topology it
//! emits one operation stream per process plus the home-page layout
//! and protocol parameters (lock count, bus demand). The same streams
//! drive both the SVM system (`genima-proto`) and the hardware-DSM
//! reference model (`genima-hwdsm`), exactly as the paper runs the
//! same binaries on both platforms.
//!
//! Problem sizes are the paper's, except where noted in each module's
//! documentation (some iteration counts are reduced to keep simulation
//! times reasonable; the per-iteration sharing pattern is preserved).

#![allow(clippy::explicit_counter_loop)]

mod barnes;
mod common;
mod fft;
mod lu;
mod ocean;
mod radix;
mod raytrace;
mod volrend;
mod water;

pub use barnes::{BarnesOriginal, BarnesSpatial};
pub use common::{Arrival, Layout, OpsBuilder, Region, WorkloadSpec};
pub use fft::Fft;
pub use lu::LuContiguous;
pub use ocean::OceanRowwise;
pub use radix::RadixLocal;
pub use raytrace::Raytrace;
pub use volrend::VolrendStealing;
pub use water::{WaterNsquared, WaterSpatial};

use genima_proto::Topology;

/// A workload that can be instantiated for any cluster topology.
pub trait App {
    /// The paper's name for the application (e.g. `"FFT"`).
    fn name(&self) -> &'static str;

    /// The problem size label (Table 1).
    fn problem(&self) -> String;

    /// Builds the per-process operation streams and layout.
    fn spec(&self, topo: Topology) -> WorkloadSpec;
}

/// All ten applications of the paper's evaluation, in Table 1 order.
pub fn all_apps() -> Vec<Box<dyn App>> {
    vec![
        Box::new(Fft::paper()),
        Box::new(LuContiguous::paper()),
        Box::new(OceanRowwise::paper()),
        Box::new(WaterNsquared::paper()),
        Box::new(WaterSpatial::paper()),
        Box::new(RadixLocal::paper()),
        Box::new(VolrendStealing::paper()),
        Box::new(Raytrace::paper()),
        Box::new(BarnesOriginal::paper()),
        Box::new(BarnesSpatial::paper()),
    ]
}

/// A stable fingerprint of the traffic `app` generates on `topo`:
/// FNV-1a over the `Debug` text of every operation of every process's
/// stream, with an `0xff` step after each process.
pub fn stream_hash(app: &dyn App, topo: Topology) -> u64 {
    let mut h = genima_sim::FNV_OFFSET;
    for mut src in app.spec(topo).sources {
        while let Some(op) = src.next_op() {
            h = genima_sim::fnv1a(h, format!("{op:?}").as_bytes());
        }
        h = genima_sim::fnv1a(h, &[0xff]);
    }
    h
}

/// Looks an application up by its paper name (case-insensitive).
pub fn app_by_name(name: &str) -> Option<Box<dyn App>> {
    all_apps()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_apps_in_table1_order() {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "FFT",
                "LU-contiguous",
                "Ocean-rowwise",
                "Water-nsquared",
                "Water-spatial",
                "Radix-local",
                "Volrend-stealing",
                "Raytrace",
                "Barnes-original",
                "Barnes-spatial",
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(app_by_name("fft").is_some());
        assert!(app_by_name("RAYTRACE").is_some());
        assert!(app_by_name("nope").is_none());
    }

    #[test]
    fn every_app_builds_for_the_paper_topology() {
        let topo = Topology::new(4, 4);
        for app in all_apps() {
            let spec = app.spec(topo);
            assert_eq!(spec.sources.len(), 16, "{}: wrong source count", app.name());
            assert!(spec.locks >= 1, "{}: no locks", app.name());
            assert!(!app.problem().is_empty());
        }
    }

    #[test]
    fn every_app_builds_for_one_processor() {
        let topo = Topology::new(1, 1);
        for app in all_apps() {
            let spec = app.spec(topo);
            assert_eq!(spec.sources.len(), 1, "{}", app.name());
        }
    }

    #[test]
    fn every_stream_is_well_formed() {
        use genima_proto::Op;
        let topo = Topology::new(4, 4);
        for app in all_apps() {
            let spec = app.spec(topo);
            let total_pages: usize = spec.homes.iter().map(|(_, c, _)| c).sum();
            let mut barrier_sets: Vec<std::collections::BTreeSet<usize>> = Vec::new();
            for mut src in spec.sources {
                let mut bars = std::collections::BTreeSet::new();
                let mut balance = 0i64;
                while let Some(op) = src.next_op() {
                    match op {
                        Op::Acquire(l) => {
                            assert!(l.index() < spec.locks, "{}: lock out of range", app.name());
                            balance += 1;
                        }
                        Op::Release(l) => {
                            assert!(l.index() < spec.locks, "{}", app.name());
                            balance -= 1;
                            assert!(balance >= 0, "{}: release without acquire", app.name());
                        }
                        Op::Barrier(b) => {
                            bars.insert(b.index());
                        }
                        Op::Read { addr, len } | Op::Write { addr, len } => {
                            assert!(len > 0, "{}: empty access", app.name());
                            let last = (addr.value() + len as u64 - 1) / 4096;
                            assert!(
                                (last as usize) < total_pages + 64,
                                "{}: access beyond layout",
                                app.name()
                            );
                        }
                        _ => {}
                    }
                }
                assert_eq!(balance, 0, "{}: unbalanced locks", app.name());
                barrier_sets.push(bars);
            }
            // Every process joins the same barriers (else deadlock).
            for w in barrier_sets.windows(2) {
                assert_eq!(w[0], w[1], "{}: divergent barrier sets", app.name());
            }
        }
    }

    #[test]
    fn streams_are_deterministic_across_builds() {
        use genima_proto::Op;
        let topo = Topology::new(2, 2);
        for app in all_apps() {
            let a = app.spec(topo);
            let b = app.spec(topo);
            for (mut sa, mut sb) in a.sources.into_iter().zip(b.sources) {
                loop {
                    let (oa, ob): (Option<Op>, Option<Op>) = (sa.next_op(), sb.next_op());
                    assert_eq!(oa, ob, "{}", app.name());
                    if oa.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
