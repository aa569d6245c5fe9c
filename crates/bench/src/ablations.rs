//! Ablation studies beyond the paper's headline tables.
//!
//! These exercise the design choices the paper discusses in §2/§3.3
//! but does not tabulate:
//!
//! * **push vs. pull** write notices (remote deposit at releases vs.
//!   remote fetch at acquires — the paper chose push, §2),
//! * **post-queue depth** (the Barnes-spatial direct-diff stall, §3.3
//!   remedy (i)),
//! * **send pipelining** (remedy (iii), the Windows NT fix that lifted
//!   Barnes-spatial to 12.21),
//! * **mprotect coalescing** (the §3.1 optimisation),
//! * **interrupt-cost sweep** (how much of Base's loss is interrupt
//!   cost).

use genima::{run_app, sequential_time, FeatureSet, TextTable, Topology};
use genima_apps::{App, BarnesSpatial, Fft, RadixLocal, WaterNsquared};
use genima_proto::SvmParams;

/// Runs `app` with parameter tweaks applied on top of a feature set.
fn run_tweaked(
    app: &dyn App,
    topo: Topology,
    features: FeatureSet,
    tweak: impl FnOnce(&mut SvmParams),
) -> genima::RunReport {
    let mut params = SvmParams::new(topo, features);
    tweak(&mut params);
    app.spec(topo).into_system(params).run()
}

/// Ablation: post-queue depth sweep on Barnes-spatial under GeNIMA
/// (the direct-diff message storm fills shallow queues and stalls the
/// posting processor).
pub fn post_queue_sweep(topo: Topology) -> TextTable {
    let app = BarnesSpatial::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["Post-queue depth", "Speedup", "vs depth 32"]);
    let mut base = None;
    for depth in [8usize, 16, 32, 64, 256] {
        let r = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.hw.nic.post_queue_capacity = depth;
        });
        let su = r.speedup(seq);
        if depth == 32 {
            base = Some(su);
        }
        t.row(vec![
            depth.to_string(),
            format!("{su:.2}"),
            base.map_or("-".into(), |b| format!("{:+.1}%", (su / b - 1.0) * 100.0)),
        ]);
    }
    t
}

/// Ablation: send pipelining on Barnes-spatial (the paper's NT-version
/// fix — overlapping the source DMA with the next pick drains the post
/// queue faster and recovers the direct-diff loss).
pub fn send_pipelining(topo: Topology) -> TextTable {
    let app = BarnesSpatial::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["Variant", "Sends", "Speedup"]);
    for f in [FeatureSet::dw_rf(), FeatureSet::genima()] {
        for pipelined in [false, true] {
            let r = run_tweaked(&app, topo, f, |p| {
                p.hw.nic.pipelined_sends = pipelined;
            });
            t.row(vec![
                f.name().to_string(),
                if pipelined { "pipelined" } else { "serial" }.to_string(),
                format!("{:.2}", r.speedup(seq)),
            ]);
        }
    }
    t
}

/// Ablation: NI scatter-gather (§3.3 remedy (ii) / §5) on the
/// direct-diff pathology: all of a page's scattered runs travel in one
/// message, trading message count for NI occupancy.
pub fn scatter_gather(topo: Topology) -> TextTable {
    let app = BarnesSpatial::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["Variant", "Speedup", "Diff messages"]);
    let plain = run_app(&app, topo, FeatureSet::dw_rf());
    t.row(vec![
        "DW+RF (packed diffs)".into(),
        format!("{:.2}", plain.report.speedup(seq)),
        plain.report.counters.diffs.to_string(),
    ]);
    let dd = run_app(&app, topo, FeatureSet::genima());
    t.row(vec![
        "GeNIMA (direct diffs)".into(),
        format!("{:.2}", dd.report.speedup(seq)),
        (dd.report.counters.diffs + dd.report.counters.diff_run_messages).to_string(),
    ]);
    let sg = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
        p.hw.nic.scatter_gather = true;
    });
    t.row(vec![
        "GeNIMA + scatter-gather".into(),
        format!("{:.2}", sg.speedup(seq)),
        (sg.counters.diffs + sg.counters.diff_run_messages).to_string(),
    ]);
    t
}

/// Ablation: NI broadcast (§5) for eager write-notice propagation on
/// the notice-heavy Water-nsquared: one posted descriptor replaces
/// nodes-1 separate posts at every release.
pub fn ni_broadcast(topo: Topology) -> TextTable {
    let app = WaterNsquared::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["Variant", "Speedup"]);
    for (label, bc) in [("per-destination deposits", false), ("NI broadcast", true)] {
        let r = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.hw.nic.broadcast = bc;
        });
        t.row(vec![label.to_string(), format!("{:.2}", r.speedup(seq))]);
    }
    t
}

/// Ablation: write-notice propagation policy — piggybacked on grants
/// (Base), eagerly pushed at releases (DW/GeNIMA), or pulled with
/// remote fetch at acquires (§2's rejected alternative). The paper
/// "found no noticeable benefits" for pull at this scale.
pub fn notice_propagation(topo: Topology) -> TextTable {
    let app = WaterNsquared::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["Propagation", "Speedup", "Notice msgs"]);
    for (label, f) in [
        ("piggybacked (Base)", FeatureSet::base()),
        ("eager push (DW)", FeatureSet::dw()),
    ] {
        let r = run_app(&app, topo, f);
        t.row(vec![
            label.to_string(),
            format!("{:.2}", r.report.speedup(seq)),
            r.report.counters.notice_messages.to_string(),
        ]);
    }
    let push = run_app(&app, topo, FeatureSet::genima());
    t.row(vec![
        "GeNIMA, push at release".into(),
        format!("{:.2}", push.report.speedup(seq)),
        push.report.counters.notice_messages.to_string(),
    ]);
    let pull = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
        p.proto.pull_notices = true;
    });
    t.row(vec![
        "GeNIMA, pull at acquire".into(),
        format!("{:.2}", pull.speedup(seq)),
        pull.counters.notice_messages.to_string(),
    ]);
    t
}

/// Ablation: mprotect coalescing on Radix (Table 2 shows Radix is the
/// mprotect-bound application).
pub fn mprotect_coalescing(topo: Topology) -> TextTable {
    let app = RadixLocal::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["mprotect", "Speedup", "mprotect time (ms)"]);
    for (label, per_extra) in [("coalesced", 1.5f64), ("one call per page", 8.0)] {
        let r = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.mem.mprotect.per_extra_page = genima_sim::Dur::from_us_f64(per_extra);
        });
        let mean = r.mean_breakdown();
        t.row(vec![
            label.to_string(),
            format!("{:.2}", r.speedup(seq)),
            format!("{:.1}", mean.mprotect.as_ms()),
        ]);
    }
    t
}

/// Ablation: the §2 open question — full lock algorithm in NI
/// firmware (the paper's prototype) versus plain remote atomic
/// operations with the algorithm in the protocol layer. The firmware
/// chain hands the lock point-to-point; test-and-set spinning burns a
/// network round trip per failed attempt under contention.
pub fn lock_implementation(topo: Topology) -> TextTable {
    let app = WaterNsquared::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["Lock implementation", "Speedup", "Spin retries"]);
    let fw = run_app(&app, topo, FeatureSet::genima());
    t.row(vec![
        "firmware chain (paper)".into(),
        format!("{:.2}", fw.report.speedup(seq)),
        fw.report.counters.lock_spin_retries.to_string(),
    ]);
    let at = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
        p.proto.lock_impl = genima_proto::LockImpl::RemoteAtomics;
    });
    t.row(vec![
        "remote atomics (TAS spin)".into(),
        format!("{:.2}", at.speedup(seq)),
        at.counters.lock_spin_retries.to_string(),
    ]);
    t
}

/// Ablation: page-home placement on FFT — the application's blocked
/// assignment (each node homes its own rows) versus naive round-robin
/// striping. Home-based LRC lives and dies by home placement: writes
/// to remote homes cost diffs, writes to local homes are free.
pub fn home_placement(topo: Topology) -> TextTable {
    let app = Fft::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec![
        "Home policy",
        "Speedup",
        "Diff msgs",
        "Page transfers",
    ]);
    for (label, use_app_homes, first_touch) in [
        ("owner-assigned (blocked)", true, false),
        ("first-touch", false, true),
        ("round-robin striping", false, false),
    ] {
        let mut spec = app.spec(topo);
        if !use_app_homes {
            spec.homes.clear();
        }
        let mut params = SvmParams::new(topo, FeatureSet::genima());
        params.first_touch_homes = first_touch;
        let r = spec.into_system(params).run();
        t.row(vec![
            label.to_string(),
            format!("{:.2}", r.speedup(seq)),
            (r.counters.diffs + r.counters.diff_run_messages).to_string(),
            r.counters.page_transfers.to_string(),
        ]);
    }
    t
}

/// Ablation: interrupt-cost sweep on Water-nsquared under Base — how
/// much of the Base protocol's loss is pure interrupt cost.
pub fn interrupt_cost_sweep(topo: Topology) -> TextTable {
    let app = WaterNsquared::paper();
    let seq = sequential_time(&app);
    let mut t = TextTable::new(vec!["Interrupt latency (us)", "Base speedup"]);
    for lat in [10u64, 30, 60, 120] {
        let r = run_tweaked(&app, topo, FeatureSet::base(), |p| {
            p.proto.interrupt_latency = genima_sim::Dur::from_us(lat);
        });
        t.row(vec![lat.to_string(), format!("{:.2}", r.speedup(seq))]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_recovers_barnes_spatial() {
        // The paper's §3.3 finding: deeper pipelining drains the post
        // queue and recovers most of the direct-diff loss.
        let topo = Topology::new(4, 4);
        let app = BarnesSpatial::paper();
        let seq = sequential_time(&app);
        let serial = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.hw.nic.pipelined_sends = false;
        });
        let pipelined = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.hw.nic.pipelined_sends = true;
        });
        assert!(
            pipelined.speedup(seq) > serial.speedup(seq),
            "pipelined {:.2} must beat serial {:.2}",
            pipelined.speedup(seq),
            serial.speedup(seq)
        );
    }

    #[test]
    fn scatter_gather_recovers_barnes_spatial() {
        // §5's prediction: packing runs into one message removes the
        // post-queue storm that makes direct diffs lose.
        let topo = Topology::new(4, 4);
        let app = BarnesSpatial::paper();
        let seq = sequential_time(&app);
        let dd = run_app(&app, topo, FeatureSet::genima());
        let sg = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.hw.nic.scatter_gather = true;
        });
        assert!(
            sg.speedup(seq) > dd.report.speedup(seq),
            "scatter-gather {:.2} must beat per-run diffs {:.2}",
            sg.speedup(seq),
            dd.report.speedup(seq)
        );
    }

    #[test]
    fn pull_notices_preserve_correctness_and_run() {
        // The §2 alternative must produce a working protocol; the
        // paper found no noticeable benefit, so we only require it to
        // finish and to send *some* fetch-based notice traffic.
        let topo = Topology::new(2, 2);
        let app = WaterNsquared::with_molecules(512, 1);
        let r = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.proto.pull_notices = true;
        });
        assert!(r.counters.notice_messages > 0);
        assert_eq!(r.counters.interrupts, 0, "pull mode stays interrupt-free");
    }

    #[test]
    fn atomics_locks_work_and_spin_under_contention() {
        let topo = Topology::new(2, 2);
        let app = WaterNsquared::with_molecules(512, 1);
        let r = run_tweaked(&app, topo, FeatureSet::genima(), |p| {
            p.proto.lock_impl = genima_proto::LockImpl::RemoteAtomics;
        });
        assert_eq!(
            r.counters.interrupts, 0,
            "atomics mode stays interrupt-free"
        );
        assert!(
            r.counters.lock_spin_retries > 0,
            "contended TAS must retry at least once"
        );
    }

    #[test]
    fn home_placement_matters() {
        let t = home_placement(Topology::new(2, 2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn interrupt_cost_hurts_base() {
        let topo = Topology::new(2, 2);
        let app = WaterNsquared::with_molecules(512, 1);
        let seq = sequential_time(&app);
        let cheap = run_tweaked(&app, topo, FeatureSet::base(), |p| {
            p.proto.interrupt_latency = genima_sim::Dur::from_us(5);
        });
        let dear = run_tweaked(&app, topo, FeatureSet::base(), |p| {
            p.proto.interrupt_latency = genima_sim::Dur::from_us(200);
        });
        assert!(cheap.speedup(seq) > dear.speedup(seq));
    }
}
