//! Executing simulator runs: set-up and run timed apart, every run
//! contained so one failure cannot take the benchmark down.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use genima::{FaultStats, PlanInjector, RunReport};
use genima_obs::{ObsConfig, ObsReport, Recorder};
use genima_proto::{SvmSystem, Topology};
use genima_sim::RunSeed;

use crate::alloc;
use crate::spans::Spans;
use crate::workloads::{for_each_op, RunSpec, Workload};

/// What a completed run produced.
pub struct RunData {
    pub report: RunReport,
    pub faults: FaultStats,
    pub obs: ObsReport,
}

/// One run's host-side cost and its result.
pub struct RunOutcome {
    /// Everything before `try_run`: `app.spec()`, fault plan and
    /// injector, `SvmSystem` construction, home assignment.
    pub setup_ns: u64,
    /// Time inside `try_run`.
    pub wall_ns: u64,
    /// `alloc` + `realloc` calls inside `try_run`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub alloc_bytes: u64,
    /// `Err` carries the error or panic message.
    pub result: Result<RunData, String>,
}

/// Runs `run` once. This is `genima::run_app_configured` taken apart
/// so that set-up and run are timed separately and each call into a
/// layer gets a span; the calls and their order are the same.
pub fn execute(run: &RunSpec, obs: ObsConfig, spans: &mut Spans) -> RunOutcome {
    spans.next_run();
    let whole = spans.begin("run");
    let (mut setup_ns, mut wall_ns, mut allocs, mut alloc_bytes) = (0, 0, 0, 0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let t_setup = Instant::now();
        let s = spans.begin("apps.spec");
        let spec = run.app.spec(run.topo);
        spans.end(s);

        let column = run.col.column();
        let mut params = column.params(run.topo);
        params.locks = spec.locks.max(1);
        params.bus_demand_per_proc = spec.bus_demand_per_proc;
        params.warmup_barrier = spec.warmup_barrier;
        params.degraded = run.degraded;
        let s = spans.begin("proto.new");
        let mut sys = SvmSystem::new(params, spec.sources);
        spans.end(s);
        let s = spans.begin("proto.assign_homes");
        for (start, count, node) in spec.homes {
            sys.assign_homes(start, count, node);
        }
        spans.end(s);
        let fault_stats = if run.faults.is_active() {
            let s = spans.begin("fault.plan");
            let injector = PlanInjector::new(run.faults.clone(), RunSeed::new(run.fault_seed));
            let handle = injector.stats_handle();
            sys.set_fault_injector(Box::new(injector));
            spans.end(s);
            Some(handle)
        } else {
            None
        };
        let recorder = Recorder::shared(run.topo.nodes, &obs);
        if let Some(h) = recorder.as_ref() {
            sys.set_observer(h.clone());
        }
        setup_ns = t_setup.elapsed().as_nanos() as u64;

        let (calls_before, bytes_before) = (alloc::calls(), alloc::requested_bytes());
        let t_run = Instant::now();
        let s = spans.begin("proto.try_run");
        let report = sys.try_run();
        spans.end(s);
        wall_ns = t_run.elapsed().as_nanos() as u64;
        allocs = alloc::calls() - calls_before;
        alloc_bytes = alloc::requested_bytes() - bytes_before;

        let s = spans.begin("obs.take");
        let obs = recorder.map(|h| h.borrow_mut().take()).unwrap_or_default();
        spans.end(s);
        report.map(|report| RunData {
            report,
            faults: fault_stats.map(|h| *h.borrow()).unwrap_or_default(),
            obs,
        })
    }));
    spans.end(whole);
    let result = match caught {
        Ok(Ok(data)) => Ok(data),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(payload) => Err(format!("panic: {}", panic_message(payload.as_ref()))),
    };
    RunOutcome {
        setup_ns,
        wall_ns,
        allocs,
        alloc_bytes,
        result,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Every run of the workload once, in order.
pub struct Pass {
    pub runs: Vec<RunOutcome>,
    /// High-water mark of live heap bytes during the pass.
    pub peak_bytes: u64,
}

impl Pass {
    pub fn setup_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.setup_ns).sum()
    }

    pub fn wall_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.wall_ns).sum()
    }

    pub fn allocs(&self) -> u64 {
        self.runs.iter().map(|r| r.allocs).sum()
    }

    pub fn alloc_bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.alloc_bytes).sum()
    }
}

/// One untraced pass over `w`. A failed run is reported on standard
/// error with its workload, column and label, and the pass goes on.
pub fn run_pass(w: &Workload, spans: &mut Spans) -> Pass {
    alloc::reset_peak();
    let runs = w
        .runs
        .iter()
        .map(|run| {
            let out = execute(run, ObsConfig::off(), spans);
            if let Err(msg) = &out.result {
                eprintln!(
                    "FAILED RUN {}/{}/{}: {msg}",
                    w.name,
                    run.col.name(),
                    run.label
                );
            }
            out
        })
        .collect();
    Pass {
        runs,
        peak_bytes: alloc::peak_bytes(),
    }
}

/// FNV-1a fingerprint of everything a run reported, for the
/// bit-identity check across passes.
pub fn fingerprint(data: &RunData) -> u64 {
    let f = &data.faults;
    let text = format!(
        "{}|{} {} {} {} {} {} {}",
        data.report.to_json(),
        f.packets,
        f.dropped,
        f.duplicated,
        f.delayed,
        f.targeted,
        f.outage_drops,
        f.stalls
    );
    fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes())
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Drains every operation stream of `app.spec(topo)`: the number of
/// operations and an FNV-1a hash over each one's processor and `Debug`
/// rendering (the fingerprint `serving_bench` compares across columns).
pub fn stream_count_and_hash(app: &dyn genima_apps::App, topo: Topology) -> (u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut count = 0;
    let mut text = String::new();
    for_each_op(app, topo, |proc, op| {
        count += 1;
        text.clear();
        write!(text, "{proc} {op:?}").expect("writing to a String cannot fail");
        h = fnv1a(h, text.as_bytes());
    });
    (count, h)
}

/// Number of operations in `app.spec(topo)`'s streams.
pub fn stream_count(app: &dyn genima_apps::App, topo: Topology) -> u64 {
    let mut count = 0;
    for_each_op(app, topo, |_, _| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, Col};

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(0xcbf2_9ce4_8422_2325, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(0xcbf2_9ce4_8422_2325, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn a_smoke_run_completes_and_repeats_bit_identically() {
        let w = build("serve_kv_churn", 3, true).expect("workload");
        let run = w
            .runs
            .iter()
            .find(|r| r.col == Col::Genima)
            .expect("a GeNIMA run");
        let mut spans = Spans::new(true);
        let a = execute(run, ObsConfig::off(), &mut spans);
        let b = execute(run, ObsConfig::off(), &mut spans);
        let (a, b) = (a.result.expect("run a"), b.result.expect("run b"));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.report.counters.interrupts, 0);
        assert!(a.faults.packets > 0, "the churn plan installs an injector");
        assert!(spans.len() >= 2 * 6, "run, spec, new, homes, plan, try_run");
        let (n, h) = stream_count_and_hash(run.app.as_ref(), run.topo);
        assert_eq!(n, stream_count(run.app.as_ref(), run.topo));
        assert_eq!((n, h), stream_count_and_hash(run.app.as_ref(), run.topo));
    }

    #[test]
    fn a_panicking_run_is_contained_and_described() {
        struct Boom;
        impl genima_apps::App for Boom {
            fn name(&self) -> &'static str {
                "Boom"
            }
            fn problem(&self) -> String {
                String::new()
            }
            fn spec(&self, _: Topology) -> genima_apps::WorkloadSpec {
                panic!("spec exploded")
            }
        }
        let mut w = build("bulk_lu", 0, true).expect("workload");
        let mut run = w.runs.remove(0);
        run.app = std::rc::Rc::new(Boom);
        let mut spans = Spans::new(true);
        let out = execute(&run, ObsConfig::off(), &mut spans);
        assert_eq!(out.result.err().as_deref(), Some("panic: spec exploded"));
        // The log is usable afterwards: nothing is left open.
        let next = spans.begin("after");
        spans.end(next);
    }
}
