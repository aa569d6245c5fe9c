//! Protocol-behaviour tests: coherence visibility, causality,
//! interrupt-freedom, determinism, pin accounting.

use super::*;
use crate::breakdown::Breakdown;
use crate::column::Column;
use crate::features::FeatureSet;
use crate::ids::{BarrierId, NodeId, Topology};
use crate::ops::{ops_source, Op, OpSource};
use genima_mem::Addr;
use genima_nic::{LockId, NiStats};
use genima_sim::Dur;

fn boxed(ops: Vec<Op>) -> Box<dyn OpSource> {
    Box::new(ops_source(ops))
}

fn params(column: impl Into<Column>, nodes: usize, ppn: usize) -> SvmParams {
    let mut p = column.into().params(Topology::new(nodes, ppn));
    p.data_mode = true;
    p.locks = 8;
    p
}

/// Byte address `off` inside `page` (pages default to home `page % nodes`).
fn addr(page: usize, off: u64) -> Addr {
    Addr::new(page as u64 * PAGE_SIZE as u64 + off)
}

#[test]
fn barrier_propagates_writes_under_every_protocol() {
    for f in Column::all() {
        let b = BarrierId::new(0);
        let writer = boxed(vec![
            Op::WriteData {
                addr: addr(1, 100),
                data: vec![7, 8, 9],
            },
            Op::Barrier(b),
        ]);
        let reader = boxed(vec![
            Op::Barrier(b),
            Op::Validate {
                addr: addr(1, 100),
                expected: vec![7, 8, 9],
            },
        ]);
        // Two nodes, one proc each; page 1 is homed on node 1, so the
        // writer (node 0) diffs to a remote home and the reader reads
        // its local home copy after the barrier.
        let mut sys = SvmSystem::new(params(f, 2, 1), vec![writer, reader]);
        let r = sys.run();
        assert!(r.counters.barriers >= 1, "{f}: no barrier completed");
        assert!(r.counters.diffs >= 1, "{f}: no diff flushed");
    }
}

#[test]
fn reader_fetches_remote_page_under_every_protocol() {
    for f in Column::all() {
        let b = BarrierId::new(0);
        // p0 on node 0, p1 on node 1. p1 writes page 0 (homed node 0);
        // p0 writes page 2 (homed node 0). After the barrier p1 must
        // fetch page 2 from node 0 and p0 reads page 0 locally.
        let p0 = boxed(vec![
            Op::WriteData {
                addr: addr(2, 8),
                data: vec![5, 6],
            },
            Op::Barrier(b),
            Op::Validate {
                addr: addr(0, 0),
                expected: vec![1, 2, 3, 4],
            },
        ]);
        let p1 = boxed(vec![
            Op::WriteData {
                addr: addr(0, 0),
                data: vec![1, 2, 3, 4],
            },
            Op::Barrier(b),
            Op::Validate {
                addr: addr(2, 8),
                expected: vec![5, 6],
            },
        ]);
        let mut sys = SvmSystem::new(params(f, 2, 1), vec![p0, p1]);
        let r = sys.run();
        assert!(
            r.counters.page_transfers >= 1,
            "{f}: expected at least one remote page transfer"
        );
    }
}

#[test]
fn lock_carries_causality_under_every_protocol() {
    for f in Column::all() {
        let l = LockId::new(1); // homed on node 1 (1 % 2)
        let b = BarrierId::new(0);
        // p0 (node 0) writes under the lock early; p1 (node 1)
        // acquires long after p0's release and must see the write
        // (release consistency through the lock, no barrier between).
        let writer = boxed(vec![
            Op::Acquire(l),
            Op::WriteData {
                addr: addr(3, 0),
                data: vec![42; 8],
            },
            Op::Release(l),
            Op::Barrier(b),
        ]);
        let reader = boxed(vec![
            Op::Compute(genima_sim::Dur::from_ms(20)),
            Op::Acquire(l),
            Op::Validate {
                addr: addr(3, 0),
                expected: vec![42; 8],
            },
            Op::Release(l),
            Op::Barrier(b),
        ]);
        let mut sys = SvmSystem::new(params(f, 2, 1), vec![writer, reader]);
        let r = sys.run();
        assert!(
            r.counters.remote_lock_acquires >= 1,
            "{f}: lock never crossed nodes"
        );
    }
}

#[test]
fn genima_takes_no_interrupts_base_takes_many() {
    let run = |f: FeatureSet| {
        let l = LockId::new(0);
        let b = BarrierId::new(0);
        let mk = |seed: u64| {
            let mut ops = vec![];
            for k in 0..10u64 {
                ops.push(Op::Acquire(l));
                ops.push(Op::Write {
                    addr: addr(4, (seed * 64 + k * 8) % 4000),
                    len: 8,
                });
                ops.push(Op::Release(l));
                ops.push(Op::Compute(genima_sim::Dur::from_us(200)));
            }
            ops.push(Op::Barrier(b));
            ops
        };
        let mut p = params(f, 2, 2);
        p.data_mode = false;
        let mut sys = SvmSystem::new(p, (0..4).map(|i| boxed(mk(i))).collect());
        sys.run()
    };
    let base = run(FeatureSet::base());
    let genima = run(FeatureSet::genima());
    assert!(base.counters.interrupts > 0, "Base must interrupt");
    assert_eq!(genima.counters.interrupts, 0, "GeNIMA must never interrupt");
    assert!(
        genima.parallel_time() < base.parallel_time(),
        "GeNIMA should beat Base on a lock-heavy workload: {} vs {}",
        genima.parallel_time(),
        base.parallel_time()
    );
}

#[test]
fn disjoint_writers_merge_through_diffs() {
    for f in [FeatureSet::base(), FeatureSet::genima()] {
        let b = BarrierId::new(0);
        // Both write disjoint words of page 5 concurrently (the
        // multiple-writer problem); after the barrier both see both.
        let w0 = boxed(vec![
            Op::WriteData {
                addr: addr(5, 0),
                data: vec![0xAA; 4],
            },
            Op::Barrier(b),
            Op::Validate {
                addr: addr(5, 0),
                expected: vec![0xAA; 4],
            },
            Op::Validate {
                addr: addr(5, 2000),
                expected: vec![0xBB; 4],
            },
        ]);
        let w1 = boxed(vec![
            Op::WriteData {
                addr: addr(5, 2000),
                data: vec![0xBB; 4],
            },
            Op::Barrier(b),
            Op::Validate {
                addr: addr(5, 0),
                expected: vec![0xAA; 4],
            },
            Op::Validate {
                addr: addr(5, 2000),
                expected: vec![0xBB; 4],
            },
        ]);
        let mut sys = SvmSystem::new(params(f, 2, 1), vec![w0, w1]);
        sys.run();
    }
}

#[test]
fn runs_are_deterministic() {
    let mk = || {
        let l = LockId::new(0);
        let b = BarrierId::new(0);
        let srcs: Vec<Box<dyn OpSource>> = (0..4u64)
            .map(|i| {
                boxed(vec![
                    Op::Compute(genima_sim::Dur::from_us(50 * (i + 1))),
                    Op::Acquire(l),
                    Op::Write {
                        addr: addr(6, i * 16),
                        len: 8,
                    },
                    Op::Release(l),
                    Op::Barrier(b),
                    Op::Read {
                        addr: addr(6, 0),
                        len: 64,
                    },
                ])
            })
            .collect();
        let mut p = params(FeatureSet::genima(), 2, 2);
        p.data_mode = false;
        SvmSystem::new(p, srcs).run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.parallel_time(), b.parallel_time());
    assert_eq!(a.events, b.events);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn pin_footprint_shrinks_with_remote_fetch() {
    let mk = |f: FeatureSet| {
        let b = BarrierId::new(0);
        let srcs: Vec<Box<dyn OpSource>> = (0..2u64)
            .map(|i| {
                boxed(vec![
                    Op::Write {
                        addr: addr(i as usize * 8, 0),
                        len: 4096 * 8,
                    },
                    Op::Barrier(b),
                    Op::Read {
                        addr: addr((1 - i as usize) * 8, 0),
                        len: 4096 * 8,
                    },
                ])
            })
            .collect();
        let mut p = params(f, 2, 1);
        p.data_mode = false;
        SvmSystem::new(p, srcs).run()
    };
    let base = mk(FeatureSet::base());
    let rf = mk(FeatureSet::dw_rf());
    let base_pin: u64 = base.pinned_shared_bytes.iter().sum();
    let rf_pin: u64 = rf.pinned_shared_bytes.iter().sum();
    assert!(
        rf_pin < base_pin,
        "remote fetch must shrink the pin footprint ({rf_pin} vs {base_pin})"
    );
}

#[test]
fn uniprocessor_run_has_no_communication() {
    let srcs: Vec<Box<dyn OpSource>> = vec![boxed(vec![
        Op::Compute(genima_sim::Dur::from_ms(1)),
        Op::Write {
            addr: addr(0, 0),
            len: 4096 * 4,
        },
        Op::Read {
            addr: addr(0, 0),
            len: 4096 * 4,
        },
    ])];
    let mut p = Column::lanai(FeatureSet::base()).params(Topology::new(1, 1));
    p.locks = 1;
    let mut sys = SvmSystem::new(p, srcs);
    let r = sys.run();
    assert_eq!(r.counters.page_transfers, 0);
    assert_eq!(r.counters.interrupts, 0);
    assert!(r.parallel_time() >= genima_sim::Dur::from_ms(1));
}

#[test]
fn warmup_barrier_resets_measurement() {
    let b0 = BarrierId::new(0);
    let srcs: Vec<Box<dyn OpSource>> = (0..2)
        .map(|_| {
            boxed(vec![
                Op::Compute(genima_sim::Dur::from_ms(5)),
                Op::Barrier(b0),
                Op::Compute(genima_sim::Dur::from_ms(1)),
            ])
        })
        .collect();
    let mut p = params(FeatureSet::genima(), 2, 1);
    p.data_mode = false;
    p.warmup_barrier = Some(b0);
    let r = SvmSystem::new(p, srcs).run();
    // The 5 ms init compute is excluded from the measured run.
    assert!(
        r.parallel_time() < genima_sim::Dur::from_ms(3),
        "warmup not excluded: {}",
        r.parallel_time()
    );
    let mean = r.mean_breakdown();
    assert!(mean.compute >= genima_sim::Dur::from_us(900));
}

#[test]
fn intra_node_lock_handoff_is_cheap() {
    // Two procs on the same node ping the same lock; all acquires
    // after the first must be local.
    let l = LockId::new(0);
    let mk = || {
        let mut ops = vec![];
        for _ in 0..20 {
            ops.push(Op::Acquire(l));
            ops.push(Op::Compute(genima_sim::Dur::from_us(5)));
            ops.push(Op::Release(l));
        }
        ops
    };
    let mut p = params(FeatureSet::genima(), 1, 2);
    p.data_mode = false;
    let r = SvmSystem::new(p, vec![boxed(mk()), boxed(mk())]).run();
    assert_eq!(r.counters.remote_lock_acquires, 0);
    assert!(r.counters.local_lock_acquires >= 40);
}

#[test]
fn direct_diffs_send_one_message_per_run() {
    // One writer dirties 10 scattered runs in a remote page; under DD
    // that is 10 run messages (plus a timestamp deposit).
    let b = BarrierId::new(0);
    let mut ops = vec![];
    for k in 0..10u64 {
        ops.push(Op::Write {
            addr: addr(1, k * 400),
            len: 4,
        });
    }
    ops.push(Op::Barrier(b));
    let idle = boxed(vec![Op::Barrier(b)]);
    let mut p = params(FeatureSet::genima(), 2, 1);
    p.data_mode = false;
    let r = SvmSystem::new(p, vec![boxed(ops), idle]).run();
    assert_eq!(r.counters.diff_run_messages, 10);
    assert_eq!(r.counters.diffs, 1);
}

#[test]
fn packed_diffs_send_one_message_per_page() {
    let b = BarrierId::new(0);
    let mut ops = vec![];
    for k in 0..10u64 {
        ops.push(Op::Write {
            addr: addr(1, k * 400),
            len: 4,
        });
    }
    ops.push(Op::Barrier(b));
    let idle = boxed(vec![Op::Barrier(b)]);
    let mut p = params(FeatureSet::dw_rf(), 2, 1);
    p.data_mode = false;
    let r = SvmSystem::new(p, vec![boxed(ops), idle]).run();
    assert_eq!(r.counters.diff_run_messages, 0);
    assert_eq!(r.counters.diffs, 1);
}

#[test]
fn multi_page_access_spans_and_faults_per_page() {
    // A single Read spanning 6 remote pages takes 6 faults (one per
    // page) and completes.
    let b = BarrierId::new(0);
    let writer = boxed(vec![
        Op::Write {
            addr: addr(1, 0), // pages 1..6 homed alternately
            len: 4096 * 6,
        },
        Op::Barrier(b),
    ]);
    let reader = boxed(vec![
        Op::Barrier(b),
        Op::Read {
            addr: addr(1, 0),
            len: 4096 * 6,
        },
    ]);
    let mut p = params(FeatureSet::genima(), 2, 1);
    p.data_mode = false;
    let r = SvmSystem::new(p, vec![writer, reader]).run();
    // Writer faults 6 (write), reader faults on the 3 pages homed on
    // the writer's node (the others are its own homes, write-protected
    // but present).
    assert!(r.counters.faults >= 9, "got {}", r.counters.faults);
}

#[test]
fn barrier_ids_are_reusable_across_episodes() {
    // The same BarrierId used for many episodes (as a loop barrier)
    // must work: arrivals of episode N+1 cannot release episode N.
    let b = BarrierId::new(0);
    let mk = |i: u64| {
        let mut ops = Vec::new();
        for k in 0..10u64 {
            ops.push(Op::Compute(genima_sim::Dur::from_us(10 + i * 13 + k)));
            ops.push(Op::Barrier(b));
        }
        boxed(ops)
    };
    let mut p = params(FeatureSet::genima(), 2, 2);
    p.data_mode = false;
    let r = SvmSystem::new(p, (0..4).map(mk).collect()).run();
    assert_eq!(r.counters.barriers, 10);
}

#[test]
fn quantum_bounds_clock_skew() {
    // A long compute is chopped into resume events no further apart
    // than the quantum, keeping posts causally ordered. Just verify a
    // long-compute run completes with the default quantum and a tiny
    // one, with identical simulated time.
    let mk = || {
        let srcs: Vec<Box<dyn OpSource>> = (0..2)
            .map(|_| {
                let ops = (0..200)
                    .map(|_| Op::Compute(genima_sim::Dur::from_us(20)))
                    .collect();
                boxed(ops)
            })
            .collect();
        srcs
    };
    let mut p1 = params(FeatureSet::base(), 2, 1);
    p1.data_mode = false;
    let r1 = SvmSystem::new(p1, mk()).run();
    let mut p2 = params(FeatureSet::base(), 2, 1);
    p2.data_mode = false;
    p2.proto.quantum = genima_sim::Dur::from_us(5);
    let r2 = SvmSystem::new(p2, mk()).run();
    assert_eq!(r1.parallel_time(), r2.parallel_time());
    assert!(r2.events > r1.events, "smaller quantum, more resumes");
}

#[test]
#[should_panic(expected = "event budget exceeded")]
fn event_budget_catches_livelock() {
    let mut p = params(FeatureSet::genima(), 2, 1);
    p.data_mode = false;
    p.max_events = 50;
    let b = BarrierId::new(0);
    let srcs: Vec<Box<dyn OpSource>> = (0..2)
        .map(|_| {
            let mut ops = Vec::new();
            for k in 0..50 {
                ops.push(Op::Barrier(BarrierId::new(k)));
            }
            ops.push(Op::Barrier(b));
            boxed(ops)
        })
        .collect();
    SvmSystem::new(p, srcs).run();
}

/// A free-running run whose queue drains with a process still blocked
/// returns the deadlock, naming that process, as a controlled run does.
#[test]
fn a_deadlocked_run_returns_the_blocked_process() {
    for f in Column::all() {
        let srcs = vec![boxed(vec![Op::Barrier(BarrierId::new(0))]), boxed(vec![])];
        match SvmSystem::new(params(f, 2, 1), srcs).try_run() {
            Err(ProtoError::Deadlock { blocked }) => {
                let procs: Vec<usize> = blocked.iter().map(|&(p, _)| p).collect();
                assert_eq!(procs, [0], "{f}: {blocked:?}");
            }
            other => panic!("{f}: expected a deadlock, got {other:?}"),
        }
    }
}

#[test]
#[should_panic(expected = "need exactly one op source per processor")]
fn wrong_source_count_panics() {
    let p = params(FeatureSet::base(), 2, 2);
    SvmSystem::new(p, vec![boxed(vec![])]);
}

/// Base piggybacks its notices on host messages, and the NI tree sends
/// none, so the pair would leave a barrier exit waiting for ever.
#[test]
#[should_panic(expected = "the NI-tree barrier carries no notices")]
fn a_tree_barrier_on_piggybacked_notices_panics() {
    let mut p = params(FeatureSet::base(), 2, 1);
    p.barrier = crate::config::BarrierImpl::NiTree { fanout: 2 };
    SvmSystem::new(p, vec![boxed(vec![]), boxed(vec![])]);
}

#[test]
fn report_pin_accounting_scales_with_extent() {
    let srcs: Vec<Box<dyn OpSource>> = (0..2)
        .map(|_| {
            boxed(vec![Op::Read {
                addr: addr(0, 0),
                len: 4096 * 20,
            }])
        })
        .collect();
    let mut p = params(FeatureSet::base(), 2, 1);
    p.data_mode = false;
    let r = SvmSystem::new(p, srcs).run();
    // Without RF both nodes pin all 20 pages.
    assert_eq!(r.pinned_shared_bytes, vec![20 * 4096, 20 * 4096]);
}

#[test]
fn first_touch_homes_follow_the_toucher() {
    // p1 (node 1) touches page 0 first; under first-touch the page is
    // homed on node 1 even though striping would put it on node 0.
    let b = BarrierId::new(0);
    let p0 = boxed(vec![
        Op::Compute(genima_sim::Dur::from_ms(5)),
        Op::Barrier(b),
        Op::Read {
            addr: addr(0, 0),
            len: 64,
        },
    ]);
    let p1 = boxed(vec![
        Op::Write {
            addr: addr(0, 0),
            len: 64,
        },
        Op::Barrier(b),
    ]);
    let mut p = params(FeatureSet::genima(), 2, 1);
    p.data_mode = false;
    p.first_touch_homes = true;
    let mut sys = SvmSystem::new(p, vec![p0, p1]);
    let r = sys.run();
    // p1 wrote its own (first-touch) home: no diff messages, and p0's
    // later read fetched from node 1.
    assert_eq!(r.counters.diff_run_messages, 0);
    assert!(r.counters.page_transfers >= 1);
    // Pin accounting sees page 0 homed on node 1.
    assert_eq!(r.pinned_shared_bytes[1], PAGE_SIZE as u64);
}

/// A workload exercising locks, barriers, faults and diffs, used to
/// compare the two run loops.
fn picker_workload() -> Vec<Box<dyn OpSource>> {
    let l = LockId::new(0);
    let b = BarrierId::new(0);
    let p0 = boxed(vec![
        Op::Acquire(l),
        Op::WriteData {
            addr: addr(1, 0),
            data: vec![1, 2, 3, 4],
        },
        Op::Release(l),
        Op::Barrier(b),
        Op::Observe {
            addr: addr(0, 64),
            len: 4,
        },
    ]);
    let p1 = boxed(vec![
        Op::WriteData {
            addr: addr(0, 64),
            data: vec![9, 9, 9, 9],
        },
        Op::Acquire(l),
        Op::Observe {
            addr: addr(1, 0),
            len: 4,
        },
        Op::Release(l),
        Op::Barrier(b),
    ]);
    vec![p0, p1]
}

#[test]
fn fifo_picker_matches_try_run_exactly() {
    for f in Column::all() {
        let mut a = SvmSystem::new(params(f, 2, 1), picker_workload());
        a.set_tracing(true);
        let ra = a.try_run().expect("plain run");
        let ta = a.take_trace();

        let mut b = SvmSystem::new(params(f, 2, 1), picker_workload());
        b.set_tracing(true);
        let rb = b
            .try_run_with_picker(&mut crate::sched::FifoPicker)
            .expect("picker run");
        let tb = b.take_trace();

        assert_eq!(ra.finish, rb.finish, "{f}: finish times diverge");
        assert_eq!(ra.events, rb.events, "{f}: event counts diverge");
        assert_eq!(ta, tb, "{f}: traces diverge");
        assert_eq!(
            a.take_observations(),
            b.take_observations(),
            "{f}: observations diverge"
        );
    }
}

#[test]
fn sched_choices_head_per_channel() {
    let mut sys = SvmSystem::new(params(FeatureSet::genima(), 2, 1), picker_workload());
    for p in 0..sys.procs.len() {
        sys.q.push(Time::ZERO, SysEvent::Resume(p));
    }
    let choices = sys.sched_choices();
    // Two processes, one Resume each: two distinct Proc channels.
    assert_eq!(choices.len(), 2);
    let keys: Vec<_> = choices.iter().map(|c| c.key).collect();
    assert!(keys.contains(&crate::sched::ChanKey::Proc { proc: 0 }));
    assert!(keys.contains(&crate::sched::ChanKey::Proc { proc: 1 }));
    // Choices are sorted by (time, seq) and carry footprints.
    assert!(choices
        .windows(2)
        .all(|w| (w[0].time, w[0].seq) <= (w[1].time, w[1].seq)));
    assert!(choices.iter().all(|c| !c.footprint.is_empty()));
}

#[test]
fn joiners_of_one_fetch_wake_in_arrival_order() {
    // Node 1 holds p3..p5; page 0 is homed on node 0. p4 faults first
    // and issues the fetch, p5 joins it after 55 us and p3 after 60 us
    // (both past the 50 us quantum, so they really do arrive later),
    // all before the page is back.
    let read = Op::Read {
        addr: addr(0, 0),
        len: 4,
    };
    let idle = || boxed(vec![Op::Compute(genima_sim::Dur::from_ms(1))]);
    let reader = |delay_us| {
        boxed(vec![
            Op::Compute(genima_sim::Dur::from_us(delay_us)),
            read.clone(),
        ])
    };
    // The 1999 columns only: an RNIC has the page back before 55 us.
    for f in FeatureSet::ALL {
        let srcs = vec![idle(), idle(), idle(), reader(60), reader(0), reader(55)];
        let mut sys = SvmSystem::new(params(f, 2, 3), srcs);
        sys.set_tracing(true);
        let r = sys.run();
        assert_eq!(
            r.counters.page_transfers, 1,
            "{f}: one fetch serves all three"
        );
        let woken: Vec<usize> = sys
            .take_trace()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::FaultDone { proc, .. } => Some(proc),
                _ => None,
            })
            .collect();
        assert_eq!(woken, vec![4, 5, 3], "{f}");
    }
}

#[test]
fn first_read_of_a_remote_page_fetches_before_any_notice_names_it() {
    // Page 0 is homed on node 0; p1 (node 1) reads it cold. Nothing
    // was written, so no write notice names the page and p1 requires
    // nothing of it — an empty slot must still not pass for a copy.
    let read = Op::Read {
        addr: addr(0, 0),
        len: 8,
    };
    for f in Column::all() {
        let mut p = params(f, 2, 1);
        p.data_mode = false;
        let mut sys = SvmSystem::new(p, vec![boxed(vec![]), boxed(vec![read.clone()])]);
        // The extent is known before the run: the columns are pre-sized.
        sys.assign_homes(PageId::new(0), 4, NodeId::new(0));
        let r = sys.run();
        assert_eq!(r.counters.page_transfers, 1, "{f}");
    }
}

#[test]
fn extent_known_at_start_or_discovered_gives_the_same_report() {
    // The same run with the page columns sized once from the homes
    // named before it starts, and grown page by page as it touches
    // them. The homes named are the ones striping picks anyway.
    let run = |f: Column, name_homes: bool| {
        let mut sys = SvmSystem::new(params(f, 2, 1), picker_workload());
        if name_homes {
            for page in 0..2 {
                sys.assign_homes(PageId::new(page), 1, NodeId::new(page % 2));
            }
        }
        sys.run().to_json()
    };
    for f in Column::all() {
        assert_eq!(run(f, true), run(f, false), "{f}");
    }
}

/// Runs Base on `nodes` single-processor nodes, returning the host
/// messages and interrupts it took and the order in which processes
/// held `lock`.
fn run_counting_host_hops(
    nodes: usize,
    lock: LockId,
    srcs: Vec<Box<dyn OpSource>>,
) -> (u64, u64, Vec<usize>) {
    let mut p = params(FeatureSet::base(), nodes, 1);
    p.data_mode = false;
    let mut sys = SvmSystem::new(p, srcs);
    for p in 0..nodes {
        sys.q.push(Time::ZERO, SysEvent::Resume(p));
    }
    let (mut host_msgs, mut holders) = (0, Vec::new());
    while let Some((t, ev)) = sys.q.pop() {
        if matches!(ev, SysEvent::Up(genima_nic::Upcall::HostMsgArrived { .. })) {
            host_msgs += 1;
        }
        sys.dispatch(t, ev);
        let holder = (sys.nodes.iter()).find_map(|n| n.locks[lock.index()].holder);
        if holder.is_some_and(|h| holders.last() != Some(&h)) {
            holders.extend(holder);
        }
    }
    assert!(sys.unfinished().is_empty());
    (host_msgs, sys.counters.interrupts, holders)
}

#[test]
fn host_chain_hop_shapes_on_base() {
    // Lock 0 is homed on node 0, which owns it at the start. Each
    // listed process takes the lock once, 5 ms after the one before —
    // long after that one released — so every acquire finds the lock
    // free at the previous tail. The expectation is for the *last*
    // acquire: (host messages, interrupts).
    let l = LockId::new(0);
    let shapes: [(&str, &[usize], (u64, u64)); 3] = [
        // Request interrupts the home; the home hands over on the
        // spot; the grant interrupts nobody (its receiver waits).
        ("previous tail is the home", &[1], (2, 1)),
        // The home queues itself; only the forward interrupts.
        ("requester is the home", &[1, 0], (2, 1)),
        // Request, forward and grant all cross the wire.
        ("all three distinct", &[1, 2], (3, 2)),
    ];
    let mut first = (0, 0);
    for (shape, order, expected) in shapes {
        let srcs = (0..3)
            .map(|p| match order.iter().position(|&q| q == p) {
                Some(k) => boxed(vec![
                    Op::Compute(genima_sim::Dur::from_ms(5 * k as u64)),
                    Op::Acquire(l),
                    Op::Release(l),
                ]),
                None => boxed(vec![]),
            })
            .collect();
        let (msgs, intrs, holders) = run_counting_host_hops(3, l, srcs);
        assert_eq!(holders, order, "{shape}");
        let last = (msgs - first.0, intrs - first.1);
        assert_eq!(last, expected, "{shape}");
        if order.len() == 1 {
            first = (msgs, intrs);
        }
    }

    // Contended: the home holds the lock while p2 and then p1 ask for
    // it. The home's handler queues them in the order their requests
    // reached it, and the lock is held in that order.
    let hold = |before_us, inside_us| {
        boxed(vec![
            Op::Compute(genima_sim::Dur::from_us(before_us)),
            Op::Acquire(l),
            Op::Compute(genima_sim::Dur::from_us(inside_us)),
            Op::Release(l),
        ])
    };
    let srcs = vec![hold(0, 2000), hold(400, 10), hold(100, 10)];
    let (_, _, holders) = run_counting_host_hops(3, l, srcs);
    assert_eq!(holders, [0, 2, 1]);
}

#[test]
fn a_recycled_piggyback_carries_exactly_the_senders_notice_board() {
    // Base on three single-processor nodes; lock 0 is homed on node 0,
    // which owns it at the start. p0 and p1 pass the lock back and
    // forth with p2 taking it in between, one holder per 5 ms slot,
    // and every holder writes a page of its own — so every release
    // closes an interval and every grant leaves a node whose notice
    // board differs from the one the recycled vector last carried.
    let l = LockId::new(0);
    let order = [0, 1, 2, 0, 1, 2, 1, 0];
    let srcs = (0..3)
        .map(|p| {
            let slots = order.iter().enumerate().filter(|&(_, &q)| q == p);
            boxed(
                slots
                    .flat_map(|(k, _)| {
                        [
                            Op::WaitUntil(Time::ZERO + genima_sim::Dur::from_ms(5 * k as u64)),
                            Op::Acquire(l),
                            Op::Write {
                                addr: addr(3 + p, 0),
                                len: 8,
                            },
                            Op::Release(l),
                        ]
                    })
                    .collect(),
            )
        })
        .collect();
    let mut p = params(FeatureSet::base(), 3, 1);
    p.data_mode = false;
    let mut sys = SvmSystem::new(p, srcs);
    sys.start();
    // The node the lock was last held at — the one a grant leaves from
    // — and the grants seen so far, by tag, with the board they carry.
    let mut sender = 0;
    let mut grants: BTreeMap<u64, (usize, Vec<u32>)> = BTreeMap::new();
    while let Some((t, ev)) = sys.q.pop() {
        sys.dispatch(t, ev);
        for (&tag, pending) in &sys.tags {
            let Pending::LockMsg {
                to,
                op: genima_nic::LockOp::Grant { .. },
                upto: Some(upto),
                ..
            } = pending
            else {
                continue;
            };
            grants.entry(tag).or_insert_with(|| {
                assert_eq!(
                    upto,
                    sys.notices.arrived(sender),
                    "grant n{sender} -> n{to}"
                );
                (*to, upto.clone())
            });
        }
        if let Some(h) = (sys.nodes.iter()).find_map(|n| n.locks[l.index()].holder) {
            if h != sender {
                // The grant that made `h` the holder has been merged.
                let (to, carried) = grants.values().last().expect("a remote holder was granted");
                assert_eq!(*to, h);
                let board = sys.notices.arrived(h);
                assert!(board.iter().zip(carried).all(|(b, c)| b >= c), "n{h}");
            }
            sender = h;
        }
    }
    assert!(sys.unfinished().is_empty());
    // Every acquire but p0's first crossed the wire, on one vector.
    assert_eq!(grants.len(), order.len() - 1);
    assert_eq!(sys.notices.spare.len(), 1);
}

#[test]
fn travelling_versions_are_recycled_not_rebuilt() {
    use crate::version::tests::HEAP_MOVES;
    // Six single-processor nodes, Base. Page 0 (homed on node 0) has
    // five writers, so every version that travels for it — a request's
    // requirement, a reply's timestamp — names five and lives on the
    // heap. Each round every writer's copy is invalidated and fetched
    // again.
    let nodes = 6;
    let run = |rounds: usize| {
        let (b0, b1) = (BarrierId::new(0), BarrierId::new(1));
        let srcs = (0..nodes)
            .map(|p| {
                let round = [
                    Op::Write {
                        addr: addr(0, 8 * p as u64),
                        len: 8,
                    },
                    Op::Barrier(b0),
                    Op::Read {
                        addr: addr(0, 0),
                        len: 4,
                    },
                    Op::Barrier(b1),
                ];
                let ops = round[usize::from(p == 0)..].to_vec();
                boxed(std::iter::repeat_n(ops, rounds).flatten().collect())
            })
            .collect();
        let mut p = params(FeatureSet::base(), nodes, 1);
        p.data_mode = false;
        let mut sys = SvmSystem::new(p, srcs);
        let before = HEAP_MOVES.with(|n| n.get());
        let fetches = sys.run().counters.page_transfers as usize;
        (sys, fetches, HEAP_MOVES.with(|n| n.get()) - before)
    };
    let (_, few_fetches, few_moves) = run(3);
    let (sys, fetches, moves) = run(12);
    assert!(fetches >= 3 * few_fetches && fetches >= 10 * nodes);
    // O(nodes), not O(requests): one per version in circulation, per
    // copy and per five-writer slot, however long the run.
    assert_eq!(moves, few_moves);
    assert!(moves <= 3 * nodes, "{moves} maps moved to the heap");

    // Every one of them is still there: back on the spare stack,
    // installed in a copy, or in a column's spill. None was dropped
    // with the message that carried it.
    assert!(sys.tags.is_empty());
    let page = PageId::new(0);
    assert!(sys
        .home_pages
        .pending_reqs
        .get(page)
        .is_none_or(Vec::is_empty));
    let copies = (0..sys.nodes.len()).filter_map(|n| sys.node_copy(n, page));
    let spilled = (sys.procs.iter().map(|p| &p.required))
        .chain(sys.nodes.iter().map(|n| &n.local_flushed))
        .flat_map(|col| col.spilled());
    let live = (sys.spare_versions.iter())
        .chain(copies.map(|c| &c.ts))
        .chain(spilled)
        .filter(|v| !v.is_inline())
        .count();
    assert_eq!(live, moves);
    assert!(!sys.spare_versions.is_empty());
    assert_eq!(sys.spare_versions.capacity(), nodes, "reserved once");
}

/// The shape the release order is tested on, race-free under every
/// schedule: p0 takes the lock before the barrier and p1 asks for it
/// after, so p1 is parked on the lock while p0, inside the critical
/// section, writes a word into each of `pages` pages. p0 releases at
/// exactly `release_at` with all of them dirty.
fn handoff_programs(pages: usize, release_at: Time) -> [Vec<Op>; 2] {
    let (l, b) = (LockId::new(0), BarrierId::new(0));
    let mut holder = vec![Op::Acquire(l), Op::Barrier(b)];
    holder.extend((1..=pages).map(|page| Op::Write {
        addr: addr(page, 0),
        len: 8,
    }));
    holder.extend([Op::WaitUntil(release_at), Op::Release(l)]);
    [holder, vec![Op::Barrier(b), Op::Acquire(l), Op::Release(l)]]
}

#[test]
fn the_2025_release_hands_over_before_it_diffs_and_the_1999_release_after() {
    let pages = 16;
    let release_at = Time::ZERO + genima_sim::Dur::from_ms(50);
    // How long after p0's release p1 holds the lock with its notices.
    let grant_delay = |column: Column| {
        let mut p = params(column, 2, 1);
        p.data_mode = false;
        let srcs = handoff_programs(pages, release_at);
        let mut sys = SvmSystem::new(p, srcs.into_iter().map(boxed).collect());
        sys.set_tracing(true);
        sys.run();
        let syncs: Vec<Time> = (sys.take_trace().into_iter())
            .filter_map(|e| match e {
                TraceEvent::SyncDone { at, proc: 1, .. } => Some(at),
                _ => None,
            })
            .collect();
        // p1's barrier exit, then its grant.
        assert_eq!(syncs.len(), 2, "{column}");
        assert!(syncs[1] > release_at, "{column}: p1 was not waiting");
        syncs[1].saturating_since(release_at)
    };
    let scan = Column::genima_2025().hw.host.diff_scan;
    let handed = grant_delay(Column::genima_2025());
    assert!(
        handed < scan,
        "GeNIMA-2025 held the lock {handed} past the release: a diff was computed first"
    );
    // The paper's order, dilation included: every dirty page is diffed
    // inside the critical section (§2). Not to be "fixed".
    let dilated = grant_delay(Column::lanai(FeatureSet::genima()));
    assert!(
        dilated >= scan * pages as u64,
        "GeNIMA (1999) handed over after {dilated}: it must diff {pages} pages first"
    );
}

#[test]
fn no_interval_stays_pending_across_a_2025_release() {
    // Two nodes of two: every process writes a word of its own under
    // the one lock, ten times over, so the lock is handed on within a
    // node and across the wire. Each releaser diffs its own interval
    // on both paths; nothing is left for a co-located process to flush
    // when the lock next leaves.
    let l = LockId::new(0);
    let srcs = (0..4u64)
        .map(|i| {
            let section = [
                Op::Acquire(l),
                Op::Write {
                    addr: addr(4, i * 64),
                    len: 8,
                },
                Op::Release(l),
                Op::Compute(genima_sim::Dur::from_us(20)),
            ];
            boxed(std::iter::repeat_n(section, 10).flatten().collect())
        })
        .collect();
    let mut p = params(Column::genima_2025(), 2, 2);
    p.data_mode = false;
    let mut sys = SvmSystem::new(p, srcs);
    sys.start();
    while let Some((t, ev)) = sys.q.pop() {
        sys.dispatch(t, ev);
        for (i, proc) in sys.procs.iter().enumerate() {
            assert!(proc.pending_intervals.is_empty(), "p{i} at {t}");
        }
    }
    assert!(sys.unfinished().is_empty());
    assert!(sys.counters.local_lock_acquires > 0, "no local handoff");
    assert!(sys.counters.remote_lock_acquires > 1, "no remote handoff");
}

#[test]
fn a_2025_home_write_takes_no_twin_diff_or_apply_and_a_1999_one_all_three() {
    // p0 writes a word of page 0, its own node's page, and finishes:
    // the finish closes and flushes the interval, all charged to
    // acquire/release time.
    let mem = Column::genima_2025().hw.host;
    let reprotect = mem.mprotect.cost_grouped(1, 1);
    let run = |column: Column| {
        let write = Op::WriteData {
            addr: addr(0, 64),
            data: vec![9; 8],
        };
        let srcs = vec![boxed(vec![write]), boxed(vec![])];
        let mut sys = SvmSystem::new(params(column, 2, 1), srcs);
        sys.set_tracing(true);
        let r = sys.run();
        let applied: Vec<Time> = (sys.take_trace().into_iter())
            .filter_map(|e| match e {
                TraceEvent::DiffApplied {
                    at,
                    writer: 0,
                    interval: 1,
                    page,
                } if page == PageId::new(0) => Some(at),
                _ => None,
            })
            .collect();
        assert_eq!(applied.len(), 1, "{column}: one update of the home copy");
        let home = sys.node_copy(sys.home_of(PageId::new(0)).index(), PageId::new(0));
        let version = home.map(|c| c.ts.get(0));
        assert_eq!(version, Some(1), "{column}: home copy misses p0's interval");
        let finish = sys.procs[0].finished_at.expect("p0 finished");
        (r.breakdowns[0].acqrel, r.counters.diffs, applied[0], finish)
    };

    // In place: the close is the update; only the re-protect and the
    // NI's prefetch advice of the page are paid, after the home copy
    // already holds the interval.
    let advice = rnic_advice(1);
    let (acqrel, diffs, applied, finish) = run(Column::genima_2025());
    assert_eq!(acqrel, reprotect + advice);
    assert_eq!(diffs, 0);
    assert_eq!(applied + reprotect + advice, finish);

    // Twinned: the paper's calibration pays the twin at the fault, the
    // scan of one run at the flush and the apply, and the home copy
    // holds the interval only once the flush applied it.
    let (acqrel, diffs, applied, finish) = run(Column::lanai(FeatureSet::genima()));
    assert_eq!(
        acqrel,
        mem.twin_copy + reprotect + mem.diff_cost(1) + mem.diff_apply
    );
    assert_eq!(diffs, 1);
    assert_eq!(applied, finish);
}

#[test]
fn the_profiles_host_prices_the_twin_of_a_remote_homed_write() {
    // p0 writes a word of page 1, homed at p1's node, and finishes: the
    // write fault twins the page once, the flush diffs it.
    let run = |column: Column| {
        let write = Op::WriteData {
            addr: addr(1, 64),
            data: vec![9; 8],
        };
        let srcs = vec![boxed(vec![write]), boxed(vec![])];
        let r = SvmSystem::new(params(column, 2, 1), srcs).run();
        assert_eq!(r.counters.diffs, 1, "{column}");
        r.breakdowns[0]
    };
    let column = Column::lanai(FeatureSet::genima());
    let twin = column.hw.host.twin_copy;
    let mut slow_copy = column;
    slow_copy.hw.host.twin_copy = twin * 2;
    let (bd, slow) = (run(column), run(slow_copy));
    assert_eq!(slow.acqrel, bd.acqrel + twin);
    // No other bucket of p0's moved.
    assert_eq!(
        Breakdown {
            acqrel: bd.acqrel,
            ..slow
        },
        bd
    );
}

/// What GeNIMA-2025's prefetch advice of a run of `pages` fresh pages
/// costs the host.
fn rnic_advice(pages: usize) -> Dur {
    match params(Column::genima_2025(), 1, 1).hw.board {
        Board::Rnic(rnic) => rnic.odp_advise.cost(pages),
        Board::Lanai(_) => panic!("GeNIMA-2025 runs on an RNIC"),
    }
}

#[test]
fn a_2025_home_advises_the_page_it_closed_so_the_remote_reader_takes_no_odp_fault() {
    // p0 writes page 0, its own node's page, under the lock and
    // releases; p1, on the other node, takes the lock after it and
    // reads the page, fetching it from p0's node.
    let l = LockId::new(1);
    let p0 = vec![
        Op::Acquire(l),
        Op::WriteData {
            addr: addr(0, 64),
            data: vec![9; 8],
        },
        Op::Release(l),
    ];
    let p1 = vec![
        Op::Compute(Dur::from_ms(1)),
        Op::Acquire(l),
        Op::Validate {
            addr: addr(0, 64),
            expected: vec![9; 8],
        },
        Op::Release(l),
    ];
    let run = |p: SvmParams| {
        let mut sys = SvmSystem::new(p, vec![boxed(p0.clone()), boxed(p1.clone())]);
        let r = sys.run();
        assert_eq!(r.counters.page_transfers, 1, "p1 fetched the page");
        r
    };

    let p = params(Column::genima_2025(), 2, 1);
    let mut free = p.clone();
    let Board::Rnic(rnic) = &mut free.hw.board else {
        panic!("GeNIMA-2025 runs on an RNIC")
    };
    rnic.odp_advise.single = Dur::ZERO;
    rnic.odp_advise.per_extra_page = Dur::ZERO;
    let (r, r_free) = (run(p), run(free));
    assert_eq!(r.ni.odp_faults, 0, "the fetch found the page mapped");
    assert_eq!(r.ni.odp_prefetched, 1);
    // The closer pays exactly one advice of one page, at acquire/release
    // and not as Table 2's mprotect time; the reader pays nothing.
    let (bd, bd_free) = (&r.breakdowns, &r_free.breakdowns);
    assert_eq!(bd[0].acqrel, bd_free[0].acqrel + rnic_advice(1));
    assert_eq!(bd[0].mprotect, bd_free[0].mprotect);
    assert_eq!(bd[1], bd_free[1]);

    // The 1999 column twins the page and its pinned NI maps nothing.
    let r = run(params(FeatureSet::genima(), 2, 1));
    assert_eq!(r.ni, NiStats::default());
    assert_eq!(r.counters.diffs, 1);
}

#[test]
fn ni_counters_cover_the_measured_region_only() {
    // p1 reads page 0, homed at p0's node and written by nobody, before
    // the warm-up barrier: its fetch takes GeNIMA-2025's only ODP fault.
    let b = BarrierId::new(0);
    let p0 = vec![Op::Barrier(b)];
    let p1 = vec![
        Op::Read {
            addr: addr(0, 0),
            len: 8,
        },
        Op::Barrier(b),
        Op::Compute(Dur::from_us(10)),
    ];
    let run = |warmup: Option<BarrierId>| {
        let mut p = params(Column::genima_2025(), 2, 1);
        p.warmup_barrier = warmup;
        let mut sys = SvmSystem::new(p, vec![boxed(p0.clone()), boxed(p1.clone())]);
        sys.run().ni
    };
    assert_eq!(run(None).odp_faults, 1);
    let measured = run(Some(b));
    assert_eq!(measured.odp_faults, 0);
    assert_eq!(measured.cqes, 0, "nothing is deposited after the barrier");
}

#[test]
fn home_and_remote_writers_of_one_page_merge_under_every_column() {
    // Three nodes of one; page 0 is homed at p0's node. p0 (the home)
    // and p1 write disjoint words of it in one interval, then again
    // with p0's page still dirty when p1's notice for it arrives under
    // the lock. p2, on a third node, must see all four writes.
    let (l, b0, b1) = (LockId::new(1), BarrierId::new(0), BarrierId::new(1));
    let w = |off: u64, v: u8| Op::WriteData {
        addr: addr(0, off),
        data: vec![v; 8],
    };
    let check = |off: u64, v: u8| Op::Validate {
        addr: addr(0, off),
        expected: vec![v; 8],
    };
    let home = vec![
        w(0, 1),
        Op::Barrier(b0),
        check(512, 2),
        w(1000, 3),
        Op::Compute(genima_sim::Dur::from_ms(20)),
        Op::Acquire(l),
        check(2000, 4),
        w(3000, 5),
        Op::Release(l),
        Op::Barrier(b1),
    ];
    let remote = vec![
        w(512, 2),
        Op::Barrier(b0),
        check(0, 1),
        Op::Acquire(l),
        w(2000, 4),
        Op::Release(l),
        Op::Barrier(b1),
        check(1000, 3),
        check(3000, 5),
    ];
    let mut reader = vec![Op::Barrier(b0), Op::Barrier(b1)];
    reader.extend([check(0, 1), check(512, 2), check(1000, 3)]);
    reader.extend([check(2000, 4), check(3000, 5)]);
    for column in Column::all() {
        let srcs = [home.clone(), remote.clone(), reader.clone()];
        let mut sys = SvmSystem::new(params(column, 3, 1), srcs.map(boxed).into());
        let r = sys.run();
        // p1's two intervals are the only diffs the home copy needs
        // when the home writes in place.
        if column == Column::genima_2025() {
            assert_eq!(r.counters.diffs, 2, "{column}");
        } else {
            assert!(
                r.counters.diffs > 2,
                "{column}: the home's writes are diffed"
            );
        }
    }
}

/// p0, on node 0 of two, writes pages 16..32, all homed at its node,
/// crosses the warm-up barrier and writes them again from page `from`
/// to the end. Returns the faults taken after the warm-up, p0's
/// acquire/release time, and the parameters the run used.
fn rewrite_of_a_home_run(column: Column, from: usize) -> (u64, genima_sim::Dur, SvmParams) {
    let (b0, b1) = (BarrierId::new(0), BarrierId::new(1));
    let write = |from: usize| Op::Write {
        addr: addr(from, 0),
        len: ((32 - from) * PAGE_SIZE) as u32,
    };
    let writer = vec![write(16), Op::Barrier(b0), write(from), Op::Barrier(b1)];
    let other = vec![Op::Barrier(b0), Op::Barrier(b1)];
    let mut p = params(column, 2, 1);
    p.data_mode = false;
    p.warmup_barrier = Some(b0);
    let mut sys = SvmSystem::new(p.clone(), vec![boxed(writer), boxed(other)]);
    sys.assign_homes(PageId::new(16), 16, NodeId::new(0));
    let r = sys.run();
    // The second barrier's close is charged to the barrier: what
    // acquire/release holds is the rewrite's faults.
    (r.counters.faults, r.breakdowns[0].acqrel, p)
}

#[test]
fn a_2025_rewrite_from_a_home_runs_first_page_reopens_the_run_in_one_fault() {
    // From the first page the whole run re-opens in one fault; entered
    // at its third page, it takes a plain upgrade per page it writes.
    let p = params(Column::genima_2025(), 2, 1);
    let (trap, m) = (p.proto.fault_trap, &p.hw.host.mprotect);
    let upgrade = trap + m.cost(1);
    for (from, want_faults, want_acqrel) in [
        (16, 1, trap + m.cost_grouped(16, 1)),
        (18, 14, upgrade * 14),
    ] {
        let (faults, acqrel, _) = rewrite_of_a_home_run(Column::genima_2025(), from);
        assert_eq!(
            (faults, acqrel),
            (want_faults, want_acqrel),
            "from page {from}"
        );
    }

    // The paper's calibration: every page the 1999 column opens is a
    // fault of its own with a twin.
    let (faults, acqrel, p) = rewrite_of_a_home_run(Column::lanai(FeatureSet::genima()), 16);
    let upgrade = p.proto.fault_trap + p.hw.host.twin_copy + p.hw.host.mprotect.cost(1);
    assert_eq!(faults, 16);
    assert_eq!(acqrel, upgrade * 16);
}

#[test]
fn a_reopened_run_skips_an_invalidated_page_and_names_the_pages_it_never_wrote() {
    // Three nodes of one; pages 16..20 are homed at p0's node. p0
    // writes all four, then p1 writes page 18, and p0, its page 18
    // invalidated by p1's notice, writes pages 16 and 18 again. On
    // GeNIMA-2025 the write to page 16 re-opens 16, 17 and 19 but not
    // the invalid 18, which faults on its own. 17 and 19 are named in
    // p0's notice unwritten, and p2 refetches them with their old bytes.
    let (b0, b1, b2) = (BarrierId::new(0), BarrierId::new(1), BarrierId::new(2));
    let w = |page: usize, off: u64, v: u8| Op::WriteData {
        addr: addr(page, off),
        data: vec![v; 8],
    };
    let check = |page: usize, off: u64, v: u8| Op::Validate {
        addr: addr(page, off),
        expected: vec![v; 8],
    };
    let mut home: Vec<Op> = (16..20).map(|pg| w(pg, 0, 1)).collect();
    home.extend([Op::Barrier(b0), Op::Barrier(b1)]);
    home.extend([w(16, 8, 2), w(18, 16, 3), Op::Barrier(b2)]);
    let remote = vec![
        Op::Barrier(b0),
        w(18, 2048, 4),
        Op::Barrier(b1),
        Op::Barrier(b2),
    ];
    let mut reader = vec![Op::Barrier(b0)];
    reader.extend((16..20).map(|pg| check(pg, 0, 1)));
    reader.extend([Op::Barrier(b1), Op::Barrier(b2)]);
    reader.extend((16..20).map(|pg| check(pg, 0, 1)));
    reader.extend([check(16, 8, 2), check(18, 16, 3), check(18, 2048, 4)]);
    for column in Column::all() {
        let mut p = params(column, 3, 1);
        p.warmup_barrier = Some(b1);
        let srcs = [home.clone(), remote.clone(), reader.clone()];
        let mut sys = SvmSystem::new(p, srcs.map(boxed).into());
        sys.assign_homes(PageId::new(16), 4, NodeId::new(0));
        let r = sys.run();
        let named: Vec<usize> = (sys.records[0].pages(2).expect("p0's second interval"))
            .iter()
            .map(|pg| pg.index())
            .collect();
        // After p1's interval: p0 faults on 16 and 18, and p2 on every
        // page p0 named (18 it had invalidated already).
        let (want, faults) = if column == Column::genima_2025() {
            (vec![16, 17, 18, 19], 2 + 4)
        } else {
            (vec![16, 18], 2 + 2)
        };
        assert_eq!(named, want, "{column}");
        assert_eq!(r.counters.faults, faults, "{column}");
    }
}

#[test]
fn a_2025_close_charges_the_reprotect_of_the_pages_it_reprotects() {
    // p0 writes its home pages 16..20, and p1's notice for page 17
    // arrives under the lock while they are dirty: 17 is invalidated
    // and stays so. The release re-protects 16, 18 and 19, three pages
    // in two calls, and charges that — not one call over four.
    let l = LockId::new(0);
    let run = Op::Write {
        addr: addr(16, 0),
        len: 4 * PAGE_SIZE as u32,
    };
    let wait = Op::Compute(genima_sim::Dur::from_ms(20));
    let home = vec![run, wait, Op::Acquire(l), Op::Release(l)];
    let remote = vec![
        Op::Acquire(l),
        Op::Write {
            addr: addr(17, 0),
            len: 8,
        },
        Op::Release(l),
    ];
    let mut p = params(Column::genima_2025(), 2, 1);
    p.data_mode = false;
    let m = p.hw.host.mprotect;
    let mut sys = SvmSystem::new(p, vec![boxed(home), boxed(remote)]);
    sys.assign_homes(PageId::new(16), 4, NodeId::new(0));
    let r = sys.run();
    // Four first-touch faults, the invalidation of page 17, the release.
    // The release's prefetch advice of 16..20 is not mprotect time.
    let want = m.cost(1) * 4 + m.cost(1) + m.cost_grouped(3, 2);
    assert_eq!(r.breakdowns[0].mprotect, want);
    // p0's calls, then p1's fetch of page 17 and its release.
    assert_eq!(r.counters.mprotect_calls, 4 + 1 + 2 + 2);
    // p1's fetch of page 17 mapped it; the advice maps the other three.
    assert_eq!((r.ni.odp_faults, r.ni.odp_prefetched), (1, 3));
}

#[test]
#[should_panic(expected = "missing record for writer p1 interval 1")]
fn a_clock_ahead_of_the_interval_log_is_caught() {
    let idle = || boxed(vec![]);
    let mut sys = SvmSystem::new(params(FeatureSet::base(), 2, 1), vec![idle(), idle()]);
    sys.procs[0].vc.set(crate::ids::ProcId::new(1), 1);
    sys.complete_sync(Time::ZERO, 0, WaitReason::Lock);
}

/// When p0 asked for a lock, was granted it and released it, per
/// remote holding, in a run of `p0` beside `others` on `column`, one
/// process per node: its lock-wait spans and lock-release instants,
/// all on node 0. Returns them with the report.
fn p0_holdings(
    column: Column,
    p0: Vec<Op>,
    others: Vec<Vec<Op>>,
) -> (Vec<(Time, Time, Time)>, RunReport) {
    let mut srcs = vec![boxed(p0)];
    srcs.extend(others.into_iter().map(boxed));
    let nodes = srcs.len();
    let mut sys = SvmSystem::new(params(column, nodes, 1), srcs);
    let obs = genima_obs::Recorder::shared(nodes, &genima_obs::ObsConfig::on());
    sys.set_observer(obs.clone().expect("recording is on"));
    let r = sys.run();
    let spans = obs.expect("recording is on").borrow_mut().take().spans;
    let on_p0 = |kind| (spans.iter()).filter(move |s| s.node == 0 && s.kind == kind);
    let waits = on_p0(genima_obs::SpanKind::LockAcquire).map(|s| (s.start, s.end()));
    let releases = on_p0(genima_obs::SpanKind::LockRelease).map(|s| s.start);
    let holdings = waits
        .zip(releases)
        .map(|((ask, grant), rel)| (ask, grant, rel));
    (holdings.collect(), r)
}

/// p0 reads page 0, its own node's page, then writes a word of it under
/// lock 1, homed at node 1, in two holdings a millisecond apart.
fn two_holdings_of_a_home_page(l: LockId) -> Vec<Op> {
    let write = |v: u8| Op::WriteData {
        addr: addr(0, 64),
        data: vec![v; 8],
    };
    let gap = Op::Compute(genima_sim::Dur::from_ms(1));
    let read = Op::Read {
        addr: addr(0, 64),
        len: 8,
    };
    let holding = |v| [Op::Acquire(l), write(v), Op::Release(l)];
    [vec![read], holding(1).into(), vec![gap], holding(2).into()].concat()
}

#[test]
fn a_2025_reacquire_reopens_the_home_page_its_last_holding_wrote() {
    // p1 holds the lock across p0's second request, so the re-open
    // finishes long before the grant: the second critical section is
    // the first less its fault. The 1999 column faults and twins in
    // both, its calibration untouched.
    let l = LockId::new(1);
    let hold = Op::Compute(genima_sim::Dur::from_ms(1));
    let other = vec![
        Op::Compute(genima_sim::Dur::from_us(500)),
        Op::Acquire(l),
        hold,
        Op::Release(l),
    ];
    let p = params(Column::genima_2025(), 2, 1);
    let upgrade = p.proto.fault_trap + p.hw.host.mprotect.cost(1);
    for column in [Column::genima_2025(), Column::lanai(FeatureSet::genima())] {
        let p0 = two_holdings_of_a_home_page(l);
        let (held, r) = p0_holdings(column, p0, vec![other.clone()]);
        let [(_, g1, r1), (ask, g2, r2)] = held[..] else {
            panic!("{column}: p0 held the lock {} times", held.len());
        };
        assert!(g2 > ask + upgrade, "{column}: p0 waited for p1");
        let (cs1, cs2) = (r1.saturating_since(g1), r2.saturating_since(g2));
        // p0's read fault, then its write faults.
        if column == Column::genima_2025() {
            assert_eq!(r.counters.faults, 1 + 1, "{column}");
            assert_eq!(cs1, cs2 + upgrade, "{column}");
        } else {
            assert_eq!(r.counters.faults, 1 + 2, "{column}");
            assert_eq!(cs1, cs2, "{column}");
            assert!(cs2 >= upgrade + p.hw.host.twin_copy, "{column}");
        }
    }
}

#[test]
fn a_grant_that_outruns_the_reopen_waits_for_it_and_charges_the_rest_to_acqrel() {
    // Uncontended, the masked CAS comes back before the re-open's
    // mprotect is done: the critical section starts where the re-open
    // ends, and the time between the grant and then is acquire/release
    // time.
    let l = LockId::new(1);
    let p = params(Column::genima_2025(), 2, 1);
    let reopen = p.hw.host.mprotect.cost(1);
    let p0 = two_holdings_of_a_home_page(l);
    let (held, r) = p0_holdings(Column::genima_2025(), p0, vec![vec![]]);
    let [_, (ask, grant, release)] = held[..] else {
        panic!("p0 held the lock {} times", held.len());
    };
    assert!(grant < ask + reopen, "the grant came after the re-open");
    let overhead = p.proto.acquire_overhead;
    assert_eq!(release, ask + reopen + overhead);
    assert_eq!(r.counters.faults, 1 + 1);
    // Per holding the acquire's overhead and the release's re-protect;
    // the first holding's fault; what of the re-open the wait did not
    // hide.
    // The first release advises the NI of the page; the second finds it
    // mapped and pays nothing for it.
    let reprotect = p.hw.host.mprotect.cost(1);
    let upgrade = p.proto.fault_trap + p.hw.host.mprotect.cost(1);
    let outlasting = (ask + reopen).saturating_since(grant);
    let want = (overhead + reprotect) * 2 + rnic_advice(1) + upgrade + outlasting;
    assert_eq!(r.breakdowns[0].acqrel, want);
}

#[test]
fn releasing_another_lock_in_between_replaces_the_scope() {
    // p0 takes lock 2 between its two holdings of lock 1 and writes
    // nothing under it: lock 1's second holding faults like its first.
    let (l, other) = (LockId::new(1), LockId::new(2));
    let mut p0 = two_holdings_of_a_home_page(l);
    let at = p0.iter().position(|op| matches!(op, Op::Compute(_)));
    let at = at.expect("a gap between the holdings");
    p0.splice(at..at, [Op::Acquire(other), Op::Release(other)]);
    let (held, r) = p0_holdings(Column::genima_2025(), p0, vec![vec![]]);
    assert_eq!(held.len(), 3);
    assert_eq!(r.counters.faults, 1 + 2);
}
