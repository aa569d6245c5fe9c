//! Per-layer calibration kernels: host nanoseconds per call into each
//! layer's public API, measured from outside.
//!
//! Each kernel runs a warm-up chunk and five timed chunks and reports
//! the fastest chunk's mean, as `diff_bench` does: the minimum shrugs
//! off frequency ramps and scheduler noise. Chunks hold 2x10^5 calls
//! for the cheap kernels and fewer for the ones that drive a whole
//! `Comm` to quiescence per call, so the set costs about two seconds.

use std::hint::black_box;
use std::time::Instant;

use genima_coll::{Action, CollId, CollState, ReduceOp};
use genima_fault::{FaultPlan, PlanInjector};
use genima_mem::{DiffScratch, DirtyRanges, Page, PagePool, PAGE_SIZE, WORD};
use genima_net::{FaultInjector, NetConfig, Network, NicId, PacketCtx};
use genima_nic::{CasWord, Comm, Event, LockId, MsgKind, NicConfig, Post, SendDesc, Tag, Upcall};
use genima_obs::{Recorder, SpanKind, Track};
use genima_rnic::HwProfile;
use genima_serve::{OpenLoop, Pacing, Zipf};
use genima_sim::{Dur, EventQueue, Histogram, Resource, RunSeed, SplitMix64, Time};

use crate::spans::Spans;

const CHUNKS: usize = 5;
/// Ports of the standalone fabrics and `Comm`s the kernels drive.
const PORTS: usize = 8;

/// Fastest-chunk mean of `f`, nanoseconds per call.
fn time_ns(calls_per_chunk: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls_per_chunk {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..CHUNKS {
        let start = Instant::now();
        for _ in 0..calls_per_chunk {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / calls_per_chunk as f64);
    }
    best
}

/// Host nanoseconds per call, one field per kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelNs {
    pub queue_hold: f64,
    pub hist_record: f64,
    pub resource_reserve: f64,
    pub net_transfer: f64,
    pub nic_deposit: f64,
    pub nic_fetch: f64,
    pub nic_lock_pair: f64,
    pub nic_coll_barrier: f64,
    pub rnic_deposit: f64,
    pub rnic_cas_pair: f64,
    pub coll_epoch: f64,
    pub diff_sparse: f64,
    pub diff_dense: f64,
    pub diff_tracked: f64,
    pub diff_apply: f64,
    pub pool_copy: f64,
    pub dirty_add: f64,
    pub zipf_sample: f64,
    pub arrival: f64,
    pub fault_decide: f64,
    pub obs_record: f64,
}

fn timed(spans: &mut Spans, name: &'static str, kernel: impl FnOnce() -> f64) -> f64 {
    spans.next_run();
    let s = spans.begin(name);
    let ns = kernel();
    spans.end(s);
    ns
}

/// Runs every kernel once, each under its own span.
pub fn run_all(seed: u64, spans: &mut Spans) -> KernelNs {
    let lanai = || Comm::new(NicConfig::lanai(), NetConfig::myrinet(), PORTS, PORTS);
    let rnic = || {
        let hw = HwProfile::rnic_2025();
        Comm::with_model(hw.model(PORTS), hw.nic, hw.net, PORTS, 0)
    };
    let sparse = DiffCase::scattered(seed, 8);
    let medium = DiffCase::scattered(seed ^ 1, 64);
    let dense = DiffCase::every_other_word(seed ^ 2);
    KernelNs {
        queue_hold: timed(spans, "kernel.sim.queue_hold", || queue_hold(seed)),
        hist_record: timed(spans, "kernel.sim.hist_record", || hist_record(seed)),
        resource_reserve: timed(spans, "kernel.sim.resource_reserve", resource_reserve),
        net_transfer: timed(spans, "kernel.net.transfer", || net_transfer(seed)),
        nic_deposit: timed(spans, "kernel.nic.deposit", || comm_deposit(lanai())),
        nic_fetch: timed(spans, "kernel.nic.fetch", || comm_fetch(lanai())),
        nic_lock_pair: timed(spans, "kernel.nic.lock_pair", || comm_lock_pair(lanai())),
        nic_coll_barrier: timed(spans, "kernel.nic.coll_barrier", || {
            comm_coll_barrier(lanai())
        }),
        rnic_deposit: timed(spans, "kernel.rnic.deposit", || comm_deposit(rnic())),
        rnic_cas_pair: timed(spans, "kernel.rnic.cas_pair", || comm_cas_pair(rnic())),
        coll_epoch: timed(spans, "kernel.coll.epoch", coll_epoch),
        diff_sparse: timed(spans, "kernel.mem.diff_sparse", || {
            let mut scratch = DiffScratch::new();
            time_ns(20_000, || {
                black_box(scratch.compute(&sparse.twin, &sparse.cur).run_count());
            })
        }),
        diff_dense: timed(spans, "kernel.mem.diff_dense", || {
            let mut scratch = DiffScratch::new();
            time_ns(20_000, || {
                black_box(scratch.compute(&dense.twin, &dense.cur).run_count());
            })
        }),
        diff_tracked: timed(spans, "kernel.mem.diff_tracked", || {
            let mut scratch = DiffScratch::new();
            time_ns(20_000, || {
                let d = scratch.compute_tracked(&medium.twin, &medium.cur, &medium.dirty);
                black_box(d.run_count());
            })
        }),
        diff_apply: timed(spans, "kernel.mem.diff_apply", || {
            let mut scratch = DiffScratch::new();
            scratch.compute(&medium.twin, &medium.cur);
            let diff = scratch.take();
            let mut home = medium.twin.twin();
            time_ns(50_000, || {
                diff.apply(&mut home);
                black_box(home.bytes()[0]);
            })
        }),
        pool_copy: timed(spans, "kernel.mem.pool_copy", || {
            let mut pool = PagePool::new();
            time_ns(200_000, || {
                let copy = pool.copy_of(&dense.cur);
                black_box(copy.bytes()[0]);
                pool.recycle(copy);
            })
        }),
        dirty_add: timed(spans, "kernel.mem.dirty_add", || dirty_add(seed)),
        zipf_sample: timed(spans, "kernel.serve.zipf_sample", || {
            let zipf = Zipf::new(4096, 0.99);
            let mut rng = SplitMix64::new(seed);
            time_ns(200_000, || {
                black_box(zipf.sample(&mut rng));
            })
        }),
        arrival: timed(spans, "kernel.serve.arrival", || {
            let mut arr = OpenLoop::new(
                Time::ZERO,
                Dur::from_us(50),
                Pacing::Poisson,
                SplitMix64::new(seed),
            );
            time_ns(200_000, || {
                black_box(arr.next_arrival());
            })
        }),
        fault_decide: timed(spans, "kernel.fault.decide", || fault_decide(seed)),
        obs_record: timed(spans, "kernel.obs.record", obs_record),
    }
}

/// The hold model of `sim_bench` at 2^14 pending events: pop the head,
/// schedule a replacement 1 us to 1 ms later.
fn queue_hold(seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..1u64 << 14 {
        q.push(Time::from_ns(1_000 + rng.next_u64() % 999_000), i);
    }
    let mut i = 0;
    time_ns(200_000, || {
        let now = q.pop().expect("hold model never drains").0;
        i += 1;
        q.push(
            Time::from_ns(now.as_ns() + now.as_ns() % 999_000 + 1_000),
            i,
        );
    })
}

fn hist_record(seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut h = Histogram::new();
    let ns = time_ns(200_000, || {
        h.record(Dur::from_ns(rng.next_u64() >> 40));
    });
    black_box(h.count());
    ns
}

fn resource_reserve() -> f64 {
    let mut r = Resource::new("kernel");
    let mut now = Time::ZERO;
    time_ns(200_000, || {
        // Arrivals every 3 us against 4 us of service: always queued.
        now += Dur::from_us(3);
        black_box(r.reserve(now, Dur::from_us(4)));
    })
}

/// 4 KB packets between uniformly chosen pairs of an 8-port crossbar.
fn net_transfer(seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut net = Network::new(NetConfig::myrinet(), PORTS);
    let mut now = Time::ZERO;
    time_ns(200_000, || {
        let src = rng.next_below(PORTS as u64) as usize;
        let dst = (src + 1 + rng.next_below(PORTS as u64 - 1) as usize) % PORTS;
        now += Dur::from_us(4);
        black_box(net.transfer(now, NicId::new(src), NicId::new(dst), 4096));
    })
}

/// A standalone `Comm` and the event queue that drives it.
struct Rig {
    comm: Comm,
    q: EventQueue<Event>,
    ups: Vec<(Time, Upcall)>,
    now: Time,
    calls: u64,
}

impl Rig {
    fn new(comm: Comm) -> Rig {
        Rig {
            comm,
            q: EventQueue::new(),
            ups: Vec::new(),
            now: Time::ZERO,
            calls: 0,
        }
    }

    /// The `(src, dst)` pair of the next call: every ordered pair in
    /// turn, so no link or NIC is favoured.
    fn next_pair(&mut self) -> (NicId, NicId) {
        self.calls += 1;
        let src = self.calls as usize % PORTS;
        let dst = (src + 1 + (self.calls as usize / PORTS) % (PORTS - 1)) % PORTS;
        (NicId::new(src), NicId::new(dst))
    }

    fn tag(&self) -> Tag {
        Tag::new(self.calls)
    }

    /// Schedules a post's events and handles everything they cause,
    /// collecting upcalls in `self.ups`; time advances to quiescence.
    fn settle(&mut self, post: Post) {
        self.now = self.now.max(post.host_free);
        self.ups.extend(post.upcalls);
        for (t, e) in post.events {
            self.q.push(t.max(self.q.now()), e);
        }
        while let Some((t, e)) = self.q.pop() {
            self.now = self.now.max(t);
            let step = self.comm.handle(t, e);
            self.ups.extend(step.upcalls);
            for (t2, e2) in step.events {
                self.q.push(t2.max(t), e2);
            }
        }
    }

    /// Takes the upcalls of the call just settled and checks that
    /// `want` of them satisfy `is_done`.
    fn expect_upcalls(&mut self, want: usize, is_done: impl Fn(&Upcall) -> bool) {
        let got = self.ups.iter().filter(|(_, u)| is_done(u)).count();
        assert_eq!(got, want, "kernel call completed {got} of {want} upcalls");
        self.ups.clear();
    }
}

/// One 4 KB remote deposit, posted and delivered.
fn comm_deposit(comm: Comm) -> f64 {
    let mut rig = Rig::new(comm);
    time_ns(20_000, || {
        let (src, dst) = rig.next_pair();
        let desc = SendDesc {
            dst,
            bytes: 4096,
            kind: MsgKind::Deposit,
            tag: rig.tag(),
        };
        let post = rig.comm.post_send(rig.now, src, desc);
        rig.settle(post);
        rig.expect_upcalls(1, |u| matches!(u, Upcall::DepositArrived { .. }));
    })
}

/// One 4 KB remote fetch: request, firmware service, reply.
fn comm_fetch(comm: Comm) -> f64 {
    let mut rig = Rig::new(comm);
    time_ns(20_000, || {
        let (nic, from) = rig.next_pair();
        let post = rig
            .comm
            .fetch(rig.now, nic, from, 4096, rig.calls % 64, rig.tag());
        rig.settle(post);
        rig.expect_upcalls(1, |u| matches!(u, Upcall::FetchCompleted { .. }));
    })
}

/// One NI lock handed to the next NIC round-robin and released: every
/// acquire pulls the lock off its previous owner through the home.
fn comm_lock_pair(comm: Comm) -> f64 {
    let mut rig = Rig::new(comm);
    time_ns(20_000, || {
        rig.calls += 1;
        let nic = NicId::new(rig.calls as usize % PORTS);
        let lock = LockId::new((rig.calls as usize / PORTS) % PORTS);
        let post = rig.comm.lock_acquire(rig.now, nic, lock, rig.tag());
        rig.settle(post);
        rig.expect_upcalls(1, |u| matches!(u, Upcall::LockGranted { .. }));
        let post = rig.comm.lock_release(rig.now, nic, lock);
        rig.settle(post);
        rig.ups.clear();
    })
}

/// One barrier epoch of the firmware combining tree on all 8 ports.
fn comm_coll_barrier(comm: Comm) -> f64 {
    let mut rig = Rig::new(comm);
    let coll = CollId::new(0);
    time_ns(5_000, || {
        for nic in 0..PORTS {
            let post = rig
                .comm
                .coll_enter(rig.now, NicId::new(nic), coll, ReduceOp::Max, &[]);
            rig.settle(post);
        }
        rig.expect_upcalls(PORTS, |u| matches!(u, Upcall::CollCompleted { .. }));
    })
}

/// Masked CAS(0 -> 1) then CAS(1 -> 0) on a remote cell: an
/// uncontended RNIC lock acquire and release.
fn comm_cas_pair(comm: Comm) -> f64 {
    let mut rig = Rig::new(comm);
    time_ns(20_000, || {
        let (src, target) = rig.next_pair();
        for (expect, new) in [(0, 1), (1, 0)] {
            let cas = CasWord {
                cell: 0,
                expect,
                new,
                mask: u64::MAX,
                wait: false,
            };
            let post = rig.comm.masked_cas(rig.now, src, target, cas, rig.tag());
            rig.settle(post);
            rig.expect_upcalls(
                1,
                |u| matches!(u, Upcall::AtomicCompleted { old, .. } if *old == expect),
            );
        }
    })
}

/// One full epoch of the pure `CollState` machine: 32 nodes, fanout 4,
/// one reduce lane, through the allocation-free `*_into` calls.
fn coll_epoch() -> f64 {
    const NODES: u32 = 32;
    let mut cs = CollState::new(NODES, 4, ReduceOp::Max, 1);
    let mut out: Vec<Action> = Vec::new();
    let mut work: Vec<Action> = Vec::new();
    time_ns(5_000, || {
        let mut exits = 0;
        for node in 0..NODES {
            cs.local_arrive_into(node, &[u64::from(node)], &mut out);
            while !out.is_empty() {
                std::mem::swap(&mut out, &mut work);
                for action in work.drain(..) {
                    match action {
                        Action::SendArrive { from, to, epoch } => {
                            cs.child_arrive_into(to, from, epoch, &mut out);
                        }
                        Action::SendRelease { to, epoch, .. } => {
                            cs.release_into(to, epoch, &mut out);
                        }
                        Action::Exit { .. } => exits += 1,
                    }
                }
            }
        }
        assert_eq!(exits, NODES, "every node exits the epoch exactly once");
    })
}

/// A twin, the page written since, and the ranges the write path
/// recorded — the shapes `diff_bench` measures.
struct DiffCase {
    twin: Page,
    cur: Page,
    dirty: DirtyRanges,
}

impl DiffCase {
    fn base(seed: u64) -> (SplitMix64, Page) {
        let mut rng = SplitMix64::new(seed);
        let mut twin = Page::zeroed();
        for off in (0..PAGE_SIZE).step_by(8) {
            twin.write(off, &rng.next_u64().to_le_bytes());
        }
        (rng, twin)
    }

    fn flip(&mut self, off: usize, len: usize) {
        for i in off..off + len {
            let old = self.cur.read(i, 1)[0];
            self.cur.write(i, &[old ^ 0x5a]);
        }
        self.dirty.add(off as u32, len as u32);
    }

    /// `runs` runs of one or two words spread evenly over the page.
    fn scattered(seed: u64, runs: usize) -> DiffCase {
        let (mut rng, twin) = DiffCase::base(seed);
        let mut case = DiffCase {
            cur: twin.twin(),
            twin,
            dirty: DirtyRanges::new(),
        };
        let spacing = PAGE_SIZE / runs;
        for r in 0..runs {
            let len = WORD * (1 + rng.next_below(2) as usize);
            case.flip(r * spacing, len);
        }
        case
    }

    /// Every other word changed: 512 one-word runs.
    fn every_other_word(seed: u64) -> DiffCase {
        let (_, twin) = DiffCase::base(seed);
        let mut case = DiffCase {
            cur: twin.twin(),
            twin,
            dirty: DirtyRanges::new(),
        };
        for off in (0..PAGE_SIZE).step_by(2 * WORD) {
            case.flip(off, WORD);
        }
        case
    }
}

/// 64-byte writes at random word offsets into a page's dirty ranges,
/// cleared once a page's worth has been added.
fn dirty_add(seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut dirty = DirtyRanges::new();
    let mut added = 0;
    let ns = time_ns(200_000, || {
        let off = rng.next_below((PAGE_SIZE - 64) as u64 / 4) * 4;
        dirty.add(off as u32, 64);
        added += 1;
        if added % 64 == 0 {
            dirty.clear();
        }
    });
    black_box(dirty.bytes());
    ns
}

/// The per-packet decision of the churn workload's lossy plan.
fn fault_decide(seed: u64) -> f64 {
    let plan = FaultPlan::new()
        .drop_rate(0.05)
        .duplicate_rate(0.02)
        .delay(0.05, Dur::from_us(200));
    let mut inj = PlanInjector::new(plan, RunSeed::new(seed));
    let mut seq = 0;
    time_ns(200_000, || {
        seq += 1;
        black_box(inj.fate(PacketCtx {
            src: NicId::new(0),
            dst: NicId::new(1),
            bytes: 4096,
            seq,
            attempt: 0,
            now: Time::from_ns(seq * 1_000),
        }));
    })
}

/// One span into a ring that is at capacity, so each record also
/// evicts one: the steady state of a long traced run.
fn obs_record() -> f64 {
    let mut rec = Recorder::new(PORTS, 1 << 12);
    let mut t = 0;
    let ns = time_ns(200_000, || {
        t += 1;
        rec.span_op(
            SpanKind::FetchService,
            t as usize % PORTS,
            Track::Firmware,
            Time::from_ns(t * 100),
            Time::from_ns(t * 100 + 50),
            t,
            t,
        );
    });
    black_box(rec.len());
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_cover_every_ordered_pair_and_never_loop_back() {
        let mut rig = Rig::new(Comm::new(
            NicConfig::lanai(),
            NetConfig::myrinet(),
            PORTS,
            0,
        ));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..PORTS * (PORTS - 1) {
            let (a, b) = rig.next_pair();
            assert_ne!(a, b);
            seen.insert((a.index(), b.index()));
        }
        assert_eq!(seen.len(), PORTS * (PORTS - 1));
    }

    #[test]
    fn diff_cases_have_the_stated_run_counts() {
        let mut scratch = DiffScratch::new();
        let sparse = DiffCase::scattered(1, 8);
        assert_eq!(scratch.compute(&sparse.twin, &sparse.cur).run_count(), 8);
        assert_eq!(
            scratch
                .compute_tracked(&sparse.twin, &sparse.cur, &sparse.dirty)
                .run_count(),
            8
        );
        let dense = DiffCase::every_other_word(2);
        assert_eq!(
            scratch.compute(&dense.twin, &dense.cur).run_count(),
            PAGE_SIZE / (2 * WORD)
        );
    }
}
