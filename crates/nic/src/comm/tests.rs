#![allow(clippy::field_reassign_with_default)]

use super::*;
use genima_coll::ReduceOp;
use genima_net::{Fate, FaultInjector, PacketCtx};
use genima_sim::EventQueue;

fn comm(ports: usize, nlocks: usize) -> Comm {
    Comm::new(NicConfig::default(), NetConfig::myrinet(), ports, nlocks)
}

/// Runs pending events to quiescence, returning time-sorted upcalls.
fn drain(comm: &mut Comm, posts: Vec<Post>) -> Vec<(Time, Upcall)> {
    let mut q = EventQueue::new();
    let mut ups = Vec::new();
    for p in posts {
        ups.extend(p.upcalls);
        for (t, e) in p.events {
            q.push(t, e);
        }
    }
    while let Some((t, e)) = q.pop() {
        let step = comm.handle(t, e);
        ups.extend(step.upcalls);
        for (t2, e2) in step.events {
            q.push(t2, e2);
        }
    }
    ups.sort_by_key(|&(t, _)| t);
    ups
}

#[test]
fn one_word_deposit_latency_matches_paper() {
    let mut c = comm(2, 0);
    let post = c.post_send(
        Time::ZERO,
        NicId::new(0),
        SendDesc {
            dst: NicId::new(1),
            bytes: 4,
            kind: MsgKind::Deposit,
            tag: Tag::new(9),
        },
    );
    assert_eq!(post.host_free, Time::ZERO + Dur::from_us(2));
    let ups = drain(&mut c, vec![post]);
    assert_eq!(ups.len(), 1);
    let (t, up) = ups[0];
    assert!(
        matches!(up, Upcall::DepositArrived { tag, .. } if tag == Tag::new(9)),
        "got {up:?}"
    );
    // Paper: ~18us one-way for one word. Accept the 10–22us band.
    assert!(
        t.as_us() > 10.0 && t.as_us() < 22.0,
        "one-word latency {t} outside calibration band"
    );
}

#[test]
fn page_fetch_latency_matches_paper() {
    let mut c = comm(2, 0);
    let post = c.fetch(
        Time::ZERO,
        NicId::new(0),
        NicId::new(1),
        4096,
        crate::ALWAYS_MAPPED,
        Tag::new(1),
    );
    let ups = drain(&mut c, vec![post]);
    let (t, up) = ups[0];
    assert!(matches!(
        up,
        Upcall::FetchCompleted { nic, tag } if nic == NicId::new(0) && tag == Tag::new(1)
    ));
    // Paper §3.1: one 4KB page fetch ≈ 110us.
    assert!(
        t.as_us() > 95.0 && t.as_us() < 125.0,
        "page fetch latency {t} outside calibration band"
    );
}

#[test]
fn host_msg_reaches_host_memory() {
    let mut c = comm(2, 0);
    let post = c.post_send(
        Time::ZERO,
        NicId::new(1),
        SendDesc {
            dst: NicId::new(0),
            bytes: 64,
            kind: MsgKind::HostMsg,
            tag: Tag::new(5),
        },
    );
    let ups = drain(&mut c, vec![post]);
    assert!(matches!(
        ups[0].1,
        Upcall::HostMsgArrived { nic, tag, src }
            if nic == NicId::new(0) && tag == Tag::new(5) && src == NicId::new(1)
    ));
}

/// Posts a `bytes`-byte deposit from NIC 0 into NIC 1.
fn deposit(c: &mut Comm, bytes: u32, tag: Tag) -> Post {
    let desc = SendDesc {
        dst: NicId::new(1),
        bytes,
        kind: MsgKind::Deposit,
        tag,
    };
    c.post_send(Time::ZERO, NicId::new(0), desc)
}

#[test]
fn small_transfer_is_one_packet() {
    let mut c = comm(2, 1);
    let p = deposit(&mut c, 64, Tag::new(1));
    assert_eq!(p.events.len(), 1);
    assert_eq!(drain(&mut c, vec![p]).len(), 1);
}

#[test]
fn large_transfer_splits_but_completes_once() {
    let mut c = comm(2, 1);
    let p = deposit(&mut c, 10_000, Tag::new(2));
    assert_eq!(p.events.len(), 3); // 4096 + 4096 + 1808
    let ups = drain(&mut c, vec![p]);
    assert_eq!(ups.len(), 1, "one completion for the whole transfer");
    assert!(matches!(
        ups[0].1,
        Upcall::DepositArrived { tag, .. } if tag == Tag::new(2)
    ));
    assert_eq!(
        c.monitor().total_bytes(),
        10_000,
        "every fragment travelled"
    );
}

#[test]
fn multi_fragment_fetch_completes_once() {
    let mut c = comm(2, 1);
    let p = c.fetch(
        Time::ZERO,
        NicId::new(0),
        NicId::new(1),
        8192,
        crate::ALWAYS_MAPPED,
        Tag::new(3),
    );
    assert_eq!(p.events.len(), 2, "one request per 4 KB fragment");
    let ups = drain(&mut c, vec![p]);
    assert_eq!(ups.len(), 1);
    assert!(matches!(
        ups[0].1,
        Upcall::FetchCompleted { nic, tag } if nic == NicId::new(0) && tag == Tag::new(3)
    ));
}

#[test]
fn posts_charge_host_per_fragment() {
    let small = deposit(&mut comm(2, 1), 64, Tag::NONE);
    let big = deposit(&mut comm(2, 1), 12_288, Tag::NONE);
    assert!(
        big.host_free > small.host_free,
        "3 fragments post sequentially"
    );
}

#[test]
fn post_queue_full_stalls_host() {
    let lanai = LanaiConfig {
        post_queue_capacity: 4,
        ..LanaiConfig::paper()
    };
    let model = Box::new(LanaiModel::new(lanai, 2));
    let mut c = Comm::with_model(model, NicConfig::default(), NetConfig::myrinet(), 2, 0);
    let mut last_free = Time::ZERO;
    for i in 0..8 {
        let p = c.post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 4096,
                kind: MsgKind::Deposit,
                tag: Tag::new(i),
            },
        );
        last_free = p.host_free;
    }
    // First four posts are immediate (2us); later ones stall until
    // the NI drains slots.
    assert!(
        last_free > Time::ZERO + Dur::from_us(30),
        "8th post of a 4-deep queue should stall, got {last_free}"
    );
}

#[test]
fn lock_acquired_from_home_round_trip() {
    let mut c = comm(2, 1);
    let lock = LockId::new(0); // home = nic0
    assert_eq!(c.lock_home(lock), NicId::new(0));
    let post = c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(7));
    let ups = drain(&mut c, vec![post]);
    let granted = ups
        .iter()
        .find(|(_, u)| matches!(u, Upcall::LockGranted { .. }))
        .expect("grant");
    assert!(matches!(
        granted.1,
        Upcall::LockGranted { nic, lock: l, tag }
            if nic == NicId::new(1) && l == lock && tag == Tag::new(7)
    ));
    // Requester -> home -> (local transfer) -> grant back: roughly
    // two wire crossings plus firmware; must beat the paper's
    // interrupt-based lock by a wide margin.
    assert!(granted.0.as_us() < 60.0, "NI lock too slow: {}", granted.0);
    assert!(c.lock_owned_by(NicId::new(1), lock));
    assert!(!c.lock_owned_by(NicId::new(0), lock));
    // The home lost ownership along the way.
    let departed = ups
        .iter()
        .any(|(_, u)| matches!(u, Upcall::LockDeparted { nic, .. } if *nic == NicId::new(0)));
    assert!(departed);
}

#[test]
fn contended_lock_transfers_on_release() {
    let mut c = comm(3, 1);
    let lock = LockId::new(0); // home nic0
    let p1 = c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(1));
    let ups = drain(&mut c, vec![p1]);
    let t1 = ups
        .iter()
        .find(|(_, u)| matches!(u, Upcall::LockGranted { .. }))
        .unwrap()
        .0;
    // nic2 requests while nic1 holds: must wait for nic1's release.
    let p2 = c.lock_acquire(t1, NicId::new(2), lock, Tag::new(2));
    let ups2 = drain(&mut c, vec![p2]);
    assert!(
        ups2.iter()
            .all(|(_, u)| !matches!(u, Upcall::LockGranted { .. })),
        "grant must not happen while held: {ups2:?}"
    );
    // Now nic1 releases; the queued transfer fires.
    let rel_at = t1 + Dur::from_us(100);
    let p3 = c.lock_release(rel_at, NicId::new(1), lock);
    let ups3 = drain(&mut c, vec![p3]);
    let granted = ups3
        .iter()
        .find(|(_, u)| matches!(u, Upcall::LockGranted { nic, .. } if *nic == NicId::new(2)))
        .expect("successor granted after release");
    assert!(granted.0 > rel_at);
    let departed = ups3
        .iter()
        .any(|(_, u)| matches!(u, Upcall::LockDeparted { nic, .. } if *nic == NicId::new(1)));
    assert!(departed);
    assert!(c.lock_owned_by(NicId::new(2), lock));
    assert!(!c.lock_owned_by(NicId::new(1), lock));
}

#[test]
fn released_lock_stays_with_last_owner() {
    let mut c = comm(2, 1);
    let lock = LockId::new(0);
    let p = c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(1));
    let ups = drain(&mut c, vec![p]);
    let t1 = ups.last().unwrap().0;
    let p2 = c.lock_release(t1, NicId::new(1), lock);
    let ups2 = drain(&mut c, vec![p2]);
    assert!(ups2.is_empty(), "uncontended release is silent: {ups2:?}");
    assert!(
        c.lock_owned_by(NicId::new(1), lock),
        "last owner keeps the lock"
    );
}

#[test]
fn monitor_sees_all_stages() {
    let mut c = comm(2, 0);
    let post = c.post_send(
        Time::ZERO,
        NicId::new(0),
        SendDesc {
            dst: NicId::new(1),
            bytes: 4096,
            kind: MsgKind::Deposit,
            tag: Tag::NONE,
        },
    );
    drain(&mut c, vec![post]);
    let m = c.monitor();
    for stage in Stage::ALL {
        assert_eq!(
            m.stats(stage, SizeClass::Large).actual.count(),
            1,
            "missing sample in {stage:?}"
        );
    }
    assert_eq!(m.packets(SizeClass::Large), 1);
    // Uncontended single transfer: every ratio is exactly 1.
    for stage in Stage::ALL {
        let r = m.stats(stage, SizeClass::Large).ratio();
        assert!((r - 1.0).abs() < 1e-9, "{stage:?} ratio {r}");
    }
}

#[test]
fn back_to_back_pages_show_contention() {
    let mut c = comm(2, 0);
    let mut posts = Vec::new();
    for i in 0..16 {
        posts.push(c.post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 4096,
                kind: MsgKind::Deposit,
                tag: Tag::new(i),
            },
        ));
    }
    drain(&mut c, vec![posts.remove(0)]);
    // Drain remaining events too.
    let rest: Vec<Post> = posts.into_iter().collect();
    drain(&mut c, rest);
    let r = c.monitor().stats(Stage::Source, SizeClass::Large).ratio();
    assert!(r > 1.5, "source stage should show queueing, ratio={r}");
}

#[test]
fn fetch_and_store_swaps_and_returns_old() {
    let mut c = comm(2, 0);
    // Remote swap: cell starts 0.
    let p1 = c.fetch_and_store(Time::ZERO, NicId::new(0), NicId::new(1), 3, 7, Tag::new(1));
    let ups = drain(&mut c, vec![p1]);
    assert!(matches!(
        ups[0].1,
        Upcall::AtomicCompleted { tag, old: 0, .. } if tag == Tag::new(1)
    ));
    // Second swap sees the first value.
    let t1 = ups[0].0;
    let p2 = c.fetch_and_store(t1, NicId::new(0), NicId::new(1), 3, 9, Tag::new(2));
    let ups2 = drain(&mut c, vec![p2]);
    assert!(matches!(
        ups2[0].1,
        Upcall::AtomicCompleted { tag, old: 7, .. } if tag == Tag::new(2)
    ));
    // Different cell is independent.
    let p3 = c.fetch_and_store(ups2[0].0, NicId::new(0), NicId::new(1), 4, 1, Tag::new(3));
    let ups3 = drain(&mut c, vec![p3]);
    assert!(matches!(ups3[0].1, Upcall::AtomicCompleted { old: 0, .. }));
}

#[test]
fn local_fetch_and_store_needs_no_network() {
    let mut c = comm(2, 0);
    let p = c.fetch_and_store(Time::ZERO, NicId::new(1), NicId::new(1), 0, 5, Tag::new(1));
    assert!(p.events.is_empty(), "local swap produces no packets");
    assert_eq!(p.upcalls.len(), 1);
    let (t, up) = p.upcalls[0];
    assert!(matches!(up, Upcall::AtomicCompleted { old: 0, .. }));
    assert!(t.as_us() < 10.0, "local swap is fast: {t}");
}

#[test]
fn concurrent_swaps_serialise_at_the_home_firmware() {
    // Two NICs race a test-and-set: exactly one sees old == 0.
    let mut c = comm(3, 0);
    let p1 = c.fetch_and_store(Time::ZERO, NicId::new(1), NicId::new(0), 0, 1, Tag::new(1));
    let p2 = c.fetch_and_store(Time::ZERO, NicId::new(2), NicId::new(0), 0, 1, Tag::new(2));
    let ups = drain(&mut c, vec![p1, p2]);
    let olds: Vec<u64> = ups
        .iter()
        .filter_map(|(_, u)| match u {
            Upcall::AtomicCompleted { old, .. } => Some(*old),
            _ => None,
        })
        .collect();
    assert_eq!(olds.len(), 2, "both swaps complete: {olds:?}");
    assert!(
        matches!((olds[0], olds[1]), (0, 1) | (1, 0)),
        "exactly one winner: {olds:?}"
    );
}

#[test]
fn gather_deposit_carries_runs_in_one_message() {
    let mut cfg = NicConfig::default();
    cfg.scatter_gather = true;
    let mut c = Comm::new(cfg, NetConfig::myrinet(), 2, 0);
    let post = c.post_send(
        Time::ZERO,
        NicId::new(0),
        SendDesc {
            dst: NicId::new(1),
            bytes: 384,
            kind: MsgKind::GatherDeposit { runs: 48 },
            tag: Tag::new(3),
        },
    );
    assert_eq!(post.events.len(), 1, "one message for all runs");
    let ups = drain(&mut c, vec![post]);
    assert!(matches!(
        ups[0].1,
        Upcall::DepositArrived { tag, .. } if tag == Tag::new(3)
    ));
    // Packing and unpacking 48 runs costs real firmware time: the
    // gather message is far slower than a plain deposit of the
    // same size...
    let mut plain = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
    let post = plain.post_send(
        Time::ZERO,
        NicId::new(0),
        SendDesc {
            dst: NicId::new(1),
            bytes: 384,
            kind: MsgKind::Deposit,
            tag: Tag::new(3),
        },
    );
    let plain_ups = drain(&mut plain, vec![post]);
    assert!(ups[0].0 > plain_ups[0].0);
    // ...but much faster than 48 separate small deposits.
    let mut many = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
    let mut posts = Vec::new();
    let mut now = Time::ZERO;
    for i in 0..48 {
        let p = many.post_send(
            now,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 8,
                kind: MsgKind::Deposit,
                tag: Tag::new(i),
            },
        );
        now = p.host_free;
        posts.push(p);
    }
    let many_ups = drain(&mut many, posts);
    assert!(ups[0].0 < many_ups.last().unwrap().0);
}

#[test]
fn broadcast_replicates_one_descriptor() {
    let mut cfg = NicConfig::default();
    cfg.broadcast = true;
    let mut c = Comm::new(cfg, NetConfig::myrinet(), 4, 0);
    let dsts = [
        (NicId::new(1), Tag::new(1)),
        (NicId::new(2), Tag::new(2)),
        (NicId::new(3), Tag::new(3)),
    ];
    let post = c.post_broadcast(Time::ZERO, NicId::new(0), &dsts, 64, MsgKind::Deposit);
    assert_eq!(post.events.len(), 3, "one delivery per destination");
    let ups = drain(&mut c, vec![post]);
    let mut tags: Vec<u64> = ups
        .iter()
        .filter_map(|(_, u)| match u {
            Upcall::DepositArrived { tag, .. } => Some(tag.value()),
            _ => None,
        })
        .collect();
    tags.sort_unstable();
    assert_eq!(tags, vec![1, 2, 3]);
}

#[test]
#[should_panic(expected = "broadcast without")]
fn broadcast_requires_capability() {
    let mut c = comm(2, 0);
    c.post_broadcast(
        Time::ZERO,
        NicId::new(0),
        &[(NicId::new(1), Tag::NONE)],
        8,
        MsgKind::Deposit,
    );
}

#[test]
#[should_panic(expected = "scatter-gather send without")]
fn gather_requires_capability() {
    let mut c = comm(2, 0);
    c.post_send(
        Time::ZERO,
        NicId::new(0),
        SendDesc {
            dst: NicId::new(1),
            bytes: 64,
            kind: MsgKind::GatherDeposit { runs: 4 },
            tag: Tag::NONE,
        },
    );
}

#[test]
#[should_panic(expected = "intra-node")]
fn intra_node_send_panics() {
    comm(2, 0).post_send(
        Time::ZERO,
        NicId::new(0),
        SendDesc {
            dst: NicId::new(0),
            bytes: 4,
            kind: MsgKind::Deposit,
            tag: Tag::NONE,
        },
    );
}

#[test]
#[should_panic(expected = "re-requested")]
fn double_acquire_panics() {
    let mut c = comm(2, 1);
    let lock = LockId::new(0);
    c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(1));
    c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(2));
}

/// Runs one all-reduce epoch over `ports` nodes, returning the
/// completion upcalls in time order.
fn run_coll_epoch(c: &mut Comm, ports: usize, coll: CollId) -> Vec<(Time, Upcall)> {
    let mut posts = Vec::new();
    for n in 0..ports {
        posts.push(c.coll_enter(
            Time::ZERO,
            NicId::new(n),
            coll,
            ReduceOp::Max,
            &[n as u64, 100 + n as u64],
        ));
    }
    drain(c, posts)
}

#[test]
fn tree_all_reduce_completes_on_every_node() {
    for ports in [1, 2, 5, 8] {
        let mut c = comm(ports, 0);
        let coll = CollId::new(0);
        let ups = run_coll_epoch(&mut c, ports, coll);
        let mut done: Vec<usize> = ups
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::CollCompleted { nic, epoch: 0, .. } => Some(nic.index()),
                _ => None,
            })
            .collect();
        done.sort_unstable();
        assert_eq!(done, (0..ports).collect::<Vec<_>>());
        let (epoch, vals) = c.coll_result(coll).expect("combined result");
        assert_eq!(epoch, 0);
        assert_eq!(vals, [ports as u64 - 1, 100 + ports as u64 - 1]);
    }
}

#[test]
fn ni_barrier_beats_serial_fan_in_latency() {
    // 16 nodes, fanout 4: the last completion must arrive well
    // before 16 serialised one-way hops (~18us each) would allow.
    let mut c = comm(16, 0);
    c.set_coll_fanout(4);
    let ups = run_coll_epoch(&mut c, 16, CollId::new(3));
    let last = ups.last().expect("completions").0;
    assert!(
        last.as_us() < 16.0 * 18.0,
        "tree barrier slower than serial fan-in: {last}"
    );
}

#[test]
fn coll_epochs_chain_without_reset() {
    let mut c = comm(4, 0);
    let coll = CollId::new(0);
    for epoch in 0..3u32 {
        let mut posts = Vec::new();
        for n in 0..4 {
            assert_eq!(c.coll_epoch(coll, NicId::new(n)), epoch);
            posts.push(c.coll_enter(
                Time::ZERO,
                NicId::new(n),
                coll,
                ReduceOp::Sum,
                &[1 + epoch as u64],
            ));
        }
        let ups = drain(&mut c, posts);
        let done = ups
            .iter()
            .filter(|(_, u)| matches!(u, Upcall::CollCompleted { epoch: e, .. } if *e == epoch))
            .count();
        assert_eq!(done, 4, "epoch {epoch}");
        assert_eq!(
            c.coll_result(coll),
            Some((epoch, &[4 * (1 + epoch as u64)][..]))
        );
    }
}

/// Loses every transmission — retransmits included — of one packet,
/// named by its channel and sequence number; the rest of the fabric is
/// clean.
#[derive(Debug)]
struct Doom {
    src: usize,
    dst: usize,
    seq: u64,
}

impl FaultInjector for Doom {
    fn fate(&mut self, ctx: PacketCtx) -> Fate {
        if (ctx.src.index(), ctx.dst.index(), ctx.seq) == (self.src, self.dst, self.seq) {
            Fate::Drop
        } else {
            Fate::CLEAN
        }
    }

    fn recv_stall(&mut self, _nic: NicId, _now: Time) -> Dur {
        Dur::ZERO
    }
}

/// What the contended-chain harness schedules.
enum ChainEv {
    Fw(Event),
    Up(Upcall),
    Release(NicId),
}

fn sched(q: &mut EventQueue<ChainEv>, post: Post) {
    for (t, e) in post.events {
        q.push(t, ChainEv::Fw(e));
    }
    for (t, u) in post.upcalls {
        q.push(t, ChainEv::Up(u));
    }
}

/// The GeNIMA-1999 `LockWait` deadlock, small: a lock homed at and held
/// by NIC 0, NIC 1 then NIC 2 ask for it, NIC 0 releases at 300 µs and
/// every later holder 10 µs after its grant — while the transport
/// gives up on the one chain packet `doomed` names. Returns every
/// upcall but `LockDeparted`, in time order, and the counters.
fn contended_chain(doomed: Doom, degraded: bool) -> (Vec<Upcall>, RecoveryStats) {
    let mut c = comm(3, 1);
    c.set_fault_injector(Box::new(doomed));
    c.set_degraded(degraded);
    let lock = LockId::new(0);
    let at = |us| Time::ZERO + Dur::from_us(us);
    let mut q = EventQueue::new();
    sched(
        &mut q,
        c.lock_acquire(at(0), NicId::new(0), lock, Tag::new(0)),
    );
    sched(
        &mut q,
        c.lock_acquire(at(10), NicId::new(1), lock, Tag::new(1)),
    );
    sched(
        &mut q,
        c.lock_acquire(at(30), NicId::new(2), lock, Tag::new(2)),
    );
    q.push(at(300), ChainEv::Release(NicId::new(0)));
    let mut ups = Vec::new();
    while let Some((t, ev)) = q.pop() {
        match ev {
            ChainEv::Fw(e) => {
                let step = c.handle(t, e);
                sched(&mut q, Post::after(t, step));
            }
            ChainEv::Release(nic) => sched(&mut q, c.lock_release(t, nic, lock)),
            ChainEv::Up(Upcall::LockDeparted { .. }) => {}
            ChainEv::Up(up) => {
                if let Upcall::LockGranted { nic, .. } = up {
                    if nic != NicId::new(0) {
                        q.push(t + Dur::from_us(10), ChainEv::Release(nic));
                    }
                }
                ups.push(up);
            }
        }
    }
    (ups, c.recovery_stats())
}

#[test]
fn chain_packet_the_transport_gives_up_on_still_hands_the_lock_on() {
    let granted = |n: usize| Upcall::LockGranted {
        nic: NicId::new(n),
        lock: LockId::new(0),
        tag: Tag::new(n as u64),
    };
    // On the 0→1 channel the transfer naming NIC 2 is packet 1 and the
    // grant packet 2; NIC 1's request is packet 1 of 1→0, and when it
    // is the one that crawls, NIC 2 joins the chain first.
    let cases = [
        ("grant 0→1", (0, 1, 2), [1, 2], 1),
        ("transfer 0→1 naming 2", (0, 1, 1), [1, 2], 2),
        ("request 1→0", (1, 0, 1), [2, 1], 1),
    ];
    for (what, (src, dst, seq), order, tag) in cases {
        let (ups, stats) = contended_chain(Doom { src, dst, seq }, true);
        assert_eq!(
            ups,
            [granted(0), granted(order[0]), granted(order[1])],
            "{what}: every acquire is granted, in chain order"
        );
        // Seven retransmissions, then one management hop that `admit`
        // takes as the packet's first arrival.
        let healed = RecoveryStats {
            retransmits: 7,
            mgmt_deliveries: 1,
            ..RecoveryStats::default()
        };
        assert_eq!(stats, healed, "{what}");

        // Fail-stop is unchanged: the same loss surfaces, carrying the
        // acquire tag of the requester the packet served.
        let (ups, stats) = contended_chain(Doom { src, dst, seq }, false);
        let gave_up = Upcall::PeerUnreachable {
            nic: NicId::new(src),
            peer: NicId::new(dst),
            tag: Tag::new(tag),
        };
        assert!(ups.contains(&gave_up), "{what}: {ups:?}");
        assert_eq!((stats.unreachable, stats.mgmt_deliveries), (1, 0), "{what}");
    }
}
