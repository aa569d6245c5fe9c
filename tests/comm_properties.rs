//! Property-based integration tests of the communication stack
//! (network + NI) under randomized traffic.

use std::cell::RefCell;
use std::rc::Rc;

use genima::{Board, HwProfile};
use genima_net::{NetConfig, NicId};
use genima_nic::{Comm, LockId, MsgKind, NicConfig, Post, SendDesc, SizeClass, Stage, Tag, Upcall};
use genima_obs::{Recorder, SpanKind};
use genima_sim::{Dur, EventQueue, Time};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Posts a `kind` transfer of `bytes` from `src` to `dst` at `t`.
fn send(
    comm: &mut Comm,
    t: Time,
    src: NicId,
    dst: NicId,
    bytes: u32,
    kind: MsgKind,
    tag: Tag,
) -> Post {
    comm.post_send(
        t,
        src,
        SendDesc {
            dst,
            bytes,
            kind,
            tag,
        },
    )
}

/// Drives a Comm to quiescence, returning (time, upcall) pairs in
/// delivery order.
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
        let s = comm.handle(t, e);
        ups.extend(s.upcalls);
        for (t2, e2) in s.events {
            q.push(t2, e2);
        }
    }
    ups.sort_by_key(|&(t, _)| t);
    ups
}

/// Core of `ni_locks_are_exclusive_and_live`, shared with the promoted
/// regression test below: requests the lock from every distinct NIC up
/// front, releases after each hold, and checks mutual exclusion plus
/// single-grant liveness.
fn check_ni_locks_exclusive_and_live(
    requesters: &[usize],
    hold_us: &[u64],
) -> Result<(), TestCaseError> {
    let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 4, 1);
    let lock = LockId::new(0);
    // Deduplicate requesters so no NIC double-requests.
    let mut reqs: Vec<usize> = Vec::new();
    for &r in requesters {
        if !reqs.contains(&r) {
            reqs.push(r);
        }
    }
    // Everyone requests up front; grants will chain.
    let mut posts = Vec::new();
    for (i, &r) in reqs.iter().enumerate() {
        posts.push(comm.lock_acquire(Time::ZERO, NicId::new(r), lock, Tag::new(i as u64)));
    }
    // Process grants as they arrive; release after a hold time.
    let mut q = EventQueue::new();
    let mut granted: Vec<(Time, usize)> = Vec::new();
    let mut pending: Vec<(Time, Upcall)> = Vec::new();
    for p in posts {
        pending.extend(p.upcalls);
        for (t, e) in p.events {
            q.push(t, e);
        }
    }
    let mut held_until = Time::ZERO;
    loop {
        pending.sort_by_key(|&(t, _)| t);
        // Service any grant upcalls by scheduling the release.
        let mut next_round = Vec::new();
        for (t, u) in pending.drain(..) {
            if let Upcall::LockGranted { nic, tag, .. } = u {
                // Mutual exclusion: the previous holder must have
                // released before this grant fires.
                prop_assert!(
                    t >= held_until,
                    "grant at {t} overlaps hold until {held_until}"
                );
                let hold = genima_sim::Dur::from_us(hold_us[tag.value() as usize % hold_us.len()]);
                held_until = t + hold;
                granted.push((t, nic.index()));
                let rel = comm.lock_release(held_until, nic, lock);
                next_round.extend(rel.upcalls);
                for (t2, e2) in rel.events {
                    q.push(t2.max(q.now()), e2);
                }
            }
        }
        pending = next_round;
        match q.pop() {
            None if pending.is_empty() => break,
            None => continue,
            Some((t, e)) => {
                let s = comm.handle(t, e);
                pending.extend(s.upcalls);
                for (t2, e2) in s.events {
                    q.push(t2, e2);
                }
            }
        }
    }
    // Liveness: every distinct requester was granted exactly once.
    prop_assert_eq!(
        granted.len(),
        reqs.len(),
        "grants {:?} vs requests {:?}",
        granted,
        reqs
    );
    Ok(())
}

/// Regression: the case `requesters = [0, 0], hold_us = [1, 1]`, which
/// the lock property once shrank to, run by name on every `cargo test`.
/// A duplicate requester must be deduplicated into one request and
/// produce exactly one grant — the original failure double-granted the
/// lock to the same NIC.
#[test]
fn regression_duplicate_requester_gets_one_grant() {
    check_ni_locks_exclusive_and_live(&[0, 0], &[1, 1]).expect("promoted seed must stay green");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Deposits between one NIC pair arrive in posting order, whatever
    /// the message size mix — the only ordering guarantee GeNIMA needs.
    #[test]
    fn deposits_deliver_in_order_per_pair(
        sizes in proptest::collection::vec(1u32..4096, 1..40),
        gaps in proptest::collection::vec(0u64..50_000, 1..40),
    ) {
        let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 3, 0);
        let mut posts = Vec::new();
        let mut t = Time::ZERO;
        for (i, (&sz, &gap)) in sizes.iter().zip(gaps.iter().cycle()).enumerate() {
            t += genima_sim::Dur::from_ns(gap);
            let p = send(&mut comm, t, NicId::new(0), NicId::new(1), sz, MsgKind::Deposit, Tag::new(i as u64));
            t = p.host_free;
            posts.push(p);
        }
        let ups = drain(&mut comm, posts);
        let order: Vec<u64> = ups
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::DepositArrived { tag, .. } => Some(tag.value()),
                _ => None,
            })
            .collect();
        prop_assert_eq!(order.len(), sizes.len());
        for w in order.windows(2) {
            prop_assert!(w[0] < w[1], "delivery out of order: {:?}", order);
        }
    }

    /// NI lock grants are mutually exclusive and every requester is
    /// eventually served, for any interleaving of acquires/releases.
    #[test]
    fn ni_locks_are_exclusive_and_live(
        requesters in proptest::collection::vec(0usize..4, 2..12),
        hold_us in proptest::collection::vec(1u64..500, 2..12),
    ) {
        check_ni_locks_exclusive_and_live(&requesters, &hold_us)?;
    }

    /// Mixed host-bound and deposit traffic: every tagged message
    /// surfaces exactly once.
    #[test]
    fn no_message_is_lost_or_duplicated(
        msgs in proptest::collection::vec((0usize..3, 1u32..8192, prop::bool::ANY), 1..60)
    ) {
        let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 4, 0);
        let mut posts = Vec::new();
        let mut t = Time::ZERO;
        for (i, &(dst, sz, host)) in msgs.iter().enumerate() {
            let d = NicId::new(dst + 1); // src is nic0
            let tag = Tag::new(i as u64);
            let p = if host {
                send(&mut comm, t, NicId::new(0), d, sz.min(4096), MsgKind::HostMsg, tag)
            } else {
                send(&mut comm, t, NicId::new(0), d, sz, MsgKind::Deposit, tag)
            };
            t = p.host_free;
            posts.push(p);
        }
        let ups = drain(&mut comm, posts);
        let mut seen = vec![0u32; msgs.len()];
        for (_, u) in &ups {
            match u {
                Upcall::DepositArrived { tag, .. } | Upcall::HostMsgArrived { tag, .. } => {
                    seen[tag.value() as usize] += 1;
                }
                _ => {}
            }
        }
        for (i, &c) in seen.iter().enumerate() {
            prop_assert_eq!(c, 1, "message {} surfaced {} times", i, c);
        }
    }
}

/// A deterministic (non-proptest) regression: the example from the
/// paper — a small control message posted behind a burst of page-sized
/// deposits is delayed by the shared FIFO (the Water-nsquared effect),
/// while an NI lock request is not.
#[test]
fn control_messages_stick_behind_data_but_ni_locks_do_not() {
    let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 1);
    let mut posts = Vec::new();
    for i in 0..16 {
        posts.push(send(
            &mut comm,
            Time::ZERO,
            NicId::new(0),
            NicId::new(1),
            4096,
            MsgKind::Deposit,
            Tag::new(i),
        ));
    }
    // A host-bound control message behind the burst.
    posts.push(send(
        &mut comm,
        Time::ZERO,
        NicId::new(0),
        NicId::new(1),
        16,
        MsgKind::HostMsg,
        Tag::new(99),
    ));
    let ups = drain(&mut comm, posts);
    let ctrl_at = ups
        .iter()
        .find_map(|(t, u)| match u {
            Upcall::HostMsgArrived { tag, .. } if tag.value() == 99 => Some(*t),
            _ => None,
        })
        .expect("control message must arrive");

    // Now the same burst, but the control path is an NI lock.
    let mut comm2 = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 1);
    let mut posts2 = Vec::new();
    for i in 0..16 {
        posts2.push(send(
            &mut comm2,
            Time::ZERO,
            NicId::new(0),
            NicId::new(1),
            4096,
            MsgKind::Deposit,
            Tag::new(i),
        ));
    }
    posts2.push(comm2.lock_acquire(Time::ZERO, NicId::new(1), LockId::new(0), Tag::new(99)));
    let ups2 = drain(&mut comm2, posts2);
    let lock_at = ups2
        .iter()
        .find_map(|(t, u)| match u {
            Upcall::LockGranted { .. } => Some(*t),
            _ => None,
        })
        .expect("lock must be granted");

    assert!(
        lock_at < ctrl_at,
        "NI lock ({lock_at}) must not queue behind data like the host message ({ctrl_at})"
    );
}

/// A 2025 RNIC cluster of a home `H` and two requesters `A`, `B`.
fn rnic_trio() -> (Comm, [NicId; 3]) {
    let hw = HwProfile::rnic_2025();
    let comm = Comm::with_model(hw.model(3), hw.nic, hw.net, 3, 0);
    (comm, [0, 1, 2].map(NicId::new))
}

/// The on-demand-paging fault, by the profile's timing.
fn odp_fault() -> Dur {
    match HwProfile::rnic_2025().board {
        Board::Rnic(rnic) => rnic.odp_fault,
        Board::Lanai(_) => panic!("the 2025 profile carries an RNIC"),
    }
}

/// When the upcall `pick` selects surfaced.
fn when(ups: &[(Time, Upcall)], pick: impl Fn(&Upcall) -> bool) -> Time {
    let mut hits = ups.iter().filter(|(_, u)| pick(u));
    let (t, _) = *hits.next().expect("the upcall surfaced");
    assert!(hits.next().is_none(), "the upcall surfaced once");
    t
}

/// An ODP fault parks one queue pair: a deposit A posts right behind
/// its faulting fetch waits for the page's mapping (RC order on the
/// A → H channel), while B's deposit to the same NIC does not.
#[test]
fn an_odp_fault_parks_its_channel_not_the_nic() {
    let (mut comm, [h, a, b]) = rnic_trio();
    let fetch = comm.fetch(Time::ZERO, a, h, 4096, 7, Tag::new(1));
    let behind = send(
        &mut comm,
        fetch.host_free,
        a,
        h,
        64,
        MsgKind::Deposit,
        Tag::new(2),
    );
    let other = send(
        &mut comm,
        Time::ZERO,
        b,
        h,
        64,
        MsgKind::Deposit,
        Tag::new(3),
    );
    let ups = drain(&mut comm, vec![fetch, behind, other]);
    let deposit = |want: u64| move |u: &Upcall| matches!(u, Upcall::DepositArrived { tag, .. } if tag.value() == want);
    let fetched = when(&ups, |u| matches!(u, Upcall::FetchCompleted { .. }));
    let (behind_at, other_at) = (when(&ups, deposit(2)), when(&ups, deposit(3)));
    assert!(
        fetched > Time::ZERO + odp_fault(),
        "the fetch pays its fault"
    );
    assert!(
        behind_at > Time::ZERO + odp_fault(),
        "A's deposit lands after the mapping"
    );
    assert!(
        other_at < Time::ZERO + Dur::from_us(5),
        "B's deposit waited until {other_at}"
    );
    assert_eq!(comm.ni_stats().odp_faults, 1);
    // The parked deposit's Dest stage runs from its first arrival.
    let dest = comm.monitor().stats(Stage::Dest, SizeClass::Small).actual;
    assert!(dest.max() > odp_fault().saturating_sub(Dur::from_us(5)));
}

/// The fault stays named: the faulting fetch's `FetchService` span runs
/// from its first service start to its reply, so it contains the
/// `OdpFault` instant and critical-path analysis charges the fault to
/// firmware.
#[test]
fn the_faulting_fetch_span_contains_its_odp_fault() {
    let (mut comm, [h, a, _]) = rnic_trio();
    let obs = Rc::new(RefCell::new(Recorder::new(3, 1024)));
    comm.set_observer(obs.clone());
    let fetch = comm.fetch(Time::ZERO, a, h, 4096, 7, Tag::new(1));
    drain(&mut comm, vec![fetch]);
    let report = obs.borrow_mut().take();
    let [fault] = report.of_kind(SpanKind::OdpFault).collect::<Vec<_>>()[..] else {
        panic!("one fault instant");
    };
    let [svc] = report.of_kind(SpanKind::FetchService).collect::<Vec<_>>()[..] else {
        panic!("one fetch service span");
    };
    assert_eq!((fault.node, svc.node), (h.index(), h.index()));
    assert!(svc.start <= fault.start && fault.start <= svc.start + svc.dur);
    assert!(svc.dur >= odp_fault(), "span {} misses the fault", svc.dur);
}
