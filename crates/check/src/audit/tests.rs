//! Auditor unit tests: one hand-built stream per invariant, flagged
//! and clean.

use super::*;
use genima_nic::NicId;

fn ts(pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
    pairs.to_vec()
}

#[test]
fn covered_install_is_clean() {
    let ev = [TraceEvent::PageInstalled {
        at: Time::from_ns(10),
        node: 0,
        page: PageId::new(3),
        ts: ts(&[(1, 5)]),
        required: ts(&[(1, 4)]),
    }];
    assert!(audit_traces(FeatureSet::genima(), 2, &ev).is_clean());
}

#[test]
fn stale_install_is_flagged() {
    let ev = [TraceEvent::PageInstalled {
        at: Time::from_ns(10),
        node: 1,
        page: PageId::new(3),
        ts: ts(&[(1, 2)]),
        required: ts(&[(1, 4)]),
    }];
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    assert_eq!(audit.violations.len(), 1);
    assert!(matches!(
        audit.violations[0],
        Violation::StaleInstall {
            writer: 1,
            have: 2,
            need: 4,
            ..
        }
    ));
}

#[test]
fn one_walk_of_both_versions_finds_the_first_uncovered_writer() {
    let have = [(0, 3), (2, 1), (5, 4)];
    assert_eq!(first_uncovered(&have, &[(2, 1), (5, 4)]), None);
    assert_eq!(first_uncovered(&have, &[(1, 1), (5, 9)]), Some((1, 0, 1)));
    assert_eq!(first_uncovered(&have, &[(0, 3), (5, 5)]), Some((5, 4, 5)));
    assert_eq!(first_uncovered(&have, &[(7, 1)]), Some((7, 0, 1)));
    assert_eq!(first_uncovered(&[], &[]), None);
}

#[test]
fn stale_fault_completion_is_flagged() {
    let ev = [TraceEvent::FaultDone {
        at: Time::from_ns(20),
        proc: 2,
        page: PageId::new(7),
        ts: Vec::new(),
        required: ts(&[(0, 1)]),
    }];
    let audit = audit_traces(FeatureSet::base(), 2, &ev);
    assert!(matches!(
        audit.violations[0],
        Violation::StaleFault { proc: 2, .. }
    ));
}

#[test]
fn diff_regression_is_flagged_but_repeats_are_not() {
    let page = PageId::new(1);
    let d = |at, interval| TraceEvent::DiffApplied {
        at: Time::from_ns(at),
        page,
        writer: 0,
        interval,
    };
    // 1, 2, 2 (early-flush repeat) is fine; then 1 regresses.
    let ev = [d(1, 1), d(2, 2), d(3, 2), d(4, 1)];
    let audit = audit_traces(FeatureSet::base(), 2, &ev);
    assert_eq!(audit.violations.len(), 1);
    assert!(matches!(
        audit.violations[0],
        Violation::DiffOrderRegression {
            prev: 2,
            got: 1,
            ..
        }
    ));
}

#[test]
fn missing_notices_are_flagged() {
    let ev = [TraceEvent::SyncDone {
        at: Time::from_ns(5),
        proc: 0,
        vc: vec![0, 3],
        arrived: vec![0, 2],
    }];
    let audit = audit_traces(FeatureSet::base(), 1, &ev);
    assert!(matches!(
        audit.violations[0],
        Violation::MissingNotices {
            writer: 1,
            have: 2,
            need: 3,
            ..
        }
    ));
}

#[test]
fn own_intervals_need_no_notices() {
    let ev = [TraceEvent::SyncDone {
        at: Time::from_ns(5),
        proc: 0,
        vc: vec![9, 0],
        arrived: vec![0, 0],
    }];
    assert!(audit_traces(FeatureSet::base(), 1, &ev).is_clean());
}

#[test]
fn interrupts_flagged_only_when_interrupt_free() {
    let ev = [TraceEvent::Interrupt {
        at: Time::from_ns(1),
        node: 0,
    }];
    assert!(audit_traces(FeatureSet::base(), 2, &ev).is_clean());
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    assert!(matches!(
        audit.violations[0],
        Violation::UnexpectedInterrupt { node: 0, .. }
    ));
}

fn arrive(at: u64, node: usize, epoch: u32) -> TraceEvent {
    TraceEvent::CollArrived {
        at: Time::from_ns(at),
        node,
        barrier: 0,
        epoch,
    }
}

fn release(at: u64, node: usize, epoch: u32) -> TraceEvent {
    TraceEvent::CollReleased {
        at: Time::from_ns(at),
        node,
        barrier: 0,
        epoch,
    }
}

#[test]
fn full_barrier_epoch_is_clean() {
    let ev = [
        arrive(1, 0, 0),
        arrive(2, 1, 0),
        arrive(3, 2, 0),
        release(4, 0, 0),
        release(5, 1, 0),
        release(6, 2, 0),
        // Next epoch of the same barrier starts over.
        arrive(7, 2, 1),
        arrive(8, 0, 1),
        arrive(9, 1, 1),
        release(10, 0, 1),
        release(11, 1, 1),
        release(12, 2, 1),
    ];
    assert!(audit_traces(FeatureSet::genima(), 3, &ev).is_clean());
}

#[test]
fn early_barrier_exit_is_flagged() {
    // Node 1 never arrives, yet node 0 is released.
    let ev = [arrive(1, 0, 0), release(2, 0, 0)];
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    assert_eq!(audit.violations.len(), 1);
    assert!(matches!(
        audit.violations[0],
        Violation::EarlyBarrierExit {
            node: 0,
            epoch: 0,
            have: 1,
            need: 2,
            ..
        }
    ));
}

#[test]
fn duplicate_barrier_exit_is_flagged() {
    let ev = [
        arrive(1, 0, 0),
        arrive(2, 1, 0),
        release(3, 0, 0),
        release(4, 0, 0),
    ];
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    assert_eq!(audit.violations.len(), 1);
    assert!(matches!(
        audit.violations[0],
        Violation::DuplicateBarrierExit { node: 0, .. }
    ));
}

fn acquired(at: u64, nic: usize, lock: usize) -> TraceEvent {
    TraceEvent::LockAcquired {
        at: Time::from_ns(at),
        nic: NicId::new(nic),
        lock: LockId::new(lock),
    }
}

fn released(at: u64, nic: usize, lock: usize) -> TraceEvent {
    TraceEvent::LockReleased {
        at: Time::from_ns(at),
        nic: NicId::new(nic),
        lock: LockId::new(lock),
    }
}

/// `proc` finishes an acquire needing no notices.
fn synced(at: u64, proc: usize) -> TraceEvent {
    TraceEvent::SyncDone {
        at: Time::from_ns(at),
        proc,
        vc: vec![0, 0],
        arrived: vec![0, 0],
    }
}

#[test]
fn lock_chain_from_home_is_clean() {
    // Lock 0 homes at nic 0 on a 2-node cluster: the home cedes it,
    // nic 1 gains it, cedes it back, nic 0 regains it; each grant's
    // acquire completes in between.
    let ev = [
        released(10, 0, 0),
        acquired(20, 1, 0),
        synced(21, 1),
        released(30, 1, 0),
        acquired(40, 0, 0),
        synced(41, 0),
    ];
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    assert!(audit.is_clean(), "{audit}");
    assert_eq!((audit.events, audit.lock_events), (6, 4));
}

#[test]
fn double_grant_is_flagged() {
    // Home (nic 0) never ceded, yet nic 1 is granted the lock.
    let ev = [synced(5, 0), acquired(20, 1, 0), synced(21, 1)];
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    assert!(matches!(
        audit.violations[..],
        [Violation::LockDoubleOwner {
            nic: 1,
            owner: 0,
            ..
        }]
    ));
}

#[test]
fn phantom_release_is_flagged() {
    // Lock 1 homes at nic 1 on 2 nodes.
    let ev = [synced(1, 0), released(5, 0, 1), arrive(6, 0, 0)];
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    assert!(matches!(
        audit.violations[..],
        [Violation::LockPhantomRelease {
            nic: 0,
            owner: Some(1),
            ..
        }]
    ));
}

#[test]
fn ownership_replays_in_emission_order_not_time_order() {
    // The grant to nic 1 was emitted before the home ceded the
    // lock, though it carries the later time: in the order the
    // firmware changed the lock, two NICs owned it at once.
    let ev = [acquired(30, 1, 0), released(20, 0, 0)];
    let audit = audit_traces(FeatureSet::genima(), 2, &ev);
    let lock = LockId::new(0);
    assert_eq!(
        audit.violations,
        [
            Violation::LockDoubleOwner {
                at: Time::from_ns(30),
                lock,
                nic: 1,
                owner: 0,
            },
            Violation::LockPhantomRelease {
                at: Time::from_ns(20),
                lock,
                nic: 0,
                owner: Some(1),
            },
        ]
    );
}

#[test]
fn two_wins_of_one_cell_without_a_clear_are_flagged() {
    // Lock 1's atomics cell homes at nic 1 and starts clear, which the
    // stream states as a home release at time zero. nic 0 wins it,
    // then nic 1 wins it with no clear in between.
    let won_twice = [released(0, 1, 1), acquired(10, 0, 1), acquired(20, 1, 1)];
    let audit = audit_traces(FeatureSet::genima_2025(), 2, &won_twice);
    assert_eq!(
        audit.violations,
        [Violation::LockDoubleOwner {
            at: Time::from_ns(20),
            lock: LockId::new(1),
            nic: 1,
            owner: 0,
        }]
    );
    // With nic 0's clear between the wins, one NIC owns it at a time.
    let handed_over = [
        released(0, 1, 1),
        acquired(10, 0, 1),
        released(15, 0, 1),
        acquired(20, 1, 1),
    ];
    let audit = audit_traces(FeatureSet::genima_2025(), 2, &handed_over);
    assert!(audit.is_clean(), "{audit}");
}
