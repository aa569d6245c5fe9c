//! Protocol-invariant auditing over recorded traces.
//!
//! [`audit_traces`] replays the structured event trace produced by
//! `SvmSystem::set_tracing` and the NI lock-ownership trace produced by
//! the firmware, and checks the paper's correctness invariants:
//!
//! 1. **Timestamp coverage** — a fetched page installed into a node's
//!    cache, and the copy a faulting process resumes on, must carry a
//!    version covering the process's vector-clock requirement
//!    ([`Violation::StaleInstall`], [`Violation::StaleFault`]).
//! 2. **Notices before access** — when an acquire or barrier completes,
//!    interval records for every interval the new clock covers must
//!    already be present at the node ([`Violation::MissingNotices`]).
//! 3. **Diff ordering** — diffs apply to a home page in per-writer
//!    interval order ([`Violation::DiffOrderRegression`]).
//! 4. **Single lock owner** — replaying the firmware grant/transfer
//!    chain from the lock's home, at most one NIC owns a lock at any
//!    instant ([`Violation::LockDoubleOwner`],
//!    [`Violation::LockPhantomRelease`]).
//! 5. **Zero interrupts** — an interrupt-free configuration (full
//!    GeNIMA) must record no host interrupt at all
//!    ([`Violation::UnexpectedInterrupt`]).
//! 6. **Barrier epochs** — under NI-tree barriers, no node may exit
//!    epoch `e` of a barrier before every node's arrival for `e` has
//!    been combined, and no node exits the same epoch twice
//!    ([`Violation::EarlyBarrierExit`],
//!    [`Violation::DuplicateBarrierExit`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use genima_proto::{FeatureSet, LockChange, LockId, LockTrace, PageId, ProcId, TraceEvent};
use genima_sim::Time;

/// One invariant violation found while replaying a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A page copy was installed whose timestamp does not cover the
    /// joined requirement of the processes waiting on the fetch.
    StaleInstall {
        /// Installation time.
        at: Time,
        /// The caching node.
        node: usize,
        /// The page installed.
        page: PageId,
        /// The first writer whose intervals are missing.
        writer: u32,
        /// Interval the installed copy carries for that writer.
        have: u32,
        /// Interval the waiters require.
        need: u32,
    },
    /// A process resumed from a page fault on a copy older than its
    /// vector clock obliges it to see.
    StaleFault {
        /// Fault completion time.
        at: Time,
        /// The faulting process.
        proc: usize,
        /// The page faulted on.
        page: PageId,
        /// The first writer whose intervals are missing.
        writer: u32,
        /// Interval the visible copy carries for that writer.
        have: u32,
        /// Interval the process requires.
        need: u32,
    },
    /// An acquire or barrier completed before the write notices for
    /// every covered interval had arrived at the node.
    MissingNotices {
        /// Synchronization completion time.
        at: Time,
        /// The resuming process.
        proc: usize,
        /// The writer whose notices are missing.
        writer: usize,
        /// Interval records present at the node for that writer.
        have: u32,
        /// Intervals the process's clock covers.
        need: u32,
    },
    /// A diff applied to a home page out of per-writer interval order.
    DiffOrderRegression {
        /// Application time of the regressing diff.
        at: Time,
        /// The home page.
        page: PageId,
        /// The writing process.
        writer: usize,
        /// Highest interval previously applied for that writer.
        prev: u32,
        /// The regressing interval.
        got: u32,
    },
    /// A NIC was granted a lock while the replayed chain says another
    /// NIC (or the same one) already owned it.
    LockDoubleOwner {
        /// Grant time.
        at: Time,
        /// The lock concerned.
        lock: LockId,
        /// The NIC that was granted ownership.
        nic: usize,
        /// The NIC the replay says still owns the lock.
        owner: usize,
    },
    /// A NIC ceded a lock the replayed chain says it did not own.
    LockPhantomRelease {
        /// Release time.
        at: Time,
        /// The lock concerned.
        lock: LockId,
        /// The NIC that ceded ownership.
        nic: usize,
        /// The NIC the replay says owns the lock, if any.
        owner: Option<usize>,
    },
    /// A host interrupt fired under an interrupt-free configuration.
    UnexpectedInterrupt {
        /// Interrupt delivery time.
        at: Time,
        /// The interrupted node.
        node: usize,
    },
    /// A node was released from a barrier epoch before every node's
    /// arrival for that epoch had been combined by the NI tree.
    EarlyBarrierExit {
        /// Release time at the node.
        at: Time,
        /// The prematurely released node.
        node: usize,
        /// The barrier concerned.
        barrier: usize,
        /// The epoch exited.
        epoch: u32,
        /// Distinct nodes whose arrivals were combined by then.
        have: usize,
        /// Arrivals a release requires (the node count).
        need: usize,
    },
    /// A node was released from the same barrier epoch twice.
    DuplicateBarrierExit {
        /// Time of the second release.
        at: Time,
        /// The doubly released node.
        node: usize,
        /// The barrier concerned.
        barrier: usize,
        /// The epoch exited twice.
        epoch: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::StaleInstall {
                at,
                node,
                page,
                writer,
                have,
                need,
            } => write!(
                f,
                "[{at}] stale install of {page:?} at node {node}: \
                 writer {writer} at interval {have}, waiters need {need}"
            ),
            Violation::StaleFault {
                at,
                proc,
                page,
                writer,
                have,
                need,
            } => write!(
                f,
                "[{at}] p{proc} resumed on stale {page:?}: \
                 writer {writer} at interval {have}, clock requires {need}"
            ),
            Violation::MissingNotices {
                at,
                proc,
                writer,
                have,
                need,
            } => write!(
                f,
                "[{at}] p{proc} finished an acquire with only {have} of \
                 writer {writer}'s {need} covered intervals present"
            ),
            Violation::DiffOrderRegression {
                at,
                page,
                writer,
                prev,
                got,
            } => write!(
                f,
                "[{at}] diff order regression on {page:?}: writer {writer} \
                 applied interval {got} after {prev}"
            ),
            Violation::LockDoubleOwner {
                at,
                lock,
                nic,
                owner,
            } => write!(
                f,
                "[{at}] {lock} granted to nic{nic} while nic{owner} owns it"
            ),
            Violation::LockPhantomRelease {
                at,
                lock,
                nic,
                owner,
            } => write!(
                f,
                "[{at}] nic{nic} ceded {lock} it does not own (owner: {owner:?})"
            ),
            Violation::UnexpectedInterrupt { at, node } => write!(
                f,
                "[{at}] host interrupt on node {node} under an \
                 interrupt-free configuration"
            ),
            Violation::EarlyBarrierExit {
                at,
                node,
                barrier,
                epoch,
                have,
                need,
            } => write!(
                f,
                "[{at}] node {node} exited epoch {epoch} of barrier{barrier} \
                 with only {have} of {need} arrivals combined"
            ),
            Violation::DuplicateBarrierExit {
                at,
                node,
                barrier,
                epoch,
            } => write!(
                f,
                "[{at}] node {node} exited epoch {epoch} of barrier{barrier} twice"
            ),
        }
    }
}

/// The result of auditing one run's traces.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    /// Protocol events examined.
    pub proto_events: usize,
    /// NI lock-ownership events examined.
    pub lock_events: usize,
    /// Every invariant violation found, in replay order.
    pub violations: Vec<Violation>,
}

impl Audit {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Audit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "audit clean over {} protocol and {} lock events",
                self.proto_events, self.lock_events
            )
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Returns the first `(writer, have, need)` for which `ts` fails to
/// cover `required`, or `None` when covered. Both are `(writer,
/// interval)` pairs ascending by writer, walked together once; an
/// absent writer reads as interval 0.
fn first_uncovered(ts: &[(u32, u32)], required: &[(u32, u32)]) -> Option<(u32, u32, u32)> {
    let mut have = ts.iter().peekable();
    required.iter().find_map(|&(writer, need)| {
        while have.next_if(|&&(w, _)| w < writer).is_some() {}
        let got = have.peek().filter(|p| p.0 == writer).map_or(0, |p| p.1);
        (got < need).then_some((writer, got, need))
    })
}

/// Replays the protocol and lock traces of one run and checks every
/// invariant described at module level.
///
/// `features` selects the invariants that apply (the zero-interrupt
/// check only binds interrupt-free configurations); `nnodes` is needed
/// to seed the lock replay with each lock's home NIC (locks are
/// assigned round-robin, `lock.index() % nnodes`, and a lock's home
/// owns it until the first remote grant).
pub fn audit_traces(
    features: FeatureSet,
    nnodes: usize,
    proto: &[TraceEvent],
    locks: &[LockTrace],
) -> Audit {
    let mut audit = Audit {
        proto_events: proto.len(),
        lock_events: locks.len(),
        violations: Vec::new(),
    };

    // Replay in emission order, NOT timestamp order: protocol state
    // mutates in execution order, while an event's `at` can be a
    // process's lookahead cursor (a local-home flush stamps the
    // flushing process's clock), so timestamps are not monotonic
    // across processes. Emission order is the order the home copy
    // actually changed in.
    //
    // Highest interval applied so far, per (home page, writer).
    let mut applied: BTreeMap<(PageId, usize), u32> = BTreeMap::new();
    // NI-tree barriers: nodes whose arrival was combined, per
    // (barrier, epoch), and nodes already released from that epoch.
    let mut coll_arrived: BTreeMap<(usize, u32), BTreeSet<usize>> = BTreeMap::new();
    let mut coll_released: BTreeSet<(usize, u32, usize)> = BTreeSet::new();

    for ev in proto {
        match ev {
            TraceEvent::Interrupt { at, node } => {
                if features.interrupt_free() {
                    audit.violations.push(Violation::UnexpectedInterrupt {
                        at: *at,
                        node: *node,
                    });
                }
            }
            TraceEvent::PageInstalled {
                at,
                node,
                page,
                ts,
                required,
            } => {
                if let Some((writer, have, need)) = first_uncovered(ts, required) {
                    audit.violations.push(Violation::StaleInstall {
                        at: *at,
                        node: *node,
                        page: *page,
                        writer,
                        have,
                        need,
                    });
                }
            }
            TraceEvent::FaultDone {
                at,
                proc,
                page,
                ts,
                required,
            } => {
                if let Some((writer, have, need)) = first_uncovered(ts, required) {
                    audit.violations.push(Violation::StaleFault {
                        at: *at,
                        proc: *proc,
                        page: *page,
                        writer,
                        have,
                        need,
                    });
                }
            }
            TraceEvent::DiffApplied {
                at,
                page,
                writer,
                interval,
            } => {
                let prev = applied.entry((*page, *writer)).or_insert(0);
                // Re-applying an interval number is harmless; only a
                // strict regression breaks the invariant.
                if *interval < *prev {
                    audit.violations.push(Violation::DiffOrderRegression {
                        at: *at,
                        page: *page,
                        writer: *writer,
                        prev: *prev,
                        got: *interval,
                    });
                } else {
                    *prev = *interval;
                }
            }
            TraceEvent::CollArrived {
                node,
                barrier,
                epoch,
                ..
            } => {
                coll_arrived
                    .entry((*barrier, *epoch))
                    .or_default()
                    .insert(*node);
            }
            TraceEvent::CollReleased {
                at,
                node,
                barrier,
                epoch,
            } => {
                let have = coll_arrived
                    .get(&(*barrier, *epoch))
                    .map(|s| s.len())
                    .unwrap_or(0);
                if have < nnodes {
                    audit.violations.push(Violation::EarlyBarrierExit {
                        at: *at,
                        node: *node,
                        barrier: *barrier,
                        epoch: *epoch,
                        have,
                        need: nnodes,
                    });
                }
                if !coll_released.insert((*barrier, *epoch, *node)) {
                    audit.violations.push(Violation::DuplicateBarrierExit {
                        at: *at,
                        node: *node,
                        barrier: *barrier,
                        epoch: *epoch,
                    });
                }
            }
            TraceEvent::SyncDone {
                at,
                proc,
                vc,
                arrived,
            } => {
                for q in 0..vc.len() {
                    let need = vc.get(ProcId::new(q));
                    let have = arrived.get(q).copied().unwrap_or(0);
                    // A process's own intervals need no notices.
                    if q != *proc && have < need {
                        audit.violations.push(Violation::MissingNotices {
                            at: *at,
                            proc: *proc,
                            writer: q,
                            have,
                            need,
                        });
                    }
                }
            }
        }
    }

    audit_locks(nnodes, locks, &mut audit);
    audit
}

/// Replays the NI lock-ownership chain: per lock, exactly one owner at
/// a time, starting from the lock's home NIC.
fn audit_locks(nnodes: usize, locks: &[LockTrace], audit: &mut Audit) {
    let mut sorted: Vec<&LockTrace> = locks.iter().collect();
    sorted.sort_by_key(|t| t.at);

    // Current owner per lock; a lock's home owns it from reset.
    let mut owner: BTreeMap<LockId, Option<usize>> = BTreeMap::new();

    for t in sorted {
        let nic = t.nic.index();
        let slot = owner
            .entry(t.lock)
            .or_insert_with(|| Some(t.lock.index() % nnodes));
        match t.change {
            LockChange::Acquired => match *slot {
                Some(cur) if cur != nic => {
                    audit.violations.push(Violation::LockDoubleOwner {
                        at: t.at,
                        lock: t.lock,
                        nic,
                        owner: cur,
                    });
                    *slot = Some(nic);
                }
                Some(_) | None => *slot = Some(nic),
            },
            LockChange::Released => {
                if *slot != Some(nic) {
                    audit.violations.push(Violation::LockPhantomRelease {
                        at: t.at,
                        lock: t.lock,
                        nic,
                        owner: *slot,
                    });
                }
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
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
        assert!(audit_traces(FeatureSet::genima(), 2, &ev, &[]).is_clean());
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
        let audit = audit_traces(FeatureSet::genima(), 2, &ev, &[]);
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
        let audit = audit_traces(FeatureSet::base(), 2, &ev, &[]);
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
        let audit = audit_traces(FeatureSet::base(), 2, &ev, &[]);
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
        let mut vc = genima_proto::VClock::new(2);
        vc.set(ProcId::new(1), 3);
        let ev = [TraceEvent::SyncDone {
            at: Time::from_ns(5),
            proc: 0,
            vc,
            arrived: vec![0, 2],
        }];
        let audit = audit_traces(FeatureSet::base(), 1, &ev, &[]);
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
        let mut vc = genima_proto::VClock::new(2);
        vc.set(ProcId::new(0), 9);
        let ev = [TraceEvent::SyncDone {
            at: Time::from_ns(5),
            proc: 0,
            vc,
            arrived: vec![0, 0],
        }];
        assert!(audit_traces(FeatureSet::base(), 1, &ev, &[]).is_clean());
    }

    #[test]
    fn interrupts_flagged_only_when_interrupt_free() {
        let ev = [TraceEvent::Interrupt {
            at: Time::from_ns(1),
            node: 0,
        }];
        assert!(audit_traces(FeatureSet::base(), 2, &ev, &[]).is_clean());
        let audit = audit_traces(FeatureSet::genima(), 2, &ev, &[]);
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
        assert!(audit_traces(FeatureSet::genima(), 3, &ev, &[]).is_clean());
    }

    #[test]
    fn early_barrier_exit_is_flagged() {
        // Node 1 never arrives, yet node 0 is released.
        let ev = [arrive(1, 0, 0), release(2, 0, 0)];
        let audit = audit_traces(FeatureSet::genima(), 2, &ev, &[]);
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
        let audit = audit_traces(FeatureSet::genima(), 2, &ev, &[]);
        assert_eq!(audit.violations.len(), 1);
        assert!(matches!(
            audit.violations[0],
            Violation::DuplicateBarrierExit { node: 0, .. }
        ));
    }

    #[test]
    fn lock_chain_from_home_is_clean() {
        // Lock 0 homes at nic 0 on a 2-node cluster: the home cedes it,
        // nic 1 gains it, cedes it back, nic 0 regains it.
        let l = LockId::new(0);
        let t = |at, nic, change| LockTrace {
            at: Time::from_ns(at),
            nic: NicId::new(nic),
            lock: l,
            change,
        };
        let trace = [
            t(10, 0, LockChange::Released),
            t(20, 1, LockChange::Acquired),
            t(30, 1, LockChange::Released),
            t(40, 0, LockChange::Acquired),
        ];
        assert!(audit_traces(FeatureSet::genima(), 2, &[], &trace).is_clean());
    }

    #[test]
    fn double_grant_is_flagged() {
        let l = LockId::new(0);
        let t = |at, nic, change| LockTrace {
            at: Time::from_ns(at),
            nic: NicId::new(nic),
            lock: l,
            change,
        };
        // Home (nic 0) never ceded, yet nic 1 is granted the lock.
        let trace = [t(20, 1, LockChange::Acquired)];
        let audit = audit_traces(FeatureSet::genima(), 2, &[], &trace);
        assert!(matches!(
            audit.violations[0],
            Violation::LockDoubleOwner {
                nic: 1,
                owner: 0,
                ..
            }
        ));
    }

    #[test]
    fn phantom_release_is_flagged() {
        let l = LockId::new(1); // homes at nic 1 on 2 nodes
        let trace = [LockTrace {
            at: Time::from_ns(5),
            nic: NicId::new(0),
            lock: l,
            change: LockChange::Released,
        }];
        let audit = audit_traces(FeatureSet::genima(), 2, &[], &trace);
        assert!(matches!(
            audit.violations[0],
            Violation::LockPhantomRelease {
                nic: 0,
                owner: Some(1),
                ..
            }
        ));
    }
}
