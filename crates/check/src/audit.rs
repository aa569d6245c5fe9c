//! Protocol-invariant auditing over recorded traces.
//!
//! [`audit_traces`] replays the one event stream a traced run records
//! (`SvmSystem::set_tracing`): the protocol's events and every lock
//! primitive's ownership transitions, in emission order. One pass
//! checks the paper's correctness invariants:
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
//! 4. **Single lock owner** — replaying every change of a lock's
//!    owner in the order it happened, at most one NIC owns a lock at a
//!    time ([`Violation::LockDoubleOwner`],
//!    [`Violation::LockPhantomRelease`]). A lock starts owned by its
//!    home. The NI chain (GeNIMA) and the host chain (Base to
//!    DW+RF+DD) record each grant and departure; the atomics cell
//!    (GeNIMA-2025) records each won attempt and releasing clear, and
//!    states its clear start as a home release at time zero.
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

use genima_proto::{FeatureSet, LockId, PageId, TraceEvent};
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

/// The result of auditing one run's trace.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    /// Events examined.
    pub events: usize,
    /// Of those, lock-ownership transitions.
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
                "audit clean over {} events, {} of them lock transitions",
                self.events, self.lock_events
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

/// Replays the trace of one run and checks every invariant described
/// at module level, in one pass.
///
/// `features` selects the invariants that apply (the zero-interrupt
/// check only binds interrupt-free configurations); `nnodes` is needed
/// to seed the lock replay with each lock's home NIC (locks are
/// assigned round-robin, `lock.index() % nnodes`, and a lock's home
/// owns it until the first remote grant).
pub fn audit_traces(features: FeatureSet, nnodes: usize, trace: &[TraceEvent]) -> Audit {
    let mut audit = Audit {
        events: trace.len(),
        ..Audit::default()
    };

    // Replay in emission order, NOT timestamp order: state mutates in
    // execution order, while an event's `at` need not be monotonic. A
    // local-home flush stamps the flushing process's lookahead cursor,
    // and under the model checker's picker the firmware dispatches a
    // lock's messages out of time order. Emission order is the order
    // the home copy and the lock's owner actually changed in.
    //
    // Highest interval applied so far, per (home page, writer).
    let mut applied: BTreeMap<(PageId, usize), u32> = BTreeMap::new();
    // NI-tree barriers: nodes whose arrival was combined, per
    // (barrier, epoch), and nodes already released from that epoch.
    let mut coll_arrived: BTreeMap<(usize, u32), BTreeSet<usize>> = BTreeMap::new();
    let mut coll_released: BTreeSet<(usize, u32, usize)> = BTreeSet::new();
    // Current owner per lock; a lock's home owns it from reset.
    let mut owner: BTreeMap<LockId, Option<usize>> = BTreeMap::new();

    for ev in trace {
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
                for (q, &need) in vc.iter().enumerate() {
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
            TraceEvent::LockAcquired { at, nic, lock } => {
                audit.lock_events += 1;
                let slot = owner.entry(*lock).or_insert(Some(lock.index() % nnodes));
                if let Some(cur) = slot.filter(|&cur| cur != nic.index()) {
                    audit.violations.push(Violation::LockDoubleOwner {
                        at: *at,
                        lock: *lock,
                        nic: nic.index(),
                        owner: cur,
                    });
                }
                *slot = Some(nic.index());
            }
            TraceEvent::LockReleased { at, nic, lock } => {
                audit.lock_events += 1;
                let slot = owner.entry(*lock).or_insert(Some(lock.index() % nnodes));
                if *slot != Some(nic.index()) {
                    audit.violations.push(Violation::LockPhantomRelease {
                        at: *at,
                        lock: *lock,
                        nic: nic.index(),
                        owner: *slot,
                    });
                }
                *slot = None;
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests;
