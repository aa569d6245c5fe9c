//! The controlled-scheduler seam: pending-choice enumeration and the
//! [`EventPicker`] trait.
//!
//! The event loop of [`SvmSystem`](crate::SvmSystem) normally delivers
//! events in deterministic `(time, seq)` order. A controlled scheduler
//! instead sees, at every step, the set of *schedulable choices* — one
//! per delivery channel — and decides which fires next. Delivering a
//! choice out of time order corresponds to adversarially delaying the
//! skipped events, which is exactly the freedom a real network and NI
//! firmware have.
//!
//! # Channels
//!
//! The communication layer guarantees FIFO delivery only *within* a
//! channel: packets on one `(src, dst)` wire, completion upcalls of one
//! class at one NIC, and the program order of one process. Events on
//! different channels carry no ordering promise, so a controlled
//! scheduler may permute them freely. [`ChanKey`] names the channels;
//! the head (earliest `(time, seq)` entry) of each channel is
//! schedulable, everything behind a head is not.
//!
//! # Footprints
//!
//! Each [`Choice`] carries the set of protocol-state objects
//! ([`SchedObj`]) its handler may read or write. Two choices on
//! different channels whose footprints are disjoint (per
//! [`SchedObj::conflicts`]) commute — delivering them in either order
//! reaches the same protocol state. Model checkers use this as the
//! dependence relation for dynamic partial-order reduction.

use std::fmt;

use genima_sim::Time;

/// A FIFO delivery channel. Events within one channel must be
/// delivered in `(time, seq)` order; events on different channels may
/// be permuted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChanKey {
    /// Packets in flight from one NIC to another.
    Wire {
        /// Sending NIC index.
        src: usize,
        /// Receiving NIC index.
        dst: usize,
    },
    /// Memory-arrival upcalls (deposits and host messages) at one NIC
    /// from one sender — the NI delivers them in DMA-completion order
    /// per pair.
    Mem {
        /// Receiving NIC index.
        nic: usize,
        /// Originating NIC index.
        src: usize,
    },
    /// Fetch-completion upcalls at one NIC.
    Fetch {
        /// The fetching NIC index.
        nic: usize,
    },
    /// Lock grant/departure upcalls at one NIC.
    Lock {
        /// The NIC index.
        nic: usize,
    },
    /// Collective-completion upcalls at one NIC.
    Coll {
        /// The NIC index.
        nic: usize,
    },
    /// Remote-atomic completion upcalls at one NIC.
    Atomic {
        /// The NIC index.
        nic: usize,
    },
    /// One process's own continuations (resume, fetch retry, spin
    /// retry) — program order.
    Proc {
        /// The process index.
        proc: usize,
    },
    /// One node's protocol-handler job completions.
    Handler {
        /// The node index.
        node: usize,
    },
}

impl fmt::Display for ChanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChanKey::Wire { src, dst } => write!(f, "wire:{src}>{dst}"),
            ChanKey::Mem { nic, src } => write!(f, "mem:{nic}<{src}"),
            ChanKey::Fetch { nic } => write!(f, "fetch:{nic}"),
            ChanKey::Lock { nic } => write!(f, "lock:{nic}"),
            ChanKey::Coll { nic } => write!(f, "coll:{nic}"),
            ChanKey::Atomic { nic } => write!(f, "atom:{nic}"),
            ChanKey::Proc { proc } => write!(f, "proc:{proc}"),
            ChanKey::Handler { node } => write!(f, "hnd:{node}"),
        }
    }
}

/// A protocol-state object a choice's handler may touch. The
/// granularity is deliberately coarse where a handler's exact accesses
/// depend on data (a resuming process may touch anything on its node):
/// over-approximation costs pruning, never soundness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchedObj {
    /// The home-side state of one page.
    Page {
        /// The page index.
        page: usize,
        /// Its home node (for [`SchedObj::Node`] overlap).
        home: usize,
    },
    /// One node's cached copy of one page.
    Copy {
        /// The caching node.
        node: usize,
        /// The page index.
        page: usize,
    },
    /// One lane of a node's write-notice arrival board.
    Arrived {
        /// The node whose board it is.
        node: usize,
        /// The writer lane.
        writer: usize,
    },
    /// One lock's state (protocol clock, ownership chain, per-node
    /// queues).
    Lock {
        /// The lock index.
        lock: usize,
    },
    /// One barrier's manager state.
    Barrier {
        /// The barrier index.
        barrier: usize,
    },
    /// One NI collective instance.
    Coll {
        /// The collective index.
        coll: usize,
    },
    /// One process's runtime state.
    Proc {
        /// The process index.
        proc: usize,
        /// Its node (for [`SchedObj::Node`] overlap).
        node: usize,
    },
    /// A whole node's shared state — the coarse bucket for handlers
    /// whose exact accesses are data-dependent (process execution,
    /// interrupt servicing, arrival-board scans).
    Node {
        /// The node index.
        node: usize,
    },
    /// Every synchronization object at once — the coarse bucket for a
    /// resuming process, which may acquire, release, or arrive at any
    /// lock, barrier, or collective in a single step (one resume runs
    /// the process until it blocks, so its sync accesses cannot be
    /// predicted from the next operation alone).
    Sync,
}

impl SchedObj {
    /// Returns `true` if handlers touching `self` and `other` may not
    /// commute. Equal objects always conflict; the coarse
    /// [`SchedObj::Node`] bucket conflicts with every object living on
    /// that node.
    pub fn conflicts(&self, other: &SchedObj) -> bool {
        if self == other {
            return true;
        }
        match (self, other) {
            (SchedObj::Sync, o) | (o, SchedObj::Sync) => matches!(
                o,
                SchedObj::Sync
                    | SchedObj::Lock { .. }
                    | SchedObj::Barrier { .. }
                    | SchedObj::Coll { .. }
            ),
            (SchedObj::Node { node }, o) | (o, SchedObj::Node { node }) => match o {
                SchedObj::Node { node: n } => node == n,
                SchedObj::Page { home, .. } => node == home,
                SchedObj::Copy { node: n, .. } => node == n,
                SchedObj::Arrived { node: n, .. } => node == n,
                SchedObj::Proc { node: n, .. } => node == n,
                SchedObj::Lock { .. }
                | SchedObj::Barrier { .. }
                | SchedObj::Coll { .. }
                | SchedObj::Sync => false,
            },
            // Distinct leaf objects never conflict. Listing the leaf
            // variants (instead of a wildcard) makes adding a new
            // SchedObj a compile error here, forcing a conflict-rule
            // decision instead of a silent "commutes with everything".
            (
                SchedObj::Page { .. }
                | SchedObj::Copy { .. }
                | SchedObj::Arrived { .. }
                | SchedObj::Lock { .. }
                | SchedObj::Barrier { .. }
                | SchedObj::Coll { .. }
                | SchedObj::Proc { .. },
                _,
            ) => false,
        }
    }
}

/// One schedulable event: the head of one delivery channel.
#[derive(Clone, Debug)]
pub struct Choice {
    /// The channel this event heads.
    pub key: ChanKey,
    /// The time the event was scheduled for (delivery may be later if
    /// the scheduler has already advanced past it).
    pub time: Time,
    /// The queue sequence number (stable identity within one run).
    pub seq: u64,
    /// Human-readable description of the event.
    pub label: String,
    /// State objects the handler may touch; see [`SchedObj`].
    pub footprint: Vec<SchedObj>,
}

impl Choice {
    /// Returns `true` if this choice and `other` are *dependent*:
    /// same channel, or overlapping footprints. Independent choices
    /// commute.
    pub fn dependent(&self, other: &Choice) -> bool {
        self.key == other.key
            || self
                .footprint
                .iter()
                .any(|a| other.footprint.iter().any(|b| a.conflicts(b)))
    }
}

/// A controlled scheduler: picks which pending choice fires next.
///
/// [`SvmSystem::try_run_with_picker`](crate::SvmSystem::try_run_with_picker)
/// calls [`EventPicker::pick`] once per delivered event with the
/// current choice set (sorted by `(time, seq)`, never empty). The
/// default [`FifoPicker`] always picks index 0, which reproduces the
/// normal deterministic run exactly.
pub trait EventPicker {
    /// Picks the index (into `choices`) of the event to deliver next,
    /// or `None` to halt the run (surfaced as
    /// [`ProtoError::Halted`](crate::ProtoError::Halted)).
    ///
    /// `step` counts delivered events from zero; `next_seq` is the
    /// queue's allocation watermark *before* this step, so events with
    /// a sequence number at or above the previous step's watermark
    /// were created by the previous step.
    fn pick(&mut self, step: u64, next_seq: u64, choices: &[Choice]) -> Option<usize>;
}

/// The identity scheduler: always delivers the earliest `(time, seq)`
/// event, reproducing [`SvmSystem::try_run`](crate::SvmSystem::try_run)
/// bit-for-bit.
#[derive(Debug, Default)]
pub struct FifoPicker;

impl EventPicker for FifoPicker {
    fn pick(&mut self, _step: u64, _next_seq: u64, _choices: &[Choice]) -> Option<usize> {
        Some(0)
    }
}

/// A deliberately seeded protocol bug, used to validate that the model
/// checker's oracles actually catch real LRC violations. See
/// [`SvmSystem::set_mutation`](crate::SvmSystem::set_mutation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The acquire/barrier completion path assumes write notices can
    /// never be reordered behind the synchronization operation that
    /// covers them, and skips the arrival-watermark guard. Benign in
    /// FIFO delivery order; an adversarial schedule that delays a
    /// notice deposit behind the NI lock grant makes the acquirer
    /// resume with stale visibility — the auditor's `MissingNotices`
    /// invariant.
    ReorderWriteNotice,
}

impl Mutation {
    /// The name reports record for this mutation.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::ReorderWriteNotice => "reorder-write-notice",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_bucket_overlaps_colocated_objects() {
        let n0 = SchedObj::Node { node: 0 };
        assert!(n0.conflicts(&SchedObj::Copy { node: 0, page: 3 }));
        assert!(n0.conflicts(&SchedObj::Arrived { node: 0, writer: 1 }));
        assert!(n0.conflicts(&SchedObj::Proc { proc: 1, node: 0 }));
        assert!(n0.conflicts(&SchedObj::Page { page: 5, home: 0 }));
        assert!(!n0.conflicts(&SchedObj::Copy { node: 1, page: 3 }));
        assert!(!n0.conflicts(&SchedObj::Lock { lock: 0 }));
        assert!(!n0.conflicts(&SchedObj::Node { node: 1 }));
    }

    #[test]
    fn dependence_is_symmetric_on_samples() {
        let mk = |key, fp: Vec<SchedObj>| Choice {
            key,
            time: Time::ZERO,
            seq: 0,
            label: String::new(),
            footprint: fp,
        };
        let a = mk(
            ChanKey::Mem { nic: 1, src: 0 },
            vec![SchedObj::Arrived { node: 1, writer: 0 }],
        );
        let b = mk(
            ChanKey::Proc { proc: 2 },
            vec![
                SchedObj::Proc { proc: 2, node: 1 },
                SchedObj::Node { node: 1 },
            ],
        );
        let c = mk(ChanKey::Wire { src: 0, dst: 1 }, vec![]);
        assert!(a.dependent(&b) && b.dependent(&a));
        assert!(!a.dependent(&c) && !c.dependent(&a));
        // Same channel is always dependent, footprints or not.
        assert!(c.dependent(&c));
    }
}
