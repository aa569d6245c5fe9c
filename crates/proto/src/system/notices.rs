//! Write notices as one clock-free machine (DESIGN.md §18): which node
//! holds writer *q*'s interval record *k*, and when. The machine owns
//! every write-notice watermark and the route the run's records take,
//! resolved once per run; each transition returns a decision, and
//! `SvmSystem` carries it out with its timing and costs.

use std::ops::Range;

use super::SvmParams;
use crate::ids::{ProcId, Topology};
use crate::vclock::VClock;

/// How interval records travel between nodes (paper §2 weighs the
/// three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NoticeRoute {
    /// Base: a record rides on the next lock grant or barrier message
    /// that leaves a node holding it for a node it was not yet carried
    /// to.
    Piggyback,
    /// Eager, sender-initiated: a record is deposited at every other
    /// node at its close, one post per node or one post the NI
    /// replicates (paper §5's broadcast).
    Push { replicate: bool },
    /// Paper §2's alternative: nothing moves at the close; an acquire
    /// fetches from the writer's node the records its clock names and
    /// its node lacks.
    Pull,
}

impl NoticeRoute {
    /// The route a run takes. A rung without eager notices piggybacks
    /// whatever `pull_notices` says; pull wins over the NI broadcast;
    /// one node has no one to replicate a post to.
    pub(crate) fn of(p: &SvmParams) -> NoticeRoute {
        if !p.features.eager_notices() {
            NoticeRoute::Piggyback
        } else if p.proto.pull_notices {
            NoticeRoute::Pull
        } else {
            NoticeRoute::Push {
                replicate: p.hw.nic.broadcast && p.topo.nodes > 1,
            }
        }
    }
}

/// `announce`: how a record leaves its writer's node at its close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Announce {
    /// It stays; a message or a fetch carries it later.
    Stay,
    /// Deposited at every other node.
    Post { replicate: bool },
}

/// A synchronisation message between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncMsg {
    /// A host-chain lock grant.
    Grant,
    /// A barrier arrival or release, `deposit_bytes` long as a deposit.
    Barrier { deposit_bytes: u32 },
}

/// `carry`: how a synchronisation message goes, and what rides on it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Carry {
    /// A remote deposit of this many bytes; records travel on their own.
    Deposit(u32),
    /// A host message. `Some` carries the sender's watermarks, handed
    /// back to [`Notices::merge`] where it lands, and the records it
    /// had not carried to that node before.
    Host(Option<Vec<u32>>),
}

/// `stage`: an acquire or a barrier exit against its node's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Every record the clock names is here.
    Covered,
    /// Wait for the records in flight to the node.
    Wait,
    /// Fetch what [`Notices::pull`] names, then wait for it.
    Pull,
}

/// Every write-notice watermark of a run, and its route.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Notices {
    route: NoticeRoute,
    topo: Topology,
    /// Per node, per writer: the highest interval whose record has
    /// reached the node (a writer's own node holds it from its close).
    arrived: Vec<u32>,
    /// [`NoticeRoute::Piggyback`] only (empty otherwise): per sending
    /// node, per receiving node, per writer, the highest interval
    /// already carried there.
    sent: Vec<u32>,
    /// [`NoticeRoute::Pull`] only (empty otherwise): per node, per
    /// writer, the highest interval a fetch has asked for, so one fetch
    /// serves every process of the node that waits for it.
    asked: Vec<u32>,
    /// Watermark vectors [`Notices::merge`] emptied; the next message
    /// to carry one refills it.
    pub(super) spare: Vec<Vec<u32>>,
}

impl Notices {
    pub(crate) fn new(route: NoticeRoute, topo: Topology) -> Notices {
        let (nodes, procs) = (topo.nodes, topo.procs());
        let (sent, asked) = match route {
            NoticeRoute::Piggyback => (nodes * nodes * procs, 0),
            NoticeRoute::Push { .. } => (0, 0),
            NoticeRoute::Pull => (0, nodes * procs),
        };
        Notices {
            route,
            topo,
            arrived: vec![0; nodes * procs],
            sent: vec![0; sent],
            asked: vec![0; asked],
            spare: Vec::new(),
        }
    }

    /// The route the run's records take.
    pub(crate) fn route(&self) -> NoticeRoute {
        self.route
    }

    /// Per writer: the highest interval whose record has reached `node`.
    pub(crate) fn arrived(&self, node: usize) -> &[u32] {
        let procs = self.topo.procs();
        &self.arrived[node * procs..][..procs]
    }

    fn arrived_mut(&mut self, node: usize) -> &mut [u32] {
        let procs = self.topo.procs();
        &mut self.arrived[node * procs..][..procs]
    }

    /// `closed`: `writer` closed `interval`, whose record its own node
    /// holds from now on.
    pub(crate) fn closed(&mut self, writer: usize, interval: u32) {
        let node = self.topo.node_of(ProcId::new(writer)).index();
        self.arrived_mut(node)[writer] = interval;
    }

    /// `announce`: how a record just closed leaves its node.
    pub(crate) fn announce(&self) -> Announce {
        match self.route {
            NoticeRoute::Push { replicate } => Announce::Post { replicate },
            NoticeRoute::Piggyback | NoticeRoute::Pull => Announce::Stay,
        }
    }

    /// `delivered`: `writer`'s records up to `upto` reached `node`, by
    /// a deposit or a completed fetch. Returns whether the node now
    /// holds more than it did.
    pub(crate) fn delivered(&mut self, node: usize, writer: usize, upto: u32) -> bool {
        let a = &mut self.arrived_mut(node)[writer];
        let advanced = *a < upto;
        *a = (*a).max(upto);
        advanced
    }

    /// `carry`: `msg` leaves node `from` for node `to`. Under
    /// [`NoticeRoute::Piggyback`] it carries `from`'s watermarks, and
    /// `ranges` is told each writer's records `from` had not carried to
    /// `to` before, as the interval range `sent..have`.
    pub(crate) fn carry(
        &mut self,
        from: usize,
        to: usize,
        msg: SyncMsg,
        mut ranges: impl FnMut(usize, Range<u32>),
    ) -> Carry {
        match (self.route, msg) {
            (NoticeRoute::Piggyback, _) => {
                let procs = self.topo.procs();
                let mut upto = self.spare.pop().unwrap_or_default();
                upto.extend_from_slice(self.arrived(from));
                let sent = &mut self.sent[(from * self.topo.nodes + to) * procs..][..procs];
                for (q, (&have, sent)) in upto.iter().zip(sent).enumerate() {
                    let was = std::mem::replace(sent, have);
                    if have > was {
                        ranges(q, was..have);
                    }
                }
                Carry::Host(Some(upto))
            }
            (NoticeRoute::Push { .. } | NoticeRoute::Pull, SyncMsg::Barrier { deposit_bytes }) => {
                Carry::Deposit(deposit_bytes)
            }
            (NoticeRoute::Push { .. } | NoticeRoute::Pull, SyncMsg::Grant) => Carry::Host(None),
        }
    }

    /// `merge`: watermarks a message carried reached `node`. Takes the
    /// vector back for reuse. Returns whether the node now holds more
    /// than it did.
    pub(crate) fn merge(&mut self, node: usize, mut upto: Vec<u32>) -> bool {
        let mut advanced = false;
        for (a, u) in self.arrived_mut(node).iter_mut().zip(upto.drain(..)) {
            if *a < u {
                *a = u;
                advanced = true;
            }
        }
        self.spare.push(upto);
        advanced
    }

    /// Whether `node` holds every record `vc` names.
    pub(crate) fn covered(&self, node: usize, vc: &VClock) -> bool {
        (self.arrived(node).iter().zip(vc.lanes())).all(|(have, want)| have >= want)
    }

    /// `stage`: a process on `node` acquired, or left a barrier, with
    /// clock `vc`.
    pub(crate) fn stage(&self, node: usize, vc: &VClock) -> Stage {
        if self.covered(node, vc) {
            return Stage::Covered;
        }
        match self.route {
            NoticeRoute::Pull => Stage::Pull,
            NoticeRoute::Piggyback | NoticeRoute::Push { .. } => Stage::Wait,
        }
    }

    /// `pull`: the records of `writer` up to `want` that `node` must
    /// fetch from the writer's node, or `None` if it holds them or a
    /// fetch in flight asked for them. A fetch asks from what the node
    /// holds, so whichever completes first leaves no gap below it.
    pub(crate) fn pull(&mut self, node: usize, writer: usize, want: u32) -> Option<Range<u32>> {
        let have = self.arrived(node)[writer];
        let asked = &mut self.asked[node * self.topo.procs() + writer];
        if have >= want || *asked >= want {
            return None;
        }
        *asked = want;
        let home = self.topo.node_of(ProcId::new(writer)).index();
        debug_assert_ne!(home, node, "local records are always arrived");
        // The writer's node holds every record the releaser's clock
        // covers (the release happened before this acquire).
        debug_assert!(self.arrived(home)[writer] >= want);
        Some(have..want)
    }
}

#[cfg(test)]
mod tests;
