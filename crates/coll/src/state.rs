//! The collective state machine the NI firmware executes.
//!
//! [`CollState`] is a *pure* executable model: it holds the per-node
//! firmware tables (epoch counters, partial combine accumulators, the
//! frozen contribution each child exposes to its parent) and reacts to
//! the three things that can happen to a collective — a local process
//! set arriving, a child's fan-in message arriving, a release message
//! arriving — by returning the [`Action`]s the firmware must take.
//! The communication layer (`genima-nic`) maps actions onto its
//! send/receive pipeline and charges time; this module charges none,
//! which is what makes it directly testable under proptest with
//! arbitrary delivery orders.
//!
//! Reduce payloads live in these tables, not in packets: exactly as
//! the NI lock chain keeps the lock timestamp in firmware memory and
//! sends fixed-size control messages, a fan-in packet is a signal that
//! the child's frozen contribution (already combined over its whole
//! subtree) is ready for the parent to pull over the tree edge.
//! Exactly-once delivery of those signals is the transport's job
//! (per-channel sequence numbers, retransmit timers, duplicate
//! suppression), so the machine asserts it rather than re-checking.

use crate::tree::{children, parent};
use crate::ReduceOp;

/// What the firmware must do after feeding an input to [`CollState`].
///
/// Actions are plain `Copy` signals: the reduce payload stays in the
/// firmware tables (read it with [`CollState::result`] during the
/// exit window), so emitting an action allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send a fan-in signal: `from`'s subtree is fully combined for
    /// `epoch` and its contribution is frozen for `to` (its parent).
    SendArrive {
        /// The combined child.
        from: u32,
        /// Its tree parent.
        to: u32,
        /// The collective episode.
        epoch: u32,
    },
    /// Send a fan-out signal: the root combine of `epoch` is done and
    /// `to` (a child of `from`) may exit once it propagates further.
    SendRelease {
        /// The releasing parent.
        from: u32,
        /// The released child.
        to: u32,
        /// The collective episode.
        epoch: u32,
    },
    /// `node` exits `epoch` with the fully combined result — surface
    /// it to the host through a completion flag in NI memory. The
    /// combined values sit in the instance's result slot
    /// ([`CollState::result`]), valid for the whole exit window.
    Exit {
        /// The exiting node.
        node: u32,
        /// The collective episode.
        epoch: u32,
    },
}

/// One epoch's combine at one node: how many of `1 + |children|`
/// expected contributions have been folded in so far. Once complete
/// at an interior node it is frozen, exposed to the parent's pull.
#[derive(Clone, Debug)]
struct Accum {
    epoch: u32,
    got: u32,
    vals: Vec<u64>,
}

/// Per-node firmware table for one collective.
#[derive(Clone, Debug, Default)]
struct NodeSt {
    /// Next epoch this node's local processes will arrive in.
    epoch: u32,
    /// Epochs this node has fully exited (all prior epochs released).
    released: u32,
    /// The node's combine, open or frozen. One slot holds every epoch
    /// in turn: a contribution to `e + 1` comes from the node or a
    /// child that has exited `e`, and no node exits `e` before the
    /// root has pulled in every frozen contribution to it.
    acc: Option<Accum>,
}

/// Executable state of one collective instance over `nodes`
/// participants arranged in a k-ary tree (see [`crate::tree`]).
#[derive(Clone, Debug)]
pub struct CollState {
    nodes: u32,
    fanout: u32,
    op: ReduceOp,
    width: usize,
    node: Vec<NodeSt>,
    /// The root's combined result for the most recent completed epoch.
    /// One slot suffices: every node releases epoch `e` before any
    /// node can complete the combine of `e + 1` (completing `e + 1`
    /// needs all arrivals of `e + 1`, which need all exits of `e`).
    result: Option<(u32, Vec<u64>)>,
}

impl CollState {
    /// A fresh collective over `nodes` participants with the given
    /// tree fanout, reduce operator, and element count per
    /// contribution (`width` 0 models a pure barrier).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `fanout` is zero.
    pub fn new(nodes: u32, fanout: u32, op: ReduceOp, width: usize) -> CollState {
        assert!(nodes >= 1, "a collective needs at least one node");
        assert!(fanout >= 1, "tree fanout must be at least 1");
        CollState {
            nodes,
            fanout,
            op,
            width,
            node: vec![NodeSt::default(); nodes as usize],
            result: None,
        }
    }

    /// Elements per contribution.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The combined result of the most recently completed epoch.
    pub fn result(&self) -> Option<&(u32, Vec<u64>)> {
        self.result.as_ref()
    }

    /// The epoch `node`'s next local arrival will join.
    pub fn node_epoch(&self, node: u32) -> u32 {
        self.node[node as usize].epoch
    }

    /// All local processes of `node` have arrived with contribution
    /// `vals`: fold it into the node's combine for its next epoch.
    /// Returns the epoch joined and the firmware actions.
    ///
    /// # Panics
    ///
    /// Panics if `vals` has the wrong width or if the node re-arrives
    /// before exiting its previous epoch (a protocol-layer bug).
    pub fn local_arrive(&mut self, node: u32, vals: &[u64]) -> (u32, Vec<Action>) {
        let mut out = Vec::new();
        let epoch = self.local_arrive_into(node, vals, &mut out);
        (epoch, out)
    }

    /// [`CollState::local_arrive`] pushing its actions into a
    /// caller-owned buffer (the firmware service loop reuses one
    /// buffer across packets, so the hot path allocates nothing).
    pub fn local_arrive_into(&mut self, node: u32, vals: &[u64], out: &mut Vec<Action>) -> u32 {
        assert_eq!(vals.len(), self.width, "contribution width mismatch");
        let st = &mut self.node[node as usize];
        assert_eq!(
            st.epoch, st.released,
            "node {node} arrived in epoch {} before exiting {}",
            st.epoch, st.released
        );
        let epoch = st.epoch;
        st.epoch += 1;
        self.contribute(node, epoch, vals, out);
        epoch
    }

    /// A fan-in signal from `child` for `epoch` arrived at `node`:
    /// pull the child's frozen contribution over the tree edge and
    /// fold it in.
    ///
    /// # Panics
    ///
    /// Panics if the child has no frozen contribution for `epoch` —
    /// the transport delivered a signal it never sent, or twice.
    pub fn child_arrive(&mut self, node: u32, child: u32, epoch: u32) -> Vec<Action> {
        let mut out = Vec::new();
        self.child_arrive_into(node, child, epoch, &mut out);
        out
    }

    /// [`CollState::child_arrive`] pushing its actions into a
    /// caller-owned buffer.
    pub fn child_arrive_into(&mut self, node: u32, child: u32, epoch: u32, out: &mut Vec<Action>) {
        debug_assert_eq!(parent(child, self.fanout), Some(node));
        let need = 1 + children(child, self.fanout, self.nodes).count() as u32;
        let frozen = (self.node[child as usize].acc.take())
            .filter(|acc| acc.epoch == epoch && acc.got == need)
            .unwrap_or_else(|| {
                panic!("child {child} signalled epoch {epoch} without a frozen contribution")
            });
        self.contribute(node, epoch, &frozen.vals, out);
    }

    /// A fan-out signal for `epoch` arrived at `node` (or the root
    /// finished its combine): exit the epoch and propagate the release
    /// to the node's children.
    ///
    /// # Panics
    ///
    /// Panics if no combined result for `epoch` exists or the node
    /// already exited it — both indicate a transport exactly-once
    /// failure.
    pub fn release(&mut self, node: u32, epoch: u32) -> Vec<Action> {
        let mut out = Vec::new();
        self.release_into(node, epoch, &mut out);
        out
    }

    /// [`CollState::release`] pushing its actions into a caller-owned
    /// buffer.
    pub fn release_into(&mut self, node: u32, epoch: u32, out: &mut Vec<Action>) {
        match &self.result {
            Some((e, _)) if *e == epoch => {}
            other => panic!(
                "release of epoch {epoch} at node {node} but combined result is {:?}",
                other.as_ref().map(|(e, _)| e)
            ),
        }
        let st = &mut self.node[node as usize];
        assert_eq!(
            st.released, epoch,
            "node {node} released epoch {epoch} twice (already at {})",
            st.released
        );
        st.released = epoch + 1;
        out.push(Action::Exit { node, epoch });
        out.extend(
            children(node, self.fanout, self.nodes).map(|c| Action::SendRelease {
                from: node,
                to: c,
                epoch,
            }),
        );
    }

    /// Fold one contribution into `node`'s combine for `epoch`; when
    /// the count reaches `1 + |children|` the subtree is complete and
    /// either freezes (interior node) or publishes + releases (root).
    fn contribute(&mut self, node: u32, epoch: u32, vals: &[u64], out: &mut Vec<Action>) {
        let need = 1 + children(node, self.fanout, self.nodes).count() as u32;
        let op = self.op;
        let width = self.width;
        let st = &mut self.node[node as usize];
        let acc = st.acc.get_or_insert_with(|| Accum {
            epoch,
            got: 0,
            vals: vec![op.identity(); width],
        });
        assert!(
            acc.epoch == epoch && acc.got < need,
            "node {node} combines epoch {epoch} while it holds epoch {}",
            acc.epoch
        );
        op.combine(&mut acc.vals, vals);
        acc.got += 1;
        if acc.got < need {
            return;
        }
        match parent(node, self.fanout) {
            Some(p) => {
                out.push(Action::SendArrive {
                    from: node,
                    to: p,
                    epoch,
                });
            }
            None => {
                let done = st.acc.take().expect("accumulator present: just completed");
                self.result = Some((epoch, done.vals));
                self.release_into(node, epoch, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one full epoch with in-order delivery; returns per-node
    /// exit values.
    fn run_epoch(cs: &mut CollState, nodes: u32, contribs: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let mut queue: Vec<Action> = Vec::new();
        for n in 0..nodes {
            let (_, acts) = cs.local_arrive(n, &contribs[n as usize]);
            queue.extend(acts);
        }
        let mut exits = vec![Vec::new(); nodes as usize];
        let mut exited = vec![false; nodes as usize];
        while let Some(a) = queue.pop() {
            match a {
                Action::SendArrive { from, to, epoch } => {
                    queue.extend(cs.child_arrive(to, from, epoch));
                }
                Action::SendRelease { to, epoch, .. } => {
                    queue.extend(cs.release(to, epoch));
                }
                Action::Exit { node, epoch } => {
                    assert!(!exited[node as usize], "node {node} exited twice");
                    exited[node as usize] = true;
                    let (e, vals) = cs.result().expect("result published before exit");
                    assert_eq!(*e, epoch, "exit saw a stale result slot");
                    exits[node as usize] = vals.clone();
                }
            }
        }
        assert!(exited.iter().all(|&e| e), "not all nodes exited");
        exits
    }

    #[test]
    fn sum_reduces_across_the_tree() {
        for fanout in [1, 2, 4, 8] {
            let mut cs = CollState::new(9, fanout, ReduceOp::Sum, 2);
            let contribs: Vec<Vec<u64>> = (0..9).map(|n| vec![n, 10 * n]).collect();
            let exits = run_epoch(&mut cs, 9, &contribs);
            for e in exits {
                assert_eq!(e, vec![36, 360]);
            }
        }
    }

    #[test]
    fn max_reduces_like_a_vector_clock_join() {
        let mut cs = CollState::new(5, 2, ReduceOp::Max, 3);
        let contribs: Vec<Vec<u64>> = (0..5u64).map(|n| vec![n, 5 - n, 7]).collect();
        let exits = run_epoch(&mut cs, 5, &contribs);
        for e in exits {
            assert_eq!(e, vec![4, 5, 7]);
        }
    }

    #[test]
    fn width_zero_is_a_pure_barrier() {
        let mut cs = CollState::new(6, 3, ReduceOp::Max, 0);
        let empty: Vec<Vec<u64>> = vec![Vec::new(); 6];
        for epoch in 0..4 {
            let exits = run_epoch(&mut cs, 6, &empty);
            assert_eq!(exits.len(), 6);
            assert_eq!(cs.result().map(|(e, _)| *e), Some(epoch));
        }
    }

    #[test]
    fn single_node_exits_immediately() {
        let mut cs = CollState::new(1, 4, ReduceOp::Sum, 1);
        let (epoch, acts) = cs.local_arrive(0, &[7]);
        assert_eq!(epoch, 0);
        assert_eq!(acts, vec![Action::Exit { node: 0, epoch: 0 }]);
        assert_eq!(cs.result(), Some(&(0, vec![7])));
    }

    #[test]
    #[should_panic(expected = "before exiting")]
    fn re_arrival_before_release_is_rejected() {
        let mut cs = CollState::new(2, 2, ReduceOp::Sum, 0);
        let _ = cs.local_arrive(1, &[]);
        let _ = cs.local_arrive(1, &[]);
    }

    #[test]
    #[should_panic(expected = "without a frozen contribution")]
    fn duplicate_fan_in_signal_is_rejected() {
        let mut cs = CollState::new(3, 2, ReduceOp::Sum, 0);
        let (_, acts) = cs.local_arrive(1, &[]);
        assert_eq!(acts.len(), 1);
        let _ = cs.child_arrive(0, 1, 0);
        let _ = cs.child_arrive(0, 1, 0);
    }
}
