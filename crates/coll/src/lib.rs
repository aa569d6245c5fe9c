//! NI-firmware collective operations for GeNIMA.
//!
//! The paper removes asynchronous host protocol processing from page
//! fetches, diffs and locks (§2), but barriers in the prototype still
//! funnel through a host-side manager. This crate closes that gap the
//! same way `genima-nic`'s lock chain closed the lock gap: the
//! collective lives entirely in NI firmware state machines — a
//! configurable k-ary fan-in/fan-out tree providing a **barrier** and
//! an **all-reduce** (element-wise u64 sum or max, enough to join
//! vector clocks), whose fan-out stage
//! broadcasts the combined result. No host
//! is interrupted and no host polls; hosts only post their local
//! contribution and later notice a completion flag in NI memory,
//! exactly like noticing a granted lock.
//!
//! The crate is deliberately dependency-free and time-free: it models
//! *what* the firmware tables do ([`CollState`]), while `genima-nic`
//! maps the resulting [`Action`]s onto its send pipeline and charges
//! occupancy and wire time. That split is what lets the exactly-once
//! epoch-exit property be proptested here under arbitrary delivery
//! orders without simulating a network.

mod state;
pub mod tree;

pub use state::{Action, CollState};

/// Identifies one collective instance on the interconnect (the SVM
/// protocol uses one per barrier variable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollId(u32);

impl CollId {
    /// Collective `n`.
    pub fn new(n: u32) -> CollId {
        CollId(n)
    }

    /// Index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Element-wise combine operator of an all-reduce.
///
/// Both operators are commutative, associative and idempotent-friendly
/// enough for the tree: any combine order over the same multiset of
/// contributions yields bit-identical results, which is what the
/// fault-recovery tests pin down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise wrapping sum.
    Sum,
    /// Element-wise maximum — a vector-clock join when the lanes are
    /// per-writer interval counters.
    #[default]
    Max,
}

impl ReduceOp {
    /// The operator's identity element.
    pub fn identity(self) -> u64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Max => 0,
        }
    }

    /// Folds `vals` into `acc`, element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn combine(self, acc: &mut [u64], vals: &[u64]) {
        assert_eq!(acc.len(), vals.len(), "reduce width mismatch");
        for (a, v) in acc.iter_mut().zip(vals) {
            match self {
                ReduceOp::Sum => *a = a.wrapping_add(*v),
                ReduceOp::Max => *a = (*a).max(*v),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn combine_is_elementwise() {
        let mut acc = vec![1, 5, 9];
        ReduceOp::Max.combine(&mut acc, &[3, 2, 9]);
        assert_eq!(acc, vec![3, 5, 9]);
        let mut acc = vec![1, 5, 9];
        ReduceOp::Sum.combine(&mut acc, &[3, 2, 1]);
        assert_eq!(acc, vec![4, 7, 10]);
    }

    /// One in-flight collective message, as the proptest scheduler
    /// sees it.
    #[derive(Clone, Debug)]
    enum Msg {
        Arrive { from: u32, to: u32, epoch: u32 },
        Release { to: u32, epoch: u32 },
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tentpole property: for arbitrary node counts, fanouts,
        /// per-node arrival orders and network delivery orders, every
        /// node exits every epoch exactly once, and every exit of one
        /// epoch carries the identical, correctly reduced value.
        #[test]
        fn tree_barrier_exits_exactly_once(
            nodes in 1u32..33,
            fanout in 1u32..9,
            epochs in 1u32..4,
            // Infinite supply of scheduling choices: each draw picks
            // which ready input (local arrival or in-flight message)
            // fires next.
            choices in proptest::collection::vec(0usize..usize::MAX, 1..512),
            salts in proptest::collection::vec(0u64..1 << 48, 1..64),
        ) {
            let width = 2usize;
            let mut cs = CollState::new(nodes, fanout, ReduceOp::Max, width);
            // contribution(node, epoch): distinct, salt-scrambled lanes
            // so a wrong combine order or a lost lane changes the bits.
            let contrib = |n: u32, e: u32| -> Vec<u64> {
                (0..width as u64)
                    .map(|l| salts[(n as usize + e as usize + l as usize) % salts.len()]
                        .wrapping_mul(n as u64 + 3)
                        .wrapping_add(e as u64 * 1009 + l))
                    .collect()
            };
            let expected: Vec<Vec<u64>> = (0..epochs)
                .map(|e| {
                    let mut acc = vec![ReduceOp::Max.identity(); width];
                    for n in 0..nodes {
                        ReduceOp::Max.combine(&mut acc, &contrib(n, e));
                    }
                    acc
                })
                .collect();

            // ready-to-arrive nodes + in-flight messages form the
            // schedulable frontier; `choices` drives the interleaving.
            let mut can_arrive: Vec<u32> = (0..nodes).collect();
            let mut inflight: Vec<Msg> = Vec::new();
            let mut exits: Vec<Vec<u32>> = vec![vec![0; nodes as usize]; epochs as usize];
            let mut ci = 0usize;
            let pick = |len: usize, ci: &mut usize| {
                let c = choices[*ci % choices.len()];
                *ci += 1;
                c % len
            };
            loop {
                let frontier = can_arrive.len() + inflight.len();
                if frontier == 0 {
                    break;
                }
                let k = pick(frontier, &mut ci);
                let actions = if k < can_arrive.len() {
                    let n = can_arrive.swap_remove(k);
                    let e = cs.node_epoch(n);
                    let (epoch, acts) = cs.local_arrive(n, &contrib(n, e));
                    prop_assert_eq!(epoch, e);
                    acts
                } else {
                    match inflight.swap_remove(k - can_arrive.len()) {
                        Msg::Arrive { from, to, epoch } => cs.child_arrive(to, from, epoch),
                        Msg::Release { to, epoch } => cs.release(to, epoch),
                    }
                };
                for a in actions {
                    match a {
                        Action::SendArrive { from, to, epoch } =>
                            inflight.push(Msg::Arrive { from, to, epoch }),
                        Action::SendRelease { to, epoch, .. } =>
                            inflight.push(Msg::Release { to, epoch }),
                        Action::Exit { node, epoch } => {
                            exits[epoch as usize][node as usize] += 1;
                            // The single result slot must hold this
                            // epoch's value for the whole exit window.
                            let (re, rv) = cs.result().expect("result before exit");
                            prop_assert_eq!(*re, epoch, "stale result slot");
                            prop_assert_eq!(
                                rv,
                                &expected[epoch as usize],
                                "node {} epoch {}", node, epoch
                            );
                            if epoch + 1 < epochs {
                                can_arrive.push(node);
                            }
                        }
                    }
                }
            }
            for (e, per_node) in exits.iter().enumerate() {
                for (n, &c) in per_node.iter().enumerate() {
                    prop_assert_eq!(c, 1, "node {} exited epoch {} {} times", n, e, c);
                }
            }
        }
    }
}
