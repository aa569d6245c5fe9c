//! Cluster topology and identifiers.

use std::fmt;

use genima_net::NicId;

/// A global processor (= one compute process) index.
///
/// # Example
///
/// ```
/// use genima_proto::{ProcId, Topology};
/// let topo = Topology::new(4, 4);
/// assert_eq!(topo.node_of(ProcId::new(5)).index(), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(u32);

impl ProcId {
    /// Creates a processor id from a zero-based global index.
    pub const fn new(index: usize) -> ProcId {
        ProcId(index as u32)
    }

    /// The zero-based global index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A cluster node (one SMP box with one NI).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a zero-based index.
    pub const fn new(index: usize) -> NodeId {
        NodeId(index as u32)
    }

    /// The zero-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The node's network interface.
    pub const fn nic(self) -> NicId {
        NicId::new(self.0 as usize)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A barrier identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(u32);

impl BarrierId {
    /// Creates a barrier id.
    pub const fn new(index: usize) -> BarrierId {
        BarrierId(index as u32)
    }

    /// The zero-based index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "barrier{}", self.0)
    }
}

/// Cluster shape: `nodes` SMP nodes with `procs_per_node` compute
/// processors each (the paper's testbed is 4×4; Table 5 uses 8×4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of SMP nodes.
    pub nodes: usize,
    /// Compute processors per node.
    pub procs_per_node: usize,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, procs_per_node: usize) -> Topology {
        assert!(nodes > 0 && procs_per_node > 0, "empty topology");
        Topology {
            nodes,
            procs_per_node,
        }
    }

    /// Total processor count.
    pub fn procs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// The node hosting `proc`.
    pub fn node_of(&self, proc: ProcId) -> NodeId {
        NodeId::new(proc.index() / self.procs_per_node)
    }

    /// The processors hosted by `node`.
    pub fn procs_of(&self, node: NodeId) -> impl Iterator<Item = ProcId> {
        let start = node.index() * self.procs_per_node;
        (start..start + self.procs_per_node).map(ProcId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_mapping() {
        let t = Topology::new(4, 4);
        assert_eq!(t.procs(), 16);
        assert_eq!(t.node_of(ProcId::new(0)), NodeId::new(0));
        assert_eq!(t.node_of(ProcId::new(15)), NodeId::new(3));
        let ps: Vec<ProcId> = t.procs_of(NodeId::new(2)).collect();
        assert_eq!(
            ps,
            vec![
                ProcId::new(8),
                ProcId::new(9),
                ProcId::new(10),
                ProcId::new(11)
            ]
        );
    }

    #[test]
    fn node_nic_mapping() {
        assert_eq!(NodeId::new(3).nic(), NicId::new(3));
    }

    #[test]
    #[should_panic(expected = "empty topology")]
    fn zero_topology_panics() {
        Topology::new(0, 4);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcId::new(1).to_string(), "p1");
        assert_eq!(NodeId::new(2).to_string(), "n2");
        assert_eq!(BarrierId::new(3).to_string(), "barrier3");
    }
}
