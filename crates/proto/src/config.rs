//! Protocol-layer cost parameters.

use genima_sim::Dur;

/// How barriers are implemented.
///
/// The host-managed barrier is the paper's centralized scheme: every
/// process notifies a manager process on node 0, which releases
/// everyone once the last arrival lands. The NI-tree barrier moves the
/// whole episode into firmware (`genima-coll`): the last local arrival
/// posts one contribution to a k-ary combining tree of NIs, which
/// max-reduces the joined vector clock up the tree and broadcasts it
/// down — no manager messages, no host processing on any intermediate
/// node. The tree carries no write notices, so it needs a notice route
/// that delivers them on its own (pushed or pulled, not piggybacked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierImpl {
    /// Centralized manager on node 0 (Base through DW+RF+DD).
    HostManager,
    /// k-ary combining tree in NI firmware (the GeNIMA column).
    NiTree {
        /// Children per tree node.
        fanout: u32,
    },
}

/// Host-software costs of the SVM protocol layer.
///
/// The interrupt-path constants are calibrated so the Base protocol
/// reproduces the paper's measured end-to-end costs (a remote page
/// fetch costs ~200 µs with interrupts versus ~110 µs with remote
/// fetch, §3.1).
///
/// # Example
///
/// ```
/// use genima_proto::ProtoConfig;
/// let cfg = ProtoConfig::default();
/// assert!(cfg.interrupt_latency.as_us() >= 40.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoConfig {
    /// Interrupt delivery plus scheduling of the floating protocol
    /// process on an SMP node (the cost GeNIMA eliminates).
    pub interrupt_latency: Dur,
    /// Compute time destroyed on the preempted processor per interrupt
    /// beyond the handler's service time (context switches, cache and
    /// TLB pollution — the paper's "related scheduling effects").
    pub interrupt_steal: Dur,
    /// Handler service time for a page request at the home.
    pub svc_page_request: Dur,
    /// Handler service time to forward a lock request at the home.
    pub svc_lock_forward: Dur,
    /// Handler service time to grant a lock at the last owner
    /// (excluding diff work, charged separately).
    pub svc_lock_grant: Dur,
    /// Handler service time for a barrier arrival at the manager.
    pub svc_barrier_arrival: Dur,
    /// Handler service time to process a barrier release at a node.
    pub svc_barrier_release: Dur,
    /// Host cost of a fault trap (SIGSEGV delivery and protocol entry).
    pub fault_trap: Dur,
    /// Host cost to finish any page fault once data is present
    /// (bookkeeping, excluding `mprotect`).
    pub fault_finish: Dur,
    /// Delay before re-issuing a remote fetch that returned a stale
    /// timestamp.
    pub fetch_retry_backoff: Dur,
    /// Host cost of an intra-node lock handoff (hardware
    /// synchronization inside the SMP).
    pub local_lock: Dur,
    /// Host cost to process a received lock grant / start an acquire.
    pub acquire_overhead: Dur,
    /// Maximum local-clock lead a process may accumulate before it
    /// resynchronises with the global event queue (bounds causal skew
    /// from batched op execution).
    pub quantum: Dur,
    /// Bytes of protocol payload in a page-request / control message.
    pub control_msg_bytes: u32,
    /// Extra bytes carried alongside a page reply (its timestamp).
    pub page_ts_bytes: u32,
    /// Per-interval-record header bytes on the wire (plus 8 bytes per
    /// page id in the record).
    pub notice_header_bytes: u32,
    /// Backoff before re-trying a failed atomic test-and-set.
    pub lock_spin_backoff: Dur,
    /// Pull write notices with remote fetch at acquires instead of
    /// pushing them with remote deposit at releases — the design
    /// alternative §2 discusses and rejects (it found push's smaller,
    /// earlier messages pipeline better; pull trades release cost for
    /// acquire cost). An acquire or a barrier exit fetches what its
    /// node lacks, one fetch per node and writer. A rung whose
    /// [`FeatureSet::eager_notices`](crate::FeatureSet::eager_notices)
    /// fails piggybacks whatever this says, and pull wins over the NI
    /// broadcast (DESIGN.md §18).
    pub pull_notices: bool,
}

impl ProtoConfig {
    /// Calibrated defaults for the paper's testbed.
    pub fn paper() -> ProtoConfig {
        ProtoConfig {
            interrupt_latency: Dur::from_us(60),
            interrupt_steal: Dur::from_us(20),
            svc_page_request: Dur::from_us(15),
            svc_lock_forward: Dur::from_us(8),
            svc_lock_grant: Dur::from_us(12),
            svc_barrier_arrival: Dur::from_us(6),
            svc_barrier_release: Dur::from_us(10),
            fault_trap: Dur::from_us(5),
            fault_finish: Dur::from_us(3),
            fetch_retry_backoff: Dur::from_us(15),
            local_lock: Dur::from_us(2),
            acquire_overhead: Dur::from_us(3),
            quantum: Dur::from_us(50),
            lock_spin_backoff: Dur::from_us(30),
            pull_notices: false,
            control_msg_bytes: 32,
            page_ts_bytes: 64,
            notice_header_bytes: 16,
        }
    }
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_calibration() {
        assert_eq!(ProtoConfig::default(), ProtoConfig::paper());
    }

    #[test]
    fn interrupt_path_dominates_firmware_path() {
        let cfg = ProtoConfig::default();
        // The whole point of the paper: interrupt + handler service is
        // far more expensive than any firmware service.
        assert!(cfg.interrupt_latency + cfg.svc_page_request > Dur::from_us(50));
    }
}
