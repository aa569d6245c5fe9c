//! Execution-time breakdowns and protocol counters.

use genima_sim::Dur;

/// Per-process execution-time breakdown — the five categories of the
/// paper's Figure 3.
///
/// # Example
///
/// ```
/// use genima_proto::Breakdown;
/// use genima_sim::Dur;
///
/// let mut b = Breakdown::default();
/// b.compute += Dur::from_ms(8);
/// b.data += Dur::from_ms(2);
/// assert_eq!(b.total(), Dur::from_ms(10));
/// assert!((b.share_of(b.data) - 0.2).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Useful work, including local memory stalls (and SMP bus
    /// dilation).
    pub compute: Dur,
    /// Data wait: stalls on remote page access.
    pub data: Dur,
    /// Lock wait: stalls acquiring mutual exclusion.
    pub lock: Dur,
    /// Acquire/release protocol work outside barriers (diff
    /// computation and sends at releases, invalidation application at
    /// acquires).
    pub acqrel: Dur,
    /// Barrier time (wait plus barrier protocol processing).
    pub barrier: Dur,
    /// Of `barrier`, the share spent on protocol processing rather
    /// than load-imbalance wait (Table 2's BPT).
    pub barrier_protocol: Dur,
    /// Total time spent inside `mprotect` (Table 2's MT numerator).
    pub mprotect: Dur,
}

impl Breakdown {
    /// Sum of the five top-level categories.
    pub fn total(&self) -> Dur {
        self.compute + self.data + self.lock + self.acqrel + self.barrier
    }

    /// Total SVM overhead (everything but compute).
    pub fn overhead(&self) -> Dur {
        self.data + self.lock + self.acqrel + self.barrier
    }

    /// Fraction of the total that `part` represents (0 when empty).
    pub fn share_of(&self, part: Dur) -> f64 {
        let t = self.total().as_ns();
        if t == 0 {
            0.0
        } else {
            part.as_ns() as f64 / t as f64
        }
    }

    /// Element-wise sum, for cluster-wide averages.
    pub fn merge(&mut self, other: &Breakdown) {
        self.compute += other.compute;
        self.data += other.data;
        self.lock += other.lock;
        self.acqrel += other.acqrel;
        self.barrier += other.barrier;
        self.barrier_protocol += other.barrier_protocol;
        self.mprotect += other.mprotect;
    }

    /// Element-wise division by a process count, for averages.
    pub fn scaled_down(&self, n: u64) -> Breakdown {
        Breakdown {
            compute: self.compute / n,
            data: self.data / n,
            lock: self.lock / n,
            acqrel: self.acqrel / n,
            barrier: self.barrier / n,
            barrier_protocol: self.barrier_protocol / n,
            mprotect: self.mprotect / n,
        }
    }
}

/// Cluster-wide protocol event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Read or write faults taken.
    pub faults: u64,
    /// Remote page transfers (full-page data movements).
    pub page_transfers: u64,
    /// Remote fetches that found a stale timestamp and retried.
    pub fetch_retries: u64,
    /// Host interrupts taken for asynchronous protocol processing
    /// (zero under full GeNIMA).
    pub interrupts: u64,
    /// Diffs computed.
    pub diffs: u64,
    /// Direct-diff run messages sent.
    pub diff_run_messages: u64,
    /// Interval records (write-notice sets) created.
    pub intervals: u64,
    /// Write-notice messages sent (broadcasts count once per
    /// destination).
    pub notice_messages: u64,
    /// Lock acquires that crossed nodes.
    pub remote_lock_acquires: u64,
    /// Lock acquires satisfied within the node.
    pub local_lock_acquires: u64,
    /// Failed test-and-set attempts under the remote-atomics lock
    /// implementation (each costs a network round trip).
    pub lock_spin_retries: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Host messages exchanged with the node-0 barrier manager
    /// (arrival notifications and releases). Zero under NI-tree
    /// barriers, where the whole episode runs in firmware.
    pub barrier_manager_msgs: u64,
    /// `mprotect` system calls issued (after coalescing).
    pub mprotect_calls: u64,
    /// Pages invalidated.
    pub invalidations: u64,
    /// Page fetches failed fast in degraded mode: a peer became
    /// unreachable mid-fetch and the blocked process was resumed with
    /// its access abandoned instead of aborting the run
    /// ([`SvmParams::degraded`](crate::SvmParams)). The failed fetch's
    /// wait still lands in the op-latency histograms. Nothing else can
    /// fail: synchronisation traffic heals.
    pub failed_ops: u64,
    /// Degraded-mode recoveries that completed a lost transaction by
    /// applying its effect directly (management-channel heal) — the
    /// operation finished slow rather than failing.
    pub degraded_heals: u64,
    /// Degraded-mode abandons whose transaction was already resolved
    /// (tag consumed, fetch satisfied by another path): nothing to
    /// fail or heal, the loss is only counted.
    pub degraded_lost_msgs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_shares() {
        let b = Breakdown {
            compute: Dur::from_us(60),
            data: Dur::from_us(20),
            lock: Dur::from_us(10),
            acqrel: Dur::from_us(5),
            barrier: Dur::from_us(5),
            barrier_protocol: Dur::from_us(2),
            mprotect: Dur::from_us(1),
        };
        assert_eq!(b.total(), Dur::from_us(100));
        assert_eq!(b.overhead(), Dur::from_us(40));
        assert!((b.share_of(b.compute) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        let b = Breakdown::default();
        assert_eq!(b.share_of(Dur::from_us(5)), 0.0);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = Breakdown {
            compute: Dur::from_us(10),
            ..Breakdown::default()
        };
        let b = Breakdown {
            compute: Dur::from_us(30),
            data: Dur::from_us(4),
            ..Breakdown::default()
        };
        a.merge(&b);
        assert_eq!(a.compute, Dur::from_us(40));
        let avg = a.scaled_down(2);
        assert_eq!(avg.compute, Dur::from_us(20));
        assert_eq!(avg.data, Dur::from_us(2));
    }
}
