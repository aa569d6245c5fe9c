//! NI parameters: what the communication layer reads of any board, and
//! the LANai board's engine timing and lock primitive.

use genima_sim::Dur;

/// What the communication layer reads of every NI, whichever board
/// runs it: the monitor's size threshold, the size of a lock grant,
/// the capability flags and the retry policy. Engine timing belongs to
/// the board ([`LanaiConfig`] here, `RnicConfig` in `genima-rnic`).
///
/// # Example
///
/// ```
/// use genima_nic::NicConfig;
/// let cfg = NicConfig::default();
/// assert_eq!(cfg.small_threshold, 256);
/// assert!(!cfg.scatter_gather && !cfg.broadcast);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicConfig {
    /// Payload size, in bytes, at or below which a packet counts as
    /// *small* for the performance monitor (Tables 3 and 4 use 256).
    pub small_threshold: u32,
    /// Payload bytes of a lock grant message (the lock's protocol
    /// timestamp travels with the lock, §2 "Network interface locks").
    pub lock_grant_bytes: u32,
    /// Enable the NI scatter-gather extension (§3.3 remedy (ii)/§5):
    /// a single message carries many non-contiguous runs, at the cost
    /// of extra NI occupancy packing and unpacking them.
    pub scatter_gather: bool,
    /// Enable NI broadcast (§5): one posted descriptor is replicated
    /// by the firmware to several destinations.
    pub broadcast: bool,
    /// Base retransmission timeout: how long the sending firmware
    /// waits for the implicit acknowledgement of a packet before
    /// retransmitting. Doubled on every attempt (exponential backoff).
    /// Only consulted when a fault injector is installed — the clean
    /// path never loses packets, so no timer is ever armed.
    pub retry_timeout: Dur,
    /// Maximum transmissions of one packet (first send plus
    /// retransmits) before the firmware declares the peer unreachable
    /// and surfaces [`Upcall::PeerUnreachable`](crate::Upcall).
    pub max_send_attempts: u32,
}

impl NicConfig {
    /// What the paper's Myrinet/LANai testbed offers the protocol.
    pub fn lanai() -> NicConfig {
        NicConfig {
            small_threshold: 256,
            lock_grant_bytes: 72,
            scatter_gather: false,
            broadcast: false,
            // A 4 KB page fetch round trip is ~110 us; the timeout must
            // comfortably exceed it so implicit acks are never beaten
            // by a slow-but-successful delivery.
            retry_timeout: Dur::from_us(150),
            max_send_attempts: 8,
        }
    }
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig::lanai()
    }
}

/// How the LANai firmware gives the NI-lock rungs mutual exclusion.
/// §2 leaves the choice open: a full distributed lock algorithm in
/// firmware, or plain remote atomic operations with the algorithm in
/// the protocol layer. An RDMA NIC has no firmware to run a chain, so
/// only this board offers the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockImpl {
    /// The paper's prototype: home + last-owner chain in NI firmware.
    FirmwareChain,
    /// Test-and-set spinning over NI remote atomics: simpler NI
    /// support, more network traffic under contention.
    RemoteAtomics,
}

/// The 1999 Myrinet/LANai board: its engine timing, which only
/// [`LanaiModel`](crate::LanaiModel) reads, and its lock primitive.
///
/// The paper timing is calibrated so that the communication layer
/// reproduces the paper's measured costs (§3.1): a one-word message
/// has ~18 µs one-way latency, an asynchronous send posts in ~2 µs,
/// and a 4 KB remote page fetch completes in ~110 µs.
///
/// # Example
///
/// ```
/// use genima_nic::{LanaiConfig, LockImpl};
/// let cfg = LanaiConfig::paper();
/// assert_eq!(cfg.post_overhead.as_us(), 2.0);
/// assert_eq!(cfg.lock_impl, LockImpl::FirmwareChain);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanaiConfig {
    /// Host-side cost to post one asynchronous send descriptor.
    pub post_overhead: Dur,
    /// LANai time to pick a request from the post queue and set up the
    /// source DMA.
    pub pick_cost: Dur,
    /// LANai time to hand a staged packet to the outgoing link.
    pub inject_cost: Dur,
    /// LANai time to accept one incoming packet from the wire.
    pub recv_cost: Dur,
    /// Extra firmware time to serve a remote-fetch request (address
    /// lookup in the export table, DMA programming).
    pub fetch_service: Dur,
    /// Firmware time to process one lock protocol message.
    pub lock_service: Dur,
    /// Firmware time to process one collective protocol message (fold
    /// a contribution into the combine table, or apply a release).
    pub coll_service: Dur,
    /// Host-side cost to notice a granted lock flag in NI memory.
    pub grant_notify: Dur,
    /// Fixed setup cost of one DMA transaction on the I/O bus.
    pub dma_setup: Dur,
    /// I/O (PCI) bus bandwidth in bytes per second.
    pub pci_bandwidth: u64,
    /// Capacity of the host→NI post queue, in descriptors. When the
    /// queue is full the posting host processor stalls until the NI
    /// drains it (the Barnes-spatial direct-diff pathology, §3.3).
    pub post_queue_capacity: usize,
    /// If `true`, the NI overlaps the source DMA of one packet with
    /// picking the next request (the "increased pipelining" fix the
    /// paper applied in the Windows NT version, §3.3 (iii)).
    pub pipelined_sends: bool,
    /// Extra LANai time per run packed or unpacked by scatter-gather
    /// (the NI is slow and must touch host memory across the I/O bus).
    pub gather_per_run: Dur,
    /// The lock primitive the firmware offers the NI-lock rungs.
    pub lock_impl: LockImpl,
}

impl LanaiConfig {
    /// The paper's LANai boards: 33 MHz firmware on a 133 MB/s PCI
    /// bus, running the firmware lock chain.
    pub fn paper() -> LanaiConfig {
        LanaiConfig {
            post_overhead: Dur::from_us(2),
            pick_cost: Dur::from_us(4),
            inject_cost: Dur::from_us(3),
            recv_cost: Dur::from_us(4),
            fetch_service: Dur::from_us(3),
            lock_service: Dur::from_us(2),
            coll_service: Dur::from_us(2),
            grant_notify: Dur::from_us(1),
            dma_setup: Dur::from_us(1),
            pci_bandwidth: 133_000_000,
            post_queue_capacity: 32,
            pipelined_sends: false,
            gather_per_run: Dur::from_us(2),
            lock_impl: LockImpl::FirmwareChain,
        }
    }

    /// Duration of one DMA transaction moving `bytes` across the I/O
    /// bus (setup plus transfer).
    pub fn dma_time(&self, bytes: u32) -> Dur {
        self.dma_setup + Dur::from_ns(bytes as u64 * 1_000_000_000 / self.pci_bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_time_includes_setup() {
        let cfg = LanaiConfig::paper();
        assert_eq!(cfg.dma_time(0), cfg.dma_setup);
        // 4 KB at 133 MB/s is ~30.8us transfer.
        let t = cfg.dma_time(4096);
        assert!(t.as_us() > 30.0 && t.as_us() < 35.0, "got {t}");
    }

    #[test]
    fn defaults_are_lanai() {
        assert_eq!(NicConfig::default(), NicConfig::lanai());
    }
}
