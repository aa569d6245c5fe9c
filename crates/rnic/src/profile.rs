//! The hardware-profile axis: one value selects a whole generation of
//! NI + network hardware.

use genima_net::NetConfig;
use genima_nic::{LanaiModel, NiModel, NicConfig};

use crate::config::RnicConfig;
use crate::model::RnicModel;

/// A complete hardware generation: NI timing, network timing, and —
/// for RDMA-class hardware — the RNIC engine parameters. Protocol
/// columns take a profile as *data*; no code forks per generation.
///
/// # Example
///
/// ```
/// use genima_rnic::HwProfile;
/// assert!(!HwProfile::lanai_1999().is_rdma());
/// assert!(HwProfile::rnic_2025().is_rdma());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwProfile {
    /// Stable display name ("LANai-1999", "RNIC-2025").
    pub name: &'static str,
    /// Generic NI knobs consumed by the protocol-facing layers
    /// (thresholds, retry policy, capability flags) — and, for the
    /// LANai generation, the full engine timing.
    pub nic: NicConfig,
    /// Network fabric timing.
    pub net: NetConfig,
    /// RNIC engine timing; `None` selects the LANai model.
    pub rnic: Option<RnicConfig>,
}

impl HwProfile {
    /// The paper's 1999 testbed: Myrinet/LANai boards on 33 MHz
    /// firmware, 160 MB/s links. Existing runs use this profile and
    /// stay bit-identical to the pre-profile code.
    pub fn lanai_1999() -> HwProfile {
        HwProfile {
            name: "LANai-1999",
            nic: NicConfig::lanai(),
            net: NetConfig::myrinet(),
            rnic: None,
        }
    }

    /// A 2025 commodity cluster: 100 GbE RoCE fabric, PCIe Gen4 RNICs
    /// with doorbell batching, CQs, native SGE, ODP and masked
    /// atomics. Only data differs from 1999 here; what the protocol
    /// does differently on an RDMA NIC it selects from
    /// [`HwProfile::is_rdma`].
    pub fn rnic_2025() -> HwProfile {
        HwProfile {
            name: "RNIC-2025",
            nic: NicConfig {
                // Engine-timing fields are owned by RnicConfig on this
                // profile; the mirrors here keep any generic consumer
                // (cost heuristics, docs) in the right magnitude.
                post_overhead: genima_sim::Dur::from_ns(250),
                pick_cost: genima_sim::Dur::from_ns(60),
                inject_cost: genima_sim::Dur::from_ns(60),
                recv_cost: genima_sim::Dur::from_ns(150),
                fetch_service: genima_sim::Dur::from_ns(200),
                lock_service: genima_sim::Dur::from_ns(250),
                coll_service: genima_sim::Dur::from_ns(300),
                grant_notify: genima_sim::Dur::from_ns(400),
                dma_setup: genima_sim::Dur::from_ns(300),
                pci_bandwidth: 25_000_000_000,
                post_queue_capacity: 1024,
                pipelined_sends: true,
                small_threshold: 256,
                lock_grant_bytes: 72,
                // Native SGE: scatter-gather is the normal data path.
                scatter_gather: true,
                gather_per_run: genima_sim::Dur::from_ns(50),
                // Commodity RNICs have no NI broadcast offload.
                broadcast: false,
                // A 4 KB fetch round trip is ~2 us on this fabric.
                retry_timeout: genima_sim::Dur::from_us(20),
                max_send_attempts: 8,
            },
            net: NetConfig {
                // 100 GbE: ~12.5 GB/s per direction.
                link_bandwidth: 12_500_000_000,
                switch_latency: genima_sim::Dur::from_ns(150),
                // Ethernet + IP + UDP + RoCE BTH framing.
                header_bytes: 64,
                max_packet: 4096,
            },
            rnic: Some(RnicConfig::rnic_2025()),
        }
    }

    /// Whether this profile is RDMA-class hardware (RNIC model, CQ
    /// notification, masked atomics available).
    pub fn is_rdma(&self) -> bool {
        self.rnic.is_some()
    }

    /// Builds the NI hardware model for a cluster of `ports` nodes.
    pub fn model(&self, ports: usize) -> Box<dyn NiModel> {
        match self.rnic {
            Some(rnic) => Box::new(RnicModel::new(rnic, ports)),
            None => Box::new(LanaiModel::new(self.nic, ports)),
        }
    }
}

impl Default for HwProfile {
    fn default() -> Self {
        HwProfile::lanai_1999()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_net::NicId;
    use genima_sim::Time;

    #[test]
    fn default_profile_is_the_paper_testbed() {
        let p = HwProfile::default();
        assert_eq!(p.name, "LANai-1999");
        assert_eq!(p.nic, NicConfig::lanai());
        assert_eq!(p.net, NetConfig::myrinet());
        assert!(!p.is_rdma());
    }

    #[test]
    fn profiles_build_their_models() {
        let mut lanai = HwProfile::lanai_1999().model(2);
        let mut rnic = HwProfile::rnic_2025().model(2);
        let a = lanai.host_post(Time::ZERO, NicId::new(0));
        let b = rnic.host_post(Time::ZERO, NicId::new(0));
        // 2 us LANai post vs sub-microsecond doorbelled WQE.
        assert_eq!(a.posted_at.saturating_since(Time::ZERO).as_us(), 2.0);
        assert!(b.posted_at.saturating_since(Time::ZERO).as_ns() < 1_000);
        assert!(b.doorbell && !a.doorbell);
    }

    #[test]
    fn rnic_network_is_two_orders_faster() {
        let p99 = HwProfile::lanai_1999();
        let p25 = HwProfile::rnic_2025();
        assert!(p99.net.wire_time(4096) > p25.net.wire_time(4096).scale(70, 1));
    }
}
