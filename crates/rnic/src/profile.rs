//! The hardware-profile axis: one value selects a whole generation of
//! node hardware — NI board, network and host.

use genima_mem::MemConfig;
use genima_net::NetConfig;
use genima_nic::{LanaiConfig, LanaiModel, NiModel, NicConfig};

use crate::config::RnicConfig;
use crate::model::RnicModel;

/// The NI board a node carries, with only the settings its model
/// reads. The lock primitive is the board's: the LANai's firmware
/// offers a lock chain or remote atomics ([`LanaiConfig::lock_impl`]);
/// an RNIC has no firmware to run a chain and offers masked CAS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Board {
    /// The paper's Myrinet/LANai board.
    Lanai(LanaiConfig),
    /// A 2025 RDMA NIC.
    Rnic(RnicConfig),
}

/// A complete hardware generation, the whole node: what the protocol
/// reads of its NI, network timing, the NI board and the host's memory
/// costs. Protocol columns take a profile as *data*: every protocol
/// choice is the column's rung but one, the lock primitive, which is
/// the [`Board`]'s.
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
    /// What the communication layer reads of any NI (thresholds,
    /// retry policy, capability flags).
    pub nic: NicConfig,
    /// Network fabric timing.
    pub net: NetConfig,
    /// The NI board: its engine timing and, on the LANai, its lock
    /// primitive.
    pub board: Board,
    /// Host memory-system costs: twins, diffs, `mprotect` and the SMP
    /// bus.
    pub host: MemConfig,
}

impl HwProfile {
    /// The paper's 1999 testbed: Myrinet/LANai boards on 33 MHz
    /// firmware, 160 MB/s links, 200 MHz Pentium Pro hosts.
    pub fn lanai_1999() -> HwProfile {
        HwProfile {
            name: "LANai-1999",
            nic: NicConfig::lanai(),
            net: NetConfig::myrinet(),
            board: Board::Lanai(LanaiConfig::paper()),
            host: MemConfig::pentium_pro(),
        }
    }

    /// A 2025 commodity cluster: 100 GbE RoCE fabric, PCIe Gen4 RNICs
    /// with doorbell batching, CQs, native SGE, ODP and masked
    /// atomics, still on the paper's Pentium Pro hosts (DESIGN.md §7).
    /// Only data differs from 1999 here; the one protocol choice the
    /// board makes is the lock primitive, masked CAS.
    pub fn rnic_2025() -> HwProfile {
        HwProfile {
            name: "RNIC-2025",
            // Two fields differ from LANai (no broadcast offload on
            // commodity RNICs either).
            nic: NicConfig {
                // Native SGE: scatter-gather is the normal data path.
                scatter_gather: true,
                // A 4 KB fetch round trip is ~2 us on this fabric.
                retry_timeout: genima_sim::Dur::from_us(20),
                ..NicConfig::lanai()
            },
            net: NetConfig {
                // 100 GbE: ~12.5 GB/s per direction.
                link_bandwidth: 12_500_000_000,
                switch_latency: genima_sim::Dur::from_ns(150),
                // Ethernet + IP + UDP + RoCE BTH framing.
                header_bytes: 64,
                max_packet: 4096,
            },
            board: Board::Rnic(RnicConfig::rnic_2025()),
            host: MemConfig::pentium_pro(),
        }
    }

    /// Whether this profile is RDMA-class hardware (RNIC model, CQ
    /// notification, masked atomics available).
    pub fn is_rdma(&self) -> bool {
        matches!(self.board, Board::Rnic(_))
    }

    /// Builds the NI hardware model for a cluster of `ports` nodes.
    pub fn model(&self, ports: usize) -> Box<dyn NiModel> {
        match self.board {
            Board::Lanai(lanai) => Box::new(LanaiModel::new(lanai, ports)),
            Board::Rnic(rnic) => Box::new(RnicModel::new(rnic, ports)),
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
        assert_eq!(p.board, Board::Lanai(LanaiConfig::paper()));
        assert_eq!(p.net, NetConfig::myrinet());
        assert_eq!(p.host, MemConfig::pentium_pro());
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
