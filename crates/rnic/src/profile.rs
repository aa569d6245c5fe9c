//! The hardware-profile axis: one value selects a whole generation of
//! node hardware — NI, network and host.

use genima_mem::MemConfig;
use genima_net::NetConfig;
use genima_nic::{LanaiModel, NiModel, NicConfig};

use crate::config::RnicConfig;
use crate::model::RnicModel;

/// A complete hardware generation, the whole node: NI timing, network
/// timing, the host's memory costs and — for RDMA-class hardware — the
/// RNIC engine parameters. Protocol columns take a profile as *data*,
/// and the protocol code is shared but for three choices the hardware
/// selects from [`HwProfile::is_rdma`]: the lock primitive, the order
/// of a release's steps, and what a write at a page's home costs.
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
            rnic: None,
            host: MemConfig::pentium_pro(),
        }
    }

    /// A 2025 commodity cluster: 100 GbE RoCE fabric, PCIe Gen4 RNICs
    /// with doorbell batching, CQs, native SGE, ODP and masked
    /// atomics, still on the paper's Pentium Pro hosts (DESIGN.md §37).
    /// Only data differs from 1999 here; what the protocol does
    /// differently on an RDMA NIC it selects from
    /// [`HwProfile::is_rdma`].
    pub fn rnic_2025() -> HwProfile {
        HwProfile {
            name: "RNIC-2025",
            // Engine timing belongs to `RnicConfig`: only the LANai
            // model reads `NicConfig`'s, and this profile never builds
            // one. Of what the protocol reads, two fields differ from
            // LANai (no broadcast offload on commodity RNICs either).
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
            rnic: Some(RnicConfig::rnic_2025()),
            host: MemConfig::pentium_pro(),
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
    use genima_nic::{CasWord, Comm, Event, MsgKind, Post, SendDesc, Tag, Upcall};
    use genima_sim::{Dur, EventQueue, Time};

    /// What a run shows the protocol: each post's `host_free`, every
    /// event and every upcall, with their times.
    #[derive(Debug, Default, PartialEq)]
    struct Log {
        host_free: Vec<Time>,
        events: Vec<(Time, Event)>,
        upcalls: Vec<(Time, Upcall)>,
    }

    /// Runs `post` to quiescence into `log`; returns its last upcall's
    /// time.
    fn settle(comm: &mut Comm, post: Post, log: &mut Log) -> Time {
        log.host_free.push(post.host_free);
        log.upcalls.extend(post.upcalls);
        let mut q = EventQueue::new();
        for (t, e) in post.events {
            q.push(t, e);
        }
        while let Some((t, e)) = q.pop() {
            log.events.push((t, e));
            let step = comm.handle(t, e);
            log.upcalls.extend(step.upcalls);
            for (t2, e2) in step.events {
                q.push(t2, e2);
            }
        }
        log.upcalls.last().expect("every operation completes").0
    }

    /// A deposit, a page fetch and a masked-CAS acquire/release pair,
    /// one after another, on the 2025 profile with `nic` in place of
    /// its `NicConfig`.
    fn run_2025(nic: NicConfig) -> Log {
        let hw = HwProfile {
            nic,
            ..HwProfile::rnic_2025()
        };
        let mut comm = Comm::with_model(hw.model(2), hw.nic, hw.net, 2, 0);
        let (a, b) = (NicId::new(0), NicId::new(1));
        let mut log = Log::default();
        let desc = SendDesc {
            dst: b,
            bytes: 4096,
            kind: MsgKind::Deposit,
            tag: Tag::new(1),
        };
        let post = comm.post_send(Time::ZERO, a, desc);
        let t = settle(&mut comm, post, &mut log);
        let post = comm.fetch(t, a, b, 4096, 7, Tag::new(2));
        let t = settle(&mut comm, post, &mut log);
        let lock = |expect, new| CasWord {
            cell: 0,
            expect,
            new,
            mask: u64::MAX,
            wait: expect == 0,
        };
        let post = comm.masked_cas(t, a, b, lock(0, 1), Tag::new(3));
        let t = settle(&mut comm, post, &mut log);
        let post = comm.masked_cas(t, a, b, lock(1, 0), Tag::new(4));
        settle(&mut comm, post, &mut log);
        log
    }

    #[test]
    fn rnic_2025_reads_no_nic_engine_timing() {
        let nic = HwProfile::rnic_2025().nic;
        let other = NicConfig {
            post_overhead: Dur::from_us(11),
            pick_cost: Dur::from_us(12),
            inject_cost: Dur::from_us(13),
            recv_cost: Dur::from_us(14),
            fetch_service: Dur::from_us(15),
            lock_service: Dur::from_us(16),
            coll_service: Dur::from_us(17),
            grant_notify: Dur::from_us(18),
            dma_setup: Dur::from_us(19),
            pci_bandwidth: 1_000_000,
            post_queue_capacity: 1,
            pipelined_sends: !nic.pipelined_sends,
            gather_per_run: Dur::from_us(20),
            ..nic
        };
        let want = run_2025(nic);
        assert_eq!(want.upcalls.len(), 4, "one completion per operation");
        assert_eq!(run_2025(other), want);
    }

    #[test]
    fn default_profile_is_the_paper_testbed() {
        let p = HwProfile::default();
        assert_eq!(p.name, "LANai-1999");
        assert_eq!(p.nic, NicConfig::lanai());
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
