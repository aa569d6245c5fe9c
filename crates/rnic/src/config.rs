//! Timing parameters of the modern RDMA NIC.

use genima_mem::MprotectModel;
use genima_sim::Dur;

/// Timing parameters of a 2025-class RDMA NIC (100 GbE, PCIe Gen4).
///
/// Values follow published microbenchmarks of current commodity RNICs:
/// an MMIO doorbell is ~150 ns, WQE processing ~60 ns, a solicited
/// completion event reaches the polling host in ~400 ns, and an
/// on-demand-paging fault costs tens of microseconds — four orders of
/// magnitude faster host interaction than the 1999 LANai, but with an
/// ODP cliff the LANai (all memory pinned) never had.
///
/// # Example
///
/// ```
/// use genima_rnic::RnicConfig;
/// let cfg = RnicConfig::rnic_2025();
/// assert!(cfg.wqe_service.as_ns() < 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnicConfig {
    /// Host-side cost to write one work-queue entry into the send
    /// queue (a cached memory write, not MMIO).
    pub wqe_write: Dur,
    /// Cost of one MMIO doorbell write making queued WQEs visible.
    pub doorbell_cost: Dur,
    /// Doorbell batching window: posts landing within this window of
    /// the previous ring are picked up by the already-scheduled WQE
    /// fetch and need no new MMIO.
    pub doorbell_window: Dur,
    /// RNIC processing time per WQE (fetch, translate, schedule DMA).
    pub wqe_service: Dur,
    /// Extra RNIC time per scatter/gather element beyond the first
    /// (native SGE support — no firmware packing loop).
    pub sge_per_run: Dur,
    /// RNIC processing time to accept one wire packet.
    pub rx_process: Dur,
    /// Cost to write one completion-queue entry (WRITE-with-immediate
    /// arrivals raise these at the receiver).
    pub cqe_cost: Dur,
    /// Host-side cost to notice a solicited completion event in the
    /// CQ (polled from cache; no interrupt).
    pub cq_notify: Dur,
    /// RNIC service time for a remote read (fetch) request: MTT/MPT
    /// translation plus response scheduling.
    pub fetch_service: Dur,
    /// RNIC service time for a masked atomic (CAS / fetch-add) or a
    /// lock protocol message handled in NIC processing.
    pub atomic_service: Dur,
    /// RNIC service time for one collective offload message.
    pub coll_service: Dur,
    /// Cost of one on-demand-paging fault: the RNIC parks the QP,
    /// raises a page request, and the host IOMMU/driver maps the page.
    pub odp_fault: Dur,
    /// Host price of one ODP prefetch advice
    /// (`ibv_advise_mr(PREFETCH_WRITE, FLAG_FLUSH)`) over a run of
    /// consecutive pages: a system call that walks the page tables the
    /// way `mprotect` does and returns once the NIC's translations are
    /// in place. Priced as the host's coalesced `mprotect` over the
    /// pages not yet mapped (DESIGN.md §10.5).
    pub odp_advise: MprotectModel,
    /// Fixed setup latency of one PCIe DMA transaction.
    pub pcie_setup: Dur,
    /// PCIe bandwidth in bytes per second (Gen4 x16 effective).
    pub pcie_bandwidth: u64,
    /// Send-queue depth in WQEs; the host stalls when it is full.
    pub sq_depth: usize,
}

impl RnicConfig {
    /// Parameters of a 2025-class commodity RNIC.
    pub fn rnic_2025() -> RnicConfig {
        RnicConfig {
            wqe_write: Dur::from_ns(100),
            doorbell_cost: Dur::from_ns(150),
            doorbell_window: Dur::from_ns(500),
            wqe_service: Dur::from_ns(60),
            sge_per_run: Dur::from_ns(50),
            rx_process: Dur::from_ns(150),
            cqe_cost: Dur::from_ns(100),
            cq_notify: Dur::from_ns(400),
            fetch_service: Dur::from_ns(200),
            atomic_service: Dur::from_ns(250),
            coll_service: Dur::from_ns(300),
            odp_fault: Dur::from_us(45),
            odp_advise: MprotectModel::linux_ppro(),
            pcie_setup: Dur::from_ns(300),
            pcie_bandwidth: 25_000_000_000,
            sq_depth: 1024,
        }
    }

    /// Duration of one PCIe DMA moving `bytes` (setup plus transfer).
    pub fn dma_time(&self, bytes: u32) -> Dur {
        self.pcie_setup + Dur::from_ns(bytes as u64 * 1_000_000_000 / self.pcie_bandwidth)
    }
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig::rnic_2025()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_time_includes_setup() {
        let cfg = RnicConfig::rnic_2025();
        assert_eq!(cfg.dma_time(0), cfg.pcie_setup);
        // 4 KB at 25 GB/s is ~164 ns transfer on top of setup.
        let t = cfg.dma_time(4096);
        assert!(t.as_ns() > 400 && t.as_ns() < 500, "got {t}");
    }

    #[test]
    fn odp_fault_dwarfs_the_fast_path() {
        let cfg = RnicConfig::rnic_2025();
        assert!(cfg.odp_fault > cfg.fetch_service.scale(100, 1));
    }
}
