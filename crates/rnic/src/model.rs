//! The RDMA NIC implementation of [`NiModel`].

use std::collections::VecDeque;
use std::ops::Range;

use genima_net::NicId;
use genima_nic::{FetchServe, HostPost, NiModel, NiStats, RecvDma, SendTimes, ALWAYS_MAPPED};
use genima_sim::{Dur, PageBits, Resource, Time};

use crate::config::RnicConfig;

/// Per-NIC engine state of the RDMA NIC.
#[derive(Debug)]
struct RnicPort {
    /// Send-side processing unit: WQE fetch/translate/schedule. Also
    /// serves host-issued atomics and collective posts.
    sq: Resource,
    /// Receive-side processing unit: packet steering, CQE writes,
    /// fetch/atomic/collective responders.
    rx: Resource,
    /// PCIe DMA engine, host→NIC direction.
    pcie_send: Resource,
    /// PCIe DMA engine, NIC→host direction.
    pcie_recv: Resource,
    /// Completion times of WQEs currently occupying send-queue slots.
    sq_slots: VecDeque<Time>,
    /// When the last doorbell was rung (posts within the batching
    /// window of this instant need no new MMIO).
    last_doorbell: Option<Time>,
    /// ODP translation state: the page indices mapped or being mapped,
    /// by a fault or by the host's prefetch advice.
    mapped: PageBits,
    /// The mappings still in flight, `(key, lands at)`: a few at a
    /// time, pruned as they land.
    mapping: Vec<(u64, Time)>,
    /// Per source NIC: until when that channel's queue pair is parked
    /// behind a page mapping.
    parked_until: Vec<Time>,
}

impl RnicPort {
    fn new(ports: usize) -> RnicPort {
        RnicPort {
            sq: Resource::new("rnic-sq"),
            rx: Resource::new("rnic-rx"),
            pcie_send: Resource::new("pcie-send"),
            pcie_recv: Resource::new("pcie-recv"),
            sq_slots: VecDeque::new(),
            last_doorbell: None,
            mapped: PageBits::default(),
            mapping: Vec::new(),
            parked_until: vec![Time::ZERO; ports],
        }
    }
}

/// A 2025-class RDMA NIC: queue pairs with doorbell batching,
/// completion queues with solicited events, native scatter/gather,
/// on-demand paging on the fetch path, and NIC-level atomics. Sends
/// are fully pipelined — WQE processing, DMA, and injection of
/// successive messages overlap, so the post queue never becomes the
/// bottleneck it was on the 1999 LANai (§3.3).
///
/// An ODP fault parks one queue pair — the faulting fetch's
/// `src → dst` channel — until the page is mapped; the receive engine
/// is held for the translation lookup only and keeps serving every
/// other channel meanwhile. A page the host advised mapped
/// ([`NiModel::advise`]) never faults.
#[derive(Debug)]
pub struct RnicModel {
    cfg: RnicConfig,
    ports: Vec<RnicPort>,
    stats: NiStats,
}

impl RnicModel {
    /// An RNIC model for `ports` nodes with the given timing.
    pub fn new(cfg: RnicConfig, ports: usize) -> RnicModel {
        RnicModel {
            cfg,
            ports: (0..ports).map(|_| RnicPort::new(ports)).collect(),
            stats: NiStats::default(),
        }
    }

    /// Blocks until a send-queue slot is free (the host spins on the
    /// queue head) and claims it.
    fn acquire_sq_slot(&mut self, now: Time, src: NicId) -> Time {
        let port = &mut self.ports[src.index()];
        while port.sq_slots.front().is_some_and(|&t| t <= now) {
            port.sq_slots.pop_front();
        }
        if port.sq_slots.len() >= self.cfg.sq_depth {
            let idx = port.sq_slots.len() - self.cfg.sq_depth;
            port.sq_slots[idx]
        } else {
            now
        }
    }

    /// Doorbell decision for a WQE written at `wqe_done`: ring an MMIO
    /// doorbell unless a ring within the batching window already
    /// scheduled a WQE fetch that will pick this post up.
    fn ring_doorbell(&mut self, wqe_done: Time, src: NicId) -> (Time, bool) {
        let window = self.cfg.doorbell_window;
        let cost = self.cfg.doorbell_cost;
        let port = &mut self.ports[src.index()];
        let batched = port
            .last_doorbell
            .is_some_and(|t| wqe_done.saturating_since(t) <= window);
        if batched {
            (wqe_done, false)
        } else {
            let rung = wqe_done + cost;
            port.last_doorbell = Some(rung);
            self.stats.doorbells += 1;
            (rung, true)
        }
    }
}

impl NiModel for RnicModel {
    fn host_post(&mut self, now: Time, src: NicId) -> HostPost {
        let slot = self.acquire_sq_slot(now, src);
        let wqe_done = slot + self.cfg.wqe_write;
        let (posted_at, doorbell) = self.ring_doorbell(wqe_done, src);
        HostPost {
            posted_at,
            doorbell,
        }
    }

    fn host_ctrl(&mut self, now: Time, src: NicId) -> Time {
        // Control verbs (atomics, lock/collective posts) ride the same
        // QP machinery: WQE write plus a possibly-batched doorbell.
        let wqe_done = now + self.cfg.wqe_write;
        let (posted_at, _) = self.ring_doorbell(wqe_done, src);
        posted_at
    }

    fn send_path(
        &mut self,
        posted_at: Time,
        src: NicId,
        bytes: u32,
        gather_runs: Option<u32>,
    ) -> SendTimes {
        let dma = self.cfg.dma_time(bytes);
        // Native SGE: extra processing per element beyond the first,
        // handled in the WQE pipeline rather than a firmware loop.
        let wqe = match gather_runs {
            Some(runs) => {
                self.cfg.wqe_service + self.cfg.sge_per_run * runs.saturating_sub(1) as u64
            }
            None => self.cfg.wqe_service,
        };
        let port = &mut self.ports[src.index()];
        let (_, wqe_done) = port.sq.reserve(posted_at, wqe);
        let (_, dma_done) = port.pcie_send.reserve(wqe_done, dma);
        port.sq_slots.push_back(wqe_done);
        SendTimes {
            dma_done,
            // Fully pipelined: the packet cuts into the fabric as the
            // last DMA burst lands, no separate injection occupancy.
            inject_ready: dma_done,
            source_expected: self.cfg.wqe_service + dma,
        }
    }

    fn bcast_source(&mut self, posted_at: Time, src: NicId, bytes: u32) -> (Time, Dur) {
        // Commodity RNICs have no NI broadcast; profiles built on this
        // model keep `NicConfig::broadcast` off, so this is only
        // reachable from direct model tests. Model it anyway as one
        // staged payload replicated by per-destination WQEs.
        let dma = self.cfg.dma_time(bytes);
        let port = &mut self.ports[src.index()];
        let (_, wqe_done) = port.sq.reserve(posted_at, self.cfg.wqe_service);
        let (_, dma_done) = port.pcie_send.reserve(wqe_done, dma);
        port.sq_slots.push_back(wqe_done);
        (dma_done, self.cfg.wqe_service + dma)
    }

    fn bcast_inject(&mut self, cursor: Time, src: NicId) -> Time {
        let port = &mut self.ports[src.index()];
        let (_, done) = port.sq.reserve(cursor, self.cfg.wqe_service);
        done
    }

    fn fw_inject(&mut self, now: Time, src: NicId) -> Time {
        // NIC-generated packets (responses, retransmissions) are
        // scheduled by the send pipeline like any WQE.
        let port = &mut self.ports[src.index()];
        let (_, done) = port.sq.reserve(now, self.cfg.wqe_service);
        done
    }

    fn recv_accept(&mut self, now: Time, dst: NicId) -> Time {
        let port = &mut self.ports[dst.index()];
        let (_, done) = port.rx.reserve(now, self.cfg.rx_process);
        done
    }

    fn recv_discard(&mut self, now: Time, dst: NicId) {
        // Duplicate PSN detection still occupies the receive pipeline.
        self.ports[dst.index()].rx.reserve(now, self.cfg.rx_process);
    }

    fn deposit_dma(
        &mut self,
        recv_done: Time,
        dst: NicId,
        bytes: u32,
        runs: Option<u32>,
    ) -> RecvDma {
        // WRITE-with-immediate: scatter elements are handled inline,
        // the payload DMAs to registered memory, and a CQE raises the
        // arrival to the host without any interrupt.
        let sge = match runs {
            Some(runs) => self.cfg.sge_per_run * runs.saturating_sub(1) as u64,
            None => Dur::ZERO,
        };
        let svc = sge + self.cfg.cqe_cost;
        let dma = self.cfg.dma_time(bytes);
        let port = &mut self.ports[dst.index()];
        let (_, svc_done) = port.rx.reserve(recv_done, svc);
        let (_, dma_done) = port.pcie_recv.reserve(svc_done, dma);
        self.stats.cqes += 1;
        RecvDma {
            dma_done,
            expected: svc + dma,
            cqe: true,
        }
    }

    fn serve_fetch(
        &mut self,
        recv_done: Time,
        src: NicId,
        dst: NicId,
        reply_bytes: u32,
        key: u64,
    ) -> FetchServe {
        // ODP: the first fetch of an unmapped key raises a page request
        // and parks its QP while the host maps the page; a fetch of a
        // key whose mapping is in flight parks behind it without a
        // second fault. The receive engine is held for the lookup only.
        let port = &mut self.ports[dst.index()];
        let (_, svc_done) = port.rx.reserve(recv_done, self.cfg.fetch_service);
        port.mapping.retain(|&(_, lands)| lands > svc_done);
        let faulted = key != ALWAYS_MAPPED && port.mapped.insert(key as usize);
        let lands = if faulted {
            self.stats.odp_faults += 1;
            let lands = svc_done + self.cfg.odp_fault;
            port.mapping.push((key, lands));
            Some(lands)
        } else {
            port.mapping
                .iter()
                .find(|&&(k, _)| k == key)
                .map(|&(_, lands)| lands)
        };
        let Some(lands) = lands else {
            return self.fetch_dma(svc_done, dst, reply_bytes);
        };
        let parked = &mut port.parked_until[src.index()];
        *parked = (*parked).max(lands);
        FetchServe {
            data_ready: lands,
            // The fault is contention, not expected cost: the monitor
            // should flag ODP storms the way it flags LANai overload.
            expected: self.cfg.fetch_service + self.cfg.dma_time(reply_bytes),
            odp_fault: faulted,
            parked: true,
        }
    }

    fn fetch_dma(&mut self, now: Time, dst: NicId, reply_bytes: u32) -> FetchServe {
        let dma = self.cfg.dma_time(reply_bytes);
        let (_, data_ready) = self.ports[dst.index()].pcie_send.reserve(now, dma);
        FetchServe {
            data_ready,
            expected: self.cfg.fetch_service + dma,
            odp_fault: false,
            parked: false,
        }
    }

    fn parked(&self, now: Time, src: NicId, dst: NicId) -> Option<Time> {
        let until = self.ports[dst.index()].parked_until[src.index()];
        (until > now).then_some(until)
    }

    fn advise(&mut self, nic: NicId, pages: Range<u64>) -> Dur {
        // The host's call maps the pages not yet mapped and returns once
        // the NIC's translations are in place; a page mapped already,
        // by an earlier advice or a fault, costs and counts nothing.
        let mapped = &mut self.ports[nic.index()].mapped;
        let fresh = pages.filter(|&k| mapped.insert(k as usize)).count();
        self.stats.odp_prefetched += fresh as u64;
        self.cfg.odp_advise.cost(fresh)
    }

    fn sync_service(&mut self, now: Time, nic: NicId, send_side: bool) -> Time {
        let port = &mut self.ports[nic.index()];
        let engine = if send_side {
            &mut port.sq
        } else {
            &mut port.rx
        };
        let (_, done) = engine.reserve(now, self.cfg.atomic_service);
        done
    }

    fn coll_service(&mut self, now: Time, nic: NicId, send_side: bool) -> Time {
        let port = &mut self.ports[nic.index()];
        let engine = if send_side {
            &mut port.sq
        } else {
            &mut port.rx
        };
        let (_, done) = engine.reserve(now, self.cfg.coll_service);
        done
    }

    fn inject_cost(&self) -> Dur {
        self.cfg.wqe_service
    }

    fn recv_cost(&self) -> Dur {
        self.cfg.rx_process
    }

    fn sync_cost(&self) -> Dur {
        self.cfg.atomic_service
    }

    fn coll_cost(&self) -> Dur {
        self.cfg.coll_service
    }

    fn notify(&self) -> Dur {
        self.cfg.cq_notify
    }

    fn stats(&self) -> NiStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = NiStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RnicModel {
        RnicModel::new(RnicConfig::rnic_2025(), 2)
    }

    #[test]
    fn doorbell_batching_elides_the_second_mmio() {
        let mut m = model();
        let src = NicId::new(0);
        let a = m.host_post(Time::ZERO, src);
        assert!(a.doorbell);
        // A post inside the window rides the first ring for free.
        let b = m.host_post(a.posted_at, src);
        assert!(!b.doorbell);
        // Far outside the window a new ring is needed.
        let c = m.host_post(a.posted_at + Dur::from_us(5), src);
        assert!(c.doorbell);
        assert_eq!(m.stats().doorbells, 2);
    }

    #[test]
    fn sends_are_fully_pipelined() {
        let mut m = model();
        let p = m.host_post(Time::ZERO, NicId::new(0));
        let t = m.send_path(p.posted_at, NicId::new(0), 4096, None);
        assert_eq!(t.inject_ready, t.dma_done);
    }

    #[test]
    fn deposits_write_cqes() {
        let mut m = model();
        let rd = m.deposit_dma(Time::ZERO, NicId::new(1), 4096, None);
        assert!(rd.cqe);
        assert_eq!(m.stats().cqes, 1);
    }

    #[test]
    fn odp_faults_only_on_first_touch() {
        let mut m = model();
        let (src, dst) = (NicId::new(0), NicId::new(1));
        let first = m.serve_fetch(Time::ZERO, src, dst, 4096, 7);
        assert!(first.odp_fault && first.parked);
        let again = m.serve_fetch(first.data_ready, src, dst, 4096, 7);
        assert!(!again.odp_fault && !again.parked);
        assert!(first.data_ready.saturating_since(Time::ZERO) > Dur::from_us(40));
        assert_eq!(m.stats().odp_faults, 1);
    }

    #[test]
    fn an_advised_page_is_served_with_no_fault_and_no_park() {
        let mut m = model();
        let cfg = RnicConfig::rnic_2025();
        let (src, dst) = (NicId::new(0), NicId::new(1));
        assert_eq!(m.advise(dst, 6..9), cfg.odp_advise.cost(3));
        let fs = m.serve_fetch(Time::ZERO, src, dst, 4096, 7);
        assert!(!fs.odp_fault && !fs.parked);
        assert_eq!(m.parked(Time::ZERO, src, dst), None);
        assert_eq!(m.stats().odp_faults, 0);
        assert_eq!(m.stats().odp_prefetched, 3);
        // The advice maps the home's memory, not the requester's.
        let other = m.serve_fetch(Time::ZERO, dst, src, 4096, 7);
        assert!(other.odp_fault);
    }

    #[test]
    fn a_second_advice_of_a_key_costs_and_counts_nothing() {
        let mut m = model();
        let cfg = RnicConfig::rnic_2025();
        let (src, dst) = (NicId::new(0), NicId::new(1));
        m.advise(dst, 7..8);
        assert_eq!(m.advise(dst, 7..8), Dur::ZERO);
        // A page a fault mapped is mapped for the advice too, and a run
        // pays for its fresh pages only.
        m.serve_fetch(Time::ZERO, src, dst, 4096, 9);
        assert_eq!(m.advise(dst, 7..11), cfg.odp_advise.cost(2));
        assert_eq!(m.stats().odp_prefetched, 3);
        assert_eq!(m.stats().odp_faults, 1);
    }

    #[test]
    fn reset_stats_zeroes_the_counters_but_keeps_the_mappings() {
        let mut m = model();
        let (src, dst) = (NicId::new(0), NicId::new(1));
        m.serve_fetch(Time::ZERO, src, dst, 4096, 7);
        m.reset_stats();
        assert_eq!(m.stats(), NiStats::default());
        let again = m.serve_fetch(Time::ZERO + Dur::from_us(100), src, dst, 4096, 7);
        assert!(!again.odp_fault);
    }

    #[test]
    fn metadata_fetches_never_fault() {
        let mut m = model();
        let fs = m.serve_fetch(Time::ZERO, NicId::new(1), NicId::new(0), 64, ALWAYS_MAPPED);
        assert!(!fs.odp_fault && !fs.parked);
        assert_eq!(m.stats().odp_faults, 0);
    }

    /// The page every ODP scenario below faults on.
    const PAGE: u64 = 7;

    /// A home `H` and three requesters `A`, `B`, `C`.
    fn cluster() -> (RnicModel, [NicId; 4]) {
        let m = RnicModel::new(RnicConfig::rnic_2025(), 4);
        (m, [0, 1, 2, 3].map(NicId::new))
    }

    /// A fetch of `key` from `src` reaching `home` at `t`, received and
    /// served the way `Comm` does it — or, if its channel is parked,
    /// the instant the park ends.
    fn arrive(
        m: &mut RnicModel,
        t: Time,
        src: NicId,
        home: NicId,
        key: u64,
    ) -> Result<FetchServe, Time> {
        if let Some(until) = m.parked(t, src, home) {
            return Err(until);
        }
        let recv_done = m.recv_accept(t, home);
        Ok(m.serve_fetch(recv_done, src, home, 4096, key))
    }

    /// `H` faults on `A`'s fetch of [`PAGE`] at `t`.
    fn fault(m: &mut RnicModel, t: Time, [h, a, ..]: [NicId; 4]) -> FetchServe {
        let fs = arrive(m, t, a, h, PAGE).expect("A's channel is not parked yet");
        assert!(fs.odp_fault && fs.parked);
        assert!(fs.data_ready >= t + RnicConfig::rnic_2025().odp_fault);
        fs
    }

    #[test]
    fn a_fault_parks_only_its_own_channel() {
        let (mut m, ids @ [h, _, b, _]) = cluster();
        // B's page is mapped long before A's fault.
        let warm = arrive(&mut m, Time::ZERO, b, h, 8).expect("nothing is parked yet");
        m.fetch_dma(warm.data_ready, h, 4096);
        let t0 = warm.data_ready + Dur::from_us(100);
        fault(&mut m, t0, ids);
        let t1 = t0 + Dur::from_us(1);
        let other = arrive(&mut m, t1, b, h, 8).expect("B's channel is not parked");
        assert!(!other.parked && !other.odp_fault);
        let waited = other.data_ready.saturating_since(t1);
        assert!(
            waited < Dur::from_us(5),
            "B waited {waited} behind A's fault"
        );
    }

    #[test]
    fn the_faulting_channel_waits_for_the_mapping() {
        let (mut m, ids @ [h, a, ..]) = cluster();
        let fs = fault(&mut m, Time::ZERO, ids);
        let next = arrive(&mut m, Time::ZERO + Dur::from_us(1), a, h, 9);
        assert_eq!(next.err(), Some(fs.data_ready), "A's next packet waits");
        assert_eq!(m.parked(fs.data_ready, a, h), None, "and flows once mapped");
    }

    #[test]
    fn a_fetch_of_a_page_being_mapped_waits_without_faulting() {
        let (mut m, ids @ [h, _, _, c]) = cluster();
        let fs = fault(&mut m, Time::ZERO, ids);
        let t1 = Time::ZERO + Dur::from_us(1);
        let same = arrive(&mut m, t1, c, h, PAGE).expect("C's channel is not parked");
        assert!(same.parked && !same.odp_fault);
        assert_eq!(same.data_ready, fs.data_ready);
        assert_eq!(m.parked(t1, c, h), Some(fs.data_ready));
        assert_eq!(m.stats().odp_faults, 1);
    }

    #[test]
    fn nothing_is_booked_ahead_of_the_mapping() {
        let (mut m, ids @ [h, ..]) = cluster();
        let cfg = RnicConfig::rnic_2025();
        let fs = fault(&mut m, Time::ZERO, ids);
        // H's own send during the fault finds its DMA engine idle.
        let t1 = Time::ZERO + Dur::from_us(1);
        let sent = m.send_path(t1, h, 4096, None);
        assert_eq!(sent.dma_done, t1 + cfg.wqe_service + cfg.dma_time(4096));
        // The reply is booked when the mapping lands, not before.
        let reply = m.fetch_dma(fs.data_ready, h, 4096);
        assert_eq!(reply.data_ready, fs.data_ready + cfg.dma_time(4096));
    }
}
