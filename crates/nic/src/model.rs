//! The NI hardware model seam.
//!
//! [`Comm`](crate::Comm) owns the *protocol* state machines (locks,
//! collectives, atomics, sequencing/retry) while everything that is a
//! property of the network-interface *hardware* — engine occupancies,
//! queue disciplines, DMA costs, completion-notification latencies —
//! sits behind the [`NiModel`] trait. The 1999 Myrinet/LANai board is
//! one implementation ([`LanaiModel`], extracted verbatim from the
//! original communication layer); a modern RDMA NIC is another
//! (`RnicModel` in `genima-rnic`). Swapping models is a data change:
//! the protocol columns run unmodified on either.
//!
//! Every method returns the *actual* completion time of the modeled
//! engine work plus the *uncontended* cost the performance monitor
//! should expect, so contention accounting (§3.1 of the paper) stays
//! in `Comm` and works identically across hardware generations.

use std::collections::VecDeque;
use std::ops::Range;

use genima_net::NicId;
use genima_sim::{Dur, Resource, Time};

use crate::config::LanaiConfig;

/// Remote-fetch key meaning "NI-resident metadata, always mapped":
/// timestamp and write-notice fetches never page-fault, on any
/// hardware. Page fetches pass the page index instead, which an
/// on-demand-paging model (ODP) may fault on first touch.
pub const ALWAYS_MAPPED: u64 = u64::MAX;

/// Hardware-mechanism counters a model may accumulate. All zero for
/// hardware without the corresponding mechanism (the LANai).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NiStats {
    /// Doorbell MMIO writes actually issued (posts within the
    /// doorbell-batching window ride an earlier ring for free).
    pub doorbells: u64,
    /// Completion-queue entries written for arriving deposits
    /// (WRITE-with-immediate notifications).
    pub cqes: u64,
    /// On-demand-paging faults taken while serving remote fetches of
    /// not-yet-mapped pages.
    pub odp_faults: u64,
    /// Pages the host mapped ahead of any remote fetch by prefetch
    /// advice ([`NiModel::advise`]); an advice of a page already
    /// mapped counts nothing.
    pub odp_prefetched: u64,
}

/// Result of the host posting one send descriptor.
#[derive(Debug, Clone, Copy)]
pub struct HostPost {
    /// When the descriptor is visible to the NI (host is free).
    pub posted_at: Time,
    /// A doorbell MMIO was actually rung for this post.
    pub doorbell: bool,
}

/// Source-side pipeline times for one outgoing packet.
#[derive(Debug, Clone, Copy)]
pub struct SendTimes {
    /// Source DMA complete: packet fully staged in NI memory.
    pub dma_done: Time,
    /// Earliest instant the packet can enter the fabric.
    pub inject_ready: Time,
    /// Uncontended source-stage cost (monitor expectation).
    pub source_expected: Dur,
}

/// Destination-side DMA of an arrived deposit payload.
#[derive(Debug, Clone, Copy)]
pub struct RecvDma {
    /// Payload landed in host memory (notification may fire).
    pub dma_done: Time,
    /// Uncontended cost after wire receive (monitor expectation,
    /// excluding the receive cost itself).
    pub expected: Dur,
    /// The model wrote a completion-queue entry for this arrival.
    pub cqe: bool,
}

/// Firmware service of a remote-fetch request.
#[derive(Debug, Clone, Copy)]
pub struct FetchServe {
    /// Reply payload staged and ready to send back — or, when
    /// `parked`, the instant the page's mapping lands.
    pub data_ready: Time,
    /// Uncontended service cost after wire receive (monitor
    /// expectation; excludes any paging fault, which is contention).
    pub expected: Dur,
    /// The model took an on-demand-paging fault for this key.
    pub odp_fault: bool,
    /// The key's mapping is still in flight — this fetch faulted it,
    /// or an earlier one did — so the request left the receive engine
    /// with nothing else booked: its channel is parked until
    /// `data_ready`, where the fetch resumes at
    /// [`NiModel::fetch_dma`].
    pub parked: bool,
}

/// Timing model of one generation of NI hardware. One instance covers
/// the whole cluster (per-NIC engine state lives inside the model).
///
/// Implementations must be deterministic: identical call sequences
/// produce identical times.
pub trait NiModel: std::fmt::Debug {
    /// Host acquires a post slot (stalling while the queue is full)
    /// and writes one send descriptor.
    fn host_post(&mut self, now: Time, src: NicId) -> HostPost;

    /// Host posts a control operation (lock, atomic, collective):
    /// descriptor write without a data-path post-queue slot.
    fn host_ctrl(&mut self, now: Time, src: NicId) -> Time;

    /// Source pipeline for one host-posted packet: request pick/WQE
    /// processing, source DMA, injection readiness. The post occupies
    /// its post-queue slot until picked. `gather_runs` is the
    /// scatter-gather run count, when the packet is a gather send.
    fn send_path(
        &mut self,
        posted_at: Time,
        src: NicId,
        bytes: u32,
        gather_runs: Option<u32>,
    ) -> SendTimes;

    /// Broadcast source stage: one pick plus one source DMA shared by
    /// every destination. Only called when the hardware advertises
    /// broadcast capability.
    fn bcast_source(&mut self, posted_at: Time, src: NicId, bytes: u32) -> (Time, Dur);

    /// One per-destination injection slot of a broadcast.
    fn bcast_inject(&mut self, cursor: Time, src: NicId) -> Time;

    /// Firmware-generated injection (replies, lock/collective traffic,
    /// retransmissions): the packet is already staged in NI memory.
    fn fw_inject(&mut self, now: Time, src: NicId) -> Time;

    /// Accept one wire packet at the destination NI.
    fn recv_accept(&mut self, now: Time, dst: NicId) -> Time;

    /// Recognise and discard a duplicate copy at the destination.
    fn recv_discard(&mut self, now: Time, dst: NicId);

    /// DMA an arrived deposit payload to host memory; `runs` is the
    /// scatter run count for gather packets.
    fn deposit_dma(
        &mut self,
        recv_done: Time,
        dst: NicId,
        bytes: u32,
        runs: Option<u32>,
    ) -> RecvDma;

    /// Serve `src`'s remote fetch of `key` at `dst`: export/translation
    /// lookup, then DMA the reply payload out of host memory. A key
    /// whose mapping is not yet in place parks the `src → dst` channel
    /// instead (see [`FetchServe::parked`]): the receive engine is held
    /// for the lookup only and keeps serving every other channel.
    fn serve_fetch(
        &mut self,
        recv_done: Time,
        src: NicId,
        dst: NicId,
        reply_bytes: u32,
        key: u64,
    ) -> FetchServe;

    /// DMA a served fetch's reply payload out of `dst`'s host memory
    /// from `now`: the tail of [`NiModel::serve_fetch`], where a parked
    /// fetch resumes once its page is mapped. `expected` covers the
    /// whole service.
    fn fetch_dma(&mut self, now: Time, dst: NicId, reply_bytes: u32) -> FetchServe;

    /// Until when packets on the `src → dst` channel wait at `dst`
    /// behind a page mapping, if they do at `now`. Hardware whose
    /// memory is all pinned never parks.
    fn parked(&self, _now: Time, _src: NicId, _dst: NicId) -> Option<Time> {
        None
    }

    /// The host of `nic` advises it to map `pages` (page indices) now,
    /// so that no remote fetch of them takes a paging fault (ODP
    /// prefetch advice). Returns the host time the advice costs.
    /// Hardware whose memory is all pinned has nothing to map.
    fn advise(&mut self, _nic: NicId, _pages: Range<u64>) -> Dur {
        Dur::ZERO
    }

    /// Occupy the lock/atomic service unit (`send_side` selects the
    /// outgoing engine, used by host-issued ops; the incoming engine
    /// serves wire-arrived ops).
    fn sync_service(&mut self, now: Time, nic: NicId, send_side: bool) -> Time;

    /// Occupy the collective service unit.
    fn coll_service(&mut self, now: Time, nic: NicId, send_side: bool) -> Time;

    /// Uncontended injection cost (monitor expectation).
    fn inject_cost(&self) -> Dur;
    /// Uncontended wire-receive cost (monitor expectation).
    fn recv_cost(&self) -> Dur;
    /// Uncontended lock/atomic service cost.
    fn sync_cost(&self) -> Dur;
    /// Uncontended collective service cost.
    fn coll_cost(&self) -> Dur;
    /// Host-side cost to notice a completion flag (granted lock,
    /// finished collective, atomic reply) in NI/CQ memory.
    fn notify(&self) -> Dur;

    /// Hardware-mechanism counters accumulated since the start or the
    /// last [`NiModel::reset_stats`].
    fn stats(&self) -> NiStats {
        NiStats::default()
    }

    /// Zeroes the counters [`NiModel::stats`] reports (measurement
    /// starts after a warm-up phase).
    fn reset_stats(&mut self) {}
}

/// Per-NIC engine state of the 1999 LANai board.
#[derive(Debug)]
struct LanaiNic {
    /// LANai occupancy on the outgoing path.
    lanai_send: Resource,
    /// LANai occupancy on the incoming path.
    lanai_recv: Resource,
    /// Host→NI DMA engine on the I/O bus (send direction).
    pci_send: Resource,
    /// NI→host DMA engine on the I/O bus (receive direction). All
    /// host-bound traffic funnels through this single FIFO — this is
    /// where Base-protocol lock requests get stuck behind page data
    /// (§3.3, Water-nsquared discussion).
    pci_recv: Resource,
    /// Pick times of requests currently occupying post-queue slots.
    post_slots: VecDeque<Time>,
}

impl LanaiNic {
    fn new() -> LanaiNic {
        LanaiNic {
            lanai_send: Resource::new("lanai-send"),
            lanai_recv: Resource::new("lanai-recv"),
            pci_send: Resource::new("pci-send"),
            pci_recv: Resource::new("pci-recv"),
            post_slots: VecDeque::new(),
        }
    }
}

/// The paper's Myrinet/LANai board: single firmware processor per
/// direction, store-and-forward source DMA, post-queue backpressure,
/// no completion queues, no paging (everything is pinned).
///
/// Extracted move-for-move from the original communication layer:
/// reservation order and costs are bit-identical to the pre-trait
/// code, which the timing-pinned tests in `comm/tests.rs` verify.
#[derive(Debug)]
pub struct LanaiModel {
    cfg: LanaiConfig,
    nics: Vec<LanaiNic>,
}

impl LanaiModel {
    /// A LANai model for `ports` nodes with the given timing.
    pub fn new(cfg: LanaiConfig, ports: usize) -> LanaiModel {
        LanaiModel {
            cfg,
            nics: (0..ports).map(|_| LanaiNic::new()).collect(),
        }
    }

    /// Blocks until a post-queue slot is available and claims it,
    /// returning the time the host can write its descriptor.
    fn acquire_post_slot(&mut self, now: Time, src: NicId) -> Time {
        let nic = &mut self.nics[src.index()];
        while nic.post_slots.front().is_some_and(|&t| t <= now) {
            nic.post_slots.pop_front();
        }
        if nic.post_slots.len() >= self.cfg.post_queue_capacity {
            // Stall until the oldest outstanding request is picked.
            let idx = nic.post_slots.len() - self.cfg.post_queue_capacity;
            nic.post_slots[idx]
        } else {
            now
        }
    }
}

impl NiModel for LanaiModel {
    fn host_post(&mut self, now: Time, src: NicId) -> HostPost {
        let t0 = self.acquire_post_slot(now, src);
        HostPost {
            posted_at: t0 + self.cfg.post_overhead,
            doorbell: false,
        }
    }

    fn host_ctrl(&mut self, now: Time, _src: NicId) -> Time {
        now + self.cfg.post_overhead
    }

    fn send_path(
        &mut self,
        posted_at: Time,
        src: NicId,
        bytes: u32,
        gather_runs: Option<u32>,
    ) -> SendTimes {
        let nic = &mut self.nics[src.index()];
        // LANai picks the request and programs the source DMA. A
        // scatter-gather send spends extra firmware time collecting
        // each run from host memory.
        let pick = match gather_runs {
            Some(runs) => self.cfg.pick_cost + self.cfg.gather_per_run * runs as u64,
            None => self.cfg.pick_cost,
        };
        let (_, pick_done) = nic.lanai_send.reserve(posted_at, pick);
        let dma = self.cfg.dma_time(bytes);
        let (_, dma_done) = nic.pci_send.reserve(pick_done, dma);
        let inject_ready = if self.cfg.pipelined_sends {
            // Deep pipelining (the Windows NT firmware, §3.3 (iii)):
            // pick, DMA and injection of successive messages overlap,
            // so each message occupies the LANai only for its pick and
            // is injected straight from the DMA completion.
            dma_done
        } else {
            // The LANai busy-waits on the DMA and performs the
            // injection itself before touching the next request (the
            // Linux-version behaviour that lets the post queue fill).
            nic.lanai_send.block_until(dma_done);
            let (_, e) = nic.lanai_send.reserve(dma_done, self.cfg.inject_cost);
            e
        };
        nic.post_slots.push_back(pick_done);
        SendTimes {
            dma_done,
            inject_ready,
            source_expected: self.cfg.pick_cost + dma,
        }
    }

    fn bcast_source(&mut self, posted_at: Time, src: NicId, bytes: u32) -> (Time, Dur) {
        let nic = &mut self.nics[src.index()];
        let (_, pick_done) = nic.lanai_send.reserve(posted_at, self.cfg.pick_cost);
        let dma = self.cfg.dma_time(bytes);
        let (_, dma_done) = nic.pci_send.reserve(pick_done, dma);
        if !self.cfg.pipelined_sends {
            nic.lanai_send.block_until(dma_done);
        }
        nic.post_slots.push_back(pick_done);
        (dma_done, self.cfg.pick_cost + dma)
    }

    fn bcast_inject(&mut self, cursor: Time, src: NicId) -> Time {
        let nic = &mut self.nics[src.index()];
        let (_, inject_ready) = nic.lanai_send.reserve(cursor, self.cfg.inject_cost);
        inject_ready
    }

    fn fw_inject(&mut self, now: Time, src: NicId) -> Time {
        let nic = &mut self.nics[src.index()];
        let (_, inject_ready) = nic.lanai_send.reserve(now, self.cfg.inject_cost);
        inject_ready
    }

    fn recv_accept(&mut self, now: Time, dst: NicId) -> Time {
        let nic = &mut self.nics[dst.index()];
        let (_, e) = nic.lanai_recv.reserve(now, self.cfg.recv_cost);
        e
    }

    fn recv_discard(&mut self, now: Time, dst: NicId) {
        // The firmware still spends receive time recognising and
        // discarding the copy.
        self.nics[dst.index()]
            .lanai_recv
            .reserve(now, self.cfg.recv_cost);
    }

    fn deposit_dma(
        &mut self,
        recv_done: Time,
        dst: NicId,
        bytes: u32,
        runs: Option<u32>,
    ) -> RecvDma {
        let nic = &mut self.nics[dst.index()];
        match runs {
            Some(runs) => {
                // Scatter on the receive side: firmware unpacks each
                // run and issues one DMA per run.
                let (_, svc_done) = nic
                    .lanai_recv
                    .reserve(recv_done, self.cfg.gather_per_run * runs as u64);
                let dma =
                    self.cfg.dma_time(bytes) + self.cfg.dma_setup * runs.saturating_sub(1) as u64;
                let (_, dma_done) = nic.pci_recv.reserve(svc_done, dma);
                RecvDma {
                    dma_done,
                    expected: self.cfg.gather_per_run * runs as u64 + dma,
                    cqe: false,
                }
            }
            None => {
                let dma = self.cfg.dma_time(bytes);
                let (_, dma_done) = nic.pci_recv.reserve(recv_done, dma);
                RecvDma {
                    dma_done,
                    expected: dma,
                    cqe: false,
                }
            }
        }
    }

    fn serve_fetch(
        &mut self,
        recv_done: Time,
        _src: NicId,
        dst: NicId,
        reply_bytes: u32,
        _key: u64,
    ) -> FetchServe {
        // Everything is pinned on the LANai testbed: the key never
        // faults. Firmware looks up the export table and DMAs the
        // data out of host memory.
        let nic = &mut self.nics[dst.index()];
        let (_, svc_done) = nic.lanai_recv.reserve(recv_done, self.cfg.fetch_service);
        self.fetch_dma(svc_done, dst, reply_bytes)
    }

    fn fetch_dma(&mut self, now: Time, dst: NicId, reply_bytes: u32) -> FetchServe {
        // The send direction of the I/O bus.
        let dma = self.cfg.dma_time(reply_bytes);
        let (_, dma_done) = self.nics[dst.index()].pci_send.reserve(now, dma);
        FetchServe {
            data_ready: dma_done,
            expected: self.cfg.fetch_service + dma,
            odp_fault: false,
            parked: false,
        }
    }

    fn sync_service(&mut self, now: Time, nic: NicId, send_side: bool) -> Time {
        let n = &mut self.nics[nic.index()];
        let engine = if send_side {
            &mut n.lanai_send
        } else {
            &mut n.lanai_recv
        };
        let (_, done) = engine.reserve(now, self.cfg.lock_service);
        done
    }

    fn coll_service(&mut self, now: Time, nic: NicId, send_side: bool) -> Time {
        let n = &mut self.nics[nic.index()];
        let engine = if send_side {
            &mut n.lanai_send
        } else {
            &mut n.lanai_recv
        };
        let (_, done) = engine.reserve(now, self.cfg.coll_service);
        done
    }

    fn inject_cost(&self) -> Dur {
        self.cfg.inject_cost
    }

    fn recv_cost(&self) -> Dur {
        self.cfg.recv_cost
    }

    fn sync_cost(&self) -> Dur {
        self.cfg.lock_service
    }

    fn coll_cost(&self) -> Dur {
        self.cfg.coll_service
    }

    fn notify(&self) -> Dur {
        self.cfg.grant_notify
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanai_post_is_two_microseconds() {
        let mut m = LanaiModel::new(LanaiConfig::paper(), 2);
        let p = m.host_post(Time::ZERO, NicId::new(0));
        assert_eq!(p.posted_at.as_us(), 2.0);
        assert!(!p.doorbell);
    }

    #[test]
    fn lanai_send_path_orders_pick_then_dma() {
        let cfg = LanaiConfig::paper();
        let mut m = LanaiModel::new(cfg, 2);
        let posted = Time::ZERO + Dur::from_us(2);
        let t = m.send_path(posted, NicId::new(0), 4, None);
        // pick 4us then dma(4B) on an idle NIC.
        assert_eq!(t.dma_done, posted + cfg.pick_cost + cfg.dma_time(4));
        assert!(t.inject_ready >= t.dma_done);
        assert_eq!(t.source_expected, cfg.pick_cost + cfg.dma_time(4));
    }

    #[test]
    fn lanai_stats_are_all_zero() {
        let m = LanaiModel::new(LanaiConfig::paper(), 1);
        assert_eq!(m.stats(), NiStats::default());
    }

    #[test]
    fn lanai_advice_is_free_and_counts_nothing() {
        let mut m = LanaiModel::new(LanaiConfig::paper(), 2);
        assert_eq!(m.advise(NicId::new(1), 0..64), Dur::ZERO);
        let fs = m.serve_fetch(Time::ZERO, NicId::new(0), NicId::new(1), 4096, 3);
        assert!(!fs.odp_fault && !fs.parked);
        assert_eq!(m.stats(), NiStats::default());
    }

    #[test]
    fn post_queue_backpressure_stalls_at_capacity() {
        let mut cfg = LanaiConfig::paper();
        cfg.post_queue_capacity = 2;
        let mut m = LanaiModel::new(cfg, 1);
        let src = NicId::new(0);
        // Fill both slots; the third post must stall past `now`.
        for _ in 0..2 {
            let p = m.host_post(Time::ZERO, src);
            m.send_path(p.posted_at, src, 4096, None);
        }
        let p = m.host_post(Time::ZERO, src);
        assert!(p.posted_at > Time::ZERO + cfg.post_overhead);
    }
}
