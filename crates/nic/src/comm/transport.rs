//! The wire: every packet is built, sequenced, given its fate,
//! retransmitted and deduplicated here, and nowhere else.
//!
//! Mechanisms hand [`Comm::emit`] a destination and a message kind;
//! the host data path hands [`Comm::launch`] a descriptor the hardware
//! model already walked through the source side. Both end in
//! [`Comm::inject`], the one place that enters the fabric and books
//! the LANai and Net monitor stages. On the way in, [`Comm::admit`]
//! drops what the receiver already processed. Without a fault injector
//! none of the sequencing state exists: one `Delivered` event at the
//! wire-accurate time, bit-identical to a build without fault support.

use genima_net::{Fate, FaultInjector, NetConfig, NetTiming, Network, NicId, PacketCtx};
use genima_obs::{SpanKind, Track};
use genima_sim::{Dur, Time};

use super::{Comm, Step};
use crate::monitor::Stage;
use crate::msg::{Event, MsgKind, Packet, SendDesc, Tag, Upcall};

/// Cost of a firmware-local handoff when source and destination NIC
/// coincide (e.g. the home forwarding a lock transfer to itself).
const LOCAL_HOP: Dur = Dur::from_ns(200);

/// Counters of the firmware's loss-recovery machinery. All zero on the
/// clean path (no fault injector installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Packets retransmitted after a retry timer fired.
    pub retransmits: u64,
    /// Arrived packets discarded as duplicates of an already-processed
    /// sequence number.
    pub duplicates_suppressed: u64,
    /// Sends abandoned after exhausting every attempt
    /// ([`Upcall::PeerUnreachable`] surfaced).
    pub unreachable: u64,
    /// Untagged packets and firmware synchronisation traffic (lock
    /// chain, collective, atomic reply) handed to the out-of-band
    /// management channel after exhausting every attempt (degraded
    /// mode only).
    pub mgmt_deliveries: u64,
}

/// The sequence numbers one channel's receiver has accounted for. A
/// channel hands its numbers out 1, 2, 3, …, so the set is a watermark
/// — every number up to it — plus the few numbers beyond it that
/// overtook one still in flight: its memory follows the reordering
/// window, not the number of packets the channel ever carried.
#[derive(Debug, Default)]
struct SeqWindow {
    /// Every number `<= low` is in the set.
    low: u64,
    /// The numbers above `low` in the set, ascending.
    above: Vec<u64>,
}

impl SeqWindow {
    /// Adds `seq`; returns `true` if it was absent (the contract of
    /// `HashSet::insert`).
    fn insert(&mut self, seq: u64) -> bool {
        if seq <= self.low {
            return false;
        }
        let Err(at) = self.above.binary_search(&seq) else {
            return false;
        };
        self.above.insert(at, seq);
        // Slide the watermark over whatever is now contiguous with it.
        let next = self.low + 1..;
        let run = (self.above.iter().zip(next))
            .take_while(|(&have, want)| have == *want)
            .count();
        self.above.drain(..run);
        self.low += run as u64;
        true
    }
}

/// The fabric and the reliability state layered over it.
#[derive(Debug)]
pub(super) struct Transport {
    net: Network,
    /// Fault injector deciding each packet's fate (`None` = the clean
    /// path: no sequencing, no timers).
    injector: Option<Box<dyn FaultInjector>>,
    /// Next sequence number per `(src, dst)` channel (indexed
    /// `src * ports + dst`); allocated only when an injector is
    /// installed.
    seq_next: Vec<u64>,
    /// Sequence numbers already processed at each destination, per
    /// channel — the receive-side duplicate-suppression table.
    seen: Vec<SeqWindow>,
    recovery: RecoveryStats,
    /// Degraded-mode retransmission policy: when a send to a peer
    /// exhausts every attempt, a packet of the [`never_dies`] class is
    /// delivered over a modeled out-of-band management channel instead
    /// of surfacing [`Upcall::PeerUnreachable`]. Host data transactions
    /// still surface, so the protocol layer can apply the transaction's
    /// record or fail the fetch.
    degraded: bool,
}

impl Transport {
    pub(super) fn new(net_cfg: NetConfig, ports: usize) -> Transport {
        Transport {
            net: Network::new(net_cfg, ports),
            injector: None,
            seq_next: Vec::new(),
            seen: Vec::new(),
            recovery: RecoveryStats::default(),
            degraded: false,
        }
    }
}

/// Where the outgoing pipeline pushes what it schedules.
type Events = Vec<(Time, Event)>;

impl Comm {
    /// Installs a fault injector: from now on every wire packet is
    /// sequenced, its fate (deliver / delay / duplicate / drop) is
    /// decided by `injector` at injection time, dropped packets are
    /// retransmitted with exponential backoff, and duplicates are
    /// suppressed at the destination.
    ///
    /// An injector that never faults (e.g. `FaultPlan::none()`)
    /// produces timings and reports identical to the clean path.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        let channels = self.ports * self.ports;
        self.tx.injector = Some(injector);
        self.tx.seq_next = vec![0; channels];
        self.tx.seen = (0..channels).map(|_| SeqWindow::default()).collect();
    }

    /// Enables or disables the degraded-mode retransmission policy:
    /// packets that must not die take the management channel once
    /// their attempts are exhausted.
    pub fn set_degraded(&mut self, on: bool) {
        self.tx.degraded = on;
    }

    /// The firmware's loss-recovery counters (all zero without faults).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.tx.recovery
    }

    /// The network fabric (read-only; useful for link statistics).
    pub fn network(&self) -> &Network {
        &self.tx.net
    }

    /// Counts a duplicate a mechanism recognised on its own (a copy
    /// that carried no sequence number for [`Comm::admit`] to catch).
    pub(super) fn count_duplicate(&mut self) {
        self.tx.recovery.duplicates_suppressed += 1;
    }

    /// Sends a host-posted packet whose source side the hardware model
    /// already timed: staged in NI memory at `staged`, at the injection
    /// port at `inject_ready`.
    pub(super) fn launch(
        &mut self,
        src: NicId,
        desc: SendDesc,
        staged: Time,
        inject_ready: Time,
        out: &mut Events,
    ) {
        let pkt = packet(src, desc, staged);
        self.inject(inject_ready, pkt, 0, staged, out);
    }

    /// Sends a firmware-generated packet (fetch and atomic replies,
    /// lock and collective traffic). It is already staged in NI
    /// memory: no post queue, no pick, no source DMA — just injection,
    /// or a local firmware hop when `src == dst`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn emit(
        &mut self,
        now: Time,
        src: NicId,
        dst: NicId,
        bytes: u32,
        kind: MsgKind,
        tag: Tag,
        out: &mut Step,
    ) {
        let desc = SendDesc {
            dst,
            bytes,
            kind,
            tag,
        };
        let pkt = packet(src, desc, now);
        if src == dst {
            out.events.push((now + LOCAL_HOP, Event::Delivered(pkt)));
            return;
        }
        let inject_ready = self.model.fw_inject(now, src);
        self.inject(inject_ready, pkt, 0, now, &mut out.events);
    }

    /// Enters the fabric and books the LANai and Net stages (paper
    /// §3.1 definitions), both measured from `since` — the end of the
    /// Source stage, or the firmware's decision to send.
    fn inject(
        &mut self,
        inject_ready: Time,
        pkt: Packet,
        attempt: u32,
        since: Time,
        out: &mut Events,
    ) {
        let timing = self.fabric(inject_ready, pkt, attempt, out);
        let class = self.size_class(pkt.bytes);
        let wire = self.tx.net.config().wire_time(pkt.bytes);
        self.monitor.record(
            Stage::Lanai,
            class,
            timing.inject_end.saturating_since(since),
            self.model.inject_cost() + wire,
        );
        self.monitor.record(
            Stage::Net,
            class,
            timing.deliver.saturating_since(since),
            self.model.inject_cost() + self.tx.net.uncontended(pkt.bytes),
        );
        self.monitor.count_packet(class, pkt.bytes);
    }

    /// Hands one wire packet to the fabric. Without an injector: one
    /// [`Event::Delivered`] at the wire-accurate delivery time. With
    /// one the packet is sequenced on its channel and its fate applied:
    /// extra delay is added *after* the fabric's in-order clamp
    /// (genuine reordering), a duplicate schedules two deliveries, and
    /// a drop schedules an [`Event::RetryTimer`] one backed-off timeout
    /// after the send.
    fn fabric(
        &mut self,
        inject_ready: Time,
        mut pkt: Packet,
        attempt: u32,
        out: &mut Events,
    ) -> NetTiming {
        debug_assert_ne!(pkt.src, pkt.dst, "local hops never enter the fabric");
        let Some(inj) = self.tx.injector.as_mut() else {
            let timing = self
                .tx
                .net
                .transfer(inject_ready, pkt.src, pkt.dst, pkt.bytes);
            out.push((timing.deliver, Event::Delivered(pkt)));
            return timing;
        };
        if pkt.seq == 0 {
            let chan = pkt.src.index() * self.ports + pkt.dst.index();
            self.tx.seq_next[chan] += 1;
            pkt.seq = self.tx.seq_next[chan];
        }
        let ctx = PacketCtx {
            src: pkt.src,
            dst: pkt.dst,
            bytes: pkt.bytes,
            seq: pkt.seq,
            attempt,
            now: inject_ready,
        };
        let (timing, fate) = self.tx.net.transfer_with(ctx, inj.as_mut());
        let injected_fault = match fate {
            Fate::Deliver { extra } => {
                out.push((timing.deliver + extra, Event::Delivered(pkt)));
                (extra > Dur::ZERO).then_some(SpanKind::FaultDelay)
            }
            Fate::Duplicate { lag } => {
                out.push((timing.deliver, Event::Delivered(pkt)));
                out.push((timing.deliver + lag, Event::Delivered(pkt)));
                Some(SpanKind::FaultDup)
            }
            Fate::Drop => {
                let rto = self.cfg.retry_timeout * (1u64 << attempt.min(10));
                out.push((
                    timing.inject_end + rto,
                    Event::RetryTimer {
                        packet: pkt,
                        attempt: attempt + 1,
                    },
                ));
                Some(SpanKind::FaultDrop)
            }
        };
        if let Some(kind) = injected_fault {
            let (src_idx, dst_idx) = (pkt.src.index(), pkt.dst.index() as u64);
            let op = self.obs_op(pkt.tag);
            self.obs_record(|o| {
                o.instant_op(kind, src_idx, Track::Firmware, inject_ready, dst_idx, op);
            });
        }
        timing
    }

    /// A retransmission timer fired: send the packet again (same
    /// sequence number, so a late original and the retransmit dedupe at
    /// the receiver) or give up — surface [`Upcall::PeerUnreachable`],
    /// or in degraded mode take the management channel if the packet
    /// [`never_dies`].
    pub(super) fn retransmit(&mut self, now: Time, pkt: Packet, attempt: u32) -> Step {
        let mut step = self.take_step();
        if attempt >= self.cfg.max_send_attempts {
            if self.tx.degraded && never_dies(&pkt) {
                // One slow out-of-band hop, injector bypassed. The packet
                // keeps its sequence number, so `admit` accounts for it
                // on arrival: its hole must not also be closed here.
                self.tx.recovery.mgmt_deliveries += 1;
                step.events
                    .push((now + self.cfg.retry_timeout, Event::Delivered(pkt)));
                return step;
            }
            // Every attempt was dropped, so no copy of this number is in
            // flight and none will arrive: close its hole, or the
            // receiver's watermark would wait for it for ever.
            let chan = pkt.src.index() * self.ports + pkt.dst.index();
            self.tx.seen[chan].insert(pkt.seq);
            self.tx.recovery.unreachable += 1;
            step.upcalls.push((
                now,
                Upcall::PeerUnreachable {
                    nic: pkt.src,
                    peer: pkt.dst,
                    tag: pkt.tag,
                },
            ));
            return step;
        }
        self.tx.recovery.retransmits += 1;
        let op = self.obs_op(pkt.tag);
        self.obs_record(|o| {
            o.instant_op(
                SpanKind::Retransmit,
                pkt.src.index(),
                Track::Firmware,
                now,
                pkt.dst.index() as u64,
                op,
            );
        });
        // The packet is still staged in NI memory: retransmission is a
        // pure firmware injection, like `emit`.
        let inject_ready = self.model.fw_inject(now, pkt.src);
        self.inject(inject_ready, pkt, attempt, now, &mut step.events);
        step
    }

    /// Receive-side admission of an arrived packet: `None` if the
    /// receiver already processed it, else the instant its service can
    /// start. Sequenced packets (fault-injected runs only) dedupe on
    /// their channel — a retransmit racing its delayed original, or a
    /// fabric duplicate, must be applied exactly once — and the
    /// injector may stall this firmware's receive path.
    pub(super) fn admit(&mut self, now: Time, pkt: &Packet) -> Option<Time> {
        if pkt.seq == 0 {
            return Some(now);
        }
        let chan = pkt.src.index() * self.ports + pkt.dst.index();
        if !self.tx.seen[chan].insert(pkt.seq) {
            // The firmware still spends receive time recognising and
            // discarding the copy.
            self.tx.recovery.duplicates_suppressed += 1;
            self.model.recv_discard(now, pkt.dst);
            return None;
        }
        let stall = match self.tx.injector.as_mut() {
            Some(inj) => inj.recv_stall(pkt.dst, now),
            None => Dur::ZERO,
        };
        Some(now + stall)
    }
}

/// The failure contract's firmware half: a packet sent on a
/// synchronisation mechanism's behalf never dies. Its episode lives
/// only in the message — a chain packet names the next owner or *is*
/// the lock token, a collective packet is a subtree's arrival or
/// release, an atomic reply reports a swap that already executed (for a
/// wait-mode CAS it is the token) — so failing whoever it was sent for
/// would strand everyone queued behind them. Untagged packets (a lock
/// cell's clear, a timestamp prefetch) ride along: no host transaction
/// exists to resolve them. A tagged host data transaction may die; the
/// protocol layer then applies its record or fails the fetch.
fn never_dies(pkt: &Packet) -> bool {
    match pkt.kind {
        MsgKind::LockMsg(_) | MsgKind::CollMsg(_) | MsgKind::AtomicReply { .. } => true,
        MsgKind::Deposit
        | MsgKind::GatherDeposit { .. }
        | MsgKind::HostMsg
        | MsgKind::FetchReq { .. }
        | MsgKind::FetchReply
        | MsgKind::FetchAndStore { .. }
        | MsgKind::MaskedCas(_) => pkt.tag == Tag::NONE,
    }
}

/// The one place a [`Packet`] is built. `seq` stays zero — unsequenced
/// — until [`Comm::fabric`] numbers it under fault injection; local
/// hops are never numbered.
fn packet(src: NicId, desc: SendDesc, staged: Time) -> Packet {
    Packet {
        src,
        dst: desc.dst,
        bytes: desc.bytes,
        kind: desc.kind,
        tag: desc.tag,
        seq: 0,
        source_done_ns: staged.as_ns(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::config::NicConfig;

    /// Loses every packet's first transmission; everything else is
    /// clean.
    #[derive(Debug)]
    struct DropFirstAttempt;

    impl FaultInjector for DropFirstAttempt {
        fn fate(&mut self, ctx: PacketCtx) -> Fate {
            if ctx.attempt == 0 {
                Fate::Drop
            } else {
                Fate::CLEAN
            }
        }

        fn recv_stall(&mut self, _nic: NicId, _now: Time) -> Dur {
            Dur::ZERO
        }
    }

    /// Posts one deposit whose first transmission is lost, lets the
    /// retry timer retransmit it, and delivers the retransmit and the
    /// original — not lost after all, only slower than the timeout —
    /// in the given order. Returns the upcalls and the counters.
    fn late_original(original_first: bool) -> (Vec<Upcall>, RecoveryStats) {
        let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
        comm.set_fault_injector(Box::new(DropFirstAttempt));
        let desc = SendDesc {
            dst: NicId::new(1),
            bytes: 64,
            kind: MsgKind::Deposit,
            tag: Tag::new(7),
        };
        let post = comm.post_send(Time::ZERO, NicId::new(0), desc);
        let [(timeout, timer)] = post.events.into_iter().collect::<Vec<_>>()[..] else {
            panic!("a dropped send arms exactly one retry timer");
        };
        let Event::RetryTimer { packet, .. } = timer else {
            panic!("expected a retry timer, got {timer:?}");
        };
        assert_ne!(packet.seq, 0, "packets are sequenced under fault injection");

        let resend = comm.handle(timeout, timer);
        assert!(resend.upcalls.is_empty());
        let [(arrival, copy)] = resend.events.into_iter().collect::<Vec<_>>()[..] else {
            panic!("a retransmission schedules exactly one delivery");
        };
        assert_eq!(
            copy,
            Event::Delivered(packet),
            "same packet, same sequence number"
        );

        let original = Event::Delivered(packet);
        let order = if original_first {
            [(arrival, original), (arrival + Dur::from_ns(1), copy)]
        } else {
            [(arrival, copy), (arrival + Dur::from_ns(1), original)]
        };
        let mut upcalls = Vec::new();
        for (t, ev) in order {
            let step = comm.handle(t, ev);
            assert!(step.events.is_empty());
            upcalls.extend(step.upcalls.into_iter().map(|(_, u)| u));
        }
        (upcalls, comm.recovery_stats())
    }

    proptest! {
        /// `insert` answers as a `HashSet` does for every arrival, in
        /// any order: number `i + 1` arrives `copies` times (late
        /// originals, fabric duplicates), or — `copies == 0` — is given
        /// up and never arrives. Once everything has arrived or been
        /// given up the watermark has passed it all and nothing is
        /// kept beyond it.
        #[test]
        fn prop_seq_window_matches_hash_set_oracle(fates in proptest::collection::vec(
            (0u32..4, 0u32..1000, 0u32..1000), 1..60
        )) {
            let mut events = Vec::new();
            for (i, &(copies, k1, k2)) in fates.iter().enumerate() {
                let seq = i as u64 + 1;
                let keys = [k1, k2, k1 / 2 + k2 / 2];
                for &key in &keys[..copies.max(1) as usize] {
                    events.push((key, seq, copies == 0));
                }
            }
            events.sort_unstable();
            let (mut window, mut oracle) = (SeqWindow::default(), std::collections::HashSet::new());
            for (_, seq, given_up) in events {
                if given_up {
                    window.insert(seq);
                } else {
                    prop_assert_eq!(window.insert(seq), oracle.insert(seq));
                }
                prop_assert!(window.above.len() as u64 <= fates.len() as u64 - window.low);
            }
            prop_assert_eq!(window.low, fates.len() as u64);
            prop_assert!(window.above.is_empty());
        }
    }

    #[test]
    fn retransmit_and_late_original_dedupe_to_one_delivery() {
        let want = Upcall::DepositArrived {
            nic: NicId::new(1),
            tag: Tag::new(7),
            src: NicId::new(0),
        };
        let stats = RecoveryStats {
            retransmits: 1,
            duplicates_suppressed: 1,
            ..RecoveryStats::default()
        };
        assert_eq!(late_original(false), (vec![want], stats));
        assert_eq!(late_original(true), (vec![want], stats));
    }
}
