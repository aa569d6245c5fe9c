//! The crossbar network timing model.

use genima_sim::{Dur, Resource, Time};

use crate::config::NetConfig;
use crate::fault::{Fate, FaultInjector, PacketCtx};
use crate::packet::NicId;

/// Wire-level timing of one packet transfer, as computed by
/// [`Network::transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTiming {
    /// When the packet acquired its injection link (head on the wire).
    pub inject_start: Time,
    /// When the last word left the source NIC.
    pub inject_end: Time,
    /// When the last word arrived at the destination NIC.
    pub deliver: Time,
}

impl NetTiming {
    /// Total time the packet spent in the network fabric, measured from
    /// the moment the transfer was requested.
    pub fn residency(&self, requested: Time) -> Dur {
        self.deliver.saturating_since(requested)
    }
}

/// A single-crossbar system-area network with in-order delivery
/// between every pair of network interfaces.
///
/// # Example
///
/// ```
/// use genima_net::{NetConfig, Network, NicId};
/// use genima_sim::Time;
///
/// let mut net = Network::new(NetConfig::myrinet(), 4);
/// let t = net.transfer(Time::ZERO, NicId::new(0), NicId::new(1), 4096);
/// assert!(t.deliver > t.inject_end);
/// ```
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    inject: Vec<Resource>,
    out_port: Vec<Resource>,
    last_delivery: Vec<Time>, // indexed src * ports + dst
    ports: usize,
}

impl Network {
    /// Creates a network with `ports` NIC attachment points.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(cfg: NetConfig, ports: usize) -> Network {
        assert!(ports > 0, "network needs at least one port");
        Network {
            cfg,
            inject: (0..ports).map(|_| Resource::new("inject-link")).collect(),
            out_port: (0..ports).map(|_| Resource::new("switch-out")).collect(),
            last_delivery: vec![Time::ZERO; ports * ports],
            ports,
        }
    }

    /// The configured timing parameters.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Number of attachment points.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Moves one packet of `payload` bytes from `src` to `dst`,
    /// starting no earlier than `now`, and returns the wire timing.
    ///
    /// Delivery between any given `(src, dst)` pair is in order: a
    /// later call with the same pair never yields an earlier
    /// `deliver` time.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds the configured maximum packet size,
    /// if `src == dst` (intra-node traffic never enters the network),
    /// or if either id is out of range.
    pub fn transfer(&mut self, now: Time, src: NicId, dst: NicId, payload: u32) -> NetTiming {
        assert!(
            payload <= self.cfg.max_packet,
            "payload {payload} exceeds max packet {}",
            self.cfg.max_packet
        );
        assert_ne!(src, dst, "loopback traffic does not use the network");
        let wire = self.cfg.wire_time(payload);

        // Injection link: FIFO per source.
        let (inj_start, inj_end) = self.inject[src.index()].reserve(now, wire);

        // Cut-through: the head reaches the switch after the fixed
        // switch latency; the output port then serialises the packet
        // onto the ejection link.
        let head_at_switch = inj_start + self.cfg.switch_latency;
        let (_, out_end) = self.out_port[dst.index()].reserve(head_at_switch, wire);

        // In-order per pair: never deliver before a previously
        // delivered packet of the same (src, dst) pair.
        let slot = src.index() * self.ports + dst.index();
        let deliver = out_end.max(self.last_delivery[slot]);
        self.last_delivery[slot] = deliver;

        NetTiming {
            inject_start: inj_start,
            inject_end: inj_end,
            deliver,
        }
    }

    /// Like [`Network::transfer`], but additionally consults a
    /// [`FaultInjector`] for the packet's [`Fate`].
    ///
    /// The wire timing is always charged — a dropped packet still
    /// serialises onto its links before the switch loses it — and any
    /// extra delay in the fate is applied by the caller *after* the
    /// in-order clamp, so delayed packets genuinely reorder against
    /// later traffic on the same channel.
    pub fn transfer_with(
        &mut self,
        ctx: PacketCtx,
        injector: &mut dyn FaultInjector,
    ) -> (NetTiming, Fate) {
        let timing = self.transfer(ctx.now, ctx.src, ctx.dst, ctx.bytes);
        let fate = injector.fate(ctx);
        (timing, fate)
    }

    /// Uncontended fabric traversal time for `payload` bytes: what the
    /// transfer would take on an idle network (used by the firmware
    /// monitor to compute contention ratios).
    pub fn uncontended(&self, payload: u32) -> Dur {
        // Cut-through: one wire time (the two link crossings overlap)
        // plus the switch latency.
        self.cfg.wire_time(payload) + self.cfg.switch_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetConfig::myrinet(), 4)
    }

    #[test]
    fn uncontended_transfer_is_wire_plus_switch() {
        let mut n = net();
        let t = n.transfer(Time::ZERO, NicId::new(0), NicId::new(1), 1024);
        let wire = n.config().wire_time(1024);
        assert_eq!(t.inject_start, Time::ZERO);
        assert_eq!(t.inject_end, Time::ZERO + wire);
        assert_eq!(t.deliver, Time::ZERO + wire + n.config().switch_latency);
        assert_eq!(t.residency(Time::ZERO), n.uncontended(1024));
    }

    #[test]
    fn same_pair_delivers_in_order() {
        let mut n = net();
        let a = n.transfer(Time::ZERO, NicId::new(0), NicId::new(1), 4096);
        let b = n.transfer(Time::ZERO, NicId::new(0), NicId::new(1), 4);
        assert!(b.deliver >= a.deliver, "small packet must not overtake");
        assert!(b.inject_start >= a.inject_end, "injection link is FIFO");
    }

    #[test]
    fn output_port_contention_from_two_sources() {
        let mut n = net();
        let a = n.transfer(Time::ZERO, NicId::new(0), NicId::new(2), 4096);
        let b = n.transfer(Time::ZERO, NicId::new(1), NicId::new(2), 4096);
        // Both head for port 2; the second serialises behind the first.
        assert!(b.deliver > a.deliver);
        let wire = n.config().wire_time(4096);
        assert!(b.deliver.saturating_since(a.deliver) >= wire);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut n = net();
        let a = n.transfer(Time::ZERO, NicId::new(0), NicId::new(1), 4096);
        let b = n.transfer(Time::ZERO, NicId::new(2), NicId::new(3), 4096);
        assert_eq!(
            a.deliver, b.deliver,
            "crossbar carries disjoint pairs in parallel"
        );
    }

    #[test]
    fn transfer_with_charges_wire_time_even_for_drops() {
        use crate::fault::{Fate, FaultInjector, NoFaults, PacketCtx};

        #[derive(Debug)]
        struct DropAll;
        impl FaultInjector for DropAll {
            fn fate(&mut self, _ctx: PacketCtx) -> Fate {
                Fate::Drop
            }
            fn recv_stall(&mut self, _nic: NicId, _now: Time) -> Dur {
                Dur::ZERO
            }
        }

        let mut n = net();
        let ctx = |seq| PacketCtx {
            src: NicId::new(0),
            dst: NicId::new(1),
            bytes: 4096,
            seq,
            attempt: 0,
            now: Time::ZERO,
        };
        let (t1, f1) = n.transfer_with(ctx(1), &mut DropAll);
        assert!(f1.is_drop());
        // The drop still consumed the injection link: a follow-up clean
        // packet queues behind it.
        let (t2, f2) = n.transfer_with(ctx(2), &mut NoFaults);
        assert_eq!(f2, Fate::CLEAN);
        assert!(t2.inject_start >= t1.inject_end);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_panics() {
        net().transfer(Time::ZERO, NicId::new(1), NicId::new(1), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds max packet")]
    fn oversized_packet_panics() {
        net().transfer(Time::ZERO, NicId::new(0), NicId::new(1), 8192);
    }
}
