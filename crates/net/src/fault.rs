//! Fault-injection hook points for the fabric and the NI firmware.
//!
//! The network and NIC models are deterministic and perfectly reliable
//! by construction. To exercise the protocol stack's recovery paths we
//! let a [`FaultInjector`] decide, at injection time, the *fate* of
//! every wire packet (deliver / drop / duplicate / delay) and any extra
//! stall the receiving firmware suffers. The hook is behind an
//! `Option`: when no injector is installed the models never consult
//! one, so the fault-free path stays bit-identical to a build without
//! this module.
//!
//! Implementations live in the `genima-fault` crate; this crate only
//! defines the trait (plus the inert [`NoFaults`]) so that `net` and
//! `nic` can accept injectors without depending on the DSL.

use genima_sim::{Dur, Time};

use crate::packet::NicId;

/// Identity of one wire packet presented to a fault injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCtx {
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Sequence number on the `(src, dst)` channel, counted from 1.
    /// Zero marks unsequenced local firmware hops, which never traverse
    /// the fabric and therefore cannot fault.
    pub seq: u64,
    /// Retransmission attempt: 0 for the first send, 1 for the first
    /// retransmit, and so on.
    pub attempt: u32,
    /// Simulated time the transfer was requested.
    pub now: Time,
}

/// What the fabric does to one packet, decided at injection time.
///
/// The model resolves each packet's fate when it is injected rather
/// than at delivery: acknowledgements are implicit (see DESIGN.md §11),
/// so a "lost ack" is expressed as [`Fate::Duplicate`] — the data
/// arrived but the sender retransmits anyway — and a lost packet simply
/// never schedules its delivery event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered, `extra` after the normal wire timing. [`Dur::ZERO`]
    /// is a clean delivery; anything larger models switch jitter or a
    /// slow path through the fabric, and because the extra delay is
    /// applied *after* the in-order clamp it produces genuine
    /// reordering relative to later packets on the same channel.
    Deliver {
        /// Extra latency beyond the contention-accurate wire timing.
        extra: Dur,
    },
    /// Lost after consuming wire bandwidth (the link still serialises
    /// the bits; the switch drops the packet).
    Drop,
    /// Delivered twice: the original on the wire timing and a copy
    /// `lag` after it. Models both fabric duplication and the lost-ack
    /// retransmit case.
    Duplicate {
        /// Latency of the duplicate beyond the first copy.
        lag: Dur,
    },
}

impl Fate {
    /// The unperturbed fate: deliver exactly on the wire timing.
    pub const CLEAN: Fate = Fate::Deliver { extra: Dur::ZERO };

    /// Returns `true` when the packet never reaches the destination.
    pub fn is_drop(self) -> bool {
        matches!(self, Fate::Drop)
    }
}

/// Decides the fate of each packet and each firmware service slot.
///
/// Implementations must be deterministic functions of their
/// construction seed and the call sequence: the simulator consults the
/// injector in event order, so a fixed seed reproduces the exact same
/// faulty schedule.
pub trait FaultInjector: std::fmt::Debug {
    /// Fate of one wire packet.
    fn fate(&mut self, ctx: PacketCtx) -> Fate;

    /// Extra stall imposed on `nic`'s firmware before it services a
    /// delivery at `now` (models transient NI firmware hangs). Return
    /// [`Dur::ZERO`] for no stall.
    fn recv_stall(&mut self, nic: NicId, now: Time) -> Dur;
}

/// The inert injector: never perturbs anything.
///
/// Installing `NoFaults` must be observationally identical to
/// installing no injector at all except for sequence-number
/// bookkeeping; `tests/fault_recovery.rs` asserts this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn fate(&mut self, _ctx: PacketCtx) -> Fate {
        Fate::CLEAN
    }

    fn recv_stall(&mut self, _nic: NicId, _now: Time) -> Dur {
        Dur::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_clean() {
        let mut inj = NoFaults;
        let ctx = PacketCtx {
            src: NicId::new(0),
            dst: NicId::new(1),
            bytes: 4096,
            seq: 1,
            attempt: 0,
            now: Time::ZERO,
        };
        assert_eq!(inj.fate(ctx), Fate::CLEAN);
        assert_eq!(inj.recv_stall(NicId::new(1), Time::ZERO), Dur::ZERO);
        assert!(!Fate::CLEAN.is_drop());
        assert!(Fate::Drop.is_drop());
    }
}
