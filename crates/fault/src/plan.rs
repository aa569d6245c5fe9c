//! The declarative fault-plan DSL.

use genima_net::NicId;
use genima_sim::{Dur, Time};

/// What a targeted rule does to its matched packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetAction {
    /// Lose the packet (the sender's retry timer recovers it).
    Drop,
    /// Deliver the packet twice; the copy lags the original by `lag`.
    Duplicate {
        /// Extra latency of the duplicate beyond the first copy.
        lag: Dur,
    },
    /// Deliver the packet `extra` late (after the in-order clamp, so it
    /// genuinely reorders against later traffic on the same channel).
    Delay {
        /// Extra latency beyond the wire timing.
        extra: Dur,
    },
}

/// A rule that fires on exactly one packet: the `nth` sequenced packet
/// (counted from 1) ever sent on the `src → dst` channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TargetRule {
    pub(crate) src: NicId,
    pub(crate) dst: NicId,
    pub(crate) nth: u64,
    pub(crate) action: TargetAction,
}

/// A window during which one NI's firmware stalls before servicing
/// each delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StallWindow {
    pub(crate) nic: NicId,
    pub(crate) from: Time,
    pub(crate) until: Time,
    pub(crate) stall: Dur,
}

/// A window during which one node is unresponsive: every packet sent
/// *to* it is lost (retransmits included), so senders back off until
/// the node comes back — or give up if it never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outage {
    pub(crate) node: NicId,
    pub(crate) from: Time,
    pub(crate) until: Time,
}

/// A declarative description of everything that should go wrong in one
/// run. Built by chaining; compiled by
/// [`PlanInjector::new`](crate::PlanInjector::new).
///
/// Rule precedence per packet, most specific first:
///
/// 1. **Outage** — packets to a node inside an outage window are lost
///    unconditionally (a dead node cannot receive a lucky retransmit).
/// 2. **Targeted rules** — each fires once, on the first transmission
///    (`attempt == 0`) of its nth packet; retransmissions of that
///    packet are exempt so a `drop_nth` is always recoverable.
/// 3. **Probabilistic rates** — one uniform draw per packet, split
///    into drop / duplicate / delay bands.
///
/// # Example
///
/// ```
/// use genima_fault::{FaultPlan, TargetAction};
/// use genima_net::NicId;
/// use genima_sim::{Dur, Time};
///
/// let plan = FaultPlan::new()
///     .drop_rate(0.05)
///     .duplicate_rate(0.02)
///     .delay(0.10, Dur::from_us(300))
///     .drop_nth(NicId::new(0), NicId::new(1), 3)
///     .stall(NicId::new(2), Time::ZERO, Time::from_ns(1_000_000), Dur::from_us(25))
///     .outage(NicId::new(3), Time::from_ns(500_000), Time::from_ns(900_000));
/// assert!(plan.is_active());
/// assert!(!FaultPlan::none().is_active());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub(crate) drop_rate: f64,
    pub(crate) dup_rate: f64,
    pub(crate) delay_rate: f64,
    pub(crate) delay_max: Dur,
    pub(crate) targets: Vec<TargetRule>,
    pub(crate) stalls: Vec<StallWindow>,
    pub(crate) outages: Vec<Outage>,
}

impl FaultPlan {
    /// The identity plan: nothing ever goes wrong. An injector built
    /// from it is observationally equivalent to no injector at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            delay_max: Dur::from_us(500),
            targets: Vec::new(),
            stalls: Vec::new(),
            outages: Vec::new(),
        }
    }

    /// Starts an empty plan (alias of [`FaultPlan::none`], reads better
    /// at the head of a builder chain).
    pub fn new() -> FaultPlan {
        FaultPlan::none()
    }

    /// `true` when any rule or rate can perturb a run.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || !self.targets.is_empty()
            || !self.stalls.is_empty()
            || !self.outages.is_empty()
    }

    /// Loses each packet independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if the combined drop+duplicate+delay probability leaves
    /// `[0, 1]`.
    pub fn drop_rate(mut self, p: f64) -> FaultPlan {
        self.drop_rate = p;
        self.check_rates();
        self
    }

    /// Duplicates each packet independently with probability `p`; the
    /// copy lags the original by 100 µs.
    ///
    /// # Panics
    ///
    /// Panics if the combined drop+duplicate+delay probability leaves
    /// `[0, 1]`.
    pub fn duplicate_rate(mut self, p: f64) -> FaultPlan {
        self.dup_rate = p;
        self.check_rates();
        self
    }

    /// Delays each packet independently with probability `p` by a
    /// uniform extra in `[0, max]`.
    ///
    /// # Panics
    ///
    /// Panics if the combined drop+duplicate+delay probability leaves
    /// `[0, 1]`.
    pub fn delay(mut self, p: f64, max: Dur) -> FaultPlan {
        self.delay_rate = p;
        self.delay_max = max;
        self.check_rates();
        self
    }

    /// Drops the `nth` sequenced packet (counted from 1) on `src → dst`.
    /// Fires once, on the first transmission only, so the retransmit
    /// always recovers it.
    pub fn drop_nth(mut self, src: NicId, dst: NicId, nth: u64) -> FaultPlan {
        self.targets.push(TargetRule {
            src,
            dst,
            nth,
            action: TargetAction::Drop,
        });
        self
    }

    /// Duplicates the `nth` sequenced packet on `src → dst`; the copy
    /// arrives `lag` after the original.
    pub fn duplicate_nth(mut self, src: NicId, dst: NicId, nth: u64, lag: Dur) -> FaultPlan {
        self.targets.push(TargetRule {
            src,
            dst,
            nth,
            action: TargetAction::Duplicate { lag },
        });
        self
    }

    /// Delivers the `nth` sequenced packet on `src → dst` exactly
    /// `extra` late.
    pub fn delay_nth(mut self, src: NicId, dst: NicId, nth: u64, extra: Dur) -> FaultPlan {
        self.targets.push(TargetRule {
            src,
            dst,
            nth,
            action: TargetAction::Delay { extra },
        });
        self
    }

    /// Stalls `nic`'s firmware by `stall` before each delivery it
    /// services in the window `[from, until)` — a transient NI firmware
    /// hang.
    pub fn stall(mut self, nic: NicId, from: Time, until: Time, stall: Dur) -> FaultPlan {
        self.stalls.push(StallWindow {
            nic,
            from,
            until,
            stall,
        });
        self
    }

    /// Makes `node` unresponsive in `[from, until)`: every packet sent
    /// to it during the window is lost, including retransmissions.
    /// Senders whose backoff outlives the window recover; a window
    /// longer than the full retry budget surfaces `PeerUnreachable`.
    pub fn outage(mut self, node: NicId, from: Time, until: Time) -> FaultPlan {
        self.outages.push(Outage { node, from, until });
        self
    }

    fn check_rates(&self) {
        let total = self.drop_rate + self.dup_rate + self.delay_rate;
        assert!(
            self.drop_rate >= 0.0 && self.dup_rate >= 0.0 && self.delay_rate >= 0.0,
            "fault rates must be non-negative"
        );
        assert!(
            total <= 1.0,
            "combined drop+duplicate+delay probability {total} exceeds 1"
        );
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_default() {
        assert!(!FaultPlan::none().is_active());
        assert_eq!(FaultPlan::default(), FaultPlan::none());
    }

    #[test]
    fn any_rule_activates() {
        let a = NicId::new(0);
        let b = NicId::new(1);
        assert!(FaultPlan::new().drop_rate(0.01).is_active());
        assert!(FaultPlan::new().duplicate_rate(0.01).is_active());
        assert!(FaultPlan::new().delay(0.01, Dur::from_us(10)).is_active());
        assert!(FaultPlan::new().drop_nth(a, b, 1).is_active());
        assert!(FaultPlan::new()
            .stall(a, Time::ZERO, Time::from_ns(1), Dur::from_us(1))
            .is_active());
        assert!(FaultPlan::new()
            .outage(b, Time::ZERO, Time::from_ns(1))
            .is_active());
    }

    #[test]
    #[should_panic(expected = "exceeds 1")]
    fn rates_must_sum_below_one() {
        let plan = FaultPlan::new().drop_rate(0.6).duplicate_rate(0.5);
        drop(plan);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rates_must_be_non_negative() {
        let plan = FaultPlan::new().drop_rate(-0.1);
        drop(plan);
    }
}
