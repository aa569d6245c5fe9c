//! Compiling a [`FaultPlan`] into a live injector.

use std::cell::RefCell;
use std::rc::Rc;

use genima_net::{Fate, FaultInjector, NicId, PacketCtx};
use genima_sim::{Dur, RunSeed, SplitMix64, Time};

use crate::plan::{FaultPlan, Outage, TargetAction};

/// How far the copy of a probabilistically duplicated packet lags the
/// original.
const DUP_LAG: Dur = Dur::from_us(100);

/// Counters of what an injector actually did to a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Wire packets presented to the injector.
    pub packets: u64,
    /// Packets lost to the probabilistic drop rate.
    pub dropped: u64,
    /// Packets duplicated by the probabilistic duplicate rate.
    pub duplicated: u64,
    /// Packets delayed by the probabilistic delay rate.
    pub delayed: u64,
    /// Targeted nth-packet rules that fired.
    pub targeted: u64,
    /// Packets lost because their destination was in an outage window.
    pub outage_drops: u64,
    /// Firmware stalls imposed on deliveries.
    pub stalls: u64,
}

impl FaultStats {
    /// Total packets the injector perturbed in any way.
    pub fn perturbed(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.targeted + self.outage_drops
    }
}

/// Shared view of an injector's [`FaultStats`], still readable after
/// the injector itself is boxed into the communication layer.
pub type StatsHandle = Rc<RefCell<FaultStats>>;

/// A [`FaultInjector`] that executes a [`FaultPlan`] deterministically.
///
/// All randomness comes from two named [`RunSeed`] streams
/// (`"fault.fate"` and `"fault.delay"`), consulted in simulator event
/// order, so one `(plan, seed)` pair always reproduces the same faulty
/// schedule. The fate draw and the delay-amount draw use separate
/// streams so that changing a delay bound never changes *which* packets
/// fault.
///
/// # Example
///
/// ```
/// use genima_fault::{FaultPlan, PlanInjector};
/// use genima_sim::RunSeed;
///
/// let plan = FaultPlan::new().drop_rate(0.05);
/// let inj = PlanInjector::new(plan, RunSeed::new(42));
/// let stats = inj.stats_handle();
/// // ... box `inj` into the comm layer, run, then:
/// assert_eq!(stats.borrow().packets, 0);
/// ```
#[derive(Debug)]
pub struct PlanInjector {
    plan: FaultPlan,
    /// One draw per packet decides the drop/duplicate/delay band.
    fate_rng: SplitMix64,
    /// Draws for delay amounts.
    delay_rng: SplitMix64,
    /// Targeted rules already fired (parallel to `plan.targets`).
    fired: Vec<bool>,
    /// `plan.outages` compiled for the per-packet question, indexed by
    /// destination NIC.
    outages: Vec<OutageWindows>,
    stats: StatsHandle,
}

/// One NIC's outage windows as `(from, until)`, ascending by `from`,
/// each `until` raised to the latest of the windows up to it: windows
/// may overlap in a plan, and the running maximum makes "is some window
/// that has opened still open?" a question about one entry.
#[derive(Debug, Default)]
struct OutageWindows(Vec<(Time, Time)>);

impl OutageWindows {
    /// Compiles the plan's outages into one window list per NIC.
    fn per_nic(outages: &[Outage]) -> Vec<OutageWindows> {
        let nics = outages.iter().map(|o| o.node.index() + 1).max();
        let mut per_nic: Vec<OutageWindows> = Vec::new();
        per_nic.resize_with(nics.unwrap_or(0), OutageWindows::default);
        for o in outages {
            per_nic[o.node.index()].0.push((o.from, o.until));
        }
        for OutageWindows(windows) in &mut per_nic {
            windows.sort_by_key(|w| w.0);
            let mut latest = Time::ZERO;
            for w in windows {
                latest = latest.max(w.1);
                w.1 = latest;
            }
        }
        per_nic
    }

    /// `true` if some window holds `from <= now < until`.
    fn covers(&self, now: Time) -> bool {
        let opened = self.0.partition_point(|w| w.0 <= now);
        opened > 0 && now < self.0[opened - 1].1
    }
}

impl PlanInjector {
    /// Compiles `plan` under `seed`.
    pub fn new(plan: FaultPlan, seed: RunSeed) -> PlanInjector {
        let fired = vec![false; plan.targets.len()];
        PlanInjector {
            fate_rng: seed.stream("fault.fate"),
            delay_rng: seed.stream("fault.delay"),
            fired,
            outages: OutageWindows::per_nic(&plan.outages),
            plan,
            stats: Rc::new(RefCell::new(FaultStats::default())),
        }
    }

    /// A handle to the injector's live counters; keep it before boxing
    /// the injector into the communication layer.
    pub fn stats_handle(&self) -> StatsHandle {
        Rc::clone(&self.stats)
    }

    /// Snapshot of the counters so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.borrow()
    }

    /// Uniform draw in `[0, max]` from the delay stream.
    fn draw_delay(&mut self, max: Dur) -> Dur {
        if max.is_zero() {
            return Dur::ZERO;
        }
        Dur::from_ns(self.delay_rng.next_below(max.as_ns() + 1))
    }

    /// The first unfired targeted rule matching this first-transmission
    /// packet, marking it fired.
    fn take_target(&mut self, ctx: PacketCtx) -> Option<TargetAction> {
        if ctx.attempt != 0 {
            // Targeted rules hit first transmissions only; otherwise a
            // drop_nth rule would re-kill every retransmission of the
            // same sequence number and never be recoverable.
            return None;
        }
        for (i, rule) in self.plan.targets.iter().enumerate() {
            if !self.fired[i] && rule.src == ctx.src && rule.dst == ctx.dst && rule.nth == ctx.seq {
                self.fired[i] = true;
                return Some(rule.action);
            }
        }
        None
    }

    fn in_outage(&self, dst: NicId, now: Time) -> bool {
        (self.outages.get(dst.index())).is_some_and(|windows| windows.covers(now))
    }
}

impl FaultInjector for PlanInjector {
    fn fate(&mut self, ctx: PacketCtx) -> Fate {
        self.stats.borrow_mut().packets += 1;

        // 1. A node in an outage window receives nothing — not even a
        //    lucky retransmission.
        if self.in_outage(ctx.dst, ctx.now) {
            self.stats.borrow_mut().outage_drops += 1;
            return Fate::Drop;
        }

        // 2. Targeted nth-packet rules.
        if let Some(action) = self.take_target(ctx) {
            self.stats.borrow_mut().targeted += 1;
            return match action {
                TargetAction::Drop => Fate::Drop,
                TargetAction::Duplicate { lag } => Fate::Duplicate { lag },
                TargetAction::Delay { extra } => Fate::Deliver { extra },
            };
        }

        // 3. Probabilistic bands: one uniform draw split into
        //    [drop | duplicate | delay | clean].
        let x = self.fate_rng.next_f64();
        let drop_band = self.plan.drop_rate;
        let dup_band = drop_band + self.plan.dup_rate;
        let delay_band = dup_band + self.plan.delay_rate;
        if x < drop_band {
            self.stats.borrow_mut().dropped += 1;
            return Fate::Drop;
        }
        if x < dup_band {
            self.stats.borrow_mut().duplicated += 1;
            Fate::Duplicate { lag: DUP_LAG }
        } else if x < delay_band {
            self.stats.borrow_mut().delayed += 1;
            Fate::Deliver {
                extra: self.draw_delay(self.plan.delay_max),
            }
        } else {
            Fate::CLEAN
        }
    }

    fn recv_stall(&mut self, nic: NicId, now: Time) -> Dur {
        let stall: Dur = self
            .plan
            .stalls
            .iter()
            .filter(|w| w.nic == nic && w.from <= now && now < w.until)
            .map(|w| w.stall)
            .sum();
        if !stall.is_zero() {
            self.stats.borrow_mut().stalls += 1;
        }
        stall
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn ctx(src: usize, dst: usize, seq: u64, attempt: u32, now_ns: u64) -> PacketCtx {
        PacketCtx {
            src: NicId::new(src),
            dst: NicId::new(dst),
            bytes: 4096,
            seq,
            attempt,
            now: Time::from_ns(now_ns),
        }
    }

    #[test]
    fn none_plan_is_always_clean() {
        let mut inj = PlanInjector::new(FaultPlan::none(), RunSeed::new(1));
        for s in 1..1000 {
            assert_eq!(inj.fate(ctx(0, 1, s, 0, s)), Fate::CLEAN);
        }
        assert_eq!(inj.recv_stall(NicId::new(1), Time::ZERO), Dur::ZERO);
        let st = inj.stats();
        assert_eq!(st.packets, 999);
        assert_eq!(st.perturbed(), 0);
        assert_eq!(st.stalls, 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new()
            .drop_rate(0.2)
            .duplicate_rate(0.1)
            .delay(0.2, Dur::from_us(100));
        let mut a = PlanInjector::new(plan.clone(), RunSeed::new(7));
        let mut b = PlanInjector::new(plan.clone(), RunSeed::new(7));
        let mut c = PlanInjector::new(plan, RunSeed::new(8));
        let mut diverged = false;
        for s in 1..500 {
            let fa = a.fate(ctx(0, 1, s, 0, s));
            assert_eq!(fa, b.fate(ctx(0, 1, s, 0, s)));
            if fa != c.fate(ctx(0, 1, s, 0, s)) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must produce different schedules");
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut inj = PlanInjector::new(FaultPlan::new().drop_rate(0.1), RunSeed::new(3));
        let n = 20_000;
        for s in 1..=n {
            inj.fate(ctx(0, 1, s, 0, s));
        }
        let dropped = inj.stats().dropped;
        let expected = n / 10;
        assert!(
            dropped > expected / 2 && dropped < expected * 2,
            "dropped {dropped} of {n} at rate 0.1"
        );
    }

    #[test]
    fn targeted_drop_fires_once_and_spares_retransmits() {
        let a = NicId::new(0);
        let b = NicId::new(2);
        let mut inj = PlanInjector::new(FaultPlan::new().drop_nth(a, b, 3), RunSeed::new(5));
        assert_eq!(inj.fate(ctx(0, 2, 1, 0, 10)), Fate::CLEAN);
        assert_eq!(inj.fate(ctx(0, 2, 2, 0, 20)), Fate::CLEAN);
        assert!(inj.fate(ctx(0, 2, 3, 0, 30)).is_drop());
        // The retransmission of seq 3 must get through.
        assert_eq!(inj.fate(ctx(0, 2, 3, 1, 40)), Fate::CLEAN);
        // Other channels are untouched.
        assert_eq!(inj.fate(ctx(2, 0, 3, 0, 50)), Fate::CLEAN);
        assert_eq!(inj.stats().targeted, 1);
    }

    #[test]
    fn targeted_duplicate_and_delay_shapes() {
        let a = NicId::new(0);
        let b = NicId::new(1);
        let plan = FaultPlan::new()
            .duplicate_nth(a, b, 1, Dur::from_us(70))
            .delay_nth(a, b, 2, Dur::from_us(90));
        let mut inj = PlanInjector::new(plan, RunSeed::new(11));
        assert_eq!(
            inj.fate(ctx(0, 1, 1, 0, 1)),
            Fate::Duplicate {
                lag: Dur::from_us(70)
            }
        );
        assert_eq!(
            inj.fate(ctx(0, 1, 2, 0, 2)),
            Fate::Deliver {
                extra: Dur::from_us(90)
            }
        );
    }

    #[test]
    fn outage_window_drops_everything_then_recovers() {
        let victim = NicId::new(1);
        let plan = FaultPlan::new().outage(victim, Time::from_ns(100), Time::from_ns(200));
        let mut inj = PlanInjector::new(plan, RunSeed::new(9));
        assert_eq!(inj.fate(ctx(0, 1, 1, 0, 99)), Fate::CLEAN);
        assert!(inj.fate(ctx(0, 1, 2, 0, 100)).is_drop());
        // Retransmits inside the window die too.
        assert!(inj.fate(ctx(0, 1, 2, 1, 150)).is_drop());
        assert!(inj.fate(ctx(2, 1, 1, 0, 199)).is_drop());
        // After the window the node answers again.
        assert_eq!(inj.fate(ctx(0, 1, 2, 2, 200)), Fate::CLEAN);
        assert_eq!(inj.stats().outage_drops, 3);
        // Traffic to other nodes never faulted.
        assert_eq!(inj.fate(ctx(1, 0, 1, 0, 150)), Fate::CLEAN);
    }

    proptest! {
        /// The compiled windows answer as the scan of the plan they
        /// replaced does, on random overlapping (and empty) windows
        /// over three NICs, at every instant of the range — each
        /// window's own `from` and `until` among them — and for a NIC
        /// the plan never names.
        #[test]
        fn prop_in_outage_matches_the_linear_scan(
            windows in proptest::collection::vec((0usize..3, 0u64..40, 0u64..40), 0..12),
        ) {
            let plan = windows.iter().fold(FaultPlan::new(), |plan, &(nic, from, until)| {
                plan.outage(NicId::new(nic), Time::from_ns(from), Time::from_ns(until))
            });
            let scan = |dst: usize, now: u64| {
                windows.iter().any(|&(nic, from, until)| nic == dst && from <= now && now < until)
            };
            let inj = PlanInjector::new(plan, RunSeed::new(1));
            for dst in 0..4 {
                for now in 0..=40 {
                    prop_assert_eq!(
                        inj.in_outage(NicId::new(dst), Time::from_ns(now)),
                        scan(dst, now),
                        "nic {} at {} ns", dst, now
                    );
                }
            }
        }
    }

    #[test]
    fn stall_window_applies_only_inside() {
        let nic = NicId::new(2);
        let plan =
            FaultPlan::new().stall(nic, Time::from_ns(10), Time::from_ns(20), Dur::from_us(5));
        let mut inj = PlanInjector::new(plan, RunSeed::new(13));
        assert_eq!(inj.recv_stall(nic, Time::from_ns(9)), Dur::ZERO);
        assert_eq!(inj.recv_stall(nic, Time::from_ns(10)), Dur::from_us(5));
        assert_eq!(inj.recv_stall(nic, Time::from_ns(19)), Dur::from_us(5));
        assert_eq!(inj.recv_stall(nic, Time::from_ns(20)), Dur::ZERO);
        assert_eq!(inj.recv_stall(NicId::new(0), Time::from_ns(15)), Dur::ZERO);
        assert_eq!(inj.stats().stalls, 2);
    }

    #[test]
    fn stats_handle_outlives_boxing() {
        let inj = PlanInjector::new(FaultPlan::new().drop_rate(1.0), RunSeed::new(21));
        let handle = inj.stats_handle();
        let mut boxed: Box<dyn FaultInjector> = Box::new(inj);
        assert!(boxed.fate(ctx(0, 1, 1, 0, 1)).is_drop());
        assert_eq!(handle.borrow().dropped, 1);
    }
}
