//! Protocol feature sets — the paper's cumulative ladder of variants.

use std::fmt;

/// Which NI mechanisms the protocol exploits (§2 of the paper): one
/// rung of a cumulative ladder, Base < DW < DW+RF < DW+RF+DD < GeNIMA
/// < GeNIMA-2025.
///
/// Each rung adds one mechanism to the rung below it, so every
/// protocol choice is a predicate of the rung, monotone along the
/// order, and no combination outside the ladder can be built. The
/// paper's constraints hold by construction: direct diffs come after
/// remote fetch (without it the home host never learns when queued
/// page requests can be served), and NI locks come after eager
/// notices and direct diffs (with firmware-granted locks no host ever
/// services an incoming acquire, so coherence information and diffs
/// must already travel eagerly).
///
/// # Example
///
/// ```
/// use genima_proto::FeatureSet;
/// let g = FeatureSet::genima();
/// assert!(g.eager_notices() && g.remote_fetch() && g.direct_diffs() && g.ni_locks());
/// assert!(!g.home_writes_in_place());
/// assert!(g < FeatureSet::genima_2025());
/// assert_eq!(g.name(), "GeNIMA");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureSet(Rung);

/// The rungs, in ladder order (the derived `Ord` is the ladder's).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Rung {
    Base,
    Dw,
    DwRf,
    DwRfDd,
    Genima,
    Genima2025,
}

impl FeatureSet {
    /// The Base protocol: HLRC-SMP, all asynchronous requests handled
    /// with interrupts.
    pub const fn base() -> FeatureSet {
        FeatureSet(Rung::Base)
    }

    /// Direct writes to remote protocol data structures (DW).
    pub const fn dw() -> FeatureSet {
        FeatureSet(Rung::Dw)
    }

    /// DW plus remote fetch of pages and timestamps (DW+RF).
    pub const fn dw_rf() -> FeatureSet {
        FeatureSet(Rung::DwRf)
    }

    /// DW+RF plus direct diffs (DW+RF+DD).
    pub const fn dw_rf_dd() -> FeatureSet {
        FeatureSet(Rung::DwRfDd)
    }

    /// The full GeNIMA protocol: DW+RF+DD plus NI locks. No interrupts
    /// or asynchronous protocol processing remain.
    pub const fn genima() -> FeatureSet {
        FeatureSet(Rung::Genima)
    }

    /// GeNIMA as an RDMA NIC prices it: the lock is handed over before
    /// the releaser diffs, and writes at a page's home go into the
    /// home copy in place (DESIGN.md §10). Needs RDMA hardware.
    pub const fn genima_2025() -> FeatureSet {
        FeatureSet(Rung::Genima2025)
    }

    /// The paper's five protocol columns, in evaluation order.
    pub const ALL: [FeatureSet; 5] = [
        FeatureSet::base(),
        FeatureSet::dw(),
        FeatureSet::dw_rf(),
        FeatureSet::dw_rf_dd(),
        FeatureSet::genima(),
    ];

    /// The rung's display name.
    pub fn name(self) -> &'static str {
        match self.0 {
            Rung::Base => "Base",
            Rung::Dw => "DW",
            Rung::DwRf => "DW+RF",
            Rung::DwRfDd => "DW+RF+DD",
            Rung::Genima => "GeNIMA",
            Rung::Genima2025 => "GeNIMA-2025",
        }
    }

    /// Remote deposit for protocol data: eager, sender-initiated write
    /// notice propagation at releases (DW).
    pub const fn eager_notices(self) -> bool {
        match self.0 {
            Rung::Base => false,
            Rung::Dw | Rung::DwRf | Rung::DwRfDd | Rung::Genima | Rung::Genima2025 => true,
        }
    }

    /// Remote fetch of pages and their timestamps, with requester-side
    /// retry (RF).
    pub const fn remote_fetch(self) -> bool {
        match self.0 {
            Rung::Base | Rung::Dw => false,
            Rung::DwRf | Rung::DwRfDd | Rung::Genima | Rung::Genima2025 => true,
        }
    }

    /// Direct diffs: one remote deposit per contiguous modified run,
    /// computed eagerly at release points (DD).
    pub const fn direct_diffs(self) -> bool {
        match self.0 {
            Rung::Base | Rung::Dw | Rung::DwRf => false,
            Rung::DwRfDd | Rung::Genima | Rung::Genima2025 => true,
        }
    }

    /// NI locks: mutual exclusion handled entirely by the NI (NIL).
    pub const fn ni_locks(self) -> bool {
        match self.0 {
            Rung::Base | Rung::Dw | Rung::DwRf | Rung::DwRfDd => false,
            Rung::Genima | Rung::Genima2025 => true,
        }
    }

    /// `true` when no interrupt-driven asynchronous protocol
    /// processing remains (the full GeNIMA property).
    pub const fn interrupt_free(self) -> bool {
        self.eager_notices() && self.remote_fetch() && self.direct_diffs() && self.ni_locks()
    }

    /// Whether a release hands the lock over *before* the releaser
    /// diffs and re-protects. The paper's order diffs at every release
    /// before the lock is given up (§2), critical-section dilation
    /// included, because a refetch at LANai prices costs more than the
    /// wait. On an RNIC a refetch is one short round trip, so the
    /// critical section ends at the release and the version check on
    /// every fetched copy orders the diffs (DESIGN.md §10.1).
    pub const fn hands_over_first(self) -> bool {
        match self.0 {
            Rung::Base | Rung::Dw | Rung::DwRf | Rung::DwRfDd | Rung::Genima => false,
            Rung::Genima2025 => true,
        }
    }

    /// Whether a write made at a page's home goes into the home copy
    /// in place — HLRC's rule: no twin, no diff, no apply; closing the
    /// interval raises the home copy's version (DESIGN.md §10.2). The
    /// paper's rungs, calibrated to its breakdowns, twin and diff a
    /// home write like any other writer's.
    pub const fn home_writes_in_place(self) -> bool {
        match self.0 {
            Rung::Base | Rung::Dw | Rung::DwRf | Rung::DwRfDd | Rung::Genima => false,
            Rung::Genima2025 => true,
        }
    }
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rung, in ladder order.
    const LADDER: [FeatureSet; 6] = [
        FeatureSet::base(),
        FeatureSet::dw(),
        FeatureSet::dw_rf(),
        FeatureSet::dw_rf_dd(),
        FeatureSet::genima(),
        FeatureSet::genima_2025(),
    ];

    #[test]
    fn names_match_paper_columns() {
        let names: Vec<&str> = FeatureSet::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["Base", "DW", "DW+RF", "DW+RF+DD", "GeNIMA"]);
        assert_eq!(FeatureSet::ALL, LADDER[..5]);
    }

    /// Each rung is above the last, and every predicate, once true,
    /// stays true up the ladder.
    #[test]
    fn variants_are_cumulative() {
        type Predicate = (&'static str, fn(FeatureSet) -> bool);
        let predicates: [Predicate; 7] = [
            ("eager_notices", FeatureSet::eager_notices),
            ("remote_fetch", FeatureSet::remote_fetch),
            ("direct_diffs", FeatureSet::direct_diffs),
            ("ni_locks", FeatureSet::ni_locks),
            ("interrupt_free", FeatureSet::interrupt_free),
            ("hands_over_first", FeatureSet::hands_over_first),
            ("home_writes_in_place", FeatureSet::home_writes_in_place),
        ];
        for w in LADDER.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(a < b, "{a} below {b}");
            for (name, holds) in predicates {
                assert!(!holds(a) || holds(b), "{name} holds on {a} but not on {b}");
            }
        }
        // No predicate is dead: each holds from some rung up.
        for (name, holds) in predicates {
            assert!(LADDER.iter().any(|&f| holds(f)), "{name} holds on no rung");
        }
    }

    #[test]
    fn only_genima_is_interrupt_free() {
        for f in FeatureSet::ALL {
            assert_eq!(f.interrupt_free(), f.name() == "GeNIMA");
        }
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(FeatureSet::genima().to_string(), "GeNIMA");
        assert_eq!(FeatureSet::base().to_string(), "Base");
        assert_eq!(FeatureSet::genima_2025().to_string(), "GeNIMA-2025");
    }
}
