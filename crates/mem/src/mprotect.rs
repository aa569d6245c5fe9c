//! The `mprotect` cost model.

use genima_sim::Dur;

/// Cost model for page-protection system calls.
///
/// The paper (§3.1) reports that a single-page `mprotect` costs a few
/// microseconds and that coalescing calls over consecutive pages
/// reduces the per-page cost; Table 2 shows `mprotect` accounting for
/// up to half of all SVM overhead (Radix). The model charges a fixed
/// per-call cost plus a smaller per-additional-page cost for coalesced
/// ranges.
///
/// # Example
///
/// ```
/// use genima_mem::MprotectModel;
/// let m = MprotectModel::default();
/// let one = m.cost(1);
/// let eight = m.cost(8);
/// assert!(eight < one * 8, "coalescing must amortise");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MprotectModel {
    /// Cost of one call covering a single page (trap + kernel work).
    pub single: Dur,
    /// Incremental cost per additional consecutive page in a coalesced
    /// call (PTE update + TLB shootdown share).
    pub per_extra_page: Dur,
}

impl MprotectModel {
    /// Parameters calibrated to the paper's Linux 2.0-era measurements.
    pub fn linux_ppro() -> MprotectModel {
        MprotectModel {
            single: Dur::from_us(8),
            per_extra_page: Dur::from_us_f64(1.5),
        }
    }

    /// Cost of one coalesced call covering `pages` consecutive pages.
    /// Zero pages cost nothing.
    pub fn cost(&self, pages: usize) -> Dur {
        match pages {
            0 => Dur::ZERO,
            n => self.single + self.per_extra_page * (n as u64 - 1),
        }
    }

    /// Cost of changing the protection of `total` pages grouped into
    /// `calls` coalesced ranges (the protocol tracks contiguity and
    /// coalesces consecutive pages into single calls, §3.1). Both
    /// directions are priced here: the re-protect at an interval's
    /// close and invalidation, and, on GeNIMA-2025, the re-open of a
    /// run of home pages at its first write fault.
    ///
    /// # Panics
    ///
    /// Panics if `calls > total` or (`calls == 0` while `total > 0`).
    pub fn cost_grouped(&self, total: usize, calls: usize) -> Dur {
        if total == 0 {
            return Dur::ZERO;
        }
        assert!(
            calls >= 1 && calls <= total,
            "invalid grouping {calls}/{total}"
        );
        self.single * calls as u64 + self.per_extra_page * (total - calls) as u64
    }
}

impl Default for MprotectModel {
    fn default() -> Self {
        MprotectModel::linux_ppro()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_pages_free() {
        assert_eq!(MprotectModel::default().cost(0), Dur::ZERO);
        assert_eq!(MprotectModel::default().cost_grouped(0, 0), Dur::ZERO);
    }

    #[test]
    fn single_page_cost() {
        let m = MprotectModel::default();
        assert_eq!(m.cost(1), Dur::from_us(8));
    }

    #[test]
    fn coalescing_amortises() {
        let m = MprotectModel::default();
        assert_eq!(m.cost(3), Dur::from_us(8) + Dur::from_us(3));
        // 8 pages coalesced: 8 + 7*1.5 = 18.5us, vs 64us separate.
        assert!(m.cost(8) < m.cost(1) * 8 / 3);
    }

    #[test]
    fn grouped_cost_matches_sum_of_calls() {
        let m = MprotectModel::default();
        // 10 pages in 2 calls of 5: 2*(8 + 4*1.5) = 28us.
        assert_eq!(m.cost_grouped(10, 2), m.cost(5) * 2);
        // 10 pages in 10 calls: 10 singles.
        assert_eq!(m.cost_grouped(10, 10), m.cost(1) * 10);
    }

    #[test]
    #[should_panic(expected = "invalid grouping")]
    fn bad_grouping_panics() {
        MprotectModel::default().cost_grouped(2, 3);
    }
}
