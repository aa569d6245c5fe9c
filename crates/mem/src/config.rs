//! Memory-system cost parameters.

use genima_sim::Dur;

use crate::bus::BusModel;
use crate::mprotect::MprotectModel;

/// Host-side memory operation costs for the SVM protocol.
///
/// Calibrated against the paper's 200 MHz Pentium Pro nodes: page
/// copies and diff scans run at host `memcpy`-class bandwidth, and
/// protection changes use the measured `mprotect` costs.
///
/// # Example
///
/// ```
/// use genima_mem::MemConfig;
/// let cfg = MemConfig::default();
/// assert!(cfg.twin_copy.as_us() > 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Cost to create a twin (copy one 4 KB page).
    pub twin_copy: Dur,
    /// Cost to scan one page against its twin when computing a diff.
    pub diff_scan: Dur,
    /// Additional cost per contiguous modified run found in a diff
    /// (bookkeeping, message formatting).
    pub diff_per_run: Dur,
    /// Cost for the home to apply one packed diff message to a page
    /// (unpack plus scattered writes), excluding the interrupt.
    pub diff_apply: Dur,
    /// `mprotect` cost model.
    pub mprotect: MprotectModel,
    /// SMP memory-bus model.
    pub bus: BusModel,
}

impl MemConfig {
    /// Parameters of the paper's Pentium Pro quad-SMP nodes.
    pub fn pentium_pro() -> MemConfig {
        MemConfig {
            twin_copy: Dur::from_us(12),
            diff_scan: Dur::from_us(15),
            diff_per_run: Dur::from_ns(500),
            diff_apply: Dur::from_us(10),
            mprotect: MprotectModel::linux_ppro(),
            bus: BusModel::pentium_pro_fsb(),
        }
    }

    /// Cost to compute a diff with `runs` modified runs.
    pub fn diff_cost(&self, runs: usize) -> Dur {
        self.diff_scan + self.diff_per_run * runs as u64
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::pentium_pro()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_cost_grows_with_runs() {
        let cfg = MemConfig::default();
        assert!(cfg.diff_cost(100) > cfg.diff_cost(1));
        assert_eq!(cfg.diff_cost(0), cfg.diff_scan);
    }

    #[test]
    fn default_is_pentium_pro() {
        assert_eq!(MemConfig::default(), MemConfig::pentium_pro());
    }
}
