//! The SMP memory-bus contention model.

/// Analytic model of the shared memory bus inside one SMP node.
///
/// The paper observes (§3.4) that for FFT and Ocean the aggregate
/// compute time *increases* in the parallel run because the misses of
/// the four processors in each node contend on the SMP memory bus.
/// We reproduce that effect with an M/M/1-flavoured dilation: given
/// the aggregate miss bandwidth the co-scheduled processes demand,
/// compute time is stretched by `1 / (1 - utilisation)` up to a cap.
///
/// # Example
///
/// ```
/// use genima_mem::BusModel;
/// let bus = BusModel::pentium_pro_fsb();
/// assert_eq!(bus.dilation(0), 1.0);
/// assert!(bus.dilation(400_000_000) > 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusModel {
    /// Sustained bus bandwidth in bytes per second.
    pub bandwidth: u64,
    /// Upper bound on the dilation factor (the bus saturates rather
    /// than diverging).
    pub max_dilation: f64,
}

impl BusModel {
    /// The 66 MHz Pentium Pro front-side bus: ~528 MB/s peak, ~500 MB/s
    /// sustained.
    pub fn pentium_pro_fsb() -> BusModel {
        BusModel {
            bandwidth: 500_000_000,
            max_dilation: 4.0,
        }
    }

    /// Compute-time dilation factor for an aggregate demand of
    /// `bytes_per_sec` from all processors in the node.
    pub fn dilation(&self, bytes_per_sec: u64) -> f64 {
        let u = bytes_per_sec as f64 / self.bandwidth as f64;
        if u >= 1.0 {
            return self.max_dilation;
        }
        // Queueing delay grows as u/(1-u); only the memory-stall share
        // of compute time is affected, which the caller encodes in its
        // demand estimate. A gentle knee below 60% utilisation keeps
        // uncontended runs unaffected.
        let d = 1.0 / (1.0 - u * u);
        d.min(self.max_dilation)
    }
}

impl Default for BusModel {
    fn default() -> Self {
        BusModel::pentium_pro_fsb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_demand_no_dilation() {
        assert_eq!(BusModel::default().dilation(0), 1.0);
    }

    #[test]
    fn dilation_is_monotonic() {
        let bus = BusModel::default();
        let mut prev = 0.0;
        for d in [0u64, 100, 200, 300, 400, 500, 600, 800].map(|m| m * 1_000_000) {
            let f = bus.dilation(d);
            assert!(f >= prev, "dilation must not decrease");
            prev = f;
        }
    }

    #[test]
    fn dilation_is_capped() {
        let bus = BusModel::default();
        assert!(bus.dilation(50_000_000_000) <= bus.max_dilation);
    }

    #[test]
    fn light_load_nearly_free() {
        let bus = BusModel::default();
        let f = bus.dilation(50_000_000); // 10% utilisation
        assert!(f < 1.05, "10% load should barely dilate, got {f}");
    }
}
