//! Evaluation columns: a protocol feature set paired with a hardware
//! generation.

use std::fmt;

use genima_rnic::HwProfile;

use crate::config::{BarrierImpl, ProtoConfig};
use crate::features::FeatureSet;
use crate::ids::Topology;
use crate::system::SvmParams;

/// One column of the evaluation: a rung of the protocol ladder
/// ([`FeatureSet`]) on a generation of hardware ([`HwProfile`]). The
/// paper's five columns run its five rungs on the 1999 LANai; the
/// sixth runs the GeNIMA-2025 rung on a 2025 RNIC. Every protocol
/// choice is the rung's; the hardware decides only the lock
/// *primitive*, which is its board's
/// ([`Board`](genima_rnic::Board): the firmware chain on the LANai,
/// masked CAS on the home cell on the RNIC, which has no firmware to
/// run a chain), and what each operation costs.
///
/// # Example
///
/// ```
/// use genima_proto::Column;
/// let names: Vec<&str> = Column::all().iter().map(|c| c.name()).collect();
/// assert_eq!(
///     names,
///     vec!["Base", "DW", "DW+RF", "DW+RF+DD", "GeNIMA", "GeNIMA-2025"]
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Column {
    /// Which NI mechanisms the protocol exploits.
    pub features: FeatureSet,
    /// Hardware generation the column runs on.
    pub hw: HwProfile,
}

impl Column {
    /// A 1999-testbed column for the given feature set.
    pub fn lanai(features: FeatureSet) -> Column {
        Column {
            features,
            hw: HwProfile::lanai_1999(),
        }
    }

    /// The sixth column: the GeNIMA-2025 rung on 2025 RDMA hardware,
    /// whose board's lock primitive is masked CAS (firmware lock state
    /// machines have no 2025 analogue; NIC-level atomics do).
    pub fn genima_2025() -> Column {
        Column {
            features: FeatureSet::genima_2025(),
            hw: HwProfile::rnic_2025(),
        }
    }

    /// The six evaluation columns, in display order: the paper's five
    /// on the 1999 LANai, then GeNIMA-2025.
    pub fn all() -> [Column; 6] {
        [
            Column::lanai(FeatureSet::base()),
            Column::lanai(FeatureSet::dw()),
            Column::lanai(FeatureSet::dw_rf()),
            Column::lanai(FeatureSet::dw_rf_dd()),
            Column::lanai(FeatureSet::genima()),
            Column::genima_2025(),
        ]
    }

    /// Stable display name: the rung's.
    pub fn name(&self) -> &'static str {
        self.features.name()
    }

    /// Paper-calibrated parameters for this column on `topo`: the one
    /// place the hardware profile enters a run.
    ///
    /// # Panics
    ///
    /// Panics if the GeNIMA-2025 rung is paired with hardware that
    /// has no RDMA NIC: its release order and in-place home writes
    /// are priced for one.
    pub fn params(&self, topo: Topology) -> SvmParams {
        assert!(
            self.features != FeatureSet::genima_2025() || self.hw.is_rdma(),
            "the GeNIMA-2025 rung needs RDMA hardware, not {}",
            self.hw.name
        );
        // The interrupt-free column gets the NI barrier by default —
        // it is the last piece of asynchronous protocol processing the
        // host otherwise retains. Every other column keeps the node-0
        // manager so the ablation isolates the NI-barrier axis.
        let barrier = if self.features.interrupt_free() {
            BarrierImpl::NiTree { fanout: 4 }
        } else {
            BarrierImpl::HostManager
        };
        SvmParams {
            topo,
            features: self.features,
            barrier,
            proto: ProtoConfig::paper(),
            hw: self.hw,
            locks: 64,
            data_mode: false,
            warmup_barrier: None,
            // The aggregate demand one compute processor puts on its
            // node bus while computing; workloads set their own.
            bus_demand_per_proc: 40_000_000,
            first_touch_homes: false,
            degraded: false,
            max_events: 200_000_000,
        }
    }

    /// Finds a column by its display name (used by CLI tools).
    pub fn by_name(name: &str) -> Option<Column> {
        Column::all().into_iter().find(|c| c.name() == name)
    }
}

/// A bare feature set names its column — a paper rung on the 1999
/// testbed, GeNIMA-2025 on its RNIC — so the run entry points take
/// either.
impl From<FeatureSet> for Column {
    fn from(features: FeatureSet) -> Column {
        if features == FeatureSet::genima_2025() {
            Column::genima_2025()
        } else {
            Column::lanai(features)
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use genima_mem::MemConfig;
    use genima_nic::{LanaiConfig, LockImpl};
    use genima_rnic::Board;

    use super::*;
    use crate::system::LockStrategy::{self, *};

    #[test]
    fn six_columns_with_unique_names() {
        let mut names: Vec<&str> = Column::all().iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn each_column_takes_its_lock_strategy_from_its_board() {
        let topo = Topology::new(4, 2);
        let [base, dw, dw_rf, dw_rf_dd, genima, genima_2025] = Column::all();
        // The LANai remote-atomics ablation of `bench paper`.
        let mut atomics = genima;
        atomics.hw.board = Board::Lanai(LanaiConfig {
            lock_impl: LockImpl::RemoteAtomics,
            ..LanaiConfig::paper()
        });
        let table = [
            (base, HostChain),
            (dw, HostChain),
            (dw_rf, HostChain),
            (dw_rf_dd, HostChain),
            (genima, NiChain),
            (atomics, AtomicSwapSpin),
            (genima_2025, AtomicCasWait),
        ];
        for (c, want) in table {
            let p = c.params(topo);
            // Every column's run gets its profile whole, host included.
            assert_eq!(p.hw, c.hw, "{c}");
            assert_eq!(c.hw.host, MemConfig::pentium_pro(), "{c}");
            assert_eq!(LockStrategy::of(&p), want, "{c} on {}", c.hw.name);
        }
    }

    #[test]
    #[should_panic(expected = "the GeNIMA-2025 rung needs RDMA hardware")]
    fn the_2025_rung_needs_rdma_hardware() {
        let column = Column {
            features: FeatureSet::genima_2025(),
            hw: HwProfile::lanai_1999(),
        };
        column.params(Topology::new(2, 1));
    }

    #[test]
    fn a_bare_feature_set_names_its_column() {
        for (f, c) in FeatureSet::ALL.into_iter().zip(Column::all()) {
            assert_eq!(Column::from(f), c);
        }
        assert_eq!(
            Column::from(FeatureSet::genima_2025()),
            Column::genima_2025()
        );
    }

    #[test]
    fn by_name_round_trips() {
        for c in Column::all() {
            assert_eq!(Column::by_name(c.name()), Some(c));
        }
        assert_eq!(Column::by_name("nope"), None);
    }
}
