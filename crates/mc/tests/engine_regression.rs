//! Engine-rewrite regression gate for the controlled-scheduler seam.
//!
//! The timing-wheel `EventQueue` must give the model checker exactly
//! the view the `BinaryHeap` did: `iter_pending` exposing every entry,
//! `remove_clamped` preserving `now`/`delivered` accounting, and the
//! FIFO replay order bit-identical. The golden numbers below were
//! captured on the pre-pass heap engine.
//!
//! Regenerate with:
//! `GOLDEN_PRINT=1 cargo test -p genima-mc --test engine_regression -- --nocapture`

use genima_mc::{litmus, Config, Explorer};
use genima_proto::{Column, FeatureSet};
use genima_sim::{fnv1a, FNV_OFFSET};

/// Pre-pass golden values: (litmus, column, schedules, steps_total,
/// FNV-1a over the FIFO replay's "key label" lines).
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("mp", "Base", 2337, 69373, 0x9745c8c6e22df2bb),
    ("mp", "GeNIMA", 18879, 635856, 0xc2c11c104804c315),
    ("lost-update", "DW+RF+DD", 112, 3304, 0x68e7f2bedddc24c0),
    ("mono", "GeNIMA-2025", 2960, 83413, 0xfc44663a789dec0d),
];

#[test]
fn schedule_counts_and_fifo_replay_match_the_heap_engine() {
    let cells = [
        ("mp", Column::lanai(FeatureSet::base())),
        ("mp", Column::lanai(FeatureSet::genima())),
        ("lost-update", Column::lanai(FeatureSet::dw_rf_dd())),
        ("mono", Column::genima_2025()),
    ];
    let mut got = Vec::new();
    for (name, column) in cells {
        let l = litmus::by_name(name).expect("litmus exists");
        let e = Explorer::new(l, column, Config::default());
        let rep = e.run();
        assert!(rep.exhaustive(), "{name} on {} must exhaust", column.name());
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        let (steps, desc) = e.replay(&[]);
        assert_eq!(desc, None);
        let mut text = String::new();
        for s in &steps {
            text.push_str(&format!("{} {}\n", s.key, s.label));
        }
        got.push((
            name,
            column.name(),
            rep.schedules,
            rep.steps_total,
            fnv1a(FNV_OFFSET, text.as_bytes()),
        ));
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (n, c, s, t, h) in &got {
            println!("    (\"{n}\", \"{c}\", {s}, {t}, 0x{h:016x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len(), "golden table out of date");
    for ((n, c, s, t, h), (gn, gc, gs, gt, gh)) in got.iter().zip(GOLDEN) {
        assert_eq!((n, c), (gn, gc), "golden table order drifted");
        assert_eq!(
            (s, t),
            (gs, gt),
            "{n} on {c}: schedule space changed vs. the heap engine"
        );
        assert_eq!(h, gh, "{n} on {c}: FIFO replay is no longer bit-identical");
    }
}
