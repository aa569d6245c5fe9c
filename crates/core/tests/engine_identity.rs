//! Cross-column bit-identity gate for the engine hot-path rewrite.
//!
//! The golden hashes below were captured on the pre-pass engine (the
//! `BinaryHeap` event queue, `HashMap` home-page table, unbatched NI
//! service). The timing-wheel/SoA/batched engine must reproduce every
//! `RunReport::to_json` byte for byte: a drift in any counter, clock,
//! or breakdown bucket changes the JSON and therefore the hash.
//!
//! Regenerate with:
//! `GOLDEN_PRINT=1 cargo test -p genima --test engine_identity -- --nocapture`

use genima::{run_app, Column};
use genima_apps::{App, Fft, OceanRowwise, WaterNsquared};
use genima_sim::{fnv1a, FNV_OFFSET};

fn apps() -> Vec<(&'static str, Box<dyn App>)> {
    vec![
        ("ocean", Box::new(OceanRowwise::with_grid(128, 2))),
        ("fft", Box::new(Fft::with_points(1 << 14))),
        ("water-nsq", Box::new(WaterNsquared::with_molecules(64, 2))),
    ]
}

/// (app, column) -> FNV-1a of `RunReport::to_json` on the pre-pass
/// engine, 4 nodes x 2 procs.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("ocean", "Base", 0xda67bca0cfd6d4fe),
    ("ocean", "DW", 0x7d722b518cd2dd0e),
    ("ocean", "DW+RF", 0x1d93a4873ccea42d),
    ("ocean", "DW+RF+DD", 0xa40ad8d52f188987),
    ("ocean", "GeNIMA", 0x94b8be965d0d03b6),
    ("ocean", "GeNIMA-2025", 0xd54aadb94223bf9f),
    ("fft", "Base", 0x81ba6feecbf92cd7),
    ("fft", "DW", 0xeb7a5974e76d6d7e),
    ("fft", "DW+RF", 0x12e87b7ad410bc23),
    ("fft", "DW+RF+DD", 0x12e87b7ad410bc23),
    ("fft", "GeNIMA", 0x957ee3721fa36385),
    ("fft", "GeNIMA-2025", 0x0dc654dcf1667023),
    ("water-nsq", "Base", 0xb47e6510755451eb),
    ("water-nsq", "DW", 0xfa702d20cbd8201a),
    ("water-nsq", "DW+RF", 0xdc9eeca0db8cd283),
    ("water-nsq", "DW+RF+DD", 0xccb7b22b55a6ebb3),
    ("water-nsq", "GeNIMA", 0x248b51305a5a945a),
    ("water-nsq", "GeNIMA-2025", 0x1aa191be2231583b),
];

#[test]
fn run_reports_match_pre_pass_golden_hashes() {
    let topo = genima::Topology::new(4, 2);
    let mut got = Vec::new();
    for (name, app) in apps() {
        for column in Column::all() {
            let out = run_app(app.as_ref(), topo, column);
            let json = out.report.to_json();
            // FNV-1a over the full JSON text: any single-byte drift flips it.
            got.push((name, column.name(), fnv1a(FNV_OFFSET, json.as_bytes())));
        }
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (app, col, h) in &got {
            println!("    (\"{app}\", \"{col}\", 0x{h:016x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len(), "golden table out of date");
    for ((app, col, h), (ga, gc, gh)) in got.iter().zip(GOLDEN) {
        assert_eq!((app, col), (ga, gc), "golden table order drifted");
        assert_eq!(
            h, gh,
            "{app} on {col}: RunReport JSON is no longer byte-identical \
             to the pre-pass engine"
        );
    }
}
