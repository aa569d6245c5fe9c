//! The paper's evaluation as runnable binaries.
//!
//! The `repro` binary regenerates every table and figure of the
//! paper's evaluation; the `bench` binary runs the gated experiments
//! (`bench <kind>`, see `src/bin/bench/main.rs`). This library holds
//! the ablation studies `repro` prints.

pub mod ablations;
