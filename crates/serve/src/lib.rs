//! Open-loop serving workloads over shared virtual memory.
//!
//! The paper's evaluation (and every SPLASH-2 app in `genima-apps`)
//! is *closed-loop*: each process computes as fast as the protocol
//! lets it, so protocol slowness throttles offered load and shows up
//! as a longer finish time. Serving systems are the opposite regime:
//! requests arrive on their own schedule whether or not the previous
//! one finished, and the interesting metric is the *latency tail*
//! under that sustained pressure — especially while packets drop and
//! nodes blink in and out (churn).
//!
//! This crate adds that regime on top of the unchanged protocol
//! stack:
//!
//! * [`OpenLoop`]/[`Pacing`] — seeded Poisson or uniform arrival
//!   schedules driven purely off simulated time
//!   ([`Op::WaitUntil`](genima_proto::Op::WaitUntil) pacing), so the
//!   coordinated-omission trap of closed-loop measurement is avoided
//!   by construction;
//! * [`Zipf`] — skewed key/vertex popularity with a bijective
//!   [`scatter`] so the hot set spreads across shards;
//! * [`KvServe`] — a partitioned key-value store (per-page shards,
//!   per-shard locks, home-node partitioning, configurable read/write
//!   mix);
//! * [`GraphWalk`] — Zipf-seeded random walks of dependent page reads
//!   over an adjacency region, lock-free and read-only.
//!
//! Both workloads implement [`genima_apps::App`], so all six protocol
//! columns run them unchanged. Their streams are drawn on demand, one
//! request at a time as the run consumes them, so a spec costs memory
//! in processes and keys rather than in requests. Per-op latency lands in
//! `RunReport::serve` via [`Op::ServeEnd`](genima_proto::Op::ServeEnd)
//! and `bench serving` (in `genima-bench`) gates the tails
//! (`BENCH_serving.json`).

mod arrival;
mod kv;
mod stream;
mod walk;
mod zipf;

pub use arrival::{OpenLoop, Pacing};
pub use kv::{KvServe, VALUE_BYTES};
pub use walk::{GraphWalk, ROW_BYTES};
pub use zipf::{scatter, Zipf};
