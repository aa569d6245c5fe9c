//! genima-mc: a stateless model checker for the GeNIMA protocol state
//! machines.
//!
//! The paper's claim — that deposit/fetch/NI-lock mechanisms avoid
//! asynchronous protocol processing *without breaking lazy release
//! consistency* — must hold under every message interleaving, not just
//! the deterministic schedule the simulator happens to produce. This
//! crate drives [`genima_proto::SvmSystem`] through every inequivalent
//! delivery schedule of small configurations (2–4 nodes, a few pages)
//! via the controlled-scheduler seam ([`genima_proto::sched`]):
//!
//! * **Exploration** ([`explore`]) is a replay-based depth-first
//!   search with *dynamic partial-order reduction* (Flanagan–Godefroid
//!   backtrack sets over a vector-clock happens-before relation, plus
//!   sleep sets), a naive full-enumeration mode for calibration, and a
//!   depth bound as a fallback for unbounded retry loops.
//! * **Oracles** run on every completed schedule: the `genima-check`
//!   trace auditor (timestamp coverage, notices-before-access, diff
//!   ordering, single lock owner, zero interrupts, barrier epochs),
//!   deadlock detection, and per-litmus *allowed outcome sets*.
//! * **Litmus tests** ([`litmus`]) encode the classic LRC shapes —
//!   message passing, store buffering, IRIW, lock handoff, and
//!   barrier-epoch publication — as programs only. Each is
//!   data-race-free, so lazy release consistency allows exactly its
//!   sequentially consistent outcomes, which
//!   [`genima_check::sc_outcomes`] computes from the programs. The sets
//!   are protocol-column independent: every column from Base to full
//!   GeNIMA must satisfy the same memory model.
//! * **Counterexamples** ([`Violation`]) are minimized forced pick
//!   prefixes; [`Explorer::replay`] re-runs one and reproduces the
//!   violation and every step bit for bit.
//!
//! Seeded mutants ([`genima_proto::Mutation`]) prove the oracles have
//! teeth: `bench mc` explores `mp` on GeNIMA under
//! [`genima_proto::Mutation::ReorderWriteNotice`], which drops the
//! write-notice arrival guard, and gates that the checker finds the
//! schedule that exposes it.

pub mod explore;
pub mod litmus;

pub use explore::{Config, ExploreReport, Explorer, Mode, Violation};
pub use litmus::{corpus, Litmus};
