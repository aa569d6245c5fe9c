//! Deterministic discrete-event simulation engine for the GeNIMA
//! shared-virtual-memory reproduction.
//!
//! The engine is intentionally minimal: simulated [`Time`] and [`Dur`]
//! newtypes with nanosecond resolution, a stable [`EventQueue`] with
//! FIFO tie-breaking (two events scheduled for the same instant fire in
//! the order they were scheduled, making whole-cluster simulations fully
//! deterministic), single-server FIFO [`Resource`]s used to model DMA
//! engines, links, and processors, a dependency-free [`SplitMix64`]
//! pseudo-random generator, a bit-per-page set ([`PageBits`]), and
//! small statistics helpers.
//!
//! # Example
//!
//! ```
//! use genima_sim::{Dur, EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::ZERO + Dur::from_us(3), "late");
//! q.push(Time::ZERO + Dur::from_us(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "early");
//! assert_eq!(t.as_us(), 1.0);
//! ```

mod bits;
mod hash;
mod queue;
mod resource;
mod rng;
mod stats;
mod time;

pub use bits::PageBits;
pub use hash::{fnv1a, FixedHasher, FixedState, FNV_OFFSET};
pub use queue::{EventQueue, QueueStats};
pub use resource::Resource;
pub use rng::{RunSeed, SplitMix64};
pub use stats::{Accum, Histogram};
pub use time::{Dur, Time};
