//! The operation stream interface between applications and the SVM
//! system.

use genima_mem::Addr;
use genima_sim::{Dur, Time};

use crate::ids::BarrierId;
use genima_nic::LockId;

/// The class of a serving-workload request, used to select the
/// latency histogram an [`Op::ServeEnd`] marker records into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeClass {
    /// A key-value GET.
    Read,
    /// A key-value PUT (lock-protected read-modify-write).
    Write,
    /// A graph random-walk query.
    Walk,
}

impl ServeClass {
    /// All classes, in reporting order.
    pub const ALL: [ServeClass; 3] = [ServeClass::Read, ServeClass::Write, ServeClass::Walk];

    /// Stable lower-case label (JSON keys, table columns).
    pub fn label(self) -> &'static str {
        match self {
            ServeClass::Read => "read",
            ServeClass::Write => "write",
            ServeClass::Walk => "walk",
        }
    }
}

/// One operation issued by a simulated application process.
///
/// Applications are modelled as per-process streams of operations:
/// local computation, page-grain shared reads, word-grain shared
/// writes, and synchronization. Reads and writes carry byte addresses
/// and lengths; the protocol turns them into faults, twins and dirty
/// runs exactly as the `mprotect`-based system would.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Local computation for the given duration (subject to SMP
    /// memory-bus dilation).
    Compute(Dur),
    /// Read `len` bytes starting at `addr`; faults on invalid pages.
    Read {
        /// First byte read.
        addr: Addr,
        /// Bytes read.
        len: u32,
    },
    /// Write `len` bytes starting at `addr`; faults on non-writable
    /// pages, creates twins, and records dirty ranges (the
    /// synthetic-data path).
    Write {
        /// First byte written.
        addr: Addr,
        /// Bytes written.
        len: u32,
    },
    /// Write real bytes (the data-fidelity path used by tests and
    /// examples). Must stay within one page.
    WriteData {
        /// First byte written.
        addr: Addr,
        /// The bytes to store.
        data: Vec<u8>,
    },
    /// Acquire a lock (mutual exclusion + consistency acquire).
    Acquire(LockId),
    /// Release a lock (consistency release).
    Release(LockId),
    /// Wait at a barrier until every process arrives.
    Barrier(BarrierId),
    /// Assert that shared memory contains `expected` at `addr`
    /// (data-fidelity mode only; must stay within one page).
    ///
    /// # Panics
    ///
    /// The system panics at simulation time if the contents differ —
    /// this is the coherence oracle used by the integration tests.
    Validate {
        /// First byte checked.
        addr: Addr,
        /// Expected contents.
        expected: Vec<u8>,
    },
    /// Read `len` bytes at `addr` (at most 8) and record them as a
    /// little-endian value in the process's observation log
    /// (data-fidelity mode only; must stay within one page).
    ///
    /// Unlike [`Op::Validate`] this never asserts: litmus tests use it
    /// to collect an *outcome* whose membership in the allowed set is
    /// judged by the model checker's oracle after the run.
    Observe {
        /// First byte observed.
        addr: Addr,
        /// Bytes observed (1..=8).
        len: u32,
    },
    /// Idle until the absolute simulation time `t` (no-op if the
    /// process clock already passed it). Open-loop traffic generators
    /// use this to pace request arrivals off simulated time, so the
    /// offered load is independent of how fast the system drains it.
    WaitUntil(Time),
    /// Marks the completion of one serving request that arrived
    /// (open-loop) at `issued`: records `now - issued` — service time
    /// plus any queueing delay behind earlier requests of the same
    /// client — into the run's per-class serve-latency histogram.
    ServeEnd {
        /// Request class (selects the histogram).
        class: ServeClass,
        /// Generated arrival time of the request.
        issued: Time,
    },
}

/// A stream of operations for one simulated process.
///
/// Nine of the ten batch applications of `genima-apps` and small
/// tests materialise their streams as an [`OpVec`]. Two kinds of
/// stream are lazy: the serving workloads of `genima-serve` draw each
/// request as the run consumes the previous one, and Water-nsquared
/// draws one phase or lock episode at a time. A lazy source is fused
/// (after its first `None` it keeps returning `None`) and allocates
/// nothing per operation. Its [`program`](OpSource::program) is
/// `None`, so the controlled scheduler gives it the coarse footprint;
/// no application or serving workload is in the model checker's
/// corpus.
pub trait OpSource {
    /// Returns the next operation, or `None` when the process is done.
    fn next_op(&mut self) -> Option<Op>;

    /// The complete operation stream, when the source can produce it
    /// up front (pre-materialised streams like [`OpVec`]); `None` for
    /// lazy generators.
    ///
    /// The controlled scheduler uses this to bound what a resumed
    /// process may touch: every synchronous effect of resuming — the
    /// parked operation, later operations run until the next block,
    /// and release-time flushes of earlier writes — names a lock,
    /// barrier, or page that appears in *some* operation of the full
    /// program. Sources that return `None` get the coarse
    /// conflicts-with-all-synchronization footprint instead, which is
    /// always sound.
    fn program(&self) -> Option<&[Op]> {
        None
    }
}

/// A pre-materialised operation stream.
///
/// # Example
///
/// ```
/// use genima_proto::{ops_source, Op, OpSource};
/// use genima_sim::Dur;
///
/// let mut s = ops_source(vec![Op::Compute(Dur::from_us(5))]);
/// assert!(s.next_op().is_some());
/// assert!(s.next_op().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct OpVec {
    ops: Vec<Op>,
    pos: usize,
}

impl OpSource for OpVec {
    fn next_op(&mut self) -> Option<Op> {
        let op = self.ops.get(self.pos).cloned();
        self.pos += op.is_some() as usize;
        op
    }

    fn program(&self) -> Option<&[Op]> {
        Some(&self.ops)
    }
}

/// Wraps a vector of operations as an [`OpSource`].
pub fn ops_source(ops: Vec<Op>) -> OpVec {
    OpVec { ops, pos: 0 }
}

impl<T: OpSource + ?Sized> OpSource for Box<T> {
    fn next_op(&mut self) -> Option<Op> {
        (**self).next_op()
    }

    fn program(&self) -> Option<&[Op]> {
        (**self).program()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_vec_drains_in_order() {
        let mut s = ops_source(vec![
            Op::Compute(Dur::from_us(1)),
            Op::Barrier(BarrierId::new(0)),
        ]);
        assert!(matches!(s.next_op(), Some(Op::Compute(_))));
        assert!(matches!(s.next_op(), Some(Op::Barrier(_))));
        assert!(s.next_op().is_none());
        assert!(s.next_op().is_none());
    }

    #[test]
    fn boxed_sources_work() {
        let mut s: Box<dyn OpSource> = Box::new(ops_source(vec![Op::Read {
            addr: Addr::new(0),
            len: 4,
        }]));
        assert!(s.next_op().is_some());
        assert!(s.next_op().is_none());
    }
}
