//! Typed protocol errors.

use std::fmt;

/// An internal protocol-state inconsistency.
///
/// The protocol hot paths surface these instead of panicking on a bare
/// `unwrap()`: the error names the exact piece of state that was
/// missing, so a violation points straight at the broken transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// A node exhausted every retransmission attempt talking to a
    /// peer: the peer is presumed dead or partitioned, and the run
    /// cannot make progress. Surfaced by
    /// [`SvmSystem::try_run`](crate::SvmSystem::try_run) instead of
    /// wedging the event loop waiting for a completion that will never
    /// arrive.
    PeerUnreachable {
        /// The node whose send was abandoned.
        node: usize,
        /// The peer that never acknowledged.
        peer: usize,
    },
    /// A finished [`RunReport`](crate::RunReport) failed its own
    /// consistency checks (breakdown categories not summing to the
    /// parallel time, or host interrupts on an interrupt-free column).
    InvalidReport {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A run drained its event queue with processes still blocked.
    /// Surfaced by [`SvmSystem::try_run`](crate::SvmSystem::try_run)
    /// and its controlled form alike: a schedule that wedges the
    /// protocol is a model-checking *finding*, not a harness bug.
    Deadlock {
        /// The unfinished processes and what they are blocked on.
        blocked: Vec<(usize, String)>,
    },
    /// The [`EventPicker`](crate::sched::EventPicker) driving a
    /// controlled run stopped it early (exploration prune or depth
    /// bound) — the run's partial state is not a finished execution.
    Halted,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::PeerUnreachable { node, peer } => {
                write!(
                    f,
                    "node {node} exhausted retransmissions to unresponsive peer {peer}"
                )
            }
            ProtoError::InvalidReport { detail } => {
                write!(f, "run report failed validation: {detail}")
            }
            ProtoError::Deadlock { blocked } => {
                write!(f, "deadlock: {} processes blocked: ", blocked.len())?;
                for (i, (p, why)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "p{p} on {why}")?;
                }
                Ok(())
            }
            ProtoError::Halted => write!(f, "controlled run halted by its scheduler"),
        }
    }
}

impl std::error::Error for ProtoError {}
