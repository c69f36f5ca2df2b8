//! Typed errors for netlist construction and simulation.
//!
//! The panicking convenience APIs ([`Netlist::output`](crate::Netlist::output),
//! [`Netlist::eval`](crate::Netlist::eval), [`simulate`](crate::simulate), …)
//! are thin wrappers over fallible `try_*` counterparts; the panic messages
//! are exactly the [`Display`](std::fmt::Display) renderings of these error
//! types, so diagnostics are identical whichever API a caller picks.

use crate::NetId;
use std::fmt;

/// Errors from building or querying a [`Netlist`](crate::Netlist).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A named output bus does not exist.
    UnknownOutput {
        /// The requested bus name.
        name: String,
    },
    /// A gate referenced an input net that has not been created.
    DanglingInput {
        /// The offending net reference.
        net: NetId,
        /// Number of nets that exist.
        len: usize,
    },
    /// An input-value slice had the wrong length.
    InputArity {
        /// Number of primary inputs of the netlist.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A raw net index was out of range.
    NetOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of nets that exist.
        len: usize,
    },
    /// An operation that requires a logic gate was applied to an input or
    /// constant net.
    NotALogicGate {
        /// The offending net.
        net: NetId,
    },
    /// A gate-input position was out of range for the gate's arity.
    NoSuchGateInput {
        /// The gate whose input was addressed.
        net: NetId,
        /// The requested input position.
        index: usize,
        /// The gate's arity.
        arity: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownOutput { name } => {
                write!(f, "no output bus named {name:?}")
            }
            NetlistError::DanglingInput { net, len } => {
                write!(f, "gate input {net:?} does not exist yet ({len} nets exist)")
            }
            NetlistError::InputArity { expected, got } => {
                write!(f, "expected {expected} input values, got {got}")
            }
            NetlistError::NetOutOfRange { index, len } => {
                write!(f, "net index {index} out of range ({len} nets exist)")
            }
            NetlistError::NotALogicGate { net } => {
                write!(f, "net {net:?} is not driven by a logic gate")
            }
            NetlistError::NoSuchGateInput { net, index, arity } => {
                write!(f, "gate {net:?} has no input {index} (arity {arity})")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// Errors from event-driven simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// An input-value slice had the wrong length.
    InputArity {
        /// Number of primary inputs of the netlist.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// The simulation exceeded its event budget without settling — the
    /// netlist contains a combinational cycle (oscillation) or is
    /// pathologically glitchy.
    Unsettled {
        /// Events processed before giving up.
        events: usize,
        /// The budget that was exhausted.
        budget: usize,
    },
    /// The supplied fault plan does not fit the netlist.
    InvalidFault(NetlistError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InputArity { expected, got } => {
                write!(f, "new input arity mismatch: expected {expected} values, got {got}")
            }
            SimError::Unsettled { events, budget } => write!(
                f,
                "simulation unsettled after {events} events (budget {budget}): \
                 combinational cycle or oscillation"
            ),
            SimError::InvalidFault(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidFault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SimError {
    fn from(e: NetlistError) -> Self {
        SimError::InvalidFault(e)
    }
}

/// Errors from the static-analysis layer ([`crate::sta`]).
///
/// Forward-pass timing analysis, slack, path enumeration, certification
/// and dead-cone pruning all require the netlist to be topologically
/// ordered (the DAG-by-construction invariant). The only way to break that
/// invariant is [`Netlist::rewire_input`](crate::Netlist::rewire_input);
/// analyses detect the breakage statically and refuse, instead of silently
/// reporting wrong numbers the way a naive forward pass would.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StaError {
    /// A gate reads a net created at or after itself, so a single forward
    /// (or backward) pass cannot order the computation. Run
    /// [`sta::lint::check`](crate::sta::lint::check) to find out whether
    /// the back-reference actually closes a combinational cycle.
    NotTopological {
        /// The first gate whose fanin references itself or a later net.
        net: NetId,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::NotTopological { net } => write!(
                f,
                "netlist is not topologically ordered at gate {net:?}: \
                 static analysis requires a DAG"
            ),
        }
    }
}

impl std::error::Error for StaError {}

/// Errors from compiling or running a batch (bit-parallel) simulation —
/// see [`crate::batch`].
///
/// Every variant is *recoverable by falling back to the event-driven
/// engine*: batch simulation is an accelerator, never the only way to get
/// an answer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BatchError {
    /// The netlist is not topologically ordered (a combinational cycle was
    /// created via [`Netlist::rewire_input`](crate::Netlist::rewire_input)),
    /// so a single levelized pass cannot evaluate it.
    TopologyBroken {
        /// The first gate referencing a net at or after itself.
        net: NetId,
    },
    /// More input vectors (or per-lane fault plans) than the lane word can
    /// carry: 64 for `u64` batches, `64·W` for
    /// [`LaneBlock<W>`](crate::batch::LaneBlock) batches.
    TooManyLanes {
        /// The number of vectors or plans supplied.
        got: usize,
        /// The lane capacity of the word type in use.
        cap: u32,
    },
    /// An input-vector slice had the wrong length.
    InputArity {
        /// Number of primary inputs of the compiled netlist.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// Previous- and new-input batches carry different lane counts.
    LaneMismatch {
        /// Lane count of the previous-input batch.
        prev: u32,
        /// Lane count of the new-input batch.
        new: u32,
    },
    /// A fault plan references nets outside the compiled netlist, or a
    /// fault set was compiled against a different netlist.
    InvalidFault(NetlistError),
    /// A bus handed to
    /// [`BatchProgram::run_bus`](crate::batch::BatchProgram::run_bus)
    /// names a net outside the compiled netlist.
    InvalidBus(NetlistError),
    /// The run's [`CancelToken`](crate::CancelToken) was cancelled before
    /// the settling pass finished.
    Cancelled,
    /// A sampling grid contains the same observation time twice, which
    /// would silently double-count that instant in every violation-rate
    /// and error reduction derived from the sweep.
    DuplicateTs {
        /// The duplicated observation time.
        ts: u64,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::TopologyBroken { net } => write!(
                f,
                "netlist is not topologically ordered at gate {net:?}: \
                 batch programs require a DAG"
            ),
            BatchError::TooManyLanes { got, cap } => {
                write!(f, "batch holds at most {cap} vectors per lane word, got {got}")
            }
            BatchError::InputArity { expected, got } => {
                write!(f, "batch input arity mismatch: expected {expected} values, got {got}")
            }
            BatchError::LaneMismatch { prev, new } => {
                write!(f, "previous inputs carry {prev} lanes but new inputs carry {new}")
            }
            BatchError::InvalidFault(e) => write!(f, "invalid batch fault set: {e}"),
            BatchError::InvalidBus(e) => write!(f, "invalid batch output bus: {e}"),
            BatchError::Cancelled => write!(f, "batch simulation cancelled"),
            BatchError::DuplicateTs { ts } => {
                write!(f, "sampling grid contains observation time {ts} more than once")
            }
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::InvalidFault(e) | BatchError::InvalidBus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for BatchError {
    fn from(e: NetlistError) -> Self {
        BatchError::InvalidFault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_panic_substrings() {
        // The panicking wrappers format these errors, and downstream tests
        // match on the historical substrings — keep them stable.
        let e = NetlistError::UnknownOutput { name: "nope".into() };
        assert!(e.to_string().contains("no output bus"));
        let e = NetlistError::DanglingInput { net: NetId(100), len: 1 };
        assert!(e.to_string().contains("does not exist yet"));
        let e = NetlistError::InputArity { expected: 2, got: 1 };
        assert!(e.to_string().contains("expected 2 input values"));
        let e = NetlistError::NetOutOfRange { index: 9, len: 3 };
        assert!(e.to_string().contains("net index 9 out of range"));
        let e = SimError::InputArity { expected: 4, got: 0 };
        assert!(e.to_string().contains("new input arity"));
    }

    #[test]
    fn sim_error_wraps_netlist_error() {
        let inner = NetlistError::NetOutOfRange { index: 7, len: 2 };
        let e: SimError = inner.clone().into();
        assert_eq!(e, SimError::InvalidFault(inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
