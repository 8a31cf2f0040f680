//! Error types for graph construction and enactment.

use std::fmt;

/// Errors raised while building or validating a workflow graph, or while
/// mapping it onto an execution system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Referenced node does not exist.
    UnknownNode(String),
    /// Referenced port does not exist on the node.
    UnknownPort { node: String, port: String },
    /// The graph contains a cycle (workflows must be DAGs).
    CycleDetected,
    /// The graph has no nodes.
    EmptyGraph,
    /// No producer/root PE to feed iterations into.
    NoRoots,
    /// A mapping was asked to run with an invalid process count.
    InvalidProcessCount { requested: usize, minimum: usize },
    /// A mapping was asked for more ranks or workers than
    /// [`MAX_RANKS`](crate::graph::MAX_RANKS).
    TooManyRanks { requested: usize, maximum: usize },
    /// A run was asked for more input items than
    /// [`MAX_RUN_ITEMS`](crate::mapping::MAX_RUN_ITEMS).
    TooManyItems { requested: u64, maximum: u64 },
    /// A worker thread panicked during enactment.
    WorkerPanicked(String),
    /// A PE kept failing after the retry budget was exhausted.
    PeFailed {
        pe: String,
        attempts: u32,
        message: String,
    },
    /// A task exceeded the per-task execution timeout.
    TaskTimedOut { pe: String, timeout_ms: u64 },
    /// A run was asked for a task timeout of zero, which every task
    /// would exceed.
    ZeroTaskTimeout,
    /// A channel peer disappeared mid-stream (its rank died without
    /// propagating end-of-stream).
    PeerDisconnected { from: String, to: String },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            GraphError::UnknownPort { node, port } => {
                write!(f, "node '{node}' has no port '{port}'")
            }
            GraphError::CycleDetected => write!(f, "workflow graph contains a cycle"),
            GraphError::EmptyGraph => write!(f, "workflow graph is empty"),
            GraphError::NoRoots => write!(f, "workflow graph has no producer/root PE"),
            GraphError::InvalidProcessCount { requested, minimum } => write!(
                f,
                "process count {requested} is below the minimum {minimum} for this graph"
            ),
            GraphError::TooManyRanks { requested, maximum } => write!(
                f,
                "process count {requested} is above the maximum {maximum} a run may use"
            ),
            GraphError::TooManyItems { requested, maximum } => write!(
                f,
                "run of {requested} items is above the maximum {maximum} a run may use"
            ),
            GraphError::WorkerPanicked(msg) => write!(f, "worker thread panicked: {msg}"),
            GraphError::PeFailed {
                pe,
                attempts,
                message,
            } => write!(f, "PE '{pe}' failed after {attempts} attempts: {message}"),
            GraphError::TaskTimedOut { pe, timeout_ms } => {
                write!(f, "task on PE '{pe}' exceeded the {timeout_ms} ms timeout")
            }
            GraphError::ZeroTaskTimeout => write!(f, "a task timeout must be above 0 ms"),
            GraphError::PeerDisconnected { from, to } => {
                write!(f, "channel peer lost: '{from}' could not reach '{to}'")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(GraphError::UnknownNode("X".into()).to_string().contains("'X'"));
        assert!(GraphError::CycleDetected.to_string().contains("cycle"));
        let e = GraphError::InvalidProcessCount {
            requested: 1,
            minimum: 3,
        };
        assert!(e.to_string().contains('1') && e.to_string().contains('3'));
    }
}
