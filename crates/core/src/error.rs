//! Error types shared across the analysis crate.

use std::fmt;

use crate::rational::Rational;

/// Errors produced while building task graphs / VRDF graphs or while
/// computing buffer capacities.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A quantum set was empty; the paper's `Pf(N)` excludes the empty set.
    EmptyQuantumSet,
    /// A quantum set contained only zero; `Pf(N)` excludes `{0}`.
    ZeroOnlyQuantumSet,
    /// Two tasks or actors were registered under the same name.
    DuplicateName(String),
    /// A referenced task or actor does not exist.
    UnknownName(String),
    /// A task graph must contain at least one task.
    EmptyGraph,
    /// [`crate::TaskGraph::linear_chain`] got a buffer count that does
    /// not match its tasks (a chain of `n` tasks needs `n − 1` buffers):
    /// a buffer with no downstream task, or a task no buffer reaches.
    NotAChain {
        /// The offending task.
        task: String,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The graph is not a directed acyclic graph suitable for the
    /// general analysis: it contains a directed cycle, or a task left
    /// dangling with no buffers at all in a multi-task graph (an orphan).
    NotADag {
        /// The offending task.
        task: String,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A cycle exists whose feedback edge carries no initial tokens (or
    /// whose rate relaxation admits no finite rate assignment), so no
    /// firing on the cycle can ever become enabled.  Every declared
    /// feedback edge must carry `initial_tokens > 0`
    /// ([`crate::TaskGraph::connect_feedback`]).
    UnbrokenCycle {
        /// The offending cycle as a task-name path; the last entry closes
        /// back onto the first.
        cycle: Vec<String>,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The constrained endpoint is not unique: sink-constrained analysis
    /// needs exactly one task without output buffers, source-constrained
    /// analysis exactly one task without input buffers — otherwise the
    /// rate of the extra endpoints is underdetermined.
    AmbiguousEndpoint {
        /// `"sink"` or `"source"`.
        role: &'static str,
        /// The names of the competing endpoint tasks.
        tasks: Vec<String>,
    },
    /// The underlying undirected graph is not weakly connected.
    Disconnected,
    /// The throughput constraint must be placed on a task without output
    /// buffers (a sink) or without input buffers (a source).
    ConstraintNotOnEndpoint {
        /// The task carrying the misplaced constraint.
        task: String,
    },
    /// A period must be strictly positive.
    NonPositivePeriod(Rational),
    /// A response time must be non-negative.
    NegativeResponseTime {
        /// The offending task or actor.
        name: String,
        /// Its response time.
        value: Rational,
    },
    /// A quantum set contains zero in a position where the analysis cannot
    /// support it: in sink-constrained mode only *consumption* sets may
    /// contain zero, in source-constrained mode only *production* sets
    /// (Section 4.4).
    ZeroQuantumNotSupported {
        /// The buffer whose quantum set is at fault.
        buffer: String,
        /// `"production"` or `"consumption"`.
        role: &'static str,
    },
    /// The derived schedule cannot exist: an actor's response time exceeds
    /// the minimal distance between its consecutive starts (the producer /
    /// consumer schedule-validity conditions of Section 4.2).
    InfeasibleResponseTime {
        /// The actor violating the condition.
        actor: String,
        /// Its worst-case response time.
        response_time: Rational,
        /// The maximum admissible response time, `φ(v)`.
        bound: Rational,
    },
    /// An intermediate of the exact analysis overflowed its integer type
    /// (e.g. response-time denominators compounding past `i128` along the
    /// `φ` propagation of a very long chain, an Eq. (4) capacity past
    /// `u64`, or a corpus too large to size).  The input is structurally
    /// valid but numerically out of range for the exact arithmetic.
    ArithmeticOverflow {
        /// What was being computed when the overflow occurred.
        context: &'static str,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptyQuantumSet => f.write_str("quantum set must not be empty"),
            AnalysisError::ZeroOnlyQuantumSet => {
                f.write_str("quantum set must contain at least one positive value")
            }
            AnalysisError::DuplicateName(name) => {
                write!(f, "name `{name}` is already in use")
            }
            AnalysisError::UnknownName(name) => write!(f, "unknown task or actor `{name}`"),
            AnalysisError::EmptyGraph => f.write_str("graph must contain at least one task"),
            AnalysisError::NotAChain { task, detail } => {
                write!(f, "graph is not a chain at task `{task}`: {detail}")
            }
            AnalysisError::NotADag { task, detail } => {
                write!(f, "graph is not a dag at task `{task}`: {detail}")
            }
            AnalysisError::UnbrokenCycle { cycle, detail } => {
                write!(f, "cycle `{}` is unbroken: {detail}", cycle.join(" -> "))
            }
            AnalysisError::AmbiguousEndpoint { role, tasks } => write!(
                f,
                "throughput constraint on the {role} is ambiguous: {} candidate endpoints ({})",
                tasks.len(),
                tasks.join(", ")
            ),
            AnalysisError::Disconnected => {
                f.write_str("graph must be weakly connected")
            }
            AnalysisError::ConstraintNotOnEndpoint { task } => write!(
                f,
                "throughput constraint must be on a source or sink task, but `{task}` has both input and output buffers"
            ),
            AnalysisError::NonPositivePeriod(p) => {
                write!(f, "period must be strictly positive, got {p}")
            }
            AnalysisError::NegativeResponseTime { name, value } => {
                write!(f, "response time of `{name}` must be non-negative, got {value}")
            }
            AnalysisError::ZeroQuantumNotSupported { buffer, role } => write!(
                f,
                "buffer `{buffer}` has a {role} quantum set containing 0, which the analysis only supports on the side facing the throughput-constrained actor"
            ),
            AnalysisError::InfeasibleResponseTime {
                actor,
                response_time,
                bound,
            } => write!(
                f,
                "no valid schedule exists: response time of `{actor}` is {response_time} but must not exceed {bound}"
            ),
            AnalysisError::ArithmeticOverflow { context } => {
                write!(f, "exact arithmetic overflowed while computing {context}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            AnalysisError::EmptyQuantumSet,
            AnalysisError::ZeroOnlyQuantumSet,
            AnalysisError::DuplicateName("x".into()),
            AnalysisError::UnknownName("x".into()),
            AnalysisError::EmptyGraph,
            AnalysisError::NotAChain {
                task: "t".into(),
                detail: "two outputs".into(),
            },
            AnalysisError::NotADag {
                task: "t".into(),
                detail: "a cycle through it".into(),
            },
            AnalysisError::UnbrokenCycle {
                cycle: vec!["a".into(), "b".into(), "a".into()],
                detail: "its feedback edge carries no initial tokens".into(),
            },
            AnalysisError::AmbiguousEndpoint {
                role: "sink",
                tasks: vec!["a".into(), "b".into()],
            },
            AnalysisError::Disconnected,
            AnalysisError::ConstraintNotOnEndpoint { task: "t".into() },
            AnalysisError::NonPositivePeriod(Rational::ZERO),
            AnalysisError::NegativeResponseTime {
                name: "t".into(),
                value: Rational::integer(-1),
            },
            AnalysisError::ZeroQuantumNotSupported {
                buffer: "b".into(),
                role: "production",
            },
            AnalysisError::InfeasibleResponseTime {
                actor: "a".into(),
                response_time: Rational::ONE,
                bound: Rational::ZERO,
            },
            AnalysisError::ArithmeticOverflow {
                context: "phi propagation",
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<AnalysisError>();
    }
}
