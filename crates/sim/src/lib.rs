//! # vrdf-sim — self-timed simulation of VRDF task chains
//!
//! The companion executor to [`vrdf_core`]: a discrete-event, self-timed
//! simulator of fork/join [`vrdf_core::TaskGraph`]s (chains included)
//! over bounded FIFO buffers with back-pressure.  Where `vrdf-core`
//! *derives* buffer capacities that are sufficient for a throughput
//! constraint, `vrdf-sim` *executes* the graph — with pluggable
//! per-firing quantum sequences ([`QuantumPlan`]) and the constrained
//! endpoint either self-timed or forced strictly periodic — and checks
//! the constraint operationally.  This reproduces the paper's own validation method: the
//! MP3 chain of Section 5 was verified by self-timed simulation.
//!
//! ## Layers
//!
//! * [`policy`] — deterministic quantum sequences (constant, cyclic,
//!   min/max corners, seeded random), reproducible across runs.
//! * [`engine`] — the event-driven executor on flat struct-of-arrays
//!   arenas: a construct-once [`SimPlan`] (DAG validation, integer tick
//!   rescale, flattened adjacency) run many times over a reusable
//!   [`SimState`]; [`Simulator`] wraps the pair for one-shot runs.
//!   Firing traces, deadline-miss and deadlock detection.  Every engine
//!   has one constructor taking a [`SimConfig`]; its `faults` field
//!   switches the fault hooks on.
//! * [`validate`] — [`validate_capacities`], the executable oracle for the
//!   paper's sufficiency theorem: replay arbitrary admissible quantum
//!   scenarios against the capacities the analysis computed and confirm
//!   strict periodicity is never violated.
//! * [`search`] — [`minimize_capacities`], a minimal-capacity search on
//!   top of the oracle: one sweep of per-edge binary searches measuring
//!   how far Eq. (4) sits above the operational minima.
//! * [`faults`] — bounded fault injection (transient task stalls) and
//!   [`validate_capacities_under_faults`], which replays the scenario
//!   battery under a [`FaultPlan`] and grades whether strict periodicity
//!   recovers within a bounded window.
//! * [`fleet`] — fleet-scale batch analysis: [`run_fleet`] executes a
//!   per-graph job (validate, minimize, or the VRDF-vs-SDF baseline
//!   table) for every graph of a corpus on the crate's one worker pool
//!   (the one the scenario battery fans out on), with a deterministic
//!   merge by index so results are bit-identical for any worker count.
//! * [`telemetry`] — observability: engine counters, phase spans,
//!   latency histograms, and the Chrome-trace/Perfetto exporter.  Not an
//!   engine mode: every run reports its counters and reset/run spans
//!   ([`SimReport::counters`], [`SimReport::spans`]), derived from the
//!   state it keeps anyway; [`ValidationOptions::telemetry`] only decides
//!   whether a battery aggregates them.
//!
//! ## Quick start
//!
//! Cross-validate the Fig. 1 pair end-to-end:
//!
//! ```
//! use vrdf_core::{compute_buffer_capacities, QuantumSet, Rational, TaskGraph,
//!     ThroughputConstraint};
//! use vrdf_sim::{validate_capacities, ValidationOptions};
//!
//! let tg = TaskGraph::linear_chain(
//!     [("wa", Rational::ONE), ("wb", Rational::ONE)],
//!     [("b", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
//! )?;
//! let constraint = ThroughputConstraint::on_sink(Rational::from(3u64))?;
//! let analysis = compute_buffer_capacities(&tg, constraint)?;
//!
//! let mut opts = ValidationOptions::default();
//! opts.endpoint_firings = 1_000;
//! let report = validate_capacities(&tg, &analysis, &opts)?;
//! assert!(report.all_clear(), "{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod faults;
pub mod fleet;
pub mod policy;
mod pool;
pub mod reference;
pub mod search;
pub mod telemetry;
pub mod validate;

pub use engine::{
    BlockReason, BufferStats, EndpointBehavior, EndpointStats, FiringRecord, SimConfig, SimOutcome,
    SimPlan, SimReport, SimState, Simulator, TaskStats, TraceLevel, Violation,
};
pub use faults::{
    validate_capacities_under_faults, FaultPlan, FaultScenarioResult, FaultValidationOptions,
    FaultValidationReport, RecoveryVerdict, TaskFault,
};
pub use fleet::{
    run_fleet, FleetItem, FleetJob, FleetOptions, FleetReport, FleetResult, FleetSummary,
    JobOutcome, WorkerMetrics,
};
pub use policy::{splitmix64, CompiledQuantum, QuantumPlan, QuantumPolicy, Side};
pub use reference::ReferenceSimulator;
pub use search::{minimize_capacities, EdgeMinimum, MinimizationReport, SearchOptions};
pub use telemetry::{
    perfetto_trace, EngineCounters, Histogram, MetricsSnapshot, OccupancySample, PhaseTimes,
    SearchMetrics, ValidationMetrics,
};
pub use validate::{
    conservative_offset, effective_threads, measure_drift, validate_capacities, OccupancyBreach,
    ScenarioResult, ScenarioRunner, ValidationOptions, ValidationReport, WorkerPanic,
};

use std::fmt;

/// Errors raised while constructing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The task graph is not a valid DAG, its constrained endpoint is
    /// ambiguous, or another analysis-level defect; carries the
    /// underlying [`vrdf_core::AnalysisError`].
    Analysis(vrdf_core::AnalysisError),
    /// A buffer has no capacity `ζ(b)` assigned; run the analysis and
    /// [`vrdf_core::GraphAnalysis::apply`] it, or set one explicitly.
    CapacityUnset {
        /// The capacity-less buffer.
        buffer: String,
    },
    /// A constant or cyclic policy names a value outside the buffer's
    /// quantum set — the sequence would not be admissible.
    QuantumNotInSet {
        /// The buffer whose set was violated.
        buffer: String,
        /// The offending value.
        value: u64,
    },
    /// A cyclic policy with no values.
    EmptyCycle {
        /// The buffer the policy was attached to.
        buffer: String,
    },
    /// The run's times cannot be rescaled onto a shared integer tick
    /// clock: the LCM of the denominators overflowed `i128`, or a
    /// converted quantity exceeded `u64` ticks.  The time bases are too
    /// fine-grained for the tick engine; coarsen them or simulate with
    /// [`reference::ReferenceSimulator`].
    TickOverflow {
        /// The quantity that failed to rescale (a task name, `"period"`,
        /// `"offset"`, or a fault stall).
        quantity: String,
    },
    /// A [`FaultPlan`] is malformed: a negative stall delta.  (Unknown
    /// task names surface as [`SimError::Analysis`] with
    /// [`vrdf_core::AnalysisError::UnknownName`].)
    InvalidFault {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// A buffer's initial tokens `δ0(b)` exceed its resolved capacity
    /// `ζ(b)`: the pre-filled containers would not fit, so the initial
    /// state is unrepresentable.  Feedback edges need
    /// `ζ(b) ≥ δ0(b)` — the analysis sizes them as Eq. (4) plus the
    /// initial-token footprint, which always satisfies this.
    InitialTokensExceedCapacity {
        /// The over-filled buffer.
        buffer: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Analysis(e) => write!(f, "invalid task graph: {e}"),
            SimError::CapacityUnset { buffer } => {
                write!(f, "buffer `{buffer}` has no capacity assigned")
            }
            SimError::QuantumNotInSet { buffer, value } => {
                write!(
                    f,
                    "quantum {value} is not in the quantum set of buffer `{buffer}`"
                )
            }
            SimError::EmptyCycle { buffer } => {
                write!(
                    f,
                    "cyclic quantum policy on buffer `{buffer}` has no values"
                )
            }
            SimError::TickOverflow { quantity } => {
                write!(
                    f,
                    "rescaling `{quantity}` to the integer tick clock would overflow u64 ticks"
                )
            }
            SimError::InvalidFault { detail } => {
                write!(f, "invalid fault plan: {detail}")
            }
            SimError::InitialTokensExceedCapacity { buffer } => {
                write!(f, "initial tokens of buffer `{buffer}` exceed its capacity")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vrdf_core::AnalysisError> for SimError {
    fn from(e: vrdf_core::AnalysisError) -> Self {
        SimError::Analysis(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = SimError::Analysis(vrdf_core::AnalysisError::EmptyGraph);
        assert!(e.to_string().contains("invalid task graph"));
        assert!(std::error::Error::source(&e).is_some());
        let e = SimError::CapacityUnset {
            buffer: "d1".into(),
        };
        assert!(e.to_string().contains("d1"));
        assert!(std::error::Error::source(&e).is_none());
        let e: SimError = vrdf_core::AnalysisError::EmptyGraph.into();
        assert!(matches!(e, SimError::Analysis(_)));
    }
}
