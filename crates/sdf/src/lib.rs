//! # vrdf-sdf — the native (C)SDF substrate and the traditional baseline
//!
//! The traditional way to size buffers for data-dependent communication
//! is to pretend the rates are constant and apply (C)SDF machinery.  This
//! crate *is* that machinery, built natively rather than inherited from
//! the VRDF analysis in `vrdf-core`:
//!
//! * [`CsdfGraph`] — a multi-phase (cyclo-static) dataflow model with
//!   phase-cyclic production/consumption vectors.  A variable-rate
//!   [`TaskGraph`] lowers into it via
//!   [`CsdfGraph::lower_constant_max`] (single-phase, rates at their
//!   maxima).
//! * [`CsdfGraph::repetition_vector`] — consistency checking and the
//!   smallest integer repetition vector via the balance equations;
//!   inconsistent graphs are rejected (no finite buffering exists).
//! * [`analyze`] — constant-rate buffer sizing derived from the
//!   repetition vector: steady-state cadences, per-channel token
//!   periods, and sufficient capacities (Eqs. 1–4 through
//!   [`vrdf_core::PairGaps`], as in the VRDF analysis and
//!   [`baseline_capacities`]).  On the constant-max MP3 chain
//!   this reproduces the paper's published `[6015, 3263, 882]` without
//!   touching the VRDF rate propagation.
//! * [`steady_state`] — a self-timed state-space executor on an integer
//!   tick clock: runs a capacitated graph to its periodic steady state
//!   (cycle detection on hashed execution states) and reports the
//!   *achieved* endpoint throughput, or deadlock.
//! * [`minimize_sdf_capacities`] — a per-channel minimal-capacity search
//!   over the executor: the operational floor of the SDF abstraction.
//! * [`baseline_capacities`] — the comparison column of the paper's
//!   evaluation: the *sound* conservative constant-rate sizing of a
//!   variable graph, which pays each quantum set's spread `(max − min)`
//!   in extra containers over the VRDF capacity
//!   (`ζ_SDF = ζ_VRDF + spreads`, the Section 1 over-provisioning
//!   argument made exact; see the [`baseline`] module docs for the
//!   derivation).
//!
//! The original **constant-max transformation** on task graphs survives
//! unchanged ([`constant_max_abstraction`]) — it feeds the executor and
//! keeps the VRDF analysis comparable on already-constant graphs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod csdf;
mod error;
pub mod exec;

pub use baseline::{baseline_capacities, BaselineAnalysis, BaselineEdge};
pub use csdf::{
    analyze, ActorId, ChannelCapacity, ChannelId, CsdfActor, CsdfAnalysis, CsdfChannel, CsdfGraph,
    RepetitionVector,
};
pub use error::SdfError;
pub use exec::{
    minimize_sdf_capacities, steady_state, CoreCounters, ExecOptions, ExecOutcome,
    SdfChannelMinimum, SdfMinimizationReport, SdfSearchOptions, SteadyState,
};

use vrdf_core::{AnalysisError, TaskGraph};

/// Rewrites every buffer's quantum sets to the singleton of their maxima,
/// producing the constant-rate (SDF) abstraction of a variable-rate graph.
///
/// Task names, response times, and already-assigned capacities carry over.
///
/// # Errors
///
/// Propagates graph-construction errors; a graph that was valid stays
/// valid.
///
/// # Examples
///
/// ```
/// use vrdf_core::{QuantumSet, Rational, TaskGraph};
///
/// let tg = TaskGraph::linear_chain(
///     [("a", Rational::ONE), ("b", Rational::ONE)],
///     [("buf", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
/// )?;
/// let sdf = vrdf_sdf::constant_max_abstraction(&tg)?;
/// let buf = sdf.buffer_by_name("buf").unwrap();
/// assert!(sdf.buffer(buf).consumption().is_constant());
/// assert_eq!(sdf.buffer(buf).consumption().max(), 3);
/// # Ok::<(), vrdf_core::AnalysisError>(())
/// ```
pub fn constant_max_abstraction(tg: &TaskGraph) -> Result<TaskGraph, AnalysisError> {
    let mut out = TaskGraph::new();
    let mut ids = Vec::with_capacity(tg.task_count());
    for (_, task) in tg.tasks() {
        ids.push(out.add_task(task.name(), task.response_time())?);
    }
    for (_, buffer) in tg.buffers() {
        let id = out.connect(
            buffer.name(),
            ids[buffer.producer().index()],
            ids[buffer.consumer().index()],
            buffer.production().to_constant_max(),
            buffer.consumption().to_constant_max(),
        )?;
        if let Some(capacity) = buffer.capacity() {
            out.set_capacity(id, capacity);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{rat, QuantumSet};

    #[test]
    fn abstraction_is_constant_and_preserves_structure() {
        let mut tg = TaskGraph::linear_chain(
            [("a", rat(1, 10)), ("b", rat(1, 20)), ("c", rat(1, 40))],
            [
                (
                    "b0",
                    QuantumSet::new([1, 4]).unwrap(),
                    QuantumSet::new([0, 2]).unwrap(),
                ),
                (
                    "b1",
                    QuantumSet::constant(3),
                    QuantumSet::new([1, 2]).unwrap(),
                ),
            ],
        )
        .unwrap();
        tg.set_capacity(tg.buffer_by_name("b0").unwrap(), 9);
        let sdf = constant_max_abstraction(&tg).unwrap();
        assert_eq!(sdf.task_count(), 3);
        assert_eq!(sdf.buffer_count(), 2);
        for (_, buffer) in sdf.buffers() {
            assert!(buffer.production().is_constant());
            assert!(buffer.consumption().is_constant());
        }
        let b0 = sdf.buffer_by_name("b0").unwrap();
        assert_eq!(sdf.buffer(b0).production().max(), 4);
        assert_eq!(sdf.buffer(b0).consumption().max(), 2);
        assert_eq!(sdf.buffer(b0).capacity(), Some(9));
        assert_eq!(
            sdf.task(sdf.task_by_name("b").unwrap()).response_time(),
            rat(1, 20)
        );
    }

    #[test]
    fn abstraction_preserves_fork_join_structure() {
        // The chain-only unit tests used to be the whole coverage; the
        // abstraction must also rewrite every edge of a DAG — structure,
        // carried capacities, and constancy of all rewritten sets.
        let mut tg = TaskGraph::new();
        let src = tg.add_task("src", rat(1, 10)).unwrap();
        let left = tg.add_task("left", rat(1, 20)).unwrap();
        let right = tg.add_task("right", rat(1, 30)).unwrap();
        let snk = tg.add_task("snk", rat(1, 40)).unwrap();
        tg.connect(
            "fl",
            src,
            left,
            QuantumSet::new([2, 6]).unwrap(),
            QuantumSet::new([0, 3]).unwrap(),
        )
        .unwrap();
        tg.connect(
            "fr",
            src,
            right,
            QuantumSet::constant(4),
            QuantumSet::new([1, 2, 4]).unwrap(),
        )
        .unwrap();
        tg.connect(
            "jl",
            left,
            snk,
            QuantumSet::new([1, 5]).unwrap(),
            QuantumSet::constant(5),
        )
        .unwrap();
        tg.connect(
            "jr",
            right,
            snk,
            QuantumSet::new([2, 3]).unwrap(),
            QuantumSet::new([1, 3]).unwrap(),
        )
        .unwrap();
        tg.set_capacity(tg.buffer_by_name("fr").unwrap(), 11);
        tg.set_capacity(tg.buffer_by_name("jl").unwrap(), 7);

        let sdf = constant_max_abstraction(&tg).unwrap();
        // Structure: same tasks, same edges, same fork/join shape.
        assert_eq!(sdf.task_count(), 4);
        assert_eq!(sdf.buffer_count(), 4);
        let dag = sdf.condensed().unwrap();
        assert_eq!(dag.sources().len(), 1);
        assert_eq!(dag.sinks().len(), 1);
        assert_eq!(
            sdf.output_buffers(sdf.task_by_name("src").unwrap()).len(),
            2
        );
        assert_eq!(sdf.input_buffers(sdf.task_by_name("snk").unwrap()).len(), 2);
        // Every rewritten set is the constant of the original maximum.
        for (id, original) in tg.buffers() {
            let rewritten = sdf.buffer(sdf.buffer_by_name(original.name()).unwrap());
            assert!(rewritten.production().is_constant(), "{}", original.name());
            assert!(rewritten.consumption().is_constant(), "{}", original.name());
            assert_eq!(rewritten.production().max(), original.production().max());
            assert_eq!(rewritten.consumption().max(), original.consumption().max());
            assert_eq!(rewritten.capacity(), tg.buffer(id).capacity());
        }
        // Capacities carried over exactly where they were set.
        assert_eq!(
            sdf.buffer(sdf.buffer_by_name("fr").unwrap()).capacity(),
            Some(11)
        );
        assert_eq!(
            sdf.buffer(sdf.buffer_by_name("jl").unwrap()).capacity(),
            Some(7)
        );
        assert_eq!(
            sdf.buffer(sdf.buffer_by_name("fl").unwrap()).capacity(),
            None
        );
    }
}
