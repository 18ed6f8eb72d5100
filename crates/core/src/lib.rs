//! # vrdf-core — buffer capacities for data-dependent dataflow
//!
//! A from-scratch implementation of
//!
//! > M. H. Wiggers, M. J. G. Bekooij, G. J. M. Smit.
//! > *Computation of Buffer Capacities for Throughput Constrained and
//! > Data Dependent Inter-Task Communication.* DATE 2008.
//!
//! Streaming applications are task graphs whose tasks communicate over
//! bounded FIFO buffers with back-pressure: a task executes only when its
//! input buffer holds enough full containers *and* its output buffer holds
//! enough empty ones.  When the amount of data produced or consumed
//! changes from execution to execution — a variable-length decoder, an
//! MP3 frame parser — classical (C)SDF buffer-sizing techniques no longer
//! apply.  This crate computes buffer capacities that are **guaranteed
//! sufficient** for a strict-periodicity (throughput) constraint on the
//! graph's sink or source, for *any* admissible sequence of transfer
//! quanta.
//!
//! ## Quick start
//!
//! Reproduce the paper's MP3 playback case study (Section 5):
//!
//! ```
//! use vrdf_core::{
//!     compute_buffer_capacities, QuantumSet, Rational, TaskGraph, ThroughputConstraint,
//! };
//!
//! // Chain of Fig. 5: CD block reader -> MP3 decoder -> sample-rate
//! // converter -> DAC.  Response times in seconds.
//! let tg = TaskGraph::linear_chain(
//!     [
//!         ("vBR", Rational::new(512, 10_000)),  // 51.2 ms
//!         ("vMP3", Rational::new(24, 1000)),    // 24 ms
//!         ("vSRC", Rational::new(10, 1000)),    // 10 ms
//!         ("vDAC", Rational::new(1, 44_100)),   // one sample period
//!     ],
//!     [
//!         // The decoder consumes a data-dependent number of bytes.
//!         ("d1", QuantumSet::constant(2048), QuantumSet::range_inclusive(0, 960)?),
//!         ("d2", QuantumSet::constant(1152), QuantumSet::constant(480)),
//!         ("d3", QuantumSet::constant(441), QuantumSet::constant(1)),
//!     ],
//! )?;
//!
//! // The DAC must fire strictly periodically at 44.1 kHz.
//! let analysis = compute_buffer_capacities(
//!     &tg,
//!     ThroughputConstraint::on_sink(Rational::new(1, 44_100))?,
//! )?;
//! let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
//! assert_eq!(caps, vec![6015, 3263, 882]); // the published numbers
//! # Ok::<(), vrdf_core::AnalysisError>(())
//! ```
//!
//! ## Module tour
//!
//! * [`rational`] — exact arithmetic; every bound and period is a
//!   [`Rational`].
//! * [`quantum`] — finite quantum sets [`QuantumSet`] (`Pf(N)`).
//! * [`taskgraph`] — the task model `T = (W, B, ξ, λ, κ, ζ)` and its
//!   validation into a [`CondensedView`] (chains, fork/join DAGs, and
//!   cycles closed by tokened feedback edges).
//! * [`rates`] — throughput constraints and `φ` propagation over the
//!   condensed view; on a chain, the paper's walk from the constrained
//!   endpoint.
//! * [`bounds`] — the bound distances of Eqs. 1–3 and the Eq. 4
//!   capacity of one producer–consumer pair ([`PairGaps`]), the one
//!   place every analysis evaluates them.
//! * [`capacity`] — the buffer-capacity algorithm (Eq. 4), feasibility
//!   checks, and the producer–consumer pair shortcut.  Every graph is
//!   sized on one path: [`TaskGraph::condensed`], then
//!   [`RateAssignment::derive_dag`], then [`PairGaps`] per buffer.
//!
//! The companion crates build on this one: `vrdf-sim` (discrete-event
//! self-timed simulator used to verify sufficiency), `vrdf-sdf` (the
//! native CSDF substrate — repetition vectors, state-space execution —
//! computing the traditional baseline the paper compares against), and
//! `vrdf-apps` (the MP3 chain, synthetic workloads and the `vrdf`
//! command-line tool).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod capacity;
pub mod error;
pub mod quantum;
pub mod rates;
pub mod rational;
pub mod taskgraph;

pub use bounds::PairGaps;
pub use capacity::{
    compute_buffer_capacities, compute_buffer_capacities_with, derive_rates, pair_capacity,
    AnalysisOptions, BufferCapacity, ConstrainedRelease, GraphAnalysis,
};
pub use error::AnalysisError;
pub use quantum::QuantumSet;
pub use rates::{ConstraintLocation, PairTiming, RateAssignment, ThroughputConstraint};
pub use rational::{rat, ParseRationalError, Rational};
pub use taskgraph::{Buffer, BufferId, CondensedView, Task, TaskGraph, TaskId};
