//! The buffer-capacity algorithm (Section 4), generalized from chains to
//! fork/join DAGs and cyclic graphs.
//!
//! Every graph takes one path: [`TaskGraph::condensed`] validates the
//! topology, [`RateAssignment::derive_dag`] derives the bound rates from
//! the throughput constraint (Sections 4.3–4.4; on a chain, the paper's
//! walk from the constrained endpoint), the schedule-validity conditions
//! `ρ(v) ≤ φ(v)` under which the existence schedules are admissible must
//! hold, and then for every buffer [`PairGaps`]
//!
//! 1. computes the minimum distance between the space-production and
//!    space-consumption bounds (Eq. 3),
//! 2. converts the distance into a sufficient number of initial tokens on
//!    the reverse edge (Eq. 4) — the buffer capacity `ζ(b)` in containers.
//!
//! The capacities are *sufficient* for the throughput constraint for every
//! admissible sequence of production and consumption quanta: by
//! monotonicity and linearity of VRDF, the run-time (self-timed) schedule
//! can only be a bounded delay of the witness schedules.
//!
//! # The strictly periodic actor's space release
//!
//! Applying Eq. (3) literally, the throughput-constrained actor `vτ`
//! contributes its full response time to the bound distance of its
//! adjacent buffer: containers are freed at its firing *finish*.  The
//! numbers published for the MP3 case study (d3 = 882) correspond instead
//! to `vτ` freeing containers at its firing *start* (its response time is
//! still used for the validity check).  Both conventions are implemented —
//! see [`ConstrainedRelease`]; the default reproduces the paper's table,
//! and `crates/core/tests/mp3_case_study.rs` pins the one-container
//! difference (`d3` = 883 under [`ConstrainedRelease::AfterResponseTime`]).

use crate::bounds::PairGaps;
use crate::error::AnalysisError;
use crate::rates::{ConstraintLocation, RateAssignment, ThroughputConstraint};
use crate::rational::Rational;
use crate::taskgraph::{BufferId, CondensedView, TaskGraph, TaskId};

/// When the strictly periodic (throughput-constrained) actor frees the
/// containers it consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ConstrainedRelease {
    /// Containers are freed at the firing start of the constrained actor,
    /// so its response time does not enter Eq. (3) for the adjacent
    /// buffer.  Reproduces the published MP3 capacities (d3 = 882).
    #[default]
    Immediate,
    /// Literal Eq. (3): containers are freed `ρ(vτ)` after the firing
    /// start, like every other actor (d3 = 883 for the MP3 chain).
    AfterResponseTime,
}

/// Tunable knobs for [`compute_buffer_capacities_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Space-release convention of the constrained actor.
    pub release: ConstrainedRelease,
}

/// The computed capacity of one buffer, with the quantities that produced
/// it (exposed per C-INTERMEDIATE so callers can inspect the analysis).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferCapacity {
    /// The buffer this capacity belongs to.
    pub buffer: BufferId,
    /// The buffer's name.
    pub name: String,
    /// Sufficient capacity `ζ(b)` in containers (Eq. 4).
    pub capacity: u64,
    /// Time per token of the pair's linear bounds.
    pub token_period: Rational,
    /// Eq. (1): the producer-side bound distance.
    pub producer_gap: Rational,
    /// Eq. (2): the consumer-side bound distance.
    pub consumer_gap: Rational,
    /// Eq. (3): the reverse-edge bound distance used by Eq. (4).
    pub total_gap: Rational,
    /// `φ` of the producing task.
    pub producer_phi: Rational,
    /// `φ` of the consuming task.
    pub consumer_phi: Rational,
    /// `π̂(e_ab)` — the producer's maximum quantum.
    pub producer_max_quantum: u64,
    /// `γ̂(e_ab)` — the consumer's maximum quantum.
    pub consumer_max_quantum: u64,
    /// `δ0(b)` — the buffer's initial tokens (zero unless the buffer is a
    /// feedback edge).  Already included in `capacity`: the pre-filled
    /// containers occupy space on top of the worst-case in-flight
    /// production Eq. (4) provisions for.
    pub initial_tokens: u64,
}

/// The complete result of analysing a task graph (chain or fork/join
/// DAG).
#[derive(Clone, Debug)]
pub struct GraphAnalysis {
    constraint: ThroughputConstraint,
    options: AnalysisOptions,
    capacities: Vec<BufferCapacity>,
    rates: RateAssignment,
}

impl GraphAnalysis {
    /// Per-buffer capacities, in the analysed view's buffer order
    /// (source-to-sink for a chain).
    #[inline]
    pub fn capacities(&self) -> &[BufferCapacity] {
        &self.capacities
    }

    /// The capacity computed for a specific buffer, if it is part of the
    /// analysed graph.
    pub fn capacity_of(&self, buffer: BufferId) -> Option<&BufferCapacity> {
        self.capacities.iter().find(|c| c.buffer == buffer)
    }

    /// The rate assignment (per-task `φ`, per-buffer bound rates).
    #[inline]
    pub fn rates(&self) -> &RateAssignment {
        &self.rates
    }

    /// The throughput constraint that was analysed.
    #[inline]
    pub fn constraint(&self) -> ThroughputConstraint {
        self.constraint
    }

    /// The options the analysis ran with.
    #[inline]
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Sum of all buffer capacities in containers — the figure of merit
    /// the paper's evaluation compares.  Never wraps: the analysis
    /// refuses capacities whose sum leaves `u64`.
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().map(|c| c.capacity).sum()
    }

    /// Writes the computed capacities back into the task graph's `ζ`.
    pub fn apply(&self, tg: &mut TaskGraph) {
        for c in &self.capacities {
            tg.set_capacity(c.buffer, c.capacity);
        }
    }

    /// A clone of `tg` carrying this analysis' capacities, with the given
    /// per-buffer overrides applied on top — the probe constructor for
    /// capacity-search drivers and falsification experiments.
    ///
    /// Overrides may name any buffer of the graph (later entries win) and
    /// leave every other buffer at its computed capacity; the input graph
    /// is untouched.
    pub fn with_capacities(&self, tg: &TaskGraph, overrides: &[(BufferId, u64)]) -> TaskGraph {
        let mut sized = tg.clone();
        self.apply(&mut sized);
        for &(buffer, capacity) in overrides {
            sized.set_capacity(buffer, capacity);
        }
        sized
    }
}

/// Computes sufficient buffer capacities for a task graph (chain or
/// fork/join DAG) under a throughput constraint, with default
/// [`AnalysisOptions`].
///
/// This is the algorithm of the paper (stated there for chains),
/// generalized per edge over the DAG; see the module documentation for
/// the steps.
///
/// # Errors
///
/// * Topology errors from [`TaskGraph::condensed`].
/// * [`AnalysisError::AmbiguousEndpoint`] when the constrained endpoint
///   is not unique (several sinks in sink-constrained mode, several
///   sources in source-constrained mode).
/// * [`AnalysisError::ConstraintNotOnEndpoint`] is never produced here —
///   the constraint's endpoint is implied by its
///   [`location`](ThroughputConstraint::location).
/// * [`AnalysisError::ZeroQuantumNotSupported`] from rate derivation.
/// * [`AnalysisError::InfeasibleResponseTime`] when a response time
///   exceeds `φ(v)`.
/// * [`AnalysisError::ArithmeticOverflow`] when the rate walk, an
///   Eq. (1)–(4) value or the total capacity leaves the range of the
///   exact arithmetic.
///
/// # Examples
///
/// The Fig. 1 pair under a throughput constraint of one `wb` firing per 3
/// time units:
///
/// ```
/// use vrdf_core::{
///     compute_buffer_capacities, QuantumSet, Rational, TaskGraph, ThroughputConstraint,
/// };
///
/// let tg = TaskGraph::linear_chain(
///     [("wa", Rational::ONE), ("wb", Rational::ONE)],
///     [("b", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
/// )?;
/// let analysis = compute_buffer_capacities(
///     &tg,
///     ThroughputConstraint::on_sink(Rational::from(3u64))?,
/// )?;
/// assert_eq!(analysis.capacities().len(), 1);
/// # Ok::<(), vrdf_core::AnalysisError>(())
/// ```
pub fn compute_buffer_capacities(
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
) -> Result<GraphAnalysis, AnalysisError> {
    compute_buffer_capacities_with(tg, constraint, AnalysisOptions::default())
}

/// Like [`compute_buffer_capacities`], with explicit [`AnalysisOptions`].
///
/// # Errors
///
/// See [`compute_buffer_capacities`].
pub fn compute_buffer_capacities_with(
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
    options: AnalysisOptions,
) -> Result<GraphAnalysis, AnalysisError> {
    let dag = tg.condensed()?;
    let rates = RateAssignment::derive_dag(tg, &dag, constraint)?;
    let constrained_task = match constraint.location() {
        ConstraintLocation::Sink => dag.unique_sink(tg)?,
        ConstraintLocation::Source => dag.unique_source(tg)?,
    };

    // Schedule-validity conditions (Section 4.2).
    for &task in dag.tasks() {
        let rho = tg.task(task).response_time();
        let bound = rates.phi(task);
        if rho > bound {
            return Err(AnalysisError::InfeasibleResponseTime {
                actor: tg.task(task).name().to_owned(),
                response_time: rho,
                bound,
            });
        }
    }

    let mut capacities = Vec::with_capacity(rates.pairs().len());
    for pair in rates.pairs() {
        let buffer = tg.buffer(pair.buffer);
        let producer = buffer.producer();
        let consumer = buffer.consumer();

        let effective_rho = |task: TaskId| -> Rational {
            if task == constrained_task && options.release == ConstrainedRelease::Immediate {
                Rational::ZERO
            } else {
                tg.task(task).response_time()
            }
        };

        let gaps = PairGaps::new(
            pair.token_period,
            effective_rho(producer),
            effective_rho(consumer),
            buffer.production().max(),
            buffer.consumption().max(),
        )?;
        // A feedback edge starts with δ0 full containers; the capacity is
        // Eq. (4) — room for the worst-case in-flight production — plus
        // that pre-filled footprint.  Forward buffers carry δ0 = 0.
        let capacity = gaps
            .sufficient_initial_tokens()
            .checked_add(buffer.initial_tokens())
            .ok_or(AnalysisError::ArithmeticOverflow {
                context: "the Eq. 4 capacity",
            })?;
        capacities.push(BufferCapacity {
            buffer: pair.buffer,
            name: buffer.name().to_owned(),
            capacity,
            token_period: gaps.token_period(),
            producer_gap: gaps.producer_gap(),
            consumer_gap: gaps.consumer_gap(),
            total_gap: gaps.total_gap(),
            producer_phi: pair.producer_phi,
            consumer_phi: pair.consumer_phi,
            producer_max_quantum: buffer.production().max(),
            consumer_max_quantum: buffer.consumption().max(),
            initial_tokens: buffer.initial_tokens(),
        });
    }
    let total = capacities
        .iter()
        .try_fold(0u64, |t, c| t.checked_add(c.capacity));
    total.ok_or(AnalysisError::ArithmeticOverflow {
        context: "the total capacity",
    })?;

    Ok(GraphAnalysis {
        constraint,
        options,
        capacities,
        rates,
    })
}

/// Analyses a single producer–consumer pair without building a
/// [`TaskGraph`]: the two-actor configuration of Fig. 2.
///
/// `production` and `consumption` are `ξ(b)` / `λ(b)`; `period` is the
/// consumer's strict period `τ`.  The consumer is the constrained actor.
///
/// # Errors
///
/// Same as [`compute_buffer_capacities`].
///
/// # Examples
///
/// ```
/// use vrdf_core::{pair_capacity, QuantumSet, Rational};
///
/// // Fig. 2 with m = {3}, n = {2,3}, zero response times.
/// let cap = pair_capacity(
///     QuantumSet::constant(3),
///     QuantumSet::new([2, 3])?,
///     Rational::ZERO,
///     Rational::ZERO,
///     Rational::from(3u64),
/// )?;
/// assert_eq!(cap.capacity, 5); // pi_hat + gamma_hat - 1
/// # Ok::<(), vrdf_core::AnalysisError>(())
/// ```
pub fn pair_capacity(
    production: crate::quantum::QuantumSet,
    consumption: crate::quantum::QuantumSet,
    producer_response: Rational,
    consumer_response: Rational,
    period: Rational,
) -> Result<BufferCapacity, AnalysisError> {
    let tg = {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("producer", producer_response)?;
        let b = tg.add_task("consumer", consumer_response)?;
        tg.connect("pair", a, b, production, consumption)?;
        tg
    };
    let analysis = compute_buffer_capacities_with(
        &tg,
        ThroughputConstraint::on_sink(period)?,
        AnalysisOptions {
            release: ConstrainedRelease::AfterResponseTime,
        },
    )?;
    Ok(analysis.capacities()[0].clone())
}

/// Validates a task graph and returns its [`CondensedView`] together with its
/// rate assignment — the intermediate results of the analysis, per
/// C-INTERMEDIATE.
///
/// # Errors
///
/// Topology errors from [`TaskGraph::condensed`] and rate errors from
/// [`RateAssignment::derive_dag`].
pub fn derive_rates(
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
) -> Result<(CondensedView, RateAssignment), AnalysisError> {
    let dag = tg.condensed()?;
    let rates = RateAssignment::derive_dag(tg, &dag, constraint)?;
    Ok((dag, rates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantum::QuantumSet;
    use crate::rational::rat;

    fn q(values: &[u64]) -> QuantumSet {
        QuantumSet::new(values.iter().copied()).unwrap()
    }

    /// The MP3 playback chain of Fig. 5 / Section 5.  Times in seconds.
    pub(crate) fn mp3_task_graph() -> TaskGraph {
        TaskGraph::linear_chain(
            [
                ("vBR", rat(512, 10000)),
                ("vMP3", rat(24, 1000)),
                ("vSRC", rat(10, 1000)),
                ("vDAC", rat(1, 44100)),
            ],
            [
                (
                    "d1",
                    QuantumSet::constant(2048),
                    QuantumSet::range_inclusive(0, 960).unwrap(),
                ),
                ("d2", QuantumSet::constant(1152), QuantumSet::constant(480)),
                ("d3", QuantumSet::constant(441), QuantumSet::constant(1)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn mp3_capacities_match_section_5() {
        let tg = mp3_task_graph();
        let analysis =
            compute_buffer_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap())
                .unwrap();
        let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
        assert_eq!(caps, vec![6015, 3263, 882], "published Section 5 numbers");
        assert_eq!(analysis.total_capacity(), 6015 + 3263 + 882);
    }

    #[test]
    fn mp3_capacities_literal_eq3() {
        // With the constrained actor's full response time in Eq. (3), the
        // last buffer gains exactly one container.
        let tg = mp3_task_graph();
        let analysis = compute_buffer_capacities_with(
            &tg,
            ThroughputConstraint::on_sink(rat(1, 44100)).unwrap(),
            AnalysisOptions {
                release: ConstrainedRelease::AfterResponseTime,
            },
        )
        .unwrap();
        let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
        assert_eq!(caps, vec![6015, 3263, 883]);
    }

    #[test]
    fn mp3_gaps_are_exact() {
        let tg = mp3_task_graph();
        let analysis =
            compute_buffer_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap())
                .unwrap();
        let d2 = &analysis.capacities()[1];
        // token period: 10 ms / 480.
        assert_eq!(d2.token_period, rat(1, 100) / rat(480, 1));
        // Eq (3) for d2: 24ms + 10ms + t*(1151 + 479) = 34ms + 163/4800 s.
        assert_eq!(d2.total_gap, rat(34, 1000) + d2.token_period * rat(1630, 1));
        assert_eq!(d2.producer_max_quantum, 1152);
        assert_eq!(d2.consumer_max_quantum, 480);
        assert_eq!(d2.name, "d2");
    }

    #[test]
    fn capacity_of_lookup() {
        let tg = mp3_task_graph();
        let analysis =
            compute_buffer_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap())
                .unwrap();
        let d3 = tg.buffer_by_name("d3").unwrap();
        assert_eq!(analysis.capacity_of(d3).unwrap().capacity, 882);
        assert_eq!(analysis.capacity_of(BufferId(99)), None);
    }

    #[test]
    fn apply_writes_capacities_back() {
        let mut tg = mp3_task_graph();
        let analysis =
            compute_buffer_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap())
                .unwrap();
        analysis.apply(&mut tg);
        assert_eq!(
            tg.buffer(tg.buffer_by_name("d1").unwrap()).capacity(),
            Some(6015)
        );
    }

    #[test]
    fn with_capacities_overrides_single_edges() {
        let tg = mp3_task_graph();
        let analysis =
            compute_buffer_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap())
                .unwrap();
        let d3 = tg.buffer_by_name("d3").unwrap();
        let probe = analysis.with_capacities(&tg, &[(d3, 881)]);
        // The override lands; every other buffer keeps its computed value.
        assert_eq!(probe.buffer(d3).capacity(), Some(881));
        let d1 = tg.buffer_by_name("d1").unwrap();
        assert_eq!(probe.buffer(d1).capacity(), Some(6015));
        // Later overrides win, and the input graph is untouched.
        let probe = analysis.with_capacities(&tg, &[(d3, 881), (d3, 880)]);
        assert_eq!(probe.buffer(d3).capacity(), Some(880));
        assert_eq!(tg.buffer(d3).capacity(), None);
    }

    #[test]
    fn infeasible_response_time_is_reported() {
        // vSRC's bound is 10 ms; give it 11 ms.
        let tg = TaskGraph::linear_chain(
            [("slow", rat(11, 1000)), ("snk", rat(1, 44100))],
            [("b", QuantumSet::constant(441), QuantumSet::constant(1))],
        )
        .unwrap();
        let err =
            compute_buffer_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap())
                .unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::InfeasibleResponseTime { bound, .. } if bound == rat(10, 1000)
        ));
    }

    #[test]
    fn fig1_constant_consumption_capacities() {
        // The introduction's observation: with n constant 3 the minimal
        // deadlock-free capacity is 3; with n constant 2 it is 4.  Eq. (4)
        // with zero response times gives the deadlock-free minimum
        // pi_hat + gamma_hat - 1 for a pair.
        let c3 =
            pair_capacity(q(&[3]), q(&[3]), Rational::ZERO, Rational::ZERO, rat(3, 1)).unwrap();
        // pi_hat + gamma_hat - 1 = 5 >= 3: sufficient but not minimal;
        // Eq. (4) is a sufficiency bound, not a minimum.
        assert_eq!(c3.capacity, 5);
        let c23 = pair_capacity(
            q(&[3]),
            q(&[2, 3]),
            Rational::ZERO,
            Rational::ZERO,
            rat(3, 1),
        )
        .unwrap();
        assert_eq!(c23.capacity, 5);
        // The variable set never needs less than its constant-max variant.
        assert!(c23.capacity >= c3.capacity);
    }

    #[test]
    fn source_constrained_chain() {
        // Mirror of the sink case: source strictly periodic.
        let tg = TaskGraph::linear_chain(
            [
                ("src", rat(1, 10)),
                ("mid", rat(1, 20)),
                ("snk", rat(1, 40)),
            ],
            [("b0", q(&[4]), q(&[2])), ("b1", q(&[3]), q(&[1]))],
        )
        .unwrap();
        let analysis =
            compute_buffer_capacities(&tg, ThroughputConstraint::on_source(rat(2, 5)).unwrap())
                .unwrap();
        assert_eq!(analysis.capacities().len(), 2);
        // token period of b0 = tau / pi_hat = (2/5)/4 = 1/10.
        assert_eq!(analysis.capacities()[0].token_period, rat(1, 10));
        // phi(mid) = (1/10)*2 = 1/5; token period of b1 = (1/5)/3 = 1/15.
        assert_eq!(analysis.capacities()[1].token_period, rat(1, 15));
        // Source-constrained + Immediate: the source's rho is excluded on b0.
        let b0 = &analysis.capacities()[0];
        // gap = 0 + rho(mid) + t*(4-1) + t*(2-1) = 1/20 + 4/10.
        assert_eq!(b0.total_gap, rat(1, 20) + rat(4, 10));
        // d = floor(gap/t + 1) = floor(4.5 + 1) = 5.
        assert_eq!(b0.capacity, 5);
    }

    #[test]
    fn derive_rates_exposes_intermediates() {
        let tg = mp3_task_graph();
        let (chain, rates) =
            derive_rates(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap()).unwrap();
        assert_eq!(chain.len(), 4);
        assert_eq!(rates.pairs().len(), 3);
    }

    #[test]
    fn feedback_capacity_is_eq4_plus_initial_tokens() {
        // A rate-balanced loop: forward edges keep their acyclic
        // capacities bit-identical, and the feedback edge is sized at
        // Eq. (4) plus its δ0 footprint.
        let build = |delta0: Option<u64>| {
            let mut tg = TaskGraph::new();
            let a = tg.add_task("a", Rational::ZERO).unwrap();
            let b = tg.add_task("b", Rational::ZERO).unwrap();
            let c = tg.add_task("c", Rational::ZERO).unwrap();
            tg.connect("ab", a, b, q(&[2]), q(&[2])).unwrap();
            tg.connect("bc", b, c, q(&[3]), q(&[3])).unwrap();
            if let Some(d) = delta0 {
                tg.connect_feedback("ca", c, a, q(&[1]), q(&[1]), d)
                    .unwrap();
            }
            tg
        };
        let constraint = ThroughputConstraint::on_sink(rat(6, 1)).unwrap();
        let acyclic = compute_buffer_capacities(&build(None), constraint).unwrap();
        for &delta0 in &[1u64, 7, 100] {
            let tg = build(Some(delta0));
            let looped = compute_buffer_capacities(&tg, constraint).unwrap();
            // Forward edges: unchanged by the balanced back-edge.
            for (flat, lofted) in acyclic.capacities().iter().zip(looped.capacities()) {
                if lofted.name == "ca" {
                    continue;
                }
                assert_eq!(flat.capacity, lofted.capacity, "{}", lofted.name);
                assert_eq!(lofted.initial_tokens, 0);
            }
            // Feedback edge: Eq. (4) for a zero-response 1:1 pair is
            // pi_hat + gamma_hat - 1 = 1; plus delta0.
            let fb = looped.capacities().iter().find(|c| c.name == "ca").unwrap();
            assert_eq!(fb.initial_tokens, delta0);
            assert_eq!(fb.capacity, 1 + delta0);
        }
    }

    #[test]
    fn zero_response_time_pair_minimum() {
        // d = pi_hat + gamma_hat - 1 for zero response times, a classic
        // sanity bound.
        for (p, c) in [(1u64, 1u64), (3, 2), (7, 5), (441, 1)] {
            let cap = pair_capacity(
                q(&[p]),
                q(&[c]),
                Rational::ZERO,
                Rational::ZERO,
                rat(c as i128, 1),
            )
            .unwrap();
            assert_eq!(cap.capacity, p + c - 1, "pair ({p},{c})");
        }
    }
}
