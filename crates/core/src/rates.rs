//! Throughput constraints and rate propagation over task graphs
//! (Sections 4.3 and 4.4, generalized from chains to fork/join DAGs).
//!
//! The application requires one endpoint task to execute *strictly
//! periodically* with period `τ`: the sink (`vτ` with no output buffers)
//! or, symmetrically, the source.  From that constraint the analysis
//! derives, for every producer–consumer pair, the rate that the linear
//! transfer bounds must have, and for every task `w` the minimal required
//! difference `φ(v)` between its consecutive starts.
//!
//! * **Sink-constrained** (Section 4.3): on each buffer the *consumer*
//!   determines the rate.  The bound rate of the pair `(w_x, w_y)` is one
//!   token per `φ(v_y)/γ̂(e_xy)`, and the producer inherits
//!   `φ(v_x) = φ(v_y)/γ̂(e_xy) · π̌(e_xy)` — the producer must keep up even
//!   when the consumer always demands its maximum while the producer
//!   delivers its minimum.
//! * **Source-constrained** (Section 4.4): production is maximised and
//!   consumption minimised instead; the bound rate is one token per
//!   `φ(v_x)/π̂(e_xy)` and `φ(v_y) = φ(v_x)/π̂(e_xy) · γ̌(e_xy)`.
//!
//! # Beyond chains: forks and joins
//!
//! On a fork (one producer, many consumers) the producer must keep up
//! with *every* branch, so its `φ` is the **binding minimum** over its
//! outgoing edges' candidates — the tightest (highest-rate) path wins.
//! Dually, on a join in source-constrained mode the consumer's `φ` is the
//! minimum over its incoming edges' candidates.  A firing transfers on
//! *all* adjacent buffers at once, so a task bound to a fast cadence by
//! one branch also fills (or drains) its other branches at that cadence;
//! each pair's bound rate is therefore the faster of the edge's own
//! demand and the adjacent tasks' binding cadence:
//! `t(e_xy) = min(φ(v_y)/γ̂(e_xy), φ(v_x)/π̌(e_xy))` sink-constrained
//! (mirrored source-constrained).  On a chain the two coincide by
//! construction, so [`RateAssignment::derive_dag`] is exactly the paper's
//! walk from the constrained endpoint — `tests/differential.rs` pins it
//! against an independent implementation of that walk.

use crate::error::AnalysisError;
use crate::rational::Rational;
use crate::taskgraph::{BufferId, CondensedView, TaskGraph, TaskId};

/// `phi / quantum * quantum` with overflow surfaced as a typed error —
/// the single step the rate walk chains along the graph.
fn propagate(
    phi: Rational,
    divide_by: u64,
    multiply_by: u64,
) -> Result<(Rational, Rational), AnalysisError> {
    let token_period =
        phi.checked_div(Rational::from(divide_by))
            .ok_or(AnalysisError::ArithmeticOverflow {
                context: "the pair token period of the rate walk",
            })?;
    let next_phi = token_period
        .checked_mul(Rational::from(multiply_by))
        .ok_or(AnalysisError::ArithmeticOverflow {
            context: "phi propagation of the rate walk",
        })?;
    Ok((token_period, next_phi))
}

/// Which endpoint of the chain carries the throughput constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintLocation {
    /// The task without output buffers executes strictly periodically
    /// (the common case for playback applications; Section 4.2).
    Sink,
    /// The task without input buffers executes strictly periodically
    /// (e.g. a sampling front-end; Section 4.4).
    Source,
}

/// A strict-periodicity requirement on an endpoint of the chain.
///
/// # Examples
///
/// ```
/// use vrdf_core::{Rational, ThroughputConstraint};
///
/// // The DAC of the MP3 application must fire at 44.1 kHz.
/// let c = ThroughputConstraint::on_sink(Rational::new(1, 44100))?;
/// assert!(c.period().is_positive());
/// # Ok::<(), vrdf_core::AnalysisError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ThroughputConstraint {
    location: ConstraintLocation,
    period: Rational,
}

impl ThroughputConstraint {
    /// Requires the sink task to execute strictly periodically with
    /// `period` (`τ`).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NonPositivePeriod`] when `period ≤ 0`.
    pub fn on_sink(period: Rational) -> Result<ThroughputConstraint, AnalysisError> {
        Self::checked(ConstraintLocation::Sink, period)
    }

    /// Requires the source task to execute strictly periodically with
    /// `period` (`τ`).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NonPositivePeriod`] when `period ≤ 0`.
    pub fn on_source(period: Rational) -> Result<ThroughputConstraint, AnalysisError> {
        Self::checked(ConstraintLocation::Source, period)
    }

    fn checked(
        location: ConstraintLocation,
        period: Rational,
    ) -> Result<ThroughputConstraint, AnalysisError> {
        if !period.is_positive() {
            return Err(AnalysisError::NonPositivePeriod(period));
        }
        Ok(ThroughputConstraint { location, period })
    }

    /// Where the constraint sits.
    #[inline]
    pub fn location(&self) -> ConstraintLocation {
        self.location
    }

    /// The required period `τ`.
    #[inline]
    pub fn period(&self) -> Rational {
        self.period
    }
}

/// Per-buffer timing derived from the throughput constraint: the rate of
/// the linear bounds for that producer–consumer pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairTiming {
    /// The buffer this timing belongs to.
    pub buffer: BufferId,
    /// Time per token of the linear bounds on this buffer's edges
    /// (`φ(v_y)/γ̂(e_xy)` sink-constrained, `φ(v_x)/π̂(e_xy)`
    /// source-constrained).
    pub token_period: Rational,
    /// `φ` of the producing task.
    pub producer_phi: Rational,
    /// `φ` of the consuming task.
    pub consumer_phi: Rational,
}

/// The result of propagating the throughput constraint over a task
/// graph: `φ(v)` for every task and the bound rate for every buffer.
#[derive(Clone, Debug)]
pub struct RateAssignment {
    constraint: ThroughputConstraint,
    /// `phi[t]` for the task with index `t`.
    phi: Vec<Rational>,
    pairs: Vec<PairTiming>,
}

impl RateAssignment {
    /// Derives rates for a validated task graph (chain, fork/join DAG or
    /// cyclic graph) under a throughput constraint.
    ///
    /// Processing order is topological (reversed in sink-constrained
    /// mode), so every task's `φ` is the binding minimum over its already
    /// resolved neighbours; see the module docs for the fork/join rules.
    /// On a chain this is exactly the paper's walk from the constrained
    /// endpoint (Sections 4.3–4.4).
    ///
    /// When the view carries feedback edges, a back-edge's rate
    /// constraint joins the binding minimum like any other edge: after
    /// the forward pass a relaxation loop repeats full passes taking the
    /// minimum over *all* adjacent edges — feedback included — until the
    /// `φ` values stop changing.  `φ` values only ever decrease, so on a
    /// rate-balanced cycle (loop gain ≥ 1) the loop settles after at
    /// most one pass per feedback edge; a cycle whose rate-ratio product
    /// is below one admits no finite rate assignment and is rejected.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::AmbiguousEndpoint`] — several sinks in
    ///   sink-constrained mode (or several sources in source-constrained
    ///   mode); the extra endpoints' rates would be underdetermined.
    /// * [`AnalysisError::ZeroQuantumNotSupported`] — a production set
    ///   contains 0 in sink-constrained mode (the producer could then stop
    ///   delivering data for good, so no finite rate assignment exists),
    ///   or a consumption set contains 0 in source-constrained mode.
    /// * [`AnalysisError::ArithmeticOverflow`] — a `φ` or a token period
    ///   leaves the range of the exact arithmetic.
    /// * [`AnalysisError::UnbrokenCycle`] — the feedback relaxation did
    ///   not converge (the cycle demands ever-increasing rates).
    ///
    /// # Examples
    ///
    /// ```
    /// use vrdf_core::{
    ///     QuantumSet, RateAssignment, Rational, TaskGraph, ThroughputConstraint,
    /// };
    ///
    /// let tg = TaskGraph::linear_chain(
    ///     [("wa", Rational::new(1, 100)), ("wb", Rational::new(1, 100))],
    ///     [("b", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
    /// )?;
    /// let tau = Rational::new(3, 100);
    /// let rates =
    ///     RateAssignment::derive_dag(&tg, &tg.condensed()?, ThroughputConstraint::on_sink(tau)?)?;
    /// // The producer must sustain 3 tokens per tau: phi(wa) = tau.
    /// assert_eq!(rates.phi(tg.task_by_name("wa").unwrap()), tau);
    /// # Ok::<(), vrdf_core::AnalysisError>(())
    /// ```
    pub fn derive_dag(
        tg: &TaskGraph,
        dag: &CondensedView,
        constraint: ThroughputConstraint,
    ) -> Result<RateAssignment, AnalysisError> {
        let mut phi = vec![Rational::ZERO; tg.task_count()];
        match constraint.location {
            ConstraintLocation::Sink => {
                let sink = dag.unique_sink(tg)?;
                phi[sink.index()] = constraint.period;
                // Reverse topological order over the forward core: every
                // consumer's phi is resolved before its producers are
                // visited.  Feedback edges wait for the relaxation loop —
                // their consumers sit topologically *earlier*.
                for &task in dag.tasks().iter().rev() {
                    if task == sink {
                        continue;
                    }
                    let mut binding: Option<Rational> = None;
                    for &buffer_id in tg.output_buffers(task) {
                        let buffer = tg.buffer(buffer_id);
                        if buffer.is_feedback() {
                            continue;
                        }
                        if buffer.production().contains_zero() {
                            return Err(AnalysisError::ZeroQuantumNotSupported {
                                buffer: buffer.name().to_owned(),
                                role: "production",
                            });
                        }
                        let consumer_phi = phi[buffer.consumer().index()];
                        let (_, candidate) = propagate(
                            consumer_phi,
                            buffer.consumption().max(),
                            buffer.production().min(),
                        )?;
                        binding = Some(binding.map_or(candidate, |b| b.min(candidate)));
                    }
                    // Non-sink in a single-sink core ⇒ ≥ 1 forward
                    // output, so the fold above always binds.
                    #[allow(clippy::expect_used)]
                    {
                        phi[task.index()] = binding
                            .expect("every non-sink task of a single-sink DAG has an output");
                    }
                }
                Self::relax_feedback(tg, dag, &mut phi, sink, ConstraintLocation::Sink)?;
            }
            ConstraintLocation::Source => {
                let source = dag.unique_source(tg)?;
                phi[source.index()] = constraint.period;
                for &task in dag.tasks().iter() {
                    if task == source {
                        continue;
                    }
                    let mut binding: Option<Rational> = None;
                    for &buffer_id in tg.input_buffers(task) {
                        let buffer = tg.buffer(buffer_id);
                        if buffer.is_feedback() {
                            continue;
                        }
                        if buffer.consumption().contains_zero() {
                            return Err(AnalysisError::ZeroQuantumNotSupported {
                                buffer: buffer.name().to_owned(),
                                role: "consumption",
                            });
                        }
                        let producer_phi = phi[buffer.producer().index()];
                        let (_, candidate) = propagate(
                            producer_phi,
                            buffer.production().max(),
                            buffer.consumption().min(),
                        )?;
                        binding = Some(binding.map_or(candidate, |b| b.min(candidate)));
                    }
                    // Non-source in a single-source core ⇒ ≥ 1 forward
                    // input, so the fold above always binds.
                    #[allow(clippy::expect_used)]
                    {
                        phi[task.index()] = binding
                            .expect("every non-source task of a single-source DAG has an input");
                    }
                }
                Self::relax_feedback(tg, dag, &mut phi, source, ConstraintLocation::Source)?;
            }
        }
        // Per-pair bound rates from the resolved phis: the faster of the
        // edge's own demand and the adjacent task's binding cadence (they
        // coincide on chains).
        let mut pairs = Vec::with_capacity(dag.buffers().len());
        for &buffer_id in dag.buffers() {
            let buffer = tg.buffer(buffer_id);
            let producer_phi = phi[buffer.producer().index()];
            let consumer_phi = phi[buffer.consumer().index()];
            let rate = |phi: Rational, quantum: u64| {
                phi.checked_div(Rational::from(quantum))
                    .ok_or(AnalysisError::ArithmeticOverflow {
                        context: "the pair token period of the rate walk",
                    })
            };
            let token_period = match constraint.location {
                ConstraintLocation::Sink => {
                    let demand = rate(consumer_phi, buffer.consumption().max())?;
                    let cadence = rate(producer_phi, buffer.production().min().max(1))?;
                    demand.min(cadence)
                }
                ConstraintLocation::Source => {
                    let cadence = rate(producer_phi, buffer.production().max())?;
                    let demand = rate(consumer_phi, buffer.consumption().min().max(1))?;
                    cadence.min(demand)
                }
            };
            pairs.push(PairTiming {
                buffer: buffer_id,
                token_period,
                producer_phi,
                consumer_phi,
            });
        }
        Ok(RateAssignment {
            constraint,
            phi,
            pairs,
        })
    }

    /// Folds feedback-edge rate constraints into `phi` by repeated full
    /// passes over *all* adjacent edges until a fixpoint.
    ///
    /// `pinned` is the constrained endpoint, whose `φ = τ` never moves.
    /// Every other task's `φ` is replaced by the binding minimum over
    /// its outputs (sink mode) or inputs (source mode), feedback edges
    /// now included, so values only ever decrease.  On a rate-balanced
    /// cycle the loop settles after one pass per feedback-edge crossing;
    /// a strictly shrinking `φ` means the cycle's rate-ratio product is
    /// below one — no finite rate assignment exists — reported as
    /// [`AnalysisError::UnbrokenCycle`] naming the first cycle still in
    /// violation.
    fn relax_feedback(
        tg: &TaskGraph,
        dag: &CondensedView,
        phi: &mut [Rational],
        pinned: TaskId,
        location: ConstraintLocation,
    ) -> Result<(), AnalysisError> {
        if dag.feedback_buffers().is_empty() {
            return Ok(());
        }
        for &fb in dag.feedback_buffers() {
            let buffer = tg.buffer(fb);
            match location {
                ConstraintLocation::Sink if buffer.production().contains_zero() => {
                    return Err(AnalysisError::ZeroQuantumNotSupported {
                        buffer: buffer.name().to_owned(),
                        role: "production",
                    });
                }
                ConstraintLocation::Source if buffer.consumption().contains_zero() => {
                    return Err(AnalysisError::ZeroQuantumNotSupported {
                        buffer: buffer.name().to_owned(),
                        role: "consumption",
                    });
                }
                _ => {}
            }
        }
        // A converging relaxation lowers some phi across a feedback edge
        // at most once per nesting level; anything still moving after
        // this many passes is shrinking forever.
        let max_passes = dag.feedback_buffers().len() * dag.len() + 8;
        for _ in 0..max_passes {
            let mut changed = false;
            for &task in dag.tasks().iter().rev() {
                if task == pinned {
                    continue;
                }
                let adjacent = match location {
                    ConstraintLocation::Sink => tg.output_buffers(task),
                    ConstraintLocation::Source => tg.input_buffers(task),
                };
                let mut binding: Option<Rational> = None;
                for &buffer_id in adjacent {
                    let buffer = tg.buffer(buffer_id);
                    let (neighbour_phi, divide_by, multiply_by) = match location {
                        ConstraintLocation::Sink => (
                            phi[buffer.consumer().index()],
                            buffer.consumption().max(),
                            buffer.production().min(),
                        ),
                        ConstraintLocation::Source => (
                            phi[buffer.producer().index()],
                            buffer.production().max(),
                            buffer.consumption().min(),
                        ),
                    };
                    let (_, candidate) = propagate(neighbour_phi, divide_by, multiply_by)?;
                    binding = Some(binding.map_or(candidate, |b| b.min(candidate)));
                }
                if let Some(b) = binding {
                    if b < phi[task.index()] {
                        phi[task.index()] = b;
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
        // Blame the first feedback edge whose constraint is still
        // violated; if none is (the divergence crossed task bounds some
        // other way), fall back to the first feedback edge.
        let offender = dag
            .feedback_buffers()
            .iter()
            .find(|&&fb| {
                let buffer = tg.buffer(fb);
                let (neighbour_phi, divide_by, multiply_by, mine) = match location {
                    ConstraintLocation::Sink => (
                        phi[buffer.consumer().index()],
                        buffer.consumption().max(),
                        buffer.production().min(),
                        phi[buffer.producer().index()],
                    ),
                    ConstraintLocation::Source => (
                        phi[buffer.producer().index()],
                        buffer.production().max(),
                        buffer.consumption().min(),
                        phi[buffer.consumer().index()],
                    ),
                };
                propagate(neighbour_phi, divide_by, multiply_by)
                    .map(|(_, candidate)| candidate < mine)
                    .unwrap_or(true)
            })
            .or_else(|| dag.feedback_buffers().first())
            .copied();
        #[allow(clippy::expect_used)]
        let buffer = tg.buffer(offender.expect("feedback set is non-empty here"));
        Err(AnalysisError::UnbrokenCycle {
            cycle: tg.feedback_cycle_path(buffer),
            detail: format!(
                "rate relaxation over feedback buffer `{}` did not converge: \
                 the cycle's rate-ratio product is below one, so no finite \
                 rate assignment satisfies the throughput constraint",
                buffer.name()
            ),
        })
    }

    /// The constraint the assignment was derived from.
    #[inline]
    pub fn constraint(&self) -> ThroughputConstraint {
        self.constraint
    }

    /// Minimal required difference between consecutive starts of a task,
    /// `φ(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not part of the graph the assignment was
    /// derived for.
    #[inline]
    pub fn phi(&self, task: TaskId) -> Rational {
        self.phi[task.index()]
    }

    /// Per-buffer bound timing, in the condensed view's buffer order
    /// (source to sink on a chain).
    #[inline]
    pub fn pairs(&self) -> &[PairTiming] {
        &self.pairs
    }

    /// The maximum admissible worst-case response time for each task: its
    /// `φ(v)`.  Exceeding it makes the existence schedule invalid
    /// (Section 4.2's producer/consumer schedule conditions).
    pub fn response_time_bound(&self, task: TaskId) -> Rational {
        self.phi(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantum::QuantumSet;
    use crate::rational::rat;

    fn q(values: &[u64]) -> QuantumSet {
        QuantumSet::new(values.iter().copied()).unwrap()
    }

    fn rates_of(
        tg: &TaskGraph,
        constraint: ThroughputConstraint,
    ) -> Result<RateAssignment, AnalysisError> {
        RateAssignment::derive_dag(tg, &tg.condensed().unwrap(), constraint)
    }

    /// The MP3 playback chain of Fig. 5 with the paper's response times.
    fn mp3_chain() -> TaskGraph {
        // Times in seconds.
        TaskGraph::linear_chain(
            [
                ("vBR", rat(512, 10000)), // 51.2 ms
                ("vMP3", rat(24, 1000)),  // 24 ms
                ("vSRC", rat(10, 1000)),  // 10 ms
                ("vDAC", rat(1, 44100)),  // one sample period
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
    fn constraint_validation() {
        assert!(ThroughputConstraint::on_sink(rat(1, 44100)).is_ok());
        assert!(matches!(
            ThroughputConstraint::on_sink(Rational::ZERO),
            Err(AnalysisError::NonPositivePeriod(_))
        ));
        assert!(matches!(
            ThroughputConstraint::on_source(rat(-1, 2)),
            Err(AnalysisError::NonPositivePeriod(_))
        ));
        let c = ThroughputConstraint::on_source(rat(1, 2)).unwrap();
        assert_eq!(c.location(), ConstraintLocation::Source);
        assert_eq!(c.period(), rat(1, 2));
    }

    #[test]
    fn mp3_phi_values_match_paper() {
        // Section 5: response times "that would just allow the throughput
        // constraint to be satisfied" are exactly the phi values.
        let tg = mp3_chain();
        let rates = rates_of(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap()).unwrap();
        let phi_ms = |name: &str| rates.phi(tg.task_by_name(name).unwrap()) * rat(1000, 1);
        assert_eq!(phi_ms("vDAC"), rat(1000, 44100) * rat(1, 1)); // ~0.0227 ms
        assert_eq!(phi_ms("vSRC"), rat(10, 1)); // 10 ms
        assert_eq!(phi_ms("vMP3"), rat(24, 1)); // 24 ms
        assert_eq!(phi_ms("vBR"), rat(256, 5)); // 51.2 ms
    }

    #[test]
    fn mp3_token_periods() {
        let tg = mp3_chain();
        let rates = rates_of(&tg, ThroughputConstraint::on_sink(rat(1, 44100)).unwrap()).unwrap();
        let pairs = rates.pairs();
        assert_eq!(pairs.len(), 3);
        // d3: one token per DAC period.
        assert_eq!(pairs[2].token_period, rat(1, 44100));
        // d2: 480 tokens per 10 ms.
        assert_eq!(pairs[1].token_period, rat(10, 1000) / rat(480, 1));
        // d1: 960 tokens per 24 ms.
        assert_eq!(pairs[0].token_period, rat(24, 1000) / rat(960, 1));
        // Pair ordering matches the chain's buffer ordering.
        assert_eq!(pairs[0].buffer, tg.buffer_by_name("d1").unwrap());
        // consumer phi of pair i equals producer phi of pair i+1.
        assert_eq!(pairs[0].consumer_phi, pairs[1].producer_phi);
        assert_eq!(pairs[1].consumer_phi, pairs[2].producer_phi);
    }

    #[test]
    fn zero_production_rejected_in_sink_mode() {
        let tg = TaskGraph::linear_chain(
            [("a", rat(1, 10)), ("b", rat(1, 10))],
            [("buf", q(&[0, 3]), q(&[2]))],
        )
        .unwrap();
        let err = rates_of(&tg, ThroughputConstraint::on_sink(rat(1, 10)).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::ZeroQuantumNotSupported {
                role: "production",
                ..
            }
        ));
    }

    #[test]
    fn zero_consumption_allowed_in_sink_mode() {
        let tg = TaskGraph::linear_chain(
            [("a", rat(1, 10)), ("b", rat(1, 10))],
            [("buf", q(&[3]), q(&[0, 2]))],
        )
        .unwrap();
        assert!(rates_of(&tg, ThroughputConstraint::on_sink(rat(1, 10)).unwrap()).is_ok());
    }

    #[test]
    fn source_mode_mirrors_sink_mode() {
        // Source-constrained: production maximised, consumption minimised.
        let tg = TaskGraph::linear_chain(
            [("src", rat(1, 10)), ("snk", rat(1, 10))],
            [("buf", q(&[2, 4]), q(&[3]))],
        )
        .unwrap();
        let (src, snk) = (
            tg.task_by_name("src").unwrap(),
            tg.task_by_name("snk").unwrap(),
        );
        let tau = rat(1, 5);
        let rates = rates_of(&tg, ThroughputConstraint::on_source(tau).unwrap()).unwrap();
        // token period = tau / pi_hat = (1/5)/4.
        assert_eq!(rates.pairs()[0].token_period, rat(1, 20));
        // phi(snk) = token_period * gamma_min = 3/20.
        assert_eq!(rates.phi(snk), rat(3, 20));
        assert_eq!(rates.phi(src), tau);
        assert_eq!(rates.response_time_bound(snk), rat(3, 20));
    }

    #[test]
    fn zero_consumption_rejected_in_source_mode() {
        let tg = TaskGraph::linear_chain(
            [("src", rat(1, 10)), ("snk", rat(1, 10))],
            [("buf", q(&[3]), q(&[0, 2]))],
        )
        .unwrap();
        let err = rates_of(&tg, ThroughputConstraint::on_source(rat(1, 10)).unwrap()).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::ZeroQuantumNotSupported {
                role: "consumption",
                ..
            }
        ));
    }

    #[test]
    fn zero_production_allowed_in_source_mode() {
        let tg = TaskGraph::linear_chain(
            [("src", rat(1, 10)), ("snk", rat(1, 10))],
            [("buf", q(&[0, 3]), q(&[2]))],
        )
        .unwrap();
        assert!(rates_of(&tg, ThroughputConstraint::on_source(rat(1, 10)).unwrap()).is_ok());
    }

    /// A fork: `src` feeds a fast branch (consumes 4 per firing) and a
    /// slow branch (consumes 1 per firing), both strict sinks... joined
    /// through a mux so the sink is unique.
    fn fork_join_graph() -> (TaskGraph, crate::taskgraph::CondensedView) {
        let mut tg = TaskGraph::new();
        let src = tg.add_task("src", Rational::ZERO).unwrap();
        let fast = tg.add_task("fast", Rational::ZERO).unwrap();
        let slow = tg.add_task("slow", Rational::ZERO).unwrap();
        let mux = tg.add_task("mux", Rational::ZERO).unwrap();
        tg.connect("f", src, fast, q(&[2]), q(&[4])).unwrap();
        tg.connect("s", src, slow, q(&[1]), q(&[1])).unwrap();
        tg.connect("fm", fast, mux, q(&[1]), q(&[1])).unwrap();
        tg.connect("sm", slow, mux, q(&[2]), q(&[1])).unwrap();
        let dag = tg.condensed().unwrap();
        (tg, dag)
    }

    #[test]
    fn fork_takes_the_binding_minimum_over_branches() {
        let (tg, dag) = fork_join_graph();
        let tau = rat(8, 1);
        let rates =
            RateAssignment::derive_dag(&tg, &dag, ThroughputConstraint::on_sink(tau).unwrap())
                .unwrap();
        let phi = |name: &str| rates.phi(tg.task_by_name(name).unwrap());
        // Sink: phi(mux) = tau = 8.
        assert_eq!(phi("mux"), rat(8, 1));
        // fm: token 8/1, phi(fast) = 8·1 = 8.  sm: token 8/1,
        // phi(slow) = 8·2 = 16.
        assert_eq!(phi("fast"), rat(8, 1));
        assert_eq!(phi("slow"), rat(16, 1));
        // src candidates: via f, (8/4)·2 = 4; via s, (16/1)·1 = 16.
        // The binding minimum is the fast branch.
        assert_eq!(phi("src"), rat(4, 1));
        // On the slow branch the pair rate follows the producer's forced
        // cadence (4 per π̌ = 1 token), not the branch demand of 16.
        let pair_of = |name: &str| {
            *rates
                .pairs()
                .iter()
                .find(|p| p.buffer == tg.buffer_by_name(name).unwrap())
                .unwrap()
        };
        assert_eq!(pair_of("s").token_period, rat(4, 1));
        assert_eq!(pair_of("f").token_period, rat(2, 1)); // 8/4 = 4/2
        assert_eq!(pair_of("s").producer_phi, rat(4, 1));
        assert_eq!(pair_of("s").consumer_phi, rat(16, 1));
    }

    #[test]
    fn ambiguous_sink_is_rejected() {
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", Rational::ZERO).unwrap();
        let b = tg.add_task("b", Rational::ZERO).unwrap();
        let c = tg.add_task("c", Rational::ZERO).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("ac", a, c, q(&[1]), q(&[1])).unwrap();
        let dag = tg.condensed().unwrap();
        let err = RateAssignment::derive_dag(
            &tg,
            &dag,
            ThroughputConstraint::on_sink(rat(1, 1)).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::AmbiguousEndpoint { .. }));
        // Source-constrained works: the source is unique.
        assert!(RateAssignment::derive_dag(
            &tg,
            &dag,
            ThroughputConstraint::on_source(rat(1, 1)).unwrap()
        )
        .is_ok());
    }

    #[test]
    fn source_constrained_join_takes_binding_minimum() {
        // Two-stage: source forks into two branches that join at the sink.
        let mut tg = TaskGraph::new();
        let src = tg.add_task("src", Rational::ZERO).unwrap();
        let l = tg.add_task("l", Rational::ZERO).unwrap();
        let r = tg.add_task("r", Rational::ZERO).unwrap();
        let snk = tg.add_task("snk", Rational::ZERO).unwrap();
        tg.connect("sl", src, l, q(&[4]), q(&[2])).unwrap();
        tg.connect("sr", src, r, q(&[1]), q(&[1])).unwrap();
        tg.connect("ls", l, snk, q(&[1]), q(&[1])).unwrap();
        tg.connect("rs", r, snk, q(&[1]), q(&[2])).unwrap();
        let dag = tg.condensed().unwrap();
        let tau = rat(2, 1);
        let rates =
            RateAssignment::derive_dag(&tg, &dag, ThroughputConstraint::on_source(tau).unwrap())
                .unwrap();
        let phi = |name: &str| rates.phi(tg.task_by_name(name).unwrap());
        assert_eq!(phi("src"), tau);
        // l: (2/4)·2 = 1.  r: (2/1)·1 = 2.
        assert_eq!(phi("l"), rat(1, 1));
        assert_eq!(phi("r"), rat(2, 1));
        // snk candidates: via ls, (1/1)·1 = 1; via rs, (2/1)·2 = 4.
        // The join binds to the fastest producer cadence.
        assert_eq!(phi("snk"), rat(1, 1));
    }

    #[test]
    fn balanced_feedback_edge_leaves_the_rate_assignment_unchanged() {
        // a → b → c with a rate-balanced feedback edge c is not on:
        // b → a carrying 1:1 quanta.  The feedback candidate equals the
        // forward phi, so the relaxation settles immediately and every
        // phi (and every pair) matches the acyclic graph's.
        let build = |with_feedback: bool| {
            let mut tg = TaskGraph::new();
            let a = tg.add_task("a", Rational::ZERO).unwrap();
            let b = tg.add_task("b", Rational::ZERO).unwrap();
            let c = tg.add_task("c", Rational::ZERO).unwrap();
            tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
            tg.connect("bc", b, c, q(&[2]), q(&[2])).unwrap();
            if with_feedback {
                tg.connect_feedback("ba", b, a, q(&[1]), q(&[1]), 3)
                    .unwrap();
            }
            tg
        };
        let acyclic = build(false);
        let cyclic = build(true);
        let constraint = ThroughputConstraint::on_sink(rat(5, 1)).unwrap();
        let flat = RateAssignment::derive_dag(&acyclic, &acyclic.condensed().unwrap(), constraint)
            .unwrap();
        let looped =
            RateAssignment::derive_dag(&cyclic, &cyclic.condensed().unwrap(), constraint).unwrap();
        for name in ["a", "b", "c"] {
            assert_eq!(
                flat.phi(acyclic.task_by_name(name).unwrap()),
                looped.phi(cyclic.task_by_name(name).unwrap()),
                "phi({name}) moved when the balanced feedback edge was added"
            );
        }
        // The feedback pair gets a token period like any other buffer.
        let fb = cyclic.buffer_by_name("ba").unwrap();
        assert!(looped.pairs().iter().any(|p| p.buffer == fb));
    }

    #[test]
    fn binding_feedback_edge_tightens_upstream_rates() {
        // Feedback edge b → a demanding 2 tokens per firing of `a` while
        // producing 1: the candidate phi(b) = phi(a)/2 binds *below* the
        // forward value once, after which phi(a) follows and the loop
        // shrinks again — rate-ratio product 1/4 < 1, no finite
        // assignment, reported as the cycle it is.
        let mut tg = TaskGraph::new();
        let a = tg.add_task("a", Rational::ZERO).unwrap();
        let b = tg.add_task("b", Rational::ZERO).unwrap();
        let c = tg.add_task("c", Rational::ZERO).unwrap();
        tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
        tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
        tg.connect_feedback("ba", b, a, q(&[1]), q(&[2]), 4)
            .unwrap();
        let dag = tg.condensed().unwrap();
        let err = RateAssignment::derive_dag(
            &tg,
            &dag,
            ThroughputConstraint::on_sink(rat(8, 1)).unwrap(),
        )
        .unwrap_err();
        match err {
            AnalysisError::UnbrokenCycle { cycle, detail } => {
                assert_eq!(cycle, vec!["b", "a", "b"]);
                assert!(detail.contains("did not converge"), "{detail}");
            }
            other => panic!("expected UnbrokenCycle, got {other:?}"),
        }
    }

    #[test]
    fn source_constrained_feedback_relaxation_mirrors_sink_mode() {
        // A loop strictly downstream of the pinned source: b → c forward
        // and c → b feedback, so the feedback edge's consumption side
        // joins b's input binding minimum.  Balanced quanta keep the
        // assignment finite; a deficient loop is rejected.
        let build = |fb_prod: &[u64], fb_cons: &[u64]| {
            let mut tg = TaskGraph::new();
            let a = tg.add_task("a", Rational::ZERO).unwrap();
            let b = tg.add_task("b", Rational::ZERO).unwrap();
            let c = tg.add_task("c", Rational::ZERO).unwrap();
            tg.connect("ab", a, b, q(&[1]), q(&[1])).unwrap();
            tg.connect("bc", b, c, q(&[1]), q(&[1])).unwrap();
            tg.connect_feedback("cb", c, b, q(fb_prod), q(fb_cons), 2)
                .unwrap();
            tg
        };
        let balanced = build(&[1], &[1]);
        let rates = RateAssignment::derive_dag(
            &balanced,
            &balanced.condensed().unwrap(),
            ThroughputConstraint::on_source(rat(3, 1)).unwrap(),
        )
        .unwrap();
        assert_eq!(rates.phi(balanced.task_by_name("b").unwrap()), rat(3, 1));
        assert_eq!(rates.phi(balanced.task_by_name("c").unwrap()), rat(3, 1));
        // Production max 2 per consumed 1: each relaxation pass halves
        // phi(b) via the feedback input — divergent.
        let deficient = build(&[2], &[1]);
        let err = RateAssignment::derive_dag(
            &deficient,
            &deficient.condensed().unwrap(),
            ThroughputConstraint::on_source(rat(3, 1)).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::UnbrokenCycle { .. }));
    }

    #[test]
    fn single_task_chain_has_no_pairs() {
        let mut tg = TaskGraph::new();
        let only = tg.add_task("only", rat(1, 10)).unwrap();
        let rates = rates_of(&tg, ThroughputConstraint::on_sink(rat(1, 2)).unwrap()).unwrap();
        assert!(rates.pairs().is_empty());
        assert_eq!(rates.phi(only), rat(1, 2));
    }
}
