//! The traditional-baseline column, computed natively: conservative
//! constant-rate ((C)SDF) buffer sizing of a variable-rate task graph.
//!
//! A firing-indexed constant-rate schedule cannot express data-dependent
//! quanta, so a *sound* SDF abstraction of a VRDF buffer must split each
//! side's quantum set conservatively:
//!
//! * **cadence** — the schedule must keep working when the producer
//!   delivers its minimum `π̌` per firing while the consumer demands its
//!   maximum `γ̂` (sink-constrained; mirrored for a source constraint).
//!   The balance equations over these *supply rates* yield the firing
//!   cadences, exactly the worst case the VRDF rate propagation also
//!   assumes;
//! * **footprint** — space is claimed at the maximum `π̂` per producer
//!   firing and guaranteed back only at the minimum `γ̌` per consumer
//!   firing.  VRDF's token-indexed bounds exploit that a firing frees
//!   exactly what it consumed — a firing-indexed schedule cannot, so each
//!   side pays its **spread** `(max − min)` in extra containers on top of
//!   the constant-rate distance.
//!
//! The resulting per-buffer capacity therefore relates to the VRDF
//! analysis as
//!
//! ```text
//! ζ_SDF(b) = ζ_VRDF(b) + (π̂(b) − π̌(b)) + (γ̂(b) − γ̌(b))
//! ```
//!
//! with equality exactly on data-independent (constant-rate) buffers —
//! the paper's Section 1 over-provisioning argument, quantified edge by
//! edge.  The cross-validation suite in `vrdf-apps` pins this identity
//! against `vrdf_core::compute_buffer_capacities` on the case studies
//! and the random corpora; on the constant-max MP3 chain the pipeline
//! reproduces the published `[6015, 3263, 882]`.

use vrdf_core::{
    AnalysisError, ConstraintLocation, PairGaps, Rational, TaskGraph, TaskId, ThroughputConstraint,
};

use crate::csdf::{iteration_period, overflow, per, solve_balance, ChannelRates, CsdfGraph};
use crate::SdfError;
use vrdf_core::BufferId;

/// The conservative SDF capacity of one buffer, with the spreads that
/// separate it from the VRDF capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEdge {
    /// The buffer this capacity belongs to.
    pub buffer: BufferId,
    /// The buffer's name.
    pub name: String,
    /// The conservative constant-rate capacity `ζ_SDF(b)` in containers.
    pub capacity: u64,
    /// Steady-state time per token on this buffer.
    pub token_period: Rational,
    /// `π̂ − π̌`: containers charged for the producer's data dependence.
    pub production_spread: u64,
    /// `γ̂ − γ̌`: containers charged for the consumer's data dependence.
    pub consumption_spread: u64,
    /// `δ0(b)` — the buffer's initial tokens (zero unless it is a
    /// feedback edge), already included in `capacity`.
    pub initial_tokens: u64,
}

impl BaselineEdge {
    /// Containers this edge pays over the VRDF capacity — the sum of both
    /// spreads, zero exactly for constant-rate buffers.
    pub fn over_provision(&self) -> u64 {
        self.production_spread + self.consumption_spread
    }
}

/// The conservative constant-rate sizing of a task graph — the
/// traditional baseline column, computed by SDF machinery (balance
/// equations and repetition vectors) rather than inherited from the
/// VRDF analysis.
#[derive(Clone, Debug)]
pub struct BaselineAnalysis {
    constraint: ThroughputConstraint,
    iteration_period: Rational,
    firings: Vec<u64>,
    phi: Vec<Rational>,
    edges: Vec<BaselineEdge>,
}

impl BaselineAnalysis {
    /// Per-buffer capacities, in the DAG view's buffer order
    /// (source-to-sink for a chain).
    #[inline]
    pub fn edges(&self) -> &[BaselineEdge] {
        &self.edges
    }

    /// The baseline capacity computed for a specific buffer.
    pub fn capacity_of(&self, buffer: BufferId) -> Option<&BaselineEdge> {
        self.edges.iter().find(|e| e.buffer == buffer)
    }

    /// Sum of all baseline capacities in containers.  Never wraps:
    /// [`baseline_capacities`] refuses capacities whose sum leaves `u64`.
    pub fn total_capacity(&self) -> u64 {
        self.edges.iter().map(|e| e.capacity).sum()
    }

    /// Total containers the baseline pays over the VRDF capacities — the
    /// over-provisioning the paper's introduction argues against.
    pub fn total_over_provision(&self) -> u64 {
        self.edges.iter().map(|e| e.over_provision()).sum()
    }

    /// The constraint the sizing was derived for.
    #[inline]
    pub fn constraint(&self) -> ThroughputConstraint {
        self.constraint
    }

    /// Duration of one graph iteration under the supply-rate repetition
    /// vector.
    #[inline]
    pub fn iteration_period(&self) -> Rational {
        self.iteration_period
    }

    /// Supply-rate firings of a task per graph iteration.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not part of the analysed graph.
    #[inline]
    pub fn firings(&self, task: TaskId) -> u64 {
        self.firings[task.index()]
    }

    /// Steady-state distance between consecutive firings of a task under
    /// the conservative abstraction.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not part of the analysed graph.
    #[inline]
    pub fn phi(&self, task: TaskId) -> Rational {
        self.phi[task.index()]
    }

    /// The constant-max lowering of `tg` carrying the baseline
    /// capacities — the graph the state-space executor validates.
    /// Channel indices equal buffer indices, so the capacities land
    /// positionally.
    pub fn sized_lowering(&self, tg: &TaskGraph) -> CsdfGraph {
        let mut g = CsdfGraph::lower_constant_max(tg);
        for edge in &self.edges {
            g.set_capacity(crate::csdf::ChannelId(edge.buffer.index()), edge.capacity);
        }
        g
    }
}

/// Computes the traditional baseline: conservative constant-rate (SDF)
/// buffer capacities for a variable-rate task graph under a throughput
/// constraint, via balance equations over the supply rates and the
/// spread surcharge described in the [module docs](self).
///
/// The strictly periodic endpoint frees the containers it consumed at
/// its firing start (the convention reproducing the paper's published
/// MP3 capacities).
///
/// # Errors
///
/// * Topology and endpoint errors from [`TaskGraph::condensed`], wrapped in
///   [`SdfError::Core`].
/// * [`SdfError::Core`]([`AnalysisError::ZeroQuantumNotSupported`]) when
///   a production set contains 0 in sink-constrained mode (or a
///   consumption set in source-constrained mode) — no supply rate
///   exists.
/// * [`SdfError::Inconsistent`] when the supply-rate balance equations
///   have no solution (rate-mismatched fork/join branches).
/// * [`SdfError::Core`]([`AnalysisError::InfeasibleResponseTime`]) when
///   a response time exceeds its conservative cadence.
/// * [`SdfError::Core`]([`AnalysisError::ArithmeticOverflow`]) when a
///   cadence, token period, Eq. (1)–(4) value or the total capacity
///   leaves the range of the exact arithmetic.
pub fn baseline_capacities(
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
) -> Result<BaselineAnalysis, SdfError> {
    let dag = tg.condensed().map_err(SdfError::Core)?;
    let endpoint = match constraint.location() {
        ConstraintLocation::Sink => dag.unique_sink(tg).map_err(SdfError::Core)?,
        ConstraintLocation::Source => dag.unique_source(tg).map_err(SdfError::Core)?,
    };

    // Supply rates: the per-firing transfers the schedule may count on.
    // Sink-constrained, the producer is only good for its minimum while
    // the consumer demands its maximum; source-constrained mirrors.
    let mut rates = Vec::with_capacity(tg.buffer_count());
    for (_, buffer) in tg.buffers() {
        let (production, consumption) = match constraint.location() {
            ConstraintLocation::Sink => {
                if buffer.production().contains_zero() {
                    return Err(SdfError::Core(AnalysisError::ZeroQuantumNotSupported {
                        buffer: buffer.name().to_owned(),
                        role: "production",
                    }));
                }
                (buffer.production().min(), buffer.consumption().max())
            }
            ConstraintLocation::Source => {
                if buffer.consumption().contains_zero() {
                    return Err(SdfError::Core(AnalysisError::ZeroQuantumNotSupported {
                        buffer: buffer.name().to_owned(),
                        role: "consumption",
                    }));
                }
                (buffer.production().max(), buffer.consumption().min())
            }
        };
        rates.push(ChannelRates {
            name: buffer.name(),
            producer: buffer.producer().index(),
            consumer: buffer.consumer().index(),
            production,
            consumption,
        });
    }
    let firings = solve_balance(tg.task_count(), &rates)?;

    let iteration_period = iteration_period(constraint, firings[endpoint.index()])?;
    let mut phi = Vec::with_capacity(tg.task_count());
    for (id, task) in tg.tasks() {
        let cadence = per(iteration_period, firings[id.index()], "a task cadence")?;
        if task.response_time() > cadence {
            return Err(SdfError::Core(AnalysisError::InfeasibleResponseTime {
                actor: task.name().to_owned(),
                response_time: task.response_time(),
                bound: cadence,
            }));
        }
        phi.push(cadence);
    }

    let mut edges = Vec::with_capacity(tg.buffer_count());
    for &buffer_id in dag.buffers() {
        let buffer = tg.buffer(buffer_id);
        let rate = &rates[buffer_id.index()];
        let tokens_per_iteration = firings[rate.producer]
            .checked_mul(rate.production)
            .ok_or(SdfError::RepetitionOverflow)?;
        let t = per(
            iteration_period,
            tokens_per_iteration,
            "a buffer token period",
        )?;

        let effective_rho = |task: TaskId| -> Rational {
            if task == endpoint {
                Rational::ZERO
            } else {
                tg.task(task).response_time()
            }
        };
        let overflow = || {
            SdfError::Core(AnalysisError::ArithmeticOverflow {
                context: "the baseline capacity",
            })
        };
        let production_spread = buffer.production().spread();
        let consumption_spread = buffer.consumption().spread();
        // Constant-rate bound distances at the maxima, plus one spread
        // per side for the claim/release decoupling.
        let charged = |max: u64, spread: u64| max.checked_add(spread).ok_or_else(overflow);
        let gaps = PairGaps::new(
            t,
            effective_rho(buffer.producer()),
            effective_rho(buffer.consumer()),
            charged(buffer.production().max(), production_spread)?,
            charged(buffer.consumption().max(), consumption_spread)?,
        )
        .map_err(SdfError::Core)?;
        // Like the VRDF side, a feedback edge's pre-filled containers
        // occupy space on top of the in-flight bound.
        let capacity = gaps
            .sufficient_initial_tokens()
            .checked_add(buffer.initial_tokens())
            .ok_or_else(overflow)?;
        edges.push(BaselineEdge {
            buffer: buffer_id,
            name: buffer.name().to_owned(),
            capacity,
            token_period: t,
            production_spread,
            consumption_spread,
            initial_tokens: buffer.initial_tokens(),
        });
    }
    let total = edges
        .iter()
        .try_fold(0u64, |t, e| t.checked_add(e.capacity));
    total.ok_or_else(|| overflow("the total capacity"))?;

    Ok(BaselineAnalysis {
        constraint,
        iteration_period,
        firings,
        phi,
        edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{rat, QuantumSet};

    /// The MP3 playback chain with its genuinely variable d1 consumption.
    fn mp3_chain() -> TaskGraph {
        TaskGraph::linear_chain(
            [
                ("vBR", rat(512, 10_000)),
                ("vMP3", rat(24, 1000)),
                ("vSRC", rat(10, 1000)),
                ("vDAC", rat(1, 44_100)),
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
    fn mp3_baseline_charges_the_d1_spread() {
        let tg = mp3_chain();
        let constraint = ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let caps: Vec<u64> = baseline.edges().iter().map(|e| e.capacity).collect();
        // d1's consumption set {0..960} costs its spread of 960 containers
        // over the VRDF 6015; the constant-rate buffers are unchanged.
        assert_eq!(caps, vec![6015 + 960, 3263, 882]);
        assert_eq!(baseline.total_capacity(), 10_160 + 960);
        assert_eq!(baseline.total_over_provision(), 960);
        let d1 = baseline
            .capacity_of(tg.buffer_by_name("d1").unwrap())
            .unwrap();
        assert_eq!(d1.production_spread, 0);
        assert_eq!(d1.consumption_spread, 960);
        assert_eq!(d1.over_provision(), 960);
        // Supply-rate cadences coincide with the VRDF φ values.
        let phi = |name: &str| baseline.phi(tg.task_by_name(name).unwrap());
        assert_eq!(phi("vSRC"), rat(10, 1000));
        assert_eq!(phi("vMP3"), rat(24, 1000));
        assert_eq!(phi("vBR"), rat(512, 10_000));
    }

    #[test]
    fn constant_rate_graphs_have_zero_over_provision() {
        let tg = vrdf_sdf_constant_max(&mp3_chain());
        let constraint = ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let caps: Vec<u64> = baseline.edges().iter().map(|e| e.capacity).collect();
        assert_eq!(caps, vec![6015, 3263, 882]);
        assert_eq!(baseline.total_over_provision(), 0);
    }

    fn vrdf_sdf_constant_max(tg: &TaskGraph) -> TaskGraph {
        crate::constant_max_abstraction(tg).unwrap()
    }

    #[test]
    fn sized_lowering_carries_the_baseline_capacities() {
        let tg = mp3_chain();
        let constraint = ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let g = baseline.sized_lowering(&tg);
        assert_eq!(
            g.channel(g.channel_by_name("d1").unwrap()).capacity(),
            Some(6975)
        );
        assert_eq!(
            g.channel(g.channel_by_name("d3").unwrap()).capacity(),
            Some(882)
        );
        assert_eq!(baseline.iteration_period(), rat(169_344, 44_100));
        assert_eq!(baseline.firings(tg.task_by_name("vDAC").unwrap()), 169_344);
    }

    #[test]
    fn zero_supply_rates_are_rejected() {
        let tg = TaskGraph::linear_chain(
            [("a", rat(1, 10)), ("b", rat(1, 10))],
            [(
                "buf",
                QuantumSet::new([0, 3]).unwrap(),
                QuantumSet::constant(2),
            )],
        )
        .unwrap();
        let err = baseline_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 10)).unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            SdfError::Core(AnalysisError::ZeroQuantumNotSupported {
                role: "production",
                ..
            })
        ));
        // Source-constrained mirrors on the consumption side.
        let tg = TaskGraph::linear_chain(
            [("a", rat(1, 10)), ("b", rat(1, 10))],
            [(
                "buf",
                QuantumSet::constant(3),
                QuantumSet::new([0, 2]).unwrap(),
            )],
        )
        .unwrap();
        let err = baseline_capacities(&tg, ThroughputConstraint::on_source(rat(1, 10)).unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            SdfError::Core(AnalysisError::ZeroQuantumNotSupported {
                role: "consumption",
                ..
            })
        ));
    }

    #[test]
    fn infeasible_response_times_are_rejected() {
        let tg = TaskGraph::linear_chain(
            [("slow", rat(11, 1000)), ("snk", rat(1, 44_100))],
            [("b", QuantumSet::constant(441), QuantumSet::constant(1))],
        )
        .unwrap();
        let err = baseline_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            SdfError::Core(AnalysisError::InfeasibleResponseTime { .. })
        ));
    }

    #[test]
    fn source_constrained_baseline_mirrors() {
        // Constant rates: the baseline must coincide with the VRDF
        // source-constrained analysis.
        let tg = TaskGraph::linear_chain(
            [
                ("src", rat(1, 10)),
                ("mid", rat(1, 20)),
                ("snk", rat(1, 40)),
            ],
            [
                ("b0", QuantumSet::constant(4), QuantumSet::constant(2)),
                ("b1", QuantumSet::constant(3), QuantumSet::constant(1)),
            ],
        )
        .unwrap();
        let constraint = ThroughputConstraint::on_source(rat(2, 5)).unwrap();
        let baseline = baseline_capacities(&tg, constraint).unwrap();
        let vrdf = vrdf_core::compute_buffer_capacities(&tg, constraint).unwrap();
        for (b, v) in baseline.edges().iter().zip(vrdf.capacities()) {
            assert_eq!(b.capacity, v.capacity, "{}", b.name);
            assert_eq!(b.token_period, v.token_period);
        }
    }
}
