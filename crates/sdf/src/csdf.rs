//! The native (C)SDF graph model: multi-phase actors, phase-cyclic
//! channel rates, balance-equation consistency, repetition vectors, and
//! the constant-rate capacity analysis.
//!
//! A cyclo-static dataflow graph is a set of actors communicating over
//! channels.  Actor `a` cycles through `P(a)` *phases*; firing `k`
//! executes phase `k mod P(a)`, consuming `cons[p]` tokens from each
//! input channel and producing `prod[p]` tokens on each output channel,
//! with a per-phase response time.  Plain SDF is the single-phase special
//! case, and a variable-rate [`TaskGraph`] lowers into it via
//! [`CsdfGraph::lower_constant_max`] (every quantum set collapsed to the
//! singleton of its maximum).
//!
//! Unlike the VRDF analysis in `vrdf-core` — which never builds a
//! schedule and works per producer–consumer pair — the machinery here is
//! classical (C)SDF: the **balance equations** `r(a)·Σπ(c) = r(b)·Σγ(c)`
//! either have a smallest positive integer solution (the repetition
//! vector, [`CsdfGraph::repetition_vector`]) or the graph is
//! *inconsistent* and no finite buffering exists.  [`analyze`] derives
//! steady-state firing cadences and per-channel buffer capacities from
//! that vector; `crate::exec` runs the graph to its periodic steady
//! state to verify them operationally.

use vrdf_core::{
    AnalysisError, ConstraintLocation, PairGaps, Rational, TaskGraph, ThroughputConstraint,
};

use crate::SdfError;
use std::fmt;

/// Opaque handle to an actor inside a [`CsdfGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) usize);

/// Opaque handle to a channel inside a [`CsdfGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub(crate) usize);

impl ActorId {
    /// Position of the actor in insertion order.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl ChannelId {
    /// Position of the channel in insertion order.
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A CSDF actor: a cyclic sequence of phases, each with its own
/// worst-case response time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsdfActor {
    name: String,
    response_times: Vec<Rational>,
}

impl CsdfActor {
    /// The actor's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of phases `P(a)` (≥ 1).
    #[inline]
    pub fn phases(&self) -> usize {
        self.response_times.len()
    }

    /// Worst-case response time of one phase.
    ///
    /// # Panics
    ///
    /// Panics when `phase >= self.phases()`.
    #[inline]
    pub fn response_time(&self, phase: usize) -> Rational {
        self.response_times[phase]
    }

    /// The largest per-phase response time — what the conservative
    /// capacity analysis charges per firing.
    pub fn max_response_time(&self) -> Rational {
        self.response_times
            .iter()
            .copied()
            .fold(Rational::ZERO, Rational::max)
    }
}

/// A channel from a producing actor to a consuming actor, with
/// phase-cyclic rates on both ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsdfChannel {
    name: String,
    producer: ActorId,
    consumer: ActorId,
    production: Vec<u64>,
    consumption: Vec<u64>,
    initial_tokens: u64,
    capacity: Option<u64>,
}

impl CsdfChannel {
    /// The channel's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The producing actor.
    #[inline]
    pub fn producer(&self) -> ActorId {
        self.producer
    }

    /// The consuming actor.
    #[inline]
    pub fn consumer(&self) -> ActorId {
        self.consumer
    }

    /// Tokens produced per producer phase (indexed by the producer's
    /// phase).
    #[inline]
    pub fn production(&self) -> &[u64] {
        &self.production
    }

    /// Tokens consumed per consumer phase (indexed by the consumer's
    /// phase).
    #[inline]
    pub fn consumption(&self) -> &[u64] {
        &self.consumption
    }

    /// Tokens produced per full producer cycle, `Σ_p prod[p]` (≥ 1).
    pub fn production_per_cycle(&self) -> u64 {
        self.production.iter().sum()
    }

    /// Tokens consumed per full consumer cycle, `Σ_p cons[p]` (≥ 1).
    pub fn consumption_per_cycle(&self) -> u64 {
        self.consumption.iter().sum()
    }

    /// The largest per-phase production quantum.
    pub fn max_production(&self) -> u64 {
        // Channel constructors reject empty phase vectors.
        #[allow(clippy::expect_used)]
        *self.production.iter().max().expect("phases are non-empty")
    }

    /// The largest per-phase consumption quantum.
    pub fn max_consumption(&self) -> u64 {
        // Channel constructors reject empty phase vectors.
        #[allow(clippy::expect_used)]
        *self.consumption.iter().max().expect("phases are non-empty")
    }

    /// Tokens present before the first firing.
    #[inline]
    pub fn initial_tokens(&self) -> u64 {
        self.initial_tokens
    }

    /// Capacity in containers, if set or computed.
    #[inline]
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }
}

/// A cyclo-static dataflow graph.
///
/// # Examples
///
/// A two-phase downsampler fed by a constant producer:
///
/// ```
/// use vrdf_core::Rational;
/// use vrdf_sdf::CsdfGraph;
///
/// let mut g = CsdfGraph::new();
/// let src = g.add_actor("src", [Rational::new(1, 10)])?;
/// let down = g.add_actor("down", [Rational::new(1, 20), Rational::new(1, 30)])?;
/// g.connect("c", src, down, [3], [2, 4])?;
/// let r = g.repetition_vector()?;
/// // Balance: r(src)·3 = r(down)·(2+4)  →  cycles [2, 1], firings [2, 2].
/// assert_eq!(r.cycles(src), 2);
/// assert_eq!(r.firings(down), 2);
/// # Ok::<(), vrdf_sdf::SdfError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct CsdfGraph {
    actors: Vec<CsdfActor>,
    channels: Vec<CsdfChannel>,
    outputs: Vec<Vec<ChannelId>>,
    inputs: Vec<Vec<ChannelId>>,
}

impl CsdfGraph {
    /// Creates an empty graph.
    pub fn new() -> CsdfGraph {
        CsdfGraph::default()
    }

    /// Adds an actor whose phases have the given worst-case response
    /// times (one entry per phase; a single entry is a plain SDF actor).
    ///
    /// # Errors
    ///
    /// [`SdfError::DuplicateName`], [`SdfError::NoPhases`], or
    /// [`SdfError::NegativeResponseTime`].
    pub fn add_actor(
        &mut self,
        name: impl Into<String>,
        response_times: impl IntoIterator<Item = Rational>,
    ) -> Result<ActorId, SdfError> {
        let name = name.into();
        if self.actors.iter().any(|a| a.name == name) {
            return Err(SdfError::DuplicateName(name));
        }
        let response_times: Vec<Rational> = response_times.into_iter().collect();
        if response_times.is_empty() {
            return Err(SdfError::NoPhases { actor: name });
        }
        if let Some(&value) = response_times.iter().find(|r| r.is_negative()) {
            return Err(SdfError::NegativeResponseTime { actor: name, value });
        }
        let id = ActorId(self.actors.len());
        self.actors.push(CsdfActor {
            name,
            response_times,
        });
        self.outputs.push(Vec::new());
        self.inputs.push(Vec::new());
        Ok(id)
    }

    /// Connects `producer` to `consumer` with a new channel; `production`
    /// is indexed by the producer's phases and `consumption` by the
    /// consumer's.  The channel starts empty with no capacity assigned.
    ///
    /// # Errors
    ///
    /// [`SdfError::DuplicateName`], [`SdfError::UnknownActor`],
    /// [`SdfError::PhaseMismatch`] when a rate vector does not match its
    /// actor's phase count, [`SdfError::ZeroCycleRate`] when a side
    /// transfers nothing over a full cycle, or
    /// [`SdfError::RepetitionOverflow`] when a side's per-cycle sum does
    /// not fit `u64` (so the per-cycle totals never wrap).
    pub fn connect(
        &mut self,
        name: impl Into<String>,
        producer: ActorId,
        consumer: ActorId,
        production: impl IntoIterator<Item = u64>,
        consumption: impl IntoIterator<Item = u64>,
    ) -> Result<ChannelId, SdfError> {
        let name = name.into();
        if self.channels.iter().any(|c| c.name == name) {
            return Err(SdfError::DuplicateName(name));
        }
        for id in [producer, consumer] {
            if id.0 >= self.actors.len() {
                return Err(SdfError::UnknownActor(format!("{id}")));
            }
        }
        let production: Vec<u64> = production.into_iter().collect();
        let consumption: Vec<u64> = consumption.into_iter().collect();
        for (rates, actor, role) in [
            (&production, producer, "production"),
            (&consumption, consumer, "consumption"),
        ] {
            let phases = self.actors[actor.0].phases();
            if rates.len() != phases {
                return Err(SdfError::PhaseMismatch {
                    channel: name,
                    actor: self.actors[actor.0].name.clone(),
                    phases,
                    rates: rates.len(),
                });
            }
            if rates.iter().all(|&r| r == 0) {
                return Err(SdfError::ZeroCycleRate {
                    channel: name,
                    role,
                });
            }
            let per_cycle = rates.iter().try_fold(0u64, |sum, &r| sum.checked_add(r));
            if per_cycle.is_none() {
                return Err(SdfError::RepetitionOverflow);
            }
        }
        let id = ChannelId(self.channels.len());
        self.channels.push(CsdfChannel {
            name,
            producer,
            consumer,
            production,
            consumption,
            initial_tokens: 0,
            capacity: None,
        });
        self.outputs[producer.0].push(id);
        self.inputs[consumer.0].push(id);
        Ok(id)
    }

    /// Sets a channel's capacity in containers.
    ///
    /// # Panics
    ///
    /// Panics if `channel` does not belong to this graph.
    pub fn set_capacity(&mut self, channel: ChannelId, capacity: u64) {
        self.channels[channel.0].capacity = Some(capacity);
    }

    /// Sets a channel's initial tokens (delay tokens, `0` by default).
    ///
    /// # Panics
    ///
    /// Panics if `channel` does not belong to this graph.
    pub fn set_initial_tokens(&mut self, channel: ChannelId, tokens: u64) {
        self.channels[channel.0].initial_tokens = tokens;
    }

    /// Number of actors.
    #[inline]
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of channels.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The actor behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn actor(&self, id: ActorId) -> &CsdfActor {
        &self.actors[id.0]
    }

    /// The channel behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> &CsdfChannel {
        &self.channels[id.0]
    }

    /// Looks an actor up by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors.iter().position(|a| a.name == name).map(ActorId)
    }

    /// Looks a channel up by name.
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(ChannelId)
    }

    /// Iterates over all actors with their handles.
    pub fn actors(&self) -> impl Iterator<Item = (ActorId, &CsdfActor)> {
        self.actors.iter().enumerate().map(|(i, a)| (ActorId(i), a))
    }

    /// Iterates over all channels with their handles.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &CsdfChannel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId(i), c))
    }

    /// Output channels of an actor, in connection order.
    pub fn output_channels(&self, actor: ActorId) -> &[ChannelId] {
        &self.outputs[actor.0]
    }

    /// Input channels of an actor, in connection order.
    pub fn input_channels(&self, actor: ActorId) -> &[ChannelId] {
        &self.inputs[actor.0]
    }

    /// Lowers a variable-rate task graph into this model as single-phase
    /// SDF: every quantum set collapses to the singleton of its maximum
    /// (the traditional constant-rate approximation), task response times
    /// become one-phase response times, and already-assigned capacities
    /// and initial tokens (feedback edges' `δ0`) carry over.  Actor and
    /// channel indices equal the task and buffer indices of `tg`, so
    /// handles translate positionally.
    ///
    /// This is exact for graphs whose sets are already constant and is
    /// what the state-space executor runs; the *conservative* sizing of a
    /// genuinely variable graph additionally charges each quantum set's
    /// spread — see [`baseline_capacities`](crate::baseline_capacities).
    // Re-registering names and quanta from an already-validated
    // `TaskGraph` cannot fail.
    #[allow(clippy::expect_used)]
    pub fn lower_constant_max(tg: &TaskGraph) -> CsdfGraph {
        let mut g = CsdfGraph::new();
        for (_, task) in tg.tasks() {
            g.add_actor(task.name(), [task.response_time()])
                .expect("a valid TaskGraph has unique names and non-negative response times");
        }
        for (_, buffer) in tg.buffers() {
            let id = g
                .connect(
                    buffer.name(),
                    ActorId(buffer.producer().index()),
                    ActorId(buffer.consumer().index()),
                    [buffer.production().max()],
                    [buffer.consumption().max()],
                )
                .expect("a valid TaskGraph has unique buffer names and positive maxima");
            if let Some(capacity) = buffer.capacity() {
                g.set_capacity(id, capacity);
            }
            if buffer.initial_tokens() > 0 {
                g.set_initial_tokens(id, buffer.initial_tokens());
            }
        }
        g
    }

    /// A clone with per-channel capacity overrides applied (later entries
    /// win) — the probe constructor for capacity searches.
    ///
    /// # Panics
    ///
    /// Panics if an override names a channel outside this graph.
    pub fn with_capacities(&self, overrides: &[(ChannelId, u64)]) -> CsdfGraph {
        let mut g = self.clone();
        for &(channel, capacity) in overrides {
            g.set_capacity(channel, capacity);
        }
        g
    }

    /// The unique sink (no output channels), or
    /// [`SdfError::AmbiguousEndpoint`].
    pub fn unique_sink(&self) -> Result<ActorId, SdfError> {
        self.unique_endpoint(ConstraintLocation::Sink)
    }

    /// The unique source (no input channels), or
    /// [`SdfError::AmbiguousEndpoint`].
    pub fn unique_source(&self) -> Result<ActorId, SdfError> {
        self.unique_endpoint(ConstraintLocation::Source)
    }

    /// The unique endpoint for a constraint location.
    ///
    /// On a cyclic graph no actor is free of adjacent channels in the
    /// role direction, so when the strict rule (no outputs for a sink,
    /// no inputs for a source) finds nothing, channels pre-loaded with
    /// initial tokens are discounted as back-edges: a sink may still
    /// *produce* onto such channels and a source may still *consume*
    /// from them (the lowered feedback edges of a cyclic
    /// [`vrdf_core::TaskGraph`] land exactly there) — mirroring how
    /// `CondensedView` classifies sources and sinks.
    ///
    /// # Errors
    ///
    /// [`SdfError::EmptyGraph`] or [`SdfError::AmbiguousEndpoint`].
    pub fn unique_endpoint(&self, location: ConstraintLocation) -> Result<ActorId, SdfError> {
        if self.actors.is_empty() {
            return Err(SdfError::EmptyGraph);
        }
        let (adjacency, role) = match location {
            ConstraintLocation::Sink => (&self.outputs, "sink"),
            ConstraintLocation::Source => (&self.inputs, "source"),
        };
        let mut candidates: Vec<ActorId> = (0..self.actors.len())
            .filter(|&a| adjacency[a].is_empty())
            .map(ActorId)
            .collect();
        if candidates.is_empty() {
            candidates = (0..self.actors.len())
                .filter(|&a| {
                    adjacency[a]
                        .iter()
                        .all(|&c| self.channels[c.index()].initial_tokens > 0)
                })
                .map(ActorId)
                .collect();
        }
        match candidates.as_slice() {
            [one] => Ok(*one),
            _ => Err(SdfError::AmbiguousEndpoint {
                role,
                actors: candidates
                    .iter()
                    .map(|&a| self.actors[a.0].name.clone())
                    .collect(),
            }),
        }
    }

    /// Solves the balance equations and returns the smallest positive
    /// integer repetition vector, or [`SdfError::Inconsistent`] when no
    /// non-trivial solution exists (in which case no finite buffering
    /// admits a periodic schedule).
    ///
    /// # Errors
    ///
    /// [`SdfError::EmptyGraph`], [`SdfError::Disconnected`],
    /// [`SdfError::Inconsistent`], or [`SdfError::RepetitionOverflow`].
    pub fn repetition_vector(&self) -> Result<RepetitionVector, SdfError> {
        if self.actors.is_empty() {
            return Err(SdfError::EmptyGraph);
        }
        // Weak connectivity (covers orphan actors too).
        let mut seen = vec![false; self.actors.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(a) = stack.pop() {
            for &c in self.outputs[a].iter().chain(&self.inputs[a]) {
                let channel = &self.channels[c.0];
                for next in [channel.producer.0, channel.consumer.0] {
                    if !seen[next] {
                        seen[next] = true;
                        stack.push(next);
                    }
                }
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(SdfError::Disconnected);
        }

        let rates: Vec<ChannelRates> = self
            .channels
            .iter()
            .map(|c| ChannelRates {
                name: c.name.as_str(),
                producer: c.producer.0,
                consumer: c.consumer.0,
                production: c.production_per_cycle(),
                consumption: c.consumption_per_cycle(),
            })
            .collect();
        let cycles = solve_balance(self.actors.len(), &rates)?;

        let mut firings = Vec::with_capacity(self.actors.len());
        for (a, actor) in self.actors.iter().enumerate() {
            let f = cycles[a]
                .checked_mul(actor.phases() as u64)
                .ok_or(SdfError::RepetitionOverflow)?;
            firings.push(f);
        }
        let mut tokens = Vec::with_capacity(self.channels.len());
        for c in &self.channels {
            let t = cycles[c.producer.0]
                .checked_mul(c.production_per_cycle())
                .ok_or(SdfError::RepetitionOverflow)?;
            debug_assert_eq!(
                t,
                cycles[c.consumer.0] * c.consumption_per_cycle(),
                "balance holds after the consistency check"
            );
            tokens.push(t);
        }
        Ok(RepetitionVector {
            cycles,
            firings,
            tokens,
        })
    }
}

/// One channel's per-cycle totals, in index space — shared between the
/// CSDF repetition vector and the baseline's supply-rate balance.
pub(crate) struct ChannelRates<'a> {
    pub(crate) name: &'a str,
    pub(crate) producer: usize,
    pub(crate) consumer: usize,
    /// Tokens produced per producer cycle (≥ 1).
    pub(crate) production: u64,
    /// Tokens consumed per consumer cycle (≥ 1).
    pub(crate) consumption: u64,
}

/// Solves `r(a)·production(c) = r(b)·consumption(c)` for the smallest
/// positive integer `r`, assuming the graph over `actors` is weakly
/// connected.
// Weak connectivity (checked by the caller) guarantees the factor
// propagation reaches every actor, so each `factor[i]` is `Some`.
#[allow(clippy::expect_used)]
pub(crate) fn solve_balance(
    actors: usize,
    channels: &[ChannelRates<'_>],
) -> Result<Vec<u64>, SdfError> {
    // Rational factor propagation from actor 0 over an (undirected)
    // spanning traversal, then a full-edge consistency pass that also
    // covers the cross edges the traversal skipped.
    let mut factor: Vec<Option<Rational>> = vec![None; actors];
    factor[0] = Some(Rational::ONE);
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); actors];
    for (i, c) in channels.iter().enumerate() {
        adjacency[c.producer].push(i);
        adjacency[c.consumer].push(i);
    }
    let scale = |f: Rational, by: u64, over: u64| {
        f.checked_mul(Rational::from(by))
            .and_then(|f| f.checked_div(Rational::from(over)))
            .ok_or(SdfError::RepetitionOverflow)
    };
    let mut stack = vec![0usize];
    while let Some(a) = stack.pop() {
        let from = factor[a].expect("only resolved actors are stacked");
        for &ci in &adjacency[a] {
            let c = &channels[ci];
            let (other, other_factor) = if c.producer == a {
                (c.consumer, scale(from, c.production, c.consumption)?)
            } else {
                (c.producer, scale(from, c.consumption, c.production)?)
            };
            if factor[other].is_none() {
                factor[other] = Some(other_factor);
                stack.push(other);
            }
        }
    }
    for c in channels {
        let produced = scale(factor[c.producer].expect("connected"), c.production, 1)?;
        let consumed = scale(factor[c.consumer].expect("connected"), c.consumption, 1)?;
        if produced != consumed {
            return Err(SdfError::Inconsistent {
                channel: c.name.to_owned(),
                detail: format!(
                    "per-iteration production {produced} does not balance consumption {consumed}"
                ),
            });
        }
    }

    // Scale to the smallest positive integer vector.
    let mut lcm: i128 = 1;
    for f in &factor {
        lcm = f
            .expect("connected")
            .lcm_den(lcm)
            .ok_or(SdfError::RepetitionOverflow)?;
    }
    let mut scaled = Vec::with_capacity(actors);
    for f in &factor {
        let f = f.expect("connected");
        let value = f
            .numer()
            .checked_mul(lcm / f.denom())
            .ok_or(SdfError::RepetitionOverflow)?;
        debug_assert!(value > 0, "cycle factors are strictly positive");
        scaled.push(value);
    }
    let gcd = scaled.iter().copied().fold(0i128, gcd_i128);
    let mut cycles = Vec::with_capacity(actors);
    for value in scaled {
        let r = value / gcd;
        cycles.push(u64::try_from(r).map_err(|_| SdfError::RepetitionOverflow)?);
    }
    Ok(cycles)
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The smallest positive integer solution of the balance equations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepetitionVector {
    cycles: Vec<u64>,
    firings: Vec<u64>,
    tokens: Vec<u64>,
}

impl RepetitionVector {
    /// Full phase cycles of an actor per graph iteration, `r(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is not part of the graph this vector was solved
    /// for.
    #[inline]
    pub fn cycles(&self, actor: ActorId) -> u64 {
        self.cycles[actor.0]
    }

    /// Firings of an actor per graph iteration, `q(a) = r(a)·P(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is not part of the graph this vector was solved
    /// for.
    #[inline]
    pub fn firings(&self, actor: ActorId) -> u64 {
        self.firings[actor.0]
    }

    /// Tokens crossing a channel per graph iteration (production equals
    /// consumption by consistency).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not part of the graph this vector was
    /// solved for.
    #[inline]
    pub fn tokens_per_iteration(&self, channel: ChannelId) -> u64 {
        self.tokens[channel.0]
    }

    /// Firings per iteration for every actor, in insertion order.
    #[inline]
    pub fn all_firings(&self) -> &[u64] {
        &self.firings
    }
}

/// The computed capacity of one channel under the constant-rate
/// analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelCapacity {
    /// The channel this capacity belongs to.
    pub channel: ChannelId,
    /// The channel's name.
    pub name: String,
    /// Sufficient capacity in containers.
    pub capacity: u64,
    /// Steady-state time per token on this channel.
    pub token_period: Rational,
    /// The bound distance the capacity bridges.
    pub total_gap: Rational,
}

/// The result of analysing a consistent CSDF graph under a throughput
/// constraint: repetition vector, steady-state cadences, and sufficient
/// per-channel capacities.
#[derive(Clone, Debug)]
pub struct CsdfAnalysis {
    constraint: ThroughputConstraint,
    endpoint: ActorId,
    repetition: RepetitionVector,
    iteration_period: Rational,
    phi: Vec<Rational>,
    capacities: Vec<ChannelCapacity>,
}

impl CsdfAnalysis {
    /// Per-channel capacities, in channel insertion order.
    #[inline]
    pub fn capacities(&self) -> &[ChannelCapacity] {
        &self.capacities
    }

    /// The capacity computed for a specific channel.
    pub fn capacity_of(&self, channel: ChannelId) -> Option<&ChannelCapacity> {
        self.capacities.iter().find(|c| c.channel == channel)
    }

    /// Sum of all channel capacities in containers.  Never wraps:
    /// [`analyze`] refuses capacities whose sum leaves `u64`.
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().map(|c| c.capacity).sum()
    }

    /// The repetition vector the cadences were derived from.
    #[inline]
    pub fn repetition(&self) -> &RepetitionVector {
        &self.repetition
    }

    /// Duration of one graph iteration, `τ·q(endpoint)`.
    #[inline]
    pub fn iteration_period(&self) -> Rational {
        self.iteration_period
    }

    /// Steady-state distance between consecutive firings of an actor.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is not part of the analysed graph.
    #[inline]
    pub fn phi(&self, actor: ActorId) -> Rational {
        self.phi[actor.0]
    }

    /// The throughput-constrained endpoint actor.
    #[inline]
    pub fn endpoint(&self) -> ActorId {
        self.endpoint
    }

    /// The constraint that was analysed.
    #[inline]
    pub fn constraint(&self) -> ThroughputConstraint {
        self.constraint
    }

    /// Writes the computed capacities back into the graph.
    pub fn apply(&self, g: &mut CsdfGraph) {
        for c in &self.capacities {
            g.set_capacity(c.channel, c.capacity);
        }
    }
}

/// Computes sufficient channel capacities for a consistent CSDF graph
/// under a throughput constraint, from the repetition vector alone.
///
/// The steady state fixed by the constraint runs one graph iteration per
/// `τ·q(endpoint)`, giving every actor the firing cadence
/// `φ(a) = τ·q(endpoint)/q(a)` and every channel the token period
/// `t(c) = τ·q(endpoint)/tokens(c)`.  A channel then needs enough
/// containers to bridge the producer-side and consumer-side bound
/// distances `ρ̂(a) + t·(π̂−1)` and `ρ̂(b) + t·(γ̂−1)` — the constant-rate
/// form of the linear-bound argument, with maxima taken over phases.
/// The strictly periodic endpoint frees the containers it consumed at
/// its firing *start*, so its response time does not enter the adjacent
/// channel's distance (the convention that reproduces the paper's
/// published MP3 capacities).
///
/// # Errors
///
/// Repetition-vector errors ([`SdfError::Inconsistent`], …),
/// [`SdfError::AmbiguousEndpoint`],
/// [`SdfError::InfeasibleResponseTime`] when an actor's worst-case phase
/// response time exceeds its cadence `φ(a)`, or
/// [`SdfError::Core`]([`AnalysisError::ArithmeticOverflow`]) when a
/// cadence, token period, Eq. (1)–(4) value or the total capacity leaves
/// the range of the exact arithmetic.
pub fn analyze(g: &CsdfGraph, constraint: ThroughputConstraint) -> Result<CsdfAnalysis, SdfError> {
    let repetition = g.repetition_vector()?;
    let endpoint = g.unique_endpoint(constraint.location())?;
    let iteration_period = iteration_period(constraint, repetition.firings(endpoint))?;

    let mut phi = Vec::with_capacity(g.actor_count());
    for (id, actor) in g.actors() {
        let cadence = per(iteration_period, repetition.firings(id), "an actor cadence")?;
        let rho = actor.max_response_time();
        if rho > cadence {
            return Err(SdfError::InfeasibleResponseTime {
                actor: actor.name().to_owned(),
                response_time: rho,
                bound: cadence,
            });
        }
        phi.push(cadence);
    }

    let mut capacities = Vec::with_capacity(g.channel_count());
    for (id, channel) in g.channels() {
        let t = per(
            iteration_period,
            repetition.tokens_per_iteration(id),
            "a channel token period",
        )?;
        let effective_rho = |actor: ActorId| -> Rational {
            if actor == endpoint {
                Rational::ZERO
            } else {
                g.actor(actor).max_response_time()
            }
        };
        let gaps = PairGaps::new(
            t,
            effective_rho(channel.producer()),
            effective_rho(channel.consumer()),
            channel.max_production(),
            channel.max_consumption(),
        )
        .map_err(SdfError::Core)?;
        capacities.push(ChannelCapacity {
            channel: id,
            name: channel.name().to_owned(),
            capacity: gaps.sufficient_initial_tokens(),
            token_period: t,
            total_gap: gaps.total_gap(),
        });
    }
    let total = capacities
        .iter()
        .try_fold(0u64, |t, c| t.checked_add(c.capacity));
    total.ok_or_else(|| overflow("the total capacity"))?;

    Ok(CsdfAnalysis {
        constraint,
        endpoint,
        repetition,
        iteration_period,
        phi,
        capacities,
    })
}

/// One graph iteration of a steady state, `τ·q(endpoint)`, for both
/// constant-rate analyses.
pub(crate) fn iteration_period(
    constraint: ThroughputConstraint,
    endpoint_firings: u64,
) -> Result<Rational, SdfError> {
    constraint
        .period()
        .checked_mul(Rational::from(endpoint_firings))
        .ok_or_else(|| overflow("the iteration period"))
}

/// `iteration_period / count`: an actor's cadence or a channel's token
/// period.
pub(crate) fn per(
    iteration_period: Rational,
    count: u64,
    context: &'static str,
) -> Result<Rational, SdfError> {
    iteration_period
        .checked_div(Rational::from(count))
        .ok_or_else(|| overflow(context))
}

pub(crate) fn overflow(context: &'static str) -> SdfError {
    SdfError::Core(AnalysisError::ArithmeticOverflow { context })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{rat, QuantumSet, TaskGraph};

    /// The constant-max MP3 chain, built natively.
    fn mp3_constant_max() -> CsdfGraph {
        let mut g = CsdfGraph::new();
        let vbr = g.add_actor("vBR", [rat(512, 10_000)]).unwrap();
        let vmp3 = g.add_actor("vMP3", [rat(24, 1000)]).unwrap();
        let vsrc = g.add_actor("vSRC", [rat(10, 1000)]).unwrap();
        let vdac = g.add_actor("vDAC", [rat(1, 44_100)]).unwrap();
        g.connect("d1", vbr, vmp3, [2048], [960]).unwrap();
        g.connect("d2", vmp3, vsrc, [1152], [480]).unwrap();
        g.connect("d3", vsrc, vdac, [441], [1]).unwrap();
        g
    }

    #[test]
    fn mp3_repetition_vector() {
        let g = mp3_constant_max();
        let r = g.repetition_vector().unwrap();
        let q = |name: &str| r.firings(g.actor_by_name(name).unwrap());
        assert_eq!(q("vBR"), 75);
        assert_eq!(q("vMP3"), 160);
        assert_eq!(q("vSRC"), 384);
        assert_eq!(q("vDAC"), 169_344);
        let tokens = |name: &str| r.tokens_per_iteration(g.channel_by_name(name).unwrap());
        assert_eq!(tokens("d1"), 75 * 2048);
        assert_eq!(tokens("d2"), 160 * 1152);
        assert_eq!(tokens("d3"), 384 * 441);
    }

    #[test]
    fn native_pipeline_reproduces_the_published_mp3_capacities() {
        // The acceptance pin: repetition vector → cadences → capacities,
        // no VRDF machinery involved, lands on the Section 5 numbers.
        let g = mp3_constant_max();
        let analysis = analyze(&g, ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap()).unwrap();
        let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
        assert_eq!(caps, vec![6015, 3263, 882]);
        assert_eq!(analysis.total_capacity(), 10_160);
        // Cadences match the paper's response-time bounds.
        let phi = |name: &str| analysis.phi(g.actor_by_name(name).unwrap());
        assert_eq!(phi("vSRC"), rat(10, 1000));
        assert_eq!(phi("vMP3"), rat(24, 1000));
        assert_eq!(phi("vBR"), rat(512, 10_000));
        // d3 moves one token per DAC period.
        assert_eq!(analysis.capacities()[2].token_period, rat(1, 44_100));
    }

    #[test]
    fn lowering_matches_the_native_build() {
        let tg = TaskGraph::linear_chain(
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
        .unwrap();
        let lowered = CsdfGraph::lower_constant_max(&tg);
        assert_eq!(lowered.actor_count(), 4);
        assert_eq!(lowered.channel_count(), 3);
        // Indices are preserved positionally.
        for (id, buffer) in tg.buffers() {
            let channel = lowered.channel(ChannelId(id.index()));
            assert_eq!(channel.name(), buffer.name());
            assert_eq!(channel.production(), &[buffer.production().max()]);
            assert_eq!(channel.consumption(), &[buffer.consumption().max()]);
        }
        let analysis = analyze(
            &lowered,
            ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap(),
        )
        .unwrap();
        let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
        assert_eq!(caps, vec![6015, 3263, 882]);
        // Capacities carry over through the lowering.
        let mut tg = tg;
        tg.set_capacity(tg.buffer_by_name("d2").unwrap(), 7);
        let relowered = CsdfGraph::lower_constant_max(&tg);
        assert_eq!(
            relowered
                .channel(relowered.channel_by_name("d2").unwrap())
                .capacity(),
            Some(7)
        );
    }

    #[test]
    fn multi_phase_repetition_and_totals() {
        // src {3} feeds a downsampler consuming (2, 4) over two phases:
        // r(src)·3 = r(down)·6 → cycles (2, 1), firings (2, 2).
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", [rat(1, 10)]).unwrap();
        let down = g.add_actor("down", [rat(1, 20), rat(1, 30)]).unwrap();
        let c = g.connect("c", src, down, [3], [2, 4]).unwrap();
        let r = g.repetition_vector().unwrap();
        assert_eq!(r.cycles(src), 2);
        assert_eq!(r.cycles(down), 1);
        assert_eq!(r.firings(src), 2);
        assert_eq!(r.firings(down), 2);
        assert_eq!(r.tokens_per_iteration(c), 6);
        assert_eq!(g.channel(c).max_consumption(), 4);
        assert_eq!(g.channel(c).consumption_per_cycle(), 6);
        assert_eq!(g.actor(down).max_response_time(), rat(1, 20));
        assert_eq!(g.actor(down).response_time(1), rat(1, 30));
    }

    #[test]
    fn inconsistent_diamond_is_rejected() {
        // A fork/join whose branch gains disagree: the left path doubles
        // the token count, the right path conserves it.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [Rational::ZERO]).unwrap();
        let l = g.add_actor("l", [Rational::ZERO]).unwrap();
        let r = g.add_actor("r", [Rational::ZERO]).unwrap();
        let d = g.add_actor("d", [Rational::ZERO]).unwrap();
        g.connect("al", a, l, [1], [1]).unwrap();
        g.connect("ar", a, r, [1], [1]).unwrap();
        g.connect("ld", l, d, [2], [1]).unwrap();
        g.connect("rd", r, d, [1], [1]).unwrap();
        match g.repetition_vector() {
            Err(SdfError::Inconsistent { channel, .. }) => {
                assert!(channel == "ld" || channel == "rd", "{channel}");
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn consistent_diamond_balances() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [Rational::ZERO]).unwrap();
        let l = g.add_actor("l", [Rational::ZERO]).unwrap();
        let r = g.add_actor("r", [Rational::ZERO]).unwrap();
        let d = g.add_actor("d", [Rational::ZERO]).unwrap();
        g.connect("al", a, l, [2], [1]).unwrap();
        g.connect("ar", a, r, [1], [1]).unwrap();
        g.connect("ld", l, d, [1], [2]).unwrap();
        g.connect("rd", r, d, [1], [1]).unwrap();
        let rv = g.repetition_vector().unwrap();
        assert_eq!(
            [rv.cycles(a), rv.cycles(l), rv.cycles(r), rv.cycles(d)],
            [1, 2, 1, 1]
        );
    }

    #[test]
    fn builder_rejects_malformed_inputs() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [Rational::ZERO]).unwrap();
        assert!(matches!(
            g.add_actor("a", [Rational::ZERO]),
            Err(SdfError::DuplicateName(_))
        ));
        assert!(matches!(
            g.add_actor("p", []),
            Err(SdfError::NoPhases { .. })
        ));
        assert!(matches!(
            g.add_actor("n", [rat(-1, 2)]),
            Err(SdfError::NegativeResponseTime { .. })
        ));
        let b = g.add_actor("b", [Rational::ZERO, Rational::ZERO]).unwrap();
        assert!(matches!(
            g.connect("c", a, ActorId(9), [1], [1, 1]),
            Err(SdfError::UnknownActor(_))
        ));
        assert!(matches!(
            g.connect("c", a, b, [1, 1], [1, 1]),
            Err(SdfError::PhaseMismatch { .. })
        ));
        assert!(matches!(
            g.connect("c", a, b, [1], [0, 0]),
            Err(SdfError::ZeroCycleRate {
                role: "consumption",
                ..
            })
        ));
        // A per-cycle sum past `u64` would wrap the balance equations.
        assert!(matches!(
            g.connect("c", b, a, [u64::MAX, 2], [1]),
            Err(SdfError::RepetitionOverflow)
        ));
        g.connect("c", a, b, [1], [0, 2]).unwrap();
        assert!(matches!(
            g.connect("c", a, b, [1], [1, 1]),
            Err(SdfError::DuplicateName(_))
        ));
    }

    #[test]
    fn empty_disconnected_and_ambiguous_are_rejected() {
        assert!(matches!(
            CsdfGraph::new().repetition_vector(),
            Err(SdfError::EmptyGraph)
        ));
        assert!(matches!(
            CsdfGraph::new().unique_sink(),
            Err(SdfError::EmptyGraph)
        ));
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [Rational::ZERO]).unwrap();
        let b = g.add_actor("b", [Rational::ZERO]).unwrap();
        g.add_actor("lonely", [Rational::ZERO]).unwrap();
        g.connect("ab", a, b, [1], [1]).unwrap();
        assert!(matches!(g.repetition_vector(), Err(SdfError::Disconnected)));
        // Two sinks: b and lonely.
        match g.unique_sink() {
            Err(SdfError::AmbiguousEndpoint { role, actors }) => {
                assert_eq!(role, "sink");
                assert_eq!(actors, vec!["b".to_owned(), "lonely".to_owned()]);
            }
            other => panic!("expected AmbiguousEndpoint, got {other:?}"),
        }
        assert!(matches!(
            g.unique_source(),
            Err(SdfError::AmbiguousEndpoint { role: "source", .. })
        ));
    }

    #[test]
    fn tokened_back_edges_do_not_hide_endpoints() {
        // Cycle a -> b -> a where the return channel carries initial
        // tokens: no actor is strictly channel-free, so the fallback
        // discounts the tokened back-edge and finds both endpoints.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [Rational::ZERO]).unwrap();
        let b = g.add_actor("b", [Rational::ZERO]).unwrap();
        g.connect("fwd", a, b, [1], [1]).unwrap();
        let back = g.connect("back", b, a, [1], [1]).unwrap();
        g.set_initial_tokens(back, 4);
        assert_eq!(g.unique_sink().unwrap(), b);
        assert_eq!(g.unique_source().unwrap(), a);
        // A strict endpoint always wins: tokens on a *forward* channel
        // must not promote its producer to sink candidacy.
        let mut h = CsdfGraph::new();
        let p = h.add_actor("p", [Rational::ZERO]).unwrap();
        let q = h.add_actor("q", [Rational::ZERO]).unwrap();
        let fwd = h.connect("fwd", p, q, [1], [1]).unwrap();
        h.set_initial_tokens(fwd, 3);
        assert_eq!(h.unique_sink().unwrap(), q);
        assert_eq!(h.unique_source().unwrap(), p);
    }

    #[test]
    fn infeasible_response_time_is_reported() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("slow", [rat(3, 1)]).unwrap();
        let b = g.add_actor("snk", [Rational::ZERO]).unwrap();
        g.connect("c", a, b, [1], [1]).unwrap();
        let err = analyze(&g, ThroughputConstraint::on_sink(rat(2, 1)).unwrap()).unwrap_err();
        match err {
            SdfError::InfeasibleResponseTime { actor, bound, .. } => {
                assert_eq!(actor, "slow");
                assert_eq!(bound, rat(2, 1));
            }
            other => panic!("expected InfeasibleResponseTime, got {other:?}"),
        }
    }

    #[test]
    fn with_capacities_probe_constructor() {
        let g = mp3_constant_max();
        let d3 = g.channel_by_name("d3").unwrap();
        let probe = g.with_capacities(&[(d3, 881)]);
        assert_eq!(probe.channel(d3).capacity(), Some(881));
        assert_eq!(g.channel(d3).capacity(), None);
    }

    #[test]
    fn apply_writes_capacities_back() {
        let mut g = mp3_constant_max();
        let analysis = analyze(&g, ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap()).unwrap();
        analysis.apply(&mut g);
        assert_eq!(
            g.channel(g.channel_by_name("d1").unwrap()).capacity(),
            Some(6015)
        );
        assert_eq!(
            analysis
                .capacity_of(g.channel_by_name("d3").unwrap())
                .unwrap()
                .capacity,
            882
        );
        assert!(analysis.capacity_of(ChannelId(99)).is_none());
        assert_eq!(analysis.endpoint(), g.actor_by_name("vDAC").unwrap());
    }
}
