//! Self-timed state-space execution of CSDF graphs, and the minimal
//! capacity search built on top of it.
//!
//! The executor runs a capacitated [`CsdfGraph`] under the same
//! operational semantics as `vrdf-sim`'s engines: a firing *starts* when
//! every input channel holds its phase's consumption quantum and every
//! output channel has that many empty containers; tokens are consumed
//! and output space claimed atomically at the start, input containers
//! are freed and output tokens produced at the finish (`ρ` later), and
//! an actor is non-reentrant (its response time serialises its firings).
//! The throughput-constrained endpoint frees the containers it consumed
//! already at its firing *start* (the
//! [`vrdf_core::ConstrainedRelease::Immediate`] convention), mirroring
//! the analysis.
//!
//! Execution is **self-timed** (every actor fires as soon as it is
//! enabled) and therefore deterministic, so the run either deadlocks or
//! reaches a *periodic steady state*.  All event times are rescaled onto
//! one integer tick clock (the `vrdf-sim` PR 2 design), which makes the
//! execution state — channel fills, actor phases, remaining busy ticks —
//! a point in a **finite** space: the executor snapshots it at every
//! iteration boundary of the endpoint and detects the steady state as
//! the first repeated snapshot ([`SteadyState`]), from which the achieved
//! endpoint throughput is exact rather than estimated.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use vrdf_core::{Rational, ThroughputConstraint};

use crate::csdf::{ActorId, ChannelId, CsdfGraph};
use crate::SdfError;

/// Iteration-boundary snapshots [`steady_state`] explores before giving
/// up with [`SdfError::NoSteadyState`].
const MAX_BOUNDARIES: u64 = 1024;

/// Tunable knobs for [`steady_state`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Event budget before [`SdfError::BudgetExhausted`].
    pub max_events: u64,
    /// Report the run's [`CoreCounters`] in [`SteadyState::counters`].
    /// The run is the same either way.  `false` by default.
    pub telemetry: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_events: 50_000_000,
            telemetry: false,
        }
    }
}

/// Coarse activity counters of one [`steady_state`] run, in the
/// vocabulary of `vrdf-sim`'s engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Events popped off the event queue.
    pub events_popped: u64,
    /// Firings started (tokens consumed, space claimed).
    pub firings_started: u64,
    /// Firings finished (space freed, tokens produced).
    pub firings_finished: u64,
    /// Settling passes: rounds of the settle loop that drained a finish
    /// or started a firing.
    pub settling_passes: u64,
}

/// How a self-timed execution resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecOutcome {
    /// A periodic steady state was detected.
    Periodic,
    /// Execution stalled: no actor enabled, no firing in flight.
    Deadlock,
}

/// The detected periodic steady state (or deadlock) of a self-timed
/// execution.
#[derive(Clone, Debug)]
pub struct SteadyState {
    /// Whether the run is periodic or dead.
    pub outcome: ExecOutcome,
    /// The constrained endpoint whose throughput is measured.
    pub endpoint: ActorId,
    /// The required endpoint period `τ`.
    pub period: Rational,
    /// Time at which the repeating cycle first starts (deadlock time for
    /// a dead run).
    pub transient: Rational,
    /// Duration of one steady-state cycle (zero for deadlock).
    pub cycle_time: Rational,
    /// Endpoint firings per steady-state cycle (zero for deadlock).
    pub cycle_firings: u64,
    /// Iteration boundaries explored until detection.
    pub boundaries: u64,
    /// Events processed until detection.
    pub events: u64,
    /// Total firings per actor (insertion order) at detection time.
    pub firings: Vec<u64>,
    /// Coarse activity counters, `Some` iff [`ExecOptions::telemetry`]
    /// was set.
    pub counters: Option<CoreCounters>,
}

impl SteadyState {
    /// Steady-state endpoint throughput in firings per time unit, `None`
    /// for a deadlocked run.
    pub fn throughput(&self) -> Option<Rational> {
        match self.outcome {
            ExecOutcome::Periodic => Some(Rational::from(self.cycle_firings) / self.cycle_time),
            ExecOutcome::Deadlock => None,
        }
    }

    /// The average distance between endpoint firings in steady state.
    pub fn achieved_period(&self) -> Option<Rational> {
        match self.outcome {
            ExecOutcome::Periodic => Some(self.cycle_time / Rational::from(self.cycle_firings)),
            ExecOutcome::Deadlock => None,
        }
    }

    /// `true` when the steady-state throughput meets the constraint: the
    /// endpoint averages at least one firing per `τ`.  Self-timed
    /// execution is the fastest admissible schedule, so meeting `1/τ`
    /// here is exactly the existence condition for a strictly periodic
    /// endpoint schedule with period `τ`.
    pub fn meets_constraint(&self) -> bool {
        match self.achieved_period() {
            Some(p) => p <= self.period,
            None => false,
        }
    }
}

impl fmt::Display for SteadyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.outcome {
            ExecOutcome::Periodic => write!(
                f,
                "periodic: {} endpoint firings per {} (transient {}, {} boundaries, {} events)",
                self.cycle_firings, self.cycle_time, self.transient, self.boundaries, self.events
            ),
            ExecOutcome::Deadlock => {
                write!(f, "deadlock at {} ({} events)", self.transient, self.events)
            }
        }
    }
}

/// Per-actor execution state.
struct ActorState {
    phases: usize,
    rho_ticks: Vec<i128>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    busy_until: Option<i128>,
    started: u64,
    finished: u64,
}

/// Per-channel execution state.
struct ChannelState {
    tokens: u64,
    space: u64,
}

/// The hashable execution state at a quiescent instant, normalised by
/// the current time.  Channel fills are bounded by the capacities,
/// phases by the phase counts, and busy remainders by the response
/// times (in ticks), so this key ranges over a finite set — a repeated
/// key proves periodicity.
#[derive(Clone, PartialEq, Eq, Hash)]
struct StateKey {
    tokens: Vec<u64>,
    space: Vec<u64>,
    phase: Vec<u64>,
    remaining: Vec<Option<i128>>,
}

struct Executor<'a> {
    g: &'a CsdfGraph,
    opts: ExecOptions,
    endpoint: usize,
    /// Denominator of the shared integer tick clock: every event time is
    /// a count of `1/tick_den` ticks (report times convert back with it).
    tick_den: i128,
    actors: Vec<ActorState>,
    channels: Vec<ChannelState>,
    heap: BinaryHeap<Reverse<(i128, u64, usize)>>,
    seq: u64,
    now: i128,
    events: u64,
    settling_passes: u64,
}

impl<'a> Executor<'a> {
    fn new(
        g: &'a CsdfGraph,
        endpoint: ActorId,
        opts: ExecOptions,
    ) -> Result<Executor<'a>, SdfError> {
        // One shared integer tick clock for all phase response times.
        let mut tick_den: i128 = 1;
        for (_, actor) in g.actors() {
            for p in 0..actor.phases() {
                tick_den = actor
                    .response_time(p)
                    .lcm_den(tick_den)
                    .ok_or(SdfError::TickOverflow)?;
            }
        }
        let mut actors = Vec::with_capacity(g.actor_count());
        for (id, actor) in g.actors() {
            let rho_ticks = (0..actor.phases())
                .map(|p| {
                    actor
                        .response_time(p)
                        .to_ticks(tick_den)
                        .ok_or(SdfError::TickOverflow)
                })
                .collect::<Result<Vec<_>, _>>()?;
            actors.push(ActorState {
                phases: actor.phases(),
                rho_ticks,
                inputs: g.input_channels(id).iter().map(|c| c.index()).collect(),
                outputs: g.output_channels(id).iter().map(|c| c.index()).collect(),
                busy_until: None,
                started: 0,
                finished: 0,
            });
        }
        let mut channels = Vec::with_capacity(g.channel_count());
        for (_, channel) in g.channels() {
            let capacity = channel.capacity().ok_or_else(|| SdfError::CapacityUnset {
                channel: channel.name().to_owned(),
            })?;
            if channel.initial_tokens() > capacity {
                return Err(SdfError::InitialTokensExceedCapacity {
                    channel: channel.name().to_owned(),
                    initial_tokens: channel.initial_tokens(),
                    capacity,
                });
            }
            channels.push(ChannelState {
                tokens: channel.initial_tokens(),
                space: capacity - channel.initial_tokens(),
            });
        }
        Ok(Executor {
            g,
            opts,
            endpoint: endpoint.index(),
            tick_den,
            actors,
            channels,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            events: 0,
            settling_passes: 0,
        })
    }

    fn startable(&self, a: usize) -> bool {
        let actor = &self.actors[a];
        if actor.busy_until.is_some() {
            return false;
        }
        let phase = (actor.started % actor.phases as u64) as usize;
        for &ci in &actor.inputs {
            let need = self.g.channel(ChannelId(ci)).consumption()[phase];
            if self.channels[ci].tokens < need {
                return false;
            }
        }
        for &ci in &actor.outputs {
            let need = self.g.channel(ChannelId(ci)).production()[phase];
            if self.channels[ci].space < need {
                return false;
            }
        }
        true
    }

    fn start_firing(&mut self, a: usize) {
        let phase = {
            let actor = &self.actors[a];
            (actor.started % actor.phases as u64) as usize
        };
        let immediate_free = a == self.endpoint;
        for i in 0..self.actors[a].inputs.len() {
            let ci = self.actors[a].inputs[i];
            let c = self.g.channel(ChannelId(ci)).consumption()[phase];
            self.channels[ci].tokens -= c;
            if immediate_free {
                self.channels[ci].space += c;
            }
        }
        for i in 0..self.actors[a].outputs.len() {
            let ci = self.actors[a].outputs[i];
            let p = self.g.channel(ChannelId(ci)).production()[phase];
            self.channels[ci].space -= p;
        }
        let finish = self.now + self.actors[a].rho_ticks[phase];
        let actor = &mut self.actors[a];
        actor.busy_until = Some(finish);
        actor.started += 1;
        self.seq += 1;
        self.heap.push(Reverse((finish, self.seq, a)));
    }

    fn apply_finish(&mut self, a: usize) {
        let phase = {
            let actor = &self.actors[a];
            debug_assert!(actor.busy_until.is_some(), "finish event for an idle actor");
            (actor.finished % actor.phases as u64) as usize
        };
        if a != self.endpoint {
            for i in 0..self.actors[a].inputs.len() {
                let ci = self.actors[a].inputs[i];
                let c = self.g.channel(ChannelId(ci)).consumption()[phase];
                self.channels[ci].space += c;
            }
        }
        for i in 0..self.actors[a].outputs.len() {
            let ci = self.actors[a].outputs[i];
            let p = self.g.channel(ChannelId(ci)).production()[phase];
            self.channels[ci].tokens += p;
        }
        let actor = &mut self.actors[a];
        actor.busy_until = None;
        actor.finished += 1;
    }

    /// Processes every finish event due at `now`; `Ok(true)` when any
    /// fired.
    fn drain_finishes_at_now(&mut self) -> Result<bool, SdfError> {
        let mut any = false;
        while let Some(&Reverse((time, _, _))) = self.heap.peek() {
            if time != self.now {
                break;
            }
            if self.events >= self.opts.max_events {
                return Err(SdfError::BudgetExhausted {
                    events: self.events,
                });
            }
            // The surrounding loop peeked this entry.
            #[allow(clippy::expect_used)]
            let Reverse((_, _, a)) = self.heap.pop().expect("peeked");
            self.events += 1;
            self.apply_finish(a);
            any = true;
        }
        Ok(any)
    }

    fn try_starts(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut progressed = false;
            for a in 0..self.actors.len() {
                if self.startable(a) {
                    self.start_firing(a);
                    progressed = true;
                    any = true;
                }
            }
            if !progressed {
                return any;
            }
        }
    }

    /// Settles the current instant: alternate finish-draining and
    /// starts until neither makes progress.
    fn settle(&mut self) -> Result<(), SdfError> {
        loop {
            let drained = self.drain_finishes_at_now()?;
            let started = self.try_starts();
            if !drained && !started {
                return Ok(());
            }
            self.settling_passes += 1;
        }
    }

    /// The run's counters so far; `None` unless the options ask for them.
    fn counters(&self) -> Option<CoreCounters> {
        self.opts.telemetry.then(|| CoreCounters {
            events_popped: self.events,
            firings_started: self.actors.iter().map(|a| a.started).sum(),
            firings_finished: self.actors.iter().map(|a| a.finished).sum(),
            settling_passes: self.settling_passes,
        })
    }

    fn snapshot(&self) -> StateKey {
        StateKey {
            tokens: self.channels.iter().map(|c| c.tokens).collect(),
            space: self.channels.iter().map(|c| c.space).collect(),
            phase: self
                .actors
                .iter()
                .map(|a| a.started % a.phases as u64)
                .collect(),
            remaining: self
                .actors
                .iter()
                .map(|a| a.busy_until.map(|t| t - self.now))
                .collect(),
        }
    }
}

/// Runs a capacitated CSDF graph self-timed until it deadlocks or its
/// periodic steady state is detected, and reports the achieved endpoint
/// throughput.
///
/// The endpoint is the unique sink or source selected by the
/// constraint's location; the constraint's period `τ` only enters the
/// report ([`SteadyState::meets_constraint`]), never the execution —
/// execution is purely self-timed.
///
/// # Errors
///
/// * [`SdfError::CapacityUnset`] /
///   [`SdfError::InitialTokensExceedCapacity`] — the graph is not fully
///   capacitated.
/// * [`SdfError::AmbiguousEndpoint`], [`SdfError::EmptyGraph`],
///   [`SdfError::Disconnected`], [`SdfError::Inconsistent`] — graph or
///   endpoint validation (the repetition vector defines the iteration
///   boundary).
/// * [`SdfError::TickOverflow`] — response times do not fit one integer
///   tick clock.
/// * [`SdfError::BudgetExhausted`] / [`SdfError::NoSteadyState`] —
///   budget guards; with integer ticks the state space is finite, so
///   these only fire on graphs whose transient genuinely exceeds the
///   budgets (or whose time never advances, e.g. all-zero response
///   times).
pub fn steady_state(
    g: &CsdfGraph,
    constraint: ThroughputConstraint,
    opts: &ExecOptions,
) -> Result<SteadyState, SdfError> {
    let repetition = g.repetition_vector()?;
    let endpoint = g.unique_endpoint(constraint.location())?;
    let per_iteration = repetition.firings(endpoint);

    let mut exec = Executor::new(g, endpoint, *opts)?;
    let tick_den = exec.tick_den;
    let mut seen: HashMap<StateKey, (i128, u64)> = HashMap::new();
    let mut boundaries = 0u64;

    loop {
        exec.settle()?;

        let endpoint_finished = exec.actors[exec.endpoint].finished;
        let due = (boundaries + 1).saturating_mul(per_iteration);
        if endpoint_finished >= due {
            // One snapshot per settled instant, even when several
            // boundaries were crossed in it.
            while endpoint_finished >= (boundaries + 1).saturating_mul(per_iteration) {
                boundaries += 1;
            }
            if boundaries > MAX_BOUNDARIES {
                return Err(SdfError::NoSteadyState {
                    boundaries: boundaries - 1,
                });
            }
            match seen.entry(exec.snapshot()) {
                Entry::Occupied(first) => {
                    let &(t0, f0) = first.get();
                    let dt = exec.now - t0;
                    if dt == 0 {
                        // Time never advanced between two boundaries —
                        // unbounded speed, not a physical steady state.
                        return Err(SdfError::NoSteadyState { boundaries });
                    }
                    return Ok(SteadyState {
                        outcome: ExecOutcome::Periodic,
                        endpoint,
                        period: constraint.period(),
                        transient: Rational::from_ticks(t0, tick_den),
                        cycle_time: Rational::from_ticks(dt, tick_den),
                        cycle_firings: endpoint_finished - f0,
                        boundaries,
                        events: exec.events,
                        firings: exec.actors.iter().map(|a| a.finished).collect(),
                        counters: exec.counters(),
                    });
                }
                Entry::Vacant(slot) => {
                    slot.insert((exec.now, endpoint_finished));
                }
            }
        }

        match exec.heap.peek() {
            Some(&Reverse((time, _, _))) => {
                debug_assert!(time > exec.now, "settle drained the current instant");
                exec.now = time;
            }
            None => {
                // Quiescent with nothing in flight: deadlock.
                debug_assert!(exec.actors.iter().all(|a| a.busy_until.is_none()));
                return Ok(SteadyState {
                    outcome: ExecOutcome::Deadlock,
                    endpoint,
                    period: constraint.period(),
                    transient: Rational::from_ticks(exec.now, tick_den),
                    cycle_time: Rational::ZERO,
                    cycle_firings: 0,
                    boundaries,
                    events: exec.events,
                    firings: exec.actors.iter().map(|a| a.finished).collect(),
                    counters: exec.counters(),
                });
            }
        }
    }
}

/// The search outcome for one channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SdfChannelMinimum {
    /// The channel this minimum belongs to.
    pub channel: ChannelId,
    /// Its name.
    pub name: String,
    /// The capacity the graph started from (the analytic assignment).
    pub assigned: u64,
    /// The smallest capacity that still reaches a periodic steady state
    /// meeting the throughput constraint, holding the other channels at
    /// their current values.
    pub minimal: u64,
    /// The structural lower bound the search never probes below.
    pub floor: u64,
    /// Steady-state probes spent on this channel.
    pub probes: u32,
}

impl SdfChannelMinimum {
    /// Containers the analytic assignment leaves above the operational
    /// minimum.
    pub fn gap(&self) -> u64 {
        self.assigned - self.minimal
    }
}

/// Tunable knobs for [`minimize_sdf_capacities`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SdfSearchOptions {
    /// Executor budget per probe.
    pub exec: ExecOptions,
}

/// The result of the minimal-capacity search.
#[derive(Clone, Debug)]
pub struct SdfMinimizationReport {
    /// Whether the starting assignment itself meets the constraint; when
    /// `false` no probes were attempted.
    pub baseline_clear: bool,
    /// One entry per channel, in insertion order.
    pub channels: Vec<SdfChannelMinimum>,
    /// Gauss–Seidel passes run (including the final confirming pass).
    pub passes: u32,
    /// Total steady-state probes, the initial check included.
    pub probes: u32,
}

impl SdfMinimizationReport {
    /// Total capacity of the starting assignment.
    pub fn total_assigned(&self) -> u64 {
        self.channels.iter().map(|c| c.assigned).sum()
    }

    /// Total capacity of the found minima.
    pub fn total_minimal(&self) -> u64 {
        self.channels.iter().map(|c| c.minimal).sum()
    }

    /// Containers shaved off in total.
    pub fn total_gap(&self) -> u64 {
        self.total_assigned() - self.total_minimal()
    }
}

impl fmt::Display for SdfMinimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SDF capacity minimization: total {} -> {} (gap {}, {} probes, {} passes{})",
            self.total_assigned(),
            self.total_minimal(),
            self.total_gap(),
            self.probes,
            self.passes,
            if self.baseline_clear {
                ""
            } else {
                ", ASSIGNMENT FAILED"
            },
        )?;
        writeln!(
            f,
            "  {:<8} {:>10} {:>10} {:>6} {:>7} {:>7}",
            "channel", "assigned", "minimal", "gap", "floor", "probes"
        )?;
        for c in &self.channels {
            writeln!(
                f,
                "  {:<8} {:>10} {:>10} {:>6} {:>7} {:>7}",
                c.name,
                c.assigned,
                c.minimal,
                c.gap(),
                c.floor,
                c.probes,
            )?;
        }
        Ok(())
    }
}

/// Finds, per channel, the minimal deadlock-free capacity whose
/// self-timed steady state still meets the endpoint throughput
/// constraint — the operational floor of the SDF abstraction, to set
/// against the analytic assignment.
///
/// The graph must arrive fully capacitated (typically via
/// [`CsdfAnalysis::apply`](crate::CsdfAnalysis::apply)); those
/// capacities are the search's upper bounds.  Per channel the search
/// binary-searches down to the structural floor `max(π̂, γ̂)` and runs
/// Gauss–Seidel passes over the channels until a fixed point, exactly
/// like `vrdf_sim::minimize_capacities` does for the VRDF scenario
/// battery — but with the deterministic steady-state check as the
/// probe, so a single execution decides each probe.
///
/// # Errors
///
/// Same as [`steady_state`].
pub fn minimize_sdf_capacities(
    g: &CsdfGraph,
    constraint: ThroughputConstraint,
    opts: &SdfSearchOptions,
) -> Result<SdfMinimizationReport, SdfError> {
    let mut probes_total = 0u32;
    let mut probe = |current: &[(ChannelId, u64)]| -> Result<bool, SdfError> {
        probes_total += 1;
        let probe_graph = g.with_capacities(current);
        let state = steady_state(&probe_graph, constraint, &opts.exec)?;
        Ok(state.outcome == ExecOutcome::Periodic && state.meets_constraint())
    };

    let mut current: Vec<(ChannelId, u64)> = g
        .channels()
        .map(|(id, c)| {
            (
                id,
                // Unset capacities are caught by the probe's executor
                // with a proper error; 0 keeps the tuple shape.
                c.capacity().unwrap_or(0),
            )
        })
        .collect();
    let mut channels: Vec<SdfChannelMinimum> = g
        .channels()
        .map(|(id, c)| SdfChannelMinimum {
            channel: id,
            name: c.name().to_owned(),
            assigned: c.capacity().unwrap_or(0),
            minimal: c.capacity().unwrap_or(0),
            // A worst-case firing must fit, and the initial tokens must:
            // probing below them would abort the probe rather than fail
            // it.
            floor: c
                .max_production()
                .max(c.max_consumption())
                .max(c.initial_tokens())
                .max(1),
            probes: 0,
        })
        .collect();

    let baseline_clear = probe(&current)?;
    let mut passes = 0u32;
    if baseline_clear {
        loop {
            passes += 1;
            let mut changed = false;
            for i in 0..channels.len() {
                let upper = current[i].1;
                let floor = channels[i].floor;
                if upper <= floor {
                    continue;
                }
                let mut probes_here = 0u32;
                // Cheap reprobe first: at a fixed point `upper - 1`
                // fails and the edge costs one probe.
                current[i].1 = upper - 1;
                probes_here += 1;
                let mut lo = floor;
                if probe(&current)? {
                    let mut hi = upper - 1;
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        current[i].1 = mid;
                        probes_here += 1;
                        if probe(&current)? {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                } else {
                    lo = upper;
                }
                current[i].1 = lo;
                channels[i].probes += probes_here;
                if lo < upper {
                    channels[i].minimal = lo;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    Ok(SdfMinimizationReport {
        baseline_clear,
        channels,
        passes,
        probes: probes_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::rat;

    /// A two-actor constant pair: src {3}→{1} snk, ρ(src) = 1,
    /// ρ(snk) = 1/3; sink-constrained at τ = 1/3.
    fn pair(capacity: u64) -> (CsdfGraph, ThroughputConstraint) {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", [rat(1, 1)]).unwrap();
        let snk = g.add_actor("snk", [rat(1, 3)]).unwrap();
        let c = g.connect("c", src, snk, [3], [1]).unwrap();
        g.set_capacity(c, capacity);
        (g, ThroughputConstraint::on_sink(rat(1, 3)).unwrap())
    }

    #[test]
    fn pair_reaches_full_throughput_with_enough_capacity() {
        let (g, constraint) = pair(6);
        let state = steady_state(&g, constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Periodic);
        // The sink is saturated: 3 firings per time unit.
        assert_eq!(state.throughput().unwrap(), rat(3, 1));
        assert_eq!(state.achieved_period().unwrap(), rat(1, 3));
        assert!(state.meets_constraint());
        assert!(state.cycle_firings >= 1);
        assert!(state.to_string().contains("periodic"));
    }

    #[test]
    fn pair_throughput_degrades_below_sufficiency() {
        // With only 3 containers the producer must wait for the sink to
        // drain a full batch before refilling: the handoff serialises.
        let (g, constraint) = pair(3);
        let state = steady_state(&g, constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Periodic);
        assert!(state.throughput().unwrap() < rat(3, 1));
        assert!(!state.meets_constraint());
    }

    #[test]
    fn undersized_channel_deadlocks() {
        // Capacity 2 < π̂ = 3: the producer can never fire.
        let (g, constraint) = pair(2);
        let state = steady_state(&g, constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Deadlock);
        assert_eq!(state.throughput(), None);
        assert!(!state.meets_constraint());
        assert_eq!(state.cycle_time, Rational::ZERO);
        assert!(state.to_string().contains("deadlock"));
    }

    #[test]
    fn telemetry_counters_tie_out_against_the_run() {
        let (g, constraint) = pair(6);
        let plain = steady_state(&g, constraint, &ExecOptions::default()).unwrap();
        assert!(plain.counters.is_none(), "telemetry is opt-in");
        let opts = ExecOptions {
            telemetry: true,
            ..ExecOptions::default()
        };
        let state = steady_state(&g, constraint, &opts).unwrap();
        let counters = state.counters.expect("telemetry enabled");
        assert_eq!(counters.events_popped, state.events);
        assert_eq!(counters.firings_finished, state.firings.iter().sum::<u64>());
        assert!(counters.firings_started >= counters.firings_finished);
        assert!(counters.settling_passes > 0);
        // The instrumented run is otherwise identical.
        assert_eq!(state.outcome, plain.outcome);
        assert_eq!(state.events, plain.events);
        assert_eq!(state.firings, plain.firings);
        assert_eq!(state.cycle_time, plain.cycle_time);
        assert_eq!(state.transient, plain.transient);
    }

    #[test]
    fn capacity_must_be_set() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [rat(1, 1)]).unwrap();
        let b = g.add_actor("b", [rat(1, 1)]).unwrap();
        g.connect("c", a, b, [1], [1]).unwrap();
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        assert!(matches!(
            steady_state(&g, constraint, &ExecOptions::default()),
            Err(SdfError::CapacityUnset { .. })
        ));
    }

    #[test]
    fn initial_tokens_respect_capacity_and_shift_the_steady_state() {
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [rat(1, 1)]).unwrap();
        let b = g.add_actor("b", [rat(1, 1)]).unwrap();
        let c = g.connect("c", a, b, [1], [1]).unwrap();
        g.set_capacity(c, 2);
        g.set_initial_tokens(c, 3);
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        assert!(matches!(
            steady_state(&g, constraint, &ExecOptions::default()),
            Err(SdfError::InitialTokensExceedCapacity { .. })
        ));
        g.set_initial_tokens(c, 1);
        let state = steady_state(&g, constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Periodic);
        assert_eq!(state.achieved_period().unwrap(), rat(1, 1));
    }

    #[test]
    fn multi_phase_execution_is_periodic() {
        // src {3} → down (2, 4): the downsampler's two phases alternate.
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", [rat(1, 2)]).unwrap();
        let down = g.add_actor("down", [rat(1, 4), rat(1, 2)]).unwrap();
        let c = g.connect("c", src, down, [3], [2, 4]).unwrap();
        g.set_capacity(c, 9);
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        let state = steady_state(&g, constraint, &ExecOptions::default()).unwrap();
        assert_eq!(state.outcome, ExecOutcome::Periodic);
        // Two down firings need 6 tokens = two src firings of 1/2 each:
        // the producer binds the cycle at 1 time unit per iteration.
        assert_eq!(state.achieved_period().unwrap(), rat(1, 2));
        assert!(state.meets_constraint());
    }

    #[test]
    fn zero_time_graphs_are_rejected_not_looped() {
        // All response times zero: time never advances, so there is no
        // physical steady state; the executor must refuse, not hang.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [Rational::ZERO]).unwrap();
        let b = g.add_actor("b", [Rational::ZERO]).unwrap();
        let c = g.connect("c", a, b, [1], [1]).unwrap();
        g.set_capacity(c, 4);
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        // A small budget keeps the refusal fast; the default budget only
        // changes how long the executor tries.
        let opts = ExecOptions {
            max_events: 10_000,
            ..ExecOptions::default()
        };
        let err = steady_state(&g, constraint, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                SdfError::NoSteadyState { .. } | SdfError::BudgetExhausted { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn budget_guards_are_reported() {
        let (g, constraint) = pair(6);
        let err = steady_state(
            &g,
            constraint,
            &ExecOptions {
                max_events: 3,
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SdfError::BudgetExhausted { events: 3 }));
    }

    #[test]
    fn search_finds_the_operational_pair_minimum() {
        let (g, constraint) = pair(12);
        let report = minimize_sdf_capacities(&g, constraint, &SdfSearchOptions::default()).unwrap();
        assert!(report.baseline_clear);
        assert_eq!(report.channels.len(), 1);
        let min = &report.channels[0];
        assert_eq!(min.assigned, 12);
        assert_eq!(min.floor, 3);
        // The minimum is operationally exact: it passes, one less fails.
        let pass = steady_state(
            &g.with_capacities(&[(min.channel, min.minimal)]),
            constraint,
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(pass.meets_constraint());
        if min.minimal > min.floor {
            let fail = steady_state(
                &g.with_capacities(&[(min.channel, min.minimal - 1)]),
                constraint,
                &ExecOptions::default(),
            )
            .unwrap();
            assert!(!fail.meets_constraint());
        }
        assert_eq!(report.total_gap(), 12 - min.minimal);
        assert!(report.to_string().contains("minimal"));
    }

    #[test]
    fn search_respects_initial_tokens_in_the_floor() {
        // Regression: the floor must include the initial tokens, or the
        // binary search probes a capacity that cannot even hold them and
        // the whole search aborts with InitialTokensExceedCapacity.
        let mut g = CsdfGraph::new();
        let a = g.add_actor("a", [rat(1, 1)]).unwrap();
        let b = g.add_actor("b", [rat(1, 1)]).unwrap();
        let c = g.connect("c", a, b, [1], [1]).unwrap();
        g.set_capacity(c, 10);
        g.set_initial_tokens(c, 5);
        let constraint = ThroughputConstraint::on_sink(rat(1, 1)).unwrap();
        let report = minimize_sdf_capacities(&g, constraint, &SdfSearchOptions::default()).unwrap();
        assert!(report.baseline_clear);
        assert_eq!(report.channels[0].floor, 5);
        assert!(report.channels[0].minimal >= 5);
    }

    #[test]
    fn search_reports_failing_assignments() {
        let (g, constraint) = pair(3);
        let report = minimize_sdf_capacities(&g, constraint, &SdfSearchOptions::default()).unwrap();
        assert!(!report.baseline_clear);
        assert_eq!(report.total_gap(), 0);
        assert_eq!(report.probes, 1);
    }
}
