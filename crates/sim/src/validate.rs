//! Cross-validation of the analysis against simulation — the paper's own
//! verification method (Section 5), turned into an executable oracle.
//!
//! [`validate_capacities`] takes a [`TaskGraph`] (chain or fork/join DAG)
//! and the [`GraphAnalysis`] that `vrdf-core` computed for it, applies the
//! computed capacities, and
//! replays a battery of admissible quantum scenarios (all-max, all-min,
//! min/max cycling, seeded-random) with the throughput-constrained
//! endpoint forced strictly periodic.  The sufficiency theorem says no
//! scenario may ever produce a deadline miss or deadlock; a violation in
//! any scenario is a counterexample to the analysis.
//!
//! Scenarios are independent simulations, so the battery fans out over
//! the crate's worker pool ([`ValidationOptions::threads`]): workers
//! claim scenarios in index order, and results are merged back in
//! scenario order, making the report bit-identical for every thread
//! count.
//!
//! The battery itself is a reusable [`ScenarioRunner`]: one [`SimPlan`]
//! per graph, one [`SimState`] per worker thread, and per-buffer capacity
//! overrides per call — so a capacity search probing thousands of
//! assignments pays graph validation, the tick rescale, and arena
//! allocation once, not once per probe.  [`ScenarioRunner::validate`]
//! runs every scenario and reports every failure;
//! [`ScenarioRunner::probe`], the search's verdict-only call, stops at
//! the first failing scenario and cancels the rest.
//!
//! The periodic offset is chosen *conservatively* from the analysis
//! ([`conservative_offset`]): by linearity of VRDF, shifting the whole
//! schedule later is always admissible, so any offset at or above the
//! minimal one preserves feasibility — while an under-provisioned buffer
//! makes the endpoint's backlog grow without bound and misses its deadline
//! at every offset.
//!
//! # Robustness
//!
//! A battery of thousands of probe runs must not die on its weakest run:
//! every scenario executes inside [`std::panic::catch_unwind`], a
//! panicking probe becomes a typed [`WorkerPanic`] entry in the report
//! ([`ValidationReport::panics`]), and the remaining scenarios still run.
//! A report with panics is never [`ValidationReport::all_clear`].
//!
//! Every battery runs on the tick engine.  A graph whose times do not fit
//! its `u64` tick clock is [`SimError::TickOverflow`] from the runner's
//! constructor, faulted or not; the rational-time
//! [`crate::reference::ReferenceSimulator`] is the differential oracle
//! the tests compare the tick engine against, not a second battery
//! engine.
//!
//! No verdict reads a clock: a verdict depends only on the graph, the
//! capacities and the battery, never on the machine that ran it.  Every
//! scenario is bounded by a count, [`ValidationOptions::max_events`].

use std::fmt;
use std::time::{Duration, Instant};

use vrdf_core::{
    BufferId, ConstrainedRelease, ConstraintLocation, GraphAnalysis, Rational, TaskGraph,
    ThroughputConstraint,
};

use crate::engine::{
    SimConfig, SimOutcome, SimPlan, SimReport, SimState, Simulator, TraceLevel, Violation,
};
use crate::faults::FaultPlan;
use crate::policy::{QuantumPlan, QuantumPolicy};
use crate::pool::{self, Outcome};
use crate::telemetry::ValidationMetrics;
use crate::SimError;

/// Tunables for [`validate_capacities`].
#[derive(Clone, Debug)]
pub struct ValidationOptions {
    /// Periodic endpoint firings to check per scenario.
    pub endpoint_firings: u64,
    /// Number of seeded-random scenarios.
    pub random_runs: u32,
    /// Base seed for the random scenarios (run `i` uses `base_seed + i`,
    /// wrapping past `u64::MAX`).
    pub base_seed: u64,
    /// Extra slack added to the conservative offset (useful when probing
    /// borderline capacities by hand).
    pub extra_offset: Rational,
    /// Event budget per scenario.
    pub max_events: u64,
    /// Worker-thread cap for the scenario battery: `0` uses the machine's
    /// available parallelism, `1` runs sequentially, and any cap is
    /// clamped to the scenario count (see [`effective_threads`], the one
    /// resolution rule shared by the validate and search paths).
    /// Scenarios are independent simulations, so the verdict is
    /// identical for every thread count — only the wall clock changes.
    /// Inside a fleet run this field is overridden to `1`: the pool owns
    /// the cores ([`crate::fleet::FleetOptions::battery_options`]).
    pub threads: usize,
    /// Aggregate every scenario's engine counters and phase spans
    /// ([`crate::SimReport::counters`], [`crate::SimReport::spans`]) and
    /// the per-scenario wall times into [`ValidationReport::metrics`].
    /// The runs are the same either way; only the aggregation is
    /// switched.  `false` by default.
    pub telemetry: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            endpoint_firings: 20_000,
            random_runs: 4,
            base_seed: 0xC0FF_EE00,
            extra_offset: Rational::ZERO,
            max_events: 50_000_000,
            threads: 0,
            telemetry: false,
        }
    }
}

/// A scenario whose probe worker panicked.  The battery isolates the
/// panic ([`std::panic::catch_unwind`]) and carries on; the report entry
/// replaces the scenario's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The scenario whose probe panicked.
    pub scenario: String,
    /// The panic payload, when it was a string; a placeholder otherwise.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario `{}` panicked: {}", self.scenario, self.message)
    }
}

/// A buffer whose recorded high-water occupancy exceeded its capacity —
/// impossible under correct container accounting, so any instance is an
/// engine bug, not a property of the scenario.  Checked unconditionally
/// (not a `debug_assert!`) because validation and the capacity search run
/// in release builds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OccupancyBreach {
    /// The offending buffer's name.
    pub buffer: String,
    /// The recorded high-water mark of containers in use.
    pub max_occupancy: u64,
    /// The capacity `ζ(b)` the run was configured with.
    pub capacity: u64,
}

impl fmt::Display for OccupancyBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer `{}` reached occupancy {} over capacity {}",
            self.buffer, self.max_occupancy, self.capacity
        )
    }
}

/// Every occupancy > capacity breach recorded in a report's buffer
/// statistics.
fn occupancy_breaches(report: &SimReport) -> Vec<OccupancyBreach> {
    report
        .buffers
        .iter()
        .filter(|b| b.max_occupancy > b.capacity)
        .map(|b| OccupancyBreach {
            buffer: b.name.clone(),
            max_occupancy: b.max_occupancy,
            capacity: b.capacity,
        })
        .collect()
}

/// The result of replaying one quantum scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Human-readable scenario name (`"const-max"`, `"random-2"`, …).
    pub name: String,
    /// The full simulation report of the scenario.
    pub report: SimReport,
    /// Occupancy ≤ capacity accounting breaches (always empty unless the
    /// engine itself is broken); a non-empty list fails the scenario.
    pub occupancy_breaches: Vec<OccupancyBreach>,
}

impl ScenarioResult {
    /// Wraps a finished report, running the occupancy ≤ capacity audit.
    pub fn from_report(name: String, report: SimReport) -> ScenarioResult {
        let occupancy_breaches = occupancy_breaches(&report);
        ScenarioResult {
            name,
            report,
            occupancy_breaches,
        }
    }

    /// `true` when the scenario completed with zero violations and clean
    /// container accounting.
    pub fn passed(&self) -> bool {
        self.report.ok() && self.occupancy_breaches.is_empty()
    }

    /// The first violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.report.violations.first()
    }
}

/// The verdict of [`validate_capacities`] over all scenarios.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// The strictly periodic offset every scenario used.
    pub offset: Rational,
    /// One result per scenario that actually ran.
    pub scenarios: Vec<ScenarioResult>,
    /// Scenarios whose probe worker panicked (isolated, not fatal).
    pub panics: Vec<WorkerPanic>,
    /// Scenarios a [`ScenarioRunner::probe`] never ran because a
    /// lower-index scenario failed first, in battery order.  Always
    /// empty for [`ScenarioRunner::validate`].
    pub cancelled: Vec<String>,
    /// Aggregated battery telemetry, `Some` iff
    /// [`ValidationOptions::telemetry`] was set.  Wall times live here —
    /// outside every field the differential tests compare — so the
    /// verdict stays bit-identical for every thread count.
    pub metrics: Option<ValidationMetrics>,
}

impl ValidationReport {
    /// `true` when the battery is complete and every scenario sustained
    /// strict periodicity — the capacities survived the probe.  A report
    /// with panicked or cancelled scenarios is never all-clear.
    pub fn all_clear(&self) -> bool {
        self.complete() && self.scenarios.iter().all(ScenarioResult::passed)
    }

    /// `true` when every scenario actually ran: nothing panicked and
    /// nothing was cancelled by a probe.
    pub fn complete(&self) -> bool {
        self.panics.is_empty() && self.cancelled.is_empty()
    }

    /// The scenarios that failed, with their first violation or outcome.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioResult> {
        self.scenarios.iter().filter(|s| !s.passed())
    }

    /// Total simulated events across all scenarios — the battery's raw
    /// simulation volume, for throughput accounting.
    pub fn events(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.report.events_processed)
            .sum()
    }

    /// Total [`ScenarioResult::occupancy_breaches`] across the battery —
    /// engine-accounting failures, distinct from deadline misses.
    pub fn occupancy_breach_count(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.occupancy_breaches.len() as u64)
            .sum()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "validation at offset {}: {}/{} scenarios clear",
            self.offset,
            self.scenarios.iter().filter(|s| s.passed()).count(),
            self.scenarios.len()
        )?;
        for s in &self.scenarios {
            match s.first_violation() {
                None if s.passed() => writeln!(
                    f,
                    "  {:<12} ok ({} endpoint firings)",
                    s.name, s.report.endpoint.firings
                )?,
                None if !s.occupancy_breaches.is_empty() => writeln!(
                    f,
                    "  {:<12} FAILED (engine accounting): {}",
                    s.name, s.occupancy_breaches[0]
                )?,
                None => writeln!(f, "  {:<12} FAILED: {:?}", s.name, s.report.outcome)?,
                Some(v) => writeln!(f, "  {:<12} FAILED: {v}", s.name)?,
            }
        }
        for p in &self.panics {
            writeln!(f, "  {:<12} PANICKED: {}", p.scenario, p.message)?;
        }
        for name in &self.cancelled {
            writeln!(f, "  {:<12} cancelled (an earlier scenario failed)", name)?;
        }
        Ok(())
    }
}

/// A strictly periodic offset guaranteed admissible whenever the analysed
/// capacities are sufficient.
///
/// End-to-end, a container spends at most the sum of all response times
/// executing and at most `ζ(b) · t_b` queued in each buffer `b` draining
/// at its bound rate, so releasing the endpoint one period after that
/// total can always be met; on a fork/join DAG this sums over *all*
/// tasks and buffers, which dominates every source-to-sink path.  By VRDF linearity (Definition 2 of the
/// paper), feasibility at some offset implies feasibility at every larger
/// one, so overshooting the minimal offset is safe — it can never turn a
/// sufficient capacity assignment into a missing one.
///
/// # Errors
///
/// [`SimError::Analysis`] with
/// [`vrdf_core::AnalysisError::ArithmeticOverflow`] when the summed
/// rationals cannot be represented — pathologically fine-grained time
/// bases whose common denominator overflows `i128`.
pub fn conservative_offset(tg: &TaskGraph, analysis: &GraphAnalysis) -> Result<Rational, SimError> {
    let constraint = analysis.constraint();
    if constraint.location() == ConstraintLocation::Source {
        // The source only needs empty containers and every buffer starts
        // empty: it can be released immediately.
        return Ok(Rational::ZERO);
    }
    let mut offset = constraint.period();
    for (_, task) in tg.tasks() {
        offset = offset
            .checked_add(task.response_time())
            .ok_or(offset_overflow())?;
    }
    for capacity in analysis.capacities() {
        let queued = Rational::from(capacity.capacity)
            .checked_mul(capacity.token_period)
            .ok_or(offset_overflow())?;
        offset = offset.checked_add(queued).ok_or(offset_overflow())?;
    }
    Ok(offset)
}

/// The error for an endpoint offset that cannot be represented.
pub(crate) fn offset_overflow() -> SimError {
    SimError::Analysis(vrdf_core::AnalysisError::ArithmeticOverflow {
        context: "conservative offset",
    })
}

/// The scenario battery: worst-case corners, a min/max cycle, and seeded
/// random draws.
fn scenario_plans(tg: &TaskGraph, opts: &ValidationOptions) -> Vec<(String, QuantumPlan)> {
    use crate::policy::Side;
    let mut cycle = QuantumPlan::uniform(QuantumPolicy::Max);
    for (id, buffer) in tg.buffers() {
        cycle = cycle
            .with(
                id.index(),
                Side::Production,
                QuantumPolicy::Cyclic(vec![buffer.production().max(), buffer.production().min()]),
            )
            .with(
                id.index(),
                Side::Consumption,
                QuantumPolicy::Cyclic(vec![buffer.consumption().min(), buffer.consumption().max()]),
            );
    }
    let mut plans = vec![
        (
            "const-max".to_owned(),
            QuantumPlan::uniform(QuantumPolicy::Max),
        ),
        (
            "const-min".to_owned(),
            QuantumPlan::uniform(QuantumPolicy::Min),
        ),
        ("cycle-minmax".to_owned(), cycle),
    ];
    for i in 0..opts.random_runs {
        plans.push((
            format!("random-{i}"),
            QuantumPlan::random(opts.base_seed.wrapping_add(u64::from(i))),
        ));
    }
    plans
}

/// Replays the computed capacities against a battery of admissible quantum
/// scenarios with the constrained endpoint forced strictly periodic, and
/// reports whether the throughput constraint survived every one.
///
/// The graph's capacities `ζ(b)` are overwritten with the analysis'
/// results on a clone — the input graph is untouched.  Build a
/// [`ScenarioRunner`] to probe whatever capacities a graph already
/// carries (e.g. deliberately under-provisioned ones) at an explicit
/// offset.
///
/// # Errors
///
/// Propagates [`SimError`] from simulator construction (e.g.
/// [`SimError::TickOverflow`] when the graph's times do not fit the tick
/// clock); scenario violations are reported in the [`ValidationReport`],
/// not as errors.
///
/// # Examples
///
/// ```
/// use vrdf_core::{compute_buffer_capacities, QuantumSet, Rational, TaskGraph,
///     ThroughputConstraint};
/// use vrdf_sim::{validate_capacities, ValidationOptions};
///
/// let tg = TaskGraph::linear_chain(
///     [("wa", Rational::ONE), ("wb", Rational::ONE)],
///     [("b", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
/// )?;
/// let constraint = ThroughputConstraint::on_sink(Rational::from(3u64))?;
/// let analysis = compute_buffer_capacities(&tg, constraint)?;
/// let mut opts = ValidationOptions::default();
/// opts.endpoint_firings = 500;
/// let report = validate_capacities(&tg, &analysis, &opts)?;
/// assert!(report.all_clear(), "{report}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn validate_capacities(
    tg: &TaskGraph,
    analysis: &GraphAnalysis,
    opts: &ValidationOptions,
) -> Result<ValidationReport, SimError> {
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let offset = conservative_offset(tg, analysis)?
        .checked_add(opts.extra_offset)
        .ok_or(offset_overflow())?;
    ScenarioRunner::new(
        &sized,
        analysis.constraint(),
        offset,
        analysis.options().release,
        opts,
    )?
    .validate(&[])
}

/// Resolves a worker-thread cap against `n` units of independent work.
///
/// This is the one place the `threads`-style knobs are interpreted, so
/// the semantics are identical everywhere a battery fans out — the
/// validate path, the search path (whose probes run on a
/// [`ScenarioRunner`] built with the same rule), and the fleet pool
/// ([`crate::fleet::run_fleet`]):
///
/// * `cap == 0` means *the machine's available parallelism* (falling
///   back to 1 when it cannot be queried);
/// * the result is clamped to `n` — spawning more workers than there
///   are scenarios (or corpus graphs) is pure overhead;
/// * the result is at least 1, even for `n == 0`.
pub fn effective_threads(cap: usize, n: usize) -> usize {
    let cap = if cap == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        cap
    };
    cap.min(n).max(1)
}

/// A reusable scenario battery over one graph.
///
/// Construction pays the per-graph work exactly once: the [`SimPlan`]
/// (DAG validation, tick rescale, flattened adjacency), the scenario
/// list, and one [`SimState`] arena per worker thread.  Every
/// [`validate`](ScenarioRunner::validate) or
/// [`probe`](ScenarioRunner::probe) call then replays the battery —
/// optionally with per-buffer capacity overrides — by resetting those
/// arenas in place.  `probe` is the path of
/// [`crate::minimize_capacities`], which runs thousands of batteries per
/// search; it pays neither a graph clone nor an engine rebuild per
/// probe.
///
/// The battery fans out over the crate's worker pool: each worker claims
/// the next unstarted scenario index from a shared counter, and the
/// merge puts every result back at its scenario index, so the report is
/// bit-identical for every thread count.
pub struct ScenarioRunner<'a> {
    plan: SimPlan<'a>,
    /// One reusable arena per worker thread.
    states: Vec<SimState>,
    scenarios: Vec<(String, QuantumPlan)>,
    offset: Rational,
    telemetry: bool,
    plan_build: Duration,
}

impl<'a> ScenarioRunner<'a> {
    /// Builds the battery for a graph: the scenario list from `opts`
    /// (corners, min/max cycle, seeded randoms), the periodic endpoint at
    /// `offset`, and one reusable simulation state per worker thread.
    /// Each scenario stops at its first deadline miss.
    ///
    /// Capacities may still be unset here when every later
    /// [`validate`](ScenarioRunner::validate) call overrides them.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from plan construction: an invalid DAG,
    /// an ambiguous endpoint, or [`SimError::TickOverflow`] when the
    /// graph's times do not fit the `u64` tick clock.
    pub fn new(
        tg: &'a TaskGraph,
        constraint: ThroughputConstraint,
        offset: Rational,
        release: ConstrainedRelease,
        opts: &ValidationOptions,
    ) -> Result<ScenarioRunner<'a>, SimError> {
        Self::build(tg, constraint, offset, release, opts, None)
    }

    /// [`ScenarioRunner::new`], or with `Some(faults)` the fault
    /// battery's runner: every scenario replays `faults` and runs past
    /// its first deadline miss, so the post-fault transient can be
    /// graded.  A malformed plan is [`SimError::InvalidFault`].
    pub(crate) fn build(
        tg: &'a TaskGraph,
        constraint: ThroughputConstraint,
        offset: Rational,
        release: ConstrainedRelease,
        opts: &ValidationOptions,
        faults: Option<FaultPlan>,
    ) -> Result<ScenarioRunner<'a>, SimError> {
        let mut config = SimConfig::periodic(constraint, offset);
        config.release = release;
        config.max_endpoint_firings = opts.endpoint_firings;
        config.max_events = opts.max_events;
        config.stop_on_violation = faults.is_none();
        config.trace = TraceLevel::None;
        config.faults = faults.unwrap_or_default();
        let scenarios = scenario_plans(tg, opts);
        let threads = effective_threads(opts.threads, scenarios.len());
        let build_begin = opts.telemetry.then(Instant::now);
        let plan = SimPlan::new(tg, config)?;
        let states = (0..threads).map(|_| plan.state()).collect();
        Ok(ScenarioRunner {
            plan,
            states,
            scenarios,
            offset,
            telemetry: opts.telemetry,
            plan_build: build_begin.map_or(Duration::ZERO, |b| b.elapsed()),
        })
    }

    /// The strictly periodic offset every scenario uses.
    pub fn offset(&self) -> Rational {
        self.offset
    }

    /// Number of scenarios in the battery.
    pub fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    /// The resolved worker-thread count the battery fans out over:
    /// [`ValidationOptions::threads`] passed through
    /// [`effective_threads`], so it never exceeds
    /// [`scenario_count`](ScenarioRunner::scenario_count).
    pub fn worker_count(&self) -> usize {
        self.states.len()
    }

    /// Replays the whole battery, with per-buffer capacity overrides
    /// applied on top of the graph's assignments for every scenario.
    /// Every scenario runs, so the report lists every failure.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the runs (e.g. a buffer with neither
    /// an assigned nor an overridden capacity); scenario violations are
    /// reported in the [`ValidationReport`] and panicking probes in
    /// [`ValidationReport::panics`] — neither is an error.
    pub fn validate(
        &mut self,
        capacities: &[(BufferId, u64)],
    ) -> Result<ValidationReport, SimError> {
        self.run(capacities, false)
    }

    /// Replays the battery like [`validate`](ScenarioRunner::validate),
    /// but stops at the lowest-index scenario that fails — a violation,
    /// a deadlock, an occupancy breach, a [`SimError`] or a panic.  The
    /// scenarios above it are never started (or,
    /// when they were already in flight on another worker, their
    /// outcomes are dropped) and are listed in
    /// [`ValidationReport::cancelled`], so the report is identical at
    /// every thread count.  This is the probe of
    /// [`crate::minimize_capacities`], which needs only the verdict:
    /// [`all_clear`](ValidationReport::all_clear) and the first failure
    /// always agree with `validate`'s.
    ///
    /// # Errors
    ///
    /// As [`validate`](ScenarioRunner::validate), for a [`SimError`] at
    /// the scenario the probe stopped at.
    pub fn probe(&mut self, capacities: &[(BufferId, u64)]) -> Result<ValidationReport, SimError> {
        self.run(capacities, true)
    }

    fn run(
        &mut self,
        capacities: &[(BufferId, u64)],
        fail_fast: bool,
    ) -> Result<ValidationReport, SimError> {
        let scenarios = &self.scenarios;
        let timed = self.telemetry;
        let fails = fail_fast.then_some(fails_battery as fn(&_) -> bool);
        let plan = &self.plan;
        let slots = pool::run(&mut self.states, scenarios.len(), fails, |state, i| {
            let (name, quanta) = &scenarios[i];
            plan.run_with_capacities(state, quanta, capacities)
                .map(|report| ScenarioResult::from_report(name.clone(), report))
        });

        let merge_begin = timed.then(Instant::now);
        let mut results = Vec::new();
        let mut panics = Vec::new();
        let mut cancelled = Vec::new();
        let mut first_error = None;
        let mut metrics = timed.then(ValidationMetrics::default);
        for ((name, _), slot) in scenarios.iter().zip(slots) {
            match slot.outcome {
                Outcome::Done(Ok(r)) => {
                    if let Some(m) = &mut metrics {
                        m.counters.merge(&r.report.counters);
                        m.phases.merge_from(&r.report.spans);
                        m.scenario_wall.push((r.name.clone(), slot.wall));
                    }
                    results.push(r);
                }
                Outcome::Done(Err(e)) => {
                    let _ = first_error.get_or_insert(e);
                }
                Outcome::Panicked(message) => panics.push(WorkerPanic {
                    scenario: name.clone(),
                    message,
                }),
                Outcome::Cancelled => cancelled.push(name.clone()),
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if let (Some(m), Some(begin)) = (&mut metrics, merge_begin) {
            m.phases.plan_build = self.plan_build;
            m.phases.merge = begin.elapsed();
        }
        Ok(ValidationReport {
            offset: self.offset,
            scenarios: results,
            panics,
            cancelled,
            metrics,
        })
    }
}

/// `true` when a scenario run fails its battery: an error, or a
/// scenario that did not pass.
fn fails_battery(run: &Result<ScenarioResult, SimError>) -> bool {
    !run.as_ref().is_ok_and(ScenarioResult::passed)
}

/// Measures the endpoint's self-timed drift `max_k (s_k − k·τ)`: the
/// smallest strictly periodic offset consistent with one self-timed run of
/// the given scenario.  Useful for characterising how conservative
/// [`conservative_offset`] is.
///
/// # Errors
///
/// Propagates [`SimError`] from simulator construction.
pub fn measure_drift(
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
    plan: QuantumPlan,
    endpoint_firings: u64,
) -> Result<Option<Rational>, SimError> {
    let mut config = SimConfig::self_timed(constraint);
    config.max_endpoint_firings = endpoint_firings;
    let report = Simulator::new(tg, plan, config)?.run();
    match report.outcome {
        SimOutcome::Completed => Ok(report.endpoint.max_drift),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{compute_buffer_capacities, rat, QuantumSet};

    fn pair_graph() -> (TaskGraph, ThroughputConstraint) {
        let tg = TaskGraph::linear_chain(
            [("wa", rat(1, 1)), ("wb", rat(1, 1))],
            [(
                "b",
                QuantumSet::constant(3),
                QuantumSet::new([2, 3]).unwrap(),
            )],
        )
        .unwrap();
        (tg, ThroughputConstraint::on_sink(rat(3, 1)).unwrap())
    }

    #[test]
    fn computed_capacities_validate_clean() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let opts = ValidationOptions {
            endpoint_firings: 300,
            ..ValidationOptions::default()
        };
        let report = validate_capacities(&tg, &analysis, &opts).unwrap();
        assert!(report.all_clear(), "{report}");
        assert_eq!(report.scenarios.len(), 3 + opts.random_runs as usize);
        assert_eq!(report.failures().count(), 0);
        // The display summary renders.
        assert!(report.to_string().contains("scenarios clear"));
    }

    #[test]
    fn conservative_offset_covers_measured_drift() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let offset = conservative_offset(&tg, &analysis).expect("offset fits");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);
        let drift = measure_drift(
            &sized,
            constraint,
            QuantumPlan::uniform(QuantumPolicy::Max),
            200,
        )
        .unwrap()
        .expect("self-timed run completes");
        assert!(
            offset >= drift,
            "conservative offset {offset} below measured drift {drift}"
        );
    }

    #[test]
    fn occupancy_breach_fails_the_scenario_in_release_builds_too() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let mut sized = tg.clone();
        analysis.apply(&mut sized);
        let mut config = SimConfig::periodic(
            constraint,
            conservative_offset(&tg, &analysis).expect("offset fits"),
        );
        config.max_endpoint_firings = 50;
        let report = Simulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config)
            .unwrap()
            .run();

        // A healthy run audits clean...
        let clean = ScenarioResult::from_report("audit".into(), report.clone());
        assert!(clean.passed());
        assert!(clean.occupancy_breaches.is_empty());

        // ...and a doctored report — standing in for a capacity-accounting
        // bug — fails the scenario even though the run itself reported ok.
        let mut doctored = report;
        doctored.buffers[0].max_occupancy = doctored.buffers[0].capacity + 1;
        let broken = ScenarioResult::from_report("audit".into(), doctored);
        assert!(broken.report.ok(), "the raw report alone would pass");
        assert!(!broken.passed());
        assert_eq!(broken.occupancy_breaches.len(), 1);
        let breach = &broken.occupancy_breaches[0];
        assert_eq!(breach.max_occupancy, breach.capacity + 1);
        assert!(breach.to_string().contains("over capacity"));
        // The failure is visible in the validation summary.
        let summary = ValidationReport {
            offset: Rational::ZERO,
            scenarios: vec![broken],
            panics: Vec::new(),
            cancelled: Vec::new(),
            metrics: None,
        };
        assert!(summary.to_string().contains("engine accounting"));
    }

    #[test]
    fn a_panicked_scenario_is_neither_clear_nor_complete() {
        // Every scenario that ran passed, but one worker panicked: the
        // battery must not read as a pass.
        let report = ValidationReport {
            offset: Rational::ZERO,
            scenarios: Vec::new(),
            panics: vec![WorkerPanic {
                scenario: "cycle-minmax".into(),
                message: "index out of bounds".into(),
            }],
            cancelled: Vec::new(),
            metrics: None,
        };
        assert!(!report.all_clear());
        assert!(!report.complete());
        assert!(report
            .to_string()
            .contains("cycle-minmax PANICKED: index out of bounds"));
    }

    #[test]
    fn thread_count_does_not_change_the_verdict() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let opts = |threads| ValidationOptions {
            endpoint_firings: 400,
            random_runs: 5,
            threads,
            ..ValidationOptions::default()
        };
        let sequential = validate_capacities(&tg, &analysis, &opts(1)).unwrap();
        for threads in [0, 2, 3, 8] {
            let parallel = validate_capacities(&tg, &analysis, &opts(threads)).unwrap();
            assert_eq!(parallel.offset, sequential.offset);
            assert_eq!(parallel.scenarios.len(), sequential.scenarios.len());
            for (p, s) in parallel.scenarios.iter().zip(&sequential.scenarios) {
                assert_eq!(p.name, s.name, "scenario order must not depend on threads");
                assert_eq!(p.report.outcome, s.report.outcome);
                assert_eq!(p.report.violations, s.report.violations);
                assert_eq!(p.report.events_processed, s.report.events_processed);
                assert_eq!(p.report.endpoint.firings, s.report.endpoint.firings);
            }
        }
    }

    #[test]
    fn telemetry_battery_aggregates_counters_without_changing_the_verdict() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let opts = |telemetry| ValidationOptions {
            endpoint_firings: 300,
            telemetry,
            ..ValidationOptions::default()
        };
        let plain = validate_capacities(&tg, &analysis, &opts(false)).unwrap();
        assert!(plain.metrics.is_none(), "telemetry is opt-in");
        let instrumented = validate_capacities(&tg, &analysis, &opts(true)).unwrap();
        let metrics = instrumented.metrics.as_ref().expect("telemetry enabled");
        // Counter sums are deterministic and tie out against the report.
        assert_eq!(metrics.counters.events_popped, instrumented.events());
        assert_eq!(
            metrics.counters.firings_started,
            metrics.counters.firings_finished
        );
        assert!(metrics.counters.firings_started > 0);
        assert_eq!(metrics.scenario_wall.len(), instrumented.scenarios.len());
        assert!(metrics.snapshot().to_string().contains("events popped"));
        // The instrumented verdict is identical to the plain one.
        assert_eq!(instrumented.scenarios.len(), plain.scenarios.len());
        for (i, p) in instrumented.scenarios.iter().zip(&plain.scenarios) {
            assert_eq!(i.name, p.name);
            assert_eq!(i.report.outcome, p.report.outcome);
            assert_eq!(i.report.violations, p.report.violations);
            assert_eq!(i.report.events_processed, p.report.events_processed);
            assert_eq!(i.report.endpoint.firings, p.report.endpoint.firings);
        }
    }

    #[test]
    fn effective_threads_resolves_zero_and_clamps_to_the_work() {
        // An explicit cap is clamped to the number of scenarios and
        // never drops below one worker.
        assert_eq!(effective_threads(1, 10), 1);
        assert_eq!(effective_threads(3, 10), 3);
        assert_eq!(effective_threads(64, 7), 7);
        assert_eq!(effective_threads(4, 0), 1);
        // 0 = the machine's available parallelism, same clamp applied.
        let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(effective_threads(0, 1_000), avail.min(1_000));
        assert_eq!(effective_threads(0, 1), 1);
        assert_eq!(effective_threads(0, 0), 1);
    }

    #[test]
    fn runner_worker_count_is_clamped_to_the_battery() {
        // Both the validate path (validate_capacities) and the search
        // path (minimize_capacities' probe runner) build their battery
        // through ScenarioRunner::new, so pinning the clamp here pins
        // it for both.
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let mut sized = tg.clone();
        analysis.apply(&mut sized);
        let opts = ValidationOptions {
            endpoint_firings: 100,
            random_runs: 2,
            threads: 64,
            ..ValidationOptions::default()
        };
        let runner = ScenarioRunner::new(
            &sized,
            constraint,
            conservative_offset(&tg, &analysis).unwrap(),
            analysis.options().release,
            &opts,
        )
        .unwrap();
        assert_eq!(runner.scenario_count(), 5, "3 deterministic + 2 random");
        assert_eq!(
            runner.worker_count(),
            5,
            "a 64-thread cap is clamped to the 5-scenario battery"
        );
    }

    #[test]
    fn source_constrained_offset_is_zero() {
        let tg = TaskGraph::linear_chain(
            [("src", rat(1, 10)), ("snk", rat(1, 40))],
            [("b", QuantumSet::constant(4), QuantumSet::constant(2))],
        )
        .unwrap();
        let constraint = ThroughputConstraint::on_source(rat(2, 5)).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        assert_eq!(
            conservative_offset(&tg, &analysis).expect("offset fits"),
            Rational::ZERO
        );
        let opts = ValidationOptions {
            endpoint_firings: 300,
            ..ValidationOptions::default()
        };
        let report = validate_capacities(&tg, &analysis, &opts).unwrap();
        assert!(report.all_clear(), "{report}");
    }
}
