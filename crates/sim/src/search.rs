//! Minimal-capacity search: the first subsystem that *searches* with the
//! simulator instead of merely checking.
//!
//! The paper's Eq. (4) capacities are sufficient but not always minimal —
//! the validation oracle itself exposes the gap (on the MP3 chain, `d3`
//! computes to 882 but 881 survives every scenario under exact-handoff
//! semantics).  [`minimize_capacities`] measures that gap edge by edge:
//! starting from the Eq. (4) assignment it binary-searches, per edge, the
//! smallest capacity that still survives every scenario of the battery, in
//! one sweep over the edges.
//!
//! Every probe is a [`ScenarioRunner::probe`] on one shared runner — the
//! same parallel scenario runner the oracle uses, but fail-fast: the
//! battery stops at its first failing scenario and the scenarios above
//! it are cancelled ([`MinimizationReport::scenarios_cancelled`]), and
//! that scenario itself ends at its first deadline miss.  The runner's
//! [`SimPlan`](crate::SimPlan) is built once for the whole search and
//! each probe only swaps capacity overrides and resets the reusable
//! arenas, so the thousands of probes a search spends pay no per-probe
//! graph clone or engine rebuild.  Feasibility is
//! monotone in capacity (extra containers only relax back-pressure), so
//! the per-edge binary search is sound, and one sweep is already the
//! fixed point: shrinking a later edge can never make an earlier edge's
//! failed `minimal − 1` pass.  The strictly periodic offset is
//! pinned to the Eq. (4) analysis' [`conservative_offset`] for every
//! probe, making all verdicts comparable.
//!
//! The reported minima are *operational* minima relative to the probe
//! battery (scenario set, endpoint firings, offset): a capacity is
//! "minimal" when one container less fails at least one battery scenario.
//! Verdicts are thread-count-invariant because the underlying
//! [`ValidationReport`](crate::ValidationReport) is.

use std::fmt;
use std::time::Instant;

use vrdf_core::{BufferId, GraphAnalysis, Rational, TaskGraph};

use crate::telemetry::SearchMetrics;
use crate::validate::{conservative_offset, ScenarioRunner, ValidationOptions};
use crate::SimError;

/// Tunables for [`minimize_capacities`].
#[derive(Clone, Debug, Default)]
pub struct SearchOptions {
    /// The scenario battery every probe must survive.
    pub validation: ValidationOptions,
    /// Restrict the search to these buffers (`None` searches every edge);
    /// excluded edges keep their Eq. (4) capacity.
    pub buffers: Option<Vec<BufferId>>,
}

/// The search outcome for one edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeMinimum {
    /// The buffer this minimum belongs to.
    pub buffer: BufferId,
    /// Its name.
    pub name: String,
    /// The Eq. (4) capacity the search started from.
    pub assigned: u64,
    /// The smallest capacity that survived the battery (== `assigned`
    /// when Eq. (4) is operationally tight or the edge was excluded).
    pub minimal: u64,
    /// The structural floor `max(π̂, γ̂, δ0)` below which a worst-case
    /// firing cannot even fit in the buffer (or, on a feedback edge,
    /// the pre-filled initial tokens would not) — never probed below.
    pub floor: u64,
    /// Probes spent on this edge.
    pub probes: u32,
}

impl EdgeMinimum {
    /// Containers Eq. (4) over-provisions on this edge.
    pub fn gap(&self) -> u64 {
        self.assigned - self.minimal
    }
}

/// The result of [`minimize_capacities`]: per-edge operational minima and
/// the probe accounting behind them.
#[derive(Clone, Debug)]
pub struct MinimizationReport {
    /// The strictly periodic offset every probe used (the Eq. (4)
    /// analysis' conservative offset plus any configured extra).
    pub offset: Rational,
    /// Whether the Eq. (4) assignment itself survived the battery.  When
    /// `false` no probes were attempted and every `minimal` equals its
    /// `assigned` — a false baseline would make every "minimum" vacuous.
    pub baseline_clear: bool,
    /// One entry per edge, in the analysis' buffer order (source-to-sink
    /// for a chain).
    pub edges: Vec<EdgeMinimum>,
    /// Total probe simulations, baseline included.
    pub probes: u32,
    /// Probes whose battery came back all-clear.
    pub probes_passed: u32,
    /// Total simulated events across every probe scenario, baseline
    /// included — the search's raw simulation volume, for throughput
    /// accounting.
    pub events: u64,
    /// Total [`crate::ScenarioResult::occupancy_breaches`] across every
    /// probe battery, baseline included.  Breaches are engine-accounting
    /// failures, not deadline misses — any nonzero count deserves a look
    /// even when the search verdict is clean.
    pub occupancy_breaches: u64,
    /// Always `0`: a battery has no deadline, so no scenario is ever
    /// skipped.  Kept only because the benchmark's answer check reads it.
    pub scenarios_skipped: u64,
    /// Scenarios never run across every probe, baseline included,
    /// because a lower-index scenario of the same probe had already
    /// failed ([`crate::ValidationReport::cancelled`]) — the work the
    /// fail-fast probe saved.  A cancellation never changes a verdict.
    pub scenarios_cancelled: u64,
    /// Always `true`: the search has no budget, so it always finishes.
    /// Kept only because the benchmark's answer check reads it.
    pub complete: bool,
    /// Aggregated search telemetry (engine counters, phase spans, probe
    /// latency histogram), `Some` iff the search's
    /// [`ValidationOptions::telemetry`] was set.  Wall times live here,
    /// outside every field the determinism test compares.
    pub metrics: Option<SearchMetrics>,
}

impl MinimizationReport {
    /// The search outcome for a specific buffer, if it is an analysed edge.
    pub fn minimum_of(&self, buffer: BufferId) -> Option<&EdgeMinimum> {
        self.edges.iter().find(|e| e.buffer == buffer)
    }

    /// Total Eq. (4) capacity over all edges.
    pub fn total_assigned(&self) -> u64 {
        self.edges.iter().map(|e| e.assigned).sum()
    }

    /// Total operational minimum over all edges.
    pub fn total_minimal(&self) -> u64 {
        self.edges.iter().map(|e| e.minimal).sum()
    }

    /// Total containers Eq. (4) over-provisions across the graph.
    pub fn total_gap(&self) -> u64 {
        self.total_assigned() - self.total_minimal()
    }
}

impl fmt::Display for MinimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "capacity minimization at offset {}: total {} -> {} (gap {}, {} probes{})",
            self.offset,
            self.total_assigned(),
            self.total_minimal(),
            self.total_gap(),
            self.probes,
            if self.baseline_clear {
                ""
            } else {
                ", BASELINE FAILED"
            },
        )?;
        if self.occupancy_breaches > 0 {
            writeln!(
                f,
                "  battery health: {} occupancy breaches",
                self.occupancy_breaches
            )?;
        }
        writeln!(
            f,
            "  {:<8} {:>10} {:>10} {:>6} {:>7} {:>7}",
            "buffer", "eq4", "minimal", "gap", "floor", "probes"
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {:<8} {:>10} {:>10} {:>6} {:>7} {:>7}",
                e.name,
                e.assigned,
                e.minimal,
                e.gap(),
                e.floor,
                e.probes,
            )?;
        }
        Ok(())
    }
}

/// The probe accounting of one search.  Battery-health counters are
/// collected unconditionally (a couple of integer adds per probe, not
/// telemetry): a breach quietly poisons the minima, so the report always
/// carries the count.
#[derive(Default)]
struct Tally {
    probes: u32,
    probes_passed: u32,
    events: u64,
    occupancy_breaches: u64,
    scenarios_cancelled: u64,
    metrics: Option<SearchMetrics>,
}

impl Tally {
    /// Probes one candidate assignment and folds the report into the
    /// tally; returns whether the battery came back all-clear.
    /// `plan_build` is paid once for the whole search (every probe shares
    /// one runner), so it is kept at its maximum rather than summed.
    fn probe(
        &mut self,
        runner: &mut ScenarioRunner<'_>,
        capacities: &[(BufferId, u64)],
    ) -> Result<bool, SimError> {
        let begin = self.metrics.is_some().then(Instant::now);
        let report = runner.probe(capacities)?;
        let pass = report.all_clear();
        self.probes += 1;
        self.probes_passed += u32::from(pass);
        self.events += report.events();
        self.occupancy_breaches += report.occupancy_breach_count();
        self.scenarios_cancelled += report.cancelled.len() as u64;
        if let (Some(m), Some(begin)) = (self.metrics.as_mut(), begin) {
            if let Some(vm) = &report.metrics {
                m.counters.merge(&vm.counters);
                m.phases.reset += vm.phases.reset;
                m.phases.run += vm.phases.run;
                m.phases.merge += vm.phases.merge;
                m.phases.plan_build = m.phases.plan_build.max(vm.phases.plan_build);
            }
            let latency = begin.elapsed();
            m.probe_latency.record(latency);
            if !pass {
                m.failed_probe_latency.record(latency);
            }
        }
        Ok(pass)
    }

    /// The report of a search that ends with this tally.
    fn into_report(
        self,
        offset: Rational,
        baseline_clear: bool,
        edges: Vec<EdgeMinimum>,
    ) -> MinimizationReport {
        MinimizationReport {
            offset,
            baseline_clear,
            edges,
            probes: self.probes,
            probes_passed: self.probes_passed,
            events: self.events,
            occupancy_breaches: self.occupancy_breaches,
            scenarios_skipped: 0,
            scenarios_cancelled: self.scenarios_cancelled,
            complete: true,
            metrics: self.metrics,
        }
    }
}

/// Builds the probe battery for a search: one [`ScenarioRunner`] over the
/// Eq. (4)-sized graph.  Every probe is a [`ScenarioRunner::probe`] call
/// with the candidate capacities as overrides — a reset of the runner's
/// arenas, not a rebuild.
fn probe_runner<'g>(
    sized: &'g TaskGraph,
    analysis: &GraphAnalysis,
    offset: Rational,
    opts: &SearchOptions,
) -> Result<ScenarioRunner<'g>, SimError> {
    ScenarioRunner::new(
        sized,
        analysis.constraint(),
        offset,
        analysis.options().release,
        &opts.validation,
    )
}

/// Searches, per edge of the analysed graph (chain or fork/join DAG),
/// the smallest buffer capacity that still survives the scenario battery,
/// starting from the Eq. (4) assignment and visiting each edge once.
///
/// See the module docs for the algorithm and the meaning of
/// "operational minimum".  The input graph is never mutated; the search
/// clones it once (with the Eq. (4) capacities applied) and every probe
/// overlays its candidate capacities on a shared, reusable
/// [`ScenarioRunner`].
///
/// # Errors
///
/// Propagates [`SimError`] from simulator construction (e.g.
/// [`SimError::TickOverflow`] when the graph's times do not fit the tick
/// clock).  Probe *failures* are not errors — they steer the search.
///
/// # Examples
///
/// ```
/// use vrdf_core::{compute_buffer_capacities, QuantumSet, Rational, TaskGraph,
///     ThroughputConstraint};
/// use vrdf_sim::{minimize_capacities, SearchOptions};
///
/// let tg = TaskGraph::linear_chain(
///     [("wa", Rational::ONE), ("wb", Rational::ONE)],
///     [("b", QuantumSet::constant(3), QuantumSet::new([2, 3])?)],
/// )?;
/// let constraint = ThroughputConstraint::on_sink(Rational::from(3u64))?;
/// let analysis = compute_buffer_capacities(&tg, constraint)?;
///
/// let mut opts = SearchOptions::default();
/// opts.validation.endpoint_firings = 300;
/// let report = minimize_capacities(&tg, &analysis, &opts)?;
/// assert!(report.baseline_clear);
/// assert!(report.total_minimal() <= report.total_assigned(), "{report}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn minimize_capacities(
    tg: &TaskGraph,
    analysis: &GraphAnalysis,
    opts: &SearchOptions,
) -> Result<MinimizationReport, SimError> {
    let offset = conservative_offset(tg, analysis)?
        .checked_add(opts.validation.extra_offset)
        .ok_or_else(crate::validate::offset_overflow)?;

    // One sized clone and one runner for the entire search: each of the
    // potentially thousands of probes below resets the runner's arenas
    // and overlays its candidate capacities instead of cloning the graph
    // and rebuilding the engine.
    let sized = analysis.with_capacities(tg, &[]);
    let mut runner = probe_runner(&sized, analysis, offset, opts)?;
    let mut tally = Tally {
        metrics: opts.validation.telemetry.then(SearchMetrics::default),
        ..Tally::default()
    };

    // Working assignment, one slot per edge in the analysis' order.
    let mut current: Vec<(BufferId, u64)> = analysis
        .capacities()
        .iter()
        .map(|c| (c.buffer, c.capacity))
        .collect();
    let mut edges: Vec<EdgeMinimum> = analysis
        .capacities()
        .iter()
        .map(|c| {
            let buffer = tg.buffer(c.buffer);
            // Below max(π̂, γ̂) a worst-case firing cannot fit at all,
            // and below δ0 a feedback edge's pre-filled containers
            // would not; Eq. (4) assigns at least π̂ + γ̂ − 1 plus the
            // initial tokens, so the clamp is belt and braces.
            let floor = buffer
                .production()
                .max()
                .max(buffer.consumption().max())
                .max(buffer.initial_tokens())
                .min(c.capacity);
            EdgeMinimum {
                buffer: c.buffer,
                name: c.name.clone(),
                assigned: c.capacity,
                minimal: c.capacity,
                floor,
                probes: 0,
            }
        })
        .collect();
    let searchable = |buffer: BufferId| {
        opts.buffers
            .as_ref()
            .map_or(true, |allow| allow.contains(&buffer))
    };

    // The Eq. (4) baseline must hold, or "smaller still passes" verdicts
    // would be meaningless.
    let baseline_clear = tally.probe(&mut runner, &current)?;
    if !baseline_clear {
        return Ok(tally.into_report(offset, baseline_clear, edges));
    }

    // One sweep is the fixed point (see the module docs).
    for (i, edge) in edges.iter_mut().enumerate() {
        if !searchable(edge.buffer) || edge.assigned <= edge.floor {
            continue;
        }
        let floor = edge.floor;
        let mut probe_at = |capacity: u64| {
            current[i].1 = capacity;
            edge.probes += 1;
            tally.probe(&mut runner, &current)
        };
        // `current` always holds a passing assignment (the baseline or
        // the last passing probe), so `assigned` is known feasible.
        // Quick reject first: if one container less already fails, the
        // edge is minimal in one probe.
        let mut known_good = edge.assigned;
        if probe_at(known_good - 1)? {
            known_good -= 1;
            // Binary search: `known_good` passes, `floor − 1` is
            // structurally infeasible, and `lo − 1` has always failed a
            // probe (or is below the floor) — so at `lo == known_good`
            // the edge is minimal.
            let mut lo = floor;
            while lo < known_good {
                let mid = lo + (known_good - lo) / 2;
                if probe_at(mid)? {
                    known_good = mid;
                } else {
                    lo = mid + 1;
                }
            }
        }
        current[i].1 = known_good;
        edge.minimal = known_good;
    }
    Ok(tally.into_report(offset, baseline_clear, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{compute_buffer_capacities, rat, QuantumSet, ThroughputConstraint};

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

    fn quick_options() -> SearchOptions {
        SearchOptions {
            validation: ValidationOptions {
                endpoint_firings: 400,
                random_runs: 2,
                ..ValidationOptions::default()
            },
            ..SearchOptions::default()
        }
    }

    #[test]
    fn pair_minimum_is_tight_and_revalidates() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let opts = quick_options();
        let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
        assert!(report.baseline_clear, "{report}");
        assert_eq!(report.edges.len(), 1);
        let edge = &report.edges[0];
        assert_eq!(edge.assigned, 6, "Eq. (4) for the pair");
        assert!(edge.minimal <= edge.assigned);
        assert!(edge.minimal >= edge.floor);
        assert_eq!(edge.floor, 3, "max(pi_hat, gamma_hat)");
        assert_eq!(report.total_gap(), edge.gap());
        assert!(report.probes > 1, "baseline plus at least one probe");
        assert!(report.probes_passed >= 1);
        assert!(report.to_string().contains("minimal"));

        // The reported minimum really holds, and one container below it
        // really fails — the search's own verdicts, revalidated by hand
        // on one reused runner, exactly as the search probes.
        let sized = analysis.with_capacities(&tg, &[]);
        let mut runner = probe_runner(&sized, &analysis, report.offset, &opts).unwrap();
        let mut revalidate = |capacity: u64| {
            runner
                .validate(&[(edge.buffer, capacity)])
                .unwrap()
                .all_clear()
        };
        assert!(revalidate(edge.minimal));
        if edge.minimal > edge.floor {
            assert!(!revalidate(edge.minimal - 1));
        }
        assert!(report.events > 0, "probe volume is accounted");
    }

    #[test]
    fn restricted_search_leaves_other_edges_assigned() {
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
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let b1 = tg.buffer_by_name("b1").unwrap();
        let mut opts = quick_options();
        opts.buffers = Some(vec![b1]);
        let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
        assert!(report.baseline_clear, "{report}");
        let b0_edge = report.minimum_of(tg.buffer_by_name("b0").unwrap()).unwrap();
        assert_eq!(b0_edge.minimal, b0_edge.assigned, "excluded edge untouched");
        assert_eq!(b0_edge.probes, 0);
        let b1_edge = report.minimum_of(b1).unwrap();
        assert!(b1_edge.probes > 0, "searched edge was probed");
    }

    #[test]
    fn failed_baseline_short_circuits() {
        // Analyse at a 3-period, then probe against an impossible
        // 1-period battery: the Eq. (4) assignment cannot hold it, so the
        // search must refuse to report minima.
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let mut opts = quick_options();
        opts.validation.endpoint_firings = 100;
        opts.validation.extra_offset = rat(-100, 1); // sabotage the offset
        let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
        assert!(!report.baseline_clear);
        assert_eq!(report.probes, 1, "only the baseline was probed");
        for edge in &report.edges {
            assert_eq!(edge.minimal, edge.assigned);
        }
        assert!(report.to_string().contains("BASELINE FAILED"));
    }

    #[test]
    fn search_telemetry_records_one_latency_sample_per_probe() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let plain = minimize_capacities(&tg, &analysis, &quick_options()).unwrap();
        assert!(plain.metrics.is_none(), "telemetry is opt-in");
        let mut opts = quick_options();
        opts.validation.telemetry = true;
        let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
        let metrics = report.metrics.as_ref().expect("telemetry enabled");
        assert_eq!(metrics.probe_latency.count(), u64::from(report.probes));
        assert_eq!(
            metrics.failed_probe_latency.count(),
            u64::from(report.probes - report.probes_passed)
        );
        assert_eq!(metrics.counters.events_popped, report.events);
        assert!(metrics
            .snapshot()
            .to_string()
            .contains("failed probe latency p50"));
        // The instrumented search lands on the same minima.
        assert_eq!(report.edges, plain.edges);
        assert_eq!(report.probes, plain.probes);
    }

    #[test]
    fn minimization_is_deterministic() {
        let (tg, constraint) = pair_graph();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let opts = quick_options();
        let a = minimize_capacities(&tg, &analysis, &opts).unwrap();
        let b = minimize_capacities(&tg, &analysis, &opts).unwrap();
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.probes, b.probes);
    }
}
