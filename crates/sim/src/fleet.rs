//! Fleet-scale batch analysis: one shared worker pool executing
//! per-graph jobs over a corpus of [`TaskGraph`]s.
//!
//! The analyses this workspace provides are per-graph — validate one
//! assignment, minimize one graph's capacities, size one SDF baseline.
//! Production traffic is a *corpus*: scenario sweeps, one minimization
//! per graph, VRDF-vs-SDF tables for a whole family of applications.
//! [`run_fleet`] executes a [`FleetJob`] for every [`FleetItem`] of a
//! corpus on the crate's one worker pool — the same pool the scenario
//! battery fans out on:
//!
//! * **Indexed work claiming** — workers claim the next corpus index
//!   from one shared atomic counter, so a slow graph never stalls the
//!   queue behind it; per-graph granularity keeps contention at one
//!   atomic increment per job.
//! * **Merge by index** — every outcome goes back to its corpus index.
//!   Job outcomes depend only on the graph (never on the worker or the
//!   draw order), so [`FleetReport::results`] is bit-identical for every
//!   worker count — the same invariant [`crate::validate_capacities`]
//!   pins for scenario order.  Wall-clock timings
//!   ([`FleetReport::latencies`], [`FleetReport::worker_metrics`]) are
//!   kept *outside* the results so the invariant is a plain `==`.
//! * **Nested-parallelism rule** — the fleet owns the cores.  Inside a
//!   fleet run every scenario battery is collapsed to a single thread
//!   ([`FleetOptions::battery_options`], the oversubscription guard);
//!   per-battery parallelism only makes sense when a single graph has
//!   the machine to itself.
//! * **Per-graph degradation, never fleet abort** — each job runs the
//!   full ladder of [`crate::validate`]: analysis errors and
//!   [`crate::SimError`]s (e.g. `TickOverflow`) become
//!   [`JobOutcome::Failed`], a panicking job is isolated by
//!   `catch_unwind` into [`JobOutcome::Panicked`], and graphs not yet
//!   started when [`FleetOptions::wall_clock`] expires are
//!   [`JobOutcome::Skipped`].  The rest of the corpus always completes.
//!   That wall clock only decides whether a graph runs: a skipped graph
//!   is "not run", never "failed", and no job's verdict reads a clock.
//!
//! Arena reuse follows PR 6's construct/execute split at the job level:
//! each job owns one [`crate::ScenarioRunner`] whose `SimPlan`/`SimState`
//! arenas are reused across all of the job's probes (thousands, for a
//! minimization) — the dominant reuse win.  Plans are index-sized to one
//! graph's shape, so heterogeneous corpora rebuild the plan per graph;
//! that build is a few microseconds against millisecond-scale batteries
//! (perfbench's `sim.plan.us_per_build` on `fleet-validate`).

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use vrdf_core::{compute_buffer_capacities, TaskGraph, ThroughputConstraint};

use crate::pool::{self, Outcome};
use crate::search::{minimize_capacities, EdgeMinimum, SearchOptions};
use crate::validate::{effective_threads, validate_capacities, EngineKind, ValidationOptions};

/// One graph of a fleet corpus: the application, its constraint, and a
/// name for reports.
#[derive(Clone, Debug)]
pub struct FleetItem {
    /// Name shown in per-graph report lines (e.g. `"chain-0"`).
    pub name: String,
    /// The application graph.
    pub graph: TaskGraph,
    /// Its throughput constraint.
    pub constraint: ThroughputConstraint,
}

/// The per-graph job a fleet run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetJob {
    /// Compute the Eq. (4) capacities and replay the scenario battery
    /// against them ([`crate::validate_capacities`]).
    Validate,
    /// Search the per-edge operational minima below Eq. (4)
    /// ([`crate::minimize_capacities`]).
    Minimize,
    /// Compute the VRDF-vs-SDF comparison table: Eq. (4) against the
    /// conservative constant-rate sizing
    /// ([`vrdf_sdf::baseline_capacities`]).
    Baseline,
}

impl fmt::Display for FleetJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FleetJob::Validate => "validate",
            FleetJob::Minimize => "minimize",
            FleetJob::Baseline => "baseline",
        })
    }
}

impl FromStr for FleetJob {
    type Err = String;

    fn from_str(s: &str) -> Result<FleetJob, String> {
        match s {
            "validate" => Ok(FleetJob::Validate),
            "minimize" => Ok(FleetJob::Minimize),
            "baseline" => Ok(FleetJob::Baseline),
            other => Err(format!(
                "unknown fleet job `{other}` (expected validate, minimize, or baseline)"
            )),
        }
    }
}

/// Tunables for [`run_fleet`].
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// The job to run on every graph.
    pub job: FleetJob,
    /// Worker-thread cap for the pool: `0` uses the machine's available
    /// parallelism; the pool never spawns more workers than the corpus
    /// has graphs.  Results are identical for every worker count.
    pub workers: usize,
    /// The scenario battery for battery-backed jobs (`Validate`,
    /// `Minimize`).  Its `threads` field is ignored inside the fleet:
    /// batteries always run single-threaded because the pool owns the
    /// cores (see [`FleetOptions::battery_options`]).
    pub validation: ValidationOptions,
    /// Fleet-level wall-clock budget.  Graphs not yet started when it
    /// expires are recorded as [`JobOutcome::Skipped`]; an in-flight
    /// job is never interrupted.  `None` (the default) runs unbounded.
    pub wall_clock: Option<Duration>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            job: FleetJob::Validate,
            workers: 0,
            validation: ValidationOptions::default(),
            wall_clock: None,
        }
    }
}

impl FleetOptions {
    /// The battery options a fleet job actually runs with: the
    /// configured [`FleetOptions::validation`] with `threads` collapsed
    /// to `1` — the oversubscription guard.  The pool already saturates
    /// the machine with one job per worker; letting every battery fan
    /// out again (the default `threads = 0` means *available
    /// parallelism*) would multiply thread count by scenario count for
    /// zero throughput.
    pub fn battery_options(&self) -> ValidationOptions {
        ValidationOptions {
            threads: 1,
            ..self.validation.clone()
        }
    }
}

/// What a fleet job produced for one graph.  Every variant is a pure
/// function of the graph and the options — never of the worker that ran
/// it — which is what makes [`FleetReport::results`] comparable across
/// worker counts with `==`.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The scenario battery ran to completion.
    Validated {
        /// `true` when every scenario sustained strict periodicity.
        all_clear: bool,
        /// Scenarios replayed.
        scenarios: usize,
        /// Names of the scenarios that failed, in battery order.
        failed: Vec<String>,
        /// `true` when no scenario panicked.
        complete: bool,
        /// Total simulated events across the battery.
        events: u64,
        /// Which engine executed the battery (tick, or the rational
        /// reference after a tick overflow).
        engine: EngineKind,
    },
    /// The minimal-capacity search ran to completion.
    Minimized {
        /// Whether the Eq. (4) baseline itself survived the battery.
        baseline_clear: bool,
        /// Per-edge minima, in the analysis' buffer order.
        edges: Vec<EdgeMinimum>,
        /// Probe simulations spent, baseline included.
        probes: u32,
        /// Total simulated events across every probe.
        events: u64,
    },
    /// The VRDF-vs-SDF table was computed.
    Baselined {
        /// Total Eq. (4) capacity over all edges.
        vrdf_total: u64,
        /// Total conservative constant-rate capacity.
        sdf_total: u64,
        /// Containers the SDF sizing pays over VRDF (the spreads).
        over_provision: u64,
        /// Number of sized edges.
        edges: usize,
    },
    /// The job could not run: analysis or simulator construction failed
    /// (infeasible graph, under-tokened cycle, tick overflow, …).
    Failed {
        /// The error, rendered.
        error: String,
    },
    /// The job's worker panicked; the panic was isolated and the rest
    /// of the corpus still ran.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The fleet wall-clock budget expired before this graph started.
    Skipped,
}

impl JobOutcome {
    /// `true` when the job ran and its verdict is clean: an all-clear
    /// validation, a minimization over a clear baseline, or a computed
    /// baseline table.
    pub fn ok(&self) -> bool {
        match self {
            JobOutcome::Validated {
                all_clear,
                complete,
                ..
            } => *all_clear && *complete,
            JobOutcome::Minimized { baseline_clear, .. } => *baseline_clear,
            JobOutcome::Baselined { .. } => true,
            JobOutcome::Failed { .. } | JobOutcome::Panicked { .. } | JobOutcome::Skipped => false,
        }
    }

    /// Simulated events this job spent (zero for analysis-only jobs).
    pub fn events(&self) -> u64 {
        match self {
            JobOutcome::Validated { events, .. } | JobOutcome::Minimized { events, .. } => *events,
            _ => 0,
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Validated {
                all_clear,
                scenarios,
                failed,
                complete,
                events,
                engine,
            } => {
                if *all_clear {
                    write!(f, "ok ({scenarios} scenarios, {events} events)")?;
                } else {
                    write!(
                        f,
                        "FAILED ({}/{scenarios} scenarios{})",
                        scenarios - failed.len(),
                        if *complete { "" } else { ", incomplete" }
                    )?;
                    if let Some(first) = failed.first() {
                        write!(f, ": {first}")?;
                    }
                }
                if *engine == EngineKind::Reference {
                    write!(f, " [reference engine]")?;
                }
                Ok(())
            }
            JobOutcome::Minimized {
                baseline_clear,
                edges,
                probes,
                ..
            } => {
                if !*baseline_clear {
                    return write!(f, "BASELINE FAILED ({probes} probes)");
                }
                let assigned: u64 = edges.iter().map(|e| e.assigned).sum();
                let minimal: u64 = edges.iter().map(|e| e.minimal).sum();
                write!(
                    f,
                    "minimized {assigned} -> {minimal} (gap {}, {probes} probes)",
                    assigned - minimal,
                )
            }
            JobOutcome::Baselined {
                vrdf_total,
                sdf_total,
                over_provision,
                edges,
            } => write!(
                f,
                "sdf {sdf_total} vs vrdf {vrdf_total} (+{over_provision} over {edges} edges)"
            ),
            JobOutcome::Failed { error } => write!(f, "ERROR: {error}"),
            JobOutcome::Panicked { message } => write!(f, "PANICKED: {message}"),
            JobOutcome::Skipped => f.write_str("skipped (fleet wall clock)"),
        }
    }
}

/// One graph's fleet result: corpus index, name, and outcome — no
/// timing, no worker id, so two runs at different worker counts compare
/// with `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetResult {
    /// Position in the corpus.
    pub index: usize,
    /// The graph's [`FleetItem::name`].
    pub name: String,
    /// What the job produced.
    pub outcome: JobOutcome,
}

/// The headline numbers of a fleet run, computed in one place,
/// [`FleetReport::summary`], which the report header and
/// `vrdf fleet --metrics` both print.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSummary {
    /// Corpus size (completed + skipped).
    pub graphs: usize,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Completed graphs per second of fleet wall time.
    pub graphs_per_sec: f64,
    /// Nearest-rank p95 of the per-graph job latencies; `None` when
    /// nothing completed.
    pub p95_latency: Option<Duration>,
    /// Outcome histogram: jobs that ran and came back clean.
    pub ok: usize,
    /// Jobs that ran but came back dirty (failed validation or
    /// baseline, error, panic).
    pub failed: usize,
    /// Graphs skipped by the fleet wall-clock budget.
    pub skipped: usize,
}

impl fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} graphs on {} workers in {:.3}s — {} ok, {} failed, {} skipped \
             ({:.1} graphs/s, p95 {:.3}ms)",
            self.graphs,
            self.workers,
            self.elapsed.as_secs_f64(),
            self.ok,
            self.failed,
            self.skipped,
            self.graphs_per_sec,
            self.p95_latency.unwrap_or_default().as_secs_f64() * 1e3,
        )
    }
}

/// Telemetry of one worker thread's drain loop: how many jobs it drew
/// off the shared counter, where its wall time went, and what those
/// jobs produced.  The *split* across workers varies run to run (only
/// the merged results are deterministic) — these metrics exist to show
/// the split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Jobs this worker drew from the shared queue.
    pub jobs: usize,
    /// Wall time spent executing jobs.
    pub busy: Duration,
    /// Fleet wall time this worker was not executing a job (drain
    /// startup, queue exhaustion tail).
    pub idle: Duration,
    /// Jobs that came back clean.
    pub ok: usize,
    /// Jobs that ran but came back dirty.
    pub failed: usize,
    /// Wall-clock skips this worker drew.
    pub skipped: usize,
}

/// The merged output of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The job every graph ran.
    pub job: FleetJob,
    /// One result per graph, re-sorted by corpus index after the
    /// sharded merge — bit-identical for every worker count.
    pub results: Vec<FleetResult>,
    /// Per-graph job wall time, parallel to `results` (zero for skipped
    /// graphs).  Kept outside [`FleetResult`] because timings are not
    /// deterministic.
    pub latencies: Vec<Duration>,
    /// Worker threads the pool actually ran.
    pub workers: usize,
    /// Per-worker shard telemetry, one entry per worker; the jobs sum to
    /// the corpus size, but the split varies run to run — only the
    /// merged `results` are pinned.
    pub worker_metrics: Vec<WorkerMetrics>,
    /// Wall time of the whole fleet run.
    pub elapsed: Duration,
}

impl FleetReport {
    /// `true` when every graph's job ran and came back clean.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.outcome.ok())
    }

    /// Graphs skipped by the fleet wall-clock budget.
    pub fn skipped(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome == JobOutcome::Skipped)
            .count()
    }

    /// Graphs whose job ran but did not come back clean (failed
    /// validation, failed baseline, error, or panic).
    pub fn failures(&self) -> impl Iterator<Item = &FleetResult> {
        self.results
            .iter()
            .filter(|r| !r.outcome.ok() && r.outcome != JobOutcome::Skipped)
    }

    /// Total simulated events across every job.
    pub fn events(&self) -> u64 {
        self.results.iter().map(|r| r.outcome.events()).sum()
    }

    /// The headline numbers (throughput, p95 latency, outcome
    /// histogram), computed in one place.
    pub fn summary(&self) -> FleetSummary {
        // Job latencies of the graphs that ran (a wall-clock skip has
        // none), for the throughput and the nearest-rank p95.
        let mut ran: Vec<Duration> = self
            .results
            .iter()
            .zip(&self.latencies)
            .filter(|(r, _)| r.outcome != JobOutcome::Skipped)
            .map(|(_, &d)| d)
            .collect();
        ran.sort_unstable();
        let secs = self.elapsed.as_secs_f64();
        let rank = (0.95 * ran.len() as f64).ceil() as usize;
        FleetSummary {
            graphs: self.results.len(),
            workers: self.workers,
            elapsed: self.elapsed,
            graphs_per_sec: if secs > 0.0 {
                ran.len() as f64 / secs
            } else {
                0.0
            },
            p95_latency: ran.get(rank.saturating_sub(1)).copied(),
            ok: self.results.iter().filter(|r| r.outcome.ok()).count(),
            failed: self.failures().count(),
            skipped: self.skipped(),
        }
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fleet {}: {}", self.job, self.summary())?;
        for r in &self.results {
            writeln!(f, "  {:<14} {}", r.name, r.outcome)?;
        }
        Ok(())
    }
}

/// Runs one job to its outcome.  Every error is folded into the outcome,
/// and the pool turns a panic into [`JobOutcome::Panicked`], so the fleet
/// never aborts on one graph.
fn execute_job(item: &FleetItem, opts: &FleetOptions, battery: &ValidationOptions) -> JobOutcome {
    let analysis = match compute_buffer_capacities(&item.graph, item.constraint) {
        Ok(analysis) => analysis,
        Err(e) => {
            return JobOutcome::Failed {
                error: e.to_string(),
            }
        }
    };
    match opts.job {
        FleetJob::Validate => match validate_capacities(&item.graph, &analysis, battery) {
            Ok(report) => JobOutcome::Validated {
                all_clear: report.all_clear(),
                scenarios: report.scenarios.len(),
                failed: report.failures().map(|s| s.name.clone()).collect(),
                complete: report.complete(),
                events: report.events(),
                engine: report.engine,
            },
            Err(e) => JobOutcome::Failed {
                error: e.to_string(),
            },
        },
        FleetJob::Minimize => {
            let search = SearchOptions {
                validation: battery.clone(),
                ..SearchOptions::default()
            };
            match minimize_capacities(&item.graph, &analysis, &search) {
                Ok(report) => JobOutcome::Minimized {
                    baseline_clear: report.baseline_clear,
                    probes: report.probes,
                    events: report.events,
                    edges: report.edges,
                },
                Err(e) => JobOutcome::Failed {
                    error: e.to_string(),
                },
            }
        }
        FleetJob::Baseline => match vrdf_sdf::baseline_capacities(&item.graph, item.constraint) {
            Ok(baseline) => JobOutcome::Baselined {
                vrdf_total: analysis.total_capacity(),
                sdf_total: baseline.total_capacity(),
                over_provision: baseline.total_over_provision(),
                edges: baseline.edges().len(),
            },
            Err(e) => JobOutcome::Failed {
                error: e.to_string(),
            },
        },
    }
}

/// Executes [`FleetOptions::job`] for every graph of the corpus over a
/// shared worker pool and merges the per-worker shards back into corpus
/// order.
///
/// The merged [`FleetReport::results`] are bit-identical for every
/// [`FleetOptions::workers`] value (including `0` = auto): outcomes
/// depend only on each graph and the options, scheduling only decides
/// which worker computes them.  Per-graph errors, panics, and
/// wall-clock skips are recorded in the affected graph's outcome — a
/// fleet run never aborts because one graph misbehaved.
pub fn run_fleet(corpus: &[FleetItem], opts: &FleetOptions) -> FleetReport {
    let started = Instant::now();
    let deadline = opts.wall_clock.map(|budget| started + budget);
    let workers = effective_threads(opts.workers, corpus.len());
    let battery = opts.battery_options();
    let slots = pool::run(
        &mut vec![(); workers],
        corpus.len(),
        deadline,
        None,
        |_, i| execute_job(&corpus[i], opts, &battery),
    );

    let mut worker_metrics = vec![WorkerMetrics::default(); workers];
    let mut results = Vec::with_capacity(slots.len());
    let mut latencies = Vec::with_capacity(slots.len());
    for (index, slot) in slots.into_iter().enumerate() {
        let outcome = match slot.outcome {
            Outcome::Done(outcome) => outcome,
            Outcome::Panicked(message) => JobOutcome::Panicked { message },
            // A fleet run is never fail-fast, so nothing is cancelled.
            Outcome::Skipped | Outcome::Cancelled => JobOutcome::Skipped,
        };
        if let Some(m) = slot.worker.map(|w| &mut worker_metrics[w]) {
            m.jobs += 1;
            m.busy += slot.wall;
            if outcome.ok() {
                m.ok += 1;
            } else if outcome == JobOutcome::Skipped {
                m.skipped += 1;
            } else {
                m.failed += 1;
            }
        }
        results.push(FleetResult {
            index,
            name: corpus[index].name.clone(),
            outcome,
        });
        latencies.push(slot.wall);
    }
    let elapsed = started.elapsed();
    for metrics in &mut worker_metrics {
        metrics.idle = elapsed.saturating_sub(metrics.busy);
    }
    FleetReport {
        job: opts.job,
        results,
        latencies,
        workers,
        worker_metrics,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{rat, QuantumSet};

    fn pair_item(name: &str, consumption: QuantumSet) -> FleetItem {
        let graph = TaskGraph::linear_chain(
            [("wa", rat(1, 1)), ("wb", rat(1, 1))],
            [("b", QuantumSet::constant(3), consumption)],
        )
        .unwrap();
        FleetItem {
            name: name.to_owned(),
            graph,
            constraint: ThroughputConstraint::on_sink(rat(3, 1)).unwrap(),
        }
    }

    fn quick_options(job: FleetJob) -> FleetOptions {
        FleetOptions {
            job,
            validation: ValidationOptions {
                endpoint_firings: 200,
                random_runs: 2,
                ..ValidationOptions::default()
            },
            ..FleetOptions::default()
        }
    }

    #[test]
    fn oversubscription_guard_collapses_battery_threads() {
        // Whatever the caller configures — including the default 0,
        // which means "available parallelism" — fleet batteries run
        // single-threaded: the pool owns the cores.
        for threads in [0, 1, 8, 64] {
            let opts = FleetOptions {
                validation: ValidationOptions {
                    threads,
                    ..ValidationOptions::default()
                },
                ..FleetOptions::default()
            };
            assert_eq!(opts.battery_options().threads, 1);
        }
    }

    #[test]
    fn empty_corpus_yields_an_empty_report() {
        let report = run_fleet(&[], &quick_options(FleetJob::Validate));
        assert!(report.results.is_empty());
        assert!(report.all_ok());
        let summary = report.summary();
        assert_eq!(summary.graphs - summary.skipped, 0);
        assert_eq!(summary.graphs_per_sec, 0.0);
        assert_eq!(summary.p95_latency, None);
    }

    #[test]
    fn job_names_round_trip() {
        for job in [FleetJob::Validate, FleetJob::Minimize, FleetJob::Baseline] {
            assert_eq!(job.to_string().parse::<FleetJob>().unwrap(), job);
        }
        assert!("nope".parse::<FleetJob>().is_err());
    }

    #[test]
    fn validate_job_reports_clean_and_failing_graphs() {
        let corpus = vec![
            pair_item("ok", QuantumSet::new([2, 3]).unwrap()),
            pair_item("also-ok", QuantumSet::constant(3)),
        ];
        let report = run_fleet(&corpus, &quick_options(FleetJob::Validate));
        assert!(report.all_ok(), "{report}");
        let summary = report.summary();
        assert_eq!(summary.graphs - summary.skipped, 2);
        assert!(report.events() > 0);
        assert!(summary.p95_latency.is_some());
        assert!(report.to_string().contains("fleet validate"));
        // The summary is the report's own arithmetic — completed graphs
        // over the wall time, the nearest-rank p95 of two latencies is
        // the slower one — and the Display header renders it verbatim.
        assert_eq!(summary.graphs, 2);
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.graphs_per_sec, 2.0 / report.elapsed.as_secs_f64());
        assert_eq!(summary.p95_latency, report.latencies.iter().max().copied());
        assert!(report.to_string().contains(&summary.to_string()));
        // Worker metrics cover the whole corpus: every graph is one job
        // of one worker.
        assert_eq!(
            report.worker_metrics.iter().map(|m| m.jobs).sum::<usize>(),
            2
        );
        assert_eq!(report.worker_metrics.iter().map(|m| m.ok).sum::<usize>(), 2);
        for m in &report.worker_metrics {
            assert!(m.busy + m.idle <= report.elapsed + report.elapsed);
        }
    }

    #[test]
    fn zero_wall_clock_skips_every_graph() {
        let corpus = vec![
            pair_item("a", QuantumSet::constant(3)),
            pair_item("b", QuantumSet::constant(3)),
        ];
        let opts = FleetOptions {
            wall_clock: Some(Duration::ZERO),
            ..quick_options(FleetJob::Validate)
        };
        let report = run_fleet(&corpus, &opts);
        assert_eq!(report.skipped(), 2);
        let summary = report.summary();
        assert_eq!(summary.graphs - summary.skipped, 0);
        assert!(!report.all_ok());
        assert_eq!(report.failures().count(), 0, "skips are not failures");
        assert!(report.to_string().contains("skipped (fleet wall clock)"));
        assert_eq!(summary.skipped, 2);
        assert_eq!(summary.ok + summary.failed, 0);
        assert_eq!(
            report
                .worker_metrics
                .iter()
                .map(|m| m.skipped)
                .sum::<usize>(),
            2
        );
    }

    #[test]
    fn baseline_job_carries_the_identity_totals() {
        let corpus = vec![pair_item("pair", QuantumSet::new([2, 3]).unwrap())];
        let report = run_fleet(&corpus, &quick_options(FleetJob::Baseline));
        assert!(report.all_ok(), "{report}");
        match &report.results[0].outcome {
            JobOutcome::Baselined {
                vrdf_total,
                sdf_total,
                over_provision,
                edges,
            } => {
                assert_eq!(*edges, 1);
                assert_eq!(sdf_total - vrdf_total, *over_provision);
                assert!(*over_provision > 0, "the pair's consumption varies");
            }
            other => panic!("expected a baseline outcome, got {other}"),
        }
    }
}
