//! The three workloads.  Before every pass, each builds its inputs from
//! the seed (the timed set-up), then runs the pass over them through
//! the public APIs of `vrdf-sim` and `vrdf-sdf`.  A pass checks every
//! answer and returns its exact work counts; a traced pass also records
//! spans around every layer call and fills the per-layer values.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vrdf_apps::{case_study, fleet_corpus, CASE_STUDY_NAMES};
use vrdf_core::{
    compute_buffer_capacities, GraphAnalysis, Rational, TaskGraph, ThroughputConstraint,
};
use vrdf_sdf::{
    analyze, minimize_sdf_capacities, steady_state, ChannelId, CsdfGraph, ExecOptions, ExecOutcome,
    SdfMinimizationReport, SdfSearchOptions,
};
use vrdf_sim::{
    conservative_offset, minimize_capacities, run_fleet, EngineCounters, FleetItem, FleetJob,
    FleetOptions, FleetReport, Histogram, JobOutcome, MinimizationReport, PhaseTimes,
    ScenarioRunner, SearchOptions, ValidationOptions,
};

use crate::host::{median, ms, percentile};
use crate::trace::{SpanId, Tracer, OP};

/// The workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["minimize-cases", "fleet-validate", "sdf-minimize"];

/// The seed whose answers are pinned exactly.
pub const DEFAULT_SEED: u64 = 1;

/// Graphs per fleet batch (the `fleet` CLI default).
const FLEET_BATCH: usize = 64;

/// How long set-up is repeated before each pass.  The host's speed
/// drifts by a fifth from one second to the next, so set-up is sampled
/// before every pass of the run rather than only before the first.
const SETUP_WALL: Duration = Duration::from_millis(100);

/// Most set-up samples per pass, each the mean of one batch of builds.
const SETUP_SAMPLES: u128 = 100;

/// Exact work counts of one pass, by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// The latency of every op in the pass.
    pub op_latencies: Vec<Duration>,
    /// Wall time of the pass's ops, excluding checks and traced replays.
    pub op_wall: Duration,
    /// One entry per op whose answer failed its check.
    pub failures: Vec<String>,
    /// Work counts that must repeat exactly, traced or not.
    pub counts: Counts,
    /// Traced only: per-layer counts that must repeat exactly.
    pub layer_counts: Counts,
    /// Per-layer times and ratios, read from traced passes only
    /// (medians across passes are reported).
    pub layer_values: BTreeMap<&'static str, f64>,
    /// Traced only: per-layer counts worked out from other counts
    /// because the program does not expose them, labelled as such.
    pub derived: Vec<&'static str>,
}

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Runs one pass; with an enabled tracer, records spans, requests
    /// the program's telemetry and fills the per-layer values.
    fn pass(&self, tracer: &mut Tracer) -> Pass;
}

/// Builds a workload's inputs repeatedly (for [`SETUP_WALL`] when
/// untraced) and returns the workload with the set-up samples.
pub fn build(
    name: &str,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Box<dyn Workload>, Vec<Duration>), String> {
    // A traced run reports no `setup_s`, and a long window there would
    // only fill the trace with set-up spans.
    let wall = if tracer.is_enabled() {
        Duration::ZERO
    } else {
        SETUP_WALL
    };
    Ok(match name {
        "minimize-cases" => {
            let (cases, times) = time_setups(wall, minimize_inputs)?;
            (Box::new(MinimizeCases::new(cases, seed)?), times)
        }
        "fleet-validate" => {
            let (corpora, times) = time_setups(wall, || fleet_inputs(seed))?;
            (Box::new(FleetValidate::new(corpora, seed)), times)
        }
        "sdf-minimize" => {
            let (cases, times) = time_setups(wall, || sdf_inputs(tracer))?;
            (Box::new(SdfMinimize { cases }), times)
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Builds the inputs for about `wall` (at least twice), in up to
/// [`SETUP_SAMPLES`] batches of equal size, and returns the last inputs
/// with every batch's mean build time.  The builds of the first
/// hundredth of `wall` warm up and size the batches.  No build runs
/// while an earlier copy of the inputs is still held.
fn time_setups<T>(
    wall: Duration,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Duration>), String> {
    let begin = Instant::now();
    let mut inputs = make()?;
    let mut warm = 1u32;
    while begin.elapsed() < wall / 100 {
        drop(inputs);
        inputs = make()?;
        warm += 1;
    }
    let per_build = (begin.elapsed() / warm).as_nanos().max(1);
    let builds = (wall.as_nanos() / per_build).max(1);
    let samples = builds.min(SETUP_SAMPLES);
    let batch = u32::try_from(builds / samples).unwrap_or(u32::MAX);
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            drop(inputs);
            inputs = make()?;
        }
        times.push(t.elapsed() / batch);
    }
    Ok((inputs, times))
}

/// Times `f` under a span named `layer`.
fn timed<T>(
    tracer: &mut Tracer,
    layer: &'static str,
    label: &str,
    f: impl FnOnce() -> T,
) -> (T, Duration, SpanId) {
    let span = tracer.begin(layer, label);
    let begin = Instant::now();
    let out = f();
    let took = begin.elapsed();
    tracer.end(span);
    (out, took, span)
}

/// Records the engine layers a battery ran inside a span: plan build,
/// the engine (reset plus event loop) and the battery merge.
fn derive_battery(tracer: &mut Tracer, span: SpanId, phases: &PhaseTimes, plan: bool) {
    if plan {
        tracer.derived(span, "sim.plan", phases.plan_build);
    }
    tracer.derived(span, "sim.engine", phases.reset + phases.run);
    tracer.derived(span, "sim.validate", phases.merge);
}

/// Fills the `sim.engine.*` per-layer values from telemetry.
fn engine_layers(pass: &mut Pass, counters: &EngineCounters, phases: &PhaseTimes) {
    let c = &mut pass.layer_counts;
    c.insert("sim.engine.firings", counters.firings_started);
    c.insert("sim.engine.settling_passes", counters.settling_passes);
    c.insert("sim.engine.wheel_pushes", counters.wheel_pushes);
    c.insert("sim.engine.overflow_pushes", counters.overflow_pushes);
    c.insert("sim.engine.policy_dispatches", counters.policy_dispatches);
    let v = &mut pass.layer_values;
    v.insert("sim.engine.run_ms", ms(phases.run));
    v.insert("sim.engine.reset_ms", ms(phases.reset));
    v.insert("sim.validate.merge_ms", ms(phases.merge));
    v.insert(
        "sim.engine.ns_per_event",
        per(phases.run.as_nanos() as f64, counters.events_popped),
    );
}

/// `x / n`, or `0` when `n` is zero.
fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// The battery seed of a workload seed: the `minimize` CLI's seed at
/// [`DEFAULT_SEED`], and disjoint random-scenario streams elsewhere.
fn battery_seed(seed: u64) -> u64 {
    ValidationOptions::default()
        .base_seed
        .wrapping_add(seed.wrapping_sub(DEFAULT_SEED).wrapping_mul(0x100))
}

// ---------------------------------------------------------------------
// minimize-cases

/// One case study, analysed.
pub struct Case {
    name: &'static str,
    graph: TaskGraph,
    analysis: GraphAnalysis,
}

fn minimize_inputs() -> Result<Vec<Case>, String> {
    CASE_STUDY_NAMES
        .iter()
        .map(|&name| {
            let study = case_study(name).ok_or_else(|| format!("unknown case `{name}`"))?;
            let analysis = compute_buffer_capacities(&study.graph, study.constraint)
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Case {
                name: study.name,
                graph: study.graph,
                analysis,
            })
        })
        .collect()
}

/// What a search must answer at [`DEFAULT_SEED`].
struct SearchPin {
    case: &'static str,
    assigned: u64,
    minimal: u64,
    probes: u32,
    edge: Option<(&'static str, u64)>,
    symmetric: &'static [(&'static str, &'static str)],
}

const SEARCH_PINS: [SearchPin; 3] = [
    SearchPin {
        case: "mp3",
        assigned: 10160,
        minimal: 9777,
        probes: 35,
        edge: Some(("d3", 881)),
        symmetric: &[],
    },
    SearchPin {
        case: "fork-join",
        assigned: 15758,
        minimal: 14523,
        probes: 59,
        edge: None,
        symmetric: &[("dL", "dR"), ("mL", "mR")],
    },
    SearchPin {
        case: "mp3-feedback",
        assigned: 10321,
        minimal: 9905,
        probes: 42,
        edge: Some(("fb", 128)),
        symmetric: &[],
    },
];

/// Checks one search answer: the invariants at every seed, and the
/// pinned values at [`DEFAULT_SEED`].  Returns the problems found.
pub fn check_search(
    case: &str,
    analysis: &GraphAnalysis,
    r: &MinimizationReport,
    pinned: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    if !r.baseline_clear {
        bad.push("the Eq. (4) baseline failed the battery".to_owned());
    }
    if !r.complete {
        bad.push("the search is incomplete".to_owned());
    }
    if r.occupancy_breaches > 0 || r.scenarios_skipped > 0 {
        bad.push(format!(
            "battery health: {} occupancy breaches, {} skipped scenarios",
            r.occupancy_breaches, r.scenarios_skipped
        ));
    }
    if r.edges.len() != analysis.capacities().len() {
        bad.push("the report does not cover every edge".to_owned());
    }
    for (e, c) in r.edges.iter().zip(analysis.capacities()) {
        if e.assigned != c.capacity || e.minimal < e.floor || e.minimal > e.assigned {
            bad.push(format!(
                "{}: minimum {} outside [floor {}, Eq. (4) {}] (assigned {})",
                e.name, e.minimal, e.floor, c.capacity, e.assigned
            ));
        }
    }
    let minimal_of = |name: &str| r.edges.iter().find(|e| e.name == name).map(|e| e.minimal);
    if pinned {
        match SEARCH_PINS.iter().find(|p| p.case == case) {
            Some(pin) => {
                let got = (r.total_assigned(), r.total_minimal(), r.probes);
                if got != (pin.assigned, pin.minimal, pin.probes) {
                    bad.push(format!(
                        "{} -> {} in {} probes, pinned {} -> {} in {}",
                        got.0, got.1, got.2, pin.assigned, pin.minimal, pin.probes
                    ));
                }
                if let Some((edge, want)) = pin.edge {
                    if minimal_of(edge) != Some(want) {
                        bad.push(format!("{edge} = {:?}, pinned {want}", minimal_of(edge)));
                    }
                }
                for (a, b) in pin.symmetric {
                    if minimal_of(a).is_none() || minimal_of(a) != minimal_of(b) {
                        bad.push(format!("{a} and {b} minima differ"));
                    }
                }
            }
            None => bad.push("no pinned answer for this case".to_owned()),
        }
    }
    bad.into_iter().map(|b| format!("{case}: {b}")).collect()
}

struct MinimizeCases {
    cases: Vec<Case>,
    opts: SearchOptions,
    /// Scenarios per battery, per case.
    battery: Vec<u64>,
    pinned: bool,
}

impl MinimizeCases {
    fn new(cases: Vec<Case>, seed: u64) -> Result<MinimizeCases, String> {
        // The `minimize` CLI defaults, with one battery thread: two busy
        // battery threads on a 2-vCPU guest measure the host, not the
        // program.
        let mut opts = SearchOptions::default();
        opts.validation.endpoint_firings = 30_000;
        opts.validation.threads = 1;
        opts.validation.base_seed = battery_seed(seed);
        let battery = cases
            .iter()
            .map(|c| {
                let runner = ScenarioRunner::new(
                    &c.graph,
                    c.analysis.constraint(),
                    Rational::ZERO,
                    c.analysis.options().release,
                    &opts.validation,
                )
                .map_err(|e| format!("{}: {e}", c.name))?;
                Ok(runner.scenario_count() as u64)
            })
            .collect::<Result<_, String>>()?;
        Ok(MinimizeCases {
            cases,
            opts,
            battery,
            pinned: seed == DEFAULT_SEED,
        })
    }
}

impl Workload for MinimizeCases {
    fn pass(&self, tracer: &mut Tracer) -> Pass {
        let mut opts = self.opts.clone();
        opts.validation.telemetry = tracer.is_enabled();
        let op = tracer.begin(OP, "");
        let begin = Instant::now();
        let mut runs = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            let (report, took, span) = timed(tracer, "sim.search", case.name, || {
                minimize_capacities(&case.graph, &case.analysis, &opts)
            });
            if let Some(m) = report.as_ref().ok().and_then(|r| r.metrics.as_ref()) {
                derive_battery(tracer, span, &m.phases, true);
            }
            runs.push((report, took));
        }
        let mut pass = Pass {
            op_wall: begin.elapsed(),
            ..Pass::default()
        };
        tracer.end(op);
        pass.op_latencies.push(pass.op_wall);

        let mut problems = Vec::new();
        let mut counters = EngineCounters::default();
        let mut phases = PhaseTimes::default();
        let mut probe_latency = Histogram::new();
        let (mut events, mut probes, mut passed, mut scenarios, mut self_time) =
            (0, 0, 0, 0, Duration::ZERO);
        for ((case, (report, took)), battery) in self.cases.iter().zip(&runs).zip(&self.battery) {
            let r = match report {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{}: {e}", case.name));
                    continue;
                }
            };
            problems.extend(check_search(case.name, &case.analysis, r, self.pinned));
            events += r.events;
            probes += u64::from(r.probes);
            passed += u64::from(r.probes_passed);
            // The search hides its batteries; with no scenario skipped
            // (checked above), every battery ran all of its scenarios.
            scenarios += u64::from(r.probes) * battery;
            pass.layer_values
                .insert(search_case_metric(case.name), ms(*took));
            if let Some(m) = &r.metrics {
                counters.merge(&m.counters);
                phases.merge_from(&m.phases);
                probe_latency.merge(&m.probe_latency);
                if m.counters.events_popped != r.events {
                    problems.push(format!(
                        "{}: telemetry counted {} events, the report {}",
                        case.name, m.counters.events_popped, r.events
                    ));
                }
                let p = &m.phases;
                self_time += took.saturating_sub(p.plan_build + p.reset + p.run + p.merge);
            }
        }
        if !problems.is_empty() {
            pass.failures.push(problems.join("; "));
        }
        pass.counts.insert("sim.engine.events", events);
        pass.counts.insert("sim.search.probes", probes);
        if tracer.is_enabled() {
            engine_layers(&mut pass, &counters, &phases);
            let builds = self.cases.len() as u64;
            let c = &mut pass.layer_counts;
            c.insert("sim.plan.builds", builds);
            c.insert("sim.validate.batteries", probes);
            c.insert("sim.validate.scenarios_run", scenarios);
            // A failing battery has at least one failing scenario; which
            // ones is not visible from outside the search.
            c.insert("sim.validate.scenarios_failed", probes - passed);
            c.insert("sim.search.probes_passed", passed);
            pass.derived = vec![
                "sim.plan.builds",
                "sim.validate.batteries",
                "sim.validate.scenarios_run",
                "sim.validate.scenarios_failed",
            ];
            let v = &mut pass.layer_values;
            v.insert(
                "sim.plan.us_per_build",
                per(phases.plan_build.as_secs_f64() * 1e6, builds),
            );
            v.insert(
                "sim.validate.events_per_battery",
                per(events as f64, probes),
            );
            v.insert("sim.search.pass_ratio", per(passed as f64, probes));
            v.insert(
                "sim.search.probe_p50_ms",
                probe_latency.percentile(50.0).map_or(0.0, ms),
            );
            v.insert(
                "sim.search.probe_p95_ms",
                probe_latency.p95().map_or(0.0, ms),
            );
            v.insert("sim.search.self_ms", ms(self_time));
        }
        pass
    }
}

fn search_case_metric(case: &str) -> &'static str {
    match case {
        "mp3" => "sim.search.mp3_ms",
        "fork-join" => "sim.search.fork-join_ms",
        _ => "sim.search.mp3-feedback_ms",
    }
}

// ---------------------------------------------------------------------
// fleet-validate

/// Batch event total of `fleet_corpus(DEFAULT_SEED, 64)` under the
/// fleet CLI's battery.
const FLEET_PINNED_EVENTS: u64 = 13_231_965;

/// Batches of [`FLEET_BATCH`] graphs per pass.  Per-graph work is
/// heavy-tailed (one straggler can carry half a batch's events), so a
/// pass spans many batches to keep one seed's figures comparable with
/// another's.
const FLEET_BATCHES: usize = 16;

/// The fleet inputs: batch `k` is `fleet_corpus(seed + 64 k, 64)`, the
/// `k`-th 64-graph slice of `fleet_corpus(seed, 64 * FLEET_BATCHES)`.
fn fleet_inputs(seed: u64) -> Result<Vec<Vec<FleetItem>>, String> {
    (0..FLEET_BATCHES)
        .map(|k| {
            fleet_corpus(seed.wrapping_add((k * FLEET_BATCH) as u64), FLEET_BATCH)
                .map_err(|e| format!("corpus {k}: {e}"))
        })
        .collect()
}

struct FleetValidate {
    corpora: Vec<Vec<FleetItem>>,
    opts: FleetOptions,
    pinned: bool,
}

impl FleetValidate {
    fn new(corpora: Vec<Vec<FleetItem>>, seed: u64) -> FleetValidate {
        // The `fleet` CLI defaults (2 000 firings, 2 random runs,
        // single-threaded batteries) on two workers.
        let mut opts = FleetOptions {
            job: FleetJob::Validate,
            workers: 2,
            ..FleetOptions::default()
        };
        opts.validation.endpoint_firings = 2_000;
        opts.validation.random_runs = 2;
        FleetValidate {
            corpora,
            opts,
            pinned: seed == DEFAULT_SEED,
        }
    }

    /// Replays every graph of one batch sequentially through the calls
    /// `validate_capacities` makes, with a span around each, and checks
    /// that the replay reproduces the fleet's outcome for each graph.
    fn replay(
        &self,
        tracer: &mut Tracer,
        corpus: &[FleetItem],
        fleet: &FleetReport,
        pass: &mut Pass,
    ) {
        let battery = self.opts.battery_options();
        let mut battery_t = battery.clone();
        battery_t.telemetry = true;
        let (mut analysis_time, mut plan_time) = (Duration::ZERO, Duration::ZERO);
        let mut counters = EngineCounters::default();
        let mut phases = PhaseTimes::default();
        let mut scenarios = 0u64;
        for (item, result) in corpus.iter().zip(&fleet.results) {
            let op = tracer.begin(OP, &item.name);
            let outcome = (|| -> Result<(u64, usize), String> {
                let (analysis, took, _) = timed(tracer, "core.analysis", &item.name, || {
                    compute_buffer_capacities(&item.graph, item.constraint)
                });
                analysis_time += took;
                let analysis = analysis.map_err(|e| e.to_string())?;
                let (prepared, _, _) = timed(tracer, "sim.validate", &item.name, || {
                    let mut sized = item.graph.clone();
                    analysis.apply(&mut sized);
                    let offset = conservative_offset(&item.graph, &analysis)
                        .map(|o| o.checked_add(battery.extra_offset));
                    (sized, offset)
                });
                let (sized, offset) = prepared;
                let offset = offset
                    .map_err(|e| e.to_string())?
                    .ok_or("offset overflow")?;
                let (runner, took, _) = timed(tracer, "sim.plan", &item.name, || {
                    ScenarioRunner::new(
                        &sized,
                        analysis.constraint(),
                        offset,
                        analysis.options().release,
                        &battery_t,
                    )
                });
                plan_time += took;
                let mut runner = runner.map_err(|e| e.to_string())?;
                let (report, _, span) =
                    timed(tracer, "sim.validate", &item.name, || runner.validate(&[]));
                let report = report.map_err(|e| e.to_string())?;
                if let Some(m) = &report.metrics {
                    derive_battery(tracer, span, &m.phases, false);
                    counters.merge(&m.counters);
                    phases.merge_from(&m.phases);
                }
                if !report.all_clear() {
                    return Err("the replayed battery is not clear".into());
                }
                Ok((report.events(), report.scenarios.len()))
            })();
            tracer.end(op);
            match outcome {
                Ok((events, ran)) if events == result.outcome.events() => {
                    scenarios += ran as u64;
                }
                Ok((events, ..)) => pass.failures.push(format!(
                    "{}: replay ran {events} events, the fleet {}",
                    item.name,
                    result.outcome.events()
                )),
                Err(e) => pass.failures.push(format!("{}: replay: {e}", item.name)),
            }
        }
        let n = corpus.len() as u64;
        if counters.events_popped != fleet.events() {
            pass.failures.push(format!(
                "replay counted {} events, the fleet {}",
                counters.events_popped,
                fleet.events()
            ));
        }
        if scenarios != scenarios_of(fleet) {
            pass.failures.push(format!(
                "replay ran {scenarios} scenarios, the fleet {}",
                scenarios_of(fleet)
            ));
        }
        engine_layers(pass, &counters, &phases);
        let c = &mut pass.layer_counts;
        c.insert("sim.engine.events", counters.events_popped);
        c.insert("core.analysis.calls", n);
        c.insert("sim.plan.builds", n);
        let v = &mut pass.layer_values;
        v.insert(
            "core.analysis.us_per_call",
            per(analysis_time.as_secs_f64() * 1e6, n),
        );
        v.insert(
            "sim.plan.us_per_build",
            per(plan_time.as_secs_f64() * 1e6, n),
        );
    }
}

/// Scenarios the fleet's batteries ran.
fn scenarios_of(report: &FleetReport) -> u64 {
    batteries_of(report).map(|(ran, _)| ran).sum()
}

/// Scenarios run and failed by each battery the fleet ran.
fn batteries_of(report: &FleetReport) -> impl Iterator<Item = (u64, u64)> + '_ {
    report.results.iter().filter_map(|r| match &r.outcome {
        JobOutcome::Validated {
            scenarios, failed, ..
        } => Some((*scenarios as u64, failed.len() as u64)),
        _ => None,
    })
}

impl Workload for FleetValidate {
    fn pass(&self, tracer: &mut Tracer) -> Pass {
        let mut opts = self.opts.clone();
        opts.validation.telemetry = tracer.is_enabled();
        let mut pass = Pass::default();
        let mut reports = Vec::with_capacity(self.corpora.len());
        for (k, corpus) in self.corpora.iter().enumerate() {
            let (report, _, _) = timed(tracer, "sim.fleet", "", || run_fleet(corpus, &opts));
            pass.op_latencies.extend(&report.latencies);
            pass.op_wall += report.elapsed;
            for r in &report.results {
                if !r.outcome.ok() {
                    pass.failures.push(format!("{}: {:?}", r.name, r.outcome));
                }
            }
            if report.results.len() != corpus.len() {
                pass.failures
                    .push(format!("batch {k}: the fleet dropped graphs"));
            }
            if k == 0 && self.pinned && report.events() != FLEET_PINNED_EVENTS {
                pass.failures.push(format!(
                    "batch 0 ran {} events, pinned {FLEET_PINNED_EVENTS}",
                    report.events()
                ));
            }
            reports.push(report);
        }
        let events: u64 = reports.iter().map(FleetReport::events).sum();
        pass.counts.insert("sim.fleet.events", events);
        pass.counts.insert(
            "sim.validate.scenarios_run",
            reports.iter().map(scenarios_of).sum(),
        );
        if tracer.is_enabled() {
            let (mut busy, mut idle) = (0.0, 0.0);
            let (mut imbalance, mut straggler) = (Vec::new(), Vec::new());
            for report in &reports {
                let workers: Vec<f64> = report.worker_metrics.iter().map(|w| ms(w.busy)).collect();
                let batch_busy: f64 = workers.iter().sum();
                busy += batch_busy;
                idle += report
                    .worker_metrics
                    .iter()
                    .map(|w| ms(w.idle))
                    .sum::<f64>();
                let mean = batch_busy / workers.len().max(1) as f64;
                imbalance.push(
                    workers.iter().copied().fold(0.0, f64::max) / mean.max(f64::MIN_POSITIVE),
                );
                straggler.push(report.latencies.iter().copied().map(ms).fold(0.0, f64::max));
            }
            let latencies: Vec<f64> = pass.op_latencies.iter().copied().map(ms).collect();
            let batteries = reports.iter().flat_map(batteries_of).count() as u64;
            let failed = reports.iter().flat_map(batteries_of).map(|(_, f)| f).sum();
            let c = &mut pass.layer_counts;
            c.insert("sim.fleet.jobs", latencies.len() as u64);
            c.insert("sim.validate.batteries", batteries);
            c.insert("sim.validate.scenarios_failed", failed);
            let v = &mut pass.layer_values;
            v.insert(
                "sim.validate.events_per_battery",
                per(events as f64, batteries),
            );
            v.insert("sim.fleet.busy_ms", busy / reports.len().max(1) as f64);
            v.insert(
                "sim.fleet.idle_share",
                idle / (idle + busy).max(f64::MIN_POSITIVE),
            );
            v.insert("sim.fleet.imbalance", median(&imbalance).unwrap_or(0.0));
            v.insert("sim.fleet.straggler_ms", median(&straggler).unwrap_or(0.0));
            v.insert(
                "sim.fleet.job_p95_ms",
                percentile(&latencies, 95.0).unwrap_or(0.0),
            );
            self.replay(tracer, &self.corpora[0], &reports[0], &mut pass);
        }
        pass
    }
}

// ---------------------------------------------------------------------
// sdf-minimize

/// One constant-max lowering, sized by the CSDF analysis.
pub struct SdfCase {
    name: &'static str,
    lowered: CsdfGraph,
    constraint: ThroughputConstraint,
}

/// The SDF cases: the `baseline --minimize` inputs.
const SDF_CASES: [&str; 2] = ["mp3", "fork-join"];

fn sdf_inputs(tracer: &mut Tracer) -> Result<Vec<SdfCase>, String> {
    SDF_CASES
        .iter()
        .map(|&name| {
            let study = case_study(name).ok_or_else(|| format!("unknown case `{name}`"))?;
            let (lowered, _, _) = timed(tracer, "sdf.csdf", name, || {
                let mut lowered = CsdfGraph::lower_constant_max(&study.graph);
                analyze(&lowered, study.constraint).map(|a| {
                    a.apply(&mut lowered);
                    lowered
                })
            });
            Ok(SdfCase {
                name: study.name,
                lowered: lowered.map_err(|e| format!("{name}: {e}"))?,
                constraint: study.constraint,
            })
        })
        .collect()
}

/// Checks one SDF search answer.  The search has no random input, so
/// its pinned values hold at every seed.
pub fn check_sdf(case: &str, lowered: &CsdfGraph, r: &SdfMinimizationReport) -> Vec<String> {
    let mut bad = Vec::new();
    if !r.baseline_clear {
        bad.push("the analysed assignment fails its steady-state check".to_owned());
    }
    for c in &r.channels {
        if lowered.channel(c.channel).capacity() != Some(c.assigned)
            || c.minimal < c.floor
            || c.minimal > c.assigned
        {
            bad.push(format!(
                "{}: minimum {} outside [floor {}, assigned {}]",
                c.name, c.minimal, c.floor, c.assigned
            ));
        }
    }
    let minima: Vec<u64> = r.channels.iter().map(|c| c.minimal).collect();
    let got = (r.total_assigned(), r.total_minimal(), r.probes);
    let pinned_ok = match case {
        "mp3" => minima == [5888, 3072, 881] && r.probes == 38,
        "fork-join" => got == (15758, 14281, 65),
        _ => false,
    };
    if !pinned_ok {
        bad.push(format!(
            "{} -> {} in {} probes (minima {minima:?}) differs from the pinned answer",
            got.0, got.1, got.2
        ));
    }
    bad.into_iter().map(|b| format!("{case}: {b}")).collect()
}

struct SdfMinimize {
    cases: Vec<SdfCase>,
}

impl SdfMinimize {
    /// Times the executor on the kinds of probe the search makes — the
    /// analysed assignment, the reported minima, and the minima with one
    /// channel one below its minimum — and checks their verdicts.
    fn exec_probes(&self, tracer: &mut Tracer, reports: &[SdfMinimizationReport], pass: &mut Pass) {
        let exec = ExecOptions {
            telemetry: true,
            ..ExecOptions::default()
        };
        let (mut calls, mut events, mut boundaries, mut time) = (0u64, 0u64, 0u64, Duration::ZERO);
        for (case, report) in self.cases.iter().zip(reports) {
            let minima: Vec<(ChannelId, u64)> = report
                .channels
                .iter()
                .map(|c| (c.channel, c.minimal))
                .collect();
            let mut below = minima.clone();
            let shrinkable = report.channels.iter().position(|c| c.minimal > c.floor);
            if let Some(i) = shrinkable {
                below[i].1 -= 1;
            }
            let mut probes = vec![(Vec::new(), true), (minima, true)];
            if shrinkable.is_some() {
                probes.push((below, false));
            }
            for (assignment, should_pass) in probes {
                let (state, took, _) = timed(tracer, "sdf.exec", case.name, || {
                    let g = case.lowered.with_capacities(&assignment);
                    steady_state(&g, case.constraint, &exec)
                });
                calls += 1;
                time += took;
                match state {
                    Ok(s) => {
                        events += s.events;
                        boundaries += s.boundaries;
                        let passes = s.outcome == ExecOutcome::Periodic && s.meets_constraint();
                        if passes != should_pass {
                            pass.failures.push(format!(
                                "{}: executor verdict {passes} on a probe the search decided {should_pass}",
                                case.name
                            ));
                        }
                    }
                    Err(e) => pass.failures.push(format!("{}: executor: {e}", case.name)),
                }
            }
        }
        let c = &mut pass.layer_counts;
        c.insert("sdf.exec.calls", calls);
        c.insert("sdf.exec.events", events);
        c.insert("sdf.exec.boundaries", boundaries);
        pass.layer_values
            .insert("sdf.exec.ns_per_event", per(time.as_nanos() as f64, events));
    }
}

impl Workload for SdfMinimize {
    fn pass(&self, tracer: &mut Tracer) -> Pass {
        let opts = SdfSearchOptions {
            exec: ExecOptions {
                telemetry: tracer.is_enabled(),
                ..ExecOptions::default()
            },
        };
        let op = tracer.begin(OP, "");
        let begin = Instant::now();
        let runs: Vec<_> = self
            .cases
            .iter()
            .map(|case| {
                let (report, took, _) = timed(tracer, "sdf.search", case.name, || {
                    minimize_sdf_capacities(&case.lowered, case.constraint, &opts)
                });
                (report, took)
            })
            .collect();
        let mut pass = Pass {
            op_wall: begin.elapsed(),
            ..Pass::default()
        };
        tracer.end(op);
        pass.op_latencies.push(pass.op_wall);

        let mut problems = Vec::new();
        let mut reports = Vec::new();
        let mut probes = 0u64;
        for (case, (report, took)) in self.cases.iter().zip(runs) {
            match report {
                Ok(r) => {
                    problems.extend(check_sdf(case.name, &case.lowered, &r));
                    probes += u64::from(r.probes);
                    let metric = if case.name == "mp3" {
                        "sdf.search.mp3_ms"
                    } else {
                        "sdf.search.fork-join_ms"
                    };
                    pass.layer_values.insert(metric, ms(took));
                    reports.push(r);
                }
                Err(e) => problems.push(format!("{}: {e}", case.name)),
            }
        }
        if !problems.is_empty() {
            pass.failures.push(problems.join("; "));
        }
        pass.counts.insert("sdf.search.probes", probes);
        if tracer.is_enabled() && reports.len() == self.cases.len() {
            self.exec_probes(tracer, &reports, &mut pass);
        }
        pass
    }
}

/// The median of a per-pass value across passes.
pub fn median_of(passes: &[Pass], name: &str) -> Option<f64> {
    let values: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.layer_values.get(name).copied())
        .collect();
    median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrdf_core::{rat, QuantumSet};

    #[test]
    fn default_seed_reaches_the_cli_battery_seed() {
        assert_eq!(
            battery_seed(DEFAULT_SEED),
            ValidationOptions::default().base_seed
        );
        assert_ne!(battery_seed(7), battery_seed(DEFAULT_SEED));
        let _ = battery_seed(0);
        let _ = battery_seed(u64::MAX);
    }

    #[test]
    fn set_up_never_holds_two_copies_of_the_inputs() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Inputs(Rc<Cell<u32>>);
        impl Drop for Inputs {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let (live, most) = (Rc::new(Cell::new(0)), Cell::new(0));
        let make = || {
            live.set(live.get() + 1);
            most.set(most.get().max(live.get()));
            Ok(Inputs(live.clone()))
        };
        let (kept, times) = time_setups(Duration::from_millis(5), make).unwrap();
        assert!((1..=SETUP_SAMPLES as usize).contains(&times.len()));
        assert_eq!((live.get(), most.get()), (1, 1));
        drop(kept);
        let (_kept, once) = time_setups(Duration::ZERO, make).unwrap();
        assert_eq!(once.len(), 1, "a traced run builds once per sample");
        assert_eq!((live.get(), most.get()), (1, 1));
    }

    #[test]
    fn search_checks_catch_wrong_answers() {
        let tg = TaskGraph::linear_chain(
            [("wa", Rational::ONE), ("wb", Rational::ONE)],
            [(
                "b",
                QuantumSet::constant(3),
                QuantumSet::new([2, 3]).unwrap(),
            )],
        )
        .unwrap();
        let constraint = ThroughputConstraint::on_sink(Rational::from(3u64)).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let mut opts = SearchOptions::default();
        opts.validation.endpoint_firings = 300;
        opts.validation.threads = 1;
        let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
        assert_eq!(
            check_search("pair", &analysis, &report, false),
            Vec::<String>::new()
        );
        assert!(
            !check_search("pair", &analysis, &report, true).is_empty(),
            "no pinned answer"
        );

        let mut below_floor = report.clone();
        below_floor.edges[0].minimal = below_floor.edges[0].floor - 1;
        let mut above_eq4 = report.clone();
        above_eq4.edges[0].minimal = above_eq4.edges[0].assigned + 1;
        let mut failed_baseline = report.clone();
        failed_baseline.baseline_clear = false;
        let mut partial = report.clone();
        partial.complete = false;
        for wrong in [below_floor, above_eq4, failed_baseline, partial] {
            assert!(!check_search("pair", &analysis, &wrong, false).is_empty());
        }
    }

    #[test]
    fn sdf_checks_catch_wrong_answers() {
        let mut g = CsdfGraph::new();
        let src = g.add_actor("src", [rat(1, 1)]).unwrap();
        let snk = g.add_actor("snk", [rat(1, 3)]).unwrap();
        let c = g.connect("c", src, snk, [3], [1]).unwrap();
        g.set_capacity(c, 6);
        let constraint = ThroughputConstraint::on_sink(rat(1, 3)).unwrap();
        let report = minimize_sdf_capacities(&g, constraint, &SdfSearchOptions::default()).unwrap();
        assert!(report.baseline_clear);
        let problems = check_sdf("mp3", &g, &report);
        assert_eq!(
            problems.len(),
            1,
            "only the pinned mp3 answer differs: {problems:?}"
        );
        let mut below_floor = report.clone();
        below_floor.channels[0].minimal = below_floor.channels[0].floor - 1;
        assert_eq!(check_sdf("mp3", &g, &below_floor).len(), 2);
    }
}
