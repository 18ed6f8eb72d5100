//! The fail-fast probe ([`ScenarioRunner::probe`]) against the full
//! battery ([`ScenarioRunner::validate`]): the same verdict and the same
//! first failure, never more simulated events, one report at every
//! thread count, and cancellations kept apart from panics and watchdog
//! skips.

use std::time::Duration;

use vrdf_apps::{case_study, fleet_corpus, CASE_STUDY_NAMES};
use vrdf_core::{
    compute_buffer_capacities, BufferId, GraphAnalysis, QuantumSet, Rational, TaskGraph,
    ThroughputConstraint,
};
use vrdf_sim::{
    conservative_offset, minimize_capacities, ScenarioResult, ScenarioRunner, SearchOptions,
    SimError, ValidationOptions, ValidationReport,
};

fn battery(threads: usize) -> ValidationOptions {
    ValidationOptions {
        endpoint_firings: 1_000,
        random_runs: 2,
        threads,
        ..ValidationOptions::default()
    }
}

/// The three case studies and the first graph of each fleet-corpus kind
/// (chain, fork/join, random DAG, cyclic), each with its Eq. (4)
/// analysis applied.
fn graphs() -> Vec<(String, TaskGraph, GraphAnalysis)> {
    let mut graphs = Vec::new();
    for name in CASE_STUDY_NAMES {
        let study = case_study(name).expect("bundled case study");
        let analysis = compute_buffer_capacities(&study.graph, study.constraint).expect("analyses");
        graphs.push((name.to_owned(), study.graph, analysis));
    }
    for item in fleet_corpus(1, 4).expect("corpus generates") {
        let analysis = compute_buffer_capacities(&item.graph, item.constraint).expect("analyses");
        graphs.push((item.name, item.graph, analysis));
    }
    graphs
}

fn runner<'g>(
    sized: &'g TaskGraph,
    tg: &TaskGraph,
    analysis: &GraphAnalysis,
    opts: &ValidationOptions,
) -> ScenarioRunner<'g> {
    ScenarioRunner::new(
        sized,
        analysis.constraint(),
        conservative_offset(tg, analysis).expect("offset fits"),
        analysis.options().release,
        opts,
    )
    .expect("runner builds")
}

/// The first failing scenario of a report: its name, first violation and
/// outcome.
fn first_failure(report: &ValidationReport) -> Option<(&str, String)> {
    report.failures().next().map(|s: &ScenarioResult| {
        (
            s.name.as_str(),
            format!("{:?} {:?}", s.first_violation(), s.report.outcome),
        )
    })
}

/// Everything a probe report carries that must not depend on the thread
/// count: per-scenario results, cancellations, panics, skips, the event
/// total and (with telemetry) the engine counters.
fn fingerprint(report: &Result<ValidationReport, SimError>) -> String {
    match report {
        Err(e) => format!("error {e:?}"),
        Ok(r) => format!(
            "{:?} cancelled {:?} panics {:?} skipped {:?} events {} counters {:?}",
            r.scenarios
                .iter()
                .map(|s| (
                    &s.name,
                    &s.report.outcome,
                    &s.report.violations,
                    s.report.events_processed,
                    s.report.endpoint.firings,
                ))
                .collect::<Vec<_>>(),
            r.cancelled,
            r.panics,
            r.skipped,
            r.events(),
            r.metrics.as_ref().map(|m| &m.counters),
        ),
    }
}

/// A fork/join whose right join edge may consume 0: Eq. (4) passes
/// const-max but the const-min scenario starves the join
/// (`tests/fork_join.rs`), so its first failure is scenario 1, not 0.
fn starving_join() -> (String, TaskGraph, GraphAnalysis) {
    let mut tg = TaskGraph::new();
    let src = tg.add_task("src", Rational::ZERO).expect("task");
    let l = tg.add_task("l", Rational::ZERO).expect("task");
    let r = tg.add_task("r", Rational::ZERO).expect("task");
    let snk = tg.add_task("snk", Rational::ZERO).expect("task");
    let one = || QuantumSet::constant(1);
    tg.connect("fl", src, l, one(), one()).expect("edge");
    tg.connect("fr", src, r, one(), one()).expect("edge");
    tg.connect("jl", l, snk, one(), one()).expect("edge");
    let zero_or_one = QuantumSet::new([0, 1]).expect("quantum set");
    tg.connect("jr", r, snk, one(), zero_or_one).expect("edge");
    let constraint = ThroughputConstraint::on_sink(Rational::ONE).expect("period");
    let analysis = compute_buffer_capacities(&tg, constraint).expect("analyses");
    ("starving-join".to_owned(), tg, analysis)
}

/// Probes and validates one assignment on the same runner and checks
/// that they agree; returns the index the probe stopped at, if it failed.
fn check_agreement(
    runner: &mut ScenarioRunner<'_>,
    overrides: &[(BufferId, u64)],
    context: &str,
) -> Option<usize> {
    let (probe, full) = match (runner.probe(overrides), runner.validate(overrides)) {
        (Ok(probe), Ok(full)) => (probe, full),
        (Err(p), Err(f)) => {
            assert_eq!(p, f, "{context}: the same error");
            return None;
        }
        (p, f) => panic!("{context}: probe {p:?} but validate {f:?}"),
    };
    assert_eq!(probe.all_clear(), full.all_clear(), "{context}");
    assert_eq!(first_failure(&probe), first_failure(&full), "{context}");
    assert!(probe.events() <= full.events(), "{context}");
    assert!(
        full.cancelled.is_empty(),
        "{context}: validate never cancels"
    );
    // The probe ran a prefix of the battery, up to and including its
    // first failure, and cancelled the rest.
    let ran = probe.scenarios.len();
    assert_eq!(ran + probe.cancelled.len(), runner.scenario_count());
    for (p, f) in probe.scenarios.iter().zip(&full.scenarios) {
        assert_eq!(p.name, f.name, "{context}");
        assert_eq!(p.report.events_processed, f.report.events_processed);
    }
    if full.all_clear() {
        assert!(probe.cancelled.is_empty(), "{context}");
        assert_eq!(probe.events(), full.events(), "{context}");
        return None;
    }
    assert!(!probe.scenarios[ran - 1].passed(), "{context}");
    assert!(probe.scenarios[..ran - 1].iter().all(|s| s.passed()));
    Some(ran - 1)
}

#[test]
fn probe_agrees_with_validate_at_every_probed_capacity() {
    let mut stops = Vec::new();
    for (name, tg, analysis) in graphs() {
        let search = SearchOptions {
            validation: battery(1),
            ..SearchOptions::default()
        };
        let minima = minimize_capacities(&tg, &analysis, &search).expect("search runs");
        assert!(minima.baseline_clear, "{name}: {minima}");
        let sized = analysis.with_capacities(&tg, &[]);
        let mut runner = runner(&sized, &tg, &analysis, &battery(1));
        for edge in &minima.edges {
            let candidates = [
                edge.assigned,
                edge.minimal,
                edge.minimal.saturating_sub(1),
                edge.floor,
            ];
            for capacity in candidates {
                let context = format!("{name}: {} = {capacity}", edge.name);
                stops.extend(check_agreement(
                    &mut runner,
                    &[(edge.buffer, capacity)],
                    &context,
                ));
            }
        }
    }
    assert!(!stops.is_empty(), "some probed capacity must fail");

    let (name, tg, analysis) = starving_join();
    let sized = analysis.with_capacities(&tg, &[]);
    let mut runner = runner(&sized, &tg, &analysis, &battery(1));
    assert_eq!(check_agreement(&mut runner, &[], &name), Some(1));
}

#[test]
fn probe_report_is_identical_at_every_thread_count() {
    let mut graphs: Vec<_> = graphs().into_iter().take(3).collect();
    graphs.push(starving_join());
    let mut stopped_above_zero = false;
    for (name, tg, analysis) in graphs {
        let sized = analysis.with_capacities(&tg, &[]);
        for c in analysis.capacities() {
            for capacity in [c.capacity, c.capacity / 2] {
                let overrides = [(c.buffer, capacity)];
                let probe_at = |threads| {
                    let opts = ValidationOptions {
                        telemetry: true,
                        ..battery(threads)
                    };
                    runner(&sized, &tg, &analysis, &opts).probe(&overrides)
                };
                let sequential = probe_at(1);
                if let Ok(report) = &sequential {
                    let metrics = report.metrics.as_ref().expect("telemetry on");
                    assert_eq!(metrics.counters.events_popped, report.events());
                    stopped_above_zero |=
                        report.scenarios.len() > 1 && !report.cancelled.is_empty();
                }
                for threads in [2, 3, 8] {
                    assert_eq!(
                        fingerprint(&probe_at(threads)),
                        fingerprint(&sequential),
                        "{name}: {} = {capacity}, threads = {threads}",
                        c.name
                    );
                }
            }
        }
    }
    assert!(stopped_above_zero, "some probe must stop above scenario 0");
}

#[test]
fn chaos_above_the_first_failure_never_fires() {
    let study = case_study("mp3").expect("bundled");
    let analysis = compute_buffer_capacities(&study.graph, study.constraint).expect("analyses");
    let d3 = study.graph.buffer_by_name("d3").expect("MP3 has d3");
    let starved = [(d3, 441)];
    let sized = analysis.with_capacities(&study.graph, &[]);
    let full = runner(&sized, &study.graph, &analysis, &battery(1))
        .validate(&starved)
        .expect("battery runs");
    let first = full.failures().next().expect("d3 = 441 fails").name.clone();
    let last = full.scenarios.last().expect("non-empty").name.clone();
    assert_ne!(first, last, "the chaos scenario sits above the failure");

    for threads in [1, 2, 3, 8] {
        let opts = ValidationOptions {
            chaos_panic_scenario: Some(last.clone()),
            ..battery(threads)
        };
        let probe = runner(&sized, &study.graph, &analysis, &opts)
            .probe(&starved)
            .expect("probe runs");
        assert!(probe.panics.is_empty(), "threads = {threads}: {probe}");
        assert!(probe.cancelled.contains(&last), "threads = {threads}");
        assert_eq!(probe.failures().next().map(|s| &s.name), Some(&first));
    }
}

#[test]
fn chaos_on_a_passing_assignment_fails_the_probe() {
    let study = case_study("mp3").expect("bundled");
    let analysis = compute_buffer_capacities(&study.graph, study.constraint).expect("analyses");
    let sized = analysis.with_capacities(&study.graph, &[]);
    for threads in [1, 2, 8] {
        let opts = ValidationOptions {
            chaos_panic_scenario: Some("cycle-minmax".to_owned()),
            ..battery(threads)
        };
        let probe = runner(&sized, &study.graph, &analysis, &opts)
            .probe(&[])
            .expect("probe runs");
        let ran: Vec<_> = probe.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(ran, ["const-max", "const-min"], "threads = {threads}");
        assert!(probe.scenarios.iter().all(ScenarioResult::passed));
        assert_eq!(probe.panics.len(), 1);
        assert_eq!(probe.panics[0].scenario, "cycle-minmax");
        assert_eq!(probe.cancelled, ["random-0", "random-1"]);
        assert!(!probe.all_clear());
        assert!(!probe.complete());
        assert!(probe.to_string().contains("cancelled"));
    }
}

#[test]
fn a_watchdog_skip_is_skipped_not_cancelled() {
    let study = case_study("mp3").expect("bundled");
    let analysis = compute_buffer_capacities(&study.graph, study.constraint).expect("analyses");
    let sized = analysis.with_capacities(&study.graph, &[]);
    for threads in [1, 2] {
        let opts = ValidationOptions {
            wall_clock: Some(Duration::ZERO),
            ..battery(threads)
        };
        let probe = runner(&sized, &study.graph, &analysis, &opts)
            .probe(&[])
            .expect("probe runs");
        assert!(probe.scenarios.is_empty());
        assert_eq!(probe.skipped, ["const-max"], "threads = {threads}");
        assert_eq!(
            probe.cancelled,
            ["const-min", "cycle-minmax", "random-0", "random-1"]
        );
        assert!(!probe.all_clear());
    }

    // The search counts the skip as a skip and the rest as cancelled.
    let search = SearchOptions {
        validation: ValidationOptions {
            wall_clock: Some(Duration::ZERO),
            ..battery(1)
        },
        ..SearchOptions::default()
    };
    let report = minimize_capacities(&study.graph, &analysis, &search).expect("search runs");
    assert!(!report.baseline_clear);
    assert_eq!(report.scenarios_skipped, 1);
    assert_eq!(report.scenarios_cancelled, 4);
}
