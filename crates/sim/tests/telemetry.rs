//! Acceptance tests for the telemetry layer:
//!
//! 1. **Counting is passive** — a tick-engine run, which always counts,
//!    times its phases and (at [`TraceLevel::All`]) samples occupancy,
//!    is observably identical to the reference engine (traces,
//!    violations, outcomes, statistics, event counts) through both entry
//!    points, a reused [`SimPlan`] state and the one-shot [`Simulator`],
//!    on the MP3 chain and seeded random chain/DAG/cyclic corpora; its
//!    counters tie out against the report.
//! 2. **Battery passivity** — [`validate_capacities`] with telemetry on
//!    reaches the same verdict, violations, and event counts as with it
//!    off.
//! 3. **Golden trace** — the Perfetto exporter's byte-exact output for a
//!    small fixed MP3 run is pinned by a committed golden file
//!    (regenerate with `UPDATE_GOLDEN=1`).

use vrdf_apps::synthetic::{random_chain_of_length, random_dag, ChainSpec, DagSpec};
use vrdf_apps::{mp3_chain, mp3_constraint};
use vrdf_core::{compute_buffer_capacities, TaskGraph, ThroughputConstraint};
use vrdf_sim::{
    conservative_offset, perfetto_trace, validate_capacities, QuantumPlan, QuantumPolicy,
    ReferenceSimulator, SimConfig, SimPlan, SimReport, Simulator, TraceLevel, ValidationOptions,
};

/// Asserts two reports are bit-identical in every observable field.
fn assert_identical(tick: &SimReport, plain: &SimReport, context: &str) {
    assert_eq!(tick.outcome, plain.outcome, "{context}: outcome");
    assert_eq!(tick.violations, plain.violations, "{context}: violations");
    assert_eq!(tick.trace, plain.trace, "{context}: firing trace");
    assert_eq!(
        tick.events_processed, plain.events_processed,
        "{context}: event count"
    );
    assert_eq!(tick.end_time, plain.end_time, "{context}: end time");
    assert_eq!(tick.endpoint.firings, plain.endpoint.firings);
    assert_eq!(tick.endpoint.first_start, plain.endpoint.first_start);
    assert_eq!(tick.endpoint.last_start, plain.endpoint.last_start);
    assert_eq!(tick.endpoint.max_drift, plain.endpoint.max_drift);
    assert_eq!(tick.endpoint.max_lateness, plain.endpoint.max_lateness);
    for (g, p) in tick.buffers.iter().zip(&plain.buffers) {
        assert_eq!(g.capacity, p.capacity);
        assert_eq!(g.max_occupancy, p.max_occupancy, "{context}: {}", g.name);
        assert_eq!(g.produced, p.produced);
        assert_eq!(g.consumed, p.consumed);
    }
    for (g, p) in tick.tasks.iter().zip(&plain.tasks) {
        assert_eq!(g.firings, p.firings);
        assert_eq!(g.busy_time, p.busy_time, "{context}: {}", g.name);
    }
}

/// Runs one scenario three ways — the reference engine, the tick engine
/// on a reusable plan state, and the one-shot tick simulator — and
/// cross-checks them.
fn run_three_ways(tg: &TaskGraph, constraint: ThroughputConstraint, context: &str) {
    let analysis = compute_buffer_capacities(tg, constraint).expect("analysable graph");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let offset = conservative_offset(tg, &analysis).expect("offset fits");
    for (scenario, quanta) in [
        ("max", QuantumPlan::uniform(QuantumPolicy::Max)),
        ("min", QuantumPlan::uniform(QuantumPolicy::Min)),
        ("random", QuantumPlan::random(0x7E1E)),
    ] {
        for periodic in [false, true] {
            let mut config = if periodic {
                SimConfig::periodic(constraint, offset)
            } else {
                SimConfig::self_timed(constraint)
            };
            config.max_endpoint_firings = 400;
            config.trace = TraceLevel::All;
            let context = format!("{context}/{scenario}/periodic={periodic}");

            let plain = ReferenceSimulator::new(&sized, quanta.clone(), config.clone())
                .expect("reference construction")
                .run();
            // The battery's path: a plan run on a reusable state.
            let plan = SimPlan::new(&sized, config.clone()).expect("plan construction");
            let mut state = plan.state();
            let planned = plan.run(&mut state, &quanta).expect("plan run executes");
            assert_identical(&planned, &plain, &context);

            // Counting is passive: same simulation, plus data.
            let one_shot = Simulator::new(&sized, quanta.clone(), config)
                .expect("one-shot construction")
                .run();
            assert_identical(&one_shot, &plain, &context);
            let counters = one_shot.counters;
            assert_eq!(
                counters.events_popped, one_shot.events_processed,
                "{context}: every popped event is a processed event"
            );
            assert!(counters.firings_started >= counters.firings_finished);
            assert!(!one_shot.spans.run.is_zero(), "{context}: spans collected");
            assert!(
                !one_shot.occupancy.is_empty(),
                "{context}: TraceLevel::All collects occupancy samples"
            );
        }
    }
}

#[test]
fn disabled_telemetry_is_bit_identical_on_mp3() {
    run_three_ways(&mp3_chain(), mp3_constraint(), "mp3");
}

#[test]
fn disabled_telemetry_is_bit_identical_on_random_corpora() {
    for seed in [3, 17] {
        let (tg, constraint) = random_chain_of_length(
            seed,
            6,
            &ChainSpec {
                rho_grid_subdivision: Some(64),
                ..ChainSpec::default()
            },
        )
        .expect("valid random chain");
        run_three_ways(&tg, constraint, &format!("chain-{seed}"));
    }
    for seed in [5, 23] {
        let (tg, constraint) = random_dag(seed, &DagSpec::default()).expect("valid random DAG");
        run_three_ways(&tg, constraint, &format!("dag-{seed}"));
    }
    for seed in [7, 11] {
        let (tg, constraint) = random_dag(
            seed,
            &DagSpec {
                feedback_headroom: Some(2),
                ..DagSpec::default()
            },
        )
        .expect("valid random cyclic graph");
        run_three_ways(&tg, constraint, &format!("cyclic-{seed}"));
    }
}

#[test]
fn battery_telemetry_is_passive_on_the_corpora() {
    let mut graphs = vec![(mp3_chain(), mp3_constraint(), "mp3".to_owned())];
    let (tg, constraint) = random_chain_of_length(
        3,
        6,
        &ChainSpec {
            rho_grid_subdivision: Some(64),
            ..ChainSpec::default()
        },
    )
    .expect("valid random chain");
    graphs.push((tg, constraint, "chain-3".to_owned()));
    let (tg, constraint) = random_dag(5, &DagSpec::default()).expect("valid random DAG");
    graphs.push((tg, constraint, "dag-5".to_owned()));

    for (tg, constraint, context) in graphs {
        let analysis = compute_buffer_capacities(&tg, constraint).expect("analysable graph");
        let base = ValidationOptions {
            endpoint_firings: 400,
            random_runs: 2,
            ..ValidationOptions::default()
        };
        let plain = validate_capacities(&tg, &analysis, &base).expect("battery runs");
        let timed = validate_capacities(
            &tg,
            &analysis,
            &ValidationOptions {
                telemetry: true,
                ..base
            },
        )
        .expect("instrumented battery runs");

        assert!(plain.metrics.is_none(), "{context}");
        assert_eq!(timed.all_clear(), plain.all_clear(), "{context}");
        assert_eq!(timed.events(), plain.events(), "{context}");
        assert_eq!(timed.scenarios.len(), plain.scenarios.len(), "{context}");
        for (t, p) in timed.scenarios.iter().zip(&plain.scenarios) {
            assert_eq!(t.name, p.name, "{context}");
            assert_eq!(t.report.violations, p.report.violations, "{context}");
            assert_eq!(
                t.report.events_processed, p.report.events_processed,
                "{context}"
            );
            assert_eq!(t.occupancy_breaches, p.occupancy_breaches, "{context}");
        }
        let metrics = timed.metrics.as_ref().expect("battery metrics collected");
        assert_eq!(metrics.counters.events_popped, timed.events(), "{context}");
        assert_eq!(
            metrics.scenario_wall.len(),
            timed.scenarios.len(),
            "{context}"
        );
    }
}

/// The small fixed MP3 run the golden trace pins: 25 strictly periodic
/// DAC firings at the conservative offset, all-max quanta, full tracing.
fn golden_run() -> SimReport {
    let tg = mp3_chain();
    let constraint = mp3_constraint();
    let analysis = compute_buffer_capacities(&tg, constraint).expect("MP3 analyses");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = 25;
    config.trace = TraceLevel::All;
    Simulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config)
        .expect("instrumented construction")
        .run()
}

#[test]
fn perfetto_trace_matches_the_committed_golden_file() {
    let report = golden_run();
    let rendered = perfetto_trace(&report);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mp3_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("golden file writable");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file committed");
    assert_eq!(
        rendered, golden,
        "Perfetto trace drifted from tests/golden/mp3_trace.json; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn perfetto_trace_firing_counts_match_the_report_exactly() {
    let report = golden_run();
    let rendered = perfetto_trace(&report);
    // One complete slice (`ph: "X"`) per completed firing, per task.
    for task in &report.tasks {
        let needle = format!("\"name\":\"{}#", task.name);
        let slices = rendered.matches(&needle).count() as u64;
        assert_eq!(slices, task.firings, "{}: one slice per firing", task.name);
    }
    let total: u64 = report.tasks.iter().map(|t| t.firings).sum();
    assert_eq!(rendered.matches("\"ph\":\"X\"").count() as u64, total);
    // One counter track per buffer, fed by the occupancy samples.
    for buffer in &report.buffers {
        assert!(
            rendered.contains(&format!("\"name\":\"buf {}\"", buffer.name)),
            "{}: counter track present",
            buffer.name
        );
    }
    assert_eq!(
        rendered.matches("\"ph\":\"C\"").count(),
        report.occupancy.len(),
        "one counter event per occupancy sample"
    );
}
