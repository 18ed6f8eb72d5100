//! Acceptance tests for the bounded fault-injection layer:
//!
//! 1. **Zero-fault bit-identity** — a tick-engine run whose config
//!    carries an empty [`FaultPlan`] must be observably identical to the
//!    hook-free reference engine (traces, violations, outcomes,
//!    statistics, event counts) on the MP3 chain and seeded random
//!    chain/DAG corpora, and the reference engine must refuse a
//!    non-empty plan.
//! 2. **Recovery pinning** — on the MP3 chain and the stereo fork/join
//!    graph, `d3` with 441 containers of headroom absorbs an upstream
//!    stall bounded by that slack (strict periodicity never breaks), the
//!    exact Eq. (4) capacities miss under the same stall and — the DAC
//!    being exactly rate-matched (`ρ = τ`) — never recover, and an
//!    under-provisioned assignment misses before the fault strikes.
//! 3. **Degradation ladder** — a tick-overflow-forcing graph completes
//!    the battery on the reference engine, with the engine annotated,
//!    instead of aborting it.

use vrdf_apps::synthetic::{random_chain_of_length, random_dag, ChainSpec, DagSpec};
use vrdf_apps::{mp3_chain, mp3_constraint, mp3_fork_join};
use vrdf_core::{
    compute_buffer_capacities, rat, QuantumSet, Rational, TaskGraph, ThroughputConstraint,
};
use vrdf_sim::{
    conservative_offset, validate_capacities, validate_capacities_under_faults, EngineKind,
    FaultPlan, FaultValidationOptions, QuantumPlan, QuantumPolicy, RecoveryVerdict,
    ReferenceSimulator, SimConfig, SimError, SimReport, Simulator, TraceLevel, ValidationOptions,
};

/// Asserts two reports are bit-identical in every observable field.
fn assert_identical(injected: &SimReport, plain: &SimReport, context: &str) {
    assert_eq!(injected.outcome, plain.outcome, "{context}: outcome");
    assert_eq!(
        injected.violations, plain.violations,
        "{context}: violations"
    );
    assert_eq!(injected.trace, plain.trace, "{context}: firing trace");
    assert_eq!(
        injected.events_processed, plain.events_processed,
        "{context}: event count"
    );
    assert_eq!(injected.end_time, plain.end_time, "{context}: end time");
    assert_eq!(injected.endpoint.firings, plain.endpoint.firings);
    assert_eq!(injected.endpoint.first_start, plain.endpoint.first_start);
    assert_eq!(injected.endpoint.last_start, plain.endpoint.last_start);
    assert_eq!(injected.endpoint.max_drift, plain.endpoint.max_drift);
    assert_eq!(injected.endpoint.max_lateness, plain.endpoint.max_lateness);
    for (i, p) in injected.buffers.iter().zip(&plain.buffers) {
        assert_eq!(i.capacity, p.capacity);
        assert_eq!(i.max_occupancy, p.max_occupancy, "{context}: {}", i.name);
        assert_eq!(i.produced, p.produced);
        assert_eq!(i.consumed, p.consumed);
    }
    for (i, p) in injected.tasks.iter().zip(&plain.tasks) {
        assert_eq!(i.firings, p.firings);
        assert_eq!(i.busy_time, p.busy_time, "{context}: {}", i.name);
    }
    assert_eq!(injected.faults_injected, 0, "{context}: no faults injected");
    assert_eq!(
        injected.first_fault_time, None,
        "{context}: no fault instant"
    );
    assert_eq!(
        injected.last_fault_time, None,
        "{context}: no fault instant"
    );
}

/// Runs one graph on the tick engine with an empty fault plan and on the
/// hook-free reference engine, and cross-checks them.
fn run_both_ways(tg: &TaskGraph, constraint: ThroughputConstraint, context: &str) {
    let analysis = compute_buffer_capacities(tg, constraint).expect("analysable graph");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let offset = conservative_offset(tg, &analysis).expect("offset fits");
    for (scenario, quanta) in [
        ("max", QuantumPlan::uniform(QuantumPolicy::Max)),
        ("min", QuantumPlan::uniform(QuantumPolicy::Min)),
        ("random", QuantumPlan::random(0xFA57)),
    ] {
        for periodic in [false, true] {
            let mut config = if periodic {
                SimConfig::periodic(constraint, offset)
            } else {
                SimConfig::self_timed(constraint)
            };
            config.max_endpoint_firings = 400;
            config.trace = TraceLevel::All;
            config.faults = FaultPlan::new();
            let injected = Simulator::new(&sized, quanta.clone(), config.clone())
                .expect("fault-free construction")
                .run();
            let plain = ReferenceSimulator::new(&sized, quanta.clone(), config)
                .expect("reference construction")
                .run();
            assert_identical(
                &injected,
                &plain,
                &format!("{context}/{scenario}/periodic={periodic}"),
            );
        }
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_on_mp3() {
    run_both_ways(&mp3_chain(), mp3_constraint(), "mp3");
}

#[test]
fn zero_fault_plan_is_bit_identical_on_random_corpora() {
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
        run_both_ways(&tg, constraint, &format!("chain-{seed}"));
    }
    for seed in [5, 23] {
        let (tg, constraint) = random_dag(seed, &DagSpec::default()).expect("valid random DAG");
        run_both_ways(&tg, constraint, &format!("dag-{seed}"));
    }
}

/// The battery options every MP3 fault scenario uses: long enough to
/// reach the faulted vSRC firing (≈ 10 ms of audio per firing) plus a
/// recovery margin.
fn mp3_fault_opts() -> FaultValidationOptions {
    FaultValidationOptions {
        validation: ValidationOptions {
            endpoint_firings: 9_000,
            random_runs: 2,
            ..ValidationOptions::default()
        },
        recovery_firings: 8,
    }
}

/// A one-firing 5 ms stall of `task`, striking its 10th firing (≈ 80 ms
/// into the strictly periodic phase).
fn bounded_stall(task: &str) -> FaultPlan {
    FaultPlan::new().stall(task, 10, 1, rat(5, 1_000))
}

/// The graphs `vrdf faults` grades, each with the task feeding its sink
/// edge `d3` — the task the CLI stalls.
fn fault_studies() -> [(&'static str, TaskGraph, &'static str); 2] {
    [
        ("mp3", mp3_chain(), "vSRC"),
        ("fork-join", mp3_fork_join(), "vMux"),
    ]
}

/// Containers added to `d3`'s Eq. (4) capacity: one vSRC production
/// quantum ≈ 10 ms of audio.  The headroom turns into operational
/// slack: the DAC's cushion never drops below 441 containers, so stalls
/// up to 10 ms are absorbed.
const D3_HEADROOM: u64 = 441;

#[test]
fn mp3_with_headroom_absorbs_a_stall_within_the_headroom_budget() {
    for (study, tg, stalled) in fault_studies() {
        let analysis = compute_buffer_capacities(&tg, mp3_constraint()).expect("study analyses");
        let d3 = tg.buffer_by_name("d3").expect("d3 exists");
        let padded = analysis.capacity_of(d3).expect("d3 analysed").capacity + D3_HEADROOM;
        let report = validate_capacities_under_faults(
            &tg,
            &analysis,
            &[(d3, padded)],
            &bounded_stall(stalled),
            &mp3_fault_opts(),
        )
        .expect("battery runs");
        assert!(report.all_recovered(), "{study}: {report}");
        for scenario in &report.scenarios {
            assert_eq!(
                scenario.verdict,
                RecoveryVerdict::Unaffected,
                "{study}/{}: a 5 ms stall sits inside the ≈ 10 ms headroom",
                scenario.name
            );
            assert!(
                scenario.report.faults_injected > 0,
                "{study}/{}: the stall must actually strike",
                scenario.name
            );
            assert!(scenario.report.first_fault_time.is_some());
            assert!(scenario.report.last_fault_time.is_some());
            // The transient is visible as backlog, not as deadline misses.
            for (name, max_occupancy, capacity) in scenario.transient_backlog() {
                assert!(
                    max_occupancy <= capacity,
                    "{study}/{name}: accounting breach"
                );
            }
        }
    }
}

#[test]
fn mp3_exact_capacities_have_zero_fault_slack() {
    // The Eq. (4) assignment is *exactly* sufficient: in steady state
    // vSRC's 441-container refill lands at the very instant the DAC
    // would otherwise starve, so even a stall far smaller than d3's
    // nominal 20 ms of audio breaks strict periodicity — and the DAC,
    // being exactly rate-matched (ρ = τ), can never re-absorb a backlog:
    // the misses continue past every recovery window.  The fork/join
    // graph's vMux feeds d3 the same way.
    for (study, tg, stalled) in fault_studies() {
        let analysis = compute_buffer_capacities(&tg, mp3_constraint()).expect("study analyses");
        let report = validate_capacities_under_faults(
            &tg,
            &analysis,
            &[],
            &bounded_stall(stalled),
            &mp3_fault_opts(),
        )
        .expect("battery runs");
        assert!(!report.all_recovered(), "{study}: {report}");
        for scenario in &report.scenarios {
            assert!(
                matches!(scenario.verdict, RecoveryVerdict::Missed { misses } if misses > 0),
                "{study}/{}: got {}",
                scenario.name,
                scenario.verdict
            );
            assert!(scenario.report.last_fault_time.is_some());
        }
    }
}

#[test]
fn under_provisioned_assignment_misses_before_the_fault_and_is_not_graded_recovered() {
    // Shrink d3 to its structural floor (441 = one vSRC production
    // quantum): the DAC drains the buffer to zero and waits a full
    // 10 ms vSRC response time every refill cycle, so misses pile up
    // long before the stall ever strikes.  The grading must pin this as
    // Missed — pre-fault misses are insufficiency, not non-recovery.
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).expect("MP3 analyses");
    let d3 = tg.buffer_by_name("d3").expect("d3 exists");
    let report = validate_capacities_under_faults(
        &tg,
        &analysis,
        &[(d3, 441)],
        &bounded_stall("vSRC"),
        &mp3_fault_opts(),
    )
    .expect("battery runs");
    assert!(!report.all_recovered(), "{report}");
    for scenario in &report.scenarios {
        assert!(!scenario.verdict.is_recovered(), "{}", scenario.name);
        let first_fault = scenario.report.first_fault_time.expect("stall struck");
        let first_miss = scenario.report.violations.first().expect("misses").release;
        assert!(
            first_miss < first_fault,
            "{}: the assignment must already miss before the fault",
            scenario.name
        );
    }
}

#[test]
fn endpoint_with_slack_recovers_with_a_bounded_miss_transient() {
    // A sink with real slack (ρ = 1 < τ = 2) misses while stalled, then
    // catches up back-to-back: the canonical Recovered verdict.
    let tg = TaskGraph::linear_chain(
        [("src", rat(1, 1)), ("snk", rat(1, 1))],
        [("b", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    let constraint = ThroughputConstraint::on_sink(rat(2, 1)).expect("positive period");
    let analysis = compute_buffer_capacities(&tg, constraint).expect("pair analyses");
    let faults = FaultPlan::new().stall("snk", 3, 1, rat(3, 1));
    let opts = FaultValidationOptions {
        validation: ValidationOptions {
            endpoint_firings: 50,
            random_runs: 1,
            ..ValidationOptions::default()
        },
        recovery_firings: 8,
    };
    let report = validate_capacities_under_faults(&tg, &analysis, &[], &faults, &opts)
        .expect("battery runs");
    assert!(report.all_recovered(), "{report}");
    let recovered = report
        .scenarios
        .iter()
        .filter(|s| matches!(s.verdict, RecoveryVerdict::Recovered { misses, .. } if misses > 0))
        .count();
    assert!(
        recovered > 0,
        "at least one scenario must miss and then recover: {report}"
    );
    for scenario in &report.scenarios {
        if let RecoveryVerdict::Recovered { last_miss, .. } = scenario.verdict {
            let window = scenario.report.last_fault_time.expect("fault struck")
                + Rational::from(opts.recovery_firings) * constraint.period();
            assert!(
                last_miss <= window,
                "{}: miss outside window",
                scenario.name
            );
        }
    }

    // A firing dropped and redone twice is a stall of 2·ρ = 2.
    let redone = FaultPlan::new().stall("snk", 3, 1, rat(2, 1));
    let report = validate_capacities_under_faults(&tg, &analysis, &[], &redone, &opts)
        .expect("battery runs");
    assert!(report.all_recovered(), "{report}");
    assert!(report
        .scenarios
        .iter()
        .all(|s| s.report.faults_injected > 0));
}

#[test]
fn malformed_fault_plans_are_typed_errors() {
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).expect("MP3 analyses");
    let opts = FaultValidationOptions::default();

    let unknown = FaultPlan::new().stall("vGONE", 0, 1, rat(1, 1));
    match validate_capacities_under_faults(&tg, &analysis, &[], &unknown, &opts) {
        Err(SimError::Analysis(e)) => assert!(e.to_string().contains("vGONE")),
        other => panic!("unknown task must be a typed error, got {other:?}"),
    }

    let negative = FaultPlan::new().stall("vSRC", 0, 1, rat(-1, 2));
    match validate_capacities_under_faults(&tg, &analysis, &[], &negative, &opts) {
        Err(SimError::InvalidFault { detail }) => {
            assert!(detail.contains("non-negative"), "{detail}")
        }
        other => panic!("negative delta must be InvalidFault, got {other:?}"),
    }
}

/// A graph whose times cannot share a `u64` tick clock: response times of
/// `1/q` for a prime `q > 2^64` force `tick_den = 3q`, making the `1/3`
/// period rescale to `q` ticks — past `u64::MAX`.
fn tick_overflow_graph() -> (TaskGraph, ThroughputConstraint) {
    const Q: i128 = 18_446_744_073_709_551_629; // prime, > 2^64
    let tg = TaskGraph::linear_chain(
        [("a", Rational::new(1, Q)), ("b", Rational::new(1, Q))],
        [("e", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    let constraint = ThroughputConstraint::on_sink(rat(1, 3)).expect("positive period");
    (tg, constraint)
}

#[test]
fn tick_overflow_falls_back_to_the_reference_engine() {
    let (tg, constraint) = tick_overflow_graph();
    // The tick engine itself must refuse this graph...
    let analysis = compute_buffer_capacities(&tg, constraint).expect("analyses fine");
    let sized = analysis.with_capacities(&tg, &[]);
    let mut config = SimConfig::periodic(
        constraint,
        conservative_offset(&tg, &analysis).expect("offset fits"),
    );
    config.max_endpoint_firings = 50;
    assert!(matches!(
        Simulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config),
        Err(SimError::TickOverflow { .. })
    ));
    // ...while the battery degrades to the rational-time reference and
    // completes with the engine annotated.
    let opts = ValidationOptions {
        endpoint_firings: 200,
        random_runs: 1,
        ..ValidationOptions::default()
    };
    let report = validate_capacities(&tg, &analysis, &opts).expect("fallback battery runs");
    assert_eq!(report.engine, EngineKind::Reference);
    assert!(report.all_clear(), "{report}");
    assert!(report.to_string().contains("reference engine"));

    // Fault injection is tick-engine only: the same graph with a
    // non-empty fault plan must propagate the overflow, not silently
    // drop the faults.
    let faults = FaultPlan::new().stall("a", 0, 1, rat(1, 3));
    let result = validate_capacities_under_faults(
        &tg,
        &analysis,
        &[],
        &faults,
        &FaultValidationOptions {
            validation: opts,
            recovery_firings: 8,
        },
    );
    assert!(matches!(result, Err(SimError::TickOverflow { .. })));
}

#[test]
fn reference_engine_refuses_a_non_empty_fault_plan() {
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).expect("MP3 analyses");
    let sized = analysis.with_capacities(&tg, &[]);
    let mut config = SimConfig::self_timed(mp3_constraint());
    config.faults = bounded_stall("vSRC");
    match ReferenceSimulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config) {
        Err(SimError::InvalidFault { detail }) => {
            assert!(detail.contains("reference engine"), "{detail}")
        }
        Err(e) => panic!("a fault plan on the reference engine must be InvalidFault, got {e}"),
        Ok(_) => panic!("the reference engine must refuse a fault plan it cannot inject"),
    }
}
