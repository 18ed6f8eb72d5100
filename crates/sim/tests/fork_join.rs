//! Cross-validation of the generalized analysis on fork/join graphs —
//! the acceptance gate for lifting the Section 3.1 chain restriction.
//!
//! * The stereo MP3 fork/join case study's per-edge Eq. (4) capacities
//!   must survive the full scenario battery with the DAC strictly
//!   periodic, and `minimize_capacities` must converge on the DAG.
//! * A corpus of random balanced fork/join graphs must validate clean.
//! * The boundary of the guarantee is pinned by falsification:
//!   *independently* variable consumption quanta on fork-coupled edges
//!   admit admissible scenarios that starve a sibling branch through the
//!   shared fork's back-pressure, which no finite capacity fixes — the
//!   reason the paper states the per-pair result for chains, made
//!   executable.

use vrdf_apps::synthetic::{random_dag, DagSpec};
use vrdf_apps::{mp3_constraint, mp3_fork_join};
use vrdf_core::{compute_buffer_capacities, QuantumSet, Rational, TaskGraph, ThroughputConstraint};
use vrdf_sim::{
    minimize_capacities, validate_capacities, ScenarioRunner, SearchOptions, ValidationOptions,
};

fn quick_validation(firings: u64) -> ValidationOptions {
    ValidationOptions {
        endpoint_firings: firings,
        random_runs: 3,
        ..ValidationOptions::default()
    }
}

#[test]
fn fork_join_case_study_survives_the_full_battery() {
    let tg = mp3_fork_join();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let report = validate_capacities(&tg, &analysis, &quick_validation(8_000)).unwrap();
    assert!(report.all_clear(), "{report}");
    assert_eq!(report.failures().count(), 0);
    // Both channel decoders actually fired, symmetrically.
    let per_channel: Vec<u64> = report.scenarios[0]
        .report
        .tasks
        .iter()
        .filter(|t| t.name == "vL" || t.name == "vR")
        .map(|t| t.firings)
        .collect();
    assert_eq!(per_channel.len(), 2);
    assert!(per_channel[0] > 0);
    assert_eq!(per_channel[0], per_channel[1], "stereo symmetry");
}

#[test]
fn fork_join_underprovisioned_channel_misses_deadlines() {
    // One container short on a single channel buffer must break the DAC's
    // periodicity: a vDemux firing needs space on *both* channel buffers,
    // so the starved channel throttles the whole decode front.
    let tg = mp3_fork_join();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let dl = tg.buffer_by_name("dL").unwrap();
    // Well below the assigned 3263: one frame of containers.
    let probed = analysis.with_capacities(&tg, &[(dl, 1152)]);
    let report = ScenarioRunner::new(
        &probed,
        analysis.constraint(),
        vrdf_sim::conservative_offset(&tg, &analysis).expect("offset fits"),
        analysis.options().release,
        &quick_validation(8_000),
    )
    .unwrap()
    .validate(&[])
    .unwrap();
    assert!(!report.all_clear(), "under-provisioned dL must fail");
}

#[test]
fn minimization_converges_on_the_fork_join_dag() {
    let tg = mp3_fork_join();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let opts = SearchOptions {
        validation: ValidationOptions {
            endpoint_firings: 6_000,
            random_runs: 2,
            ..ValidationOptions::default()
        },
        ..SearchOptions::default()
    };
    let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
    assert!(report.baseline_clear, "{report}");
    assert_eq!(report.edges.len(), 6);
    for edge in &report.edges {
        assert!(edge.minimal <= edge.assigned, "{report}");
        assert!(edge.minimal >= edge.floor, "{report}");
    }
    // The stereo symmetry survives the search: both channel buffers and
    // both mux inputs land on the same operational minimum.
    let min_of = |name: &str| {
        report
            .minimum_of(tg.buffer_by_name(name).unwrap())
            .unwrap()
            .minimal
    };
    assert_eq!(min_of("dL"), min_of("dR"), "{report}");
    assert_eq!(min_of("mL"), min_of("mR"), "{report}");
    // The reported assignment really holds operationally.
    let minimal: Vec<_> = report.edges.iter().map(|e| (e.buffer, e.minimal)).collect();
    let revalidated = ScenarioRunner::new(
        &analysis.with_capacities(&tg, &minimal),
        analysis.constraint(),
        report.offset,
        analysis.options().release,
        &opts.validation,
    )
    .unwrap()
    .validate(&[])
    .unwrap();
    assert!(revalidated.all_clear(), "{revalidated}");
}

#[test]
fn random_fork_join_corpus_validates_clean() {
    let spec = DagSpec::default();
    let mut forked = 0u32;
    for seed in 0..24 {
        let (tg, constraint) = random_dag(seed, &spec).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let report = validate_capacities(&tg, &analysis, &quick_validation(1_000)).unwrap();
        assert!(report.all_clear(), "seed {seed}:\n{report}");
        if tg.tasks().any(|(t, _)| tg.output_buffers(t).len() > 1) {
            forked += 1;
        }
    }
    assert!(
        forked >= 10,
        "corpus barely exercised true forks ({forked} of 24)"
    );
}

#[test]
fn independently_variable_join_quanta_admit_unfixable_scenarios() {
    // src forks to two single-task branches joined at the sink.  All
    // quanta are constant 1 except the right join edge's consumption,
    // which may draw 0: an admissible scenario drains nothing from `jr`
    // forever, back-pressure freezes `r`, then `src` (which needs space
    // on *both* fork edges), and the left branch starves — no finite
    // capacity assignment can prevent the deadline misses.
    let mut tg = TaskGraph::new();
    let src = tg.add_task("src", Rational::ZERO).unwrap();
    let l = tg.add_task("l", Rational::ZERO).unwrap();
    let r = tg.add_task("r", Rational::ZERO).unwrap();
    let snk = tg.add_task("snk", Rational::ZERO).unwrap();
    let one = || QuantumSet::constant(1);
    tg.connect("fl", src, l, one(), one()).unwrap();
    tg.connect("fr", src, r, one(), one()).unwrap();
    tg.connect("jl", l, snk, one(), one()).unwrap();
    tg.connect("jr", r, snk, one(), QuantumSet::new([0, 1]).unwrap())
        .unwrap();
    let constraint = ThroughputConstraint::on_sink(Rational::ONE).unwrap();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();

    // The Eq. (4) assignment fails the battery (the const-min scenario
    // draws 0 on jr forever)...
    let assigned = validate_capacities(&tg, &analysis, &quick_validation(500)).unwrap();
    assert!(
        !assigned.all_clear(),
        "variable join quanta must admit a starving scenario\n{assigned}"
    );
    // ...and extra capacity only buys proportionally many firings before
    // the same stall: once `jr` (never drained in the const-min
    // scenario) fills, back-pressure freezes `src` and the left branch
    // delivers nothing more, so any finite assignment fails a horizon a
    // few multiples past it.  Contrast a *chain* with the same variable
    // consumption set, where Eq. (4) holds at every horizon.
    for capacity in [10u64, 100, 1_000] {
        let generous: Vec<_> = tg.buffers().map(|(id, _)| (id, capacity)).collect();
        let report = ScenarioRunner::new(
            &analysis.with_capacities(&tg, &generous),
            constraint,
            vrdf_sim::conservative_offset(&tg, &analysis).expect("offset fits"),
            analysis.options().release,
            &quick_validation(10 * capacity),
        )
        .unwrap()
        .validate(&[])
        .unwrap();
        assert!(
            !report.all_clear(),
            "{capacity} containers per edge outlived 10x that many firings\n{report}"
        );
    }
    let chain = TaskGraph::linear_chain(
        [("src", Rational::ZERO), ("snk", Rational::ZERO)],
        [(
            "b",
            QuantumSet::constant(1),
            QuantumSet::new([0, 1]).unwrap(),
        )],
    )
    .unwrap();
    let chain_analysis = compute_buffer_capacities(&chain, constraint).unwrap();
    let report = validate_capacities(&chain, &chain_analysis, &quick_validation(10_000)).unwrap();
    assert!(report.all_clear(), "{report}");
}
