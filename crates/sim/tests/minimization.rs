//! Falsification coverage for the minimal-capacity search driver on the
//! paper's MP3 case study (Section 5).
//!
//! The analysis' Eq. (4) gives `d3 = 882`, but under the simulator's
//! exact-handoff semantics one container of slack is recoverable: the
//! driver must land on 881, one container below must demonstrably break
//! strict DAC periodicity, and the whole verdict must not depend on how
//! many worker threads the scenario battery fans out over.

use vrdf_apps::{mp3_chain, mp3_constraint, mp3_feedback, MP3_FEEDBACK_INITIAL_TOKENS};
use vrdf_core::compute_buffer_capacities;
use vrdf_sim::{minimize_capacities, ScenarioRunner, SearchOptions, ValidationOptions};

fn search_options(firings: u64, threads: usize) -> SearchOptions {
    SearchOptions {
        validation: ValidationOptions {
            endpoint_firings: firings,
            random_runs: 2,
            threads,
            ..ValidationOptions::default()
        },
        ..SearchOptions::default()
    }
}

#[test]
fn mp3_driver_lands_on_d3_881_and_880_violates() {
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let d3 = tg.buffer_by_name("d3").unwrap();
    let mut opts = search_options(30_000, 1);
    opts.buffers = Some(vec![d3]);

    let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
    assert!(report.baseline_clear, "{report}");
    let edge = report.minimum_of(d3).unwrap();
    assert_eq!(edge.assigned, 882, "Eq. (4) for d3");
    assert_eq!(
        edge.minimal, 881,
        "exact-handoff semantics recover one container\n{report}"
    );
    assert_eq!(report.total_gap(), 1, "only d3 was searched");

    // Re-derive both verdicts by hand against the same battery the
    // search used: 881 holds, 880 breaks.
    let verdict = |capacity: u64| {
        let probed = analysis.with_capacities(&tg, &[(d3, capacity)]);
        ScenarioRunner::new(
            &probed,
            analysis.constraint(),
            report.offset,
            analysis.options().release,
            &opts.validation,
        )
        .unwrap()
        .validate(&[])
        .unwrap()
    };
    assert!(verdict(881).all_clear(), "881 on d3 still holds");
    let starved = verdict(880);
    assert!(
        !starved.all_clear(),
        "880 on d3 must break strict periodicity"
    );
    // The failure is a visible deadline miss or deadlock, not an
    // accounting artefact.
    let failure = starved.failures().next().unwrap();
    assert!(failure.occupancy_breaches.is_empty());
    assert!(
        failure.first_violation().is_some()
            || failure.report.outcome != vrdf_sim::SimOutcome::Completed,
        "{starved}"
    );
}

#[test]
fn feedback_edge_search_floors_at_its_initial_tokens() {
    // A feedback buffer can never be probed below δ0 — the pre-filled
    // containers would not fit, so such a capacity is unrepresentable,
    // not merely insufficient.  The search must clamp its floor there
    // instead of erroring out mid-probe.
    let tg = mp3_feedback();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let fb = tg.buffer_by_name("fb").unwrap();
    let mut opts = search_options(2_000, 1);
    opts.buffers = Some(vec![fb]);

    let report = minimize_capacities(&tg, &analysis, &opts).unwrap();
    assert!(report.baseline_clear, "{report}");
    let edge = report.minimum_of(fb).unwrap();
    assert_eq!(
        edge.floor, MP3_FEEDBACK_INITIAL_TOKENS,
        "δ0 dominates the fb floor (π̂ = 5, γ̂ = 12)"
    );
    assert!(
        edge.minimal >= MP3_FEEDBACK_INITIAL_TOKENS,
        "minimal {} probed below the initial tokens\n{report}",
        edge.minimal
    );
}

#[test]
fn minimization_verdict_is_thread_count_invariant() {
    // Scenarios are independent simulations and the merge is ordered, so
    // the entire search — minima, probe counts, and the events the
    // fail-fast probes spent — must be bit-identical between a sequential
    // battery (threads = 1) and the machine-sized pool (threads = 0).
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, mp3_constraint()).unwrap();
    let sequential = minimize_capacities(&tg, &analysis, &search_options(2_000, 1)).unwrap();
    let parallel = minimize_capacities(&tg, &analysis, &search_options(2_000, 0)).unwrap();

    assert_eq!(sequential.baseline_clear, parallel.baseline_clear);
    assert_eq!(sequential.offset, parallel.offset);
    assert_eq!(sequential.edges, parallel.edges);
    assert_eq!(sequential.probes, parallel.probes);
    assert_eq!(sequential.probes_passed, parallel.probes_passed);
    assert_eq!(sequential.events, parallel.events);
    assert_eq!(sequential.scenarios_cancelled, parallel.scenarios_cancelled);
    assert!(sequential.baseline_clear, "{sequential}");
}
