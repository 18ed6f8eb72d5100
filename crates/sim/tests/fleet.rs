//! Thread-count invariance of the fleet's sharded merge: the per-graph
//! verdicts, minimization reports, and their ordering must be
//! bit-identical for every worker count, on a mixed corpus that
//! includes cyclic graphs and a deliberately under-tokened graph whose
//! analysis errors.

use vrdf_apps::synthetic::{fork_join_of, random_chain_of_length, random_dag, ChainSpec, DagSpec};
use vrdf_core::{compute_buffer_capacities, rat, QuantumSet, TaskGraph, ThroughputConstraint};
use vrdf_sim::{
    minimize_capacities, run_fleet, FleetItem, FleetJob, FleetOptions, JobOutcome, SearchOptions,
    ValidationOptions,
};

/// An under-tokened cyclic graph: the feedback edge carries no initial
/// tokens, so `compute_buffer_capacities` fails with `UnbrokenCycle`
/// before any simulation starts.
fn under_tokened_item() -> FleetItem {
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 2)).unwrap();
    let b = tg.add_task("b", rat(1, 2)).unwrap();
    tg.connect(
        "fwd",
        a,
        b,
        QuantumSet::constant(1),
        QuantumSet::constant(1),
    )
    .unwrap();
    tg.connect_feedback(
        "fb",
        b,
        a,
        QuantumSet::constant(1),
        QuantumSet::constant(1),
        0,
    )
    .unwrap();
    FleetItem {
        name: "under-tokened".to_owned(),
        graph: tg,
        constraint: ThroughputConstraint::on_sink(rat(1, 1)).unwrap(),
    }
}

/// Chains + fork/joins + random DAGs + a cyclic graph + the
/// under-tokened error graph.
fn mixed_corpus() -> Vec<FleetItem> {
    let chain_spec = ChainSpec {
        rho_grid_subdivision: Some(256),
        ..ChainSpec::default()
    };
    let dag_spec = DagSpec {
        rho_grid_subdivision: Some(256),
        ..DagSpec::default()
    };
    let cyclic_spec = DagSpec {
        feedback_headroom: Some(2),
        ..dag_spec.clone()
    };
    let mut corpus = Vec::new();
    for (i, seed) in [11u64, 12, 13].into_iter().enumerate() {
        let (graph, constraint) =
            random_chain_of_length(seed, 4 + i, &chain_spec).expect("chain generates");
        corpus.push(FleetItem {
            name: format!("chain-{i}"),
            graph,
            constraint,
        });
    }
    let (graph, constraint) = fork_join_of(21, 3, 2, &dag_spec).expect("fork/join generates");
    corpus.push(FleetItem {
        name: "forkjoin".to_owned(),
        graph,
        constraint,
    });
    let (graph, constraint) = random_dag(31, &dag_spec).expect("dag generates");
    corpus.push(FleetItem {
        name: "dag".to_owned(),
        graph,
        constraint,
    });
    let (graph, constraint) = random_dag(41, &cyclic_spec).expect("cyclic dag generates");
    corpus.push(FleetItem {
        name: "cyclic".to_owned(),
        graph,
        constraint,
    });
    // The error graph sits mid-corpus so workers on both sides of it
    // keep drawing jobs after it fails.
    corpus.insert(3, under_tokened_item());
    corpus
}

fn options(job: FleetJob, workers: usize) -> FleetOptions {
    FleetOptions {
        job,
        workers,
        validation: ValidationOptions {
            endpoint_firings: 300,
            random_runs: 2,
            ..ValidationOptions::default()
        },
        ..FleetOptions::default()
    }
}

#[test]
fn fleet_results_are_identical_for_every_worker_count() {
    let corpus = mixed_corpus();
    for job in [FleetJob::Validate, FleetJob::Minimize, FleetJob::Baseline] {
        let reference = run_fleet(&corpus, &options(job, 1));
        assert_eq!(reference.results.len(), corpus.len());
        assert_eq!(reference.workers, 1);

        // The under-tokened graph fails deterministically; everything
        // else comes back clean — the fleet never aborts on it.
        let failures: Vec<_> = reference.failures().collect();
        assert_eq!(failures.len(), 1, "{reference}");
        assert_eq!(failures[0].name, "under-tokened");
        match &failures[0].outcome {
            JobOutcome::Failed { error } => {
                assert!(error.contains("initial tokens"), "{error}");
            }
            other => panic!("expected a Failed outcome, got {other}"),
        }
        assert_eq!(reference.skipped(), 0);

        for workers in [2usize, 3, 8, 0] {
            let report = run_fleet(&corpus, &options(job, workers));
            assert_eq!(
                report.results, reference.results,
                "job {job}, workers {workers}: merged results must be bit-identical"
            );
            assert_eq!(
                report.worker_metrics.iter().map(|m| m.jobs).sum::<usize>(),
                corpus.len(),
                "every graph is executed exactly once"
            );
        }
    }
}

#[test]
fn fleet_minimize_matches_the_direct_search() {
    // A fleet Minimize job is exactly minimize_capacities with the
    // battery collapsed to one thread — same edges, same probe counts.
    let corpus = mixed_corpus();
    let fleet = run_fleet(&corpus, &options(FleetJob::Minimize, 3));
    let direct_opts = SearchOptions {
        validation: options(FleetJob::Minimize, 1).battery_options(),
        ..SearchOptions::default()
    };
    for (item, result) in corpus.iter().zip(&fleet.results) {
        let Ok(analysis) = compute_buffer_capacities(&item.graph, item.constraint) else {
            assert!(matches!(result.outcome, JobOutcome::Failed { .. }));
            continue;
        };
        let direct = minimize_capacities(&item.graph, &analysis, &direct_opts)
            .expect("the direct search constructs");
        match &result.outcome {
            JobOutcome::Minimized {
                baseline_clear,
                edges,
                probes,
                ..
            } => {
                assert_eq!(*baseline_clear, direct.baseline_clear, "{}", item.name);
                assert_eq!(edges, &direct.edges, "{}", item.name);
                assert_eq!(*probes, direct.probes, "{}", item.name);
            }
            other => panic!("{}: expected a Minimized outcome, got {other}", item.name),
        }
    }
}
