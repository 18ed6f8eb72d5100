//! Differential testing, two independent axes:
//!
//! 1. **Tick vs reference engine**: the integer tick-time engine must be
//!    observably identical to the exact-`Rational` reference executor.
//!    The tick rescaling is exact (the clock is the LCM of every
//!    denominator in the run), so there is no tolerance anywhere in
//!    these comparisons: firing traces, violations, outcomes, endpoint
//!    statistics, buffer statistics, and event counts must match bit for
//!    bit — on the MP3 case study, its fork/join variant, and batteries
//!    of seeded random chains and DAGs, under worst-case, cyclic, and
//!    seeded-random quantum scenarios, in both self-timed and strictly
//!    periodic modes, including under-provisioned runs that end in
//!    deadline misses or deadlock.
//! 2. **CondensedView vs ChainView analysis path**: on every linear graph the
//!    general DAG analysis (`compute_buffer_capacities`, topological
//!    propagation with binding minima) must be bit-identical to the
//!    retained chain walk (`compute_buffer_capacities_via_chain`) —
//!    capacities with all intermediates, per-task `φ`, violations, and
//!    the minimization verdicts built on top of them.

use vrdf_apps::synthetic::{
    fork_join_of, random_chain, random_chain_of_length, random_dag, ChainSpec, DagSpec,
};
use vrdf_apps::{mp3_chain, mp3_constraint, mp3_feedback, mp3_fork_join};
use vrdf_core::{
    compute_buffer_capacities, compute_buffer_capacities_via_chain, AnalysisOptions,
    ConstrainedRelease, QuantumSet, Rational, TaskGraph, ThroughputConstraint,
};
use vrdf_sim::{
    conservative_offset, minimize_capacities, QuantumPlan, QuantumPolicy, ReferenceSimulator,
    SearchOptions, SimConfig, SimReport, Simulator, TraceLevel, ValidationOptions,
};

/// Asserts two reports are observably identical.
fn assert_identical(tick: &SimReport, reference: &SimReport, context: &str) {
    assert_eq!(tick.outcome, reference.outcome, "{context}: outcome");
    assert_eq!(
        tick.violations, reference.violations,
        "{context}: violations"
    );
    assert_eq!(tick.trace, reference.trace, "{context}: firing trace");
    assert_eq!(
        tick.events_processed, reference.events_processed,
        "{context}: event count"
    );
    assert_eq!(tick.end_time, reference.end_time, "{context}: end time");

    assert_eq!(tick.endpoint.task, reference.endpoint.task);
    assert_eq!(tick.endpoint.firings, reference.endpoint.firings);
    assert_eq!(tick.endpoint.first_start, reference.endpoint.first_start);
    assert_eq!(tick.endpoint.last_start, reference.endpoint.last_start);
    assert_eq!(tick.endpoint.max_drift, reference.endpoint.max_drift);
    assert_eq!(tick.endpoint.max_lateness, reference.endpoint.max_lateness);

    assert_eq!(tick.buffers.len(), reference.buffers.len());
    for (t, r) in tick.buffers.iter().zip(&reference.buffers) {
        assert_eq!(t.buffer, r.buffer);
        assert_eq!(t.capacity, r.capacity);
        assert_eq!(t.max_occupancy, r.max_occupancy, "{context}: {}", t.name);
        assert_eq!(t.produced, r.produced);
        assert_eq!(t.consumed, r.consumed);
    }
    assert_eq!(tick.tasks.len(), reference.tasks.len());
    for (t, r) in tick.tasks.iter().zip(&reference.tasks) {
        assert_eq!(t.task, r.task);
        assert_eq!(t.firings, r.firings);
        assert_eq!(t.busy_time, r.busy_time, "{context}: {}", t.name);
    }
}

/// Runs both engines on the same inputs and cross-checks them.
fn run_both(tg: &TaskGraph, plan: &QuantumPlan, config: &SimConfig, context: &str) {
    let tick = Simulator::new(tg, plan.clone(), config.clone())
        .unwrap_or_else(|e| panic!("{context}: tick construction failed: {e}"))
        .run();
    let reference = ReferenceSimulator::new(tg, plan.clone(), config.clone())
        .unwrap_or_else(|e| panic!("{context}: reference construction failed: {e}"))
        .run();
    assert_identical(&tick, &reference, context);
}

fn scenario_plans(seed: u64) -> Vec<(&'static str, QuantumPlan)> {
    vec![
        ("max", QuantumPlan::uniform(QuantumPolicy::Max)),
        ("min", QuantumPlan::uniform(QuantumPolicy::Min)),
        ("random", QuantumPlan::random(seed)),
    ]
}

#[test]
fn mp3_chain_is_identical_across_engines() {
    let tg = mp3_chain();
    let constraint = mp3_constraint();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    for (name, plan) in scenario_plans(0xD1FF) {
        // Strictly periodic at the conservative offset, tracing the
        // endpoint: the paper's verification setup.
        let mut config = SimConfig::periodic(constraint, offset);
        config.max_endpoint_firings = 2_000;
        config.trace = TraceLevel::Endpoint;
        run_both(&sized, &plan, &config, &format!("mp3 periodic {name}"));

        // Self-timed with full traces: exercises drift tracking.
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 2_000;
        config.trace = TraceLevel::All;
        run_both(&sized, &plan, &config, &format!("mp3 self-timed {name}"));
    }
}

#[test]
fn mp3_underprovisioned_violations_are_identical() {
    // Shrinking d3 below its operational minimum forces deadline misses;
    // both engines must report the same ones.
    let tg = mp3_chain();
    let constraint = mp3_constraint();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    let d3 = sized.buffer_by_name("d3").unwrap();
    sized.set_capacity(d3, 800);

    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = 2_000;
    config.stop_on_violation = false;
    config.max_events = 200_000;
    run_both(
        &sized,
        &QuantumPlan::uniform(QuantumPolicy::Max),
        &config,
        "mp3 under-provisioned",
    );
}

#[test]
fn random_chain_battery_is_identical_across_engines() {
    let spec = ChainSpec::default();
    let mut exercised = 0u32;
    for seed in 0..24 {
        let (tg, constraint) = random_chain(seed, &spec).unwrap();
        let analysis = match compute_buffer_capacities(&tg, constraint) {
            Ok(a) => a,
            Err(_) => continue, // generator guarantees feasibility; belt and braces
        };
        let offset = conservative_offset(&tg, &analysis).expect("offset fits");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        for (name, plan) in scenario_plans(seed ^ 0xBEEF) {
            let mut config = SimConfig::periodic(constraint, offset);
            config.max_endpoint_firings = 300;
            config.trace = TraceLevel::All;
            config.max_events = 2_000_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("seed {seed} periodic {name}"),
            );

            let mut config = SimConfig::self_timed(constraint);
            config.max_endpoint_firings = 300;
            config.trace = TraceLevel::All;
            config.max_events = 2_000_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("seed {seed} self-timed {name}"),
            );
        }

        // An under-provisioned variant: drop the first buffer's capacity
        // to its maximum consumption quantum minus one when possible, so
        // violation and deadlock paths are exercised too.
        let (first, cap) = {
            let (id, buffer) = sized.buffers().next().unwrap();
            (id, buffer.capacity().unwrap())
        };
        if cap > 1 {
            sized.set_capacity(first, cap - 1);
            let mut config = SimConfig::periodic(constraint, offset);
            config.max_endpoint_firings = 200;
            config.stop_on_violation = true;
            config.max_events = 2_000_000;
            run_both(
                &sized,
                &QuantumPlan::uniform(QuantumPolicy::Max),
                &config,
                &format!("seed {seed} under-provisioned"),
            );
            exercised += 1;
        }
    }
    assert!(
        exercised >= 10,
        "under-provisioned differential path barely exercised ({exercised} chains)"
    );
}

#[test]
fn negative_offset_is_identical_across_engines() {
    // A first release before t = 0: the endpoint misses until data can
    // reach it; tick times go negative and both engines must agree on
    // every violation.
    let tg = vrdf_apps::fig1_pair();
    let constraint = vrdf_core::ThroughputConstraint::on_sink(Rational::from(3u64)).unwrap();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    let mut config = SimConfig::periodic(constraint, Rational::new(-3, 2));
    config.max_endpoint_firings = 50;
    config.stop_on_violation = false;
    config.trace = TraceLevel::All;
    run_both(
        &sized,
        &QuantumPlan::uniform(QuantumPolicy::Max),
        &config,
        "negative offset",
    );
}

#[test]
fn event_budget_exhaustion_is_identical_across_engines() {
    // Both engines must stop on the same event with the same count when
    // the budget runs out mid-run.
    let tg = mp3_chain();
    let constraint = mp3_constraint();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    let mut config = SimConfig::self_timed(constraint);
    config.max_endpoint_firings = u64::MAX;
    config.max_events = 1_234;
    run_both(
        &sized,
        &QuantumPlan::uniform(QuantumPolicy::Max),
        &config,
        "budget exhaustion",
    );
}

/// Asserts the DAG analysis path and the chain analysis path produced
/// bit-identical results for a linear graph.
fn assert_analysis_identical(tg: &TaskGraph, constraint: ThroughputConstraint, context: &str) {
    for release in [
        ConstrainedRelease::Immediate,
        ConstrainedRelease::AfterResponseTime,
    ] {
        let options = AnalysisOptions {
            release,
            enforce_feasibility: false,
        };
        let via_dag = vrdf_core::compute_buffer_capacities_with(tg, constraint, options)
            .unwrap_or_else(|e| panic!("{context}: dag path failed: {e}"));
        let via_chain = compute_buffer_capacities_via_chain(tg, constraint, options)
            .unwrap_or_else(|e| panic!("{context}: chain path failed: {e}"));
        // Every published field of every capacity, bit for bit.
        assert_eq!(
            via_dag.capacities(),
            via_chain.capacities(),
            "{context} ({release:?}): capacities"
        );
        for (id, _) in tg.tasks() {
            assert_eq!(
                via_dag.rates().phi(id),
                via_chain.rates().phi(id),
                "{context} ({release:?}): phi of task {id}"
            );
        }
        assert_eq!(via_dag.rates().pairs(), via_chain.rates().pairs());
        assert_eq!(via_dag.violations(), via_chain.violations());
        assert_eq!(via_dag.total_capacity(), via_chain.total_capacity());
    }
}

#[test]
fn dag_analysis_path_is_identical_to_chain_path_on_linear_graphs() {
    assert_analysis_identical(&mp3_chain(), mp3_constraint(), "mp3");
    let spec = ChainSpec::default();
    for seed in 0..48 {
        let (tg, constraint) = random_chain(seed, &spec).unwrap();
        assert_analysis_identical(&tg, constraint, &format!("random chain seed {seed}"));
    }
    // A chain inserted sink-first: the two paths must agree positionally
    // (CondensedView orders buffers by producer topo position, not insertion).
    let mut permuted = TaskGraph::new();
    let snk = permuted.add_task("snk", Rational::ONE).unwrap();
    let mid = permuted.add_task("mid", Rational::ONE).unwrap();
    let src = permuted.add_task("src", Rational::ZERO).unwrap();
    let q = |v: u64| vrdf_core::QuantumSet::constant(v);
    permuted.connect("late", mid, snk, q(2), q(2)).unwrap();
    permuted.connect("early", src, mid, q(3), q(3)).unwrap();
    let constraint = ThroughputConstraint::on_sink(Rational::from(4u64)).unwrap();
    assert_analysis_identical(&permuted, constraint, "sink-first insertion order");
}

#[test]
fn dag_analysis_path_yields_identical_minimization_verdicts() {
    // The minimization driver consumes an analysis; feeding it the chain
    // path's and the DAG path's must land on identical per-edge minima,
    // probe counts, and gap tables.
    let opts = SearchOptions {
        validation: ValidationOptions {
            endpoint_firings: 300,
            random_runs: 2,
            ..ValidationOptions::default()
        },
        ..SearchOptions::default()
    };
    let spec = ChainSpec::default();
    for seed in [3, 7, 19] {
        let (tg, constraint) = random_chain(seed, &spec).unwrap();
        let via_dag = compute_buffer_capacities(&tg, constraint).unwrap();
        let via_chain =
            compute_buffer_capacities_via_chain(&tg, constraint, AnalysisOptions::default())
                .unwrap();
        let a = minimize_capacities(&tg, &via_dag, &opts).unwrap();
        let b = minimize_capacities(&tg, &via_chain, &opts).unwrap();
        assert_eq!(a.baseline_clear, b.baseline_clear, "seed {seed}");
        assert_eq!(a.offset, b.offset, "seed {seed}");
        assert_eq!(a.edges, b.edges, "seed {seed}");
        assert_eq!(a.probes, b.probes, "seed {seed}");
        assert_eq!(a.passes, b.passes, "seed {seed}");
    }
}

#[test]
fn fork_join_case_study_is_identical_across_engines() {
    let tg = mp3_fork_join();
    let constraint = mp3_constraint();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    for (name, plan) in scenario_plans(0xF0) {
        let mut config = SimConfig::periodic(constraint, offset);
        config.max_endpoint_firings = 2_000;
        config.trace = TraceLevel::Endpoint;
        run_both(
            &sized,
            &plan,
            &config,
            &format!("fork/join periodic {name}"),
        );

        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 2_000;
        config.trace = TraceLevel::All;
        run_both(
            &sized,
            &plan,
            &config,
            &format!("fork/join self-timed {name}"),
        );
    }

    // Under-provision one channel buffer: the starvation pattern must be
    // identical too.
    let dl = sized.buffer_by_name("dL").unwrap();
    sized.set_capacity(dl, 1152);
    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = 2_000;
    config.stop_on_violation = false;
    config.max_events = 500_000;
    run_both(
        &sized,
        &QuantumPlan::uniform(QuantumPolicy::Max),
        &config,
        "fork/join under-provisioned",
    );
}

#[test]
fn random_dag_battery_is_identical_across_engines() {
    let spec = DagSpec::default();
    for seed in 0..16 {
        let (tg, constraint) = random_dag(seed, &spec).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let offset = conservative_offset(&tg, &analysis).expect("offset fits");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        for (name, plan) in scenario_plans(seed ^ 0xDA6) {
            let mut config = SimConfig::periodic(constraint, offset);
            config.max_endpoint_firings = 250;
            config.trace = TraceLevel::All;
            config.max_events = 2_000_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("dag {seed} periodic {name}"),
            );

            let mut config = SimConfig::self_timed(constraint);
            config.max_endpoint_firings = 250;
            config.trace = TraceLevel::All;
            config.max_events = 2_000_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("dag {seed} self-timed {name}"),
            );
        }
    }
}

#[test]
fn cyclic_dag_battery_is_identical_across_engines() {
    // Feedback edges seed δ0 full containers at reset in both engines;
    // on the cyclic corpus the traces must stay bit-identical the same
    // way they do on the acyclic one.
    let spec = DagSpec {
        feedback_headroom: Some(2),
        ..DagSpec::default()
    };
    for seed in 0..12 {
        let (tg, constraint) = random_dag(seed, &spec).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let offset = conservative_offset(&tg, &analysis).expect("offset fits");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        for (name, plan) in scenario_plans(seed ^ 0xC1C) {
            let mut config = SimConfig::periodic(constraint, offset);
            config.max_endpoint_firings = 250;
            config.trace = TraceLevel::All;
            config.max_events = 2_000_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("cyclic dag {seed} periodic {name}"),
            );

            let mut config = SimConfig::self_timed(constraint);
            config.max_endpoint_firings = 250;
            config.trace = TraceLevel::All;
            config.max_events = 2_000_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("cyclic dag {seed} self-timed {name}"),
            );
        }
    }
}

#[test]
fn mp3_feedback_is_identical_across_engines() {
    let tg = mp3_feedback();
    let constraint = mp3_constraint();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    for (name, plan) in scenario_plans(0xFBED) {
        let mut config = SimConfig::periodic(constraint, offset);
        config.max_endpoint_firings = 2_000;
        config.trace = TraceLevel::Endpoint;
        run_both(
            &sized,
            &plan,
            &config,
            &format!("mp3-feedback periodic {name}"),
        );

        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = 2_000;
        config.trace = TraceLevel::All;
        run_both(
            &sized,
            &plan,
            &config,
            &format!("mp3-feedback self-timed {name}"),
        );
    }
}

#[test]
fn under_tokened_cycle_deadlocks_identically_across_engines() {
    // δ0 = 2 credits but the loop's head needs 4 per firing: nothing can
    // ever fire.  The analysis accepts the graph (the rates are
    // balanced); the wedge is operational, and both engines must report
    // the identical immediate deadlock.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", Rational::ONE).unwrap();
    let b = tg.add_task("b", Rational::ONE).unwrap();
    tg.connect("ab", a, b, QuantumSet::constant(4), QuantumSet::constant(4))
        .unwrap();
    tg.connect_feedback(
        "ba",
        b,
        a,
        QuantumSet::constant(4),
        QuantumSet::constant(4),
        2,
    )
    .unwrap();
    let constraint = ThroughputConstraint::on_sink(Rational::from(8u64)).unwrap();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    let mut config = SimConfig::self_timed(constraint);
    config.max_endpoint_firings = 10;
    run_both(
        &sized,
        &QuantumPlan::uniform(QuantumPolicy::Max),
        &config,
        "under-tokened cycle",
    );
    let report = Simulator::new(
        &sized,
        QuantumPlan::uniform(QuantumPolicy::Max),
        config.clone(),
    )
    .unwrap()
    .run();
    assert!(
        matches!(report.outcome, vrdf_sim::SimOutcome::Deadlock { .. }),
        "expected a deadlock, got {:?}",
        report.outcome
    );
}

/// Picks a buffer roughly mid-graph and strangles it below the maximum
/// production quantum, so a max-quanta scenario eventually wedges every
/// task: the upstream half fills, the downstream half starves.
fn strangle_mid_buffer(sized: &mut TaskGraph) {
    let (id, cap) = {
        let (id, buffer) = sized
            .buffers()
            .nth(sized.buffer_count() / 2)
            .expect("graphs here have buffers");
        (id, buffer.production().max().saturating_sub(1))
    };
    sized.set_capacity(id, cap);
}

#[test]
fn large_chain_battery_is_identical_across_engines() {
    // 128- and 256-task chains: the flat-arena engine's bucketed event
    // wheel, dirty bitmaps, and CSR adjacency all cross their one-word /
    // one-cache-line boundaries here, where an indexing slip would hide
    // from the small-graph batteries.  Event budgets keep the reference
    // engine's exact-rational runs debug-test sized; both engines must
    // agree on where the budget bites, bit for bit.  The rho grid bounds the
    // tick clock's denominator LCM; the quanta run at the full default
    // spec — the generator's rate-ratio bound keeps the cumulative rate
    // ratios of a 256-hop chain inside i128 rationals.
    let spec = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    for len in [128usize, 256] {
        let (tg, constraint) = random_chain_of_length(97, len, &spec).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let offset = conservative_offset(&tg, &analysis).expect("offset fits");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        for (name, plan) in scenario_plans(0x1A26 ^ len as u64) {
            let mut config = SimConfig::periodic(constraint, offset);
            config.max_endpoint_firings = 40;
            config.trace = TraceLevel::All;
            config.max_events = 60_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("chain-{len} periodic {name}"),
            );

            let mut config = SimConfig::self_timed(constraint);
            config.max_endpoint_firings = 40;
            config.trace = TraceLevel::All;
            config.max_events = 60_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("chain-{len} self-timed {name}"),
            );
        }

        // Under-provisioned periodic: deadline misses at scale.
        let mut missing = sized.clone();
        let (first, cap) = missing
            .buffers()
            .find_map(|(id, buffer)| {
                let cap = buffer.capacity().unwrap();
                (cap > 1).then_some((id, cap))
            })
            .unwrap_or_else(|| panic!("chain-{len}: no buffer large enough to shrink"));
        missing.set_capacity(first, cap - 1);
        let mut config = SimConfig::periodic(constraint, offset);
        config.max_endpoint_firings = 40;
        config.stop_on_violation = false;
        config.max_events = 60_000;
        run_both(
            &missing,
            &QuantumPlan::uniform(QuantumPolicy::Max),
            &config,
            &format!("chain-{len} under-provisioned"),
        );

        // Strangled self-timed: both engines must wedge on the same
        // deadlock, or agree on the budget if it bites first.
        let mut wedged = sized.clone();
        strangle_mid_buffer(&mut wedged);
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = u64::MAX;
        config.max_events = 60_000;
        run_both(
            &wedged,
            &QuantumPlan::uniform(QuantumPolicy::Max),
            &config,
            &format!("chain-{len} strangled"),
        );
    }
}

#[test]
fn wide_fork_join_battery_is_identical_across_engines() {
    // Wide and deep fork/join DAGs: a 48-way fork makes single firings
    // touch ~100 buffer states at once, the widest adjacency the flat
    // CSR arrays see anywhere in the suite.
    let spec = DagSpec {
        rho_grid_subdivision: Some(1024),
        ..DagSpec::default()
    };
    for (width, depth) in [(48usize, 2usize), (16, 4)] {
        let (tg, constraint) = fork_join_of(51, width, depth, &spec).unwrap();
        let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
        let offset = conservative_offset(&tg, &analysis).expect("offset fits");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        for (name, plan) in scenario_plans(0xF02C ^ (width * depth) as u64) {
            let mut config = SimConfig::periodic(constraint, offset);
            config.max_endpoint_firings = 60;
            config.trace = TraceLevel::All;
            config.max_events = 60_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("fork-join w{width}-d{depth} periodic {name}"),
            );

            let mut config = SimConfig::self_timed(constraint);
            config.max_endpoint_firings = 60;
            config.trace = TraceLevel::All;
            config.max_events = 60_000;
            run_both(
                &sized,
                &plan,
                &config,
                &format!("fork-join w{width}-d{depth} self-timed {name}"),
            );
        }

        let mut wedged = sized.clone();
        strangle_mid_buffer(&mut wedged);
        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = u64::MAX;
        config.max_events = 60_000;
        run_both(
            &wedged,
            &QuantumPlan::uniform(QuantumPolicy::Max),
            &config,
            &format!("fork-join w{width}-d{depth} strangled"),
        );
    }
}

#[test]
fn reused_plan_state_is_identical_to_fresh_engines() {
    // The construct-once/reset-many lifecycle: one SimPlan and one
    // SimState replayed across scenarios and capacity overrides must be
    // indistinguishable from a fresh Simulator — and from the reference
    // engine — on every run, in any order.
    use vrdf_sim::SimPlan;

    let spec = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    let (tg, constraint) = random_chain_of_length(7, 128, &spec).unwrap();
    let analysis = compute_buffer_capacities(&tg, constraint).unwrap();
    let offset = conservative_offset(&tg, &analysis).expect("offset fits");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);

    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = 30;
    config.trace = TraceLevel::All;
    config.max_events = 40_000;

    let plan = SimPlan::new(&sized, config.clone()).unwrap();
    let mut state = plan.state();
    for (name, quanta) in scenario_plans(0x5EED) {
        let reused = plan.run(&mut state, &quanta).unwrap();
        let fresh = Simulator::new(&sized, quanta.clone(), config.clone())
            .unwrap()
            .run();
        let reference = ReferenceSimulator::new(&sized, quanta.clone(), config.clone())
            .unwrap()
            .run();
        assert_identical(&reused, &fresh, &format!("plan-reuse {name} vs fresh"));
        assert_identical(
            &reused,
            &reference,
            &format!("plan-reuse {name} vs reference"),
        );
    }

    // Capacity overrides through the same state: probe a shrunken first
    // buffer without touching the graph, then confirm a full-capacity
    // run on the very same state is unaffected by the detour.
    let (first, cap) = {
        let (id, buffer) = sized.buffers().next().unwrap();
        (id, buffer.capacity().unwrap())
    };
    assert!(cap > 1);
    let quanta = QuantumPlan::uniform(QuantumPolicy::Max);
    let overridden = plan
        .run_with_capacities(&mut state, &quanta, &[(first, cap - 1)])
        .unwrap();
    let mut shrunk = sized.clone();
    shrunk.set_capacity(first, cap - 1);
    let fresh = Simulator::new(&shrunk, quanta.clone(), config.clone())
        .unwrap()
        .run();
    assert_identical(&overridden, &fresh, "plan-reuse override vs fresh");

    let replay = plan.run(&mut state, &quanta).unwrap();
    let fresh = Simulator::new(&sized, quanta.clone(), config.clone())
        .unwrap()
        .run();
    assert_identical(&replay, &fresh, "plan-reuse after override vs fresh");
}
