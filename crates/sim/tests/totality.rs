//! Totality corpus: every public analysis and simulation entry point
//! must return `Err` on malformed input — never panic, never abort.
//!
//! Each corpus entry is a deliberately pathological graph (cycles,
//! orphans, zero rates, zero quanta, huge denominators, zero
//! capacities, Eq. (1)–(4) values past the exact arithmetic's range).
//! The test drives the full public pipeline over each — the VRDF
//! analysis and both constant-rate (SDF) analyses, the scenario battery,
//! the minimization search, both simulator engines — and requires that
//! each call returns *some* `Result` (or a graded report) without
//! unwinding, and an error for a battery of zero endpoint firings.

use vrdf_core::{
    compute_buffer_capacities, rat, AnalysisError, PairGaps, QuantumSet, Rational, TaskGraph,
    ThroughputConstraint,
};
use vrdf_sdf::{analyze, baseline_capacities, CsdfGraph, SdfError};
use vrdf_sim::{
    conservative_offset, minimize_capacities, validate_capacities,
    validate_capacities_under_faults, FaultPlan, FaultValidationOptions, QuantumPlan,
    QuantumPolicy, ReferenceSimulator, SearchOptions, SimConfig, SimError, SimOutcome, Simulator,
    ValidationOptions,
};

/// One pathological graph plus the constraint to analyse it under.
struct Pathology {
    name: &'static str,
    tg: TaskGraph,
    constraint: ThroughputConstraint,
    /// `true` when the graph is structurally sound and the pipeline is
    /// expected to go all the way through (e.g. zero capacities: a valid
    /// graph that deadlocks operationally instead of erroring).
    analysable: bool,
}

fn constraint() -> ThroughputConstraint {
    ThroughputConstraint::on_sink(rat(2, 1)).expect("positive period")
}

fn corpus() -> Vec<Pathology> {
    let mut out = Vec::new();

    // A two-task cycle: a → b → a.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect("ba", b, a, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "cycle",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // A self-loop: a → a.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    tg.connect("aa", a, a, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "self-loop",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // A declared feedback edge with zero initial tokens: the cycle is
    // never broken, so the analysis must refuse with `UnbrokenCycle`.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect_feedback(
        "ba",
        b,
        a,
        QuantumSet::constant(1),
        QuantumSet::constant(1),
        0,
    )
    .expect("buffer");
    out.push(Pathology {
        name: "zero-token-feedback",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // The same loop with the cycle properly broken by initial tokens:
    // a legal cyclic graph, the whole pipeline must run through.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect_feedback(
        "ba",
        b,
        a,
        QuantumSet::constant(1),
        QuantumSet::constant(1),
        4,
    )
    .expect("buffer");
    out.push(Pathology {
        name: "tokened-feedback",
        tg,
        constraint: constraint(),
        analysable: true,
    });

    // A rate-deficient feedback edge strictly upstream of the sink: the
    // loop's head consumes two credits for every one the tail returns,
    // so the relaxation cannot converge — a typed `UnbrokenCycle`, not
    // an infinite loop.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    let c = tg.add_task("c", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect("bc", b, c, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect_feedback(
        "ba",
        b,
        a,
        QuantumSet::constant(1),
        QuantumSet::constant(2),
        4,
    )
    .expect("buffer");
    out.push(Pathology {
        name: "rate-deficient-feedback",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // An orphan task disconnected from the chain.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.add_task("orphan", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "orphan-task",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // Two disjoint chains: ambiguous endpoint.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    let c = tg.add_task("c", rat(1, 1)).expect("task");
    let d = tg.add_task("d", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    tg.connect("cd", c, d, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    out.push(Pathology {
        name: "two-components",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // The empty graph.
    out.push(Pathology {
        name: "empty",
        tg: TaskGraph::new(),
        constraint: constraint(),
        analysable: false,
    });

    // A single task with no buffers at all: a legal one-node DAG, so
    // the whole pipeline must run through on an empty capacity list.
    let mut tg = TaskGraph::new();
    tg.add_task("lonely", rat(1, 1)).expect("task");
    out.push(Pathology {
        name: "bufferless",
        tg,
        constraint: constraint(),
        analysable: true,
    });

    // Zero response times end to end: infinitely fast tasks are legal.
    let tg = TaskGraph::linear_chain(
        [("a", Rational::ZERO), ("b", Rational::ZERO)],
        [("ab", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "zero-response-times",
        tg,
        constraint: constraint(),
        analysable: true,
    });

    // A quantum set containing zero: a firing may move no data at all.
    let tg = TaskGraph::linear_chain(
        [("a", rat(1, 1)), ("b", rat(1, 1))],
        [(
            "ab",
            QuantumSet::new([0, 2]).expect("non-empty set"),
            QuantumSet::constant(1),
        )],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "zero-production-quantum",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    // Denominators near the i128 edge: the analysis reduces them fine,
    // and the tick engine must refuse with `TickOverflow` rather than
    // wrap.
    let huge = i128::MAX / 2 - 1;
    let tg = TaskGraph::linear_chain(
        [
            ("a", Rational::new(1, huge)),
            ("b", Rational::new(1, huge - 2)),
        ],
        [("ab", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "huge-denominators",
        tg,
        constraint: ThroughputConstraint::on_sink(Rational::new(1, 3)).expect("positive"),
        analysable: true,
    });

    // Wildly mismatched rates: the consumer needs 10^12 tokens per
    // firing, forcing a producer rate its response time cannot meet —
    // a typed `InfeasibleResponseTime`, not a wrapped multiply.
    let tg = TaskGraph::linear_chain(
        [("a", rat(1, 1)), ("b", rat(1, 1))],
        [(
            "ab",
            QuantumSet::constant(1),
            QuantumSet::constant(1_000_000_000_000),
        )],
    )
    .expect("valid chain");
    out.push(Pathology {
        name: "mismatched-rates",
        tg,
        constraint: constraint(),
        analysable: false,
    });

    out.extend(overflowing());
    out
}

/// Pairs whose Eq. (1)–(4) values leave the range of the exact
/// arithmetic: every analysis — VRDF and both constant-rate ones — must
/// refuse them with `ArithmeticOverflow`.
fn overflowing() -> Vec<Pathology> {
    // Quanta near 2^63: the Eq. (4) capacity overflows u64.
    let huge_quantum = (1u64 << 63) - 1;
    let wrap = TaskGraph::linear_chain(
        [("a", rat(1, 3)), ("b", rat(1, 5))],
        [(
            "ab",
            QuantumSet::constant(huge_quantum),
            QuantumSet::new([1, huge_quantum]).expect("non-empty set"),
        )],
    )
    .expect("valid chain");
    // Coprime denominators near i128::MAX / 2: the bound distances
    // overflow i128 rationals.
    let h = i128::MAX / 2 - 1;
    let fine = TaskGraph::linear_chain(
        [("a", Rational::new(1, h)), ("b", Rational::new(1, h - 2))],
        [(
            "ab",
            QuantumSet::constant(3),
            QuantumSet::new([1, 2]).expect("non-empty set"),
        )],
    )
    .expect("valid chain");
    // Two buffers of 2^64 − 3 containers each: every capacity fits u64,
    // their total does not.
    let q = QuantumSet::constant(huge_quantum);
    let zero = Rational::ZERO;
    let total = TaskGraph::linear_chain(
        [("a", zero), ("b", zero), ("c", zero)],
        [("ab", q.clone(), q.clone()), ("bc", q.clone(), q)],
    )
    .expect("valid chain");
    vec![
        Pathology {
            name: "capacity-past-u64",
            tg: wrap,
            constraint: ThroughputConstraint::on_sink(rat(1, 1)).expect("positive"),
            analysable: false,
        },
        Pathology {
            name: "gaps-past-i128",
            tg: fine,
            constraint: ThroughputConstraint::on_sink(Rational::new(1, h - 4)).expect("positive"),
            analysable: false,
        },
        Pathology {
            name: "total-past-u64",
            tg: total,
            constraint: ThroughputConstraint::on_sink(rat(1, 1)).expect("positive"),
            analysable: false,
        },
    ]
}

/// Small, fast batteries: the second one's random seeds wrap past
/// `u64::MAX`, and the third checks no endpoint firing at all.
fn batteries() -> [ValidationOptions; 3] {
    let quick = ValidationOptions {
        endpoint_firings: 20,
        random_runs: 1,
        ..ValidationOptions::default()
    };
    let wrapping = ValidationOptions {
        base_seed: u64::MAX,
        random_runs: 2,
        ..quick.clone()
    };
    let empty = ValidationOptions {
        endpoint_firings: 0,
        ..quick.clone()
    };
    [quick, wrapping, empty]
}

#[test]
fn every_entry_point_is_total_over_the_pathology_corpus() {
    for p in corpus() {
        // Both constant-rate analyses, whatever the VRDF disposition.
        let _ = baseline_capacities(&p.tg, p.constraint);
        let _ = analyze(&CsdfGraph::lower_constant_max(&p.tg), p.constraint);

        // Analysis: Err for the structurally broken graphs, Ok otherwise.
        let analysis = compute_buffer_capacities(&p.tg, p.constraint);
        assert_eq!(
            analysis.is_ok(),
            p.analysable,
            "{}: analysis disposition changed — got {analysis:?}",
            p.name
        );
        let Ok(analysis) = analysis else { continue };

        // The scenario battery, fault battery, and minimization search
        // must all return rather than unwind.
        let faults = FaultPlan::new().stall(
            p.tg.tasks().next().map(|(_, t)| t.name()).unwrap_or(""),
            0,
            1,
            rat(1, 2),
        );
        let offset = conservative_offset(&p.tg, &analysis);
        for battery in batteries() {
            let runs = [
                validate_capacities(&p.tg, &analysis, &battery).map(drop),
                validate_capacities_under_faults(
                    &p.tg,
                    &analysis,
                    &[],
                    &faults,
                    &FaultValidationOptions {
                        validation: battery.clone(),
                        recovery_firings: 2,
                    },
                )
                .map(drop),
                minimize_capacities(
                    &p.tg,
                    &analysis,
                    &SearchOptions {
                        validation: battery.clone(),
                        ..SearchOptions::default()
                    },
                )
                .map(drop),
            ];
            // A battery of zero endpoint firings would pass whatever the
            // capacities: each entry point refuses it, once the offset
            // it runs at is representable at all.
            if battery.endpoint_firings == 0 {
                for run in runs {
                    assert!(
                        match run {
                            Err(SimError::NoEndpointFirings) => true,
                            Err(_) => offset.is_err(),
                            Ok(()) => false,
                        },
                        "{}: a zero-firing battery gave {run:?}",
                        p.name
                    );
                }
            }
        }

        // Both engines, straight on the sized graph.  The conservative
        // offset itself may be unrepresentable (huge denominators) — a
        // typed error, after which there is nothing left to simulate.
        let sized = analysis.with_capacities(&p.tg, &[]);
        let Ok(offset) = offset else {
            continue;
        };
        let mut config = SimConfig::periodic(p.constraint, offset);
        config.max_endpoint_firings = 20;
        if let Ok(sim) = Simulator::new(
            &sized,
            QuantumPlan::uniform(QuantumPolicy::Max),
            config.clone(),
        ) {
            let _ = sim.run();
        }
        if let Ok(sim) =
            ReferenceSimulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config)
        {
            let _ = sim.run();
        }
    }
}

#[test]
fn every_analysis_refuses_an_overflowing_pair_with_a_typed_error() {
    // The overflowing computation, when the error is `ArithmeticOverflow`.
    fn overflow(e: AnalysisError) -> Option<&'static str> {
        match e {
            AnalysisError::ArithmeticOverflow { context } => Some(context),
            _ => None,
        }
    }
    fn sdf_overflow(e: SdfError) -> Option<&'static str> {
        match e {
            SdfError::Core(e) => overflow(e),
            _ => None,
        }
    }
    for p in overflowing() {
        let vrdf = compute_buffer_capacities(&p.tg, p.constraint)
            .err()
            .and_then(overflow);
        let baseline = baseline_capacities(&p.tg, p.constraint)
            .err()
            .and_then(sdf_overflow);
        let lowered = analyze(&CsdfGraph::lower_constant_max(&p.tg), p.constraint)
            .err()
            .and_then(sdf_overflow);
        assert!(
            vrdf.is_some(),
            "{}: the VRDF analysis must overflow",
            p.name
        );
        // One Eq. (1)–(4) path: all three stop at the same equation.
        assert_eq!(baseline, vrdf, "{}: baseline analysis", p.name);
        assert_eq!(lowered, vrdf, "{}: constant-max analysis", p.name);
    }
}

#[test]
fn zero_capacities_deadlock_instead_of_erroring() {
    // A structurally valid graph whose capacities are forced to zero is
    // an *operational* pathology: construction succeeds and the run
    // reports deadlock.
    let mut tg = TaskGraph::linear_chain(
        [("a", rat(1, 1)), ("b", rat(1, 1))],
        [("ab", QuantumSet::constant(1), QuantumSet::constant(1))],
    )
    .expect("valid chain");
    let ab = tg.buffer_by_name("ab").expect("buffer exists");
    tg.set_capacity(ab, 0);
    let mut config = SimConfig::self_timed(constraint());
    config.max_endpoint_firings = 20;
    for engine in ["tick", "reference"] {
        let outcome = if engine == "tick" {
            Simulator::new(
                &tg,
                QuantumPlan::uniform(QuantumPolicy::Max),
                config.clone(),
            )
            .expect("valid construction")
            .run()
            .outcome
        } else {
            ReferenceSimulator::new(
                &tg,
                QuantumPlan::uniform(QuantumPolicy::Max),
                config.clone(),
            )
            .expect("valid construction")
            .run()
            .outcome
        };
        assert!(
            matches!(outcome, SimOutcome::Deadlock { .. }),
            "{engine}: zero capacity must deadlock, got {outcome:?}"
        );
    }
}

#[test]
fn overfilled_feedback_edge_is_a_typed_sim_error() {
    // Forcing a feedback buffer's capacity below its initial tokens is
    // unrepresentable — the pre-filled containers would not fit.  Both
    // engines must refuse at construction with the typed error, never
    // panic mid-run.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 1)).expect("task");
    let b = tg.add_task("b", rat(1, 1)).expect("task");
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .expect("buffer");
    let ba = tg
        .connect_feedback(
            "ba",
            b,
            a,
            QuantumSet::constant(1),
            QuantumSet::constant(1),
            4,
        )
        .expect("buffer");
    let analysis = compute_buffer_capacities(&tg, constraint()).expect("analysable");
    let mut sized = tg.clone();
    analysis.apply(&mut sized);
    sized.set_capacity(ba, 2); // below δ0 = 4
    let mut config = SimConfig::self_timed(constraint());
    config.max_endpoint_firings = 20;
    let tick = Simulator::new(
        &sized,
        QuantumPlan::uniform(QuantumPolicy::Max),
        config.clone(),
    );
    assert!(
        matches!(
            tick,
            Err(vrdf_sim::SimError::InitialTokensExceedCapacity { ref buffer }) if buffer == "ba"
        ),
        "tick engine accepted an over-filled feedback buffer"
    );
    let reference =
        ReferenceSimulator::new(&sized, QuantumPlan::uniform(QuantumPolicy::Max), config);
    assert!(
        matches!(
            reference,
            Err(vrdf_sim::SimError::InitialTokensExceedCapacity { ref buffer }) if buffer == "ba"
        ),
        "reference engine accepted an over-filled feedback buffer"
    );
}

#[test]
fn constructor_level_defects_are_typed_errors() {
    // Negative response time.
    let mut tg = TaskGraph::new();
    assert!(matches!(
        tg.add_task("neg", rat(-1, 2)),
        Err(AnalysisError::NegativeResponseTime { .. })
    ));
    // Duplicate names.
    tg.add_task("a", rat(1, 1)).expect("task");
    assert!(matches!(
        tg.add_task("a", rat(1, 1)),
        Err(AnalysisError::DuplicateName(_))
    ));
    // Empty quantum set.
    assert!(QuantumSet::new([]).is_err());
    // All-zero quantum set: a task that can never move data.
    assert!(matches!(
        QuantumSet::new([0]),
        Err(AnalysisError::ZeroOnlyQuantumSet)
    ));
    // Non-positive constraint periods.
    assert!(ThroughputConstraint::on_sink(Rational::ZERO).is_err());
    assert!(ThroughputConstraint::on_sink(rat(-3, 1)).is_err());
    // Eqs. (1)-(4) of one pair: a non-positive token period and a zero
    // maximum quantum.
    let rho = rat(1, 2);
    assert_eq!(
        PairGaps::new(Rational::ZERO, rho, rho, 3, 3),
        Err(AnalysisError::NonPositivePeriod(Rational::ZERO))
    );
    assert_eq!(
        PairGaps::new(rat(1, 3), rho, rho, 3, 0),
        Err(AnalysisError::ZeroOnlyQuantumSet)
    );
}
