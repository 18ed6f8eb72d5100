//! End-to-end reproduction of the paper's MP3 playback case study
//! (Section 5): the published capacities, the intermediate quantities they
//! derive from, the producer–consumer pair shortcut, and the infeasibility
//! error paths.

use vrdf_core::{
    compute_buffer_capacities, compute_buffer_capacities_with, pair_capacity, rat, AnalysisError,
    AnalysisOptions, ConstrainedRelease, QuantumSet, Rational, TaskGraph, ThroughputConstraint,
};

/// The MP3 playback chain of Fig. 5 with the paper's response times (s).
fn mp3_chain() -> TaskGraph {
    TaskGraph::linear_chain(
        [
            ("vBR", rat(512, 10_000)),
            ("vMP3", rat(24, 1000)),
            ("vSRC", rat(10, 1000)),
            ("vDAC", rat(1, 44_100)),
        ],
        [
            (
                "d1",
                QuantumSet::constant(2048),
                QuantumSet::range_inclusive(0, 960).unwrap(),
            ),
            ("d2", QuantumSet::constant(1152), QuantumSet::constant(480)),
            ("d3", QuantumSet::constant(441), QuantumSet::constant(1)),
        ],
    )
    .unwrap()
}

fn dac_constraint() -> ThroughputConstraint {
    ThroughputConstraint::on_sink(rat(1, 44_100)).unwrap()
}

#[test]
fn published_capacities_end_to_end() {
    let mut tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, dac_constraint()).unwrap();

    let caps: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
    assert_eq!(caps, vec![6015, 3263, 882], "the Section 5 table");
    assert_eq!(analysis.total_capacity(), 10_160);

    // Applying writes ζ(b) back into the task graph.
    analysis.apply(&mut tg);
    for (name, expected) in [("d1", 6015), ("d2", 3263), ("d3", 882)] {
        let id = tg.buffer_by_name(name).unwrap();
        assert_eq!(tg.buffer(id).capacity(), Some(expected), "{name}");
    }
}

#[test]
fn intermediate_quantities_match_the_paper() {
    let tg = mp3_chain();
    let analysis = compute_buffer_capacities(&tg, dac_constraint()).unwrap();

    // φ values: the response times of Section 5 "just allow" the
    // constraint, i.e. each equals its bound φ(v).
    let rates = analysis.rates();
    let phi = |name: &str| rates.phi(tg.task_by_name(name).unwrap());
    assert_eq!(phi("vDAC"), rat(1, 44_100));
    assert_eq!(phi("vSRC"), rat(10, 1000));
    assert_eq!(phi("vMP3"), rat(24, 1000));
    assert_eq!(phi("vBR"), rat(512, 10_000));

    // Token periods of the linear bounds per buffer.
    let caps = analysis.capacities();
    assert_eq!(caps[0].token_period, rat(24, 1000) / rat(960, 1));
    assert_eq!(caps[1].token_period, rat(10, 1000) / rat(480, 1));
    assert_eq!(caps[2].token_period, rat(1, 44_100));

    // Maximum quanta drive the gaps.
    assert_eq!(caps[0].producer_max_quantum, 2048);
    assert_eq!(caps[0].consumer_max_quantum, 960);
    assert_eq!(caps[2].producer_max_quantum, 441);
    assert_eq!(caps[2].consumer_max_quantum, 1);
}

#[test]
fn literal_equation_3_costs_one_extra_container_on_d3() {
    // The published d3 = 882 corresponds to the strictly periodic DAC
    // freeing containers at its firing start; the literal Eq. (3)
    // convention adds its response time and exactly one container.
    let tg = mp3_chain();
    let literal = compute_buffer_capacities_with(
        &tg,
        dac_constraint(),
        AnalysisOptions {
            release: ConstrainedRelease::AfterResponseTime,
        },
    )
    .unwrap();
    let caps: Vec<u64> = literal.capacities().iter().map(|c| c.capacity).collect();
    assert_eq!(caps, vec![6015, 3263, 883]);
}

#[test]
fn pair_capacity_shortcut_agrees_with_the_chain_analysis() {
    // The d3 pair (vSRC → vDAC) analysed standalone via the Fig. 2
    // shortcut, which uses the literal-Eq.-3 convention.
    let shortcut = pair_capacity(
        QuantumSet::constant(441),
        QuantumSet::constant(1),
        rat(10, 1000),
        rat(1, 44_100),
        rat(1, 44_100),
    )
    .unwrap();
    assert_eq!(shortcut.capacity, 883);
    assert_eq!(shortcut.token_period, rat(1, 44_100));

    // And the zero-response-time sanity floor: π̂ + γ̂ − 1.
    let floor = pair_capacity(
        QuantumSet::constant(441),
        QuantumSet::constant(1),
        Rational::ZERO,
        Rational::ZERO,
        rat(1, 44_100),
    )
    .unwrap();
    assert_eq!(floor.capacity, 441);
}

#[test]
fn infeasible_response_time_is_rejected_with_the_offending_actor() {
    // Slowing the sample-rate converter past its 10 ms bound makes the
    // schedule-validity check fail, naming vSRC and both numbers.
    let tg = TaskGraph::linear_chain(
        [
            ("vBR", rat(512, 10_000)),
            ("vMP3", rat(24, 1000)),
            ("vSRC", rat(11, 1000)), // bound is 10 ms
            ("vDAC", rat(1, 44_100)),
        ],
        [
            (
                "d1",
                QuantumSet::constant(2048),
                QuantumSet::range_inclusive(0, 960).unwrap(),
            ),
            ("d2", QuantumSet::constant(1152), QuantumSet::constant(480)),
            ("d3", QuantumSet::constant(441), QuantumSet::constant(1)),
        ],
    )
    .unwrap();
    match compute_buffer_capacities(&tg, dac_constraint()) {
        Err(AnalysisError::InfeasibleResponseTime {
            actor,
            response_time,
            bound,
        }) => {
            assert_eq!(actor, "vSRC");
            assert_eq!(response_time, rat(11, 1000));
            assert_eq!(bound, rat(10, 1000));
        }
        other => panic!("expected InfeasibleResponseTime, got {other:?}"),
    }
}

#[test]
fn zero_production_quantum_is_rejected_in_sink_mode() {
    // A producer that may produce nothing can stall the chain forever; the
    // analysis refuses it on the data side of a sink-constrained chain.
    let tg = TaskGraph::linear_chain(
        [("a", rat(1, 100)), ("b", rat(1, 100))],
        [(
            "buf",
            QuantumSet::new([0, 4]).unwrap(),
            QuantumSet::constant(2),
        )],
    )
    .unwrap();
    match compute_buffer_capacities(&tg, ThroughputConstraint::on_sink(rat(1, 100)).unwrap()) {
        Err(AnalysisError::ZeroQuantumNotSupported { buffer, role }) => {
            assert_eq!(buffer, "buf");
            assert_eq!(role, "production");
        }
        other => panic!("expected ZeroQuantumNotSupported, got {other:?}"),
    }
}

#[test]
fn unanalysable_topologies_are_rejected_before_capacity_assignment() {
    // A fork ending in two sinks: the general analysis accepts the fork
    // but cannot place a sink constraint — the endpoint is ambiguous.
    let mut tg = TaskGraph::new();
    let a = tg.add_task("a", rat(1, 10)).unwrap();
    let b = tg.add_task("b", rat(1, 10)).unwrap();
    let c = tg.add_task("c", rat(1, 10)).unwrap();
    tg.connect("ab", a, b, QuantumSet::constant(1), QuantumSet::constant(1))
        .unwrap();
    tg.connect("ac", a, c, QuantumSet::constant(1), QuantumSet::constant(1))
        .unwrap();
    let constraint = ThroughputConstraint::on_sink(rat(1, 10)).unwrap();
    match compute_buffer_capacities(&tg, constraint) {
        Err(AnalysisError::AmbiguousEndpoint { role, tasks }) => {
            assert_eq!(role, "sink");
            assert_eq!(tasks, vec!["b".to_owned(), "c".to_owned()]);
        }
        other => panic!("expected AmbiguousEndpoint, got {other:?}"),
    }
    // The same fork is analysable source-constrained (unique source `a`).
    assert!(
        compute_buffer_capacities(&tg, ThroughputConstraint::on_source(rat(1, 10)).unwrap())
            .is_ok()
    );
    // A directed cycle is no DAG at all.
    let mut cyclic = TaskGraph::new();
    let x = cyclic.add_task("x", rat(1, 10)).unwrap();
    let y = cyclic.add_task("y", rat(1, 10)).unwrap();
    cyclic
        .connect("xy", x, y, QuantumSet::constant(1), QuantumSet::constant(1))
        .unwrap();
    cyclic
        .connect("yx", y, x, QuantumSet::constant(1), QuantumSet::constant(1))
        .unwrap();
    assert!(matches!(
        compute_buffer_capacities(&cyclic, constraint),
        Err(AnalysisError::NotADag { .. })
    ));
}
