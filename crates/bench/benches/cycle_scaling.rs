//! Scaling over cyclic graphs: analysis and tick-engine simulation cost
//! on a loop length × initial-token grid of seeded chains closed by a
//! feedback edge ([`vrdf_apps::synthetic::fork_join_of`] with
//! [`DagSpec::feedback_headroom`]).
//!
//! The companion to `dag_scaling` past the acyclic restriction: loop
//! length scales how far the relaxation fixpoint has to propagate rates
//! around the cycle, headroom scales the feedback edge's initial-token
//! count δ0 (δ0 grows with both axes, so the token column is emitted
//! per case).
//!
//! ```console
//! $ cargo bench -p vrdf-bench --bench cycle_scaling
//! ```

use vrdf_apps::synthetic::{fork_join_of, DagSpec};
use vrdf_bench::{emit, time_per_iteration, BenchOpts};
use vrdf_core::compute_buffer_capacities;
use vrdf_sim::{QuantumPlan, QuantumPolicy, SimConfig, Simulator};

fn main() {
    let opts = BenchOpts::from_args(3, 15);
    // (loop length, feedback headroom): width-1 fork/joins are chains,
    // and the sink -> source feedback edge closes a cycle spanning every
    // task, so loop length == task count.
    let grid: &[(usize, u64)] = if opts.smoke {
        &[(2, 0), (4, 8)]
    } else {
        &[
            (2, 0),
            (2, 8),
            (2, 64),
            (8, 0),
            (8, 8),
            (8, 64),
            (32, 0),
            (32, 8),
            (32, 64),
        ]
    };
    let spec_base = DagSpec {
        rho_grid_subdivision: Some(1024),
        ..DagSpec::default()
    };
    let firings = opts.scale(2_000, 50);

    for &(depth, headroom) in grid {
        let spec = DagSpec {
            feedback_headroom: Some(headroom),
            ..spec_base.clone()
        };
        let (tg, constraint) =
            fork_join_of(42, 1, depth, &spec).expect("generator yields a valid cyclic graph");
        let tasks = tg.task_count();
        let fb = tg.buffer_by_name("fb").expect("feedback edge is present");
        let tokens = tg.buffer(fb).initial_tokens();
        let analysis =
            compute_buffer_capacities(&tg, constraint).expect("generated cycles are feasible");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        let case = format!("l{tasks}-h{headroom}");
        let analysis_m = time_per_iteration(opts.warmup, opts.iterations, || {
            let a = compute_buffer_capacities(&tg, constraint).expect("feasible");
            std::hint::black_box(a.capacities().len());
        });
        emit(
            "cycle_scaling",
            &format!("analysis-{case}"),
            &analysis_m,
            &[
                ("loop_len", tasks as f64),
                ("headroom", headroom as f64),
                ("initial_tokens", tokens as f64),
            ],
        );

        let mut config = SimConfig::self_timed(constraint);
        config.max_endpoint_firings = firings;
        let probe = Simulator::new(
            &sized,
            QuantumPlan::uniform(QuantumPolicy::Max),
            config.clone(),
        )
        .expect("construction succeeds")
        .run();
        assert!(probe.ok(), "{case}: {:?}", probe.outcome);
        let events = probe.events_processed as f64;

        let sim_m = time_per_iteration(opts.warmup, opts.iterations, || {
            let report = Simulator::new(
                &sized,
                QuantumPlan::uniform(QuantumPolicy::Max),
                config.clone(),
            )
            .expect("construction succeeds")
            .run();
            std::hint::black_box(report.events_processed);
        });
        let events_per_sec = events / sim_m.median().as_secs_f64();
        emit(
            "cycle_scaling",
            &format!("sim-{case}"),
            &sim_m,
            &[
                ("loop_len", tasks as f64),
                ("headroom", headroom as f64),
                ("initial_tokens", tokens as f64),
                ("events", events),
                ("events_per_sec", events_per_sec),
            ],
        );
    }
}
