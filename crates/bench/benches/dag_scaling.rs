//! Scaling over fork/join topology: analysis and tick-engine simulation
//! cost on a fork width × branch depth grid of seeded balanced DAGs
//! ([`vrdf_apps::synthetic::fork_join_of`]).
//!
//! The companion to `chain_scaling` past the chain restriction: width
//! scales the number of buffers a single fork/join firing touches (and
//! the breadth of the binding-minimum rate propagation), depth scales
//! the pipeline the way chain length does.
//!
//! ```console
//! $ cargo bench -p vrdf-bench --bench dag_scaling
//! ```

use vrdf_apps::synthetic::{fork_join_of, DagSpec};
use vrdf_bench::{emit, time_per_iteration, BenchOpts};
use vrdf_core::compute_buffer_capacities;
use vrdf_sim::{QuantumPlan, QuantumPolicy, SimConfig, Simulator};

fn main() {
    let opts = BenchOpts::from_args(3, 15);
    let grid: &[(usize, usize)] = if opts.smoke {
        &[(2, 2), (4, 2)]
    } else {
        &[
            (2, 2),
            (2, 8),
            (2, 32),
            (8, 2),
            (8, 8),
            (8, 32),
            (32, 2),
            (32, 8),
        ]
    };
    let spec = DagSpec {
        rho_grid_subdivision: Some(1024),
        ..DagSpec::default()
    };
    let firings = opts.scale(2_000, 50);

    for &(width, depth) in grid {
        let (tg, constraint) =
            fork_join_of(42, width, depth, &spec).expect("generator yields a valid DAG");
        let tasks = tg.task_count();
        let analysis =
            compute_buffer_capacities(&tg, constraint).expect("generated DAGs are feasible");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        let case = format!("w{width}-d{depth}");
        let analysis_m = time_per_iteration(opts.warmup, opts.iterations, || {
            let a = compute_buffer_capacities(&tg, constraint).expect("feasible");
            std::hint::black_box(a.capacities().len());
        });
        emit(
            "dag_scaling",
            &format!("analysis-{case}"),
            &analysis_m,
            &[
                ("width", width as f64),
                ("depth", depth as f64),
                ("tasks", tasks as f64),
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
            "dag_scaling",
            &format!("sim-{case}"),
            &sim_m,
            &[
                ("width", width as f64),
                ("depth", depth as f64),
                ("tasks", tasks as f64),
                ("events", events),
                ("events_per_sec", events_per_sec),
            ],
        );
    }
}
