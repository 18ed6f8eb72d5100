//! Scaling with chain length: analysis and tick-engine simulation cost on
//! seeded synthetic chains of 4 to 64 tasks
//! ([`vrdf_apps::synthetic::random_chain_of_length`]).
//!
//! The simulator's dirty-set start scan keeps per-event work independent
//! of chain length; this bench is where that shows (or regresses).
//!
//! ```console
//! $ cargo bench -p vrdf-bench --bench chain_scaling
//! ```

use vrdf_apps::synthetic::{random_chain_of_length, ChainSpec};
use vrdf_bench::{emit, time_per_iteration, BenchOpts};
use vrdf_core::compute_buffer_capacities;
use vrdf_sim::{QuantumPlan, QuantumPolicy, SimConfig, Simulator};

fn main() {
    let opts = BenchOpts::from_args(3, 15);
    let lengths: &[usize] = if opts.smoke {
        &[4, 8]
    } else {
        &[4, 8, 16, 32, 64]
    };
    // Long random chains accumulate denominators along the φ propagation;
    // the generation-time grid keeps the tick clock in range at every
    // length while preserving feasibility (post-hoc ceil quantization
    // would be conservative but can step a tight task past its bound).
    let spec = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    let firings = opts.scale(2_000, 50);

    for &len in lengths {
        let (tg, constraint) =
            random_chain_of_length(42, len, &spec).expect("generator yields a valid chain");
        let analysis =
            compute_buffer_capacities(&tg, constraint).expect("generated chains are feasible");
        let mut sized = tg.clone();
        analysis.apply(&mut sized);

        let analysis_m = time_per_iteration(opts.warmup, opts.iterations, || {
            let a = compute_buffer_capacities(&tg, constraint).expect("feasible");
            std::hint::black_box(a.capacities().len());
        });
        emit(
            "chain_scaling",
            &format!("analysis-len-{len}"),
            &analysis_m,
            &[("tasks", len as f64)],
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
        assert!(probe.ok(), "len {len}: {:?}", probe.outcome);
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
            "chain_scaling",
            &format!("sim-len-{len}"),
            &sim_m,
            &[
                ("tasks", len as f64),
                ("events", events),
                ("events_per_sec", events_per_sec),
            ],
        );
    }
}
