//! Wall clock of the engine's two hook sets, all through the one
//! constructor: the tick engine with every hook off (the default
//! [`SimConfig`]), with [`SimConfig::telemetry`] on, and — on the MP3
//! chain — with a [`SimConfig::faults`] plan whose one 5 ms `vSRC` stall
//! strikes.  Workloads: the MP3 chain and a 64-task random chain.
//!
//! Every case carries `ratio_vs_off`, its median wall over the hooks-off
//! case of the same workload.  Hooks off is not a hook-free baseline: it
//! is the same binary with the gates closed, so this bench cannot say
//! what the gates themselves cost — that takes an A/B run against a
//! revision without them.  That a gated-off run is bit-identical to the
//! hook-free reference engine is pinned by `tests/telemetry.rs` and
//! `tests/faults.rs`.  The stall strikes on exact Eq. (4) capacities, so
//! every later DAC firing misses its deadline and the stall case mostly
//! times violation bookkeeping.  The trailing `kind:"summary"` row
//! records the host's `nproc`.
//!
//! ```console
//! $ cargo bench -p vrdf-bench --bench hook_overhead
//! ```

use vrdf_apps::synthetic::{random_chain_of_length, ChainSpec};
use vrdf_apps::{mp3_chain, mp3_constraint};
use vrdf_bench::{emit, emit_summary, time_per_iteration, BenchOpts};
use vrdf_core::{compute_buffer_capacities, Rational, TaskGraph, ThroughputConstraint};
use vrdf_sim::{conservative_offset, FaultPlan, QuantumPlan, QuantumPolicy, SimConfig, Simulator};

/// The analysed graph and its strictly periodic config, hooks off.
fn workload(
    tg: &TaskGraph,
    constraint: ThroughputConstraint,
    firings: u64,
) -> (TaskGraph, SimConfig) {
    let analysis = compute_buffer_capacities(tg, constraint).expect("workload is feasible");
    let offset = conservative_offset(tg, &analysis).expect("offset fits");
    let mut config = SimConfig::periodic(constraint, offset);
    config.max_endpoint_firings = firings;
    (analysis.with_capacities(tg, &[]), config)
}

fn main() {
    let opts = BenchOpts::from_args(3, 15);
    let spec = ChainSpec {
        rho_grid_subdivision: Some(1024),
        ..ChainSpec::default()
    };
    let (chain_tg, chain_constraint) =
        random_chain_of_length(42, 64, &spec).expect("generator yields a valid chain");
    // One second of audio per iteration on the MP3 chain; the 64-task
    // chain mirrors chain_scaling's largest point.  1/100th under
    // --smoke.
    let workloads = [
        (
            "mp3",
            workload(&mp3_chain(), mp3_constraint(), opts.scale(44_100, 441)),
        ),
        (
            "chain64",
            workload(&chain_tg, chain_constraint, opts.scale(2_000, 50)),
        ),
    ];
    let plan = || QuantumPlan::uniform(QuantumPolicy::Max);

    for (name, (sized, off)) in &workloads {
        let mut telemetry = off.clone();
        telemetry.telemetry = true;
        let mut cases = vec![("off", off.clone()), ("telemetry", telemetry)];
        if *name == "mp3" {
            let mut stall = off.clone();
            // vSRC's 10th firing (its 2nd under --smoke, which ends
            // before the 10th).
            let firing = opts.scale(10, 1);
            stall.faults = FaultPlan::new().stall("vSRC", firing, 1, Rational::new(5, 1000));
            cases.push(("stall", stall));
        }
        let mut off_median = None;
        for (case, config) in cases {
            let run = || {
                Simulator::new(sized, plan(), config.clone())
                    .expect("construction succeeds")
                    .run()
            };
            // Runs are deterministic: one untimed run gives the exact
            // work every timed iteration repeats.
            let probe = run();
            let events = probe.events_processed as f64;
            let m = time_per_iteration(opts.warmup, opts.iterations, || {
                std::hint::black_box(run().events_processed);
            });
            let median = m.median().as_secs_f64();
            let off_median = *off_median.get_or_insert(median);
            emit(
                "hook_overhead",
                &format!("{name}-{case}"),
                &m,
                &[
                    ("events", events),
                    ("events_per_sec", events / median),
                    ("faults_injected", probe.faults_injected as f64),
                    ("ratio_vs_off", median / off_median),
                ],
            );
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    emit_summary("hook_overhead", "host", &[("nproc", nproc as f64)]);
}
