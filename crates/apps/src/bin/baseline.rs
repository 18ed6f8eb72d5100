//! VRDF vs native-SDF baseline comparison on the bundled case studies:
//! prints the paper's evaluation column side by side — the VRDF Eq. (4)
//! capacities against the conservative constant-rate sizing computed by
//! the CSDF substrate — then validates the sized constant-max lowering
//! operationally in the state-space executor.
//!
//! ```console
//! $ cargo run --release -p vrdf-apps --bin baseline
//! $ cargo run --release -p vrdf-apps --bin baseline -- --graph fork-join
//! $ cargo run --release -p vrdf-apps --bin baseline -- --minimize
//! ```
//!
//! `--minimize` additionally searches the operational SDF floor (minimal
//! per-channel capacities whose self-timed steady state still meets the
//! throughput constraint).  The same table over a synthetic corpus is
//! `fleet --job baseline`.
//!
//! `--metrics` prints the state-space executor's telemetry counters to
//! stderr, and `--trace-out PATH` writes a Perfetto-loadable Chrome
//! trace of one instrumented tick-engine run of the graph.  Both are
//! gated: without the flags the executor runs with telemetry off.
//!
//! Exits non-zero when a case study with published capacities does not
//! reproduce them, or when the sized lowering fails its own steady-state
//! check.

use vrdf_apps::{case_study, cli, CASE_STUDY_NAMES};
use vrdf_core::compute_buffer_capacities;
use vrdf_sdf::{
    analyze, baseline_capacities, minimize_sdf_capacities, steady_state, CsdfGraph, ExecOptions,
    ExecOutcome, SdfSearchOptions,
};

fn main() {
    let mut graph = "mp3".to_owned();
    let mut minimize = false;
    let mut exec = ExecOptions::default();
    let mut metrics = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--graph" => graph = cli::parse(args.next(), "--graph"),
            "--minimize" => minimize = true,
            "--max-events" => exec.max_events = cli::parse(args.next(), "--max-events"),
            "--metrics" => metrics = true,
            "--trace-out" => {
                trace_out = Some(cli::parse::<String>(args.next(), "--trace-out").into())
            }
            other => cli::unknown_argument(
                other,
                &format!(
                    "usage: baseline [--graph {}] [--minimize] [--max-events N] \
                     [--metrics] [--trace-out PATH]",
                    CASE_STUDY_NAMES.join("|")
                ),
            ),
        }
    }
    exec.telemetry = metrics;

    let Some(study) = case_study(&graph) else {
        eprintln!(
            "error: unknown graph `{graph}` (expected one of: {})",
            CASE_STUDY_NAMES.join(", ")
        );
        std::process::exit(2);
    };

    let vrdf = compute_buffer_capacities(&study.graph, study.constraint)
        .expect("the case studies are feasible");
    if let Some(published) = study.published_capacities {
        let computed: Vec<u64> = vrdf.capacities().iter().map(|c| c.capacity).collect();
        if computed != published {
            eprintln!("error: VRDF analysis does not reproduce the published capacities");
            std::process::exit(1);
        }
    }
    let baseline = baseline_capacities(&study.graph, study.constraint)
        .expect("the case studies are consistent");

    println!(
        "{}: VRDF vs native constant-rate (SDF) baseline",
        study.label
    );
    println!(
        "  {:<8} {:>10} {:>12} {:>6} {:>11} {:>13}",
        "buffer", "vrdf", "sdf", "over", "spread(pi)", "spread(gamma)"
    );
    for (v, b) in vrdf.capacities().iter().zip(baseline.edges()) {
        assert_eq!(v.buffer, b.buffer, "both analyses walk the same view");
        println!(
            "  {:<8} {:>10} {:>12} {:>6} {:>11} {:>13}",
            b.name,
            v.capacity,
            b.capacity,
            b.over_provision(),
            b.production_spread,
            b.consumption_spread,
        );
    }
    let vrdf_total = vrdf.total_capacity();
    let over = baseline.total_over_provision();
    println!(
        "  {:<8} {:>10} {:>12} {:>6}   ({:.1}% over-provisioned)",
        "total",
        vrdf_total,
        baseline.total_capacity(),
        over,
        100.0 * over as f64 / vrdf_total as f64,
    );

    // Operational check: the sized constant-max lowering must sustain
    // the constraint in the state-space executor.
    let sized = baseline.sized_lowering(&study.graph);
    let state = steady_state(&sized, study.constraint, &exec).expect("the sized lowering executes");
    println!("steady state of the sized constant-max lowering: {state}");
    if let Some(c) = &state.counters {
        eprintln!("metrics: sdf executor");
        eprintln!("  {:<16} {}", "events popped", c.events_popped);
        eprintln!("  {:<16} {}", "firings started", c.firings_started);
        eprintln!("  {:<16} {}", "firings finished", c.firings_finished);
        eprintln!("  {:<16} {}", "settling passes", c.settling_passes);
    }
    if let Some(path) = &trace_out {
        vrdf_apps::write_trace(path, &study.graph, study.constraint, 2_000);
    }
    if state.outcome != ExecOutcome::Periodic || !state.meets_constraint() {
        eprintln!("error: the baseline capacities fail their own steady-state check");
        std::process::exit(1);
    }

    if minimize {
        let mut lowered = CsdfGraph::lower_constant_max(&study.graph);
        let analysis =
            analyze(&lowered, study.constraint).expect("the constant-max lowering is consistent");
        analysis.apply(&mut lowered);
        let report =
            minimize_sdf_capacities(&lowered, study.constraint, &SdfSearchOptions { exec })
                .expect("the search executes");
        print!("{report}");
    }
}
