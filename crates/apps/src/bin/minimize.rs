//! Minimal-capacity search on the bundled case studies: prints how far
//! the generalized Eq. (4) capacities sit above the operational minima
//! the scenario battery can actually distinguish, edge by edge.
//!
//! ```console
//! $ cargo run --release -p vrdf-apps --bin minimize
//! $ cargo run --release -p vrdf-apps --bin minimize -- --graph fork-join
//! $ cargo run --release -p vrdf-apps --bin minimize -- --firings 60000 --random-runs 8
//! ```
//!
//! `--graph mp3` (default) searches the paper's MP3 playback chain;
//! `--graph fork-join` searches the stereo demux → per-channel decoders
//! → mux variant, the first workload past the chain restriction.  Batch
//! minimization over a synthetic corpus is `fleet --job minimize`.
//!
//! `--metrics` prints the aggregated search telemetry (engine counters,
//! phase spans, probe latency for all probes and for failing ones) to
//! stderr, and `--trace-out PATH` writes a Perfetto-loadable Chrome
//! trace of one instrumented run of the graph.  Both are gated: without
//! the flags the search runs with telemetry off.
//!
//! Exits non-zero when the Eq. (4) baseline itself fails validation
//! (which would make every reported minimum vacuous).

use vrdf_apps::{case_study, cli, CASE_STUDY_NAMES};
use vrdf_core::compute_buffer_capacities;
use vrdf_sim::{minimize_capacities, SearchOptions};

fn main() {
    let mut opts = SearchOptions::default();
    let mut firings = 30_000u64;
    let mut graph = "mp3".to_owned();
    let mut metrics = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--graph" => graph = cli::parse(args.next(), "--graph"),
            "--firings" => firings = cli::parse(args.next(), "--firings"),
            "--random-runs" => {
                opts.validation.random_runs = cli::parse(args.next(), "--random-runs")
            }
            "--threads" => opts.validation.threads = cli::parse(args.next(), "--threads"),
            "--metrics" => metrics = true,
            "--trace-out" => {
                trace_out = Some(cli::parse::<String>(args.next(), "--trace-out").into())
            }
            other => cli::unknown_argument(
                other,
                &format!(
                    "usage: minimize [--graph {}] [--firings N] [--random-runs N] \
                     [--threads N] [--metrics] [--trace-out PATH]",
                    CASE_STUDY_NAMES.join("|")
                ),
            ),
        }
    }
    opts.validation.telemetry = metrics;
    opts.validation.endpoint_firings = firings;
    let Some(study) = case_study(&graph) else {
        eprintln!(
            "error: unknown graph `{graph}` (expected one of: {})",
            CASE_STUDY_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let analysis = compute_buffer_capacities(&study.graph, study.constraint)
        .expect("the case studies are feasible");
    if let Some(published) = study.published_capacities {
        let computed: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
        assert_eq!(
            computed, published,
            "Eq. (4) must reproduce the published capacities"
        );
    }

    println!(
        "{}: Eq. (4) vs operational minima \
         ({} endpoint firings per scenario)",
        study.label, opts.validation.endpoint_firings
    );
    let report =
        minimize_capacities(&study.graph, &analysis, &opts).expect("the search constructs");
    print!("{report}");
    println!(
        "battery health: {} occupancy breaches, {} scenarios skipped (wall clock)",
        report.occupancy_breaches, report.scenarios_skipped
    );
    println!(
        "fail-fast probes: {} scenarios cancelled after an earlier scenario failed",
        report.scenarios_cancelled
    );
    if let Some(m) = &report.metrics {
        eprint!("{}", m.snapshot());
    }
    if let Some(path) = &trace_out {
        vrdf_apps::write_trace(path, &study.graph, study.constraint, 2_000);
    }
    if !report.baseline_clear {
        eprintln!("error: the Eq. (4) baseline failed validation; minima are vacuous");
        std::process::exit(1);
    }
}
