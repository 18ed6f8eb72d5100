//! Minimal-capacity search on the bundled case studies: prints how far
//! the generalized Eq. (4) capacities sit above the operational minima
//! the scenario battery can actually distinguish, edge by edge.
//!
//! ```console
//! $ cargo run --release -p vrdf-apps --bin minimize
//! $ cargo run --release -p vrdf-apps --bin minimize -- --graph fork-join
//! $ cargo run --release -p vrdf-apps --bin minimize -- --firings 60000 --random-runs 8
//! $ cargo run --release -p vrdf-apps --bin minimize -- --batch 32 --jobs 4
//! ```
//!
//! `--graph mp3` (default) searches the paper's MP3 playback chain;
//! `--graph fork-join` searches the stereo demux → per-channel decoders
//! → mux variant, the first workload past the chain restriction.
//! `--batch N` switches to fleet mode: batch minimization over an
//! N-graph synthetic corpus on a shared worker pool (`--jobs` workers,
//! batteries forced single-threaded — the pool owns the cores).
//!
//! `--metrics` prints the aggregated search telemetry (engine counters,
//! phase spans, probe latency for all probes and for failing ones;
//! per-worker pool metrics in fleet mode) to stderr, and `--trace-out PATH` writes a
//! Perfetto-loadable Chrome trace of one instrumented run of the graph.
//! Both are gated: without the flags the search runs the uninstrumented
//! hot path.
//!
//! Exits non-zero when the Eq. (4) baseline itself fails validation
//! (which would make every reported minimum vacuous), or in fleet mode
//! when any graph's search does not come back clean.

use vrdf_apps::{case_study, cli, fleet_corpus, CASE_STUDY_NAMES};
use vrdf_core::compute_buffer_capacities;
use vrdf_sim::{minimize_capacities, run_fleet, FleetJob, FleetOptions, SearchOptions};

fn main() {
    let mut opts = SearchOptions::default();
    let mut firings: Option<u64> = None;
    let mut graph = "mp3".to_owned();
    let mut batch = 0usize;
    let mut jobs = 0usize;
    let mut seed = 1u64;
    let mut metrics = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--graph" => graph = cli::parse(args.next(), "--graph"),
            "--firings" => firings = Some(cli::parse(args.next(), "--firings")),
            "--random-runs" => {
                opts.validation.random_runs = cli::parse(args.next(), "--random-runs")
            }
            "--threads" => opts.validation.threads = cli::parse(args.next(), "--threads"),
            "--batch" => batch = cli::parse(args.next(), "--batch"),
            "--jobs" => jobs = cli::parse(args.next(), "--jobs"),
            "--seed" => seed = cli::parse(args.next(), "--seed"),
            "--metrics" => metrics = true,
            "--trace-out" => {
                trace_out = Some(cli::parse::<String>(args.next(), "--trace-out").into())
            }
            other => cli::unknown_argument(
                other,
                &format!(
                    "usage: minimize [--graph {}] [--firings N] [--random-runs N] \
                     [--threads N] [--batch N] [--jobs W] [--seed S] \
                     [--metrics] [--trace-out PATH]",
                    CASE_STUDY_NAMES.join("|")
                ),
            ),
        }
    }
    opts.validation.telemetry = metrics;

    if batch > 0 {
        // Fleet mode: per-graph searches are much cheaper than the case
        // studies, so the default battery is shorter.
        opts.validation.endpoint_firings = firings.unwrap_or(2_000);
        let fleet = FleetOptions {
            job: FleetJob::Minimize,
            workers: jobs,
            validation: opts.validation.clone(),
            budget: opts.budget,
            wall_clock: None,
        };
        let corpus = fleet_corpus(seed, batch).unwrap_or_else(|e| {
            eprintln!("error: corpus generation failed: {e}");
            std::process::exit(1);
        });
        if let Some(path) = &trace_out {
            let first = &corpus[0];
            vrdf_apps::write_trace(path, &first.graph, first.constraint, 2_000);
        }
        let report = run_fleet(&corpus, &fleet);
        print!("{report}");
        if metrics {
            vrdf_apps::print_fleet_metrics(&report);
        }
        if !report.all_ok() {
            eprintln!("error: not every graph's search came back clean");
            std::process::exit(1);
        }
        return;
    }

    opts.validation.endpoint_firings = firings.unwrap_or(30_000);
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
