//! Fleet-scale batch analysis over a synthetic corpus: runs one job —
//! `validate` (default), `minimize`, or `baseline` — for every graph of
//! a mixed chain / fork-join / DAG / cyclic corpus on a shared worker
//! pool, then prints the merged per-graph report with graphs/sec and
//! p95 per-graph latency.
//!
//! ```console
//! $ cargo run --release -p vrdf-apps --bin fleet
//! $ cargo run --release -p vrdf-apps --bin fleet -- --batch 128 --jobs 4
//! $ cargo run --release -p vrdf-apps --bin fleet -- --job minimize --batch 32
//! ```
//!
//! The merged report is bit-identical for every `--jobs` value
//! (including the default `0` = available parallelism): workers tag
//! results with the corpus index and the merge re-sorts by index.
//! Inside the fleet each graph's scenario battery runs single-threaded —
//! the pool owns the cores.
//!
//! `--metrics` prints the aggregate fleet summary and the per-worker
//! shard metrics (jobs drawn, busy vs idle wall time, outcome counts)
//! to stderr; `--trace-out PATH` writes a Perfetto-loadable Chrome
//! trace of one instrumented run of the corpus' first graph.
//!
//! Exits non-zero when any graph's job fails, errors, panics, or is
//! skipped by `--wall-clock-ms`.

use vrdf_apps::{cli, fleet_corpus};
use vrdf_sim::{run_fleet, FleetOptions, FleetReport};

const USAGE: &str = "usage: fleet [--job validate|minimize|baseline] [--batch N] [--seed S] \
                     [--jobs W] [--firings N] [--random-runs N] [--wall-clock-ms N] \
                     [--metrics] [--trace-out PATH]";

fn main() {
    let mut opts = FleetOptions::default();
    opts.validation.endpoint_firings = 2_000;
    opts.validation.random_runs = 2;
    let mut batch = 64usize;
    let mut seed = 1u64;
    let mut metrics = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--job" => opts.job = cli::parse(args.next(), "--job"),
            "--batch" => batch = cli::parse(args.next(), "--batch"),
            "--seed" => seed = cli::parse(args.next(), "--seed"),
            "--jobs" => opts.workers = cli::parse(args.next(), "--jobs"),
            "--firings" => opts.validation.endpoint_firings = cli::parse(args.next(), "--firings"),
            "--random-runs" => {
                opts.validation.random_runs = cli::parse(args.next(), "--random-runs")
            }
            "--wall-clock-ms" => {
                let ms: u64 = cli::parse(args.next(), "--wall-clock-ms");
                opts.wall_clock = Some(std::time::Duration::from_millis(ms));
            }
            "--metrics" => metrics = true,
            "--trace-out" => {
                trace_out = Some(cli::parse::<String>(args.next(), "--trace-out").into())
            }
            other => cli::unknown_argument(other, USAGE),
        }
    }

    let corpus = fleet_corpus(seed, batch).unwrap_or_else(|e| {
        eprintln!("error: corpus generation failed: {e}");
        std::process::exit(1);
    });
    if let (Some(path), Some(first)) = (&trace_out, corpus.first()) {
        vrdf_apps::write_trace(path, &first.graph, first.constraint, 2_000);
    }
    let report = run_fleet(&corpus, &opts);
    print!("{report}");
    if metrics {
        print_fleet_metrics(&report);
    }
    if !report.all_ok() {
        eprintln!(
            "error: {} of {} graphs did not come back clean",
            report.results.len() - report.results.iter().filter(|r| r.outcome.ok()).count(),
            report.results.len()
        );
        std::process::exit(1);
    }
}

/// The `--metrics` endgame: prints the aggregate
/// [`vrdf_sim::FleetSummary`] and the per-worker shard
/// metrics (jobs drawn, busy vs idle wall time, outcome counts) to
/// stderr, keeping stdout reserved for the per-graph report.
fn print_fleet_metrics(report: &FleetReport) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    eprintln!("metrics: fleet pool");
    eprintln!("  {}", report.summary());
    eprintln!(
        "  {:<8} {:>6} {:>12} {:>12} {:>5} {:>7} {:>8}",
        "worker", "jobs", "busy", "idle", "ok", "failed", "skipped"
    );
    for (i, m) in report.worker_metrics.iter().enumerate() {
        eprintln!(
            "  {:<8} {:>6} {:>10.3}ms {:>10.3}ms {:>5} {:>7} {:>8}",
            format!("w{i}"),
            m.jobs,
            ms(m.busy),
            ms(m.idle),
            m.ok,
            m.failed,
            m.skipped
        );
    }
}
