//! Fault-recovery driver for the bundled case studies: replays the
//! scenario battery under a bounded fault plan against the exact
//! Eq. (4) capacities and against the same assignment with explicit
//! headroom on the sink edge, then prints both recovery tables side by
//! side.
//!
//! ```console
//! $ cargo run --release -p vrdf-apps --bin faults
//! $ cargo run --release -p vrdf-apps --bin faults -- --graph fork-join
//! $ cargo run --release -p vrdf-apps --bin faults -- --stall-ms 12 --headroom 882
//! ```
//!
//! The default fault is a one-firing stall of the task feeding the sink
//! edge (`vSRC` on the MP3 chain, `vMux` on the stereo fork/join
//! variant), striking its 10th firing for 5 ms.  The headroom variant
//! pads the sink edge (`d3`) by one production quantum (441 containers
//! ≈ 10 ms of audio) beyond Eq. (4).
//!
//! `--metrics` prints the zero-fault baseline battery's telemetry
//! snapshot to stderr, and `--trace-out PATH` writes a
//! Perfetto-loadable Chrome trace of one instrumented fault-free run.
//!
//! Exits non-zero when the zero-fault Eq. (4) baseline itself fails
//! validation — that would make every recovery verdict vacuous.

use vrdf_apps::{case_study, cli, CASE_STUDY_NAMES};
use vrdf_core::{compute_buffer_capacities, Rational};
use vrdf_sim::{
    validate_capacities, validate_capacities_under_faults, FaultPlan, FaultValidationOptions,
    FaultValidationReport, ValidationOptions,
};

fn print_battery(header: &str, report: &FaultValidationReport) {
    println!("{header}");
    print!("{report}");
    println!("  peak transient backlog (occupancy/capacity):");
    for (name, occupancy, capacity) in report.peak_backlog() {
        println!("    {name:<6} {occupancy}/{capacity}");
    }
}

fn main() {
    let mut opts = FaultValidationOptions {
        validation: ValidationOptions {
            endpoint_firings: 9_000,
            random_runs: 2,
            ..ValidationOptions::default()
        },
        recovery_firings: 8,
    };
    let mut graph = "mp3".to_owned();
    let mut stall_task: Option<String> = None;
    let mut stall_firing = 10u64;
    let mut stall_ms = 5u64;
    let mut headroom = 441u64;
    let mut metrics = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--graph" => graph = cli::parse(args.next(), "--graph"),
            "--firings" => opts.validation.endpoint_firings = cli::parse(args.next(), "--firings"),
            "--random-runs" => {
                opts.validation.random_runs = cli::parse(args.next(), "--random-runs")
            }
            "--threads" => opts.validation.threads = cli::parse(args.next(), "--threads"),
            "--recovery-firings" => {
                opts.recovery_firings = cli::parse(args.next(), "--recovery-firings")
            }
            "--stall-task" => stall_task = Some(cli::parse(args.next(), "--stall-task")),
            "--stall-firing" => stall_firing = cli::parse(args.next(), "--stall-firing"),
            "--stall-ms" => stall_ms = cli::parse(args.next(), "--stall-ms"),
            "--headroom" => headroom = cli::parse(args.next(), "--headroom"),
            "--metrics" => metrics = true,
            "--trace-out" => {
                trace_out = Some(cli::parse::<String>(args.next(), "--trace-out").into())
            }
            other => cli::unknown_argument(
                other,
                &format!(
                    "usage: faults [--graph {}] [--firings N] [--random-runs N] \
                     [--threads N] [--recovery-firings K] [--stall-task NAME] \
                     [--stall-firing N] [--stall-ms N] [--headroom N] \
                     [--metrics] [--trace-out PATH]",
                    CASE_STUDY_NAMES.join("|")
                ),
            ),
        }
    }
    opts.validation.telemetry = metrics;

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

    // A recovery verdict against a baseline that misses without any
    // fault would be meaningless, so pin the zero-fault battery first.
    let baseline = validate_capacities(&study.graph, &analysis, &opts.validation)
        .expect("the battery constructs");
    if !baseline.all_clear() {
        eprintln!("error: the zero-fault Eq. (4) baseline failed validation:");
        eprint!("{baseline}");
        std::process::exit(1);
    }
    if let Some(m) = &baseline.metrics {
        eprint!("{}", m.snapshot());
    }
    if let Some(path) = &trace_out {
        vrdf_apps::write_trace(path, &study.graph, study.constraint, 2_000);
    }

    // The task feeding the sink edge is the natural stall victim: its
    // production quantum is the unit the sink-edge capacity is sized in.
    let stall_task = stall_task.unwrap_or_else(|| {
        match study.name {
            "mp3" | "mp3-feedback" => "vSRC",
            _ => "vMux",
        }
        .to_owned()
    });
    let faults = FaultPlan::new().stall(
        &stall_task,
        stall_firing,
        1,
        Rational::new(stall_ms as i128, 1000),
    );
    println!(
        "{}: fault recovery under a {stall_ms} ms stall of {stall_task} \
         (firing {stall_firing}), K = {} firings",
        study.label, opts.recovery_firings
    );

    let exact = validate_capacities_under_faults(&study.graph, &analysis, &[], &faults, &opts)
        .expect("the fault battery constructs");
    print_battery("\nexact Eq. (4) capacities:", &exact);

    let d3 = study
        .graph
        .buffer_by_name("d3")
        .expect("every case study names its sink edge d3");
    let padded_capacity = analysis
        .capacities()
        .iter()
        .find(|c| c.buffer == d3)
        .expect("d3 is analysed")
        .capacity
        + headroom;
    let with_headroom = validate_capacities_under_faults(
        &study.graph,
        &analysis,
        &[(d3, padded_capacity)],
        &faults,
        &opts,
    )
    .expect("the fault battery constructs");
    print_battery(
        &format!("\nd3 + {headroom} containers of headroom ({padded_capacity} total):"),
        &with_headroom,
    );

    println!(
        "\nheadroom is the fault-tolerance budget: {} recover with it, {} without",
        summarise(&with_headroom),
        summarise(&exact)
    );
}

fn summarise(report: &FaultValidationReport) -> String {
    format!(
        "{}/{}",
        report
            .scenarios
            .iter()
            .filter(|s| s.verdict.is_recovered())
            .count(),
        report.scenarios.len()
    )
}
