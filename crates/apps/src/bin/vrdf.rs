//! `vrdf` — the command-line tool, one subcommand per run of the paper:
//!
//! * `minimize`: Eq. (4) against the minimal capacities the scenario
//!   battery can distinguish, edge by edge; exits 1 when the Eq. (4)
//!   baseline itself fails validation (every minimum would be vacuous).
//! * `baseline`: Eq. (4) against the constant-rate (SDF) sizing, then the
//!   sized constant-max lowering's steady state (exit 1 when it fails);
//!   `--minimize` also searches the operational SDF floor.
//! * `faults`: the battery under a one-firing stall of the task feeding
//!   the sink edge, against Eq. (4) and against `--headroom` extra
//!   containers on `d3`; exits 1 when the zero-fault battery fails.
//! * `fleet`: one `--job` on every graph of a seeded synthetic corpus on
//!   one worker pool, with a merged report identical for every `--jobs`;
//!   exits 1 when any graph fails, panics or is skipped.
//! * `tables`: the paper's Section 5 table — the MP3 capacities against
//!   the published column — and its 10,000-firing battery; exits 1 when
//!   the battery fails.
//!
//! ```console
//! $ cargo run --release -p vrdf-apps -- tables
//! $ cargo run --release -p vrdf-apps -- minimize --graph fork-join
//! $ cargo run --release -p vrdf-apps -- faults --stall-ms 12 --headroom 882
//! $ cargo run --release -p vrdf-apps -- fleet --job minimize --batch 32
//! ```
//!
//! All but `fleet` share one case-study preamble (`analysed_case_study`).
//! `--metrics` prints telemetry to stderr (under `fleet` the pool's, with
//! battery telemetry off); `--trace-out PATH` writes a Perfetto trace of
//! one instrumented run of the graph (under `fleet`, the first graph).
//!
//! `FLAGS` is the whole grammar: the one parse loop accepts exactly the
//! running subcommand's rows, and its usage line lists them in table
//! order.  `-h` prints that line to stdout and exits 0 (a bare `vrdf -h`
//! prints all five); an unknown flag, a flag of another subcommand, a
//! missing or malformed value, a value naming no graph or task, a
//! `--headroom` that overflows `d3`, a zero `--firings`, or a missing or
//! unknown subcommand prints an `error:` line to stderr and exits 2; a
//! value the library refuses prints its error as one `error:` line and
//! exits 1.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;
use std::time::Duration;

use vrdf_apps::{
    case_study, fleet_corpus, write_trace, CaseStudy, CASE_STUDY_NAMES, MP3_PUBLISHED_CAPACITIES,
};
use vrdf_core::{
    compute_buffer_capacities, GraphAnalysis, Rational, TaskGraph, ThroughputConstraint,
};
use vrdf_sdf::{
    analyze, baseline_capacities, minimize_sdf_capacities, steady_state, CsdfGraph, ExecOptions,
    ExecOutcome, SdfSearchOptions,
};
use vrdf_sim::{
    minimize_capacities, run_fleet, validate_capacities, validate_capacities_under_faults,
    FaultPlan, FaultValidationOptions, FaultValidationReport, FleetOptions, FleetReport,
    SearchOptions, ValidationOptions,
};

use Sub::{Baseline, Faults, Fleet, Minimize, Tables};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Sub {
    Minimize,
    Baseline,
    Faults,
    Fleet,
    Tables,
}

impl Sub {
    const ALL: [Sub; 5] = [Minimize, Baseline, Faults, Fleet, Tables];

    fn name(self) -> &'static str {
        ["minimize", "baseline", "faults", "fleet", "tables"][self as usize]
    }
}

/// One flag: its name, its value placeholder (empty for a switch), and
/// the subcommands that take it.
struct Flag(&'static str, &'static str, &'static [Sub]);

/// `--graph`'s placeholder; `tests/cli.rs` pins it to `CASE_STUDY_NAMES`.
const GRAPHS: &str = "mp3|fork-join|mp3-feedback";
const CASES: &[Sub] = &[Minimize, Baseline, Faults];
const BATTERY: &[Sub] = &[Minimize, Faults, Fleet];

const FLAGS: &[Flag] = &[
    Flag("--graph", GRAPHS, CASES),
    Flag("--job", "validate|minimize|baseline", &[Fleet]),
    Flag("--batch", "N", &[Fleet]),
    Flag("--seed", "S", &[Fleet]),
    Flag("--jobs", "W", &[Fleet]),
    Flag("--firings", "N", BATTERY),
    Flag("--random-runs", "N", BATTERY),
    Flag("--threads", "N", &[Minimize, Faults]),
    Flag("--wall-clock-ms", "N", &[Fleet]),
    Flag("--recovery-firings", "K", &[Faults]),
    Flag("--stall-task", "NAME", &[Faults]),
    Flag("--stall-firing", "N", &[Faults]),
    Flag("--stall-ms", "N", &[Faults]),
    Flag("--headroom", "N", &[Faults]),
    Flag("--minimize", "", &[Baseline]),
    Flag("--max-events", "N", &[Baseline]),
    Flag("--metrics", "", &Sub::ALL),
    Flag("--trace-out", "PATH", &Sub::ALL),
];

/// The usage line of `sub`, or all of them for the bare `vrdf`.
fn usage(sub: Option<Sub>) -> String {
    let Some(sub) = sub else {
        return Sub::ALL.map(|s| usage(Some(s))).join("\n");
    };
    let mut line = format!("usage: vrdf {}", sub.name());
    for Flag(name, value, _) in FLAGS.iter().filter(|f| f.2.contains(&sub)) {
        line += &if value.is_empty() {
            format!(" [{name}]")
        } else {
            format!(" [{name} {value}]")
        };
    }
    line
}

/// Prints `error: {message}` and then `usage` (when not empty) to
/// stderr, and exits with status 2.
fn usage_error(message: &str, usage: &str) -> ! {
    eprintln!("error: {message}");
    if !usage.is_empty() {
        eprintln!("{usage}");
    }
    exit(2);
}

/// Prints `error: {context}: {error}` to stderr and exits with status 1.
fn fail(context: &str, error: impl Display) -> ! {
    eprintln!("error: {context}: {error}");
    exit(1);
}

/// The flags one subcommand was given, by name (a switch maps to `""`);
/// a repeated flag keeps its last value.
struct Args(BTreeMap<&'static str, String>);

impl Args {
    fn parse(sub: Sub, mut argv: impl Iterator<Item = String>) -> Args {
        let mut given = BTreeMap::new();
        while let Some(arg) = argv.next() {
            if arg == "-h" || arg == "--help" {
                println!("{}", usage(Some(sub)));
                exit(0);
            }
            let Some(Flag(name, value, _)) =
                FLAGS.iter().find(|f| f.0 == arg && f.2.contains(&sub))
            else {
                usage_error(&format!("unknown argument `{arg}`"), &usage(Some(sub)));
            };
            let value = if value.is_empty() {
                String::new()
            } else {
                let missing = || usage_error(&format!("{name} requires a value"), "");
                argv.next().unwrap_or_else(missing)
            };
            given.insert(*name, value);
        }
        Args(given)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    /// The value of `flag` when given; a malformed one exits 2.
    fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        assert!(FLAGS.iter().any(|f| f.0 == flag), "{flag} is not in FLAGS");
        let value = self.0.get(flag)?;
        let malformed = |_| usage_error(&format!("{flag} got a malformed value {value:?}"), "");
        Some(value.parse().unwrap_or_else(malformed))
    }

    /// `--firings`, `--random-runs`, `--threads` and `--metrics` over
    /// the subcommand's default horizon and random-run count.  A zero
    /// `--firings` exits 2: a battery that checks no endpoint firing
    /// passes whatever the capacities.
    fn battery(&self, endpoint_firings: u64, random_runs: u32) -> ValidationOptions {
        let defaults = ValidationOptions::default();
        let endpoint_firings = self.get("--firings").unwrap_or(endpoint_firings);
        if endpoint_firings == 0 {
            usage_error("--firings 0 checks no endpoint firing", "");
        }
        ValidationOptions {
            endpoint_firings,
            random_runs: self.get("--random-runs").unwrap_or(random_runs),
            threads: self.get("--threads").unwrap_or(defaults.threads),
            telemetry: self.has("--metrics"),
            ..defaults
        }
    }

    /// The `--trace-out` endgame: a trace of one instrumented
    /// 2,000-firing run of `graph`.
    fn write_trace(&self, graph: &TaskGraph, constraint: ThroughputConstraint) {
        if let Some(path) = self.get::<PathBuf>("--trace-out") {
            write_trace(&path, graph, constraint, 2_000);
        }
    }
}

/// The case-study preamble: the `--graph` study (exit 2 when unknown)
/// and its Eq. (4) analysis, which must reproduce the study's published
/// capacities (exit 1 when it fails or does not).
fn analysed_case_study(args: &Args) -> (CaseStudy, GraphAnalysis) {
    let graph = args.get("--graph").unwrap_or_else(|| "mp3".to_owned());
    let Some(study) = case_study(&graph) else {
        let names = CASE_STUDY_NAMES.join(", ");
        usage_error(
            &format!("unknown graph `{graph}` (expected one of: {names})"),
            "",
        );
    };
    let analysis = compute_buffer_capacities(&study.graph, study.constraint)
        .unwrap_or_else(|e| fail("the Eq. (4) analysis failed", e));
    if let Some(published) = study.published_capacities {
        let computed: Vec<u64> = analysis.capacities().iter().map(|c| c.capacity).collect();
        if computed != published {
            eprintln!("error: VRDF analysis does not reproduce the published capacities");
            exit(1);
        }
    }
    (study, analysis)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let sub = match argv.next() {
        Some(arg) if arg == "-h" || arg == "--help" => {
            println!("{}", usage(None));
            return;
        }
        Some(arg) => Sub::ALL
            .into_iter()
            .find(|s| s.name() == arg)
            .unwrap_or_else(|| usage_error(&format!("unknown subcommand `{arg}`"), &usage(None))),
        None => usage_error("missing subcommand", &usage(None)),
    };
    let args = Args::parse(sub, argv);
    match sub {
        Minimize => minimize(&args),
        Baseline => baseline(&args),
        Faults => faults(&args),
        Fleet => fleet(&args),
        Tables => tables(&args),
    }
}

fn minimize(args: &Args) {
    let opts = SearchOptions {
        validation: args.battery(30_000, 4),
        ..SearchOptions::default()
    };
    let (study, analysis) = analysed_case_study(args);
    println!(
        "{}: Eq. (4) vs operational minima \
         ({} endpoint firings per scenario)",
        study.label, opts.validation.endpoint_firings
    );
    let report = minimize_capacities(&study.graph, &analysis, &opts)
        .unwrap_or_else(|e| fail("the capacity search failed", e));
    print!("{report}");
    println!(
        "battery health: {} occupancy breaches",
        report.occupancy_breaches
    );
    println!(
        "fail-fast probes: {} scenarios cancelled after an earlier scenario failed",
        report.scenarios_cancelled
    );
    if let Some(m) = &report.metrics {
        eprint!("{}", m.snapshot());
    }
    args.write_trace(&study.graph, study.constraint);
    if !report.baseline_clear {
        eprintln!("error: the Eq. (4) baseline failed validation; minima are vacuous");
        exit(1);
    }
}

fn baseline(args: &Args) {
    let exec = ExecOptions {
        max_events: args
            .get("--max-events")
            .unwrap_or(ExecOptions::default().max_events),
        telemetry: args.has("--metrics"),
    };
    let (study, vrdf) = analysed_case_study(args);
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
    let state = steady_state(&sized, study.constraint, &exec)
        .unwrap_or_else(|e| fail("the sized lowering does not execute", e));
    println!("steady state of the sized constant-max lowering: {state}");
    if let Some(c) = &state.counters {
        eprintln!("metrics: sdf executor");
        eprintln!("  {:<16} {}", "events popped", c.events_popped);
        eprintln!("  {:<16} {}", "firings started", c.firings_started);
        eprintln!("  {:<16} {}", "firings finished", c.firings_finished);
        eprintln!("  {:<16} {}", "settling passes", c.settling_passes);
    }
    args.write_trace(&study.graph, study.constraint);
    if state.outcome != ExecOutcome::Periodic || !state.meets_constraint() {
        eprintln!("error: the baseline capacities fail their own steady-state check");
        exit(1);
    }

    if args.has("--minimize") {
        let mut lowered = CsdfGraph::lower_constant_max(&study.graph);
        let analysis =
            analyze(&lowered, study.constraint).expect("the constant-max lowering is consistent");
        analysis.apply(&mut lowered);
        let report =
            minimize_sdf_capacities(&lowered, study.constraint, &SdfSearchOptions { exec })
                .unwrap_or_else(|e| fail("the SDF capacity search failed", e));
        print!("{report}");
    }
}

fn faults(args: &Args) {
    let opts = FaultValidationOptions {
        validation: args.battery(9_000, 2),
        recovery_firings: args.get("--recovery-firings").unwrap_or(8),
    };
    let stall_task: Option<String> = args.get("--stall-task");
    let stall_firing = args.get("--stall-firing").unwrap_or(10u64);
    let stall_ms = args.get("--stall-ms").unwrap_or(5u64);
    let headroom = args.get("--headroom").unwrap_or(441u64);
    let (study, analysis) = analysed_case_study(args);

    // The task feeding the sink edge is the natural stall victim: its
    // production quantum is the unit the sink-edge capacity is sized in.
    let stall_task = stall_task.unwrap_or_else(|| match study.name {
        "mp3" | "mp3-feedback" => "vSRC".to_owned(),
        _ => "vMux".to_owned(),
    });
    if study.graph.task_by_name(&stall_task).is_none() {
        let names: Vec<&str> = study.graph.tasks().map(|(_, t)| t.name()).collect();
        usage_error(
            &format!(
                "unknown --stall-task `{stall_task}` (expected one of: {})",
                names.join(", ")
            ),
            "",
        );
    }
    let d3 = study
        .graph
        .buffer_by_name("d3")
        .expect("the sink edge is d3");
    let assigned = analysis.capacity_of(d3).expect("d3 is analysed").capacity;
    let Some(padded) = assigned.checked_add(headroom) else {
        usage_error(
            &format!("--headroom {headroom} overflows d3's {assigned} containers"),
            "",
        );
    };

    // A recovery verdict against a baseline that misses without any
    // fault would be meaningless, so pin the zero-fault battery first.
    let baseline = validate_capacities(&study.graph, &analysis, &opts.validation)
        .unwrap_or_else(|e| fail("the zero-fault battery failed", e));
    if !baseline.all_clear() {
        eprintln!("error: the zero-fault Eq. (4) baseline failed validation:");
        eprint!("{baseline}");
        exit(1);
    }
    if let Some(m) = &baseline.metrics {
        eprint!("{}", m.snapshot());
    }
    args.write_trace(&study.graph, study.constraint);

    let stall = Rational::new(stall_ms as i128, 1000);
    let faults = FaultPlan::new().stall(&stall_task, stall_firing, 1, stall);
    println!(
        "{}: fault recovery under a {stall_ms} ms stall of {stall_task} \
         (firing {stall_firing}), K = {} firings",
        study.label, opts.recovery_firings
    );

    let battery = |header: &str, overrides: &[_]| {
        let report =
            validate_capacities_under_faults(&study.graph, &analysis, overrides, &faults, &opts)
                .unwrap_or_else(|e| fail("the fault battery failed", e));
        println!("{header}");
        print!("{report}");
        println!("  peak transient backlog (occupancy/capacity):");
        for (name, occupancy, capacity) in report.peak_backlog() {
            println!("    {name:<6} {occupancy}/{capacity}");
        }
        report
    };
    let exact = battery("\nexact Eq. (4) capacities:", &[]);
    let with_headroom = battery(
        &format!("\nd3 + {headroom} containers of headroom ({padded} total):"),
        &[(d3, padded)],
    );

    let recovered = |report: &FaultValidationReport| {
        let scenarios = &report.scenarios;
        let recovered = scenarios.iter().filter(|s| s.verdict.is_recovered());
        format!("{}/{}", recovered.count(), scenarios.len())
    };
    println!(
        "\nheadroom is the fault-tolerance budget: {} recover with it, {} without",
        recovered(&with_headroom),
        recovered(&exact)
    );
}

fn fleet(args: &Args) {
    let defaults = FleetOptions::default();
    let opts = FleetOptions {
        job: args.get("--job").unwrap_or(defaults.job),
        workers: args.get("--jobs").unwrap_or(defaults.workers),
        // `--metrics` reports the pool; battery telemetry stays off.
        validation: ValidationOptions {
            telemetry: false,
            ..args.battery(2_000, 2)
        },
        wall_clock: args.get("--wall-clock-ms").map(Duration::from_millis),
    };
    let batch = args.get("--batch").unwrap_or(64);
    let seed = args.get("--seed").unwrap_or(1);

    let corpus = fleet_corpus(seed, batch).unwrap_or_else(|e| fail("corpus generation failed", e));
    if let Some(first) = corpus.first() {
        args.write_trace(&first.graph, first.constraint);
    }
    let report = run_fleet(&corpus, &opts);
    print!("{report}");
    if args.has("--metrics") {
        print_fleet_metrics(&report);
    }
    if !report.all_ok() {
        let failed = report.results.iter().filter(|r| !r.outcome.ok()).count();
        let total = report.results.len();
        eprintln!("error: {failed} of {total} graphs did not come back clean");
        exit(1);
    }
}

/// The Section 5 table: the MP3 capacities against the published column,
/// then the battery at 10,000 endpoint firings (exit 1 when it fails).
fn tables(args: &Args) {
    let opts = args.battery(10_000, 4);
    let (study, analysis) = analysed_case_study(args);
    println!("MP3 playback chain (WiggersBS08, Section 5)");
    println!(
        "{:<6} {:>10} {:>10} {:>14}",
        "buffer", "computed", "published", "token period"
    );
    for (cap, published) in analysis.capacities().iter().zip(MP3_PUBLISHED_CAPACITIES) {
        println!(
            "{:<6} {:>10} {:>10} {:>14}",
            cap.name,
            cap.capacity,
            published,
            cap.token_period.to_string()
        );
    }
    println!(
        "total  {:>10} {:>10}",
        analysis.total_capacity(),
        MP3_PUBLISHED_CAPACITIES.iter().sum::<u64>()
    );
    let report = validate_capacities(&study.graph, &analysis, &opts)
        .unwrap_or_else(|e| fail("the battery failed", e));
    print!("{report}");
    if let Some(m) = &report.metrics {
        eprint!("{}", m.snapshot());
    }
    args.write_trace(&study.graph, study.constraint);
    if !report.all_clear() {
        eprintln!("error: the Eq. (4) capacities failed validation");
        exit(1);
    }
}

/// The aggregate fleet summary and the per-worker shard metrics (jobs
/// drawn, busy vs idle wall time, outcome counts), on stderr so stdout
/// keeps only the per-graph report.
fn print_fleet_metrics(report: &FleetReport) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
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
