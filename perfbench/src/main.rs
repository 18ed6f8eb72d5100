//! The capacity tools' benchmark: three checked workloads through the
//! public APIs of `vrdf-core`, `vrdf-sim` and `vrdf-sdf`.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload minimize-cases --seed 1 --seconds 35 --trace 0
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off.  With `--trace 1` it runs the same ops untraced for half the
//! time and traced for the other half, prints the per-layer metrics,
//! and writes the spans to `perfbench/out/` as Chrome-trace JSON.  Every
//! answer is checked; the exact work counts must repeat in every pass,
//! traced or not.  The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  The command
//! exits non-zero when any check fails.  `--workload all` runs every
//! workload, each in its own process.

mod host;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Duration;

use host::{calibrate_ms, median, ms, percentile, reset_peak_rss, status_mb};
use trace::Tracer;
use workloads::{Pass, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <minimize-cases|fleet-validate|sdf-minimize|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The end-to-end metrics of the result line, reported with tracing
/// off, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, with their units.  A layer a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("core.analysis.calls", "count/pass"),
    ("core.analysis.us_per_call", "us"),
    ("core.analysis.share", "ratio"),
    ("sim.plan.builds", "count/pass"),
    ("sim.plan.us_per_build", "us"),
    ("sim.plan.share", "ratio"),
    ("sim.engine.events", "count/pass"),
    ("sim.engine.firings", "count/pass"),
    ("sim.engine.settling_passes", "count/pass"),
    ("sim.engine.wheel_pushes", "count/pass"),
    ("sim.engine.overflow_pushes", "count/pass"),
    ("sim.engine.policy_dispatches", "count/pass"),
    ("sim.engine.run_ms", "ms"),
    ("sim.engine.reset_ms", "ms"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.share", "ratio"),
    ("sim.validate.batteries", "count/pass"),
    ("sim.validate.scenarios_run", "count/pass"),
    ("sim.validate.scenarios_failed", "count/pass"),
    ("sim.validate.events_per_battery", "count"),
    ("sim.validate.merge_ms", "ms"),
    ("sim.validate.share", "ratio"),
    ("sim.search.probes", "count/pass"),
    ("sim.search.probes_passed", "count/pass"),
    ("sim.search.pass_ratio", "ratio"),
    ("sim.search.probe_p50_ms", "ms"),
    ("sim.search.probe_p95_ms", "ms"),
    ("sim.search.mp3_ms", "ms"),
    ("sim.search.fork-join_ms", "ms"),
    ("sim.search.mp3-feedback_ms", "ms"),
    ("sim.search.self_ms", "ms"),
    ("sim.search.share", "ratio"),
    ("sim.fleet.jobs", "count/pass"),
    ("sim.fleet.events", "count/pass"),
    ("sim.fleet.busy_ms", "ms"),
    ("sim.fleet.idle_share", "ratio"),
    ("sim.fleet.imbalance", "ratio"),
    ("sim.fleet.straggler_ms", "ms"),
    ("sim.fleet.job_p95_ms", "ms"),
    ("sdf.csdf.us_per_analyze", "us"),
    ("sdf.exec.calls", "count/pass"),
    ("sdf.exec.events", "count/pass"),
    ("sdf.exec.boundaries", "count/pass"),
    ("sdf.exec.ns_per_event", "ns"),
    ("sdf.search.probes", "count/pass"),
    ("sdf.search.mp3_ms", "ms"),
    ("sdf.search.fork-join_ms", "ms"),
    ("sdf.search.share", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.calib_start_ms", "ms"),
    ("host.calib_end_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("residual.share", "ratio"),
];

/// Layers whose self time is accounted inside op spans.
const ACCOUNTED: [&str; 6] = [
    "core.analysis",
    "sim.plan",
    "sim.engine",
    "sim.validate",
    "sim.search",
    "sdf.search",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for `--trace`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("`--seconds` must be positive".to_owned());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run(&args) {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.json);
            if !report.correct {
                eprintln!("error: a check failed; see above");
            }
            exit_code(report.correct)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Success only when every check held.
fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    exit_code(ok)
}

/// A finished run: the human-readable report, the result line, and
/// whether every check held.
struct Report {
    text: String,
    json: String,
    correct: bool,
}

/// Runs passes until `seconds` have gone by (at least one pass).  Each
/// pass runs on inputs built afresh once the previous pass's inputs are
/// dropped, and that set-up is timed, so the set-up samples span the
/// same stretch of host time as the ops.
fn phase(
    args: &Args,
    seconds: f64,
    tracer: &mut Tracer,
    setup: &mut Vec<Duration>,
) -> Result<Vec<Pass>, String> {
    let begin = std::time::Instant::now();
    let mut passes = Vec::new();
    loop {
        let (workload, times) = workloads::build(&args.workload, args.seed, tracer)?;
        setup.extend(times);
        passes.push(workload.pass(tracer));
        if begin.elapsed().as_secs_f64() >= seconds {
            return Ok(passes);
        }
    }
}

fn ops_per_s(passes: &[Pass]) -> f64 {
    let ops: usize = passes.iter().map(|p| p.op_latencies.len()).sum();
    let wall: Duration = passes.iter().map(|p| p.op_wall).sum();
    ops as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// The first pass whose counts differ from the first pass's, if any.
fn count_mismatch(passes: &[&Pass], pick: impl Fn(&Pass) -> &workloads::Counts) -> Option<String> {
    let first = pick(passes.first()?);
    passes.iter().enumerate().find_map(|(i, p)| {
        (pick(p) != first).then(|| format!("pass {i} counted {:?}, pass 0 {first:?}", pick(p)))
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let calib_start = calibrate_ms();
    reset_peak_rss()?;
    let rss_before_mb = status_mb("VmRSS").ok_or("cannot read VmRSS from /proc/self/status")?;
    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setup = Vec::new();
    let untraced = phase(args, untraced_seconds, &mut Tracer::disabled(), &mut setup)?;
    let traced = if args.trace {
        phase(args, args.seconds / 2.0, &mut tracer, &mut Vec::new())?
    } else {
        Vec::new()
    };
    let rss_mb = status_mb("VmHWM").ok_or("cannot read VmHWM from /proc/self/status")?;
    let host = Host {
        calib_start,
        calib_end: calibrate_ms(),
        rss_before_mb,
        rss_mb,
    };
    Ok(report(args, &setup, &untraced, &traced, &tracer, &host))
}

/// What the run measured about its host.
struct Host {
    /// Calibration kernel times before set-up, in ms.
    calib_start: Vec<f64>,
    /// Calibration kernel times after the last pass, in ms.
    calib_end: Vec<f64>,
    /// Resident memory just before set-up (code, libraries, stack), in
    /// MB.
    rss_before_mb: f64,
    /// Peak resident memory of the process from set-up to the last
    /// pass, in MB.
    rss_mb: f64,
}

/// Checks the passes and renders the report: the human-readable text
/// and the result line.
fn report(
    args: &Args,
    setup: &[Duration],
    untraced: &[Pass],
    traced: &[Pass],
    tracer: &Tracer,
    host: &Host,
) -> Report {
    let (calib_start, calib_end, rss) = (&host.calib_start, &host.calib_end, host.rss_mb);
    let all: Vec<&Pass> = untraced.iter().chain(traced).collect();
    let attempted: usize = all.iter().map(|p| p.op_latencies.len()).sum();
    let failures: Vec<&String> = all.iter().flat_map(|p| &p.failures).collect();
    let mut problems: Vec<String> = failures
        .iter()
        .map(|f| format!("wrong answer: {f}"))
        .collect();
    if let Some(m) = count_mismatch(&all, |p| &p.counts) {
        problems.push(format!("exact counts differ: {m}"));
    }
    let traced_refs: Vec<&Pass> = traced.iter().collect();
    if let Some(m) = count_mismatch(&traced_refs, |p| &p.layer_counts) {
        problems.push(format!("traced layer counts differ: {m}"));
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed={}{} trace={} nproc={}",
        args.workload,
        args.seed,
        if args.seed == DEFAULT_SEED {
            " (pinned answers)"
        } else {
            ""
        },
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let _ = writeln!(
        text,
        "host.calib_ms start {:.3} end {:.3} (reported only; no metric is rescaled)",
        median(calib_start).unwrap_or(0.0),
        median(calib_end).unwrap_or(0.0),
    );
    let counts = &untraced[0].counts;
    let _ = writeln!(
        text,
        "exact counts per pass (identical in all {} passes: {}): {}",
        all.len(),
        count_mismatch(&all, |p| &p.counts).is_none(),
        counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    for p in &problems {
        let _ = writeln!(text, "CHECK FAILED: {p}");
    }

    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.op_latencies.iter().copied().map(ms))
        .collect();
    let setup_s: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    let untraced_ops = latencies.len();
    let per_pass: Vec<String> = untraced
        .iter()
        .map(|p| {
            format!(
                "{:.2}",
                p.op_latencies.len() as f64 / p.op_wall.as_secs_f64()
            )
        })
        .collect();
    let _ = writeln!(text, "ops_per_s by pass: {}", per_pass.join(" "));
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        let e2e = [
            ("setup_s", median(&setup_s).unwrap_or(0.0), setup.len()),
            ("ops_per_s", ops_per_s(untraced), untraced_ops),
            ("peak_rss_mb", rss, 1),
        ];
        let _ = writeln!(
            text,
            "{:<14} {:>16} {:<6} samples",
            "metric", "value", "unit"
        );
        for ((name, value, n), (_, unit)) in e2e.into_iter().zip(END_TO_END) {
            let _ = writeln!(text, "{name:<14} {value:>16.6} {unit:<6} n={n}");
            metrics.push((name, value, unit));
        }
        let _ = writeln!(
            text,
            "  (peak_rss_mb includes {:.6} MB resident before set-up)",
            host.rss_before_mb
        );
        // Printed, not in the result line.  A median of a dozen pass
        // latencies flips between the host's fast and slow phases more
        // than throughput does; p95 needs ten samples beyond it, which
        // only the fleet's per-graph ops give; fail_ratio is the result
        // line's failed/attempted.
        let p50 = median(&latencies).unwrap_or(0.0);
        let _ = writeln!(
            text,
            "{:<14} {p50:>16.6} {:<6} n={untraced_ops}",
            "op_p50_ms", "ms"
        );
        if untraced_ops >= 200 {
            let p95 = percentile(&latencies, 95.0).unwrap_or(0.0);
            let _ = writeln!(
                text,
                "{:<14} {p95:>16.6} {:<6} n={untraced_ops}",
                "op_p95_ms", "ms"
            );
        }
        let fail_ratio = failures.len() as f64 / attempted.max(1) as f64;
        let _ = writeln!(
            text,
            "{:<14} {fail_ratio:>16.6} {:<6} n={attempted}",
            "fail_ratio", "ratio"
        );
    } else {
        let layers = per_layer(traced, tracer, untraced, calib_start, calib_end);
        let acc = trace::account(tracer.spans());
        let _ = writeln!(text, "traced op wall {:.3} ms:", ms(acc.op_wall));
        for layer in ACCOUNTED {
            let own = acc.layers.get(layer).copied().unwrap_or_default();
            let _ = writeln!(
                text,
                "  {layer:<14} self {:>12.3} ms  share {:.4}",
                ms(own),
                acc.share(layer)
            );
        }
        let _ = writeln!(
            text,
            "  {:<14} self {:>12.3} ms  share {:.4}",
            "residual",
            ms(acc.residual),
            acc.residual_share()
        );
        for (name, unit) in PER_LAYER {
            let value = layers.get(name).copied().unwrap_or(0.0);
            let derived = if traced[0].derived.contains(&name) {
                "  (derived, not counted)"
            } else {
                ""
            };
            let _ = writeln!(text, "{name:<32} {value:>16.6} {unit}{derived}");
            metrics.push((name, value, unit));
        }
        let path = format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, trace::chrome_trace(tracer.spans())));
        match written {
            Ok(()) => {
                let _ = writeln!(text, "trace: {path} ({} spans)", tracer.spans().len());
            }
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }

    let correct = problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
        failures.len()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Report {
        text,
        json,
        correct,
    }
}

/// Every per-layer value of a traced run, by metric name.
fn per_layer(
    traced: &[Pass],
    tracer: &Tracer,
    untraced: &[Pass],
    calib_start: &[f64],
    calib_end: &[f64],
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let first = &traced[0];
    for (name, value) in first.counts.iter().chain(&first.layer_counts) {
        out.insert(*name, *value as f64);
    }
    for (name, _) in PER_LAYER {
        if let Some(v) = workloads::median_of(traced, name) {
            out.insert(name, v);
        }
    }
    let acc = trace::account(tracer.spans());
    for layer in ACCOUNTED {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_suffix(".share") == Some(layer));
        if let Some(name) = name {
            out.insert(name, acc.share(layer));
        }
    }
    out.insert("residual.share", acc.residual_share());
    let analyses: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sdf.csdf")
        .map(|s| s.duration().as_secs_f64() * 1e6)
        .collect();
    out.insert("sdf.csdf.us_per_analyze", median(&analyses).unwrap_or(0.0));
    let calib_all: Vec<f64> = calib_start.iter().chain(calib_end).copied().collect();
    out.insert("host.calib_ms", median(&calib_all).unwrap_or(0.0));
    out.insert("host.calib_start_ms", median(calib_start).unwrap_or(0.0));
    out.insert("host.calib_end_ms", median(calib_end).unwrap_or(0.0));
    out.insert(
        "trace.overhead_ratio",
        ops_per_s(traced) / ops_per_s(untraced),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = args("--workload fleet-validate --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet-validate", 7, 3.0, true)
        );
        assert_eq!(args("--workload all").unwrap().seed, DEFAULT_SEED);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload all --trace 2").is_err());
        assert!(args("--workload all --seconds 0").is_err());
        assert!(args("--workload all --seed").is_err());
        assert!(args("--bogus 1").is_err());
    }

    fn pass(failures: &[&str], events: u64) -> Pass {
        let mut p = Pass {
            op_latencies: vec![Duration::from_millis(10)],
            op_wall: Duration::from_millis(10),
            failures: failures.iter().map(|f| f.to_string()).collect(),
            ..Pass::default()
        };
        p.counts.insert("sim.engine.events", events);
        p
    }

    fn render(untraced: &[Pass]) -> Report {
        let args = Args {
            workload: "minimize-cases".into(),
            seed: DEFAULT_SEED,
            seconds: 1.0,
            trace: false,
        };
        let host = Host {
            calib_start: vec![30.0],
            calib_end: vec![31.0],
            rss_before_mb: 2.0,
            rss_mb: 8.0,
        };
        let setup = [Duration::from_micros(40)];
        report(&args, &setup, untraced, &[], &Tracer::disabled(), &host)
    }

    #[test]
    fn a_wrong_answer_makes_the_command_fail() {
        let good = render(&[pass(&[], 7), pass(&[], 7)]);
        assert!(good.correct, "{}", good.text);
        assert!(good
            .json
            .starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {"));
        for (name, unit) in END_TO_END {
            assert!(good.json.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(good.json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert_eq!(
            format!("{:?}", exit_code(true)),
            format!("{:?}", ExitCode::SUCCESS)
        );

        let wrong = render(&[pass(&[], 7), pass(&["mp3: d3 = Some(880), pinned 881"], 7)]);
        assert!(!wrong.correct);
        assert!(wrong
            .json
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(wrong.text.contains("CHECK FAILED: wrong answer: mp3: d3"));
        assert_eq!(
            format!("{:?}", exit_code(wrong.correct)),
            format!("{:?}", ExitCode::FAILURE)
        );

        let drifting = render(&[pass(&[], 7), pass(&[], 8)]);
        assert!(!drifting.correct, "exact counts must repeat in every pass");
        assert!(drifting.text.contains("exact counts differ"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = json
                .split(&format!("\"{section}\""))
                .nth(1)
                .expect("section");
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry
                            .split(&format!("\"{key}\": \""))
                            .nth(1)
                            .expect("field");
                        rest[..rest.find('"').expect("quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }
}
