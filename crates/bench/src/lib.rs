//! # vrdf-bench — benchmarks
//!
//! Hosts the benchmark binaries (`benches/`, custom `harness = false`
//! runners to stay dependency-free).  The paper's Section 5 table is
//! `vrdf tables` (crate `vrdf-apps`).
//!
//! The repository's benchmark is `perfbench/`: end-to-end and per-layer
//! metrics of the three capacity tools, with checked answers.  The four
//! benches here time what it does not: `mp3_simulation` runs the tick
//! engine against the exact-`Rational` reference engine, and
//! `chain_scaling`, `dag_scaling` and `cycle_scaling` track per-event
//! cost against graph size.  Each follows the same shape: parse
//! [`BenchOpts`] (`--smoke` collapses to one warmup and one iteration so
//! CI can prove the bench still runs), measure with
//! [`time_per_iteration`] — per-iteration samples, not one batch mean —
//! and report one machine-readable JSON line per case via [`emit`].
//!
//! Run one locally:
//!
//! ```console
//! $ cargo bench -p vrdf-bench --bench mp3_simulation
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::time::{Duration, Instant};

/// Per-iteration wall-clock samples of one benchmark case.
///
/// A single mean over a whole batch hides multi-modal behaviour and lets
/// one descheduled iteration poison the figure; keeping every sample
/// makes order statistics (median, p95) available, which is what the
/// benches report.
#[derive(Clone, Debug)]
pub struct Measurement {
    sorted: Vec<Duration>,
}

impl Measurement {
    /// Wraps raw per-iteration samples.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn from_samples(mut samples: Vec<Duration>) -> Measurement {
        assert!(!samples.is_empty(), "at least one sample");
        samples.sort_unstable();
        Measurement { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when there are no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The median: middle sample, or the mean of the two middle samples
    /// for an even count.
    pub fn median(&self) -> Duration {
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2
        }
    }

    /// Nearest-rank percentile, `p` in `(0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Duration {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        let n = self.sorted.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The 95th percentile (nearest rank).
    pub fn p95(&self) -> Duration {
        self.percentile(95.0)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> Duration {
        let total: Duration = self.sorted.iter().sum();
        total / self.sorted.len() as u32
    }

    /// The fastest sample.
    pub fn min(&self) -> Duration {
        self.sorted[0]
    }

    /// The slowest sample.
    pub fn max(&self) -> Duration {
        // `measure` always records ≥ 1 iteration.
        #[allow(clippy::expect_used)]
        *self.sorted.last().expect("non-empty")
    }
}

/// Runs `f` `warmup` times unmeasured, then `iterations` times with one
/// wall-clock sample per iteration.
///
/// # Panics
///
/// Panics when `iterations == 0`.
pub fn time_per_iteration<F: FnMut()>(warmup: u32, iterations: u32, mut f: F) -> Measurement {
    assert!(iterations > 0, "at least one iteration");
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    Measurement::from_samples(samples)
}

/// Shared command-line options of the bench binaries.
#[derive(Clone, Copy, Debug)]
pub struct BenchOpts {
    /// Unmeasured warmup runs per case.
    pub warmup: u32,
    /// Measured iterations per case.
    pub iterations: u32,
    /// `--smoke`: one warmup, one iteration, shrunken workloads — proves
    /// the bench runs end to end (the CI smoke job) without burning CI
    /// minutes on stable numbers.
    pub smoke: bool,
}

impl BenchOpts {
    /// Parses `--smoke`, `--warmup N`, and `--iterations N` from the
    /// process arguments, starting from the given defaults.  Unknown
    /// arguments are ignored (cargo passes harness flags through).
    pub fn from_args(default_warmup: u32, default_iterations: u32) -> BenchOpts {
        let mut opts = BenchOpts {
            warmup: default_warmup,
            iterations: default_iterations,
            smoke: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => {
                    opts.smoke = true;
                    opts.warmup = 1;
                    opts.iterations = 1;
                }
                "--warmup" => opts.warmup = parse_count(args.next(), "--warmup"),
                "--iterations" => opts.iterations = parse_count(args.next(), "--iterations"),
                _ => {}
            }
        }
        opts
    }

    /// `small` under `--smoke`, `full` otherwise — the workload knob.
    pub fn scale(&self, full: u64, small: u64) -> u64 {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// A flag value that must be a positive integer; a missing or malformed
/// one aborts the bench rather than silently measuring with the default.
fn parse_count(value: Option<String>, flag: &str) -> u32 {
    match value.as_deref().map(str::parse) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!(
                "error: {flag} requires an unsigned integer value, got {:?}",
                value.as_deref().unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}

/// Formats one machine-readable result line:
/// `{"bench":…,"case":…,"iterations":…,"median_ns":…,"p95_ns":…,
/// "mean_ns":…,"min_ns":…,<extra>}`.
///
/// Extra metrics land as additional numeric fields.  Keys must be plain
/// identifiers; values are rendered with enough precision to round-trip.
pub fn json_line(bench: &str, case: &str, m: &Measurement, extra: &[(&str, f64)]) -> String {
    let mut line = format!(
        "{{\"bench\":\"{}\",\"case\":\"{}\",\"iterations\":{},\"median_ns\":{},\"p95_ns\":{},\"mean_ns\":{},\"min_ns\":{}",
        escape(bench),
        escape(case),
        m.len(),
        m.median().as_nanos(),
        m.p95().as_nanos(),
        m.mean().as_nanos(),
        m.min().as_nanos(),
    );
    for (key, value) in extra {
        let rendered = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{value:.1}")
        } else {
            format!("{value}")
        };
        line.push_str(&format!(",\"{}\":{rendered}", escape(key)));
    }
    line.push('}');
    line
}

/// Prints the [`json_line`] for one case to stdout.
pub fn emit(bench: &str, case: &str, m: &Measurement, extra: &[(&str, f64)]) {
    println!("{}", json_line(bench, case, m, extra));
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(values: &[u64]) -> Measurement {
        Measurement::from_samples(values.iter().map(|&v| Duration::from_millis(v)).collect())
    }

    #[test]
    fn median_and_p95_are_order_statistics_not_batch_means() {
        // Odd count: the middle sample.
        let m = ms(&[5, 1, 9, 3, 7]);
        assert_eq!(m.median(), Duration::from_millis(5));
        // Even count: mean of the two middle samples.
        let m = ms(&[1, 3, 5, 100]);
        assert_eq!(m.median(), Duration::from_millis(4));
        // One slow outlier dominates the mean but not the median.
        assert!(m.mean() > m.median());

        // p95 over 20 samples is the 19th order statistic (nearest rank).
        let m = ms(&(1..=20).collect::<Vec<_>>());
        assert_eq!(m.p95(), Duration::from_millis(19));
        assert_eq!(m.percentile(100.0), Duration::from_millis(20));
        assert_eq!(m.percentile(1.0), Duration::from_millis(1));
        assert_eq!(m.min(), Duration::from_millis(1));
        assert_eq!(m.max(), Duration::from_millis(20));
    }

    #[test]
    fn timer_collects_one_sample_per_iteration() {
        let mut calls = 0u32;
        let m = time_per_iteration(2, 5, || {
            calls += 1;
            std::hint::black_box(vrdf_apps::fig1_pair());
        });
        assert_eq!(calls, 7, "2 warmup + 5 measured");
        assert_eq!(m.len(), 5);
        assert!(m.median() > Duration::ZERO);
        assert!(m.p95() >= m.median());
    }

    #[test]
    fn json_line_is_machine_readable() {
        let m = ms(&[2, 4, 6]);
        let line = json_line("mp3_simulation", "tick", &m, &[("events_per_sec", 12.5)]);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"bench\":\"mp3_simulation\""));
        assert!(line.contains("\"case\":\"tick\""));
        assert!(line.contains("\"iterations\":3"));
        assert!(line.contains("\"median_ns\":4000000"));
        assert!(line.contains("\"events_per_sec\":12.5"));
        // Integral extras still render as JSON numbers.
        let line = json_line("b", "c", &m, &[("speedup", 5.0)]);
        assert!(line.contains("\"speedup\":5.0"));
        // Quotes in names are escaped.
        assert!(json_line("a\"b", "c", &m, &[]).contains("a\\\"b"));
    }
}
