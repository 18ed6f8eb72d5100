//! Telemetry: engine counters, phase spans, latency histograms, and the
//! Chrome-trace/Perfetto exporter.
//!
//! Instrumentation follows the [`crate::faults`] gating discipline
//! exactly: the hooks are **always compiled in** and gated on one
//! boolean, [`crate::SimConfig::telemetry`] (off by default), that the
//! `SimPlan` fixes at construction.  A disabled run executes not a
//! single counter increment or clock read in the hot loop, and
//! `tests/telemetry.rs` pins that it is bit-identical to the hook-free
//! reference engine on the MP3 chain and the random chain/DAG/cyclic
//! corpora.  The gating's wall-clock cost has not been measured against
//! a revision without the hooks; perfbench's `trace.overhead_ratio`
//! gives the cost of running with telemetry on.
//!
//! The layer has four pieces:
//!
//! * [`EngineCounters`] — cheap monotonic counters of the tick engine's
//!   hot paths (events popped, firings, settling passes, dirty-bitmap
//!   sweeps, timing-wheel vs overflow-heap routing, quantum-policy
//!   dispatches).  Its first four fields carry the names of
//!   [`vrdf_core::CoreCounters`], the coarse set the reference engine
//!   and `vrdf-sdf`'s state-space executor count.  Counter sums commute,
//!   so merged totals are deterministic at every thread count.
//! * [`PhaseTimes`] — span-style wall-clock timing of the coarse phases
//!   (plan build, reset, run, merge).
//! * [`Histogram`] — a power-of-two-bucketed latency histogram for
//!   per-probe and per-job latencies.
//! * [`perfetto_trace`] — renders an instrumented run's firing timeline
//!   (one track per task, one counter track per buffer's occupancy
//!   samples) as Chrome-trace JSON loadable at <https://ui.perfetto.dev>.
//!
//! Human-readable output goes through [`MetricsSnapshot`], the table
//! `vrdf minimize` and `vrdf faults` print to stderr under `--metrics`.

use std::fmt;
use std::time::Duration;

use vrdf_core::{BufferId, Rational};

use crate::engine::SimReport;

/// Monotonic activity counters of the tick engine's hot paths.
///
/// The first four fields are the engine-agnostic coarse set
/// ([`vrdf_core::CoreCounters`] vocabulary); the rest are tick-engine
/// specific.  All are plain `u64` counts whose sums commute — merged
/// totals are identical for every worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events popped off the event queue.
    pub events_popped: u64,
    /// Firings started (tokens consumed, space claimed).
    pub firings_started: u64,
    /// Firings finished (space freed, tokens produced).
    pub firings_finished: u64,
    /// Settling passes: outer rounds of the dirty-bitmap scan that
    /// found at least one dirty word.
    pub settling_passes: u64,
    /// Non-zero dirty-bitmap words processed across all settling passes.
    pub dirty_sweeps: u64,
    /// Events routed onto the timing wheel.
    pub wheel_pushes: u64,
    /// Events that missed the wheel window and fell back to the
    /// overflow heap (rare by construction; a high ratio here means the
    /// wheel is mis-sized for the workload).
    pub overflow_pushes: u64,
    /// Quantum-policy dispatches: enable-check draws that went through a
    /// compiled non-`Fixed` policy (the all-constant fast path never
    /// dispatches).
    pub policy_dispatches: u64,
}

impl EngineCounters {
    /// Adds another counter set into this one (field-wise saturating
    /// sum).
    pub fn merge(&mut self, other: &EngineCounters) {
        self.events_popped = self.events_popped.saturating_add(other.events_popped);
        self.firings_started = self.firings_started.saturating_add(other.firings_started);
        self.firings_finished = self.firings_finished.saturating_add(other.firings_finished);
        self.settling_passes = self.settling_passes.saturating_add(other.settling_passes);
        self.dirty_sweeps = self.dirty_sweeps.saturating_add(other.dirty_sweeps);
        self.wheel_pushes = self.wheel_pushes.saturating_add(other.wheel_pushes);
        self.overflow_pushes = self.overflow_pushes.saturating_add(other.overflow_pushes);
        self.policy_dispatches = self
            .policy_dispatches
            .saturating_add(other.policy_dispatches);
    }
}

/// One buffer-occupancy sample from an instrumented, fully traced run:
/// the occupancy (full + claimed containers, i.e. `capacity − space`)
/// immediately after it changed.
///
/// Samples are recorded only when the plan is telemetry-enabled *and*
/// the run traces at `TraceLevel::All` — occupancy history is a
/// trace-grade artifact, not a counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OccupancySample {
    /// The buffer sampled.
    pub buffer: BufferId,
    /// When the occupancy changed.
    pub time: Rational,
    /// The occupancy just after the change.
    pub occupancy: u64,
}

/// Wall-clock spans of the coarse engine phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// `SimPlan` construction (rescaling, arena layout, fault/telemetry
    /// compilation).
    pub plan_build: Duration,
    /// `SimState` reset-in-place before a run.
    pub reset: Duration,
    /// The event loop itself.
    pub run: Duration,
    /// Result merging (battery or fleet shard merge).
    pub merge: Duration,
}

impl PhaseTimes {
    /// Accumulates another span set into this one.
    pub fn merge_from(&mut self, other: &PhaseTimes) {
        self.plan_build += other.plan_build;
        self.reset += other.reset;
        self.run += other.run;
        self.merge += other.merge;
    }
}

/// A power-of-two-bucketed latency histogram: a sample lands in the
/// bucket of its bit length, so bucket `i` holds `2^(i-1) ≤ ns < 2^i`
/// (bucket 0 holds `0 ns`; the last one also everything above).
///
/// Constant-size, allocation-free, and mergeable — the shape the fleet
/// and the probe loop can afford to keep per worker.  Percentiles are
/// resolved to the bucket's upper bound `2^i`, clamped to the exact
/// `max` (≤ 2× off by construction: an exact power of two reports twice
/// itself); `min`/`max` are exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (64 - ns.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples; `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let mean = self.sum_ns / u128::from(self.count);
        Some(Duration::from_nanos(
            u64::try_from(mean).unwrap_or(u64::MAX),
        ))
    }

    /// The fastest sample; `None` when empty.
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.min_ns))
    }

    /// The slowest sample; `None` when empty.
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.max_ns))
    }

    /// Nearest-rank percentile resolved to its bucket's upper bound
    /// (clamped to the exact `max`), `p` in `(0, 100]`; `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { 1u64 << i };
                return Some(Duration::from_nanos(upper.min(self.max_ns)));
            }
        }
        Some(Duration::from_nanos(self.max_ns))
    }

    /// The 95th percentile (bucket upper bound); `None` when empty.
    pub fn p95(&self) -> Option<Duration> {
        self.percentile(95.0)
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregated telemetry of one scenario battery
/// ([`crate::ValidationReport::metrics`], `Some` iff
/// [`crate::ValidationOptions::telemetry`] was set).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ValidationMetrics {
    /// Engine counters summed over every scenario of the battery
    /// (deterministic: u64 sums commute across the thread merge).
    pub counters: EngineCounters,
    /// Coarse phase spans: plan build, summed reset/run, merge.
    pub phases: PhaseTimes,
    /// Per-scenario wall time, in battery order.
    pub scenario_wall: Vec<(String, Duration)>,
}

impl ValidationMetrics {
    /// Renders the battery telemetry as a [`MetricsSnapshot`] table.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new("scenario battery");
        snap.push_counters(&self.counters);
        snap.push_phases(&self.phases);
        for (name, wall) in &self.scenario_wall {
            snap.push(&format!("scenario {name}"), format_duration(*wall));
        }
        snap
    }
}

/// Aggregated telemetry of one minimal-capacity search
/// ([`crate::MinimizationReport::metrics`], `Some` iff the search's
/// validation options enabled telemetry).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchMetrics {
    /// Engine counters summed over every probe battery.
    pub counters: EngineCounters,
    /// Coarse phase spans summed over every probe battery.
    pub phases: PhaseTimes,
    /// Wall-clock latency of each probe (baseline validation included).
    pub probe_latency: Histogram,
    /// Wall-clock latency of each probe whose battery failed — the
    /// subset of `probe_latency` that a fail-fast probe cuts short.
    pub failed_probe_latency: Histogram,
}

impl SearchMetrics {
    /// Renders the search telemetry as a [`MetricsSnapshot`] table.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new("capacity search");
        snap.push_counters(&self.counters);
        snap.push_phases(&self.phases);
        snap.push_histogram("probe latency", &self.probe_latency);
        snap.push_histogram("failed probe latency", &self.failed_probe_latency);
        snap
    }
}

/// A human-readable metrics table: the `--metrics` output `vrdf
/// minimize` and `vrdf faults` print to stderr.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    title: String,
    rows: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// An empty snapshot with a title line.
    pub fn new(title: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            title: title.to_owned(),
            rows: Vec::new(),
        }
    }

    /// Appends one `label: value` row.
    pub fn push(&mut self, label: &str, value: impl fmt::Display) {
        self.rows.push((label.to_owned(), value.to_string()));
    }

    /// Appends one row per engine counter.
    pub fn push_counters(&mut self, c: &EngineCounters) {
        self.push("events popped", c.events_popped);
        self.push("firings started", c.firings_started);
        self.push("firings finished", c.firings_finished);
        self.push("settling passes", c.settling_passes);
        self.push("dirty sweeps", c.dirty_sweeps);
        self.push("wheel pushes", c.wheel_pushes);
        self.push("overflow pushes", c.overflow_pushes);
        self.push("policy dispatches", c.policy_dispatches);
    }

    /// Appends one row per non-zero phase span.
    pub fn push_phases(&mut self, p: &PhaseTimes) {
        for (label, span) in [
            ("plan build", p.plan_build),
            ("reset", p.reset),
            ("run", p.run),
            ("merge", p.merge),
        ] {
            if !span.is_zero() {
                self.push(label, format_duration(span));
            }
        }
    }

    /// Appends the summary rows of a latency histogram.
    pub fn push_histogram(&mut self, label: &str, h: &Histogram) {
        if h.is_empty() {
            return;
        }
        self.push(&format!("{label} samples"), h.count());
        if let Some(mean) = h.mean() {
            self.push(&format!("{label} mean"), format_duration(mean));
        }
        if let (Some(min), Some(p50), Some(p95), Some(max)) =
            (h.min(), h.percentile(50.0), h.p95(), h.max())
        {
            self.push(&format!("{label} min"), format_duration(min));
            self.push(&format!("{label} p50 ≤"), format_duration(p50));
            self.push(&format!("{label} p95 ≤"), format_duration(p95));
            self.push(&format!("{label} max"), format_duration(max));
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics: {}", self.title)?;
        let width = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, value) in &self.rows {
            writeln!(f, "  {label:<width$}  {value}")?;
        }
        Ok(())
    }
}

/// Renders a duration as milliseconds with microsecond resolution.
fn format_duration(d: Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

/// Renders an instrumented run as Chrome-trace JSON (the "JSON Array
/// Format" both `chrome://tracing` and <https://ui.perfetto.dev>
/// load).
///
/// The timeline carries:
///
/// * one **thread track per task** (`tid` = topological position + 1)
///   with a `ph:"X"` duration slice per **completed** firing (name
///   `task#firing`, args `firing`/`consumed`/`produced`) — per task the
///   slice count equals `SimReport::tasks[i].firings` exactly, because
///   at most one firing is in flight and firings complete in order, so
///   the first `firings` trace records of a task are its completed
///   ones;
/// * one **counter track per buffer** (`ph:"C"`, name `buf <name>`)
///   from the run's [`OccupancySample`]s.
///
/// **Tick→µs mapping:** the engine runs on integer ticks of
/// `1/tick_den` seconds and converts back to exact [`Rational`] seconds
/// at the report boundary; the exporter maps those to trace timestamps
/// as `ts_µs = seconds × 10⁶` (i.e. `ticks × 10⁶ / tick_den`),
/// rendered with fixed 3-decimal precision (nanosecond granularity).
/// Field order within each event is fixed (`ph`, `pid`, `tid`, `ts`,
/// `dur`, `name`, `args`), so output for a fixed run is byte-stable —
/// `tests/telemetry.rs` pins a golden MP3 trace.
///
/// The run must have been traced at `TraceLevel::All` for the timeline
/// to be complete; without telemetry the occupancy tracks are simply
/// empty.
pub fn perfetto_trace(report: &SimReport) -> String {
    let mut out = String::with_capacity(4096 + report.trace.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push_event = |out: &mut String, event: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&event);
    };

    push_event(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"vrdf-sim\"}}"
            .to_owned(),
    );

    // tid and completed-firing quota per TaskId index.
    let max_task = report
        .tasks
        .iter()
        .map(|t| t.task.index())
        .max()
        .map_or(0, |i| i + 1);
    let mut tid_of = vec![0u64; max_task];
    let mut quota = vec![0u64; max_task];
    let mut name_of = vec![""; max_task];
    for (pos, stats) in report.tasks.iter().enumerate() {
        let tid = pos as u64 + 1;
        tid_of[stats.task.index()] = tid;
        quota[stats.task.index()] = stats.firings;
        name_of[stats.task.index()] = stats.name.as_str();
        push_event(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"task {}\"}}}}",
                escape(&stats.name)
            ),
        );
    }

    // Duration slices for completed firings, in trace (start) order.
    let mut emitted = vec![0u64; max_task];
    for record in &report.trace {
        let i = record.task.index();
        if emitted[i] >= quota[i] {
            continue; // still in flight at end of run
        }
        emitted[i] += 1;
        let ts = micros(record.start);
        let dur = micros(record.finish) - ts;
        push_event(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{}#{}\",\"args\":{{\"firing\":{},\"consumed\":{},\"produced\":{}}}}}",
                tid_of[i],
                escape(name_of[i]),
                record.firing,
                record.firing,
                record.consumed,
                record.produced,
            ),
        );
    }

    // Occupancy counter tracks, one per buffer, in sample order.
    let buffer_name = |id: BufferId| {
        report
            .buffers
            .iter()
            .find(|b| b.buffer == id)
            .map_or("?", |b| b.name.as_str())
    };
    for sample in &report.occupancy {
        push_event(
            &mut out,
            format!(
                "{{\"ph\":\"C\",\"pid\":1,\"ts\":{:.3},\"name\":\"buf {}\",\
                 \"args\":{{\"occupancy\":{}}}}}",
                micros(sample.time),
                escape(buffer_name(sample.buffer)),
                sample.occupancy,
            ),
        );
    }

    out.push_str("\n]}\n");
    out
}

/// Exact rational seconds → trace microseconds (`f64`).
fn micros(t: Rational) -> f64 {
    t.to_f64() * 1e6
}

/// Minimal JSON string escaping for graph-supplied names.
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

    #[test]
    fn gate_defaults_to_disabled() {
        let constraint = vrdf_core::ThroughputConstraint::on_sink(Rational::ONE).unwrap();
        assert!(!crate::SimConfig::self_timed(constraint).telemetry);
        assert!(!crate::SimConfig::periodic(constraint, Rational::ZERO).telemetry);
        assert!(!crate::ValidationOptions::default().telemetry);
    }

    #[test]
    fn counters_merge_field_wise() {
        let mut a = EngineCounters {
            events_popped: 1,
            firings_started: 2,
            firings_finished: 3,
            settling_passes: 4,
            dirty_sweeps: 5,
            wheel_pushes: 6,
            overflow_pushes: 7,
            policy_dispatches: 8,
        };
        a.merge(&a.clone());
        assert_eq!(a.events_popped, 2);
        assert_eq!(a.policy_dispatches, 16);
        assert_eq!(a.settling_passes, 8);
    }

    #[test]
    fn histogram_statistics_and_merge() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(95.0), None);
        for ns in [100u64, 200, 300, 100_000] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(Duration::from_nanos(100)));
        assert_eq!(h.max(), Some(Duration::from_nanos(100_000)));
        // Mean is exact; percentiles resolve to bucket upper bounds.
        assert_eq!(h.mean(), Some(Duration::from_nanos(25_150)));
        let p95 = h.p95().unwrap();
        assert!(p95 >= Duration::from_nanos(100_000) && p95 <= Duration::from_nanos(131_072));
        let p25 = h.percentile(25.0).unwrap();
        assert!(p25 <= Duration::from_nanos(128), "{p25:?}");

        let mut other = Histogram::new();
        other.record(Duration::from_nanos(50));
        other.merge(&h);
        assert_eq!(other.count(), 5);
        assert_eq!(other.min(), Some(Duration::from_nanos(50)));
        assert_eq!(other.max(), Some(Duration::from_nanos(100_000)));

        // Bucket edges: an exact power of two opens its bucket, so 63 ns
        // resolves to 64 ns but 64 ns to 128 ns.
        for (ns, p50) in [(63, 64), (64, 128)] {
            let mut edge = Histogram::new();
            edge.record(Duration::from_nanos(ns));
            edge.record(Duration::from_nanos(1_000));
            assert_eq!(edge.percentile(50.0), Some(Duration::from_nanos(p50)));
        }
    }

    #[test]
    fn snapshot_renders_an_aligned_table() {
        let mut snap = MetricsSnapshot::new("test");
        snap.push_counters(&EngineCounters::default());
        snap.push("something", 42);
        let rendered = snap.to_string();
        assert!(rendered.starts_with("metrics: test\n"));
        assert!(rendered.contains("events popped"));
        assert!(rendered.contains("policy dispatches"));
        assert!(rendered.contains("something"));
        // Empty phases add no rows.
        let mut snap = MetricsSnapshot::new("phases");
        snap.push_phases(&PhaseTimes::default());
        assert_eq!(snap.to_string(), "metrics: phases\n");
    }
}
