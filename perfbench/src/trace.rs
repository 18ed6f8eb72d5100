//! The benchmark's own span recorder: spans around the calls the
//! benchmark makes into each layer's public functions, kept in memory
//! and written once, at the end, as Chrome-trace JSON.
//!
//! A disabled [`Tracer`] reads no clock and stores nothing, so the
//! untraced phase runs exactly the calls a user would make.
//!
//! Some layers run inside a public call the benchmark cannot open (the
//! tick engine inside `ScenarioRunner::validate`, for example); their
//! durations come from the program's own telemetry (`PhaseTimes`) and
//! are recorded as *derived* child spans.  A derived span's duration is
//! measured; its position inside the parent is not (derived children
//! are laid end to end from the parent's start).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The name of the span that wraps one op.  Layer self times are
/// accounted inside op spans only.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer (module) name, e.g. `sim.search`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to (`0` outside any op, e.g. set-up).
    pub op: u64,
    /// Free-form label shown in the trace (the graph name).
    pub label: String,
    /// `true` for a span whose duration comes from program telemetry.
    pub derived: bool,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// In-memory span recorder.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::disabled()
        }
    }

    /// Whether spans are recorded (and program telemetry requested).
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span nested in the innermost open span.  An [`OP`] span
    /// starts a new op id.
    pub fn begin(&mut self, name: &'static str, label: &str) -> SpanId {
        let epoch = self.epoch?;
        if name == OP {
            self.ops += 1;
        }
        let start = epoch.elapsed();
        Some(self.push(name, label, start, start, false))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close in LIFO
    /// order.
    pub fn end(&mut self, id: SpanId) {
        let (Some(epoch), Some(id)) = (self.epoch, id) else {
            return;
        };
        self.spans[id].end = epoch.elapsed();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close in LIFO order");
        self.open.pop();
    }

    /// Records a child of `parent` whose duration comes from program
    /// telemetry, laid after the parent's earlier derived children.
    pub fn derived(&mut self, parent: SpanId, name: &'static str, duration: Duration) {
        let (Some(_), Some(parent)) = (self.epoch, parent) else {
            return;
        };
        let start = self
            .spans
            .iter()
            .filter(|s| s.derived && s.parent == Some(parent))
            .map(|s| s.end)
            .max()
            .unwrap_or(self.spans[parent].start);
        let label = self.spans[parent].label.clone();
        let id = self.push(name, &label, start, start + duration, true);
        self.spans[id].parent = Some(parent);
        self.open.pop();
    }

    fn push(
        &mut self,
        name: &'static str,
        label: &str,
        start: Duration,
        end: Duration,
        derived: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            op: if self.open.is_empty() && name != OP {
                0
            } else {
                self.ops
            },
            label: label.to_owned(),
            derived,
        });
        self.open.push(id);
        id
    }
}

/// Where the traced op wall went: every layer's self time inside op
/// spans, and the op spans' own self time (the residual no layer
/// accounts for).  `layers` plus `residual` equals `op_wall` exactly.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    /// Summed duration of every op span.
    pub op_wall: Duration,
    /// Self time per layer name, inside op spans.
    pub layers: BTreeMap<&'static str, Duration>,
    /// Summed self time of the op spans themselves.
    pub residual: Duration,
}

impl Accounting {
    /// A layer's share of the op wall (`0` when nothing was traced).
    pub fn share(&self, layer: &str) -> f64 {
        ratio(
            self.layers.get(layer).copied().unwrap_or_default(),
            self.op_wall,
        )
    }

    /// The residual's share of the op wall.
    pub fn residual_share(&self) -> f64 {
        ratio(self.residual, self.op_wall)
    }
}

fn ratio(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        part.as_secs_f64() / whole.as_secs_f64()
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration());
        }
    }
    own
}

/// Splits the op wall into layer self times plus the residual.
pub fn account(spans: &[Span]) -> Accounting {
    let own = self_times(spans);
    let mut acc = Accounting::default();
    for (span, own) in spans.iter().zip(own) {
        if span.op == 0 {
            continue;
        }
        if span.name == OP {
            acc.op_wall += span.duration();
            acc.residual += own;
        } else {
            *acc.layers.entry(span.name).or_default() += own;
        }
    }
    acc
}

/// Renders the spans as Chrome-trace JSON (complete `X` events, one
/// thread track per op), loadable in Perfetto.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"label\":\"{}\",\"derived\":{}}}}}",
            s.name,
            s.op,
            s.start.as_secs_f64() * 1e6,
            s.duration().as_secs_f64() * 1e6,
            s.op,
            s.label.replace(['"', '\\'], "_"),
            s.derived,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
            op,
            label: String::new(),
            derived: false,
        }
    }

    #[test]
    fn layer_self_times_plus_residual_equal_the_op_wall() {
        let spans = vec![
            span("sdf.csdf", 0, 5, None, 0),
            span(OP, 10, 110, None, 1),
            span("sim.search", 12, 90, Some(1), 1),
            span("sim.engine", 12, 70, Some(2), 1),
            span("sim.plan", 70, 75, Some(2), 1),
            span("sim.search", 90, 105, Some(1), 1),
            span(OP, 200, 250, None, 2),
            span("sim.search", 200, 240, Some(6), 2),
        ];
        let acc = account(&spans);
        assert_eq!(acc.op_wall, Duration::from_micros(150));
        assert_eq!(acc.layers["sim.engine"], Duration::from_micros(58));
        assert_eq!(acc.layers["sim.plan"], Duration::from_micros(5));
        assert_eq!(
            acc.layers["sim.search"],
            Duration::from_micros(15 + 15 + 40)
        );
        assert_eq!(acc.residual, Duration::from_micros(7 + 10));
        assert!(
            !acc.layers.contains_key("sdf.csdf"),
            "set-up is not op wall"
        );
        let total: Duration = acc.layers.values().sum::<Duration>() + acc.residual;
        assert_eq!(total, acc.op_wall);
        let shares: f64 =
            acc.layers.keys().map(|l| acc.share(l)).sum::<f64>() + acc.residual_share();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_lays_derived_children_end_to_end() {
        let mut t = Tracer::enabled();
        let setup = t.begin("sdf.csdf", "mp3");
        t.end(setup);
        let op = t.begin(OP, "");
        let search = t.begin("sim.search", "mp3");
        std::thread::sleep(Duration::from_millis(2));
        t.end(search);
        t.derived(search, "sim.plan", Duration::from_micros(100));
        t.derived(search, "sim.engine", Duration::from_micros(300));
        t.end(op);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[0].op, s[1].op, s[2].op), (0, 1, 1));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[3].parent, s[4].parent), (Some(2), Some(2)));
        assert_eq!(s[3].start, s[2].start);
        assert_eq!(s[4].start, s[3].end);
        assert_eq!(s[4].duration(), Duration::from_micros(300));
        let json = chrome_trace(s);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);

        let mut off = Tracer::disabled();
        let id = off.begin(OP, "");
        off.derived(id, "sim.plan", Duration::from_micros(1));
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
