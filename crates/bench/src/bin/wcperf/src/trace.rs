//! Spans around calls into the layers' public functions, per-pass
//! counters, self time from nesting, and Chrome trace-event output.
//!
//! Every timed call goes through [`Recorder::call`], in both runs: the
//! untraced run only adds the call's duration to the op latency and to
//! the pass counters; the traced run also keeps the span in memory.
//! Spans are written once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use wc_bench::jsonfmt::{inline, quoted, JsonObject};

/// Per-pass sums keyed by span name (nanoseconds) or by fact name.
pub type Counters = BTreeMap<String, f64>;

/// The layer tracks of the trace, in display order. A span's track is
/// the layer whose public function it times.
pub const TRACKS: [&str; 9] = [
    "ops", "core", "fuzz", "faults", "analysis", "sim", "bdi", "power", "bench",
];

pub const OPS: &str = "ops";
pub const CORE: &str = "core";
pub const FUZZ: &str = "fuzz";
pub const FAULTS: &str = "faults";
pub const ANALYSIS: &str = "analysis";
pub const SIM: &str = "sim";
pub const BDI: &str = "bdi";
pub const POWER: &str = "power";
pub const BENCH: &str = "bench";

/// One closed span. `parent` indexes the enclosing span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub track: &'static str,
    /// The op's kernel/design label on op spans; empty elsewhere.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    traced: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open structural spans (op, children), innermost last; a span
    /// slot is reserved at `begin` and closed at `end`.
    open: Vec<usize>,
    counters: Counters,
    /// Calls made while `in_op` count toward the op's latency; the
    /// children a traced run re-executes afterwards do not.
    in_op: bool,
    op_ns: u64,
    children_ns: u64,
    last_ns: u64,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Counters::new(),
            in_op: true,
            op_ns: 0,
            children_ns: 0,
            last_ns: 0,
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f`, a call into one layer's public function `name`.
    pub fn call<T>(&mut self, name: &'static str, track: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let value = std::hint::black_box(f());
        let end = self.now_ns();
        let ns = end - start;
        self.last_ns = ns;
        if self.in_op {
            self.op_ns += ns;
        } else {
            self.children_ns += ns;
        }
        self.count(name, ns as f64);
        if self.traced {
            self.spans.push(Span {
                name,
                track,
                detail: String::new(),
                start_ns: start,
                end_ns: end,
                parent: self.open.last().copied(),
            });
        }
        value
    }

    /// Duration of the most recent [`call`](Self::call).
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Adds `value` to the pass counter `key`.
    pub fn count(&mut self, key: &str, value: f64) {
        match self.counters.get_mut(key) {
            Some(v) => *v += value,
            None => {
                self.counters.insert(key.to_string(), value);
            }
        }
    }

    /// Opens a structural span (traced runs only).
    pub fn begin(&mut self, name: &'static str, detail: &str) {
        if !self.traced {
            return;
        }
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            track: OPS,
            detail: detail.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost structural span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Starts an op: its latency accumulates from here.
    pub fn start_op(&mut self) {
        self.in_op = true;
        self.op_ns = 0;
        self.children_ns = 0;
    }

    /// Switches to the op's re-executed children.
    pub fn start_children(&mut self) {
        self.in_op = false;
    }

    pub fn op_ns(&self) -> u64 {
        self.op_ns
    }

    pub fn children_ns(&self) -> u64 {
        self.children_ns
    }

    pub fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover. Children of one parent run one after another, so
/// their durations add without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Renders spans as a Chrome trace-event document: one `ph: "X"` event
/// per span on its layer's track, with its id, parent id and self time
/// in `args`, plus the run's facts under `otherData`. Perfetto and
/// `chrome://tracing` open it.
pub fn chrome_trace(spans: &[Span], other: &[(&str, String)]) -> String {
    let tid = |track: &str| TRACKS.iter().position(|t| *t == track).unwrap_or(0) + 1;
    let mut events: Vec<String> = TRACKS
        .iter()
        .map(|t| {
            inline(&[
                ("name", quoted("thread_name")),
                ("ph", quoted("M")),
                ("pid", "1".into()),
                ("tid", tid(t).to_string()),
                ("args", inline(&[("name", quoted(t))])),
            ])
        })
        .collect();
    let selfs = self_times(spans);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let mut args = vec![
            ("id", id.to_string()),
            (
                "parent",
                s.parent.map_or_else(|| "null".into(), |p| p.to_string()),
            ),
            ("self_us", micros(self_ns)),
        ];
        if !s.detail.is_empty() {
            args.push(("detail", quoted(&s.detail)));
        }
        events.push(inline(&[
            ("name", quoted(s.name)),
            ("cat", quoted(s.track)),
            ("ph", quoted("X")),
            ("ts", micros(s.start_ns)),
            ("dur", micros(s.dur_ns())),
            ("pid", "1".into()),
            ("tid", tid(s.track).to_string()),
            ("args", inline(&args)),
        ]));
    }
    let mut doc = String::from("{\"traceEvents\": [\n");
    doc.push_str(&events.join(",\n"));
    doc.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ");
    let mut data = JsonObject::new(0);
    for (k, v) in other {
        data = data.field(k, v.clone());
    }
    doc.push_str(&data.render());
    doc.push_str("}\n");
    doc
}

fn micros(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            track: CORE,
            detail: String::new(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100) holds call [5, 45) and children [50, 95), which
        // holds two child calls; the grandchildren do not count
        // against the op.
        let spans = vec![
            span("op", 0, 100, None),
            span("call", 5, 45, Some(0)),
            span("children", 50, 95, Some(0)),
            span("a", 52, 70, Some(2)),
            span("b", 71, 90, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![15, 40, 8, 18, 19]);
    }

    #[test]
    fn recorder_nests_calls_and_splits_op_from_children() {
        let mut rec = Recorder::new(true);
        rec.start_op();
        rec.begin("op", "k/d");
        let v = rec.call("f", CORE, || 7);
        rec.start_children();
        rec.begin("children", "");
        rec.call("g", SIM, || ());
        rec.end();
        rec.end();
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(rec.op_ns(), spans[1].dur_ns());
        assert_eq!(rec.children_ns(), spans[3].dur_ns());
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let counters = rec.take_counters();
        assert!(counters.contains_key("f") && counters.contains_key("g"));
    }

    #[test]
    fn untraced_recorder_keeps_no_spans() {
        let mut rec = Recorder::new(false);
        rec.begin("op", "");
        rec.call("f", CORE, || ());
        rec.end();
        assert!(rec.spans().is_empty());
        assert!(rec.take_counters().contains_key("f"));
    }

    #[test]
    fn chrome_trace_parses_and_links_parents() {
        let spans = vec![
            span("op", 0, 2_000, None),
            span("call", 500, 1_500, Some(0)),
        ];
        let doc = chrome_trace(&spans, &[("workload", quoted("w"))]);
        let json = crate::json::parse(&doc).expect("trace must be valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let x: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(x.len(), 2);
        let args = x[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            x[0].get("args")
                .and_then(|a| a.get("self_us"))
                .and_then(|s| s.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            json.get("otherData")
                .and_then(|d| d.get("workload"))
                .and_then(|w| w.as_str()),
            Some("w")
        );
    }
}
