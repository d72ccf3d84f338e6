//! Pipeline telemetry for the TISCC stack: structured spans, counters and
//! per-phase timing, with zero external dependencies (the workspace is
//! offline/vendored).
//!
//! The design splits cleanly into three layers:
//!
//! * [`Telemetry`] — a cheap cloneable handle that is either **off** (the
//!   default: every call is an `Option` check and an immediate return, so
//!   instrumented hot paths cost nothing measurable) or **enabled**
//!   (recording into a shared, thread-safe recorder). Pipeline functions
//!   take a parent [`Span`] and never care which one they got.
//! * [`Span`] — one timed phase. Spans form an explicit tree: a child is
//!   opened from its parent (`parent.child("compile")`), so concurrent
//!   phases on rayon workers can never tangle an implicit thread-local
//!   stack. A span closes when dropped (or explicitly via
//!   [`Span::finish`]); timing uses the monotonic [`Instant`] clock.
//!   Counters ([`Telemetry::add`]) and gauges ([`Telemetry::gauge`]) are
//!   typed registries keyed by dotted names (`compile.cache_hits`).
//! * [`TraceFormat::render`] — how a finished [`TraceReport`] leaves the
//!   process: the human-readable span tree, or the flat-JSON document
//!   that round-trips through [`trace_from_json`].
//! * [`json`] — the stack's one bounded JSON reader, behind both
//!   [`trace_from_json`] and the serve protocol.
//!
//! ```
//! use tiscc_telemetry::{Telemetry, TraceFormat};
//!
//! let tel = Telemetry::new_enabled();
//! let root = tel.root("estimate");
//! {
//!     let parse = root.child("parse");
//!     parse.add("parse.instructions", 12);
//! } // drop closes the span
//! root.finish();
//!
//! let report = tel.snapshot().unwrap();
//! assert_eq!(report.spans.len(), 2);
//! let json = TraceFormat::Json.render(&report);
//! let back = tiscc_telemetry::trace_from_json(&json).unwrap();
//! assert_eq!(back.counters, report.counters);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
mod render;

pub use json::trace_from_json;
pub use render::{json_f64, json_string};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hard cap on recorded spans per [`Telemetry`] handle. Long-lived
/// recorders (the `tiscc serve` loop keeps one for the whole session) stop
/// recording *spans* past the cap — counters and gauges keep counting —
/// so memory stays bounded no matter how many requests arrive.
pub const MAX_SPANS: usize = 16_384;

/// One recorded phase: its name, its parent (an index into
/// [`TraceReport::spans`], `None` for roots), and its monotonic timing in
/// microseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The phase name (`parse`, `compile`, …).
    pub name: String,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Microseconds from the recorder's epoch to the span's open.
    pub start_us: f64,
    /// The span's duration in microseconds; `None` while still open.
    pub duration_us: Option<f64>,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    fn elapsed_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&self, name: &str, parent: Option<usize>) -> Option<usize> {
        let start_us = self.elapsed_us();
        let mut spans = self.spans.lock().expect("telemetry spans poisoned");
        if spans.len() >= MAX_SPANS {
            return None;
        }
        spans.push(SpanRecord { name: name.to_string(), parent, start_us, duration_us: None });
        Some(spans.len() - 1)
    }

    fn close(&self, id: usize) {
        let now_us = self.elapsed_us();
        let mut spans = self.spans.lock().expect("telemetry spans poisoned");
        if let Some(record) = spans.get_mut(id) {
            if record.duration_us.is_none() {
                record.duration_us = Some(now_us - record.start_us);
            }
        }
    }
}

/// The telemetry handle threaded through the pipeline. Cloning is cheap
/// (an `Arc` bump when enabled, a copy of `None` when off); handles are
/// `Send + Sync` so rayon workers can count into the same registries.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Recorder>>,
}

impl Telemetry {
    /// The no-op handle: records nothing, costs (almost) nothing. This is
    /// the default every untraced pipeline entry point runs under.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A recording handle with a fresh epoch and empty registries.
    pub fn new_enabled() -> Telemetry {
        Telemetry { inner: Some(Arc::new(Recorder::new())) }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span (no parent). The span closes on drop or
    /// [`Span::finish`].
    pub fn root(&self, name: &str) -> Span {
        let id = self.inner.as_ref().and_then(|r| r.open(name, None));
        Span { tel: self.clone(), id }
    }

    /// Adds `n` to the named counter (created at zero on first use).
    pub fn add(&self, counter: &str, n: u64) {
        if let Some(r) = &self.inner {
            let mut counters = r.counters.lock().expect("telemetry counters poisoned");
            *counters.entry(counter.to_string()).or_insert(0) += n;
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(r) = &self.inner {
            let mut gauges = r.gauges.lock().expect("telemetry gauges poisoned");
            gauges.insert(name.to_string(), value);
        }
    }

    /// The current value of a counter (0 when off or never written).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(r) => {
                *r.counters.lock().expect("telemetry counters poisoned").get(name).unwrap_or(&0)
            }
        }
    }

    /// Snapshots the recorder into a [`TraceReport`]; `None` when off.
    /// Open spans appear with `duration_us: None`.
    pub fn snapshot(&self) -> Option<TraceReport> {
        let r = self.inner.as_ref()?;
        let spans = r.spans.lock().expect("telemetry spans poisoned").clone();
        let counters =
            r.counters.lock().expect("telemetry counters poisoned").clone().into_iter().collect();
        let gauges =
            r.gauges.lock().expect("telemetry gauges poisoned").clone().into_iter().collect();
        Some(TraceReport { total_us: r.elapsed_us(), spans, counters, gauges })
    }
}

/// A live span: a handle to one open [`SpanRecord`]. Closing happens on
/// drop, so the natural pattern is a scoped binding around the phase.
/// Spans opened from an off [`Telemetry`] (or past [`MAX_SPANS`]) are
/// inert and cost only the `Option` check.
pub struct Span {
    tel: Telemetry,
    id: Option<usize>,
}

impl Span {
    /// Opens a child span under this one.
    pub fn child(&self, name: &str) -> Span {
        let id = self.tel.inner.as_ref().and_then(|r| r.open(name, self.id));
        Span { tel: self.tel.clone(), id }
    }

    /// Adds `n` to the named counter on this span's telemetry handle.
    pub fn add(&self, counter: &str, n: u64) {
        self.tel.add(counter, n);
    }

    /// The telemetry handle this span records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Closes the span now instead of at end of scope.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if let (Some(id), Some(r)) = (self.id.take(), self.tel.inner.as_ref()) {
            r.close(id);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// A snapshot of a recorder: every span (parent-linked, in open order),
/// every counter and gauge (sorted by name), and the elapsed time since
/// the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Microseconds from the recorder's epoch to the snapshot.
    pub total_us: f64,
    /// Recorded spans, in open order; parents precede children.
    pub spans: Vec<SpanRecord>,
    /// Counter registry, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge registry, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

impl TraceReport {
    /// The slash-joined ancestry path of span `index`
    /// (`estimate/compile`).
    pub fn path(&self, index: usize) -> String {
        let mut parts = Vec::new();
        let mut at = Some(index);
        while let Some(i) = at {
            parts.push(self.spans[i].name.as_str());
            at = self.spans[i].parent;
        }
        parts.reverse();
        parts.join("/")
    }

    /// The names of every span whose parent is `None`.
    pub fn roots(&self) -> Vec<&str> {
        self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.name.as_str()).collect()
    }
}

/// The trace output format selected by `--trace[=json|tree]`. Rendering
/// only produces text; the caller decides where it goes (the CLI writes to
/// stderr so stdout stays byte-identical with tracing off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Human-readable span tree, counters and gauges as aligned text
    /// (`--trace` or `--trace=tree`).
    Tree,
    /// One line of `tiscc.trace.v1` JSON (`--trace=json`). Nested span
    /// structure is carried by flat `parent` indices and slash-joined
    /// `path` strings, matching the flat style of the serve protocol;
    /// [`trace_from_json`] parses it back.
    Json,
}

impl TraceFormat {
    /// Parses a `--trace` flag value: the empty string (a bare `--trace`)
    /// and `tree` select [`TraceFormat::Tree`]; `json` selects
    /// [`TraceFormat::Json`].
    pub fn parse(value: &str) -> Result<TraceFormat, String> {
        match value {
            "" | "tree" => Ok(TraceFormat::Tree),
            "json" => Ok(TraceFormat::Json),
            other => Err(format!("unknown trace format {other:?} (expected 'tree' or 'json')")),
        }
    }

    /// Renders a finished trace in this format.
    pub fn render(&self, trace: &TraceReport) -> String {
        match self {
            TraceFormat::Tree => render::render_tree(trace),
            TraceFormat::Json => render::render_json(trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing_and_snapshots_none() {
        let tel = Telemetry::off();
        assert!(!tel.is_enabled());
        let root = tel.root("estimate");
        let child = root.child("parse");
        child.add("parse.instructions", 3);
        tel.gauge("g", 1.0);
        drop(child);
        root.finish();
        assert_eq!(tel.counter("parse.instructions"), 0);
        assert!(tel.snapshot().is_none());
    }

    #[test]
    fn spans_form_a_parent_linked_tree() {
        let tel = Telemetry::new_enabled();
        let root = tel.root("estimate");
        {
            let compile = root.child("compile");
            let _inner = compile.child("capture");
        }
        root.finish();
        let report = tel.snapshot().unwrap();
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.spans[0].parent, None);
        assert_eq!(report.spans[1].parent, Some(0));
        assert_eq!(report.spans[2].parent, Some(1));
        assert_eq!(report.path(2), "estimate/compile/capture");
        assert_eq!(report.roots(), vec!["estimate"]);
        for span in &report.spans {
            let d = span.duration_us.expect("all spans closed");
            assert!(d >= 0.0);
        }
        // Children open after and close before their parent.
        let root_span = &report.spans[0];
        let child = &report.spans[1];
        assert!(child.start_us >= root_span.start_us);
        assert!(
            child.start_us + child.duration_us.unwrap()
                <= root_span.start_us + root_span.duration_us.unwrap() + 1e-6
        );
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let tel = Telemetry::new_enabled();
        tel.add("cache.hits", 2);
        tel.add("cache.hits", 3);
        tel.gauge("threads", 4.0);
        tel.gauge("threads", 8.0);
        assert_eq!(tel.counter("cache.hits"), 5);
        assert_eq!(tel.counter("missing"), 0);
        let report = tel.snapshot().unwrap();
        assert_eq!(report.counters, vec![("cache.hits".to_string(), 5)]);
        assert_eq!(report.gauges, vec![("threads".to_string(), 8.0)]);
    }

    #[test]
    fn open_spans_snapshot_with_no_duration() {
        let tel = Telemetry::new_enabled();
        let root = tel.root("serve");
        let report = tel.snapshot().unwrap();
        assert_eq!(report.spans[0].duration_us, None);
        root.finish();
        let report = tel.snapshot().unwrap();
        assert!(report.spans[0].duration_us.is_some());
    }

    #[test]
    fn span_cap_bounds_memory_but_not_counters() {
        let tel = Telemetry::new_enabled();
        for _ in 0..(MAX_SPANS + 10) {
            tel.root("r").finish();
            tel.add("n", 1);
        }
        let report = tel.snapshot().unwrap();
        assert_eq!(report.spans.len(), MAX_SPANS);
        assert_eq!(tel.counter("n"), (MAX_SPANS + 10) as u64);
    }

    #[test]
    fn formats_render_and_parse() {
        let tel = Telemetry::new_enabled();
        tel.root("estimate").finish();
        let report = tel.snapshot().unwrap();
        let tree = TraceFormat::Tree.render(&report);
        assert!(tree.contains("estimate"), "{tree}");
        let json = TraceFormat::Json.render(&report);
        assert!(json.contains("\"tiscc.trace.v1\""), "{json}");
        assert_eq!(TraceFormat::parse("").unwrap(), TraceFormat::Tree);
        assert_eq!(TraceFormat::parse("tree").unwrap(), TraceFormat::Tree);
        assert_eq!(TraceFormat::parse("json").unwrap(), TraceFormat::Json);
        assert!(TraceFormat::parse("xml").is_err());
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Telemetry>();
        check::<Span>();
        let tel = Telemetry::new_enabled();
        let root = tel.root("parallel");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let root = &root;
                scope.spawn(move || {
                    let span = root.child("worker");
                    span.add("work", 1);
                });
            }
        });
        root.finish();
        assert_eq!(tel.counter("work"), 4);
    }
}
