//! The benchmark's own tracer: spans recorded from outside the program,
//! around each call into a library layer, plus per-layer counts.
//!
//! Spans nest by call order on the benchmark thread (the compile fan-out
//! runs inside one span), so a stack gives every span its parent. A
//! layer's self time is its span's duration minus the time its child spans
//! cover. Counts are recorded whether spans are on or off, so untraced
//! passes can be checked for determinism too.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Record {
    name: &'static str,
    parent: Option<usize>,
    duration: Duration,
}

#[derive(Default)]
struct Inner {
    records: Vec<Record>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
}

/// One pass's spans and counts.
pub struct Tracer {
    spans: bool,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer that records spans only when `spans` is true.
    pub fn new(spans: bool) -> Tracer {
        Tracer { spans, inner: RefCell::new(Inner::default()) }
    }

    /// Whether spans are recorded.
    pub fn spans_on(&self) -> bool {
        self.spans
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.spans {
            return f();
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            inner.records.push(Record { name, parent, duration: Duration::ZERO });
            let index = inner.records.len() - 1;
            inner.open.push(index);
            index
        };
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        let mut inner = self.inner.borrow_mut();
        inner.records[index].duration = elapsed;
        inner.open.pop();
        out
    }

    /// Adds `value` to the count `name`.
    pub fn count(&self, name: &'static str, value: u64) {
        *self.inner.borrow_mut().counts.entry(name).or_insert(0) += value;
    }

    /// Raises the count `name` to at least `value`.
    pub fn count_max(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.counts.entry(name).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Raises the timing gauge `name` to at least `value`. Gauges are
    /// timings, so they are kept apart from the counts that must repeat.
    pub fn gauge_max(&self, name: &'static str, value: f64) {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.gauges.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    /// The counts recorded so far.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.inner.borrow().counts.clone()
    }

    /// The timing gauges recorded so far.
    pub fn gauges(&self) -> BTreeMap<&'static str, f64> {
        self.inner.borrow().gauges.clone()
    }

    /// Self time in milliseconds per span name, summed over every span of
    /// that name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let inner = self.inner.borrow();
        let mut child_time = vec![Duration::ZERO; inner.records.len()];
        for record in &inner.records {
            if let Some(parent) = record.parent {
                child_time[parent] += record.duration;
            }
        }
        let mut out = BTreeMap::new();
        for (record, children) in inner.records.iter().zip(child_time) {
            let own = record.duration.saturating_sub(children);
            *out.entry(record.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }
}
