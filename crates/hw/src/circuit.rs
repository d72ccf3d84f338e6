//! Time-resolved hardware circuits.
//!
//! A [`Circuit`] is an ordered list of [`TimedOp`]s. The *stream order* of
//! the list defines logical (causal) order per ion and is what the simulator
//! replays; the `start_us` timestamps record the ASAP schedule used for
//! resource estimation and for junction-conflict resolution (paper Sec. 3.3–3.4).
//!
//! A circuit may additionally carry [`ReplicatedSpan`]s: op ranges (captured
//! syndrome-extraction rounds) that logically repeat without being
//! re-materialized. [`Circuit::ops`] exposes only the materialized (first)
//! occurrences; consumers that must see every logical operation stream them
//! through [`OpStream::for_each_op`] or flatten with [`Circuit::materialize`].
//! Circuits built without round replication carry no spans and behave exactly
//! as before.

use tiscc_grid::{QSite, QubitId};

use crate::label::Label;
use crate::operands::Operands;
use crate::ops::NativeOp;
use crate::rounds::{first_replica_base, replay_round, Replicas, ReplicatedSpan};

/// One scheduled native operation.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedOp {
    /// The native operation.
    pub op: NativeOp,
    /// The qsites addressed, in operand order. For transport this is
    /// `[from, to]`; for `ZZ` the two interacting zones; for a batched SIMD
    /// pulse one zone per member; otherwise one site. Held inline unless a
    /// pulse is wider than two (see [`Operands`]).
    pub sites: Operands<QSite>,
    /// The ions involved, in operand order (one ion for transport, one per
    /// member for a batched pulse). Held inline like [`TimedOp::sites`].
    pub qubits: Operands<QubitId>,
    /// Scheduled start time in microseconds.
    pub start_us: f64,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// For junction moves: the junction exclusively held during the hop.
    pub junction: Option<QSite>,
    /// For `MeasureZ`: index into [`Circuit::measurements`].
    pub measurement: Option<usize>,
}

impl TimedOp {
    /// Scheduled end time in microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.duration_us
    }
}

/// Record of one mid-circuit or final measurement, used by the verification
/// layer to connect simulated outcomes to post-processing rules (Sec. 4.5).
#[derive(Clone, Debug, PartialEq)]
pub struct MeasurementRecord {
    /// Sequential measurement index within the circuit.
    pub index: usize,
    /// The ion measured.
    pub qubit: QubitId,
    /// The zone where the measurement happened.
    pub site: QSite,
    /// Scheduled start time of the measurement.
    pub start_us: f64,
    /// Interned label attached by the compiler (e.g. rendering to
    /// `"idle round 0 Z cell (1, 2)"`); see [`Label`].
    pub label: Label,
}

/// A view of one logical operation yielded by [`OpStream::for_each_op`].
///
/// For materialized ops this is the op itself; for an op inside a replicated
/// round occurrence, `start_us` and `measurement` carry the occurrence's
/// shifted schedule and re-numbered measurement index while `op` borrows the
/// template operation.
#[derive(Clone, Copy, Debug)]
pub struct OpView<'a> {
    /// The underlying operation (sites, qubits, kind, duration).
    pub op: &'a TimedOp,
    /// Scheduled start time of this logical occurrence in microseconds.
    pub start_us: f64,
    /// Measurement-record index of this logical occurrence, if any.
    pub measurement: Option<usize>,
}

impl OpView<'_> {
    /// Scheduled end time of this logical occurrence in microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.op.duration_us
    }
}

/// A run of a stream: one op sequence occurring `repeats` times back to
/// back, yielded by [`OpStream::for_each_run`].
#[derive(Clone, Copy, Debug)]
pub struct OpRun<'a> {
    /// The ops of one occurrence, in stream order.
    pub ops: &'a [TimedOp],
    /// Occurrences of `ops` in a row.
    pub repeats: usize,
    /// The latest [`OpView::end_us`] of any op in any occurrence (µs);
    /// negative infinity for an empty run.
    pub end_us: f64,
}

impl<'a> OpRun<'a> {
    /// The run of `ops` occurring once at their stored times, viewed with
    /// `rebase_us` subtracted from each start.
    pub(crate) fn stored(ops: &'a [TimedOp], rebase_us: f64) -> Self {
        let end_us = ops
            .iter()
            .map(|op| (op.start_us - rebase_us) + op.duration_us)
            .fold(f64::NEG_INFINITY, f64::max);
        OpRun { ops, repeats: 1, end_us }
    }
}

/// Anything that can stream its scheduled operations in logical order.
///
/// Implemented by [`Circuit`] (materialized ops plus replicated-span
/// replays) and by [`crate::rounds::CompiledRounds`] (prologue, `repeats` ×
/// template, epilogue). Consumers — resource accounting, validity checking,
/// the simulator — fold over the stream with running accumulators instead of
/// walking a cloned `Vec<TimedOp>`.
pub trait OpStream {
    /// Calls `f` once per logical operation, in stream (causal) order.
    fn for_each_op(&self, f: &mut dyn FnMut(OpView<'_>));

    /// Calls `f` once per run, in stream order: the runs' ops, each
    /// repeated its run's `repeats` times, are the stream of
    /// [`OpStream::for_each_op`]. A replicated round is one run, so
    /// per-round accounting ([`crate::ResourceReport`]) costs one replay
    /// of it, not one per occurrence.
    fn for_each_run(&self, f: &mut dyn FnMut(OpRun<'_>));

    /// Calls `f` once per *distinct* operation (each replicated round's ops
    /// once, not per occurrence). Sufficient for set-valued accounting such
    /// as zones touched.
    fn for_each_distinct_op(&self, f: &mut dyn FnMut(&TimedOp));

    /// Total number of measurement records across every occurrence.
    fn measurement_count(&self) -> usize;
}

/// A compiled, time-resolved hardware circuit.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    ops: Vec<TimedOp>,
    measurements: Vec<MeasurementRecord>,
    spans: Vec<ReplicatedSpan>,
}

impl Circuit {
    /// An empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Builds a circuit from a list of already-scheduled operations with no
    /// measurement records (hand-built test circuits). Prefer
    /// [`Circuit::from_parts`] when records are available — counters that
    /// need them otherwise fall back to counting `Measure_Z` ops.
    pub fn from_ops(ops: Vec<TimedOp>) -> Self {
        Circuit { ops, measurements: Vec::new(), spans: Vec::new() }
    }

    /// Builds a circuit from already-scheduled operations *and* their
    /// measurement records (used by the resource estimator to account for a
    /// sub-range of a larger compiled circuit without losing its records).
    pub fn from_parts(ops: Vec<TimedOp>, measurements: Vec<MeasurementRecord>) -> Self {
        Circuit { ops, measurements, spans: Vec::new() }
    }

    /// Takes the circuit apart into its ops, measurement records and spans.
    pub(crate) fn into_parts(self) -> (Vec<TimedOp>, Vec<MeasurementRecord>, Vec<ReplicatedSpan>) {
        (self.ops, self.measurements, self.spans)
    }

    /// Appends an operation (builder use only; prefer [`crate::HardwareModel`]).
    pub(crate) fn push(&mut self, op: TimedOp) {
        self.ops.push(op);
    }

    /// Appends a measurement record and returns its index.
    pub(crate) fn push_measurement(&mut self, mut rec: MeasurementRecord) -> usize {
        let idx = self.measurements.len();
        rec.index = idx;
        self.measurements.push(rec);
        idx
    }

    /// Sets a measurement record's start time once its schedule is known.
    pub(crate) fn set_measurement_start(&mut self, idx: usize, start_us: f64) {
        self.measurements[idx].start_us = start_us;
    }

    /// Marks an op range as a replicated round (see [`ReplicatedSpan`]).
    pub(crate) fn push_span(&mut self, span: ReplicatedSpan) {
        debug_assert!(span.op_end <= self.ops.len());
        debug_assert!(self.spans.last().map_or(0, |s| s.op_end) <= span.op_start);
        self.spans.push(span);
    }

    /// The materialized operations in stream (causal) order: every op's
    /// *first* occurrence. Replicated rounds appear once; use
    /// [`OpStream::for_each_op`] to stream every logical occurrence.
    pub fn ops(&self) -> &[TimedOp] {
        &self.ops
    }

    /// The replicated spans (empty for fully materialized circuits).
    pub fn spans(&self) -> &[ReplicatedSpan] {
        &self.spans
    }

    /// True if the circuit carries replicated (non-materialized) rounds.
    pub fn is_periodic(&self) -> bool {
        !self.spans.is_empty()
    }

    /// The measurement records in emission order (replicated rounds
    /// included — records are always materialized).
    pub fn measurements(&self) -> &[MeasurementRecord] {
        &self.measurements
    }

    /// Number of *materialized* operations (also the index space of
    /// [`Circuit::ops`]). See [`Circuit::logical_len`] for the count that
    /// includes replicated occurrences.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Total number of logical operations, counting every replicated
    /// occurrence.
    pub fn logical_len(&self) -> usize {
        self.ops.len() + self.spans.iter().map(|s| s.extra * s.len()).sum::<usize>()
    }

    /// True if the circuit contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total wall-clock duration (makespan) in microseconds, replicated
    /// rounds included.
    pub fn makespan_us(&self) -> f64 {
        let flat = self.ops.iter().map(TimedOp::end_us).fold(0.0, f64::max);
        self.spans.iter().map(|s| s.end_makespan_us).fold(flat, f64::max)
    }

    /// Count of operations of a given kind, replicated occurrences included.
    pub fn count_of(&self, op: NativeOp) -> usize {
        let flat = self.ops.iter().filter(|t| t.op == op).count();
        let replicated: usize = self
            .spans
            .iter()
            .map(|s| s.extra * self.ops[s.op_start..s.op_end].iter().filter(|t| t.op == op).count())
            .sum();
        flat + replicated
    }

    /// Flattens the circuit: every replicated occurrence becomes a
    /// materialized op (with its replayed schedule and re-numbered
    /// measurement index). Identity for circuits without spans.
    pub fn materialize(&self) -> Circuit {
        if self.spans.is_empty() {
            return self.clone();
        }
        let mut ops = Vec::with_capacity(self.logical_len());
        self.for_each_op(&mut |v: OpView<'_>| {
            let mut op = v.op.clone();
            op.start_us = v.start_us;
            op.measurement = v.measurement;
            ops.push(op);
        });
        Circuit::from_parts(ops, self.measurements.clone())
    }

    /// Concatenates another circuit's operations after this one, offsetting
    /// its schedule so it starts no earlier than this circuit's makespan.
    /// Measurement indices of `other` are re-based. A periodic `other` is
    /// flattened first so no logical operation is lost.
    pub fn extend_sequential(&mut self, other: &Circuit) {
        if other.is_periodic() {
            return self.extend_sequential(&other.materialize());
        }
        let offset = self.makespan_us();
        let meas_offset = self.measurements.len();
        for op in &other.ops {
            let mut op = op.clone();
            op.start_us += offset;
            op.measurement = op.measurement.map(|m| m + meas_offset);
            self.ops.push(op);
        }
        for rec in &other.measurements {
            let mut rec = rec.clone();
            rec.index += meas_offset;
            rec.start_us += offset;
            self.measurements.push(rec);
        }
    }

    /// Human-readable listing: one line per logical operation,
    /// `t=<start>us <mnemonic> <site> [<site>]`. Replicated rounds are
    /// expanded, so the listing matches the fully materialized circuit.
    pub fn render_listing(&self) -> String {
        let mut out = String::new();
        self.for_each_op(&mut |v: OpView<'_>| {
            out.push_str(&format!("t={:>10.2}us  {:<10}", v.start_us, v.op.op.mnemonic()));
            for s in &v.op.sites {
                out.push_str(&format!(" {s}"));
            }
            if let Some(j) = v.op.junction {
                out.push_str(&format!(" via {j}"));
            }
            if let Some(m) = v.measurement {
                out.push_str(&format!("  -> m{m}"));
            }
            out.push('\n');
        });
        out
    }
}

impl OpStream for Circuit {
    fn for_each_op(&self, f: &mut dyn FnMut(OpView<'_>)) {
        let mut next = 0usize;
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        for span in &self.spans {
            for op in &self.ops[next..span.op_end] {
                f(OpView { op, start_us: op.start_us, measurement: op.measurement });
            }
            let ops = &self.ops[span.op_start..span.op_end];
            let mut base = first_replica_base(ops, span.base_us);
            for r in 1..=span.extra {
                base =
                    replay_round(ops, &span.preds, base, span.recovery_us, &mut starts, &mut ends);
                let meas_shift = r * span.meas_per_round;
                for (i, op) in ops.iter().enumerate() {
                    f(OpView {
                        op,
                        start_us: starts[i],
                        measurement: op.measurement.map(|m| m + meas_shift),
                    });
                }
            }
            next = span.op_end;
        }
        for op in &self.ops[next..] {
            f(OpView { op, start_us: op.start_us, measurement: op.measurement });
        }
    }

    fn for_each_run(&self, f: &mut dyn FnMut(OpRun<'_>)) {
        let mut next = 0usize;
        for span in &self.spans {
            f(OpRun::stored(&self.ops[next..span.op_end], 0.0));
            let replicas = Replicas {
                ops: &self.ops[span.op_start..span.op_end],
                preds: &span.preds,
                recovery_us: span.recovery_us,
                base_us: span.base_us,
                last_base_us: span.last_base_us,
                extra: span.extra,
            };
            f(replicas.run(0.0));
            next = span.op_end;
        }
        f(OpRun::stored(&self.ops[next..], 0.0));
    }

    fn for_each_distinct_op(&self, f: &mut dyn FnMut(&TimedOp)) {
        for op in &self.ops {
            f(op);
        }
    }

    fn measurement_count(&self) -> usize {
        self.measurements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceReport;
    use crate::rounds::CompiledRounds;
    use crate::spec::HardwareSpec;
    use tiscc_grid::Layout;

    fn dummy_op(op: NativeOp, start: f64) -> TimedOp {
        TimedOp {
            op,
            sites: [QSite::new(0, 1)].into(),
            qubits: [QubitId(0)].into(),
            start_us: start,
            duration_us: op.duration_us(&HardwareSpec::h1()),
            junction: None,
            measurement: None,
        }
    }

    #[test]
    fn timed_op_stays_within_96_bytes() {
        assert!(std::mem::size_of::<TimedOp>() <= 96, "{}", std::mem::size_of::<TimedOp>());
    }

    #[test]
    fn makespan_and_counts() {
        let mut c = Circuit::new();
        c.push(dummy_op(NativeOp::PrepareZ, 0.0));
        c.push(dummy_op(NativeOp::ZPi2, 10.0));
        c.push(dummy_op(NativeOp::MeasureZ, 13.0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.logical_len(), 3);
        assert!((c.makespan_us() - 133.0).abs() < 1e-9);
        assert_eq!(c.count_of(NativeOp::ZPi2), 1);
        assert_eq!(c.count_of(NativeOp::ZZ), 0);
        let report =
            ResourceReport::from_stream_with_spec(&c, &Layout::new(1, 1), &HardwareSpec::h1());
        assert_eq!(report.trapping_zones, 1);
    }

    #[test]
    fn extend_sequential_offsets_schedule_and_measurements() {
        let mut a = Circuit::new();
        a.push(dummy_op(NativeOp::PrepareZ, 0.0));
        let m = a.push_measurement(MeasurementRecord {
            index: 0,
            qubit: QubitId(0),
            site: QSite::new(0, 1),
            start_us: 10.0,
            label: "first".into(),
        });
        assert_eq!(m, 0);
        let mut meas_op = dummy_op(NativeOp::MeasureZ, 10.0);
        meas_op.measurement = Some(0);
        a.push(meas_op);

        let mut b = Circuit::new();
        b.push(dummy_op(NativeOp::PrepareZ, 0.0));
        b.push_measurement(MeasurementRecord {
            index: 0,
            qubit: QubitId(0),
            site: QSite::new(0, 1),
            start_us: 10.0,
            label: "second".into(),
        });
        let mut meas_op = dummy_op(NativeOp::MeasureZ, 10.0);
        meas_op.measurement = Some(0);
        b.push(meas_op);

        let before = a.makespan_us();
        a.extend_sequential(&b);
        assert_eq!(a.measurements().len(), 2);
        assert_eq!(a.measurements()[1].index, 1);
        assert_eq!(a.measurements()[1].label.render(), "second");
        assert_eq!(a.ops().last().unwrap().measurement, Some(1));
        assert!(a.ops()[2].start_us >= before);
    }

    #[test]
    fn listing_contains_mnemonics() {
        let mut c = Circuit::new();
        c.push(dummy_op(NativeOp::ZZ, 0.0));
        let listing = c.render_listing();
        assert!(listing.contains("ZZ"));
        assert!(listing.contains("0.1"));
    }

    #[test]
    fn spans_stream_replicated_occurrences() {
        // One "round": a prepare at the barrier followed by a chained gate.
        let mut c = Circuit::new();
        c.push(dummy_op(NativeOp::PrepareZ, 100.0));
        let mut second = dummy_op(NativeOp::MeasureZ, 110.0);
        second.measurement = Some(0);
        c.push(second);
        c.push_measurement(MeasurementRecord {
            index: 0,
            qubit: QubitId(0),
            site: QSite::new(0, 1),
            start_us: 110.0,
            label: "r0".into(),
        });
        c.push_measurement(MeasurementRecord {
            index: 1,
            qubit: QubitId(0),
            site: QSite::new(0, 1),
            start_us: 240.0,
            label: "r1".into(),
        });
        c.push_span(ReplicatedSpan {
            op_start: 0,
            op_end: 2,
            meas_start: 0,
            meas_per_round: 1,
            extra: 1,
            base_us: 100.0,
            last_base_us: 230.0,
            end_makespan_us: 360.0,
            recovery_us: 0.0,
            preds: vec![None, Some(0)],
        });

        assert_eq!(c.len(), 2);
        assert_eq!(c.logical_len(), 4);
        assert_eq!(c.count_of(NativeOp::PrepareZ), 2);
        assert!((c.makespan_us() - 360.0).abs() < 1e-9);

        let mut seen = Vec::new();
        c.for_each_op(&mut |v: OpView<'_>| seen.push((v.start_us, v.measurement)));
        // Replica starts from the barrier after round 0 (max end = 230).
        assert_eq!(seen, vec![(100.0, None), (110.0, Some(0)), (230.0, None), (240.0, Some(1))]);

        let flat = c.materialize();
        assert_eq!(flat.len(), 4);
        assert!(!flat.is_periodic());
        assert_eq!(flat.measurements().len(), 2);
        assert_eq!(flat.ops()[3].measurement, Some(1));
        assert_eq!(flat.render_listing(), c.render_listing());

        // Extraction from op 0 yields the ISSUE's periodic form.
        let rounds = CompiledRounds::extract(&c, 0);
        assert_eq!(rounds.repeats, 2);
        assert_eq!(rounds.total_ops(), 4);
        assert_eq!(rounds.measurements.len(), 2);
        let remat = rounds.materialize();
        // Extraction re-bases to t = 0 (range started at t = 100).
        assert_eq!(remat.ops()[0].start_us, 0.0);
        assert_eq!(remat.ops()[2].start_us, 130.0);
    }
}
