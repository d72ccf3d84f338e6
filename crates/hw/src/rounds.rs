//! Periodic (round-templated) circuit representations.
//!
//! A surface-code workload spends almost all of its operations in syndrome-
//! extraction rounds that are exact time-translations of each other: every
//! round starts from a barrier-quiescent state (all ions home, every busy
//! time at or before the barrier), so the ASAP schedule of round `k + 1` is
//! the schedule of round `k` shifted by one round period. The types here
//! exploit that:
//!
//! * [`ReplicatedSpan`] — bookkeeping attached to a [`Circuit`] marking that
//!   one materialized op range (the *captured round*) logically repeats
//!   `extra` additional times without being re-materialized;
//! * [`RoundTemplate`] / [`CompiledRounds`] — the standalone periodic form
//!   `{prologue, template, repeats, epilogue}` handed to resource consumers,
//!   extracted from a compiled circuit sub-range by
//!   [`CompiledRounds::extract`].
//!
//! Replica schedules are reproduced **bit-for-bit**: instead of adding a
//! floating-point period per round (which would diverge from the compiled
//! schedule in the last ulp for profiles with non-dyadic durations), each
//! captured operation records its *critical predecessor* — the in-round
//! operation whose end determined its start, or the round barrier — and
//! replicas replay exactly the addition chain the scheduler would have
//! performed ([`replay_round`]).

use crate::circuit::{Circuit, MeasurementRecord, OpRun, OpStream, OpView, TimedOp};

/// Marks a materialized op range of a [`Circuit`] as logically repeating.
///
/// Ops `[op_start, op_end)` — one barrier-terminated syndrome-extraction
/// round — occur `extra` additional times after their materialized (first)
/// occurrence. Measurement *records* of the replicas are materialized (they
/// are cheap and downstream code indexes into them); the ops are not.
#[derive(Clone, Debug)]
pub struct ReplicatedSpan {
    /// First op index of the captured round.
    pub op_start: usize,
    /// One past the last op index of the captured round.
    pub op_end: usize,
    /// Measurement-record index of the captured round's first record.
    pub meas_start: usize,
    /// Measurement records emitted per round.
    pub meas_per_round: usize,
    /// Additional (analytic) repetitions beyond the captured occurrence.
    pub extra: usize,
    /// Barrier time the captured round was scheduled from (µs, absolute).
    pub base_us: f64,
    /// Barrier time the last replica starts from (µs, absolute). Replica
    /// bases never decrease, so the last replica holds every op's latest
    /// end (see [`RoundTemplate::last_base_us`]).
    pub last_base_us: f64,
    /// Circuit makespan after the last replica (µs, absolute).
    pub end_makespan_us: f64,
    /// Junction recovery window the round was scheduled under
    /// ([`HardwareSpec::junction_recovery_us`](crate::spec::HardwareSpec::junction_recovery_us)).
    /// Replay needs it to reproduce `end + recovery` edges bit-exactly.
    pub recovery_us: f64,
    /// Per-op critical predecessor: `Some(i)` if the op's start equals the
    /// end of in-round op `i` (or that end plus `recovery_us`, for ops that
    /// waited out a junction recovery window), `None` if it equals the
    /// round barrier.
    pub preds: Vec<Option<u32>>,
}

impl ReplicatedSpan {
    /// Number of ops in the captured round.
    pub fn len(&self) -> usize {
        self.op_end - self.op_start
    }

    /// True if the span covers no operations.
    pub fn is_empty(&self) -> bool {
        self.op_end == self.op_start
    }
}

/// Replays the ASAP schedule of one round occurrence.
///
/// `ops`/`preds` describe the captured round; `base` is the barrier this
/// occurrence starts from. Fills `starts` and `ends` (both reset) with the
/// occurrence's absolute op times and returns the barrier after the
/// occurrence (the fold-max of its op ends). The arithmetic — one addition
/// per op, one max-fold for the barrier — is exactly what the scheduler
/// performs when materializing, so replayed times are bit-identical.
///
/// `recovery_us` is the junction recovery window the round was scheduled
/// under. Each predecessor edge is classified from the captured absolute
/// times: a start that is *not* exactly its predecessor's end was pushed by
/// the junction's recovery window, and the replica replays the scheduler's
/// `end + recovery` addition instead of the plain chain. At recovery 0 no
/// edge classifies as recovery and the replay is unchanged.
pub fn replay_round(
    ops: &[TimedOp],
    preds: &[Option<u32>],
    base: f64,
    recovery_us: f64,
    starts: &mut Vec<f64>,
    ends: &mut Vec<f64>,
) -> f64 {
    starts.clear();
    ends.clear();
    starts.reserve(ops.len());
    ends.reserve(ops.len());
    for (op, pred) in ops.iter().zip(preds) {
        let start = match pred {
            Some(p) => {
                let p = *p as usize;
                if recovery_us > 0.0 && op.start_us != ops[p].start_us + ops[p].duration_us {
                    ends[p] + recovery_us
                } else {
                    ends[p]
                }
            }
            None => base,
        };
        starts.push(start);
        ends.push(start + op.duration_us);
    }
    ends.iter().copied().fold(base, f64::max)
}

/// One captured syndrome-extraction round, ready for analytic replication.
///
/// Op start times are stored **absolute** (as first compiled); the owning
/// [`CompiledRounds`] applies its `rebase_us` lazily at view time so replica
/// times reproduce the materialized `chain − t0` arithmetic bit-for-bit.
/// Measurement indices are already rebased to the owner's local numbering.
#[derive(Clone, Debug, Default)]
pub struct RoundTemplate {
    /// The round's ops (absolute start times, rebased measurement indices).
    pub ops: Vec<TimedOp>,
    /// Critical predecessor of each op (see [`ReplicatedSpan::preds`]).
    pub preds: Vec<Option<u32>>,
    /// Barrier the captured occurrence was scheduled from (µs, absolute).
    pub base_us: f64,
    /// Barrier the last occurrence starts from (µs, absolute): the barrier
    /// after the stored occurrence, advanced by `repeats − 2` replays
    /// ([`replay_round`]; see [`ReplicatedSpan::last_base_us`]). Unused
    /// when the template occurs fewer than twice.
    pub last_base_us: f64,
    /// Junction recovery window the round was scheduled under (µs); see
    /// [`ReplicatedSpan::recovery_us`].
    pub recovery_us: f64,
    /// Measurement records emitted per round.
    pub meas_per_round: usize,
}

impl RoundTemplate {
    /// Number of ops in one round.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the template holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The barrier after a round's stored occurrence, scheduled from `base_us`:
/// the base its first replica starts from.
pub(crate) fn first_replica_base(ops: &[TimedOp], base_us: f64) -> f64 {
    ops.iter().map(TimedOp::end_us).fold(base_us, f64::max)
}

/// The replicas of a captured round: its `ops` (with their critical
/// predecessors, scheduled under `recovery_us`) occurring `extra` more
/// times after the stored occurrence, which was scheduled from `base_us`.
/// The last replica starts from `last_base_us`.
pub(crate) struct Replicas<'a> {
    pub ops: &'a [TimedOp],
    pub preds: &'a [Option<u32>],
    pub recovery_us: f64,
    pub base_us: f64,
    pub last_base_us: f64,
    pub extra: usize,
}

impl<'a> Replicas<'a> {
    /// The replicas as one run ([`OpStream::for_each_run`]), viewed with
    /// `rebase_us` subtracted from each start: its latest end is that of
    /// the last replica, replayed once from `last_base_us`.
    ///
    /// That is exact. Replica bases never decrease, and each replayed start
    /// is a chain of rounded additions from the base, so it is monotone in
    /// the base; rounded `x − rebase` and `x + duration` are monotone in
    /// `x` too. No op of an earlier replica ends later than the same op in
    /// the last one. Debug builds re-derive `last_base_us` by replaying
    /// every replica.
    pub(crate) fn run(&self, rebase_us: f64) -> OpRun<'a> {
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        if cfg!(debug_assertions) {
            let mut base = first_replica_base(self.ops, self.base_us);
            for _ in 1..self.extra {
                base = replay_round(
                    self.ops,
                    self.preds,
                    base,
                    self.recovery_us,
                    &mut starts,
                    &mut ends,
                );
            }
            assert_eq!(base.to_bits(), self.last_base_us.to_bits(), "the last replica's barrier");
        }
        replay_round(
            self.ops,
            self.preds,
            self.last_base_us,
            self.recovery_us,
            &mut starts,
            &mut ends,
        );
        let end_us = self
            .ops
            .iter()
            .zip(&starts)
            .map(|(op, start)| (start - rebase_us) + op.duration_us)
            .fold(f64::NEG_INFINITY, f64::max);
        OpRun { ops: self.ops, repeats: self.extra, end_us }
    }
}

/// A compiled instruction in periodic form: a one-off `prologue`, a
/// syndrome-extraction round `template` occurring `repeats` times, and a
/// one-off `epilogue`. Produced by [`CompiledRounds::extract`]; consumed
/// via the streaming [`OpStream`] interface (resource accounting, validity
/// checking) or materialized back to a flat [`Circuit`] on demand.
///
/// Holding `repeats` rounds costs the memory of *one* round, which is what
/// cuts sweep memory by the `dt` factor at large code distances.
#[derive(Clone, Debug, Default)]
pub struct CompiledRounds {
    /// Everything before the periodic part (rebased, record-free).
    pub prologue: Circuit,
    /// The representative round.
    pub template: RoundTemplate,
    /// Total occurrences of the template (0 when the range had no periodic
    /// part — then `prologue` holds the whole range).
    pub repeats: usize,
    /// Everything after the periodic part (rebased, record-free).
    pub epilogue: Circuit,
    /// Every measurement record of the range (all rounds included), with
    /// indices and start times rebased.
    pub measurements: Vec<MeasurementRecord>,
    /// Time subtracted from the template's absolute times at view time.
    pub rebase_us: f64,
}

impl CompiledRounds {
    /// Extracts the sub-range of `circuit` starting at op `start_op` as a
    /// periodic circuit, re-based so the range starts at `t = 0`, with
    /// measurement records carried over (indices renumbered from 0).
    ///
    /// The range must not begin inside a replicated span. A range containing
    /// no span becomes an all-prologue `CompiledRounds` (`repeats == 0`);
    /// ranges with more than one span are flattened first (correct, but
    /// without the periodic memory savings). The range's ops are cloned;
    /// [`CompiledRounds::from_circuit`] moves them out of a circuit the
    /// caller is done with instead.
    pub fn extract(circuit: &Circuit, start_op: usize) -> CompiledRounds {
        let span = match range_span(circuit, start_op) {
            Ok(span) => span.map(|i| circuit.spans()[i].clone()),
            Err(flat_start) => {
                return CompiledRounds::from_circuit(circuit.materialize(), flat_start)
            }
        };
        let ops = circuit.ops()[start_op..].to_vec();
        let meas_base = first_record(&ops, circuit.measurements().len());
        let records = circuit.measurements()[meas_base..].to_vec();
        CompiledRounds::split(ops, records, meas_base, span, start_op)
    }

    /// [`CompiledRounds::extract`] from a circuit the caller no longer
    /// needs: the range's ops and records are moved, not cloned, and the
    /// ops before the range are dropped. The result is identical. The
    /// prologue keeps the circuit's op buffer, shrunk in place to its own
    /// length, so no large buffer is freed mid-compile and the result
    /// holds only its own ops.
    pub fn from_circuit(circuit: Circuit, start_op: usize) -> CompiledRounds {
        let span = match range_span(&circuit, start_op) {
            Ok(span) => span,
            Err(flat_start) => {
                return CompiledRounds::from_circuit(circuit.materialize(), flat_start)
            }
        };
        let (mut ops, mut records, mut spans) = circuit.into_parts();
        let span = span.map(|i| spans.swap_remove(i));
        ops.drain(..start_op);
        let meas_base = first_record(&ops, records.len());
        records.drain(..meas_base);
        CompiledRounds::split(ops, records, meas_base, span, start_op)
    }

    /// The extraction routine shared by [`CompiledRounds::extract`] and
    /// [`CompiledRounds::from_circuit`]. `ops` are the range's ops (circuit
    /// ops from `start_op` on) and `records` its measurement records
    /// (circuit records from `meas_base` on). Rebases both and splits the
    /// ops around `span`, the range's one replicated round if it has one;
    /// the prologue keeps `ops`' buffer, shrunk to fit. Shrinking returns
    /// the unused capacity without freeing the buffer. Freeing a buffer
    /// this large lets glibc's malloc raise its mmap and trim thresholds to
    /// its size, after which freed compile buffers stay resident: on the
    /// `serve-session` benchmark that doubled the resident set.
    fn split(
        mut ops: Vec<TimedOp>,
        mut records: Vec<MeasurementRecord>,
        meas_base: usize,
        span: Option<ReplicatedSpan>,
        start_op: usize,
    ) -> CompiledRounds {
        let t0 = ops.iter().map(|o| o.start_us).fold(f64::INFINITY, f64::min);
        let t0 = if t0.is_finite() { t0 } else { 0.0 };
        for r in &mut records {
            r.index -= meas_base;
            r.start_us -= t0;
        }
        let rebase = |ops: &mut [TimedOp], shift_time: bool| {
            for o in ops {
                if shift_time {
                    o.start_us -= t0;
                }
                o.measurement = o.measurement.map(|m| m - meas_base);
            }
        };

        let Some(span) = span else {
            rebase(&mut ops, true);
            ops.shrink_to_fit();
            return CompiledRounds {
                prologue: Circuit::from_ops(ops),
                template: RoundTemplate::default(),
                repeats: 0,
                epilogue: Circuit::new(),
                measurements: records,
                rebase_us: t0,
            };
        };
        let mut epilogue = ops.split_off(span.op_end - start_op);
        let mut template = ops.split_off(span.op_start - start_op);
        ops.shrink_to_fit();
        rebase(&mut ops, true);
        // Absolute times kept; `rebase_us` applies at view time.
        rebase(&mut template, false);
        rebase(&mut epilogue, true);
        CompiledRounds {
            prologue: Circuit::from_ops(ops),
            template: RoundTemplate {
                ops: template,
                base_us: span.base_us,
                last_base_us: span.last_base_us,
                recovery_us: span.recovery_us,
                meas_per_round: span.meas_per_round,
                preds: span.preds,
            },
            repeats: span.extra + 1,
            epilogue: Circuit::from_ops(epilogue),
            measurements: records,
            rebase_us: t0,
        }
    }

    /// Total logical operations across every round occurrence.
    pub fn total_ops(&self) -> usize {
        self.prologue.len() + self.repeats * self.template.len() + self.epilogue.len()
    }

    /// Materializes the periodic circuit back to a flat [`Circuit`] with
    /// identical logical content (ops, schedule, measurement records).
    pub fn materialize(&self) -> Circuit {
        let mut ops = Vec::with_capacity(self.total_ops());
        self.for_each_op(&mut |v: OpView<'_>| {
            let mut op = v.op.clone();
            op.start_us = v.start_us;
            op.measurement = v.measurement;
            ops.push(op);
        });
        Circuit::from_parts(ops, self.measurements.clone())
    }
}

/// Index of the replicated span inside the range starting at op
/// `start_op`, if any. `Err` carries the range's start in the flattened
/// circuit when the range holds more than one span (the rare fallback: more
/// than one periodic sequence in a single instruction). Spans *before* the
/// range inflate the flattened index space, so the start shifts by their
/// replicated op counts.
fn range_span(circuit: &Circuit, start_op: usize) -> Result<Option<usize>, usize> {
    let spans = circuit.spans();
    let in_range = |s: &&ReplicatedSpan| s.op_end > start_op;
    debug_assert!(
        spans.iter().filter(in_range).all(|s| s.op_start >= start_op),
        "extraction range must not begin inside a replicated span"
    );
    match spans.iter().filter(in_range).count() {
        0 => Ok(None),
        1 => Ok(spans.iter().position(|s| in_range(&s))),
        _ => Err(start_op
            + spans.iter().filter(|s| !in_range(s)).map(|s| s.extra * s.len()).sum::<usize>()),
    }
}

/// Index of the first measurement record of the op range `range`, in a
/// circuit holding `record_count` records. Records are emitted
/// monotonically with ops, so every record from this index on belongs to
/// the range.
fn first_record(range: &[TimedOp], record_count: usize) -> usize {
    range.iter().filter_map(|o| o.measurement).min().unwrap_or(record_count)
}

impl OpStream for CompiledRounds {
    fn for_each_op(&self, f: &mut dyn FnMut(OpView<'_>)) {
        self.prologue.for_each_op(f);
        if self.repeats > 0 {
            // First occurrence: stored times, lazily rebased.
            for op in &self.template.ops {
                f(OpView {
                    op,
                    start_us: op.start_us - self.rebase_us,
                    measurement: op.measurement,
                });
            }
            let mut base = first_replica_base(&self.template.ops, self.template.base_us);
            let (mut starts, mut ends) = (Vec::new(), Vec::new());
            for r in 1..self.repeats {
                base = replay_round(
                    &self.template.ops,
                    &self.template.preds,
                    base,
                    self.template.recovery_us,
                    &mut starts,
                    &mut ends,
                );
                let meas_shift = r * self.template.meas_per_round;
                for (i, op) in self.template.ops.iter().enumerate() {
                    f(OpView {
                        op,
                        start_us: starts[i] - self.rebase_us,
                        measurement: op.measurement.map(|m| m + meas_shift),
                    });
                }
            }
        }
        self.epilogue.for_each_op(f);
    }

    fn for_each_run(&self, f: &mut dyn FnMut(OpRun<'_>)) {
        self.prologue.for_each_run(f);
        if self.repeats > 0 {
            let t = &self.template;
            f(OpRun::stored(&t.ops, self.rebase_us));
            if self.repeats > 1 {
                let replicas = Replicas {
                    ops: &t.ops,
                    preds: &t.preds,
                    recovery_us: t.recovery_us,
                    base_us: t.base_us,
                    last_base_us: t.last_base_us,
                    extra: self.repeats - 1,
                };
                f(replicas.run(self.rebase_us));
            }
        }
        self.epilogue.for_each_run(f);
    }

    fn for_each_distinct_op(&self, f: &mut dyn FnMut(&TimedOp)) {
        self.prologue.for_each_distinct_op(f);
        if self.repeats > 0 {
            for op in &self.template.ops {
                f(op);
            }
        }
        self.epilogue.for_each_distinct_op(f);
    }

    fn measurement_count(&self) -> usize {
        self.measurements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NativeOp;
    use tiscc_grid::{QSite, QubitId};

    fn op_at(start: f64, dur: f64) -> TimedOp {
        TimedOp {
            op: NativeOp::XPi2,
            sites: vec![QSite::new(0, 1)].into(),
            qubits: vec![QubitId(0)].into(),
            start_us: start,
            duration_us: dur,
            junction: None,
            measurement: None,
        }
    }

    #[test]
    fn replay_round_follows_predecessor_chains() {
        // Two chained ops then one barrier-aligned op.
        let ops = vec![op_at(100.0, 10.0), op_at(110.0, 5.0), op_at(100.0, 7.0)];
        let preds = vec![None, Some(0), None];
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        let next = replay_round(&ops, &preds, 200.0, 0.0, &mut starts, &mut ends);
        assert_eq!(starts, vec![200.0, 210.0, 200.0]);
        assert_eq!(ends, vec![210.0, 215.0, 207.0]);
        assert_eq!(next, 215.0);
    }

    #[test]
    fn replay_round_replays_recovery_edges() {
        // Op 1 chains off op 0, but its captured start (135) is 25 µs past
        // op 0's end (110): a junction recovery edge. The replica must
        // replay the same `end + recovery` addition.
        let ops = vec![op_at(100.0, 10.0), op_at(135.0, 5.0)];
        let preds = vec![None, Some(0)];
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        let next = replay_round(&ops, &preds, 200.0, 25.0, &mut starts, &mut ends);
        assert_eq!(starts, vec![200.0, 235.0]);
        assert_eq!(ends, vec![210.0, 240.0]);
        assert_eq!(next, 240.0);
    }

    #[test]
    fn extract_multi_span_fallback_accounts_for_earlier_spans() {
        // Three one-op "rounds", each replicated once: span A before the
        // extraction range, spans B and C inside it. The multi-span
        // fallback flattens, and must shift the start index past A's
        // replica.
        let mut c = Circuit::new();
        let span_at = |c: &mut Circuit, start: f64| {
            let idx = c.len();
            c.push(op_at(start, 10.0));
            c.push_span(ReplicatedSpan {
                op_start: idx,
                op_end: idx + 1,
                meas_start: 0,
                meas_per_round: 0,
                extra: 1,
                base_us: start,
                last_base_us: start + 10.0,
                end_makespan_us: start + 20.0,
                recovery_us: 0.0,
                preds: vec![None],
            });
        };
        span_at(&mut c, 0.0);
        span_at(&mut c, 20.0);
        span_at(&mut c, 40.0);
        assert_eq!(c.logical_len(), 6);

        // Extract from physical op 1: spans B and C, 4 logical ops.
        let rounds = CompiledRounds::extract(&c, 1);
        assert_eq!(rounds.total_ops(), 4, "span A's replica must not leak into the range");
        let flat = rounds.materialize();
        // Re-based to t = 0 (range starts at span B's 20.0).
        assert_eq!(flat.ops()[0].start_us, 0.0);
        assert_eq!(flat.ops().len(), 4);
    }

    #[test]
    fn extract_without_spans_is_all_prologue() {
        let circuit = Circuit::from_ops(vec![op_at(50.0, 10.0), op_at(60.0, 10.0)]);
        let rounds = CompiledRounds::extract(&circuit, 1);
        assert_eq!(rounds.repeats, 0);
        assert_eq!(rounds.prologue.len(), 1);
        assert_eq!(rounds.total_ops(), 1);
        // Re-based to t = 0.
        assert_eq!(rounds.prologue.ops()[0].start_us, 0.0);
        let flat = rounds.materialize();
        assert_eq!(flat.len(), 1);
    }
}
