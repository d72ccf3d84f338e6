//! The explicit pass pipeline behind [`HardwareModel`](crate::model::HardwareModel):
//! **schedule → batch → template**.
//!
//! Historically the hardware model resolved resource contention inline in
//! its emission loop. This module factors that loop into named passes so
//! each scheduling decision is a first-class, testable artifact:
//!
//! * [`Scheduler`] — the contention-aware ASAP scheduling pass. Ion, zone
//!   and junction busy windows are scheduling resources; junctions carry an
//!   explicit capacity ([`HardwareSpec::junction_capacity`]) and every op
//!   delayed by a saturated junction is flagged as a *junction stall*.
//! * [`batch_rounds`] / [`batch_ops`] — the SIMD batching pass. Co-scheduled
//!   identical single-qubit pulses merge into one multi-zone pulse, at most
//!   [`HardwareSpec::simd_width`] ops per pulse, never across a transport
//!   of one of the pulse's own ions. Width 1 is a strict no-op.
//! * Round templating (unchanged, in [`crate::rounds`]) runs on top: a
//!   batched round still templates and replicates bit-exactly.

use std::collections::HashMap;

use tiscc_grid::{Layout, QSite, QubitId};

use crate::circuit::{Circuit, TimedOp};
use crate::ops::NativeOp;
use crate::rounds::{CompiledRounds, RoundTemplate};
use crate::spec::HardwareSpec;

/// The scheduling decision for one operation: where its start landed, which
/// earlier op's end determined it, and whether a saturated junction was the
/// reason it could not start earlier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slot {
    /// Earliest start consistent with every resource the op needs (µs).
    pub start_us: f64,
    /// Index of the op whose end determined the start; `None` when the
    /// current barrier dominates (including exact ties).
    pub src: Option<usize>,
    /// True if junction occupancy pushed the start past what ions, zones
    /// and the barrier alone would have allowed — i.e. the op waited for a
    /// junction slot. An isolated pair of crossing hops serializing is
    /// normal exclusive-transit operation and occurs under every profile.
    pub junction_bound: bool,
    /// True if the junction wait exceeded pure exclusive transit: the op
    /// waited into a recovery (recool) window
    /// ([`HardwareSpec::junction_recovery_us`] > 0), or it waited on a slot
    /// **held by a hop that was itself junction-delayed** (the delay is
    /// chained — a queue has formed at the junction). This is the congestion
    /// signal the estimate report surfaces as `junction_stalls` — zero on
    /// clean profiles where junction waits stay isolated pairwise transit
    /// exclusivity, non-zero once a junction needs recool time or saturates
    /// faster than it drains.
    pub junction_stall: bool,
}

/// The contention-aware ASAP scheduling pass.
///
/// Owns the per-resource busy state the hardware model consults when
/// emitting an op: the end time (and op index) of the last operation on
/// each ion and zone, the retained occupancy windows of each junction, and
/// the current barrier. [`Scheduler::ready`] answers "when can this op
/// start"; [`Scheduler::occupy`] commits the op's window.
///
/// Every table is dense: zones and junctions by [`Layout::index_of`], ions
/// by [`QubitId`], junction-delay flags by op index.
#[derive(Clone, Debug)]
pub struct Scheduler {
    layout: Layout,
    // Busy tables record, per resource, the end time of its last operation
    // and that operation's index — the index is what lets a round capture
    // identify each op's critical predecessor for bit-exact replication. A
    // resource never used holds `IDLE`.
    site_busy: Vec<(f64, usize)>,
    qubit_busy: Vec<(f64, usize)>,
    // Per junction slot: the `capacity` latest-ending hop windows,
    // descending by end time. Earlier windows can never constrain a future
    // hop (any start blocked by a dropped window is blocked by every
    // retained one), so retaining only `capacity` of them is lossless.
    junction_windows: Vec<Vec<(f64, usize)>>,
    // Per op index: did a junction delay its start? Consulted to tell an
    // isolated pairwise serialization apart from a chained (queued) stall.
    junction_delayed: Vec<bool>,
    barrier_us: f64,
    capacity: usize,
    recovery_us: f64,
}

/// The busy entry of a resource no op has used: `ready`'s strict `end > t`
/// fold never selects it, exactly as if the resource had no entry.
const IDLE: (f64, usize) = (f64::NEG_INFINITY, usize::MAX);

impl Scheduler {
    /// A quiescent scheduler for ops on `layout`'s sites with the given
    /// junction capacity (clamped to at least 1) and post-hop recovery
    /// window ([`HardwareSpec::junction_recovery_us`]).
    pub fn new(layout: &Layout, junction_capacity: usize, junction_recovery_us: f64) -> Self {
        Scheduler {
            layout: layout.clone(),
            site_busy: vec![IDLE; layout.index_len()],
            qubit_busy: Vec::new(),
            junction_windows: vec![Vec::new(); layout.index_len()],
            junction_delayed: Vec::new(),
            barrier_us: 0.0,
            capacity: junction_capacity.max(1),
            recovery_us: junction_recovery_us.max(0.0),
        }
    }

    /// Raises the barrier: every subsequent op starts no earlier than `now`.
    pub fn barrier(&mut self, now_us: f64) {
        self.barrier_us = now_us;
    }

    /// The current barrier time in microseconds.
    pub fn barrier_us(&self) -> f64 {
        self.barrier_us
    }

    /// The earliest start for an op over the given resources.
    ///
    /// Resources are folded in a fixed order — barrier, ions, zones, then
    /// the junction — with a strict `>` comparison, so exact ties keep the
    /// earlier source; this reproduces the pre-pipeline emission order
    /// bit-for-bit.
    pub fn ready(&self, qubits: &[QubitId], sites: &[QSite], junction: Option<QSite>) -> Slot {
        let mut t = self.barrier_us;
        let mut src = None;
        let consider = |(end, idx): (f64, usize), t: &mut f64, src: &mut Option<usize>| {
            if end > *t {
                *t = end;
                *src = Some(idx);
            }
        };
        for q in qubits {
            let busy = self.qubit_busy.get(q.0 as usize).copied().unwrap_or(IDLE);
            consider(busy, &mut t, &mut src);
        }
        for s in sites {
            // `occupy` never accepts a site off the layout: it reads idle.
            let busy = self.layout.index_of(*s).map_or(IDLE, |i| self.site_busy[i]);
            consider(busy, &mut t, &mut src);
        }
        let mut junction_bound = false;
        let mut junction_stall = false;
        if let Some(j) = junction {
            if let Some(windows) = self.layout.index_of(j).map(|i| &self.junction_windows[i]) {
                // Hops whose release (end + recovery) is past t occupy a
                // slot each. `windows` is descending by release, so if
                // `capacity` of them are open the capacity-th largest
                // release is the first moment a slot frees. Binding on a
                // release with a nonzero recovery window means the op
                // waited past pure transit exclusivity — a stall by
                // definition.
                let open = windows.iter().take_while(|(end, _)| *end > t).count();
                if open >= self.capacity {
                    let (end, idx) = windows[self.capacity - 1];
                    t = end;
                    src = Some(idx);
                    junction_bound = true;
                    junction_stall = self.recovery_us > 0.0 || self.was_junction_delayed(idx);
                }
            }
        }
        Slot { start_us: t, src, junction_bound, junction_stall }
    }

    fn was_junction_delayed(&self, op_idx: usize) -> bool {
        self.junction_delayed.get(op_idx).copied().unwrap_or(false)
    }

    /// Records that op `op_idx` was junction-delayed
    /// ([`Slot::junction_bound`]), so later hops blocked by its window are
    /// recognised as chained stalls ([`Slot::junction_stall`]).
    pub fn note_junction_delay(&mut self, op_idx: usize) {
        if self.junction_delayed.len() <= op_idx {
            self.junction_delayed.resize(op_idx + 1, false);
        }
        self.junction_delayed[op_idx] = true;
    }

    /// Commits op `op_idx`'s busy window `[start, end_us)` on every resource
    /// it uses.
    ///
    /// # Panics
    /// Panics if a site or the junction lies off the scheduler's layout.
    pub fn occupy(
        &mut self,
        qubits: &[QubitId],
        sites: &[QSite],
        junction: Option<QSite>,
        end_us: f64,
        op_idx: usize,
    ) {
        for q in qubits {
            let i = q.0 as usize;
            if self.qubit_busy.len() <= i {
                self.qubit_busy.resize(i + 1, IDLE);
            }
            self.qubit_busy[i] = (end_us, op_idx);
        }
        const ON_LAYOUT: &str = "scheduled ops act on layout sites";
        for s in sites {
            let i = self.layout.index_of(*s).expect(ON_LAYOUT);
            self.site_busy[i] = (end_us, op_idx);
        }
        if let Some(j) = junction {
            let i = self.layout.index_of(j).expect(ON_LAYOUT);
            let windows = &mut self.junction_windows[i];
            // A slot frees only after the hop's recovery window elapses.
            // The single fp add matches replay arithmetic
            // (`fl(end + recovery)`) so replication stays bit-exact; at
            // recovery 0 the release is the raw end, unchanged.
            let release = if self.recovery_us > 0.0 { end_us + self.recovery_us } else { end_us };
            windows.push((release, op_idx));
            windows.sort_by(|a, b| {
                b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
            });
            windows.truncate(self.capacity);
        }
    }
}

/// Statistics of one SIMD batching pass over one op sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Pulses emitted that merged two or more co-scheduled ops.
    pub batched_pulses: usize,
    /// Original ops that ended up inside multi-op pulses.
    pub merged_ops: usize,
}

/// True if `op` may join a SIMD batch: a single-qubit, record-free,
/// junction-free gate pulse. Transport never batches (it mutates ion
/// positions mid-stream) and measurement pulses never batch (their records
/// and labels must survive untouched).
fn batchable(op: &TimedOp) -> bool {
    op.op.is_gate()
        && op.op.arity() == 1
        && op.op != NativeOp::MeasureZ
        && op.measurement.is_none()
        && op.junction.is_none()
}

/// The SIMD batching pass over a flat op sequence.
///
/// Scans `ops` in stream order and merges runs of co-scheduled identical
/// pulses — same [`NativeOp`], bit-identical start and duration — into one
/// multi-zone pulse of at most [`HardwareSpec::simd_width`] members, placed
/// at the first member's stream position. A gate is never hoisted across a
/// transport of **its own ion**: the validity checker replays positions in
/// stream order, so merging an op into a pulse that precedes its ion's
/// `Move`/`JunctionMove` would validate it at a stale position. Transports
/// of unrelated ions don't close batches — per-plaquette emission
/// interleaves ancilla transports between co-scheduled gates, and the
/// blanket rule would forbid every merge a real round offers.
///
/// Returns the batched sequence, an old-index → new-index remap (members of
/// a merged pulse map to the pulse), and the pass statistics. Width ≤ 1
/// returns the input unchanged.
pub fn batch_ops(ops: &[TimedOp], spec: &HardwareSpec) -> (Vec<TimedOp>, Vec<usize>, BatchStats) {
    batch_scan(ops, spec.simd_width, |_, _| 0)
}

/// Core batching scan. `key_of(i, remap_so_far)` contributes an extra
/// caller-defined component to op `i`'s grouping key; round templates use
/// it to key on each op's remapped critical predecessor (which always
/// precedes the op, so its remap entry exists by the time it is consulted).
fn batch_scan(
    ops: &[TimedOp],
    width: usize,
    key_of: impl Fn(usize, &[usize]) -> u64,
) -> (Vec<TimedOp>, Vec<usize>, BatchStats) {
    /// Grouping key of a batchable pulse: the op kind, bit-exact start and
    /// duration, plus a caller-defined component (predecessor keying).
    type BatchKey = (NativeOp, u64, u64, u64);
    /// An open batch: output index, members so far, transport counter at
    /// open time.
    type OpenBatch = (usize, usize, usize);
    let mut stats = BatchStats::default();
    if width <= 1 {
        return (ops.to_vec(), (0..ops.len()).collect(), stats);
    }
    let mut out: Vec<TimedOp> = Vec::with_capacity(ops.len());
    let mut remap: Vec<usize> = Vec::with_capacity(ops.len());
    // Open batches: grouping key → (output index, members so far, transport
    // counter at open). An op only joins a batch if none of its ions moved
    // since the batch opened (stream-order position replay stays valid).
    let mut open: HashMap<BatchKey, OpenBatch> = HashMap::new();
    // Per ion id: the transport counter at its last move (0 = never moved).
    let mut last_moved: Vec<usize> = Vec::new();
    let mut transports_seen: usize = 0;
    for (i, op) in ops.iter().enumerate() {
        if op.op.is_transport() {
            transports_seen += 1;
            for q in &op.qubits {
                let q = q.0 as usize;
                if last_moved.len() <= q {
                    last_moved.resize(q + 1, 0);
                }
                last_moved[q] = transports_seen;
            }
        }
        if !batchable(op) {
            remap.push(out.len());
            out.push(op.clone());
            continue;
        }
        let key = (op.op, op.start_us.to_bits(), op.duration_us.to_bits(), key_of(i, &remap));
        match open.get_mut(&key) {
            Some(&mut (idx, ref mut members, opened))
                if *members < width
                    && op
                        .qubits
                        .iter()
                        .all(|q| last_moved.get(q.0 as usize).is_none_or(|&c| c <= opened)) =>
            {
                let pulse = &mut out[idx];
                pulse.sites.extend(op.sites.iter().copied());
                pulse.qubits.extend(op.qubits.iter().copied());
                *members += 1;
                if *members == 2 {
                    stats.batched_pulses += 1;
                    stats.merged_ops += 2;
                } else {
                    stats.merged_ops += 1;
                }
                remap.push(idx);
            }
            _ => {
                // New key, a full pulse, or the op's ion moved since the
                // pulse opened: open a fresh one.
                let idx = out.len();
                remap.push(idx);
                out.push(op.clone());
                open.insert(key, (idx, 1, transports_seen));
            }
        }
    }
    (out, remap, stats)
}

/// Applies [`HardwareSpec::batch_discount`] to merged pulses of a flat
/// (non-templated) segment: a pulse carrying `k ≥ 2` members shrinks to
/// `duration * (1 - batch_discount)`. Start times never move, so shrinking
/// only shortens occupancy windows — the schedule stays checker-clean.
fn apply_discount(ops: &mut [TimedOp], spec: &HardwareSpec) {
    let discount = spec.batch_discount.clamp(0.0, 1.0);
    if discount <= 0.0 {
        return;
    }
    for op in ops {
        if op.op.arity() == 1 && op.sites.len() > 1 {
            op.duration_us *= 1.0 - discount;
        }
    }
}

/// Per-segment statistics of batching a periodic circuit: the round figure
/// counts one template occurrence (multiply by `repeats` for totals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundBatchStats {
    /// Batching statistics of the prologue.
    pub prologue: BatchStats,
    /// Batching statistics of one round occurrence.
    pub round: BatchStats,
    /// Batching statistics of the epilogue.
    pub epilogue: BatchStats,
}

impl RoundBatchStats {
    /// Multi-op pulses across every round occurrence.
    pub fn total_batched_pulses(&self, repeats: usize) -> usize {
        self.prologue.batched_pulses
            + repeats * self.round.batched_pulses
            + self.epilogue.batched_pulses
    }
}

/// The SIMD batching pass over a periodic circuit.
///
/// Batches the prologue, the round template and the epilogue independently
/// (a pulse never spans segments — segments are barrier-separated). The
/// template's critical-predecessor vector is remapped so replication still
/// replays the captured addition chains bit-exactly; template members only
/// merge when they share a predecessor, and template durations are never
/// discounted, so the round period is preserved. Width ≤ 1 returns a clone
/// of the input with zero stats — the strict no-op the default profile
/// relies on.
pub fn batch_rounds(
    rounds: &CompiledRounds,
    spec: &HardwareSpec,
) -> (CompiledRounds, RoundBatchStats) {
    if spec.simd_width <= 1 {
        return (rounds.clone(), RoundBatchStats::default());
    }
    let (mut prologue_ops, _, prologue_stats) = batch_ops(rounds.prologue.ops(), spec);
    apply_discount(&mut prologue_ops, spec);

    // Template: group by remapped predecessor too, so every member of a
    // merged pulse replays the same addition chain.
    let template_preds = &rounds.template.preds;
    let (template_ops, remap, round_stats) =
        batch_scan(&rounds.template.ops, spec.simd_width, |i, remap| {
            match template_preds.get(i).copied().flatten() {
                Some(p) => remap[p as usize] as u64,
                None => u64::MAX,
            }
        });
    let new_preds: Vec<Option<u32>> = {
        // One pred per *output* pulse: all members share it by construction.
        let mut preds = vec![None; template_ops.len()];
        for (old, &new) in remap.iter().enumerate() {
            preds[new] = template_preds[old].map(|p| remap[p as usize] as u32);
        }
        preds
    };
    let (mut epilogue_ops, _, epilogue_stats) = batch_ops(rounds.epilogue.ops(), spec);
    apply_discount(&mut epilogue_ops, spec);

    (
        CompiledRounds {
            prologue: Circuit::from_ops(prologue_ops),
            template: RoundTemplate {
                ops: template_ops,
                preds: new_preds,
                // Merged pulses share their members' start, duration and
                // predecessor, so the template replays to the same barriers.
                base_us: rounds.template.base_us,
                last_base_us: rounds.template.last_base_us,
                recovery_us: rounds.template.recovery_us,
                meas_per_round: rounds.template.meas_per_round,
            },
            repeats: rounds.repeats,
            epilogue: Circuit::from_ops(epilogue_ops),
            measurements: rounds.measurements.clone(),
            rebase_us: rounds.rebase_us,
        },
        RoundBatchStats { prologue: prologue_stats, round: round_stats, epilogue: epilogue_stats },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(op: NativeOp, site: QSite, qubit: QubitId, start: f64, dur: f64) -> TimedOp {
        TimedOp {
            op,
            sites: vec![site].into(),
            qubits: vec![qubit].into(),
            start_us: start,
            duration_us: dur,
            junction: None,
            measurement: None,
        }
    }

    fn wide(width: usize) -> HardwareSpec {
        let mut spec = HardwareSpec::h1();
        spec.simd_width = width;
        spec
    }

    /// Schedules one 100 µs hop of ion `q` through J(0,4) with no zones, so
    /// only the junction can bind, and notes the delay as the model does.
    fn hop(s: &mut Scheduler, q: u32, idx: usize) -> Slot {
        let j = Some(QSite::new(0, 4));
        let slot = s.ready(&[QubitId(q)], &[], j);
        if slot.junction_bound {
            s.note_junction_delay(idx);
        }
        s.occupy(&[QubitId(q)], &[], j, slot.start_us + 100.0, idx);
        slot
    }

    #[test]
    fn capacity_one_serializes_hops_and_flags_chained_stalls() {
        let mut s = Scheduler::new(&Layout::new(2, 2), 1, 0.0);
        let slot = |start_us, src, junction_bound, junction_stall| Slot {
            start_us,
            src,
            junction_bound,
            junction_stall,
        };
        assert_eq!(hop(&mut s, 0, 0), slot(0.0, None, false, false), "free hop");
        assert_eq!(hop(&mut s, 1, 1), slot(100.0, Some(0), true, false), "exclusive transit");
        assert_eq!(hop(&mut s, 2, 2), slot(200.0, Some(1), true, true), "chained stall");

        let mut s = Scheduler::new(&Layout::new(2, 2), 1, 50.0);
        assert_eq!(hop(&mut s, 0, 0), slot(0.0, None, false, false), "free hop");
        assert_eq!(hop(&mut s, 1, 1), slot(150.0, Some(0), true, true), "recovery stall");
    }

    #[test]
    fn capacity_two_admits_two_concurrent_hops() {
        let mut s = Scheduler::new(&Layout::new(2, 2), 2, 0.0);
        let j = QSite::new(0, 4);
        let decide = |s: &mut Scheduler, q: u32, idx: usize, dur: f64| {
            let slot = s.ready(&[QubitId(q)], &[], Some(j));
            s.occupy(&[QubitId(q)], &[], Some(j), slot.start_us + dur, idx);
            slot
        };
        let s0 = decide(&mut s, 0, 0, 100.0);
        let s1 = decide(&mut s, 1, 1, 150.0);
        let s2 = decide(&mut s, 2, 2, 100.0);
        assert_eq!(s0.start_us, 0.0);
        assert!(!s0.junction_bound);
        assert_eq!(s1.start_us, 0.0, "second hop shares the junction");
        assert!(!s1.junction_bound);
        assert_eq!(s2.start_us, 100.0, "third hop waits for a slot");
        assert!(s2.junction_bound);
        assert!(!s2.junction_stall, "the blocking hop was itself unimpeded");
        assert_eq!(s2.src, Some(0), "the earliest-freeing slot admits it");
    }

    #[test]
    fn unseen_ions_and_sites_never_set_a_start() {
        let layout = Layout::new(2, 2);
        let mut s = Scheduler::new(&layout, 1, 0.0);
        let never = |s: &Scheduler| {
            // Ions past any id it has seen, an unused zone and junction,
            // and a site off the layout all read as idle.
            s.ready(
                &[QubitId(0), QubitId(7)],
                &[QSite::new(0, 1), QSite::new(0, 4 * layout.unit_cols())],
                Some(QSite::new(4, 4)),
            )
        };
        let idle = Slot { start_us: 0.0, src: None, junction_bound: false, junction_stall: false };
        assert_eq!(never(&s), idle);
        s.barrier(250.0);
        assert_eq!(never(&s), Slot { start_us: 250.0, ..idle });
        // Busy resources elsewhere leave them idle too.
        s.occupy(&[QubitId(3)], &[QSite::new(1, 0)], Some(QSite::new(0, 0)), 900.0, 0);
        s.note_junction_delay(0);
        assert_eq!(never(&s), Slot { start_us: 250.0, ..idle });
        // ... while the resources it did see now bind.
        let busy = s.ready(&[QubitId(3)], &[], None);
        assert_eq!((busy.start_us, busy.src), (900.0, Some(0)));
    }

    #[test]
    fn batch_ops_merges_up_to_width_and_remaps() {
        let ops: Vec<TimedOp> = (0..5)
            .map(|i| gate(NativeOp::XPi2, QSite::new(0, 1 + i), QubitId(i), 0.0, 10.0))
            .collect();
        let (out, remap, stats) = batch_ops(&ops, &wide(2));
        // ceil(5/2) = 3 pulses.
        assert_eq!(out.len(), 3);
        assert_eq!(remap, vec![0, 0, 1, 1, 2]);
        assert_eq!(stats.batched_pulses, 2);
        assert_eq!(stats.merged_ops, 4);
        assert_eq!(out[0].sites.len(), 2);
        assert_eq!(out[2].sites.len(), 1);
    }

    #[test]
    fn transport_of_the_batched_ion_closes_its_batch() {
        let mv = TimedOp {
            op: NativeOp::Move,
            sites: vec![QSite::new(0, 2), QSite::new(0, 3)].into(),
            qubits: vec![QubitId(9)].into(),
            start_us: 0.0,
            duration_us: 5.25,
            junction: None,
            measurement: None,
        };
        let ops = vec![
            gate(NativeOp::XPi2, QSite::new(0, 1), QubitId(0), 0.0, 10.0),
            mv,
            gate(NativeOp::XPi2, QSite::new(0, 3), QubitId(9), 0.0, 10.0),
        ];
        let (out, _, stats) = batch_ops(&ops, &wide(4));
        assert_eq!(out.len(), 3, "a gate never merges across a transport of its own ion");
        assert_eq!(stats.batched_pulses, 0);
    }

    #[test]
    fn transport_of_an_unrelated_ion_leaves_batches_open() {
        let mv = TimedOp {
            op: NativeOp::Move,
            sites: vec![QSite::new(0, 2), QSite::new(0, 3)].into(),
            qubits: vec![QubitId(9)].into(),
            start_us: 0.0,
            duration_us: 5.25,
            junction: None,
            measurement: None,
        };
        let ops = vec![
            gate(NativeOp::XPi2, QSite::new(0, 1), QubitId(0), 0.0, 10.0),
            mv,
            gate(NativeOp::XPi2, QSite::new(0, 5), QubitId(1), 0.0, 10.0),
        ];
        let (out, remap, stats) = batch_ops(&ops, &wide(4));
        assert_eq!(out.len(), 2, "ion 1 never moved, so its gate joins the open pulse");
        assert_eq!(remap, vec![0, 1, 0]);
        assert_eq!(stats.batched_pulses, 1);
        assert_eq!(stats.merged_ops, 2);
    }

    #[test]
    fn width_one_is_identity() {
        let ops: Vec<TimedOp> = (0..4)
            .map(|i| gate(NativeOp::YPi4, QSite::new(0, 1 + i), QubitId(i), 0.0, 10.0))
            .collect();
        let (out, remap, stats) = batch_ops(&ops, &wide(1));
        assert_eq!(out, ops);
        assert_eq!(remap, vec![0, 1, 2, 3]);
        assert_eq!(stats, BatchStats::default());
    }
}
