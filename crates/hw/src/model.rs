//! The hardware model: compiles requested gates into scheduled native
//! operations on the trapped-ion grid.
//!
//! `HardwareModel` mirrors the class of the same name in the paper
//! (Appendix B.1): it "defines a set of native hardware operations and
//! related parameters, compiles gates requested by `LogicalQubit` to the
//! native gate set and adds native gates to a time-resolved hardware
//! circuit". Scheduling is ASAP: every emitted operation starts as soon as
//! all ions, zones and junctions it needs are free and the current barrier
//! has passed. Junction conflicts are therefore resolved by serialising the
//! conflicting hops, exactly as described in paper Sec. 3.3.
//!
//! The contention rules themselves live in the explicit pass pipeline
//! ([`crate::passes`]): the model delegates every ready-time/occupancy
//! decision to a [`Scheduler`], which enforces
//! [`HardwareSpec::junction_capacity`] at schedule time and flags every op
//! that stalled waiting for a junction slot
//! ([`HardwareModel::junction_stalls`]).

use tiscc_grid::{GridError, GridManager, MoveStep, QSite, QubitId, Router, SiteKind};

use crate::circuit::{Circuit, MeasurementRecord, TimedOp};
use crate::label::Label;
use crate::operands::Operands;
use crate::ops::NativeOp;
use crate::passes::{SchedulePolicy, Scheduler};
use crate::resources::ResourceReport;
use crate::rounds::{replay_round, ReplicatedSpan};
use crate::spec::HardwareSpec;

/// Errors raised while compiling onto the hardware model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HwError {
    /// An occupancy or addressing error from the grid layer.
    Grid(GridError),
    /// A two-qubit gate was requested between ions that are not in adjacent
    /// trapping zones.
    NotAdjacent(QSite, QSite),
    /// No route exists between the two zones (e.g. every path is blocked).
    NoRoute(QSite, QSite),
}

impl From<GridError> for HwError {
    fn from(e: GridError) -> Self {
        HwError::Grid(e)
    }
}

impl std::fmt::Display for HwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwError::Grid(e) => write!(f, "grid error: {e}"),
            HwError::NotAdjacent(a, b) => {
                write!(f, "two-qubit gate requested between non-adjacent zones {a} and {b}")
            }
            HwError::NoRoute(a, b) => write!(f, "no route from {a} to {b}"),
        }
    }
}

impl std::error::Error for HwError {}

/// Summary of one analytic round replication (see
/// [`HardwareModel::replicate_captured_round`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundReplication {
    /// Native operations per round occurrence.
    pub ops_per_round: usize,
    /// Measurement records per round occurrence.
    pub meas_per_round: usize,
}

/// In-flight state of a round capture (between
/// [`HardwareModel::begin_round_capture`] and
/// [`HardwareModel::replicate_captured_round`]).
#[derive(Clone, Debug)]
struct CaptureState {
    op_start: usize,
    meas_start: usize,
    base_us: f64,
    snapshot: Vec<(QubitId, QSite)>,
    preds: Vec<Option<u32>>,
    poisoned: bool,
}

/// Builder of time-resolved hardware circuits over a [`GridManager`].
#[derive(Clone, Debug)]
pub struct HardwareModel {
    grid: GridManager,
    // Dijkstra scratch reused by every `route_and_move` on this model.
    router: Router,
    circuit: Circuit,
    // The scheduling pass: per-resource busy windows, the barrier, and the
    // junction-capacity contention rule.
    sched: Scheduler,
    // Per materialized op: did a saturated junction delay its start? Kept
    // beside the circuit (not on `TimedOp`) so the op encoding is unchanged.
    stall_flags: Vec<bool>,
    spec: HardwareSpec,
    templating: bool,
    capture: Option<CaptureState>,
}

impl HardwareModel {
    /// A model over a fresh grid of `unit_rows × unit_cols` repeating units,
    /// under the paper-faithful default profile ([`HardwareSpec::h1`]).
    pub fn new(unit_rows: u32, unit_cols: u32) -> Self {
        HardwareModel::with_spec(unit_rows, unit_cols, HardwareSpec::default())
    }

    /// A model over a fresh grid, compiling under the given hardware
    /// profile: every emitted operation takes the duration `spec` assigns it.
    pub fn with_spec(unit_rows: u32, unit_cols: u32, spec: HardwareSpec) -> Self {
        let grid = GridManager::new(unit_rows, unit_cols);
        HardwareModel {
            sched: Scheduler::new(grid.layout(), spec.junction_capacity, spec.junction_recovery_us),
            grid,
            router: Router::new(),
            circuit: Circuit::new(),
            stall_flags: Vec::new(),
            spec,
            templating: false,
            capture: None,
        }
    }

    /// Switches the scheduling pass's junction-contention rule. The default
    /// [`SchedulePolicy::Windowed`] rule is byte-identical to
    /// [`SchedulePolicy::Legacy`] at `junction_capacity == 1`; the legacy
    /// rule is kept as the oracle for the differential test harness.
    pub fn set_schedule_policy(&mut self, policy: SchedulePolicy) {
        self.sched.set_policy(policy);
    }

    /// The active junction-contention rule.
    pub fn schedule_policy(&self) -> SchedulePolicy {
        self.sched.policy()
    }

    /// Number of materialized ops that *junction-stalled* — waited on a
    /// junction beyond pure transit exclusivity, either into a recovery
    /// (recool) window ([`HardwareSpec::junction_recovery_us`] > 0) or
    /// behind a hop that was itself junction-delayed (see
    /// [`Slot::junction_stall`](crate::passes::Slot::junction_stall)).
    /// This is the scheduling pass's contention measure. Replicated rounds
    /// are not included (each replica repeats its captured round's stalls;
    /// consumers scale by the repeat count).
    pub fn junction_stalls(&self) -> usize {
        self.stall_flags.iter().filter(|&&s| s).count()
    }

    /// Per-materialized-op stall flags (parallel to `circuit().ops()`):
    /// `true` where the op junction-stalled (see
    /// [`HardwareModel::junction_stalls`]).
    pub fn stall_flags(&self) -> &[bool] {
        &self.stall_flags
    }

    /// Enables (or disables) round templating: when on, round-compiling
    /// callers (the patch layer's idle/merge/extension loops) compile one
    /// representative syndrome-extraction round and replicate it
    /// analytically instead of materializing every round. Off by default —
    /// the verification harness simulates fully materialized circuits.
    pub fn set_round_templating(&mut self, on: bool) {
        self.templating = on;
    }

    /// True if round templating is enabled (see
    /// [`HardwareModel::set_round_templating`]).
    pub fn round_templating(&self) -> bool {
        self.templating
    }

    /// The hardware profile this model compiles against.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// The grid manager (read access).
    pub fn grid(&self) -> &GridManager {
        &self.grid
    }

    /// Space-time resource report of the circuit compiled so far, accounted
    /// under this model's hardware profile.
    pub fn resource_report(&self) -> ResourceReport {
        ResourceReport::from_circuit(&self.circuit, self.grid.layout(), &self.spec)
    }

    /// The circuit compiled so far.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Consumes the model and returns the compiled circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// Current makespan of the compiled circuit in microseconds.
    pub fn now_us(&self) -> f64 {
        self.circuit.makespan_us()
    }

    /// Loads a new ion at `site`.
    pub fn place_qubit(&mut self, site: QSite) -> Result<QubitId, HwError> {
        Ok(self.grid.place_qubit(site)?)
    }

    /// Removes an ion from the grid (its zone becomes reusable).
    pub fn remove_qubit(&mut self, qubit: QubitId) -> Result<QSite, HwError> {
        Ok(self.grid.remove_qubit(qubit)?)
    }

    /// Inserts a global barrier: every subsequently emitted operation starts
    /// no earlier than the current makespan. Used between rounds of error
    /// correction so that logical time-steps are cleanly separated.
    pub fn barrier(&mut self) {
        self.sched.barrier(self.now_us());
    }

    /// The position of `qubit`, or an error if it is not on the grid.
    pub fn position_of(&self, qubit: QubitId) -> Result<QSite, HwError> {
        self.grid.position_of(qubit).ok_or(HwError::Grid(GridError::UnknownQubit(qubit)))
    }

    fn emit(
        &mut self,
        op: NativeOp,
        qubits: Operands<QubitId>,
        sites: Operands<QSite>,
        junction: Option<QSite>,
        measurement: Option<usize>,
    ) -> f64 {
        let duration = op.duration_us(&self.spec);
        let slot = self.sched.ready(&qubits, &sites, junction);
        let (start, src) = (slot.start_us, slot.src);
        let end = start + duration;
        let op_idx = self.circuit.len();
        if let Some(cap) = &mut self.capture {
            let pred = match src {
                Some(j) if j >= cap.op_start => Some((j - cap.op_start) as u32),
                // A predecessor from before the captured round means the
                // round is not barrier-quiescent: refuse to replicate it.
                Some(_) => {
                    cap.poisoned = true;
                    None
                }
                None => None,
            };
            cap.preds.push(pred);
        }
        self.sched.occupy(&qubits, &sites, junction, end, op_idx);
        if slot.junction_bound {
            self.sched.note_junction_delay(op_idx);
        }
        self.stall_flags.push(slot.junction_stall);
        self.circuit.push(TimedOp {
            op,
            sites,
            qubits,
            start_us: start,
            duration_us: duration,
            junction,
            measurement,
        });
        start
    }

    // ----- round capture / analytic replication ------------------------------

    /// Starts capturing a syndrome-extraction round for analytic
    /// replication. Must be called at a barrier-quiescent point (right
    /// after [`HardwareModel::barrier`], with every ion at its round-start
    /// position); the round compiled next must end with a barrier.
    pub fn begin_round_capture(&mut self) {
        debug_assert!(self.capture.is_none(), "nested round capture");
        debug_assert!(
            self.sched.barrier_us() >= self.circuit.makespan_us(),
            "round capture must begin at a barrier-quiescent point"
        );
        self.capture = Some(CaptureState {
            op_start: self.circuit.len(),
            meas_start: self.circuit.measurements().len(),
            base_us: self.sched.barrier_us(),
            snapshot: self.grid.snapshot(),
            preds: Vec::new(),
            poisoned: false,
        });
    }

    /// Discards an in-flight round capture without replicating.
    pub fn cancel_round_capture(&mut self) {
        self.capture = None;
    }

    /// Ends the capture begun by [`HardwareModel::begin_round_capture`] and
    /// replays the captured round `extra` additional times analytically:
    /// replica measurement records are appended (times from a bit-exact
    /// schedule replay, labels re-numbered via [`Label::advance_round`]),
    /// the clock advances past the replicas, and the circuit records a
    /// [`ReplicatedSpan`] — but no operation is re-materialized.
    ///
    /// Returns `None` — leaving the model exactly as if no capture had
    /// happened — when the captured round is not provably replicable: it
    /// scheduled against pre-round operations, emitted nothing, or moved
    /// ions away from their round-start positions. Callers then fall back
    /// to materializing the remaining rounds.
    pub fn replicate_captured_round(&mut self, extra: usize) -> Option<RoundReplication> {
        let cap = self.capture.take()?;
        let op_end = self.circuit.len();
        if cap.poisoned || op_end == cap.op_start || self.grid.snapshot() != cap.snapshot {
            return None;
        }
        let meas_per_round = self.circuit.measurements().len() - cap.meas_start;
        let info = RoundReplication { ops_per_round: op_end - cap.op_start, meas_per_round };
        if extra == 0 {
            return Some(info);
        }

        let (new_records, end_makespan) = {
            let ops = &self.circuit.ops()[cap.op_start..op_end];
            // (record index, op position) pairs of the captured round, in
            // record order (records are emitted monotonically with ops).
            let meas_ops: Vec<(usize, usize)> = ops
                .iter()
                .enumerate()
                .filter_map(|(pos, o)| o.measurement.map(|m| (m, pos)))
                .collect();
            debug_assert!(meas_ops
                .iter()
                .map(|&(m, _)| m)
                .eq(cap.meas_start..cap.meas_start + meas_per_round));
            let template_recs = &self.circuit.measurements()[cap.meas_start..];

            let mut base = ops.iter().map(TimedOp::end_us).fold(cap.base_us, f64::max);
            let (mut starts, mut ends) = (Vec::new(), Vec::new());
            let mut new_records = Vec::with_capacity(extra * meas_per_round);
            for r in 1..=extra {
                base = replay_round(
                    ops,
                    &cap.preds,
                    base,
                    self.spec.junction_recovery_us,
                    &mut starts,
                    &mut ends,
                );
                for &(m, pos) in &meas_ops {
                    let template = &template_recs[m - cap.meas_start];
                    new_records.push(MeasurementRecord {
                        index: 0, // assigned on push
                        qubit: template.qubit,
                        site: template.site,
                        start_us: starts[pos],
                        label: template.label.advance_round(r as u32),
                    });
                }
            }
            (new_records, base)
        };

        for rec in new_records {
            self.circuit.push_measurement(rec);
        }
        self.sched.barrier(end_makespan);
        self.circuit.push_span(ReplicatedSpan {
            op_start: cap.op_start,
            op_end,
            meas_start: cap.meas_start,
            meas_per_round,
            extra,
            base_us: cap.base_us,
            end_makespan_us: end_makespan,
            recovery_us: self.spec.junction_recovery_us,
            preds: cap.preds,
        });
        Some(info)
    }

    /// Applies a single-qubit native gate to the ion's current zone.
    pub fn apply_1q(&mut self, op: NativeOp, qubit: QubitId) -> Result<(), HwError> {
        debug_assert_eq!(op.arity(), 1, "apply_1q used with a two-site op");
        let site = self.position_of(qubit)?;
        self.emit(op, [qubit].into(), [site].into(), None, None);
        Ok(())
    }

    /// Prepares the ion in |0⟩.
    pub fn prepare_z(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::PrepareZ, qubit)
    }

    /// Prepares the ion in |+⟩ (`Prepare_Z` followed by a native Hadamard).
    pub fn prepare_x(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.prepare_z(qubit)?;
        self.hadamard(qubit)
    }

    /// Measures the ion in the Z basis; returns the measurement index.
    pub fn measure_z(&mut self, qubit: QubitId, label: impl Into<Label>) -> Result<usize, HwError> {
        let site = self.position_of(qubit)?;
        let idx = self.circuit.push_measurement(MeasurementRecord {
            index: 0,
            qubit,
            site,
            start_us: 0.0,
            label: label.into(),
        });
        let start = self.emit(NativeOp::MeasureZ, [qubit].into(), [site].into(), None, Some(idx));
        // Patch the recorded start time now that the schedule is known.
        if let Some(rec) = self.circuit.measurements().get(idx) {
            let mut rec = rec.clone();
            rec.start_us = start;
            self.circuit.replace_measurement(idx, rec);
        }
        Ok(idx)
    }

    /// Measures the ion in the X basis (native Hadamard, then `Measure_Z`).
    pub fn measure_x(&mut self, qubit: QubitId, label: impl Into<Label>) -> Result<usize, HwError> {
        self.hadamard(qubit)?;
        self.measure_z(qubit, label)
    }

    /// The Hadamard gate compiled to natives: `H ≅ Y_{π/4} · Z_{π/2}`
    /// (apply `Z_{π/2}` first, then `Y_{π/4}`), following the Quantinuum H1
    /// construction of single-qubit Cliffords from a Z rotation and one
    /// X-Y-plane pulse.
    pub fn hadamard(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::ZPi2, qubit)?;
        self.apply_1q(NativeOp::YPi4, qubit)
    }

    /// Pauli X as the native `X_{π/2}` pulse (equal up to global phase).
    pub fn pauli_x(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::XPi2, qubit)
    }

    /// Pauli Y as the native `Y_{π/2}` pulse.
    pub fn pauli_y(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::YPi2, qubit)
    }

    /// Pauli Z as the native `Z_{π/2}` pulse.
    pub fn pauli_z(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::ZPi2, qubit)
    }

    /// The S gate (`Z_{π/4}` up to global phase).
    pub fn s_gate(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::ZPi4, qubit)
    }

    /// The S† gate.
    pub fn s_dag(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::ZPi4Dag, qubit)
    }

    /// The T gate (`Z_{π/8}` up to global phase) — the only non-Clifford.
    pub fn t_gate(&mut self, qubit: QubitId) -> Result<(), HwError> {
        self.apply_1q(NativeOp::ZPi8, qubit)
    }

    /// Applies the native `(ZZ)_{π/4}` interaction between two ions, which
    /// must sit in adjacent trapping zones.
    pub fn apply_zz(&mut self, a: QubitId, b: QubitId) -> Result<(), HwError> {
        let sa = self.position_of(a)?;
        let sb = self.position_of(b)?;
        if !self.are_adjacent_zones(sa, sb) {
            return Err(HwError::NotAdjacent(sa, sb));
        }
        self.emit(NativeOp::ZZ, [a, b].into(), [sa, sb].into(), None, None);
        Ok(())
    }

    /// CNOT compiled to natives following the H1 construction:
    /// `CNOT(c,t) = H_t · [ (ZZ)_{π/4} · Z_{-π/4}(c) · Z_{-π/4}(t) ] · H_t`
    /// (the bracketed factors are diagonal and mutually commuting). The two
    /// ions must sit in adjacent zones.
    pub fn cnot(&mut self, control: QubitId, target: QubitId) -> Result<(), HwError> {
        self.hadamard(target)?;
        self.apply_1q(NativeOp::ZPi4Dag, control)?;
        self.apply_1q(NativeOp::ZPi4Dag, target)?;
        self.apply_zz(control, target)?;
        self.hadamard(target)
    }

    fn are_adjacent_zones(&self, a: QSite, b: QSite) -> bool {
        self.grid.layout().neighbors(a).contains(&b)
    }

    /// Emits the transport operations for a pre-computed route and updates
    /// ion positions step by step.
    pub fn move_along(&mut self, qubit: QubitId, steps: &[MoveStep]) -> Result<(), HwError> {
        for step in steps {
            match *step {
                MoveStep::Shuttle { from, to } => {
                    self.grid.step_qubit(qubit, to)?;
                    self.emit(NativeOp::Move, [qubit].into(), [from, to].into(), None, None);
                }
                MoveStep::JunctionHop { from, to, junction } => {
                    self.grid.step_qubit(qubit, to)?;
                    self.emit(
                        NativeOp::JunctionMove,
                        [qubit].into(),
                        [from, to].into(),
                        Some(junction),
                        None,
                    );
                }
            }
        }
        Ok(())
    }

    /// Routes `qubit` to `dest`, avoiding every zone currently occupied by
    /// another ion, and emits the transport operations.
    pub fn route_and_move(&mut self, qubit: QubitId, dest: QSite) -> Result<(), HwError> {
        let from = self.position_of(qubit)?;
        if from == dest {
            return Ok(());
        }
        let grid = &self.grid;
        let steps = self
            .router
            .route_avoiding_with(grid.layout(), from, dest, &|site| {
                grid.qubit_at(site).is_some_and(|q| q != qubit)
            })
            .ok_or(HwError::NoRoute(from, dest))?;
        self.move_along(qubit, &steps)
    }

    /// True if `site` is an operation or memory zone free of ions.
    pub fn is_free_zone(&self, site: QSite) -> bool {
        self.grid.is_free(site)
            && matches!(
                self.grid.layout().site_kind(site),
                Some(SiteKind::Memory) | Some(SiteKind::Operation)
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_qubit_gates_are_scheduled_sequentially_per_ion() {
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        hw.apply_1q(NativeOp::XPi2, q).unwrap();
        hw.apply_1q(NativeOp::ZPi2, q).unwrap();
        let ops = hw.circuit().ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].start_us, 0.0);
        assert_eq!(ops[1].start_us, 10.0);
        assert_eq!(ops[2].start_us, 20.0);
        assert!((hw.now_us() - 23.0).abs() < 1e-9);
    }

    #[test]
    fn independent_ions_run_in_parallel() {
        let mut hw = HardwareModel::new(1, 2);
        let a = hw.place_qubit(QSite::new(0, 1)).unwrap();
        let b = hw.place_qubit(QSite::new(0, 5)).unwrap();
        hw.prepare_z(a).unwrap();
        hw.prepare_z(b).unwrap();
        let ops = hw.circuit().ops();
        assert_eq!(ops[0].start_us, 0.0);
        assert_eq!(ops[1].start_us, 0.0, "ops on different ions/zones overlap in time");
        assert!((hw.now_us() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_serialises_rounds() {
        let mut hw = HardwareModel::new(1, 2);
        let a = hw.place_qubit(QSite::new(0, 1)).unwrap();
        let b = hw.place_qubit(QSite::new(0, 5)).unwrap();
        hw.prepare_z(a).unwrap();
        hw.barrier();
        hw.prepare_z(b).unwrap();
        let ops = hw.circuit().ops();
        assert_eq!(ops[1].start_us, 10.0);
    }

    #[test]
    fn zz_requires_adjacency() {
        let mut hw = HardwareModel::new(1, 2);
        let a = hw.place_qubit(QSite::new(0, 1)).unwrap();
        let b = hw.place_qubit(QSite::new(0, 5)).unwrap();
        assert!(matches!(hw.apply_zz(a, b), Err(HwError::NotAdjacent(_, _))));
        // After routing b next to a, the gate succeeds.
        hw.route_and_move(b, QSite::new(0, 2)).unwrap();
        hw.apply_zz(a, b).unwrap();
        assert_eq!(hw.circuit().count_of(NativeOp::ZZ), 1);
    }

    #[test]
    fn junction_conflicts_are_serialised() {
        let mut hw = HardwareModel::new(2, 2);
        // Two ions that both need to hop through the junction at (0,4).
        let a = hw.place_qubit(QSite::new(0, 3)).unwrap();
        let b = hw.place_qubit(QSite::new(1, 4)).unwrap();
        hw.move_along(
            a,
            &[MoveStep::JunctionHop {
                from: QSite::new(0, 3),
                to: QSite::new(0, 5),
                junction: QSite::new(0, 4),
            }],
        )
        .unwrap();
        hw.move_along(
            b,
            &[MoveStep::JunctionHop {
                from: QSite::new(1, 4),
                to: QSite::new(0, 3),
                junction: QSite::new(0, 4),
            }],
        )
        .unwrap();
        let ops = hw.circuit().ops();
        assert_eq!(ops.len(), 2);
        // The second hop cannot start before the first releases the junction.
        assert!(ops[1].start_us >= ops[0].end_us() - 1e-9);
    }

    #[test]
    fn measurement_records_are_labelled_and_timed() {
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        let idx = hw.measure_z(q, "data (0,0) final").unwrap();
        assert_eq!(idx, 0);
        let rec = &hw.circuit().measurements()[0];
        assert_eq!(rec.label.render(), "data (0,0) final");
        assert!((rec.start_us - 10.0).abs() < 1e-9);
        assert_eq!(rec.qubit, q);
    }

    #[test]
    fn cnot_expands_to_expected_native_sequence() {
        let mut hw = HardwareModel::new(1, 1);
        let c = hw.place_qubit(QSite::new(0, 1)).unwrap();
        let t = hw.place_qubit(QSite::new(0, 2)).unwrap();
        hw.cnot(c, t).unwrap();
        let kinds: Vec<NativeOp> = hw.circuit().ops().iter().map(|o| o.op).collect();
        assert_eq!(
            kinds,
            vec![
                NativeOp::ZPi2,
                NativeOp::YPi4,
                NativeOp::ZPi4Dag,
                NativeOp::ZPi4Dag,
                NativeOp::ZZ,
                NativeOp::ZPi2,
                NativeOp::YPi4,
            ]
        );
    }

    #[test]
    fn schedule_follows_the_hardware_profile() {
        let spec = HardwareSpec::h1().scale_durations(2.0);
        let mut hw = HardwareModel::with_spec(1, 1, spec);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.prepare_z(q).unwrap();
        hw.apply_1q(NativeOp::XPi2, q).unwrap();
        let ops = hw.circuit().ops();
        assert_eq!(ops[0].duration_us, 20.0);
        assert_eq!(ops[1].start_us, 20.0);
        assert!((hw.now_us() - 40.0).abs() < 1e-9);
        assert_eq!(hw.spec().name, "h1*2");
    }

    #[test]
    fn captured_round_replicates_bit_exactly() {
        // A "round": prepare + measure on one ion, terminated by a barrier.
        let compile_round = |hw: &mut HardwareModel, q: QubitId, round: u32| {
            hw.prepare_z(q).unwrap();
            hw.measure_z(
                q,
                crate::label::Label::Syndrome {
                    round: crate::label::RoundLabel::Idle(round),
                    x_type: false,
                    row: 0,
                    col: 0,
                },
            )
            .unwrap();
            hw.barrier();
        };

        // Materialized reference: four rounds compiled normally.
        let mut reference = HardwareModel::new(1, 1);
        let q = reference.place_qubit(QSite::new(0, 1)).unwrap();
        for r in 0..4 {
            compile_round(&mut reference, q, r);
        }

        // Templated: round 0 compiled, round 1 captured, rounds 2–3 replicated.
        let mut templated = HardwareModel::new(1, 1);
        let q = templated.place_qubit(QSite::new(0, 1)).unwrap();
        compile_round(&mut templated, q, 0);
        templated.begin_round_capture();
        compile_round(&mut templated, q, 1);
        let info = templated.replicate_captured_round(2).expect("round is replicable");
        assert_eq!(info, RoundReplication { ops_per_round: 2, meas_per_round: 1 });

        assert_eq!(templated.circuit().len(), 4, "only two rounds materialized");
        assert_eq!(templated.circuit().logical_len(), 8);
        assert_eq!(templated.circuit().measurements().len(), 4);
        assert_eq!(
            templated.circuit().measurements()[3].label.render(),
            "idle round 3 Z cell (0, 0)"
        );
        assert_eq!(templated.now_us(), reference.now_us());

        // The materialization reproduces the reference schedule exactly.
        let flat = templated.circuit().materialize();
        assert_eq!(flat.ops(), reference.circuit().ops());
        assert_eq!(flat.measurements().len(), reference.circuit().measurements().len());
        for (a, b) in flat.measurements().iter().zip(reference.circuit().measurements()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.start_us, b.start_us);
            assert_eq!(a.label.render(), b.label.render());
        }

        // Ops emitted after replication schedule exactly as in the reference.
        compile_round(&mut reference, q, 4);
        compile_round(&mut templated, q, 4);
        assert_eq!(templated.now_us(), reference.now_us());
        assert_eq!(
            templated.circuit().ops().last().unwrap().start_us,
            reference.circuit().ops().last().unwrap().start_us
        );
    }

    #[test]
    fn replication_refuses_non_quiescent_rounds() {
        let mut hw = HardwareModel::new(1, 2);
        let a = hw.place_qubit(QSite::new(0, 1)).unwrap();
        let b = hw.place_qubit(QSite::new(0, 5)).unwrap();
        hw.prepare_z(b).unwrap();
        hw.barrier();
        // A "round" that strands `a` away from its starting zone is not
        // position-neutral, so it must refuse to replicate.
        hw.begin_round_capture();
        hw.prepare_z(a).unwrap();
        hw.route_and_move(a, QSite::new(0, 2)).unwrap();
        hw.barrier();
        assert!(hw.replicate_captured_round(3).is_none(), "ion moved away from home");
        // An empty capture is refused too.
        hw.barrier();
        hw.begin_round_capture();
        hw.barrier();
        assert!(hw.replicate_captured_round(1).is_none());
    }

    #[test]
    fn route_and_move_emits_transport_and_updates_position() {
        let mut hw = HardwareModel::new(2, 2);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        hw.route_and_move(q, QSite::new(1, 4)).unwrap();
        assert_eq!(hw.grid().position_of(q), Some(QSite::new(1, 4)));
        assert!(hw.circuit().count_of(NativeOp::JunctionMove) >= 1);
    }
}
