//! The [`LogicalQubit`]: one surface-code patch bound to ions on the
//! trapped-ion grid, together with its stabilizer set, logical-operator
//! trackers and the transversal / injection / idle primitives of Table 2.

use std::collections::HashMap;

use tiscc_grid::{QSite, QubitId};
use tiscc_hw::{HardwareModel, Label, RoundLabel};
use tiscc_math::PauliOp;

use crate::arrangement::Arrangement;
use crate::plaquette::{
    build_stabilizers, data_home_site, logical_x_support, logical_z_support, measure_home_site,
    row_offset, tile_cols, tile_rows, Plaquette, StabKind,
};
use crate::syndrome::{syndrome_round, PatchBinding, RoundRecord};
use crate::tracker::{LogicalOutcomeSpec, OperatorTracker, TrackedOperator};
use crate::CoreError;

/// Per-data-qubit measurement indices of a transversal readout, keyed by the
/// data qubit's `(row, col)` coordinate within the tile.
pub type DataMeasurementIndices = HashMap<(usize, usize), usize>;

/// A surface-code patch occupying one (or, transiently during lattice
/// surgery and extension, more than one) logical tile.
///
/// Construction places — or re-binds to — one data ion and one syndrome ion
/// per tile unit; the patch starts *uninitialized* (no operable surface-code
/// state). The Table 2 primitives are provided as methods; lattice surgery
/// lives in [`crate::surgery`].
#[derive(Clone, Debug)]
pub struct LogicalQubit {
    dx: usize,
    dz: usize,
    dt: usize,
    origin: (u32, u32),
    arrangement: Arrangement,
    pub(crate) data_by_unit: HashMap<(u32, u32), QubitId>,
    pub(crate) measure_by_unit: HashMap<(u32, u32), QubitId>,
    pub(crate) stabilizers: Vec<Plaquette>,
    pub(crate) logical_x: OperatorTracker,
    pub(crate) logical_z: OperatorTracker,
    pub(crate) initialized: bool,
    pub(crate) latest_round: HashMap<(i32, i32), usize>,
}

impl LogicalQubit {
    /// Creates a patch with X/Z code distances `dx`/`dz` and temporal
    /// distance `dt` whose tile's upper-left unit is `origin`.
    ///
    /// Ions already present at the required sites (e.g. from a neighbouring
    /// patch whose tile overlaps a merged region) are re-used; missing ions
    /// are placed. The patch starts uninitialized and in the standard
    /// arrangement.
    pub fn new(
        hw: &mut HardwareModel,
        dx: usize,
        dz: usize,
        dt: usize,
        origin: (u32, u32),
    ) -> Result<Self, CoreError> {
        if dx < 2 || dz < 2 {
            return Err(CoreError::InvalidState(format!(
                "code distances must be at least 2 (got dx={dx}, dz={dz})"
            )));
        }
        if dt == 0 {
            return Err(CoreError::InvalidState(
                "temporal distance must be at least 1".to_string(),
            ));
        }
        let mut data_by_unit = HashMap::new();
        let mut measure_by_unit = HashMap::new();
        for r in 0..tile_rows(dz) {
            for c in 0..tile_cols(dx) {
                let unit = (origin.0 + r, origin.1 + c);
                let dsite = data_home_site(unit);
                let msite = measure_home_site(unit);
                data_by_unit.insert((r, c), Self::bind_ion(hw, dsite)?);
                measure_by_unit.insert((r, c), Self::bind_ion(hw, msite)?);
            }
        }
        let arrangement = Arrangement::Standard;
        Ok(LogicalQubit {
            dx,
            dz,
            dt,
            origin,
            arrangement,
            data_by_unit,
            measure_by_unit,
            stabilizers: build_stabilizers(dx, dz, arrangement),
            logical_x: OperatorTracker::new(logical_x_support(dx, dz, arrangement)),
            logical_z: OperatorTracker::new(logical_z_support(dx, dz, arrangement)),
            initialized: false,
            latest_round: HashMap::new(),
        })
    }

    fn bind_ion(hw: &mut HardwareModel, site: QSite) -> Result<QubitId, CoreError> {
        if let Some(q) = hw.grid().qubit_at(site) {
            Ok(q)
        } else {
            Ok(hw.place_qubit(site)?)
        }
    }

    /// X code distance (number of data columns).
    pub fn dx(&self) -> usize {
        self.dx
    }

    /// Z code distance (number of data rows).
    pub fn dz(&self) -> usize {
        self.dz
    }

    /// Temporal code distance: number of syndrome-extraction rounds per
    /// logical time-step.
    pub fn dt(&self) -> usize {
        self.dt
    }

    /// Tile origin in absolute unit coordinates.
    pub fn origin(&self) -> (u32, u32) {
        self.origin
    }

    /// Current stabilizer arrangement.
    pub fn arrangement(&self) -> Arrangement {
        self.arrangement
    }

    /// True if an operable surface-code state occupies the tile.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Tile height in unit rows.
    pub fn tile_rows(&self) -> u32 {
        tile_rows(self.dz)
    }

    /// Tile width in unit columns.
    pub fn tile_cols(&self) -> u32 {
        tile_cols(self.dx)
    }

    /// The stabilizer plaquettes.
    pub fn stabilizers(&self) -> &[Plaquette] {
        &self.stabilizers
    }

    /// The tracked logical X operator (patch-local coordinates).
    pub fn logical_x(&self) -> &OperatorTracker {
        &self.logical_x
    }

    /// The tracked logical Z operator (patch-local coordinates).
    pub fn logical_z(&self) -> &OperatorTracker {
        &self.logical_z
    }

    /// Latest syndrome-round measurement index for each cell (used for
    /// operator movement and lattice-surgery sign corrections).
    pub fn latest_round(&self) -> &HashMap<(i32, i32), usize> {
        &self.latest_round
    }

    /// The ion holding data qubit `(i, j)`.
    pub fn data_ion(&self, i: usize, j: usize) -> Result<QubitId, CoreError> {
        let unit = (row_offset(self.dz) + i as u32, j as u32);
        self.data_by_unit
            .get(&unit)
            .copied()
            .ok_or_else(|| CoreError::MissingIon(format!("data ({i},{j})")))
    }

    /// The ion parked at the data home of the tile-relative unit `(r, c)`
    /// (strip units included).
    pub fn data_ion_at_unit(&self, r: u32, c: u32) -> Option<QubitId> {
        self.data_by_unit.get(&(r, c)).copied()
    }

    /// Cells of all stabilizers of the given kind.
    pub fn cells_of_kind(&self, kind: StabKind) -> Vec<(i32, i32)> {
        self.stabilizers.iter().filter(|p| p.kind == kind).map(|p| p.cell).collect()
    }

    /// The ion-level binding used by the syndrome compiler.
    pub fn binding(&self) -> PatchBinding {
        let mut data_ions = HashMap::new();
        for i in 0..self.dz {
            for j in 0..self.dx {
                let unit = (row_offset(self.dz) + i as u32, j as u32);
                data_ions.insert((i, j), self.data_by_unit[&unit]);
            }
        }
        let mut measure_ions = HashMap::new();
        for p in &self.stabilizers {
            measure_ions.insert(p.cell, self.measure_by_unit[&p.anchor]);
        }
        PatchBinding {
            origin: self.origin,
            dx: self.dx,
            dz: self.dz,
            arrangement: self.arrangement,
            data_ions,
            measure_ions,
            stabilizers: self.stabilizers.clone(),
        }
    }

    // ----- Table 2 primitives -------------------------------------------------

    /// Transversal preparation of every data qubit in |0⟩ (the `Prepare Z`
    /// primitive, 0 logical time-steps). Resets the logical trackers.
    pub fn transversal_prepare_z(&mut self, hw: &mut HardwareModel) -> Result<(), CoreError> {
        for i in 0..self.dz {
            for j in 0..self.dx {
                hw.prepare_z(self.data_ion(i, j)?)?;
            }
        }
        self.reset_trackers();
        self.initialized = true;
        Ok(())
    }

    /// Transversal preparation of every data qubit in |+⟩ (used by the
    /// `Prepare X` instruction).
    pub fn transversal_prepare_x(&mut self, hw: &mut HardwareModel) -> Result<(), CoreError> {
        for i in 0..self.dz {
            for j in 0..self.dx {
                hw.prepare_x(self.data_ion(i, j)?)?;
            }
        }
        self.reset_trackers();
        self.initialized = true;
        Ok(())
    }

    /// Transversal Z-basis measurement of every data qubit (the destructive
    /// `Measure Z` primitive). Returns the logical Z outcome specification
    /// and the per-data-qubit measurement indices; the tile becomes
    /// uninitialized.
    pub fn transversal_measure_z(
        &mut self,
        hw: &mut HardwareModel,
    ) -> Result<(LogicalOutcomeSpec, DataMeasurementIndices), CoreError> {
        self.require_initialized("Measure Z")?;
        let mut indices = HashMap::new();
        for i in 0..self.dz {
            for j in 0..self.dx {
                let label = Label::DataReadout { x_basis: false, row: i as u32, col: j as u32 };
                let idx = hw.measure_z(self.data_ion(i, j)?, label)?;
                indices.insert((i, j), idx);
            }
        }
        let spec = self.logical_outcome_from_data("Z_L", &self.logical_z.clone(), &indices)?;
        self.initialized = false;
        Ok((spec, indices))
    }

    /// Transversal X-basis measurement of every data qubit (the destructive
    /// `Measure X` instruction).
    pub fn transversal_measure_x(
        &mut self,
        hw: &mut HardwareModel,
    ) -> Result<(LogicalOutcomeSpec, DataMeasurementIndices), CoreError> {
        self.require_initialized("Measure X")?;
        let mut indices = HashMap::new();
        for i in 0..self.dz {
            for j in 0..self.dx {
                let label = Label::DataReadout { x_basis: true, row: i as u32, col: j as u32 };
                let idx = hw.measure_x(self.data_ion(i, j)?, label)?;
                indices.insert((i, j), idx);
            }
        }
        let spec = self.logical_outcome_from_data("X_L", &self.logical_x.clone(), &indices)?;
        self.initialized = false;
        Ok((spec, indices))
    }

    fn logical_outcome_from_data(
        &self,
        name: &str,
        tracker: &OperatorTracker,
        indices: &HashMap<(usize, usize), usize>,
    ) -> Result<LogicalOutcomeSpec, CoreError> {
        let mut parity_of = Vec::new();
        for &(coord, _) in &tracker.support {
            let idx = indices.get(&coord).ok_or_else(|| {
                CoreError::MissingIon(format!("no measurement for data {coord:?}"))
            })?;
            parity_of.push(*idx);
        }
        parity_of.extend_from_slice(&tracker.frame);
        Ok(LogicalOutcomeSpec::new(name, parity_of, tracker.invert))
    }

    /// Transversal Hadamard over every data qubit (the `Hadamard` primitive):
    /// swaps the roles of X and Z stabilizers and leaves the patch in the
    /// arrangement rotated w.r.t. the current one.
    pub fn transversal_hadamard(&mut self, hw: &mut HardwareModel) -> Result<(), CoreError> {
        self.require_initialized("Hadamard")?;
        for i in 0..self.dz {
            for j in 0..self.dx {
                hw.hadamard(self.data_ion(i, j)?)?;
            }
        }
        // The new logical X observable is carried by the (relabelled) old Z
        // support and vice versa; frames travel with them.
        let old_x = std::mem::take(&mut self.logical_x);
        let old_z = std::mem::take(&mut self.logical_z);
        self.logical_x = OperatorTracker {
            support: old_z.support.iter().map(|&(c, _)| (c, PauliOp::X)).collect(),
            frame: old_z.frame,
            invert: old_z.invert,
        };
        self.logical_z = OperatorTracker {
            support: old_x.support.iter().map(|&(c, _)| (c, PauliOp::Z)).collect(),
            frame: old_x.frame,
            invert: old_x.invert,
        };
        self.arrangement = self.arrangement.after_transversal_hadamard();
        // Every stabilizer keeps its cell and value but changes type, so the
        // latest-round record remains valid.
        self.stabilizers = build_stabilizers(self.dx, self.dz, self.arrangement);
        Ok(())
    }

    /// Applies a logical Pauli operator transversally along the tracked
    /// representative (the `Pauli X/Y/Z` primitive, 0 time-steps).
    pub fn apply_logical_pauli(
        &mut self,
        hw: &mut HardwareModel,
        axis: PauliOp,
    ) -> Result<(), CoreError> {
        self.require_initialized("Pauli")?;
        let support: Vec<((usize, usize), PauliOp)> = match axis {
            PauliOp::X => self.logical_x.support.clone(),
            PauliOp::Z => self.logical_z.support.clone(),
            PauliOp::Y => self.logical_y_support(),
            PauliOp::I => Vec::new(),
        };
        for ((i, j), op) in support {
            let ion = self.data_ion(i, j)?;
            match op {
                PauliOp::X => hw.pauli_x(ion)?,
                PauliOp::Y => hw.pauli_y(ion)?,
                PauliOp::Z => hw.pauli_z(ion)?,
                PauliOp::I => {}
            }
        }
        Ok(())
    }

    /// The physical support of the logical Y operator (`i·X_L·Z_L`): the
    /// per-qubit product of the X and Z representatives.
    pub fn logical_y_support(&self) -> Vec<((usize, usize), PauliOp)> {
        let mut per_qubit: HashMap<(usize, usize), PauliOp> = HashMap::new();
        for &(c, op) in self.logical_x.support.iter().chain(self.logical_z.support.iter()) {
            let entry = per_qubit.entry(c).or_insert(PauliOp::I);
            *entry = combine(*entry, op);
        }
        let mut v: Vec<_> = per_qubit.into_iter().filter(|&(_, op)| op != PauliOp::I).collect();
        v.sort_by_key(|&(c, _)| c);
        v
    }

    /// Non-fault-tolerant state injection of a |+i⟩ (Y) eigenstate
    /// (the `Inject Y` primitive).
    pub fn inject_y(&mut self, hw: &mut HardwareModel) -> Result<(), CoreError> {
        self.inject(hw, false)
    }

    /// Non-fault-tolerant state injection of a |T⟩ magic state
    /// (the `Inject T` primitive). The injection circuit contains the single
    /// non-Clifford native gate `Z_{π/8}`.
    pub fn inject_t(&mut self, hw: &mut HardwareModel) -> Result<(), CoreError> {
        self.inject(hw, true)
    }

    /// Shared injection scheme: the corner qubit at the intersection of the
    /// default logical X and Z representatives is prepared in the target
    /// state; the rest of the X representative is prepared in |+⟩, the rest
    /// of the Z representative in |0⟩ and the bulk in |0⟩. All three logical
    /// Pauli expectation values then equal those of the injected state, and
    /// they are preserved by the subsequent stabilizer measurements.
    fn inject(&mut self, hw: &mut HardwareModel, t_state: bool) -> Result<(), CoreError> {
        self.reset_trackers();
        let x_coords: Vec<(usize, usize)> =
            self.logical_x.support.iter().map(|&(c, _)| c).collect();
        let z_coords: Vec<(usize, usize)> =
            self.logical_z.support.iter().map(|&(c, _)| c).collect();
        let corner = *x_coords
            .iter()
            .find(|c| z_coords.contains(c))
            .expect("default logical representatives intersect at a corner");
        for i in 0..self.dz {
            for j in 0..self.dx {
                let ion = self.data_ion(i, j)?;
                if (i, j) == corner {
                    hw.prepare_z(ion)?;
                    hw.hadamard(ion)?;
                    if t_state {
                        hw.t_gate(ion)?;
                    } else {
                        hw.s_gate(ion)?;
                    }
                } else if x_coords.contains(&(i, j)) {
                    hw.prepare_x(ion)?;
                } else {
                    hw.prepare_z(ion)?;
                }
            }
        }
        self.initialized = true;
        Ok(())
    }

    /// One round of syndrome extraction over the patch's stabilizers
    /// (refreshes the latest-round record).
    pub fn syndrome_round(
        &mut self,
        hw: &mut HardwareModel,
        label: impl Into<RoundLabel>,
    ) -> Result<RoundRecord, CoreError> {
        self.require_initialized("syndrome extraction")?;
        let binding = self.binding();
        let record = syndrome_round(hw, &binding, label.into())?;
        self.latest_round = record.measurements.clone();
        Ok(record)
    }

    /// `rounds` consecutive rounds of error correction labelled
    /// `ctx(0), ctx(1), …`.
    ///
    /// With round templating enabled on `hw` (see
    /// [`HardwareModel::set_round_templating`]) and `rounds ≥ 3`, rounds 0
    /// and 1 are compiled and the remainder is replicated analytically from
    /// round 1 — round 1 is the provably barrier-quiescent representative
    /// (round 0 may overlap whatever preceded the sequence). Round 1 is
    /// round 0's op sequence again whenever round 0 was stored and left
    /// every ion where it found it, so it is re-emitted from round 0
    /// ([`HardwareModel::reemit_ops`]) instead of routed afresh; only its
    /// times are scheduled anew. Replication reproduces the materialized
    /// schedule bit-for-bit; if the hardware model cannot prove the round
    /// replicable it falls back to materializing every round.
    pub fn syndrome_rounds(
        &mut self,
        hw: &mut HardwareModel,
        rounds: usize,
        ctx: impl Fn(u32) -> RoundLabel,
    ) -> Result<Vec<RoundRecord>, CoreError> {
        let mut out = Vec::with_capacity(rounds);
        if !(hw.round_templating() && rounds >= 3) {
            for r in 0..rounds {
                out.push(self.syndrome_round(hw, ctx(r as u32))?);
            }
            return Ok(out);
        }
        let (first_op, unstored) = (hw.circuit().len(), hw.unstored_ops());
        let positions = hw.grid().snapshot();
        out.push(self.syndrome_round(hw, ctx(0))?);
        let repeatable = hw.unstored_ops() == unstored && hw.grid().snapshot() == positions;
        hw.begin_round_capture();
        if repeatable {
            let shift = hw.reemit_ops(first_op..hw.circuit().len(), ctx(1));
            hw.barrier();
            let record = out[0].shifted(shift);
            self.latest_round = record.measurements.clone();
            out.push(record);
        } else {
            match self.syndrome_round(hw, ctx(1)) {
                Ok(record) => out.push(record),
                Err(e) => {
                    hw.cancel_round_capture();
                    return Err(e);
                }
            }
        }
        if let Some(info) = hw.replicate_captured_round(rounds - 2) {
            for r in 2..rounds {
                out.push(out[1].shifted((r - 1) * info.meas_per_round));
            }
            self.latest_round = out.last().expect("rounds >= 3").measurements.clone();
            return Ok(out);
        }
        for r in 2..rounds {
            out.push(self.syndrome_round(hw, ctx(r as u32))?);
        }
        Ok(out)
    }

    /// The `Idle` primitive: `dt` rounds of error correction
    /// (1 logical time-step).
    pub fn idle(&mut self, hw: &mut HardwareModel) -> Result<Vec<RoundRecord>, CoreError> {
        self.idle_rounds(hw, self.dt)
    }

    /// `rounds` rounds of error correction (round-templated when the
    /// hardware model enables it; see [`LogicalQubit::syndrome_rounds`]).
    pub fn idle_rounds(
        &mut self,
        hw: &mut HardwareModel,
        rounds: usize,
    ) -> Result<Vec<RoundRecord>, CoreError> {
        self.syndrome_rounds(hw, rounds, RoundLabel::Idle)
    }

    // ----- tracked operators --------------------------------------------------

    /// The tracked logical X operator resolved to ions.
    pub fn tracked_x(&self) -> Result<TrackedOperator, CoreError> {
        self.resolve_tracker(&self.logical_x)
    }

    /// The tracked logical Z operator resolved to ions.
    pub fn tracked_z(&self) -> Result<TrackedOperator, CoreError> {
        self.resolve_tracker(&self.logical_z)
    }

    /// The tracked logical Y operator resolved to ions.
    pub fn tracked_y(&self) -> Result<TrackedOperator, CoreError> {
        let support = self.logical_y_support();
        let mut resolved = Vec::with_capacity(support.len());
        for ((i, j), op) in support {
            resolved.push((self.data_ion(i, j)?, op));
        }
        let mut frame = self.logical_x.frame.clone();
        frame.extend_from_slice(&self.logical_z.frame);
        Ok(TrackedOperator {
            support: resolved,
            frame,
            invert: self.logical_x.invert ^ self.logical_z.invert,
        })
    }

    fn resolve_tracker(&self, tracker: &OperatorTracker) -> Result<TrackedOperator, CoreError> {
        let mut support = Vec::with_capacity(tracker.support.len());
        for &((i, j), op) in &tracker.support {
            support.push((self.data_ion(i, j)?, op));
        }
        Ok(TrackedOperator { support, frame: tracker.frame.clone(), invert: tracker.invert })
    }

    // ----- internal helpers ---------------------------------------------------

    pub(crate) fn reset_trackers(&mut self) {
        self.logical_x =
            OperatorTracker::new(logical_x_support(self.dx, self.dz, self.arrangement));
        self.logical_z =
            OperatorTracker::new(logical_z_support(self.dx, self.dz, self.arrangement));
        self.latest_round.clear();
    }

    pub(crate) fn require_initialized(&self, what: &str) -> Result<(), CoreError> {
        if self.initialized {
            Ok(())
        } else {
            Err(CoreError::InvalidState(format!("{what} requires an initialized tile")))
        }
    }

    /// Marks the tile uninitialized (used by surgery when a patch is consumed).
    pub(crate) fn mark_uninitialized(&mut self) {
        self.initialized = false;
    }

    /// True if `other`'s tile sits directly below this patch's tile.
    pub fn is_directly_above(&self, other: &LogicalQubit) -> bool {
        other.origin.0 == self.origin.0 + self.tile_rows() && other.origin.1 == self.origin.1
    }

    /// True if `other`'s tile sits directly to the right of this patch's tile.
    pub fn is_directly_left_of(&self, other: &LogicalQubit) -> bool {
        other.origin.1 == self.origin.1 + self.tile_cols() && other.origin.0 == self.origin.0
    }
}

fn combine(a: PauliOp, b: PauliOp) -> PauliOp {
    use PauliOp::*;
    match (a, b) {
        (I, x) | (x, I) => x,
        (X, X) | (Y, Y) | (Z, Z) => I,
        (X, Z) | (Z, X) => Y,
        (X, Y) | (Y, X) => Z,
        (Y, Z) | (Z, Y) => X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw_for(dx: usize, dz: usize) -> HardwareModel {
        HardwareModel::new(tile_rows(dz) * 2 + 2, tile_cols(dx) * 2 + 2)
    }

    #[test]
    fn construction_places_two_ions_per_unit() {
        let mut hw = hw_for(3, 3);
        let patch = LogicalQubit::new(&mut hw, 3, 3, 3, (0, 0)).unwrap();
        assert_eq!(patch.tile_rows(), 4);
        assert_eq!(patch.tile_cols(), 4);
        assert_eq!(hw.grid().qubit_count(), 2 * 16);
        assert!(!patch.is_initialized());
        assert_eq!(patch.stabilizers().len(), 8);
    }

    #[test]
    fn adjacent_patches_share_no_ions_but_reuse_is_possible() {
        let mut hw = hw_for(3, 3);
        let a = LogicalQubit::new(&mut hw, 3, 3, 3, (0, 0)).unwrap();
        let b = LogicalQubit::new(&mut hw, 3, 3, 3, (4, 0)).unwrap();
        assert!(a.is_directly_above(&b));
        assert!(!a.is_directly_left_of(&b));
        assert_eq!(hw.grid().qubit_count(), 2 * 16 * 2);
        // Rebinding over the same tile reuses the ions instead of placing new ones.
        let a2 = LogicalQubit::new(&mut hw, 3, 3, 3, (0, 0)).unwrap();
        assert_eq!(hw.grid().qubit_count(), 2 * 16 * 2);
        assert_eq!(a2.data_ion(1, 1).unwrap(), a.data_ion(1, 1).unwrap());
    }

    #[test]
    fn primitives_require_initialization() {
        let mut hw = hw_for(3, 3);
        let mut patch = LogicalQubit::new(&mut hw, 3, 3, 2, (0, 0)).unwrap();
        assert!(matches!(patch.syndrome_round(&mut hw, "r"), Err(CoreError::InvalidState(_))));
        assert!(matches!(patch.transversal_measure_z(&mut hw), Err(CoreError::InvalidState(_))));
        patch.transversal_prepare_z(&mut hw).unwrap();
        assert!(patch.is_initialized());
        patch.syndrome_round(&mut hw, "r").unwrap();
        assert_eq!(patch.latest_round().len(), 8);
    }

    #[test]
    fn hadamard_swaps_trackers_and_arrangement() {
        let mut hw = hw_for(3, 3);
        let mut patch = LogicalQubit::new(&mut hw, 3, 3, 2, (0, 0)).unwrap();
        patch.transversal_prepare_z(&mut hw).unwrap();
        let old_z: Vec<_> = patch.logical_z().support.iter().map(|&(c, _)| c).collect();
        patch.transversal_hadamard(&mut hw).unwrap();
        assert_eq!(patch.arrangement(), Arrangement::Rotated);
        let new_x: Vec<_> = patch.logical_x().support.iter().map(|&(c, _)| c).collect();
        assert_eq!(old_z, new_x, "logical X now lives on the old Z support");
        assert!(patch.logical_x().support.iter().all(|&(_, p)| p == PauliOp::X));
    }

    #[test]
    fn logical_y_support_has_y_at_the_corner() {
        let mut hw = hw_for(3, 3);
        let patch = LogicalQubit::new(&mut hw, 3, 3, 2, (0, 0)).unwrap();
        let y = patch.logical_y_support();
        assert!(y.contains(&((0, 0), PauliOp::Y)));
        assert_eq!(y.len(), 3 + 3 - 1);
    }

    #[test]
    fn transversal_measurement_outcome_covers_the_logical_support() {
        let mut hw = hw_for(3, 3);
        let mut patch = LogicalQubit::new(&mut hw, 3, 3, 2, (0, 0)).unwrap();
        patch.transversal_prepare_z(&mut hw).unwrap();
        let (spec, indices) = patch.transversal_measure_z(&mut hw).unwrap();
        assert_eq!(indices.len(), 9);
        assert_eq!(spec.parity_of.len(), 3, "Z_L support is one column of length dz");
        assert!(!patch.is_initialized());
    }

    #[test]
    fn cells_of_kind_partition_the_stabilizers() {
        let mut hw = hw_for(4, 3);
        let patch = LogicalQubit::new(&mut hw, 4, 3, 2, (0, 0)).unwrap();
        let x = patch.cells_of_kind(StabKind::X).len();
        let z = patch.cells_of_kind(StabKind::Z).len();
        assert_eq!(x + z, 4 * 3 - 1);
    }
}
