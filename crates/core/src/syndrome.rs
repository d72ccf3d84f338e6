//! Explicit syndrome-extraction circuits (paper Sec. 3.3, Fig. 6).
//!
//! Each plaquette is serviced by one mobile syndrome ion that starts from its
//! home (the vertical-arm memory zone of the plaquette's anchor unit), visits
//! each of its data qubits in the order given by the Z or N movement pattern,
//! performs a CNOT built from the native `(ZZ)_{π/4}` interaction at an
//! adjacent zone, returns home and is measured. Z-type stabilizers use the
//! Z pattern and X-type stabilizers the N pattern, with the roles swapped in
//! the rotated and flipped arrangements (where the logical operators change
//! direction).

use std::collections::HashMap;

use tiscc_grid::QubitId;
use tiscc_hw::{HardwareModel, Label, RoundLabel};

use crate::arrangement::Arrangement;
use crate::plaquette::{anchor_unit, approach_site, measure_home_site, Plaquette, StabKind};
use crate::CoreError;

/// The record of one round of syndrome extraction: for every measured cell,
/// the measurement index in the compiled circuit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// Cell → measurement index.
    pub measurements: HashMap<(i32, i32), usize>,
}

impl RoundRecord {
    /// Measurement index of the given cell, if it was measured this round.
    pub fn index_of(&self, cell: (i32, i32)) -> Option<usize> {
        self.measurements.get(&cell).copied()
    }

    /// The record of the same cells with every index moved by `by`: the
    /// record of a later round emitted `by` records after this one.
    pub(crate) fn shifted(&self, by: usize) -> RoundRecord {
        RoundRecord {
            measurements: self.measurements.iter().map(|(&cell, &idx)| (cell, idx + by)).collect(),
        }
    }
}

/// Everything the syndrome compiler needs to know about a (possibly merged)
/// patch: geometry, arrangement and ion bindings.
#[derive(Clone, Debug)]
pub struct PatchBinding {
    /// Tile origin in absolute unit coordinates.
    pub origin: (u32, u32),
    /// X distance (number of data columns).
    pub dx: usize,
    /// Z distance (number of data rows).
    pub dz: usize,
    /// Current stabilizer arrangement.
    pub arrangement: Arrangement,
    /// Data coordinate → ion.
    pub data_ions: HashMap<(usize, usize), QubitId>,
    /// Cell → syndrome ion.
    pub measure_ions: HashMap<(i32, i32), QubitId>,
    /// The stabilizer set.
    pub stabilizers: Vec<Plaquette>,
}

/// The visit order of the corner slots `[NW, NE, SW, SE]` for the two
/// measure-qubit movement patterns of Fig. 6.
pub fn pattern_order(kind: StabKind, arrangement: Arrangement) -> [usize; 4] {
    // Default rule: Z-type stabilizers use the Z pattern (NW, NE, SW, SE),
    // X-type use the N pattern (NW, SW, NE, SE). Swapped when the logical
    // operators have changed direction.
    let z_pattern = [0, 1, 2, 3];
    let n_pattern = [0, 2, 1, 3];
    let use_z = match kind {
        StabKind::Z => !arrangement.patterns_swapped(),
        StabKind::X => arrangement.patterns_swapped(),
    };
    if use_z {
        z_pattern
    } else {
        n_pattern
    }
}

/// Compiles one round of syndrome extraction over every stabilizer of the
/// binding. Returns the per-cell measurement indices. A hardware barrier is
/// inserted after the round so that consecutive rounds are cleanly separated
/// in time. Measurement labels are interned ([`Label::Syndrome`]) from the
/// round context — no string is formatted while compiling.
pub fn syndrome_round(
    hw: &mut HardwareModel,
    binding: &PatchBinding,
    label: RoundLabel,
) -> Result<RoundRecord, CoreError> {
    let mut record = RoundRecord::default();
    for plaq in &binding.stabilizers {
        let measure_ion = *binding.measure_ions.get(&plaq.cell).ok_or_else(|| {
            CoreError::MissingIon(format!("measure ion for cell {:?}", plaq.cell))
        })?;
        let home = measure_home_site(anchor_unit(binding.origin, binding.dz, plaq.cell));

        // Ancilla preparation: |0⟩ for Z-type, |+⟩ for X-type.
        match plaq.kind {
            StabKind::Z => hw.prepare_z(measure_ion)?,
            StabKind::X => hw.prepare_x(measure_ion)?,
        }

        // Visit the data qubits in pattern order.
        for slot in pattern_order(plaq.kind, binding.arrangement) {
            let Some(coord) = plaq.corners[slot] else { continue };
            let data_ion = *binding
                .data_ions
                .get(&coord)
                .ok_or_else(|| CoreError::MissingIon(format!("data ion at {coord:?}")))?;
            // Approach from the east if the data qubit sits on the cell's own
            // column, from the west if it sits on the column to the right.
            let east = coord.1 as i32 == plaq.cell.1;
            let site = approach_site(binding.origin, binding.dz, coord.0, coord.1, east);
            hw.route_and_move(measure_ion, site)?;
            match plaq.kind {
                StabKind::Z => hw.cnot(data_ion, measure_ion)?,
                StabKind::X => hw.cnot(measure_ion, data_ion)?,
            }
        }

        // Return home and read out.
        hw.route_and_move(measure_ion, home)?;
        let label = Label::Syndrome {
            round: label,
            x_type: plaq.kind == StabKind::X,
            row: plaq.cell.0,
            col: plaq.cell.1,
        };
        let idx = match plaq.kind {
            StabKind::Z => hw.measure_z(measure_ion, label)?,
            StabKind::X => hw.measure_x(measure_ion, label)?,
        };
        record.measurements.insert(plaq.cell, idx);
    }
    hw.barrier();
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_rule_default_and_swapped() {
        assert_eq!(pattern_order(StabKind::Z, Arrangement::Standard), [0, 1, 2, 3]);
        assert_eq!(pattern_order(StabKind::X, Arrangement::Standard), [0, 2, 1, 3]);
        // Rotated / flipped: swapped.
        assert_eq!(pattern_order(StabKind::Z, Arrangement::Rotated), [0, 2, 1, 3]);
        assert_eq!(pattern_order(StabKind::X, Arrangement::Flipped), [0, 1, 2, 3]);
        // Rotated-flipped: back to the default rule.
        assert_eq!(pattern_order(StabKind::Z, Arrangement::RotatedFlipped), [0, 1, 2, 3]);
    }

    #[test]
    fn round_record_lookup() {
        let mut r = RoundRecord::default();
        r.measurements.insert((0, 0), 7);
        assert_eq!(r.index_of((0, 0)), Some(7));
        assert_eq!(r.index_of((1, 0)), None);
    }
}
