//! Operator movement and deformation tracking (paper Secs. 2.5 and 4.5).
//!
//! A logical operator representative can be multiplied by stabilizers without
//! changing the encoded observable — but the *sign* of the new representative
//! relative to the old one is the product of the measured stabilizer values,
//! which must be folded into the Pauli frame. TISCC exposes this as operator
//! movement: "one can specify a logical operator and a number of rows or
//! columns to shift and it returns all of the qsites corresponding with the
//! stabilizer measurements needed to deform the operator". The same machinery
//! provides the sign corrections of lattice-surgery outcomes and of patch
//! contraction.

use tiscc_math::{F2Matrix, Pauli, PauliOp};

use crate::patch::LogicalQubit;
use crate::plaquette::{Plaquette, StabKind};
use crate::CoreError;

/// Builds the Pauli operator (over an `nrows × ncols` data-coordinate index
/// space) described by a sparse support of `(coordinate, label)` pairs.
pub fn support_pauli(nrows: usize, ncols: usize, support: &[((usize, usize), PauliOp)]) -> Pauli {
    let sparse: Vec<(usize, PauliOp)> =
        support.iter().map(|&((i, j), p)| (i * ncols + j, p)).collect();
    Pauli::from_sparse(nrows * ncols, &sparse)
}

/// The Pauli operator measured by a plaquette, over the same index space.
pub fn plaquette_pauli(nrows: usize, ncols: usize, plaquette: &Plaquette) -> Pauli {
    let support: Vec<((usize, usize), PauliOp)> =
        plaquette.data_coords().into_iter().map(|c| (c, plaquette.kind.pauli())).collect();
    support_pauli(nrows, ncols, &support)
}

/// Finds a subset of the given plaquettes whose product equals `target`
/// (up to sign). Returns the cells of the participating plaquettes, or `None`
/// if the target is not in the group they generate.
pub fn combination_for_target(
    nrows: usize,
    ncols: usize,
    candidates: &[&Plaquette],
    target: &Pauli,
) -> Option<Vec<(i32, i32)>> {
    let mut matrix = F2Matrix::new(2 * nrows * ncols);
    for p in candidates {
        matrix.push_row(plaquette_pauli(nrows, ncols, p).symplectic());
    }
    let combo = matrix.solve_combination(&target.symplectic())?;
    Some(combo.into_iter().map(|i| candidates[i].cell).collect())
}

/// Finds the stabilizer cells whose product moves the operator supported on
/// `from` to the operator supported on `to` (both must be representatives of
/// the same logical operator, differing by a stabilizer product).
pub fn movement_combination(
    nrows: usize,
    ncols: usize,
    stabilizers: &[Plaquette],
    kind: StabKind,
    from: &[((usize, usize), PauliOp)],
    to: &[((usize, usize), PauliOp)],
) -> Option<Vec<(i32, i32)>> {
    let mut target = support_pauli(nrows, ncols, from);
    target.mul_assign(&support_pauli(nrows, ncols, to));
    let candidates: Vec<&Plaquette> = stabilizers.iter().filter(|p| p.kind == kind).collect();
    combination_for_target(nrows, ncols, &candidates, &target)
}

/// Moves a patch's logical X representative to the given data row (for
/// arrangements where logical X runs horizontally). The sign change is
/// recorded in the operator's Pauli frame using the latest syndrome-round
/// measurement indices of the stabilizers involved.
pub fn move_logical_x_to_row(patch: &mut LogicalQubit, row: usize) -> Result<(), CoreError> {
    let dx = patch.dx();
    let new_support: Vec<((usize, usize), PauliOp)> =
        (0..dx).map(|j| ((row, j), PauliOp::X)).collect();
    move_tracker(patch, StabKind::X, new_support)
}

fn move_tracker(
    patch: &mut LogicalQubit,
    kind: StabKind,
    new_support: Vec<((usize, usize), PauliOp)>,
) -> Result<(), CoreError> {
    let dx = patch.dx();
    let dz = patch.dz();
    let old_support = match kind {
        StabKind::X => patch.logical_x.support.clone(),
        StabKind::Z => patch.logical_z.support.clone(),
    };
    if old_support == new_support {
        return Ok(());
    }
    let cells = movement_combination(dz, dx, patch.stabilizers(), kind, &old_support, &new_support)
        .ok_or_else(|| {
            CoreError::NoDeformationPath(format!(
                "no {kind:?} stabilizer product connects the supports"
            ))
        })?;
    let mut frame_add = Vec::with_capacity(cells.len());
    for cell in cells {
        let idx = patch.latest_round().get(&cell).copied().ok_or_else(|| {
            CoreError::NoDeformationPath(format!(
                "stabilizer {cell:?} has no fresh measurement; run a round of error correction first"
            ))
        })?;
        frame_add.push(idx);
    }
    let tracker = match kind {
        StabKind::X => &mut patch.logical_x,
        StabKind::Z => &mut patch.logical_z,
    };
    tracker.support = new_support;
    tracker.frame.extend(frame_add);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::Arrangement;
    use crate::plaquette::build_stabilizers;

    #[test]
    fn moving_a_logical_row_uses_only_x_stabilizers() {
        let stabs = build_stabilizers(3, 3, Arrangement::Standard);
        let from: Vec<_> = (0..3).map(|j| ((0usize, j), PauliOp::X)).collect();
        let to: Vec<_> = (0..3).map(|j| ((2usize, j), PauliOp::X)).collect();
        let cells = movement_combination(3, 3, &stabs, StabKind::X, &from, &to).expect("movable");
        // Moving the top row to the bottom row of a d=3 patch uses every
        // X-type stabilizer exactly once (4 of them).
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let p = stabs.iter().find(|p| p.cell == *cell).unwrap();
            assert_eq!(p.kind, StabKind::X);
        }
    }

    #[test]
    fn unreachable_targets_are_rejected() {
        let stabs = build_stabilizers(3, 3, Arrangement::Standard);
        // An X row cannot be turned into an X column by X stabilizers alone.
        let from: Vec<_> = (0..3).map(|j| ((0usize, j), PauliOp::X)).collect();
        let to: Vec<_> = (0..3).map(|i| ((i, 0usize), PauliOp::X)).collect();
        assert!(movement_combination(3, 3, &stabs, StabKind::X, &from, &to).is_none());
    }

    #[test]
    fn combination_for_single_stabilizer_is_itself() {
        let stabs = build_stabilizers(3, 3, Arrangement::Standard);
        let candidates: Vec<&Plaquette> = stabs.iter().collect();
        let target = plaquette_pauli(3, 3, &stabs[0]);
        let combo = combination_for_target(3, 3, &candidates, &target).unwrap();
        assert_eq!(combo, vec![stabs[0].cell]);
    }
}
