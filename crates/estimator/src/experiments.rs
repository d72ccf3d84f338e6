//! Figure-level reports: the stabilizer arrangements over the grid (Figs. 1–2),
//! operator movement / deformation tracking (Fig. 3 context), translation by
//! ion movement (Fig. 4) and the syndrome-extraction movement patterns (Fig. 6).

use tiscc_core::deform::movement_combination;
use tiscc_core::plaquette::{build_stabilizers, logical_x_support, logical_z_support};
use tiscc_core::syndrome::pattern_order;
use tiscc_core::translate::move_right_then_swap_left;
use tiscc_core::{Arrangement, CoreError, StabKind};
use tiscc_grid::Layout;
use tiscc_hw::ResourceReport;
use tiscc_math::PauliOp;

use crate::verify::{Fiducial, SingleTile};

/// Fig. 1 / Fig. 2: ASCII rendering of the four canonical arrangements of a
/// `dx × dz` patch, showing the M/O/J grid of one tile and the stabilizer
/// types per cell.
pub fn arrangements_report(dx: usize, dz: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("Logical tile for dx={dx}, dz={dz}: "));
    out.push_str(&format!(
        "{} x {} units ({} strip row(s) above, {} strip column(s) right)\n\n",
        tiscc_core::plaquette::tile_rows(dz),
        tiscc_core::plaquette::tile_cols(dx),
        tiscc_core::plaquette::row_offset(dz),
        tiscc_core::plaquette::col_strip(dx),
    ));
    let layout =
        Layout::new(tiscc_core::plaquette::tile_rows(dz), tiscc_core::plaquette::tile_cols(dx));
    out.push_str("Hardware sites of one tile (J junction, O operation, M memory):\n");
    out.push_str(&layout.render_ascii());
    out.push('\n');
    for arrangement in Arrangement::all() {
        out.push_str(&format!("{arrangement:?} arrangement:\n"));
        let stabs = build_stabilizers(dx, dz, arrangement);
        for r in -1..dz as i32 {
            let mut line = String::new();
            for c in -1..dx as i32 {
                let ch = stabs
                    .iter()
                    .find(|p| p.cell == (r, c))
                    .map(|p| match p.kind {
                        StabKind::X => 'X',
                        StabKind::Z => 'Z',
                    })
                    .unwrap_or('.');
                line.push(ch);
                line.push(' ');
            }
            out.push_str(&line);
            out.push('\n');
        }
        let lx = logical_x_support(dx, dz, arrangement);
        let lz = logical_z_support(dx, dz, arrangement);
        out.push_str(&format!(
            "  X_L weight {} ({}), Z_L weight {} ({})\n\n",
            lx.len(),
            if arrangement.logical_z_vertical() { "horizontal" } else { "vertical" },
            lz.len(),
            if arrangement.logical_z_vertical() { "vertical" } else { "horizontal" },
        ));
    }
    out
}

/// Fig. 3 context: the corner/operator-movement machinery. Reports, for a
/// `d × d` patch, the stabilizer cells whose measurement moves the default
/// logical operators to the opposite edge (the deformation tracked during
/// Flip Patch), for each arrangement.
pub fn operator_movement_report(d: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("Operator movement on a {d}x{d} patch (Sec. 2.5/4.5):\n"));
    for arrangement in [Arrangement::Standard, Arrangement::Rotated] {
        let stabs = build_stabilizers(d, d, arrangement);
        let from_x = logical_x_support(d, d, arrangement);
        let to_x: Vec<((usize, usize), PauliOp)> =
            from_x
                .iter()
                .map(|&((i, j), p)| {
                    if arrangement.logical_z_vertical() {
                        ((d - 1, j), p)
                    } else {
                        ((i, d - 1), p)
                    }
                })
                .collect();
        let cells = movement_combination(d, d, &stabs, StabKind::X, &from_x, &to_x);
        out.push_str(&format!(
            "  {arrangement:?}: moving X_L to the opposite edge measures {} X-type stabilizers: {:?}\n",
            cells.as_ref().map(|c| c.len()).unwrap_or(0),
            cells.unwrap_or_default(),
        ));
    }
    out
}

/// Fig. 4: resources of the `Move Right` + `Swap Left` translation pair
/// (pure ion movement, verified to be the identity on the encoded state).
pub fn translation_report(d: usize) -> Result<(String, ResourceReport), CoreError> {
    let mut fixture = SingleTile::new(d, d, 1)?;
    Fiducial::Plus.prepare(&mut fixture.hw, &mut fixture.patch)?;
    let before = fixture.hw.circuit().len();
    let transport_ops = move_right_then_swap_left(&mut fixture.hw, &mut fixture.patch)?;
    let ops: Vec<_> = fixture.hw.circuit().ops()[before..].to_vec();
    let report = ResourceReport::from_stream_with_spec(
        &tiscc_hw::Circuit::from_ops(ops),
        fixture.hw.grid().layout(),
        fixture.hw.spec(),
    );
    let text = format!(
        "Move Right + Swap Left at d={d}: {} transport operations, {:.6} s, {} junction(s) traversed\n",
        transport_ops, report.execution_time_s, report.junctions
    );
    Ok((text, report))
}

/// Fig. 6: the Z and N measure-qubit movement patterns, listed per stabilizer
/// type and arrangement.
pub fn patterns_report() -> String {
    let slot_name = |s: usize| ["NW", "NE", "SW", "SE"][s];
    let mut out = String::from("Measure-qubit movement patterns (Fig. 6):\n");
    for arrangement in Arrangement::all() {
        for kind in [StabKind::Z, StabKind::X] {
            let order = pattern_order(kind, arrangement);
            let named: Vec<&str> = order.iter().map(|&s| slot_name(s)).collect();
            let pattern = if order == [0, 1, 2, 3] { "Z pattern" } else { "N pattern" };
            out.push_str(&format!(
                "  {arrangement:?} {kind:?}-type: {} ({})\n",
                named.join(" -> "),
                pattern
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrangements_report_mentions_all_four() {
        let r = arrangements_report(3, 3);
        for name in ["Standard", "Rotated", "Flipped", "RotatedFlipped"] {
            assert!(r.contains(name), "missing {name}");
        }
        assert!(r.contains('J') && r.contains('O') && r.contains('M'));
    }

    #[test]
    fn patterns_report_contains_both_patterns() {
        let r = patterns_report();
        assert!(r.contains("Z pattern"));
        assert!(r.contains("N pattern"));
        assert!(r.contains("NW -> SW -> NE -> SE"));
    }

    #[test]
    fn operator_movement_report_finds_combinations() {
        let r = operator_movement_report(3);
        assert!(r.contains("4 X-type stabilizers"));
    }
}
