//! 2D patch placement: logical qubits onto an H×W tile grid.
//!
//! The allocator assigns every logical qubit of a program one *tile* of a
//! rectangular tile grid; each tile hosts one distance-`d` surface-code
//! patch (`d × d` repeating units of the [`tiscc_grid::Layout`] substrate).
//! Tiles not hosting a patch are *ancilla tiles*: the free fabric that
//! lattice-surgery merge corridors are routed through (see
//! [`crate::route`]). Three placement strategies are available, selected by
//! a [`LayoutSpec`]:
//!
//! * [`LayoutStrategy::SingleLane`] (the default) — the original 1D
//!   floorplan: one data row of tiles in declaration order over one shared
//!   ancilla routing lane. Merges between horizontally adjacent qubits run
//!   directly on the shared boundary; everything else occupies the lane
//!   tiles spanning the operand columns. Estimates under this strategy are
//!   bit-for-bit identical to the pre-2D allocator.
//!
//!   ```text
//!   column:     0    1    2    3
//!   data row:  [q0] [q1] [q2] [q3]
//!   lane row:  [··] [··] [··] [··]   ← routing / merge ancilla lane
//!   ```
//!
//! * [`LayoutStrategy::RowMajor`] — a 2D grid whose even tile rows are
//!   data rows (filled left-to-right in declaration order) and whose odd
//!   rows are dedicated ancilla lanes. Every merge routes through a
//!   corridor of free tiles found by BFS; qubits packed shoulder-to-
//!   shoulder on a data row share the lane beneath them, so crossing
//!   merges contend ([`crate::schedule::Schedule::routing_stalls`]).
//!
//! * [`LayoutStrategy::Checkerboard`] — data and ancilla tiles
//!   interleaved: qubits occupy tiles whose row+column parity is even
//!   (row-major in declaration order), leaving every patch bordered by
//!   free tiles on all four sides. Neighbouring qubits merge through
//!   single-tile corridors that rarely overlap, so independent merges run
//!   in parallel.
//!
//! [`Placement::layout`] maps the tile grid onto the
//! [`tiscc_grid::Layout`] substrate: a distance-`d` tile occupies `d × d`
//! repeating units, so the machine for a placement is a
//! `(tile_rows·d) × (tile_cols·d)`-unit grid.

use std::fmt;
use std::ops::Range;

use tiscc_core::instruction::Instruction;
use tiscc_grid::{Layout, TileFrame};

use crate::ir::{LogicalProgram, ProgramInstruction, QubitRef};

/// The tile coordinate `(row, col)` of one logical patch or ancilla tile.
pub type Tile = (usize, usize);

/// The most tiles an explicit `--grid` may have: 2^24. The 2D scheduler
/// keeps about 13 bytes per tile (a reservation mark, the search's seen
/// stamp and predecessor, the occupancy flag), so this caps its per-tile
/// tables near 220 MB. Auto-sized grids grow with the program's declared
/// qubits and are not capped.
pub const MAX_GRID_TILES: usize = 1 << 24;

/// The tile row of the single-lane floorplan's shared routing lane.
pub const LANE_ROW: usize = 1;

/// How logical patches are arranged on the tile grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayoutStrategy {
    /// One data row over one shared ancilla lane (the legacy 1D floorplan;
    /// the default).
    SingleLane,
    /// Even tile rows are data rows, odd rows are ancilla routing lanes.
    RowMajor,
    /// Data on even-parity tiles, ancilla on odd-parity tiles.
    Checkerboard,
}

impl LayoutStrategy {
    /// The CLI name of the strategy (`lane`, `row`, `checkerboard`).
    pub fn name(&self) -> &'static str {
        match self {
            LayoutStrategy::SingleLane => "lane",
            LayoutStrategy::RowMajor => "row",
            LayoutStrategy::Checkerboard => "checkerboard",
        }
    }
}

/// What floorplan to allocate: a placement strategy plus an optional
/// explicit tile-grid size.
///
/// ```
/// use tiscc_program::{examples, LayoutSpec, Placement};
///
/// let program = examples::bell_pair();
/// // The default spec reproduces the legacy single-lane floorplan.
/// let lane = Placement::allocate_with(&program, &LayoutSpec::default()).unwrap();
/// assert_eq!((lane.tile_rows(), lane.tile_cols()), (2, 2));
///
/// // An 8×8 checkerboard spreads the patches over a 2D fabric.
/// let spec = LayoutSpec::checkerboard().with_grid(8, 8);
/// let board = Placement::allocate_with(&program, &spec).unwrap();
/// assert_eq!(board.total_tiles(), 64);
/// assert_eq!(board.data_tile(program.qubit("b").unwrap()), (0, 2));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayoutSpec {
    /// The placement strategy.
    pub strategy: LayoutStrategy,
    /// Explicit tile-grid dimensions `(rows, cols)`; `None` picks the
    /// smallest grid the strategy needs for the program.
    pub grid: Option<(usize, usize)>,
}

impl Default for LayoutSpec {
    /// The legacy single-lane floorplan on an auto-sized `2 × n` grid.
    fn default() -> Self {
        LayoutSpec { strategy: LayoutStrategy::SingleLane, grid: None }
    }
}

impl LayoutSpec {
    /// The default single-lane floorplan.
    pub fn single_lane() -> Self {
        LayoutSpec::default()
    }

    /// Row-major data rows interleaved with ancilla lane rows.
    pub fn row_major() -> Self {
        LayoutSpec { strategy: LayoutStrategy::RowMajor, grid: None }
    }

    /// Interleaved data/ancilla checkerboard.
    pub fn checkerboard() -> Self {
        LayoutSpec { strategy: LayoutStrategy::Checkerboard, grid: None }
    }

    /// Resolves a strategy by its CLI name (`lane`, `row`, `checkerboard`;
    /// case-insensitive).
    pub fn by_name(name: &str) -> Result<Self, PlacementError> {
        match name.to_ascii_lowercase().as_str() {
            "lane" | "single-lane" | "single_lane" => Ok(LayoutSpec::single_lane()),
            "row" | "row-major" | "row_major" => Ok(LayoutSpec::row_major()),
            "checkerboard" | "checker" => Ok(LayoutSpec::checkerboard()),
            other => Err(PlacementError::UnknownStrategy(other.to_string())),
        }
    }

    /// Sets an explicit tile-grid size of `rows × cols` tiles.
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Self {
        self.grid = Some((rows, cols));
        self
    }
}

/// Errors raised while placing a program onto a tile grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// The requested strategy name is not recognised.
    UnknownStrategy(String),
    /// A grid dimension was zero.
    EmptyGrid,
    /// An explicit grid has more than [`MAX_GRID_TILES`] tiles.
    GridTooLarge {
        /// Requested grid rows.
        rows: usize,
        /// Requested grid columns.
        cols: usize,
    },
    /// The grid has fewer data slots than the program has qubits.
    GridTooSmall {
        /// Declared logical qubits of the program.
        qubits: usize,
        /// Data slots the grid offers under the strategy.
        capacity: usize,
        /// Requested grid rows.
        rows: usize,
        /// Requested grid columns.
        cols: usize,
        /// The placement strategy.
        strategy: LayoutStrategy,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::UnknownStrategy(name) => {
                write!(f, "unknown layout '{name}' (expected lane, row or checkerboard)")
            }
            PlacementError::EmptyGrid => write!(f, "tile grid dimensions must be non-zero"),
            PlacementError::GridTooLarge { rows, cols } => write!(
                f,
                "a {rows}x{cols} grid exceeds the {MAX_GRID_TILES}-tile limit; use a smaller --grid"
            ),
            PlacementError::GridTooSmall { qubits, capacity, rows, cols, strategy } => write!(
                f,
                "a {rows}x{cols} grid holds {capacity} data patch(es) under the {} layout, \
                 but the program declares {qubits} logical qubit(s); use a larger --grid",
                strategy.name()
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A placement of a program's logical qubits onto the tile grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    tiles: Vec<Tile>,
    tile_rows: usize,
    tile_cols: usize,
    strategy: LayoutStrategy,
    frame: TileFrame,
    // Per tile slot ([`Placement::tile_slot`]): true where a patch sits or
    // the slot belongs to the frame around the grid.
    blocked: Vec<bool>,
}

impl Placement {
    /// Allocates the legacy single-lane floorplan for `program`: one
    /// data-row column per qubit in declaration order, plus the full-width
    /// routing lane beneath them. Never fails (the grid is auto-sized).
    pub fn allocate(program: &LogicalProgram) -> Placement {
        Placement::allocate_with(program, &LayoutSpec::default())
            .expect("auto-sized single-lane placement cannot fail")
    }

    /// Allocates tiles for every declared qubit of `program` under `spec`.
    ///
    /// Data slots are assigned in declaration order; the slot enumeration
    /// order is part of each strategy's contract (see the module docs).
    /// Fails when an explicit grid is too small for the program, has a
    /// zero dimension or has more than [`MAX_GRID_TILES`] tiles; all three
    /// are checked before anything is allocated for the grid.
    pub fn allocate_with(
        program: &LogicalProgram,
        spec: &LayoutSpec,
    ) -> Result<Placement, PlacementError> {
        let n = program.qubit_count();
        let (rows, cols) = match spec.grid {
            Some((r, c)) => {
                if r == 0 || c == 0 {
                    return Err(PlacementError::EmptyGrid);
                }
                if r.checked_mul(c).is_none_or(|tiles| tiles > MAX_GRID_TILES) {
                    return Err(PlacementError::GridTooLarge { rows: r, cols: c });
                }
                (r, c)
            }
            None => match spec.strategy {
                // The legacy shape: a data row over a lane row.
                LayoutStrategy::SingleLane | LayoutStrategy::RowMajor => (2, n.max(1)),
                // Qubits land on row 0 with a gap column between each pair.
                LayoutStrategy::Checkerboard => (2, (2 * n).max(1)),
            },
        };
        // Data slots the grid offers, in closed form.
        let capacity = match spec.strategy {
            // The single-lane 1D contract: data on row 0 only, and the grid
            // must actually include the lane row beneath it.
            LayoutStrategy::SingleLane if rows < 2 => 0,
            LayoutStrategy::SingleLane => cols,
            LayoutStrategy::RowMajor => rows.div_ceil(2) * cols,
            LayoutStrategy::Checkerboard => (rows * cols).div_ceil(2),
        };
        if capacity < n {
            return Err(PlacementError::GridTooSmall {
                qubits: n,
                capacity,
                rows,
                cols,
                strategy: spec.strategy,
            });
        }
        // Only the first n data slots are enumerated.
        let row_tiles = move |r: usize| (0..cols).map(move |c| (r, c));
        let tiles: Vec<Tile> = match spec.strategy {
            LayoutStrategy::SingleLane => row_tiles(0).take(n).collect(),
            LayoutStrategy::RowMajor => (0..rows).step_by(2).flat_map(row_tiles).take(n).collect(),
            LayoutStrategy::Checkerboard => {
                (0..rows).flat_map(row_tiles).filter(|&(r, c)| (r + c) % 2 == 0).take(n).collect()
            }
        };
        let frame = TileFrame::new(rows, cols);
        let mut blocked = vec![true; frame.slots()];
        for r in 0..rows {
            let start = frame.slot((r, 0)) as usize;
            blocked[start..start + cols].fill(false);
        }
        for &tile in &tiles {
            blocked[frame.slot(tile) as usize] = true;
        }
        Ok(Placement {
            tiles,
            tile_rows: rows,
            tile_cols: cols,
            strategy: spec.strategy,
            frame,
            blocked,
        })
    }

    /// The placement strategy this floorplan was allocated under.
    pub fn strategy(&self) -> LayoutStrategy {
        self.strategy
    }

    /// The data-row column of a qubit (single-lane floorplans place every
    /// qubit on row 0, so the column identifies the tile).
    pub fn column(&self, q: QubitRef) -> usize {
        self.tiles[q.0].1
    }

    /// The data tile of a qubit.
    pub fn data_tile(&self, q: QubitRef) -> Tile {
        self.tiles[q.0]
    }

    /// Tile rows of the placement.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Tile columns of the placement.
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// Number of data tiles (one per logical qubit).
    pub fn data_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Number of ancilla (routing) tiles: every tile not hosting a patch.
    pub fn lane_tiles(&self) -> usize {
        self.total_tiles() - self.data_tiles()
    }

    /// Total tiles of the grid, data and ancilla alike. Every tile
    /// undergoes error correction each logical time step, so this is the
    /// spatial factor of the error budget's patch-steps.
    pub fn total_tiles(&self) -> usize {
        self.tile_rows * self.tile_cols
    }

    /// True if `tile` hosts a logical patch.
    pub fn is_occupied(&self, tile: Tile) -> bool {
        self.in_bounds(tile) && self.blocked[self.tile_slot(tile) as usize]
    }

    /// The framed grid the placement's tiles are addressed in.
    pub(crate) fn frame(&self) -> TileFrame {
        self.frame
    }

    /// The slot of an in-grid tile in [`Placement::frame`]: what every
    /// per-tile table of the scheduler and the corridor search is
    /// addressed by.
    pub(crate) fn tile_slot(&self, tile: Tile) -> u32 {
        self.frame.slot(tile)
    }

    /// Per slot of [`Placement::frame`]: true where a patch sits or the
    /// slot belongs to the frame, so no corridor may enter it.
    pub(crate) fn blocked_slots(&self) -> &[bool] {
        &self.blocked
    }

    /// True if `tile` lies on the grid.
    pub fn in_bounds(&self, tile: Tile) -> bool {
        tile.0 < self.tile_rows && tile.1 < self.tile_cols
    }

    /// Whether a joint measurement runs directly on a shared patch
    /// boundary, without an ancilla corridor. Only the single-lane
    /// strategy has direct merges (a `Measure ZZ` between horizontally
    /// adjacent columns); 2D strategies route every merge through a
    /// corridor found by [`crate::route::find_corridor`].
    pub fn is_direct_merge(&self, pi: &ProgramInstruction) -> bool {
        if self.strategy != LayoutStrategy::SingleLane {
            return false;
        }
        match *pi.qubits {
            [a, b] => {
                pi.instruction == Instruction::MeasureZZ
                    && self.column(a).abs_diff(self.column(b)) == 1
            }
            _ => false,
        }
    }

    /// The shared-lane columns a routed single-lane merge occupies: every
    /// column spanned by the operands, on the lane row [`LANE_ROW`]. Empty
    /// for single-qubit instructions, direct merges and 2D strategies.
    pub fn lane_span(&self, pi: &ProgramInstruction) -> Range<usize> {
        match *pi.qubits {
            [a, b] if self.strategy == LayoutStrategy::SingleLane && !self.is_direct_merge(pi) => {
                let (ca, cb) = (self.column(a), self.column(b));
                ca.min(cb)..ca.max(cb) + 1
            }
            _ => 0..0,
        }
    }

    /// The trapped-ion grid hosting this placement at code distance `d`:
    /// every tile is `d × d` repeating units (one unit per surface-code
    /// qubit site, as in the per-instruction fixtures).
    pub fn layout(&self, d: usize) -> Layout {
        let d = d.max(1) as u32;
        Layout::new(self.tile_rows as u32 * d, self.tile_cols as u32 * d)
    }

    /// ASCII rendering of the floorplan: one cell per tile, data tiles
    /// labelled with the (possibly truncated) qubit name, ancilla tiles
    /// shown as `··`. This is what `tiscc estimate --show-layout` prints.
    pub fn render_ascii(&self, program: &LogicalProgram) -> String {
        let width = self
            .tiles
            .iter()
            .enumerate()
            .map(|(i, _)| program.qubit_name(QubitRef(i)).chars().count())
            .max()
            .unwrap_or(1)
            .clamp(2, 8);
        let mut by_tile = vec![None; self.frame.slots()];
        for (i, &tile) in self.tiles.iter().enumerate() {
            by_tile[self.tile_slot(tile) as usize] = Some(QubitRef(i));
        }
        let mut out = format!(
            "floorplan: {} layout on {}x{} tiles ({} patch(es), {} ancilla tile(s))\n",
            self.strategy.name(),
            self.tile_rows,
            self.tile_cols,
            self.data_tiles(),
            self.lane_tiles()
        );
        for r in 0..self.tile_rows {
            out.push_str("  ");
            for c in 0..self.tile_cols {
                let cell = match by_tile[self.tile_slot((r, c)) as usize] {
                    Some(q) => {
                        let name: String = program.qubit_name(q).chars().take(width).collect();
                        format!("{name:<width$}")
                    }
                    None => {
                        let dots = "··";
                        format!("{dots:<width$}")
                    }
                };
                out.push_str(&cell);
                if c + 1 < self.tile_cols {
                    out.push(' ');
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn qubits_get_declaration_order_columns() {
        let p = examples::teleportation();
        let place = Placement::allocate(&p);
        assert_eq!(place.tile_cols(), 3);
        assert_eq!(place.total_tiles(), 6);
        assert_eq!(place.strategy(), LayoutStrategy::SingleLane);
        for (i, name) in ["src", "anc", "dst"].iter().enumerate() {
            let q = p.qubit(name).unwrap();
            assert_eq!(place.data_tile(q), (0, i));
        }
    }

    #[test]
    fn lane_spans_distinguish_direct_and_routed_merges() {
        let p = examples::teleportation();
        let place = Placement::allocate(&p);
        let instrs = p.instructions();
        // merge_zz anc dst: columns 1 and 2 are adjacent → direct merge.
        let zz = &instrs[3];
        assert_eq!(zz.instruction, Instruction::MeasureZZ);
        assert!(place.is_direct_merge(zz));
        assert!(place.lane_span(zz).is_empty());
        // merge_xx src anc: XX needs a vertical boundary → routed through
        // the lane under columns 0..=1.
        let xx = &instrs[4];
        assert_eq!(xx.instruction, Instruction::MeasureXX);
        assert_eq!(place.lane_span(xx), 0..2);
        // Single-qubit instructions use no lane.
        assert!(place.lane_span(&instrs[0]).is_empty());
    }

    #[test]
    fn layout_scales_with_distance_and_tile_grid() {
        let p = examples::bell_pair();
        let place = Placement::allocate(&p);
        let layout = place.layout(3);
        assert_eq!(layout.unit_rows(), 2 * 3);
        assert_eq!(layout.unit_cols(), 2 * 3);
        // 6 trapping zones per unit (tiscc_grid invariant).
        assert_eq!(layout.trapping_zone_count(), 6 * 36);
    }

    #[test]
    fn row_major_fills_even_rows_left_to_right() {
        let p = examples::adder_t_layer(4); // 8 qubits
                                            // Rows 0 and 2 of a 4×3 grid hold 3 qubits each: capacity 6 < 8.
        assert!(matches!(
            Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(4, 3)),
            Err(PlacementError::GridTooSmall { capacity: 6, .. })
        ));
        // A 4×4 grid has capacity 8 (rows 0 and 2).
        let place = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(4, 4)).unwrap();
        assert_eq!(place.data_tile(QubitRef(0)), (0, 0));
        assert_eq!(place.data_tile(QubitRef(3)), (0, 3));
        assert_eq!(place.data_tile(QubitRef(4)), (2, 0));
        assert_eq!(place.data_tile(QubitRef(7)), (2, 3));
        assert_eq!(place.lane_tiles(), 8);
    }

    #[test]
    fn checkerboard_places_on_even_parity_tiles() {
        let p = examples::adder_t_layer(4); // 8 qubits
        let spec = LayoutSpec::checkerboard().with_grid(8, 8);
        let place = Placement::allocate_with(&p, &spec).unwrap();
        assert_eq!(place.data_tile(QubitRef(0)), (0, 0));
        assert_eq!(place.data_tile(QubitRef(3)), (0, 6));
        assert_eq!(place.data_tile(QubitRef(4)), (1, 1));
        assert_eq!(place.data_tile(QubitRef(7)), (1, 7));
        for i in 0..8 {
            let (r, c) = place.data_tile(QubitRef(i));
            assert_eq!((r + c) % 2, 0, "qubit {i} on odd-parity tile");
        }
        // Every patch in a checkerboard has at least one free neighbour.
        assert!(!place.is_occupied((0, 1)));
        assert!(!place.is_occupied((1, 0)));
        // 2D strategies never merge directly.
        let merge = &p.instructions()[8];
        assert_eq!(merge.instruction, Instruction::MeasureZZ);
        assert!(!place.is_direct_merge(merge));
        assert!(place.lane_span(merge).is_empty());
    }

    #[test]
    fn bad_specs_are_rejected_with_typed_errors() {
        let p = examples::bell_pair();
        assert_eq!(
            Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(0, 4)),
            Err(PlacementError::EmptyGrid)
        );
        assert!(matches!(
            Placement::allocate_with(&p, &LayoutSpec::checkerboard().with_grid(1, 2)),
            Err(PlacementError::GridTooSmall { .. })
        ));
        assert!(matches!(
            LayoutSpec::by_name("hexagonal"),
            Err(PlacementError::UnknownStrategy(_))
        ));
        assert_eq!(LayoutSpec::by_name("ROW").unwrap(), LayoutSpec::row_major());
        assert_eq!(LayoutSpec::by_name("lane").unwrap(), LayoutSpec::single_lane());
        let err = Placement::allocate_with(&p, &LayoutSpec::checkerboard().with_grid(1, 2))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--grid"), "{err}");
    }

    /// An explicit grid over the tile cap is rejected before anything is
    /// allocated for it, however its size was meant to overflow.
    #[test]
    fn oversized_grids_are_rejected_before_allocating() {
        let p = examples::bell_pair();
        for (rows, cols) in
            [(4097, 4096), (100_000, 100_000), (1 << 32, 1 << 32), (2, usize::MAX), (usize::MAX, 3)]
        {
            for spec in
                [LayoutSpec::single_lane(), LayoutSpec::row_major(), LayoutSpec::checkerboard()]
            {
                let err = Placement::allocate_with(&p, &spec.with_grid(rows, cols)).unwrap_err();
                assert_eq!(err, PlacementError::GridTooLarge { rows, cols });
                let message = err.to_string();
                assert!(message.contains("--grid"), "{message}");
                assert!(message.contains(&format!("{rows}x{cols}")), "{message}");
            }
        }
        // The cap itself is allowed.
        let spec = LayoutSpec::checkerboard().with_grid(1 << 12, 1 << 12);
        assert_eq!(Placement::allocate_with(&p, &spec).unwrap().total_tiles(), MAX_GRID_TILES);
    }

    /// The closed-form capacity agrees with counting each strategy's data
    /// slots, so a grid that fits exactly is accepted and one short of it
    /// is not.
    #[test]
    fn capacity_is_exact_for_every_strategy() {
        for rows in 1..6 {
            for cols in 1..6 {
                let count = |strategy: LayoutStrategy| -> usize {
                    (0..rows)
                        .flat_map(|r| (0..cols).map(move |c| (r, c)))
                        .filter(|&(r, c)| match strategy {
                            LayoutStrategy::SingleLane => rows >= 2 && r == 0,
                            LayoutStrategy::RowMajor => r % 2 == 0,
                            LayoutStrategy::Checkerboard => (r + c) % 2 == 0,
                        })
                        .count()
                };
                for spec in
                    [LayoutSpec::single_lane(), LayoutSpec::row_major(), LayoutSpec::checkerboard()]
                {
                    let spec = spec.with_grid(rows, cols);
                    let capacity = count(spec.strategy);
                    let mut p = LogicalProgram::new("fill");
                    for i in 0..=capacity {
                        if i == capacity {
                            assert!(Placement::allocate_with(&p, &spec).is_ok(), "{spec:?}");
                        }
                        p.add_qubit(format!("q{i}")).unwrap();
                    }
                    assert_eq!(
                        Placement::allocate_with(&p, &spec),
                        Err(PlacementError::GridTooSmall {
                            qubits: capacity + 1,
                            capacity,
                            rows,
                            cols,
                            strategy: spec.strategy
                        }),
                    );
                }
            }
        }
    }

    #[test]
    fn floorplan_render_shows_patches_and_ancillas() {
        let p = examples::bell_pair();
        let place =
            Placement::allocate_with(&p, &LayoutSpec::checkerboard().with_grid(2, 4)).unwrap();
        let art = place.render_ascii(&p);
        assert!(art.contains("checkerboard layout on 2x4 tiles"));
        assert!(art.contains('a') && art.contains('b'));
        assert!(art.contains("··"));
    }
}
