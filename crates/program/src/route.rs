//! Congestion-aware corridor routing for lattice-surgery merges.
//!
//! On the 2D layouts ([`LayoutStrategy::RowMajor`] and
//! [`LayoutStrategy::Checkerboard`]) a joint `Measure XX`/`Measure ZZ`
//! between two placed patches is mediated by a *corridor*: a connected
//! path of ancilla tiles whose first tile touches one operand patch and
//! whose last tile touches the other. The merge ancilla patch is grown
//! along the corridor, joint syndrome extraction runs for one logical
//! time step, and the corridor is released.
//!
//! Corridors are found with the deterministic multi-source BFS of
//! [`tiscc_grid::TileSearch`] over the tile grid: passable tiles are those
//! not hosting a logical patch and not *reserved* by another merge in the
//! same logical time step. The scheduler keeps those per-timestep
//! reservations in a [`Reservations`] table of tile-slot lists, which also
//! owns the one search every probe reuses — two merges whose corridors are
//! disjoint execute in the same step, while a merge that cannot find a
//! free corridor at its ready step *stalls* to a later one (counted as
//! [`crate::schedule::Schedule::routing_stalls`]).
//!
//! A merge whose operands cannot be connected even on an otherwise empty
//! grid (every candidate corridor blocked by placed patches or the grid
//! boundary) is a typed [`RoutingError`] — the program is unroutable
//! under that floorplan, and a different [`crate::LayoutSpec`] is needed.
//!
//! [`LayoutStrategy::RowMajor`]: crate::layout2d::LayoutStrategy::RowMajor
//! [`LayoutStrategy::Checkerboard`]: crate::layout2d::LayoutStrategy::Checkerboard

use std::fmt;

use tiscc_core::instruction::Instruction;
use tiscc_grid::TileSearch;

use crate::ir::{LogicalProgram, QubitRef};
use crate::layout2d::{Placement, Tile};

/// A merge between two patches that no corridor can serve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingError {
    /// The joint measurement that could not be routed, when known — the
    /// scheduler fills it in; static probes ([`find_corridor`]) have no
    /// instruction context and leave it `None`.
    pub instruction: Option<Instruction>,
    /// Name of the first operand qubit.
    pub a: String,
    /// Tile of the first operand qubit.
    pub a_tile: Tile,
    /// Name of the second operand qubit.
    pub b: String,
    /// Tile of the second operand qubit.
    pub b_tile: Tile,
    /// 1-based `.tql` source line of the merge, when known.
    pub line: Option<usize>,
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no ancilla corridor connects '{}' at ({}, {}) with '{}' at ({}, {}) for {}{}; \
             the floorplan is unroutable — use a larger --grid or a different --layout",
            self.a,
            self.a_tile.0,
            self.a_tile.1,
            self.b,
            self.b_tile.0,
            self.b_tile.1,
            match self.instruction {
                Some(instruction) => instruction.id(),
                None => "a joint measurement",
            },
            match self.line {
                Some(n) => format!(" (line {n})"),
                None => String::new(),
            }
        )
    }
}

impl std::error::Error for RoutingError {}

/// Per-timestep corridor reservations on one placement, and the corridor
/// search that probes them.
///
/// Each step keeps one list of the tile slots its merges' corridors
/// claimed (the `u32` slots of the placement's framed grid,
/// [`TileFrame`](tiscc_grid::TileFrame)), so the table's memory is
/// proportional to the reserved tiles, not to steps × grid. The table
/// grows on demand; steps never reserved are free.
///
/// [`Reservations::corridor`] probes one step. It stamps that step's list
/// into an epoch mask over the slots of that frame, then runs one reused
/// [`TileSearch`] through the unstamped slots. The placement's patches
/// and the frame are folded into the same mask: their slots hold
/// `u32::MAX`, above every epoch, so a slot is passable exactly when its
/// mark is below the current epoch — one load per neighbour. Lists only
/// grow, so a probe of the step stamped last stamps only the slots
/// reserved since; a probe of any other step moves to a fresh epoch, which
/// releases the old stamps without clearing them.
///
/// ```
/// use tiscc_program::route::Reservations;
/// use tiscc_program::{LayoutSpec, LogicalProgram, Placement};
///
/// let mut program = LogicalProgram::new("pair");
/// let a = program.add_qubit("a").unwrap();
/// let b = program.add_qubit("b").unwrap();
/// // Row layout on 2 × 3 tiles: a and b on row 0, the lane row beneath.
/// let place =
///     Placement::allocate_with(&program, &LayoutSpec::row_major().with_grid(2, 3)).unwrap();
/// let mut res = Reservations::new(&place);
/// assert_eq!(res.corridor(a, b, 2), Some(vec![(1, 0), (1, 1)]));
/// res.reserve(2, &[(1, 1)]);
/// assert_eq!(res.reserved_at(2), 1);
/// assert_eq!(res.corridor(a, b, 2), None, "the lane under b is taken at step 2");
/// assert!(res.corridor(a, b, 1).is_some(), "reservations are per-step");
/// ```
#[derive(Clone, Debug)]
pub struct Reservations<'p> {
    placement: &'p Placement,
    steps: Vec<Vec<u32>>,
    search: TileSearch,
    // Per slot: `BLOCKED` where a patch or the frame sits, otherwise the
    // epoch that last stamped it as reserved (0 if none).
    mask: Vec<u32>,
    // Always below `BLOCKED`.
    epoch: u32,
    // The step the current epoch stamps, and how many of its slots.
    stamped: Option<(usize, usize)>,
}

/// The mask mark of a slot no corridor may enter: above every epoch.
const BLOCKED: u32 = u32::MAX;

impl<'p> Reservations<'p> {
    /// An empty reservation table for `placement`.
    pub fn new(placement: &'p Placement) -> Self {
        let mask = placement.blocked_slots().iter().map(|&b| if b { BLOCKED } else { 0 }).collect();
        Reservations {
            placement,
            steps: Vec::new(),
            search: TileSearch::new(),
            mask,
            epoch: 0,
            stamped: None,
        }
    }

    /// Reserves the `tiles` of a corridor at `step`.
    pub fn reserve(&mut self, step: usize, tiles: &[Tile]) {
        if self.steps.len() <= step {
            self.steps.resize_with(step + 1, Vec::new);
        }
        self.steps[step].extend(tiles.iter().map(|&t| self.placement.tile_slot(t)));
    }

    /// Number of tiles reserved at `step`.
    pub fn reserved_at(&self, step: usize) -> usize {
        self.steps.get(step).map_or(0, Vec::len)
    }

    /// Finds the shortest ancilla corridor connecting the patches of `a`
    /// and `b` at `step`, avoiding the placed patches and the tiles
    /// reserved at that step. Returns the corridor tiles in order from the
    /// tile touching `a` to the tile touching `b`, or `None` when no
    /// corridor is free at `step`.
    pub fn corridor(&mut self, a: QubitRef, b: QubitRef, step: usize) -> Option<Vec<Tile>> {
        let placement = self.placement;
        let (sources, source_count) = self.free_neighbors(placement.data_tile(a));
        let (goals, goal_count) = self.free_neighbors(placement.data_tile(b));
        let (sources, goals) = (&sources[..source_count], &goals[..goal_count]);
        self.stamp(step);
        let (mask, epoch) = (&self.mask, self.epoch);
        let passable = |slot: u32| mask[slot as usize] < epoch;
        // With every goal reserved the search could only fail.
        if sources.is_empty() || !goals.iter().any(|&slot| passable(slot)) {
            return None;
        }
        self.search.shortest_path(
            placement.frame(),
            sources,
            |slot| goals.contains(&slot),
            passable,
        )
    }

    /// Makes the mask hold exactly the slots reserved at `step`, on top of
    /// the blocked ones.
    fn stamp(&mut self, step: usize) {
        let reserved = self.steps.get(step).map_or(&[][..], Vec::as_slice);
        let fresh = match self.stamped {
            Some((stamped, count)) if stamped == step => &reserved[count..],
            _ => {
                self.epoch += 1;
                if self.epoch == BLOCKED {
                    // The epochs ran out: release every stamp once, keeping
                    // the blocked slots blocked.
                    for mark in self.mask.iter_mut().filter(|mark| **mark != BLOCKED) {
                        *mark = 0;
                    }
                    self.epoch = 1;
                }
                reserved
            }
        };
        for &slot in fresh {
            let mark = &mut self.mask[slot as usize];
            // Never lowers a blocked slot.
            *mark = (*mark).max(self.epoch);
        }
        self.stamped = Some((step, reserved.len()));
    }

    /// The slots of the orthogonal neighbours of `tile` that are on the
    /// grid and host no patch, in the up-left-right-down order
    /// [`TileSearch`] expands in. There are at most four, so they live in
    /// an array; the count says how many of its entries are set.
    fn free_neighbors(&self, tile: Tile) -> ([u32; 4], usize) {
        let slot = self.placement.tile_slot(tile);
        let stride = self.placement.frame().stride();
        let mut free = [slot; 4];
        let mut count = 0;
        for next in [slot - stride, slot - 1, slot + 1, slot + stride] {
            if self.mask[next as usize] != BLOCKED {
                free[count] = next;
                count += 1;
            }
        }
        (free, count)
    }
}

/// Finds the shortest ancilla corridor connecting the patches of `a` and
/// `b` on an otherwise idle grid (no reservations), or a typed
/// [`RoutingError`] when the two patches cannot be connected at all under
/// this floorplan. This is the static routability probe; errors name the
/// qubits but carry no instruction or source line (only the scheduler
/// knows which merge it was routing).
///
/// ```
/// use tiscc_program::route::find_corridor;
/// use tiscc_program::{examples, LayoutSpec, Placement};
///
/// let program = examples::bell_pair();
/// let place =
///     Placement::allocate_with(&program, &LayoutSpec::checkerboard().with_grid(2, 4)).unwrap();
/// let (a, b) = (program.qubit("a").unwrap(), program.qubit("b").unwrap());
/// // a sits at (0, 0), b at (0, 2): the single ancilla between them.
/// assert_eq!(find_corridor(&place, &program, a, b).unwrap(), vec![(0, 1)]);
/// ```
pub fn find_corridor(
    placement: &Placement,
    program: &LogicalProgram,
    a: QubitRef,
    b: QubitRef,
) -> Result<Vec<Tile>, RoutingError> {
    Reservations::new(placement).corridor(a, b, 0).ok_or_else(|| RoutingError {
        instruction: None,
        a: program.qubit_name(a).to_string(),
        a_tile: placement.data_tile(a),
        b: program.qubit_name(b).to_string(),
        b_tile: placement.data_tile(b),
        line: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LogicalProgram;
    use crate::layout2d::LayoutSpec;

    fn chain(n: usize) -> LogicalProgram {
        let mut p = LogicalProgram::new("chain");
        for i in 0..n {
            p.add_qubit(format!("q{i}")).unwrap();
        }
        p
    }

    #[test]
    fn adjacent_checkerboard_patches_use_single_tile_corridors() {
        let p = chain(4);
        let place =
            Placement::allocate_with(&p, &LayoutSpec::checkerboard().with_grid(8, 8)).unwrap();
        // q0 at (0,0), q1 at (0,2): the tile between them.
        assert_eq!(find_corridor(&place, &p, QubitRef(0), QubitRef(1)).unwrap(), vec![(0, 1)]);
        // q0 and q3 at (0,6): a longer corridor whose endpoints touch both.
        let c = find_corridor(&place, &p, QubitRef(0), QubitRef(3)).unwrap();
        assert!(c.len() >= 2);
        for t in &c {
            assert!(!place.is_occupied(*t));
        }
    }

    #[test]
    fn reservations_divert_or_block_corridors() {
        let p = chain(4);
        let place = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(2, 4)).unwrap();
        // Row layout 2×4: q0..q3 pack row 0; the lane row is the fabric.
        let free = find_corridor(&place, &p, QubitRef(0), QubitRef(2)).unwrap();
        assert_eq!(free, vec![(1, 0), (1, 1), (1, 2)]);
        // Reserving q1's only access tile makes the merge unroutable *now*
        // (a stall), though it stays statically routable.
        let mut res = Reservations::new(&place);
        res.reserve(0, &[(1, 1)]);
        assert!(res.corridor(QubitRef(0), QubitRef(2), 0).is_none());
        assert!(find_corridor(&place, &p, QubitRef(0), QubitRef(2)).is_ok());
        // The next probe sees only its own step's reservations: step 1 is
        // free, and step 0 is blocked again afterwards.
        assert_eq!(res.corridor(QubitRef(0), QubitRef(2), 1), Some(free.clone()));
        assert!(res.corridor(QubitRef(0), QubitRef(2), 0).is_none());
        // A reservation added to the stamped step counts at once.
        res.reserve(1, &[(1, 2)]);
        assert!(res.corridor(QubitRef(0), QubitRef(2), 1).is_none());
        assert_eq!(res.reserved_at(1), 1);
    }

    /// The epochs wrap without unblocking a patch or the frame, and every
    /// probe across the wrap sees exactly its own step's reservations.
    #[test]
    fn epoch_wrap_keeps_blocked_slots_blocked() {
        let p = chain(4);
        let place = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(2, 4)).unwrap();
        let (a, b) = (QubitRef(0), QubitRef(2));
        let lane = vec![(1, 0), (1, 1), (1, 2)];
        let mut res = Reservations::new(&place);
        res.reserve(0, &[(1, 1)]);
        // Reserving q1's patch tile must not make it passable.
        res.reserve(1, &[(0, 1)]);
        res.epoch = BLOCKED - 3;
        for round in 0..4 {
            // Each probe of the other step moves to a fresh epoch. With the
            // patches passable, step 0 would route over row 0.
            assert_eq!(res.corridor(a, b, 0), None, "round {round}");
            assert_eq!(res.corridor(a, b, 1), Some(lane.clone()), "round {round}");
        }
        assert!(res.epoch < 8, "the epochs wrapped: {}", res.epoch);
        for (slot, &blocked) in place.blocked_slots().iter().enumerate() {
            assert_eq!(res.mask[slot] == BLOCKED, blocked, "slot {slot}");
        }
    }

    #[test]
    fn unroutable_floorplans_raise_typed_errors() {
        let p = chain(2);
        // A 1×2 row grid has no ancilla row at all.
        let place = Placement::allocate_with(&p, &LayoutSpec::row_major().with_grid(1, 2)).unwrap();
        let err = find_corridor(&place, &p, QubitRef(0), QubitRef(1)).unwrap_err();
        assert_eq!(err.a_tile, (0, 0));
        assert_eq!(err.b_tile, (0, 1));
        assert!(err.to_string().contains("unroutable"));
    }

    #[test]
    fn corridor_endpoints_touch_the_operand_patches() {
        let p = chain(6);
        for spec in
            [LayoutSpec::row_major().with_grid(4, 6), LayoutSpec::checkerboard().with_grid(6, 6)]
        {
            let place = Placement::allocate_with(&p, &spec).unwrap();
            for a in 0..6 {
                for b in (a + 1)..6 {
                    let c = find_corridor(&place, &p, QubitRef(a), QubitRef(b)).unwrap();
                    let touches = |t: Tile, q: Tile| t.0.abs_diff(q.0) + t.1.abs_diff(q.1) == 1;
                    assert!(touches(c[0], place.data_tile(QubitRef(a))), "{spec:?} {a}-{b}");
                    assert!(
                        touches(*c.last().unwrap(), place.data_tile(QubitRef(b))),
                        "{spec:?} {a}-{b}"
                    );
                }
            }
        }
    }
}
