//! Routing of ion movements between trapping zones, and the shared
//! tile-grid breadth-first search used by patch-level corridor routing.
//!
//! A route is a sequence of [`MoveStep`]s, each either a shuttle between two
//! adjacent trapping zones on the same straight segment, or a hop through a
//! junction connecting two zones adjacent to that junction (paper Sec. 3.2:
//! compiled as `Move zoneA zoneB` and charged two junction-traversal times).
//!
//! Routing uses Dijkstra's algorithm weighted by the nominal duration of each
//! step so that compiled circuits prefer fast straight-line shuttles over
//! slow junction crossings. A [`Router`] keeps the search's scratch — the
//! tentative distances and predecessor steps, in dense arrays indexed by
//! [`Layout::index_of`] and invalidated per call by an epoch stamp — so the
//! hardware model's many short routes neither hash nor allocate per
//! expanded site. [`route`] and [`route_avoiding`] run on a fresh router.
//!
//! Above the zone level, the program estimator routes lattice-surgery merge
//! *corridors* over a coarse grid of surface-code tiles. The search behind
//! that — an unweighted multi-source BFS over the `u32` slots of a framed
//! `rows × cols` grid ([`TileFrame`]) with a caller-supplied passability
//! predicate — lives here as [`TileSearch`] (reusable scratch,
//! epoch-stamped like [`Router`]), so both layers share one routing
//! substrate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::layout::{Inline, Layout};
use crate::site::{QSite, SiteKind};

/// A single movement primitive for one ion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveStep {
    /// Shuttle between two adjacent trapping zones of the same segment.
    Shuttle {
        /// Zone the ion leaves.
        from: QSite,
        /// Zone the ion arrives at.
        to: QSite,
    },
    /// Hop through `junction` from one adjacent zone to another.
    JunctionHop {
        /// Zone the ion leaves.
        from: QSite,
        /// Zone the ion arrives at.
        to: QSite,
        /// The junction traversed (exclusively held during the hop).
        junction: QSite,
    },
}

impl MoveStep {
    /// The departure zone.
    pub fn from(&self) -> QSite {
        match *self {
            MoveStep::Shuttle { from, .. } | MoveStep::JunctionHop { from, .. } => from,
        }
    }

    /// The arrival zone.
    pub fn to(&self) -> QSite {
        match *self {
            MoveStep::Shuttle { to, .. } | MoveStep::JunctionHop { to, .. } => to,
        }
    }

    /// Relative cost used by the router: a junction hop takes two traversals
    /// at 105 µs versus a 5.25 µs shuttle, i.e. 40× longer.
    pub fn relative_cost(&self) -> u64 {
        match self {
            MoveStep::Shuttle { .. } => 1,
            MoveStep::JunctionHop { .. } => 40,
        }
    }
}

/// The single-step moves from one site (at most four: a trapping zone has
/// at most two neighbours, at most one of them a junction, and a junction
/// leads on to at most three other zones).
pub type Steps = Inline<MoveStep, 4>;

/// All single-step moves available from `site` on `layout`, in the order
/// of [`Layout::neighbors`] (a junction's hops in its own neighbour order).
pub fn steps_from(layout: &Layout, site: QSite) -> Steps {
    let mut out = Steps::new(MoveStep::Shuttle { from: site, to: site });
    for n in layout.neighbors(site) {
        match layout.site_kind(n) {
            Some(SiteKind::Junction) => {
                for far in layout.neighbors(n) {
                    if far != site && layout.is_trapping_zone(far) {
                        out.push(MoveStep::JunctionHop { from: site, to: far, junction: n });
                    }
                }
            }
            Some(_) => out.push(MoveStep::Shuttle { from: site, to: n }),
            None => {}
        }
    }
    out
}

/// Shortest (duration-weighted) route from `from` to `to`, ignoring other
/// ions. Returns `None` if the sites are not connected or do not exist.
pub fn route(layout: &Layout, from: QSite, to: QSite) -> Option<Vec<MoveStep>> {
    route_avoiding(layout, from, to, &HashSet::new())
}

/// Shortest route from `from` to `to` that never enters a zone in `blocked`
/// (the destination itself must not be blocked). Junctions cannot be blocked
/// spatially — temporal junction conflicts are resolved by the scheduler.
/// Builds a fresh [`Router`]; callers routing repeatedly keep one instead.
pub fn route_avoiding(
    layout: &Layout,
    from: QSite,
    to: QSite,
    blocked: &HashSet<QSite>,
) -> Option<Vec<MoveStep>> {
    Router::new().route_avoiding_with(layout, from, to, &|site| blocked.contains(&site))
}

/// A Dijkstra router whose scratch state is reused across calls.
///
/// Distances and predecessor steps live in dense arrays indexed by
/// [`Layout::index_of`]. Each entry carries the *epoch* (call number) that
/// wrote it, so a new call invalidates the previous one's entries by bumping
/// the epoch instead of clearing or reallocating. The arrays grow to the
/// largest layout routed on; routing on a smaller layout afterwards reuses
/// them as they are. The hardware model owns one router and routes every
/// ion movement through it.
#[derive(Clone, Debug, Default)]
pub struct Router {
    // Per site slot: the epoch that last wrote `dist`/`prev`. A slot whose
    // stamp differs from `epoch` is unvisited in the current call.
    stamp: Vec<u32>,
    dist: Vec<u64>,
    prev: Vec<MoveStep>,
    heap: BinaryHeap<Reverse<(u64, QSite)>>,
    epoch: u32,
}

impl Router {
    /// A router with empty scratch; it sizes itself on the first call.
    pub fn new() -> Self {
        Router::default()
    }

    /// Shortest route from `from` to `to` under a caller-supplied blocking
    /// predicate: the route never enters a zone for which `blocked` returns
    /// `true`, except the destination, which must itself be unblocked. The
    /// hardware scheduler routes thousands of short hops per syndrome
    /// round; querying its occupancy table directly through this predicate
    /// avoids snapshotting every ion position into a set per route.
    ///
    /// Steps are weighted by [`MoveStep::relative_cost`]. The search pops
    /// `(cost, site)` keys from a min-heap (each key is pushed at most
    /// once, so the pop order is fixed), relaxes with a strict `<`, and
    /// stops once the destination is popped: on an equal-cost tie the
    /// predecessor popped first wins. Every route is a pure function of
    /// the layout, the endpoints and the predicate — never of earlier calls
    /// on this router.
    pub fn route_avoiding_with(
        &mut self,
        layout: &Layout,
        from: QSite,
        to: QSite,
        blocked: &dyn Fn(QSite) -> bool,
    ) -> Option<Vec<MoveStep>> {
        if !layout.is_trapping_zone(from) || !layout.is_trapping_zone(to) {
            return None;
        }
        if from == to {
            return Some(Vec::new());
        }
        if blocked(to) {
            return None;
        }
        self.begin(layout.index_len(), from);
        let slot = |site: QSite| layout.index_of(site).expect("routed sites lie on the layout");
        let (from_slot, to_slot) = (slot(from), slot(to));
        self.visit(from_slot, 0, None);
        self.heap.push(Reverse((0, from)));

        while let Some(Reverse((d, site))) = self.heap.pop() {
            if site == to {
                break;
            }
            if d > self.dist_of(slot(site)) {
                continue;
            }
            for step in steps_from(layout, site) {
                let next = step.to();
                if next != to && blocked(next) {
                    continue;
                }
                let nd = d + step.relative_cost();
                let next_slot = slot(next);
                if nd < self.dist_of(next_slot) {
                    self.visit(next_slot, nd, Some(step));
                    self.heap.push(Reverse((nd, next)));
                }
            }
        }

        if self.stamp[to_slot] != self.epoch {
            return None;
        }
        // Reconstruct.
        let mut steps = Vec::new();
        let mut cur = to_slot;
        while cur != from_slot {
            let step = self.prev[cur];
            cur = slot(step.from());
            steps.push(step);
        }
        steps.reverse();
        Some(steps)
    }

    /// Starts a call: grows the scratch to `slots` entries and moves to a
    /// fresh epoch, so every entry of an earlier call reads as unvisited.
    fn begin(&mut self, slots: usize, filler: QSite) {
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
            self.dist.resize(slots, u64::MAX);
            self.prev.resize(slots, MoveStep::Shuttle { from: filler, to: filler });
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // After 2^32 calls the stamps could alias: clear them once.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
    }

    /// Tentative distance of a slot in the current call (`u64::MAX` if
    /// unvisited).
    fn dist_of(&self, slot: usize) -> u64 {
        if self.stamp[slot] == self.epoch {
            self.dist[slot]
        } else {
            u64::MAX
        }
    }

    /// Records a tentative distance and the step that reached it.
    fn visit(&mut self, slot: usize, dist: u64, step: Option<MoveStep>) {
        self.stamp[slot] = self.epoch;
        self.dist[slot] = dist;
        if let Some(step) = step {
            self.prev[slot] = step;
        }
    }
}

/// The `u32` slots a [`TileSearch`] addresses a `rows × cols` tile grid
/// by.
///
/// Tile `(r, c)` is slot `(r + 1) · (cols + 1) + c`: the grid sits in a
/// frame of one slot row above it, one below it and one slot column to its
/// right, which is also the column left of the next row. Every tile's four
/// neighbours are then the slots `s − stride`, `s − 1`, `s + 1` and
/// `s + stride` (`stride = cols + 1`), with no bounds check; a tile on the
/// grid's edge has frame slots as its outside neighbours.
///
/// ```
/// use tiscc_grid::TileFrame;
///
/// let frame = TileFrame::new(2, 3);
/// assert_eq!(frame.slots(), 4 * 4);
/// assert_eq!(frame.slot((1, 2)), 10);
/// assert_eq!(frame.tile(10), (1, 2));
/// assert!(frame.is_frame(frame.slot((0, 0)) - 1));
/// assert!(!frame.is_frame(frame.slot((0, 0))));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileFrame {
    rows: usize,
    cols: usize,
}

impl TileFrame {
    /// The frame of a `rows × cols` tile grid.
    ///
    /// # Panics
    /// Panics if the framed grid has more than `u32::MAX` slots.
    pub fn new(rows: usize, cols: usize) -> TileFrame {
        let slots = rows.checked_add(2).and_then(|r| r.checked_mul(cols.checked_add(1)?));
        assert!(
            slots.is_some_and(|n| n <= u32::MAX as usize),
            "a {rows}x{cols} tile grid exceeds the u32 tile slots"
        );
        TileFrame { rows, cols }
    }

    /// Number of slots, frame included: `(rows + 2) · (cols + 1)`.
    pub fn slots(&self) -> usize {
        (self.rows + 2) * (self.cols + 1)
    }

    /// The slot distance between vertically adjacent tiles.
    pub fn stride(&self) -> u32 {
        self.cols as u32 + 1
    }

    /// The slot of an in-grid tile.
    pub fn slot(&self, (r, c): (usize, usize)) -> u32 {
        debug_assert!(r < self.rows && c < self.cols, "tile ({r}, {c}) is off the grid");
        ((r + 1) * (self.cols + 1) + c) as u32
    }

    /// The tile at an in-grid slot.
    pub fn tile(&self, slot: u32) -> (usize, usize) {
        let stride = self.stride();
        ((slot / stride) as usize - 1, (slot % stride) as usize)
    }

    /// True if `slot` belongs to the frame, not to the grid.
    pub fn is_frame(&self, slot: u32) -> bool {
        let row = (slot / self.stride()) as usize;
        row == 0 || row > self.rows || (slot % self.stride()) as usize == self.cols
    }
}

/// A multi-source breadth-first search over the slots of a [`TileFrame`]
/// whose scratch is reused across calls.
///
/// The seen stamps and predecessor slots live in dense arrays over the
/// slots; like [`Router`], each call bumps an epoch instead of clearing
/// them, so a search touches only the tiles it reaches. The arrays grow to
/// the largest frame searched; the queue is reused as well. The program
/// scheduler keeps one search for all the corridor probes of a schedule.
#[derive(Clone, Debug, Default)]
pub struct TileSearch {
    // Per slot: the epoch that last reached it. A slot whose stamp differs
    // from `epoch` is unseen in the current call.
    seen: Vec<u32>,
    // Per slot: the slot it was reached from (`NO_PREV` for sources).
    prev: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
}

/// Predecessor of a source tile: the end of a path walked backwards.
const NO_PREV: u32 = u32::MAX;

impl TileSearch {
    /// A search with empty scratch; it sizes itself on the first call.
    pub fn new() -> Self {
        TileSearch::default()
    }

    /// Shortest path over the tiles of `frame`.
    ///
    /// The path starts at one of the `sources` slots, ends at the first
    /// slot satisfying `is_goal`, steps only between orthogonally adjacent
    /// tiles, and visits only slots for which `passable` returns `true`
    /// (sources that are not passable are ignored; a goal must itself be
    /// passable to be reached). `passable` must be `false` on every frame
    /// slot ([`TileFrame::is_frame`]): that is what keeps the search on
    /// the grid without a bounds check per neighbour. Returns the visited
    /// tiles in order, sources included — or `None` when no goal is
    /// reachable.
    ///
    /// The search is deterministic: sources seed the queue in the order
    /// given and neighbours expand up, left, right, down, so equal-length
    /// paths resolve the same way on every run (golden tests rely on
    /// this). The result is a pure function of the arguments, never of
    /// earlier calls.
    ///
    /// ```
    /// use tiscc_grid::{TileFrame, TileSearch};
    ///
    /// // A 2 × 4 grid with tile (0, 1) blocked: the path detours via row 1.
    /// let frame = TileFrame::new(2, 4);
    /// let (start, goal, wall) = (frame.slot((0, 0)), frame.slot((0, 3)), frame.slot((0, 1)));
    /// let path = TileSearch::new()
    ///     .shortest_path(frame, &[start], |s| s == goal, |s| !frame.is_frame(s) && s != wall)
    ///     .unwrap();
    /// assert_eq!(path.first(), Some(&(0, 0)));
    /// assert_eq!(path.last(), Some(&(0, 3)));
    /// assert!(!path.contains(&(0, 1)));
    /// ```
    ///
    /// # Panics
    /// Panics if `passable` admits a frame slot the search then steps off.
    pub fn shortest_path(
        &mut self,
        frame: TileFrame,
        sources: &[u32],
        is_goal: impl Fn(u32) -> bool,
        passable: impl Fn(u32) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        self.begin(frame.slots());
        for &s in sources {
            if passable(s) && self.reach(s, NO_PREV) {
                self.queue.push(s);
            }
        }
        let stride = frame.stride();
        let mut head = 0;
        while let Some(&slot) = self.queue.get(head) {
            head += 1;
            if is_goal(slot) {
                return Some(self.path_to(slot, frame));
            }
            for next in [slot - stride, slot - 1, slot + 1, slot + stride] {
                if passable(next) && self.reach(next, slot) {
                    self.queue.push(next);
                }
            }
        }
        None
    }

    /// Starts a call: grows the scratch to `slots` entries and moves to a
    /// fresh epoch, so every entry of an earlier call reads as unseen.
    fn begin(&mut self, slots: usize) {
        if self.seen.len() < slots {
            self.seen.resize(slots, 0);
            self.prev.resize(slots, NO_PREV);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // After 2^32 calls the stamps could alias: clear them once.
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Marks `slot` seen, reached from `prev`; false if it already was.
    fn reach(&mut self, slot: u32, prev: u32) -> bool {
        let i = slot as usize;
        if self.seen[i] == self.epoch {
            return false;
        }
        self.seen[i] = self.epoch;
        self.prev[i] = prev;
        true
    }

    /// The tiles from a source to `goal`, walking predecessors back.
    fn path_to(&self, goal: u32, frame: TileFrame) -> Vec<(usize, usize)> {
        let mut path = Vec::new();
        let mut cur = goal;
        while cur != NO_PREV {
            path.push(frame.tile(cur));
            cur = self.prev[cur as usize];
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_from_data_home() {
        let l = Layout::new(2, 2);
        // Data home (0,1): shuttle right to O (0,2), junction hop through
        // (0,0) to (1,0) [measure home of same unit]... and nothing upward.
        let steps = steps_from(&l, QSite::new(0, 1));
        assert!(steps.contains(&MoveStep::Shuttle { from: QSite::new(0, 1), to: QSite::new(0, 2) }));
        assert!(steps.iter().any(|s| matches!(
            s,
            MoveStep::JunctionHop { junction, to, .. }
                if *junction == QSite::new(0, 0) && *to == QSite::new(1, 0)
        )));
    }

    #[test]
    fn route_within_one_arm_is_pure_shuttles() {
        let l = Layout::new(1, 1);
        let r = route(&l, QSite::new(0, 1), QSite::new(0, 3)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|s| matches!(s, MoveStep::Shuttle { .. })));
        assert_eq!(r[0].from(), QSite::new(0, 1));
        assert_eq!(r[1].to(), QSite::new(0, 3));
    }

    #[test]
    fn route_between_units_crosses_a_junction() {
        let l = Layout::new(2, 2);
        // From unit (0,0) data home to unit (0,1) data home: must cross the
        // junction at (0,4).
        let r = route(&l, l.data_home(0, 0), l.data_home(0, 1)).unwrap();
        assert!(r.iter().any(
            |s| matches!(s, MoveStep::JunctionHop { junction, .. } if *junction == QSite::new(0, 4))
        ));
        // Path continuity.
        for w in r.windows(2) {
            assert_eq!(w[0].to(), w[1].from());
        }
        assert_eq!(r.first().unwrap().from(), l.data_home(0, 0));
        assert_eq!(r.last().unwrap().to(), l.data_home(0, 1));
    }

    #[test]
    fn routes_avoid_blocked_zones() {
        let l = Layout::new(1, 1);
        // Going from (0,1) to (0,3) with (0,2) blocked is impossible on a
        // single unit (there is no alternative path on one arm).
        let mut blocked = HashSet::new();
        blocked.insert(QSite::new(0, 2));
        assert!(route_avoiding(&l, QSite::new(0, 1), QSite::new(0, 3), &blocked).is_none());
        // On a 2x2 grid an alternative exists around the block.
        let l = Layout::new(2, 2);
        let r = route_avoiding(&l, QSite::new(0, 1), QSite::new(0, 3), &blocked).unwrap();
        assert!(r.iter().all(|s| s.to() != QSite::new(0, 2)));
    }

    #[test]
    fn routing_to_or_from_junction_fails() {
        let l = Layout::new(1, 1);
        assert!(route(&l, QSite::new(0, 0), QSite::new(0, 1)).is_none());
        assert!(route(&l, QSite::new(0, 1), QSite::new(0, 0)).is_none());
    }

    #[test]
    fn trivial_route_is_empty() {
        let l = Layout::new(1, 1);
        assert_eq!(route(&l, QSite::new(0, 1), QSite::new(0, 1)).unwrap().len(), 0);
    }

    /// A search on `search` over the `rows × cols` grid, with sources,
    /// goals and passability given by tile: the frame is never passable.
    fn search_tiles(
        search: &mut TileSearch,
        rows: usize,
        cols: usize,
        sources: &[(usize, usize)],
        is_goal: impl Fn((usize, usize)) -> bool,
        passable: impl Fn((usize, usize)) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        let frame = TileFrame::new(rows, cols);
        let sources: Vec<u32> = sources.iter().map(|&t| frame.slot(t)).collect();
        search.shortest_path(
            frame,
            &sources,
            |s| is_goal(frame.tile(s)),
            |s| !frame.is_frame(s) && passable(frame.tile(s)),
        )
    }

    fn path(
        rows: usize,
        cols: usize,
        sources: &[(usize, usize)],
        is_goal: impl Fn((usize, usize)) -> bool,
        passable: impl Fn((usize, usize)) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        search_tiles(&mut TileSearch::new(), rows, cols, sources, is_goal, passable)
    }

    /// Slots and tiles map one to one; the frame surrounds the grid.
    #[test]
    fn frame_slots_round_trip_and_border_the_grid() {
        for (rows, cols) in [(1, 1), (1, 5), (4, 1), (3, 7)] {
            let frame = TileFrame::new(rows, cols);
            let mut in_grid = 0;
            for slot in 0..frame.slots() as u32 {
                if frame.is_frame(slot) {
                    continue;
                }
                in_grid += 1;
                let tile = frame.tile(slot);
                assert_eq!(frame.slot(tile), slot, "{rows}x{cols}");
                let stride = frame.stride();
                for (next, is_edge) in [
                    (slot - stride, tile.0 == 0),
                    (slot - 1, tile.1 == 0),
                    (slot + 1, tile.1 + 1 == cols),
                    (slot + stride, tile.0 + 1 == rows),
                ] {
                    assert_eq!(frame.is_frame(next), is_edge, "{rows}x{cols} {tile:?}");
                }
            }
            assert_eq!(in_grid, rows * cols);
        }
    }

    #[test]
    fn tile_path_finds_shortest_and_respects_blocks() {
        // Unobstructed: straight line along row 0.
        let p = path(3, 5, &[(0, 0)], |t| t == (0, 4), |_| true).unwrap();
        assert_eq!(p.len(), 5);
        // A full column wall forces a detour or fails.
        let wall = |t: (usize, usize)| t.1 != 2;
        assert!(path(3, 5, &[(0, 0)], |t| t == (0, 4), wall).is_none());
        let gap = |t: (usize, usize)| t != (0, 2) && t != (1, 2);
        let p = path(3, 5, &[(0, 0)], |t| t == (0, 4), gap).unwrap();
        assert!(p.contains(&(2, 2)), "must pass through the gap: {p:?}");
        for w in p.windows(2) {
            let dr = w[0].0.abs_diff(w[1].0);
            let dc = w[0].1.abs_diff(w[1].1);
            assert_eq!(dr + dc, 1, "steps are orthogonal: {w:?}");
        }
    }

    #[test]
    fn tile_path_handles_multiple_sources_and_impassable_sources() {
        // The nearer source wins.
        let p = path(1, 6, &[(0, 0), (0, 4)], |t| t == (0, 5), |_| true).unwrap();
        assert_eq!(p, vec![(0, 4), (0, 5)]);
        // Impassable sources are ignored entirely.
        assert!(path(1, 6, &[(0, 0)], |t| t == (0, 5), |t| t != (0, 0)).is_none());
        // A source that is itself a goal yields a single-tile path.
        let p = path(2, 2, &[(1, 1)], |t| t == (1, 1), |_| true).unwrap();
        assert_eq!(p, vec![(1, 1)]);
    }

    /// One search reused across grids of different sizes and walls gives
    /// the same paths as a fresh search per call.
    #[test]
    fn reused_tile_search_matches_fresh_searches() {
        let mut reused = TileSearch::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let (rows, cols) = (1 + (next() % 9) as usize, 1 + (next() % 9) as usize);
            let salt = (next() % 7) as usize;
            let wall = |(r, c): (usize, usize)| !(r * 3 + c * 5 + salt).is_multiple_of(4);
            let goal = ((next() as usize) % rows, (next() as usize) % cols);
            let sources = [((next() as usize) % rows, 0), (0, (next() as usize) % cols)];
            let fresh = path(rows, cols, &sources, |t| t == goal, wall);
            let again = search_tiles(&mut reused, rows, cols, &sources, |t| t == goal, wall);
            assert_eq!(fresh, again, "round {round}: {rows}x{cols} to {goal:?}");
        }
    }
}
