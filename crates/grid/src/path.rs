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
//! that — an unweighted multi-source BFS over an abstract `rows × cols`
//! grid with a caller-supplied passability predicate — lives here as
//! [`TileSearch`] (reusable scratch, epoch-stamped like [`Router`]), so
//! both layers share one routing substrate.

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

/// A multi-source breadth-first search over a `rows × cols` tile grid
/// whose scratch is reused across calls.
///
/// Tiles are addressed by their slot `row · cols + col`. The seen stamps
/// and predecessor slots live in dense arrays over those slots; like
/// [`Router`], each call bumps an epoch instead of clearing them, so a
/// search touches only the tiles it reaches. The arrays grow to the
/// largest grid searched; the queue is reused as well. The program
/// scheduler keeps one search for all the corridor probes of a schedule.
#[derive(Clone, Debug, Default)]
pub struct TileSearch {
    // Per tile slot: the epoch that last reached it. A slot whose stamp
    // differs from `epoch` is unseen in the current call.
    seen: Vec<u32>,
    // Per tile slot: the slot it was reached from (`NO_PREV` for sources).
    prev: Vec<u32>,
    queue: Vec<(usize, usize)>,
    epoch: u32,
}

/// Predecessor of a source tile: the end of a path walked backwards.
const NO_PREV: u32 = u32::MAX;

impl TileSearch {
    /// A search with empty scratch; it sizes itself on the first call.
    pub fn new() -> Self {
        TileSearch::default()
    }

    /// Shortest path over the `rows × cols` tile grid.
    ///
    /// The path starts at one of `sources`, ends at the first tile
    /// satisfying `is_goal`, steps only between orthogonally adjacent
    /// tiles, and visits only tiles for which `passable` returns `true`
    /// (sources that are not passable are ignored; a goal tile must itself
    /// be passable to be reached). Returns the visited tiles in order,
    /// sources included — or `None` when no goal is reachable.
    ///
    /// The search is deterministic: sources seed the queue in the order
    /// given and neighbours expand up, left, right, down, so equal-length
    /// paths resolve the same way on every run (golden tests rely on
    /// this). The result is a pure function of the arguments, never of
    /// earlier calls.
    ///
    /// ```
    /// use tiscc_grid::TileSearch;
    ///
    /// // A 2 × 4 grid with tile (0, 1) blocked: the path detours via row 1.
    /// let path = TileSearch::new()
    ///     .shortest_path(2, 4, &[(0, 0)], |t| t == (0, 3), |t| t != (0, 1))
    ///     .unwrap();
    /// assert_eq!(path.first(), Some(&(0, 0)));
    /// assert_eq!(path.last(), Some(&(0, 3)));
    /// assert!(!path.contains(&(0, 1)));
    /// ```
    ///
    /// # Panics
    /// Panics if the grid has more than `u32::MAX` tiles.
    pub fn shortest_path(
        &mut self,
        rows: usize,
        cols: usize,
        sources: &[(usize, usize)],
        is_goal: impl Fn((usize, usize)) -> bool,
        passable: impl Fn((usize, usize)) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        self.begin(rows * cols);
        let slot = |(r, c): (usize, usize)| (r * cols + c) as u32;
        let in_bounds = |(r, c): (usize, usize)| r < rows && c < cols;
        for &s in sources {
            if in_bounds(s) && passable(s) && self.reach(slot(s), NO_PREV) {
                self.queue.push(s);
            }
        }
        let mut head = 0;
        while let Some(&tile) = self.queue.get(head) {
            head += 1;
            if is_goal(tile) {
                return Some(self.path_to(slot(tile), cols));
            }
            let (r, c) = tile;
            let neighbors =
                [(r.wrapping_sub(1), c), (r, c.wrapping_sub(1)), (r, c + 1), (r + 1, c)];
            for next in neighbors {
                if in_bounds(next) && passable(next) && self.reach(slot(next), slot(tile)) {
                    self.queue.push(next);
                }
            }
        }
        None
    }

    /// Starts a call: grows the scratch to `slots` entries and moves to a
    /// fresh epoch, so every entry of an earlier call reads as unseen.
    fn begin(&mut self, slots: usize) {
        assert!(slots <= u32::MAX as usize, "a {slots}-tile grid exceeds the u32 tile slots");
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
    fn path_to(&self, goal: u32, cols: usize) -> Vec<(usize, usize)> {
        let mut path = Vec::new();
        let mut cur = goal;
        while cur != NO_PREV {
            let i = cur as usize;
            path.push((i / cols, i % cols));
            cur = self.prev[i];
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

    fn path(
        rows: usize,
        cols: usize,
        sources: &[(usize, usize)],
        is_goal: impl Fn((usize, usize)) -> bool,
        passable: impl Fn((usize, usize)) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        TileSearch::new().shortest_path(rows, cols, sources, is_goal, passable)
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
            let again = reused.shortest_path(rows, cols, &sources, |t| t == goal, wall);
            assert_eq!(fresh, again, "round {round}: {rows}x{cols} to {goal:?}");
        }
    }
}
