//! Ion occupancy tracking on the trapped-ion grid.
//!
//! The [`GridManager`] mirrors the class of the same name in the paper
//! (Appendix B.1): it owns the [`Layout`], hands out qubit identifiers when
//! ions are loaded, and enforces the hardware validity rules that no two
//! ions occupy the same site and that ions never rest on a junction.

use crate::layout::Layout;
use crate::site::{QSite, SiteKind};

/// Identifier of a physical ion/qubit managed by a [`GridManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QubitId(pub u32);

/// Errors raised by occupancy bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GridError {
    /// The addressed site does not exist on the layout.
    NoSuchSite(QSite),
    /// An ion may not be placed on or rest at a junction.
    RestingOnJunction(QSite),
    /// The target site is already occupied by another ion.
    Occupied(QSite, QubitId),
    /// The named qubit is not (or no longer) present on the grid.
    UnknownQubit(QubitId),
    /// A movement step was requested between non-adjacent zones.
    NotAdjacent(QSite, QSite),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::NoSuchSite(s) => write!(f, "site {s} does not exist on the layout"),
            GridError::RestingOnJunction(s) => write!(f, "ions may not rest on junction {s}"),
            GridError::Occupied(s, q) => write!(f, "site {s} is already occupied by qubit {q:?}"),
            GridError::UnknownQubit(q) => write!(f, "qubit {q:?} is not on the grid"),
            GridError::NotAdjacent(a, b) => write!(f, "sites {a} and {b} are not adjacent"),
        }
    }
}

impl std::error::Error for GridError {}

/// Owns the grid layout and the current position of every ion.
///
/// Both directions of the ion ↔ site map are dense tables, so the hardware
/// model's per-op position lookups and the router's per-site blocking
/// queries index a `Vec` instead of hashing: occupancy has one slot per
/// [`Layout::index_of`] position, and positions one slot per [`QubitId`]
/// (ids are issued sequentially from 0 and never reused). Every site is
/// range-checked against the layout before it indexes the table, so an
/// off-layout site never aliases an on-layout one.
#[derive(Clone, Debug)]
pub struct GridManager {
    layout: Layout,
    // Indexed by `layout.index_of(site)`.
    occupancy: Vec<Option<QubitId>>,
    // Indexed by `QubitId.0`; `None` once the ion was removed. Its length
    // is the next id to issue.
    positions: Vec<Option<QSite>>,
}

impl GridManager {
    /// Creates a manager for a grid of `unit_rows × unit_cols` repeating
    /// units with no ions loaded.
    pub fn new(unit_rows: u32, unit_cols: u32) -> Self {
        let layout = Layout::new(unit_rows, unit_cols);
        GridManager { occupancy: vec![None; layout.index_len()], layout, positions: Vec::new() }
    }

    /// The underlying layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of ions currently on the grid.
    pub fn qubit_count(&self) -> usize {
        self.positions.iter().flatten().count()
    }

    /// Loads a new ion at `site` and returns its identifier.
    pub fn place_qubit(&mut self, site: QSite) -> Result<QubitId, GridError> {
        let slot = self.restable_slot(site)?;
        if let Some(q) = self.occupancy[slot] {
            return Err(GridError::Occupied(site, q));
        }
        let id = QubitId(self.positions.len() as u32);
        self.occupancy[slot] = Some(id);
        self.positions.push(Some(site));
        Ok(id)
    }

    /// Removes an ion from the grid (e.g. after a destructive measurement
    /// when the zone is recycled).
    pub fn remove_qubit(&mut self, id: QubitId) -> Result<QSite, GridError> {
        let site = self
            .positions
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(GridError::UnknownQubit(id))?;
        let slot = self.slot(site);
        self.occupancy[slot] = None;
        Ok(site)
    }

    /// The ion occupying `site`, if any (`None` for sites off the layout).
    pub fn qubit_at(&self, site: QSite) -> Option<QubitId> {
        if !self.layout.contains(site) {
            return None;
        }
        self.occupancy[self.slot(site)]
    }

    /// The current site of ion `id`.
    pub fn position_of(&self, id: QubitId) -> Option<QSite> {
        self.positions.get(id.0 as usize).copied().flatten()
    }

    /// True if `site` exists, is a trapping zone and holds no ion.
    pub fn is_free(&self, site: QSite) -> bool {
        self.layout.is_trapping_zone(site) && self.occupancy[self.slot(site)].is_none()
    }

    /// Relocates ion `id` to the *adjacent* trapping zone `to` (a single
    /// shuttle step). Junction hops are expressed as two shuttle steps by the
    /// routing layer, and the transient junction crossing is validated by the
    /// scheduler, so the destination of any step recorded here must be a
    /// trapping zone.
    pub fn step_qubit(&mut self, id: QubitId, to: QSite) -> Result<(), GridError> {
        let from = self.position_of(id).ok_or(GridError::UnknownQubit(id))?;
        let to_slot = self.restable_slot(to)?;
        if let Some(other) = self.occupancy[to_slot] {
            if other != id {
                return Err(GridError::Occupied(to, other));
            }
        }
        // A legal single step ends on an adjacent zone, or on a zone that is
        // two steps away through exactly one junction.
        if !self.is_step_reachable(from, to) {
            return Err(GridError::NotAdjacent(from, to));
        }
        self.move_to(id, from, to_slot, to);
        Ok(())
    }

    /// Teleports ion `id` to any free trapping zone without adjacency
    /// checks. Used when re-binding a logical patch after operations whose
    /// movement legality was already validated step-by-step (and in tests).
    pub fn relocate_qubit(&mut self, id: QubitId, to: QSite) -> Result<(), GridError> {
        let from = self.position_of(id).ok_or(GridError::UnknownQubit(id))?;
        let to_slot = self.restable_slot(to)?;
        if let Some(other) = self.occupancy[to_slot] {
            if other != id {
                return Err(GridError::Occupied(to, other));
            }
        }
        self.move_to(id, from, to_slot, to);
        Ok(())
    }

    /// Snapshot of `(qubit, site)` pairs, sorted by qubit id. Used by the
    /// simulator to bind tableau qubit indices to ions.
    pub fn snapshot(&self) -> Vec<(QubitId, QSite)> {
        // The position table is indexed by id, so it is already id-sorted.
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(id, site)| site.map(|s| (QubitId(id as u32), s)))
            .collect()
    }

    /// The occupancy slot of a site already known to lie on the layout.
    fn slot(&self, site: QSite) -> usize {
        self.layout.index_of(site).expect("site was range-checked against the layout")
    }

    /// The occupancy slot of `site` if an ion may rest there.
    fn restable_slot(&self, site: QSite) -> Result<usize, GridError> {
        self.check_restable(site)?;
        Ok(self.slot(site))
    }

    fn move_to(&mut self, id: QubitId, from: QSite, to_slot: usize, to: QSite) {
        let from_slot = self.slot(from);
        self.occupancy[from_slot] = None;
        self.occupancy[to_slot] = Some(id);
        self.positions[id.0 as usize] = Some(to);
    }

    fn check_restable(&self, site: QSite) -> Result<(), GridError> {
        match self.layout.site_kind(site) {
            None => Err(GridError::NoSuchSite(site)),
            Some(SiteKind::Junction) => Err(GridError::RestingOnJunction(site)),
            Some(_) => Ok(()),
        }
    }

    fn is_step_reachable(&self, from: QSite, to: QSite) -> bool {
        if from == to {
            return true;
        }
        let neighbors = self.layout.neighbors(from);
        if neighbors.contains(&to) {
            return true;
        }
        // Through exactly one junction: both zones adjacent to the same
        // junction.
        neighbors.iter().any(|&n| {
            self.layout.site_kind(n) == Some(SiteKind::Junction)
                && self.layout.neighbors(n).contains(&to)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_remove() {
        let mut g = GridManager::new(2, 2);
        let home = g.layout().data_home(0, 0);
        let q = g.place_qubit(home).unwrap();
        assert_eq!(g.qubit_at(home), Some(q));
        assert_eq!(g.position_of(q), Some(home));
        assert_eq!(g.qubit_count(), 1);
        // Double occupancy is rejected.
        assert!(matches!(g.place_qubit(home), Err(GridError::Occupied(_, _))));
        let freed = g.remove_qubit(q).unwrap();
        assert_eq!(freed, home);
        assert!(g.is_free(home));
    }

    #[test]
    fn junctions_are_not_restable() {
        let mut g = GridManager::new(1, 1);
        let err = g.place_qubit(QSite::new(0, 0)).unwrap_err();
        assert!(matches!(err, GridError::RestingOnJunction(_)));
        let err = g.place_qubit(QSite::new(1, 1)).unwrap_err();
        assert!(matches!(err, GridError::NoSuchSite(_)));
    }

    #[test]
    fn step_adjacent_and_through_junction() {
        let mut g = GridManager::new(2, 2);
        let q = g.place_qubit(QSite::new(0, 1)).unwrap();
        // Adjacent shuttle along the horizontal arm.
        g.step_qubit(q, QSite::new(0, 2)).unwrap();
        g.step_qubit(q, QSite::new(0, 3)).unwrap();
        // Through the junction at (0,4) onto the next unit's arm.
        g.step_qubit(q, QSite::new(0, 5)).unwrap();
        assert_eq!(g.position_of(q), Some(QSite::new(0, 5)));
        // Jumping two zones in one step is rejected.
        assert!(matches!(g.step_qubit(q, QSite::new(0, 7)), Err(GridError::NotAdjacent(_, _))));
    }

    #[test]
    fn step_into_occupied_zone_is_rejected() {
        let mut g = GridManager::new(1, 2);
        let a = g.place_qubit(QSite::new(0, 1)).unwrap();
        let _b = g.place_qubit(QSite::new(0, 2)).unwrap();
        assert!(matches!(g.step_qubit(a, QSite::new(0, 2)), Err(GridError::Occupied(_, _))));
    }

    #[test]
    fn off_layout_sites_never_alias_on_layout_ones() {
        // Row-major slots: (0, 4·unit_cols) is one past the end of row 0, the
        // slot a careless index would share with (1, 0).
        let mut g = GridManager::new(2, 2);
        let q = g.place_qubit(QSite::new(1, 0)).unwrap();
        let off = QSite::new(0, 4 * g.layout().unit_cols());
        assert_eq!(g.qubit_at(off), None);
        assert!(!g.is_free(off));
        assert_eq!(g.place_qubit(off), Err(GridError::NoSuchSite(off)));
        let r = g.place_qubit(QSite::new(0, 7)).unwrap();
        assert_eq!(g.step_qubit(r, off), Err(GridError::NoSuchSite(off)));
        assert_eq!(g.relocate_qubit(r, off), Err(GridError::NoSuchSite(off)));
        // Nothing moved.
        assert_eq!(g.qubit_at(QSite::new(1, 0)), Some(q));
        assert_eq!(g.position_of(r), Some(QSite::new(0, 7)));
        assert_eq!(g.qubit_count(), 2);
    }

    #[test]
    fn removed_ions_leave_snapshot_and_count() {
        let mut g = GridManager::new(2, 2);
        let a = g.place_qubit(QSite::new(0, 1)).unwrap();
        let b = g.place_qubit(QSite::new(1, 0)).unwrap();
        let c = g.place_qubit(QSite::new(0, 5)).unwrap();
        assert_eq!(g.remove_qubit(b), Ok(QSite::new(1, 0)));
        assert_eq!(g.qubit_count(), 2);
        assert_eq!(g.snapshot(), vec![(a, QSite::new(0, 1)), (c, QSite::new(0, 5))]);
        assert_eq!(g.position_of(b), None);
        assert_eq!(g.remove_qubit(b), Err(GridError::UnknownQubit(b)));
        assert_eq!(g.step_qubit(b, QSite::new(2, 0)), Err(GridError::UnknownQubit(b)));
        assert_eq!(g.remove_qubit(QubitId(99)), Err(GridError::UnknownQubit(QubitId(99))));
        // Ids are never reused: the next ion gets a fresh one.
        let d = g.place_qubit(QSite::new(1, 0)).unwrap();
        assert_eq!(d, QubitId(3));
        assert_eq!(g.snapshot().last(), Some(&(d, QSite::new(1, 0))));
    }

    #[test]
    fn snapshot_is_sorted_by_qubit() {
        let mut g = GridManager::new(2, 2);
        let a = g.place_qubit(QSite::new(0, 1)).unwrap();
        let b = g.place_qubit(QSite::new(1, 0)).unwrap();
        let snap = g.snapshot();
        assert_eq!(snap, vec![(a, QSite::new(0, 1)), (b, QSite::new(1, 0))]);
    }
}
