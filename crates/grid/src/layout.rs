//! Repeating-unit geometry of the trapped-ion grid.
//!
//! One *unit* at unit-coordinates `(r, c)` contributes the following fine
//! coordinates (paper Sec. 3.1, Fig. 1):
//!
//! ```text
//! (4r, 4c)      J          junction
//! (4r, 4c+1)    M          data-qubit home        ─┐
//! (4r, 4c+2)    O          interaction zone        ├ horizontal arm →
//! (4r, 4c+3)    M          spare memory           ─┘
//! (4r+1, 4c)    M          measure-qubit home     ─┐
//! (4r+2, 4c)    O          interaction zone        ├ vertical arm ↓
//! (4r+3, 4c)    M          spare memory           ─┘
//! ```
//!
//! A fine coordinate hosts a site iff its row or column is a multiple of 4
//! (it lies on a lattice line of the tiling).

use crate::site::{QSite, SiteKind};

/// Width of a single trapping zone in metres (420 µm, paper Sec. 3.2).
pub const ZONE_WIDTH_M: f64 = 420e-6;

/// Up to `N` values stored inline: the allocation-free return type of
/// [`Layout::neighbors`] and [`steps_from`](crate::path::steps_from), which
/// the router calls once per expanded site. Derefs to `[T]` and iterates by
/// value.
#[derive(Clone, Copy, Debug)]
pub struct Inline<T, const N: usize> {
    items: [T; N],
    len: usize,
}

/// The adjacent sites of one site (at most four).
pub type Neighbors = Inline<QSite, 4>;

impl<T: Copy, const N: usize> Inline<T, N> {
    /// An empty list; `filler` only initializes the unused slots.
    pub(crate) fn new(filler: T) -> Self {
        Inline { items: [filler; N], len: 0 }
    }

    /// Appends `item`. Panics past `N` items.
    pub(crate) fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T, const N: usize> std::ops::Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T, const N: usize> IntoIterator for Inline<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

/// The geometry of a rectangular grid of repeating units.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    unit_rows: u32,
    unit_cols: u32,
}

impl Layout {
    /// A grid of `unit_rows × unit_cols` repeating units.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(unit_rows: u32, unit_cols: u32) -> Self {
        assert!(unit_rows > 0 && unit_cols > 0, "layout must be non-empty");
        Layout { unit_rows, unit_cols }
    }

    /// Number of unit rows.
    pub fn unit_rows(&self) -> u32 {
        self.unit_rows
    }

    /// Number of unit columns.
    pub fn unit_cols(&self) -> u32 {
        self.unit_cols
    }

    /// Extent of the fine-coordinate grid (rows, cols).
    pub fn fine_extent(&self) -> (u32, u32) {
        (4 * self.unit_rows, 4 * self.unit_cols)
    }

    /// True if `site` exists on this layout.
    pub fn contains(&self, site: QSite) -> bool {
        let (rows, cols) = self.fine_extent();
        site.row < rows
            && site.col < cols
            && (site.row.is_multiple_of(4) || site.col.is_multiple_of(4))
    }

    /// The kind of `site`, or `None` if it does not exist on this layout.
    pub fn site_kind(&self, site: QSite) -> Option<SiteKind> {
        if !self.contains(site) {
            return None;
        }
        Some(match (site.row % 4, site.col % 4) {
            (0, 0) => SiteKind::Junction,
            (0, 2) | (2, 0) => SiteKind::Operation,
            _ => SiteKind::Memory,
        })
    }

    /// True if `site` is a trapping zone (memory or operation) where an ion
    /// may rest.
    pub fn is_trapping_zone(&self, site: QSite) -> bool {
        matches!(self.site_kind(site), Some(SiteKind::Memory) | Some(SiteKind::Operation))
    }

    /// Length of the dense site index: one slot per fine-grid position,
    /// so `0..index_len()` covers [`Layout::index_of`] of every site.
    pub fn index_len(&self) -> usize {
        let (rows, cols) = self.fine_extent();
        rows as usize * cols as usize
    }

    /// Dense row-major index of `site` over [`Layout::fine_extent`], or
    /// `None` outside the extent. Per-site tables (occupancy, busy times,
    /// router scratch) are `Vec`s of [`Layout::index_len`] slots addressed
    /// by it. Positions inside the extent that host no site (unit
    /// interiors) also get a slot; it is never used.
    pub fn index_of(&self, site: QSite) -> Option<usize> {
        let (rows, cols) = self.fine_extent();
        (site.row < rows && site.col < cols)
            .then(|| site.row as usize * cols as usize + site.col as usize)
    }

    /// The up-to-four orthogonally adjacent sites of `site` that exist, in
    /// up, down, left, right order.
    pub fn neighbors(&self, site: QSite) -> Neighbors {
        let mut out = Neighbors::new(site);
        let candidates = [
            (site.row.wrapping_sub(1), site.col),
            (site.row + 1, site.col),
            (site.row, site.col.wrapping_sub(1)),
            (site.row, site.col + 1),
        ];
        for (r, c) in candidates {
            if r == u32::MAX || c == u32::MAX {
                continue;
            }
            let s = QSite::new(r, c);
            if self.contains(s) {
                out.push(s);
            }
        }
        out
    }

    /// Iterator over every site of the layout, in row-major order.
    pub fn all_sites(&self) -> impl Iterator<Item = QSite> + '_ {
        let (rows, cols) = self.fine_extent();
        (0..rows).flat_map(move |r| {
            (0..cols).map(move |c| QSite::new(r, c)).filter(|&s| self.contains(s))
        })
    }

    /// Total number of sites: seven per unit (one junction and the three
    /// zones of each arm).
    pub fn site_count(&self) -> usize {
        7 * self.unit_count()
    }

    /// Total number of trapping zones (sites that are not junctions): six
    /// per unit.
    pub fn trapping_zone_count(&self) -> usize {
        6 * self.unit_count()
    }

    fn unit_count(&self) -> usize {
        self.unit_rows as usize * self.unit_cols as usize
    }

    /// Physical area of the grid in square metres: every lattice line cell is
    /// one zone-width wide, so the bounding box is
    /// `(4·unit_rows · w) × (4·unit_cols · w)`.
    pub fn area_m2(&self) -> f64 {
        let (rows, cols) = self.fine_extent();
        (rows as f64 * ZONE_WIDTH_M) * (cols as f64 * ZONE_WIDTH_M)
    }

    /// Home site of the data qubit hosted by unit `(unit_row, unit_col)`:
    /// the memory zone of the horizontal arm adjacent to the junction.
    pub fn data_home(&self, unit_row: u32, unit_col: u32) -> QSite {
        debug_assert!(unit_row < self.unit_rows && unit_col < self.unit_cols);
        QSite::new(4 * unit_row, 4 * unit_col + 1)
    }

    /// Home site of the syndrome/measure qubit hosted by unit
    /// `(unit_row, unit_col)`: the memory zone of the vertical arm adjacent
    /// to the junction.
    pub fn measure_home(&self, unit_row: u32, unit_col: u32) -> QSite {
        debug_assert!(unit_row < self.unit_rows && unit_col < self.unit_cols);
        QSite::new(4 * unit_row + 1, 4 * unit_col)
    }

    /// The spare memory zone at the end of the horizontal arm of unit
    /// `(unit_row, unit_col)`; used as a parking spot during patch
    /// translations (Swap Left / Move Right).
    pub fn spare_horizontal(&self, unit_row: u32, unit_col: u32) -> QSite {
        QSite::new(4 * unit_row, 4 * unit_col + 3)
    }

    /// The spare memory zone at the end of the vertical arm of unit
    /// `(unit_row, unit_col)`.
    pub fn spare_vertical(&self, unit_row: u32, unit_col: u32) -> QSite {
        QSite::new(4 * unit_row + 3, 4 * unit_col)
    }

    /// ASCII rendering of the layout with site kinds (`J`, `O`, `M`) and `.`
    /// for non-existent positions. Intended for examples and reports
    /// reproducing the look of paper Fig. 1.
    pub fn render_ascii(&self) -> String {
        let (rows, cols) = self.fine_extent();
        let mut out = String::with_capacity((rows * (cols + 1)) as usize);
        for r in 0..rows {
            for c in 0..cols {
                let ch = match self.site_kind(QSite::new(r, c)) {
                    Some(SiteKind::Junction) => 'J',
                    Some(SiteKind::Operation) => 'O',
                    Some(SiteKind::Memory) => 'M',
                    None => '.',
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_site_kinds_match_repeating_pattern() {
        let l = Layout::new(2, 2);
        assert_eq!(l.site_kind(QSite::new(0, 0)), Some(SiteKind::Junction));
        assert_eq!(l.site_kind(QSite::new(0, 1)), Some(SiteKind::Memory));
        assert_eq!(l.site_kind(QSite::new(0, 2)), Some(SiteKind::Operation));
        assert_eq!(l.site_kind(QSite::new(0, 3)), Some(SiteKind::Memory));
        assert_eq!(l.site_kind(QSite::new(1, 0)), Some(SiteKind::Memory));
        assert_eq!(l.site_kind(QSite::new(2, 0)), Some(SiteKind::Operation));
        assert_eq!(l.site_kind(QSite::new(3, 0)), Some(SiteKind::Memory));
        assert_eq!(l.site_kind(QSite::new(4, 4)), Some(SiteKind::Junction));
        // Interior of a unit does not host sites.
        assert_eq!(l.site_kind(QSite::new(1, 1)), None);
        assert_eq!(l.site_kind(QSite::new(3, 3)), None);
    }

    #[test]
    fn closed_form_counts_match_a_walk_over_every_site() {
        // The repeating unit is {M, O, M, J, M, O, M}: 7 sites per unit,
        // 6 of them trapping zones.
        for r in 1..=8 {
            for c in 1..=8 {
                let l = Layout::new(r, c);
                assert_eq!(l.site_count(), l.all_sites().count(), "{r}x{c}");
                let zones = l.all_sites().filter(|&s| l.is_trapping_zone(s)).count();
                assert_eq!(l.trapping_zone_count(), zones, "{r}x{c}");
            }
        }
        assert_eq!(Layout::new(2, 3).site_count(), 42);
        assert_eq!(Layout::new(2, 3).trapping_zone_count(), 36);
    }

    #[test]
    fn neighbors_follow_lattice_lines() {
        let l = Layout::new(2, 2);
        // A junction has up to 4 neighbors, listed up, down, left, right.
        let n = l.neighbors(QSite::new(4, 4));
        let expected = [QSite::new(3, 4), QSite::new(5, 4), QSite::new(4, 3), QSite::new(4, 5)];
        assert_eq!(*n, expected);
        assert_eq!(n.into_iter().collect::<Vec<_>>(), expected);
        // The spare memory site at the end of a horizontal arm touches the
        // next junction to the right if it exists, else only its own arm.
        let n = l.neighbors(QSite::new(0, 3));
        assert!(n.contains(&QSite::new(0, 2)));
        assert!(n.contains(&QSite::new(0, 4)));
        assert_eq!(n.len(), 2);
        // Interior-of-unit coordinates have no neighbors listed from them,
        // and are not neighbors of lattice sites.
        assert!(!l.neighbors(QSite::new(0, 1)).contains(&QSite::new(1, 1)));
    }

    #[test]
    fn site_index_is_dense_injective_and_range_checked() {
        let l = Layout::new(2, 3);
        assert_eq!(l.index_len(), 8 * 12);
        let mut seen = vec![false; l.index_len()];
        for s in l.all_sites() {
            let i = l.index_of(s).expect("every site has a slot");
            assert!(!std::mem::replace(&mut seen[i], true), "{s:?} shares slot {i}");
        }
        // Row-major: one row down is one fine row of slots further.
        assert_eq!(l.index_of(QSite::new(1, 0)), Some(12));
        // Just past the extent must not wrap onto the next row.
        assert_eq!(l.index_of(QSite::new(0, 12)), None);
        assert_eq!(l.index_of(QSite::new(8, 0)), None);
    }

    #[test]
    fn homes_are_memory_zones() {
        let l = Layout::new(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(l.site_kind(l.data_home(r, c)), Some(SiteKind::Memory));
                assert_eq!(l.site_kind(l.measure_home(r, c)), Some(SiteKind::Memory));
                assert_eq!(l.site_kind(l.spare_horizontal(r, c)), Some(SiteKind::Memory));
                assert_eq!(l.site_kind(l.spare_vertical(r, c)), Some(SiteKind::Memory));
            }
        }
    }

    #[test]
    fn area_scales_with_units() {
        let l = Layout::new(1, 1);
        let a1 = l.area_m2();
        let l2 = Layout::new(2, 2);
        assert!((l2.area_m2() - 4.0 * a1).abs() < 1e-12);
        // 4 zones * 420 µm = 1.68 mm per side for a single unit.
        assert!((a1 - (4.0 * ZONE_WIDTH_M) * (4.0 * ZONE_WIDTH_M)).abs() < 1e-15);
    }

    #[test]
    fn render_ascii_has_expected_shape() {
        let l = Layout::new(1, 1);
        let art = l.render_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "JMOM");
        assert_eq!(lines[1], "M...");
        assert_eq!(lines[2], "O...");
        assert_eq!(lines[3], "M...");
    }
}
