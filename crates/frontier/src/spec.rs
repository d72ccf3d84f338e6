//! The frontier search specification: which slice of the
//! (layout × distance × profile) design space to evaluate.

use tiscc_hw::{HardwareSpec, SpecFingerprint};
use tiscc_program::{BudgetError, ErrorModel, LayoutSpec};

/// A Pareto-frontier search specification: the floorplans, code distances
/// and hardware profiles to cross, and the per-patch-step error model that
/// prices each distance.
///
/// Unlike `tiscc estimate`, a frontier search has **no error budget**: it
/// evaluates every odd distance in `[d_min, d_max]` and reports the
/// achieved error as one axis of each point, so a user can read off the
/// machine size that buys any target error instead of asking one budget at
/// a time.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontierSpec {
    /// Floorplans to place the program on (one sub-matrix per layout).
    pub layouts: Vec<LayoutSpec>,
    /// Smallest code distance to evaluate (rounded up to odd, floor 3).
    pub d_min: usize,
    /// Largest code distance to evaluate (rounded down to odd).
    pub d_max: usize,
    /// Hardware profiles to evaluate under.
    pub profiles: Vec<HardwareSpec>,
    /// The per-patch-step logical error model pricing each distance.
    pub model: ErrorModel,
}

impl FrontierSpec {
    /// A spec over the given layouts and profiles with the default error
    /// model and the conventional `d ∈ [3, 13]` sweep range.
    pub fn new(layouts: Vec<LayoutSpec>, profiles: Vec<HardwareSpec>) -> Self {
        FrontierSpec { layouts, d_min: 3, d_max: 13, profiles, model: ErrorModel::default() }
    }

    /// Replaces the distance range.
    pub fn with_distances(mut self, d_min: usize, d_max: usize) -> Self {
        self.d_min = d_min;
        self.d_max = d_max;
        self
    }

    /// Replaces the error model.
    pub fn with_model(mut self, model: ErrorModel) -> Self {
        self.model = model;
        self
    }

    /// Validates and normalizes the spec into the concrete job-matrix axes:
    /// duplicate layouts and duplicate profiles (same parameter
    /// fingerprint) are dropped — duplicate work is never scheduled — and
    /// the distance range is resolved to the odd distances the error-model
    /// ansatz covers. Empty axes are typed errors.
    pub fn normalize(&self) -> Result<NormalizedSpec, FrontierError> {
        self.model.validate().map_err(FrontierError::Model)?;
        if self.layouts.is_empty() {
            return Err(FrontierError::EmptyAxis { axis: "layouts" });
        }
        if self.profiles.is_empty() {
            return Err(FrontierError::EmptyAxis { axis: "profiles" });
        }
        let mut duplicates_dropped = 0usize;
        let mut layouts: Vec<LayoutSpec> = Vec::with_capacity(self.layouts.len());
        for &layout in &self.layouts {
            if layouts.contains(&layout) {
                duplicates_dropped += 1;
            } else {
                layouts.push(layout);
            }
        }
        let mut seen: Vec<SpecFingerprint> = Vec::with_capacity(self.profiles.len());
        let mut profiles: Vec<HardwareSpec> = Vec::with_capacity(self.profiles.len());
        for profile in &self.profiles {
            let fp = profile.fingerprint();
            if seen.contains(&fp) {
                duplicates_dropped += 1;
            } else {
                seen.push(fp);
                profiles.push(profile.clone());
            }
        }
        let lo = self.d_min.max(3);
        let lo = if lo.is_multiple_of(2) { lo + 1 } else { lo };
        let hi =
            if self.d_max.is_multiple_of(2) { self.d_max.saturating_sub(1) } else { self.d_max };
        let distances: Vec<usize> = (lo..=hi).step_by(2).collect();
        if distances.is_empty() {
            return Err(FrontierError::EmptyDistanceRange { d_min: self.d_min, d_max: self.d_max });
        }
        Ok(NormalizedSpec { layouts, distances, profiles, duplicates_dropped })
    }
}

/// The validated, deduplicated job-matrix axes of a [`FrontierSpec`]
/// (produced by [`FrontierSpec::normalize`]).
#[derive(Clone, Debug, PartialEq)]
pub struct NormalizedSpec {
    /// Distinct floorplans, in first-seen order.
    pub layouts: Vec<LayoutSpec>,
    /// The odd distances of the requested range, ascending.
    pub distances: Vec<usize>,
    /// Distinct hardware profiles (by parameter fingerprint), in
    /// first-seen order.
    pub profiles: Vec<HardwareSpec>,
    /// Duplicate layout/profile entries dropped during normalization.
    pub duplicates_dropped: usize,
}

impl NormalizedSpec {
    /// Number of matrix points: layouts × distances × profiles.
    pub fn matrix_len(&self) -> usize {
        self.layouts.len() * self.distances.len() * self.profiles.len()
    }
}

/// Errors raised by the frontier engine.
#[derive(Clone, Debug, PartialEq)]
pub enum FrontierError {
    /// A job-matrix axis (layouts or profiles) is empty.
    EmptyAxis {
        /// Which axis was empty.
        axis: &'static str,
    },
    /// The distance range contains no odd distance `≥ 3`.
    EmptyDistanceRange {
        /// Requested lower bound.
        d_min: usize,
        /// Requested upper bound.
        d_max: usize,
    },
    /// The error model is not physically meaningful.
    Model(BudgetError),
    /// The program failed validation.
    Program(String),
    /// The program does not fit (or cannot be routed on) a requested
    /// floorplan.
    Placement(String),
    /// A per-instruction compilation failed.
    Compile(String),
    /// The persistent cache directory could not be read or written.
    Cache(String),
}

impl std::fmt::Display for FrontierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontierError::EmptyAxis { axis } => {
                write!(f, "frontier spec has an empty {axis} list (nothing to evaluate)")
            }
            FrontierError::EmptyDistanceRange { d_min, d_max } => write!(
                f,
                "frontier distance range [{d_min}, {d_max}] contains no odd distance >= 3 \
                 (the error-model ansatz covers odd distances only)"
            ),
            FrontierError::Model(e) => write!(f, "{e}"),
            FrontierError::Program(e) => write!(f, "invalid program: {e}"),
            FrontierError::Placement(e) => write!(f, "{e}"),
            FrontierError::Compile(e) => write!(f, "compilation failed: {e}"),
            FrontierError::Cache(e) => write!(f, "persistent cache failure: {e}"),
        }
    }
}

impl std::error::Error for FrontierError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_dedupes_layouts_and_profiles() {
        let spec = FrontierSpec::new(
            vec![
                LayoutSpec::row_major().with_grid(8, 8),
                LayoutSpec::checkerboard().with_grid(8, 8),
                LayoutSpec::row_major().with_grid(8, 8),
            ],
            vec![HardwareSpec::h1(), HardwareSpec::h1(), HardwareSpec::projected()],
        );
        let norm = spec.normalize().unwrap();
        assert_eq!(norm.layouts.len(), 2);
        assert_eq!(norm.profiles.len(), 2);
        assert_eq!(norm.duplicates_dropped, 2);
        assert_eq!(norm.profiles[0].name, "h1", "first-seen order is preserved");
    }

    #[test]
    fn normalize_resolves_odd_distances() {
        let spec = FrontierSpec::new(vec![LayoutSpec::default()], vec![HardwareSpec::h1()]);
        assert_eq!(spec.normalize().unwrap().distances, vec![3, 5, 7, 9, 11, 13]);
        let even_ends = spec.clone().with_distances(4, 10);
        assert_eq!(even_ends.normalize().unwrap().distances, vec![5, 7, 9]);
        let degenerate = spec.clone().with_distances(1, 3);
        assert_eq!(degenerate.normalize().unwrap().distances, vec![3]);
        assert_eq!(
            spec.clone().with_distances(6, 6).normalize(),
            Err(FrontierError::EmptyDistanceRange { d_min: 6, d_max: 6 })
        );
    }

    #[test]
    fn empty_axes_are_typed_errors() {
        let no_layouts = FrontierSpec::new(vec![], vec![HardwareSpec::h1()]);
        assert_eq!(no_layouts.normalize(), Err(FrontierError::EmptyAxis { axis: "layouts" }));
        let no_profiles = FrontierSpec::new(vec![LayoutSpec::default()], vec![]);
        assert_eq!(no_profiles.normalize(), Err(FrontierError::EmptyAxis { axis: "profiles" }));
        let msg = no_profiles.normalize().unwrap_err().to_string();
        assert!(msg.contains("profiles"), "{msg}");
    }

    #[test]
    fn invalid_models_are_rejected_before_any_work() {
        let mut spec = FrontierSpec::new(vec![LayoutSpec::default()], vec![HardwareSpec::h1()]);
        spec.model = ErrorModel { p_physical: 1.0, p_threshold: 0.01, prefactor: 0.1 };
        assert!(matches!(spec.normalize(), Err(FrontierError::Model(_))));
    }
}
