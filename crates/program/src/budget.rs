//! The per-step logical error model and error-budget distance selection.
//!
//! The estimator spends a *logical error budget* across the program: every
//! allocated tile accrues one unit of logical failure probability per
//! logical time step (a *patch-step*), following the standard
//! sub-threshold scaling ansatz
//!
//! ```text
//! p_L(d) = A · (p / p_th) ^ ⌈d / 2⌉
//! ```
//!
//! with physical error rate `p`, threshold `p_th` and prefactor `A`
//! (Fowler et al.; the Azure QRE uses the same shape; `⌈d/2⌉` is the
//! number of physical faults a distance-`d` code cannot correct, also
//! written `⌊(d+1)/2⌋`). The ansatz is only meaningful at **odd**
//! distances: an even `d` adds a qubit row over `d − 1` but corrects no
//! additional fault, so its exponent — and hence its predicted `p_L` —
//! collapses onto `d − 1`'s. Distance selection therefore walks odd `d`
//! upward from 3 and returns the smallest odd distance whose total
//! program error meets the budget — monotone in the budget by
//! construction, which the property tests pin down. Even distances are
//! rejected with a typed error by [`ErrorModel::checked_logical_error_per_patch_step`].

use std::fmt;

/// A configurable per-patch-step logical error model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorModel {
    /// Physical error rate per operation (`p`).
    pub p_physical: f64,
    /// Fault-tolerance threshold of the code under this hardware (`p_th`).
    pub p_threshold: f64,
    /// Scaling prefactor (`A`).
    pub prefactor: f64,
}

impl Default for ErrorModel {
    /// The conventional surface-code working point: `p = 10⁻³`,
    /// `p_th = 10⁻²`, `A = 0.1`.
    fn default() -> Self {
        ErrorModel { p_physical: 1e-3, p_threshold: 1e-2, prefactor: 0.1 }
    }
}

impl ErrorModel {
    /// Checks the model is physically meaningful: positive parameters and
    /// sub-threshold operation (`p < p_th`, otherwise increasing the
    /// distance makes things worse and no budget is reachable).
    pub fn validate(&self) -> Result<(), BudgetError> {
        if !(self.p_physical > 0.0 && self.p_threshold > 0.0 && self.prefactor > 0.0) {
            return Err(BudgetError::InvalidModel(
                "error-model parameters must be positive".to_string(),
            ));
        }
        if self.p_physical >= self.p_threshold {
            return Err(BudgetError::InvalidModel(format!(
                "physical error rate {} is not below threshold {}",
                self.p_physical, self.p_threshold
            )));
        }
        Ok(())
    }

    /// Logical error probability of one patch over one logical time step
    /// at code distance `d`: `A · (p / p_th) ^ ⌈d/2⌉`.
    ///
    /// This raw accessor evaluates the ansatz formula at any `d` (sweep
    /// grids deliberately include even distances to chart the scaling);
    /// consumers selecting an operating distance should go through
    /// [`Self::checked_logical_error_per_patch_step`], which rejects the
    /// distances the ansatz does not model.
    pub fn logical_error_per_patch_step(&self, d: usize) -> f64 {
        let exponent = d.div_ceil(2) as i32;
        self.prefactor * (self.p_physical / self.p_threshold).powi(exponent)
    }

    /// [`Self::logical_error_per_patch_step`] restricted to the distances
    /// the ansatz actually models: odd `d ≥ 3`. An even `d` corrects no
    /// more faults than `d − 1` (its exponent collapses onto `d − 1`'s),
    /// so accepting it would silently overstate the code's protection.
    pub fn checked_logical_error_per_patch_step(&self, d: usize) -> Result<f64, BudgetError> {
        if d.is_multiple_of(2) {
            return Err(BudgetError::EvenDistance { d });
        }
        if d < 3 {
            return Err(BudgetError::InvalidModel(format!(
                "code distance must be at least 3, got {d}"
            )));
        }
        Ok(self.logical_error_per_patch_step(d))
    }

    /// Total program logical error over `patch_steps` patch-steps at
    /// distance `d` (union bound, saturated at 1).
    pub fn program_error(&self, d: usize, patch_steps: u64) -> f64 {
        (patch_steps as f64 * self.logical_error_per_patch_step(d)).min(1.0)
    }

    /// The smallest **odd** code distance `d ≥ 3` whose total program
    /// error over `patch_steps` patch-steps meets `budget`, searching up
    /// to `d_max` (an even `d_max` caps the search at `d_max − 1`, since
    /// even distances are not modeled — see
    /// [`Self::checked_logical_error_per_patch_step`]). A `d_max` below 3
    /// leaves nothing to search and is rejected as an invalid model.
    pub fn select_distance(
        &self,
        patch_steps: u64,
        budget: f64,
        d_max: usize,
    ) -> Result<usize, BudgetError> {
        self.validate()?;
        if budget.is_nan() || budget <= 0.0 {
            return Err(BudgetError::InvalidModel(format!(
                "error budget must be positive, got {budget}"
            )));
        }
        if d_max < 3 {
            return Err(BudgetError::InvalidModel(format!(
                "maximum code distance d_max must be at least 3, got {d_max}"
            )));
        }
        let d_top = if d_max.is_multiple_of(2) { d_max - 1 } else { d_max };
        for d in (3..=d_top).step_by(2) {
            if self.program_error(d, patch_steps) <= budget {
                return Ok(d);
            }
        }
        Err(BudgetError::Unsatisfiable {
            budget,
            d_max: d_top,
            error_at_d_max: self.program_error(d_top, patch_steps),
        })
    }
}

/// Errors raised during distance selection.
#[derive(Clone, Debug, PartialEq)]
pub enum BudgetError {
    /// The error model (or budget) is not physically meaningful.
    InvalidModel(String),
    /// An even code distance was requested; the scaling ansatz only
    /// models odd distances (an even `d` corrects no more faults than
    /// `d − 1`).
    EvenDistance {
        /// The rejected (even) distance.
        d: usize,
    },
    /// No distance up to `d_max` meets the budget.
    Unsatisfiable {
        /// The requested budget.
        budget: f64,
        /// The largest distance searched.
        d_max: usize,
        /// The achieved program error at `d_max`.
        error_at_d_max: f64,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::InvalidModel(msg) => write!(f, "invalid error model: {msg}"),
            BudgetError::EvenDistance { d } => write!(
                f,
                "code distance d={d} is even; the scaling ansatz only models odd \
                 distances (use d={} or d={})",
                d.saturating_sub(1).max(3),
                d + 1
            ),
            BudgetError::Unsatisfiable { budget, d_max, error_at_d_max } => {
                write!(
                    f,
                    "no distance up to d={d_max} meets the requested budget {budget:e}: \
                     the best achievable error is {error_at_d_max:e} at d={d_max}"
                )?;
                // The shortfall factor tells the user at a glance whether a
                // slightly larger --dmax could close the gap or the budget
                // is orders of magnitude out of reach.
                let shortfall = error_at_d_max / budget;
                if shortfall.is_finite() {
                    write!(f, ", {shortfall:.1e}x over budget")?;
                }
                write!(f, "; raise --dmax or loosen the budget")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_error_decreases_with_distance() {
        let m = ErrorModel::default();
        let mut last = f64::INFINITY;
        for d in (3..=25).step_by(2) {
            let p = m.checked_logical_error_per_patch_step(d).unwrap();
            assert!(p < last, "p_L must be strictly decreasing in odd d");
            assert!(p > 0.0);
            last = p;
        }
        // d=3: 0.1 * (0.1)^2 = 1e-3.
        assert!((m.logical_error_per_patch_step(3) - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn even_and_degenerate_distances_are_rejected() {
        let m = ErrorModel::default();
        assert_eq!(
            m.checked_logical_error_per_patch_step(4),
            Err(BudgetError::EvenDistance { d: 4 })
        );
        let msg = m.checked_logical_error_per_patch_step(20).unwrap_err().to_string();
        assert!(msg.contains("d=20") && msg.contains("d=19") && msg.contains("d=21"), "{msg}");
        assert!(matches!(
            m.checked_logical_error_per_patch_step(1),
            Err(BudgetError::InvalidModel(_))
        ));
        // The even distance would otherwise silently claim d-1's protection.
        assert_eq!(m.logical_error_per_patch_step(4), m.logical_error_per_patch_step(3));
    }

    #[test]
    fn select_distance_returns_the_smallest_satisfying_odd_distance() {
        let m = ErrorModel::default();
        let d = m.select_distance(100, 1e-9, 35).unwrap();
        assert_eq!(d % 2, 1, "selected distances are odd");
        assert!(m.program_error(d, 100) <= 1e-9);
        assert!(m.program_error(d - 2, 100) > 1e-9, "d is minimal among odd distances");
        // An even d_max caps the search at d_max - 1.
        let err = m.select_distance(u64::MAX, 1e-30, 20).unwrap_err();
        assert!(matches!(err, BudgetError::Unsatisfiable { d_max: 19, .. }), "{err}");
    }

    #[test]
    fn tighter_budgets_never_shrink_the_distance() {
        let m = ErrorModel::default();
        let loose = m.select_distance(1000, 1e-6, 45).unwrap();
        let tight = m.select_distance(1000, 1e-12, 45).unwrap();
        assert!(tight >= loose);
    }

    #[test]
    fn unsatisfiable_and_invalid_inputs_error() {
        let m = ErrorModel::default();
        assert!(matches!(
            m.select_distance(u64::MAX, 1e-30, 3),
            Err(BudgetError::Unsatisfiable { .. })
        ));
        assert!(m.select_distance(1, 0.0, 25).is_err());
        let above_threshold =
            ErrorModel { p_physical: 0.5, p_threshold: 1e-2, ..ErrorModel::default() };
        assert!(matches!(
            above_threshold.select_distance(1, 1e-9, 25),
            Err(BudgetError::InvalidModel(_))
        ));
        let err = m.select_distance(u64::MAX, 1e-30, 3).unwrap_err();
        assert!(err.to_string().contains("--dmax"));
        // A d_max below 3 is rejected, not silently raised to 3.
        let err = m.select_distance(0, 0.5, 2).unwrap_err();
        assert!(matches!(err, BudgetError::InvalidModel(_)), "{err}");
        assert!(err.to_string().contains("d_max must be at least 3, got 2"), "{err}");
        assert_eq!(m.select_distance(0, 0.5, 3), Ok(3));
    }

    #[test]
    fn unsatisfiable_message_names_budget_best_achievable_and_shortfall() {
        let m = ErrorModel::default();
        // 100 patch-steps at d=5: 100 * 0.1 * (0.1)^3 ≈ 1e-2 best achievable.
        let err = m.select_distance(100, 1e-8, 5).unwrap_err();
        let BudgetError::Unsatisfiable { budget, d_max, error_at_d_max } = err.clone() else {
            panic!("expected Unsatisfiable, got {err:?}");
        };
        assert_eq!((budget, d_max), (1e-8, 5));
        assert!((error_at_d_max - 1e-2).abs() < 1e-15);
        let msg = err.to_string();
        assert!(msg.contains("requested budget 1e-8"), "{msg}");
        assert!(msg.contains("best achievable error is 1"), "{msg}");
        assert!(msg.contains("at d=5"), "{msg}");
        assert!(msg.contains("1.0e6x over budget"), "{msg}");
        assert!(msg.contains("raise --dmax or loosen the budget"), "{msg}");
    }

    #[test]
    fn zero_patch_steps_select_the_smallest_distance() {
        let m = ErrorModel::default();
        assert_eq!(m.select_distance(0, 1e-15, 25).unwrap(), 3);
    }
}
