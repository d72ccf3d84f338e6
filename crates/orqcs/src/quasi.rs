//! Monte-Carlo estimation of expectation values for near-Clifford circuits.
//!
//! The only non-Clifford native gate is `Z_{±π/8}` (the T gate), which TISCC
//! emits in the T-state injection circuit. Following the paper (Sec. 4.1):
//! "each non-Clifford gate is represented by a decomposition of Clifford
//! gates, and in each sample, only one of these Clifford gates is randomly
//! chosen to be simulated. … the weight of the sample is adjusted based on
//! the probability of the selected Clifford gate. Thus the expectation value
//! is computed via a Monte Carlo process."
//!
//! The estimator repeatedly runs the [`Interpreter`] in sampling mode and
//! averages `weight × ⟨P⟩_sample`. For circuits with `t` T gates the sample
//! variance scales with the one-norm `(√2)^{2t}`; TISCC only ever needs
//! `t = 1`, so a few thousand samples give per-mille accuracy.

use rand::Rng;

use tiscc_grid::QubitId;
use tiscc_hw::Circuit;
use tiscc_math::PauliOp;

use crate::interpreter::{Interpreter, NonCliffordPolicy, SimError};

/// Monte-Carlo quasi-Clifford expectation estimator.
#[derive(Clone, Debug)]
pub struct QuasiCliffordEstimator {
    samples: usize,
}

impl Default for QuasiCliffordEstimator {
    fn default() -> Self {
        QuasiCliffordEstimator { samples: 4000 }
    }
}

impl QuasiCliffordEstimator {
    /// An estimator that averages over `samples` Monte-Carlo shots.
    pub fn new(samples: usize) -> Self {
        assert!(samples > 0);
        QuasiCliffordEstimator { samples }
    }

    /// Number of Monte-Carlo shots per estimate.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Estimates the expectation value of a Hermitian Pauli operator (given
    /// over ions) at the end of `circuit`.
    ///
    /// Works for Clifford-only circuits too (every sample then has weight 1
    /// and the same ±1/0 value, so the estimate is exact).
    pub fn estimate_expectation<R: Rng + ?Sized>(
        &self,
        interpreter: &Interpreter,
        circuit: &Circuit,
        observable: &[(QubitId, PauliOp)],
        rng: &mut R,
    ) -> Result<f64, SimError> {
        let mut acc = 0.0f64;
        for _ in 0..self.samples {
            let result = interpreter.run_with_policy(circuit, rng, NonCliffordPolicy::Sample)?;
            let value = result.expectation_on_ions(observable) as f64;
            acc += result.sample_weight * value;
        }
        Ok(acc / self.samples as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tiscc_grid::QSite;
    use tiscc_hw::HardwareModel;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn clifford_circuit_estimates_are_exact() {
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        let snapshot = hw.grid().snapshot();
        hw.prepare_z(q).unwrap();
        hw.hadamard(q).unwrap();
        let interp = Interpreter::new(&snapshot);
        let est = QuasiCliffordEstimator::new(50);
        let x = est
            .estimate_expectation(&interp, hw.circuit(), &[(q, PauliOp::X)], &mut rng())
            .unwrap();
        let z = est
            .estimate_expectation(&interp, hw.circuit(), &[(q, PauliOp::Z)], &mut rng())
            .unwrap();
        assert!((x - 1.0).abs() < 1e-12);
        assert!(z.abs() < 1e-12);
    }

    #[test]
    fn t_state_expectations_converge_statistically() {
        // |T⟩ = T H |0⟩: ⟨X⟩ = ⟨Y⟩ = 1/√2 ≈ 0.7071, ⟨Z⟩ = 0.
        let mut hw = HardwareModel::new(1, 1);
        let q = hw.place_qubit(QSite::new(0, 1)).unwrap();
        let snapshot = hw.grid().snapshot();
        hw.prepare_z(q).unwrap();
        hw.hadamard(q).unwrap();
        hw.t_gate(q).unwrap();
        let interp = Interpreter::new(&snapshot);
        let est = QuasiCliffordEstimator::new(20000);
        let mut r = rng();
        let x =
            est.estimate_expectation(&interp, hw.circuit(), &[(q, PauliOp::X)], &mut r).unwrap();
        let y =
            est.estimate_expectation(&interp, hw.circuit(), &[(q, PauliOp::Y)], &mut r).unwrap();
        let z =
            est.estimate_expectation(&interp, hw.circuit(), &[(q, PauliOp::Z)], &mut r).unwrap();
        let target = std::f64::consts::FRAC_1_SQRT_2;
        assert!((x - target).abs() < 0.05, "⟨X⟩ = {x}");
        assert!((y - target).abs() < 0.05, "⟨Y⟩ = {y}");
        assert!(z.abs() < 0.05, "⟨Z⟩ = {z}");
    }

    #[test]
    fn default_sample_count_is_reasonable() {
        assert!(QuasiCliffordEstimator::default().samples() >= 1000);
    }
}
