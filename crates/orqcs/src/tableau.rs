//! Stabilizer tableau simulation (Aaronson–Gottesman style) with exact sign
//! tracking.
//!
//! The state of `n` qubits is represented by `n` stabilizer generators and
//! `n` destabilizer generators, each a phase-tracked [`Pauli`]. All native
//! Clifford gates, Z-basis measurements (random outcomes drawn from a caller
//! provided RNG), qubit resets, Pauli-string expectation values and
//! stabilizer-group membership tests are supported. This is the engine behind
//! the ORQCS-style verification of TISCC circuits (paper Sec. 4).

use rand::Rng;

use tiscc_math::{F2Matrix, Pauli, PauliOp};

use crate::gates::{Clifford1Q, Clifford2Q};

/// A stabilizer state on `n` qubits.
#[derive(Clone, Debug)]
pub struct StabilizerTableau {
    n: usize,
    stabs: Vec<Pauli>,
    destabs: Vec<Pauli>,
}

impl StabilizerTableau {
    /// The all-|0⟩ state: stabilizers `Z_i`, destabilizers `X_i`.
    pub fn zero_state(n: usize) -> Self {
        let stabs = (0..n).map(|i| Pauli::single(n, i, PauliOp::Z)).collect();
        let destabs = (0..n).map(|i| Pauli::single(n, i, PauliOp::X)).collect();
        StabilizerTableau { n, stabs, destabs }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The current stabilizer generators.
    pub fn stabilizers(&self) -> &[Pauli] {
        &self.stabs
    }

    /// Applies a single-qubit Clifford (given by its conjugation action) to
    /// `qubit`.
    pub fn apply_1q(&mut self, qubit: usize, action: &Clifford1Q) {
        assert!(qubit < self.n);
        let img_x = action.x_pauli();
        let img_z = action.z_pauli();
        for row in self.stabs.iter_mut().chain(self.destabs.iter_mut()) {
            conjugate_row_1q(row, qubit, &img_x, &img_z);
        }
    }

    /// Applies a two-qubit Clifford (given by its conjugation action) to
    /// `(q1, q2)`, in that operand order.
    pub fn apply_2q(&mut self, q1: usize, q2: usize, action: &Clifford2Q) {
        assert!(q1 < self.n && q2 < self.n && q1 != q2);
        let images = action.images();
        for row in self.stabs.iter_mut().chain(self.destabs.iter_mut()) {
            conjugate_row_2q(row, q1, q2, &images);
        }
    }

    /// Measures `qubit` in the Z basis. Returns `(outcome, deterministic)`;
    /// random outcomes are drawn from `rng`.
    pub fn measure_z<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> (bool, bool) {
        let anticommuting: Vec<usize> =
            (0..self.n).filter(|&i| self.stabs[i].x_bits().get(qubit)).collect();

        if let Some(&p) = anticommuting.first() {
            // Random outcome.
            let outcome = rng.gen_bool(0.5);
            let pivot = self.stabs[p].clone();
            // Every other generator (stabilizer or destabilizer) that
            // anticommutes with Z_qubit gets multiplied by the pivot.
            for i in 0..self.n {
                if i != p && self.stabs[i].x_bits().get(qubit) {
                    let mut row = self.stabs[i].clone();
                    row.mul_assign(&pivot);
                    self.stabs[i] = row;
                }
                if self.destabs[i].x_bits().get(qubit) {
                    let mut row = self.destabs[i].clone();
                    row.mul_assign(&pivot);
                    self.destabs[i] = row;
                }
            }
            // The old pivot becomes the destabilizer; the new stabilizer is
            // ±Z_qubit according to the outcome.
            self.destabs[p] = pivot;
            let mut new_stab = Pauli::single(self.n, qubit, PauliOp::Z);
            if outcome {
                new_stab.negate();
            }
            self.stabs[p] = new_stab;
            (outcome, false)
        } else {
            // Deterministic: Z_qubit is in the stabilizer group. Accumulate
            // the product of stabilizers whose destabilizer partner
            // anticommutes with Z_qubit; the resulting sign is the outcome.
            let mut scratch = Pauli::identity(self.n);
            for i in 0..self.n {
                if self.destabs[i].x_bits().get(qubit) {
                    scratch.mul_assign(&self.stabs[i]);
                }
            }
            debug_assert_eq!(scratch.op_at(qubit), PauliOp::Z);
            debug_assert_eq!(scratch.weight(), 1);
            let sign = scratch.hermitian_sign().expect("stabilizer rows are Hermitian");
            (sign == -1, true)
        }
    }

    /// Resets `qubit` to |0⟩ (measure in Z, flip with X if the outcome was 1).
    pub fn reset_z<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) {
        let (outcome, _) = self.measure_z(qubit, rng);
        if outcome {
            // Conjugate by X ≅ X_{π/2}: Z -> -Z.
            let flip = Clifford1Q { x_image: (PauliOp::X, false), z_image: (PauliOp::Z, true) };
            self.apply_1q(qubit, &flip);
        }
    }

    /// The expectation value of a Hermitian Pauli operator in the current
    /// state: `+1`/`-1` if (minus) the operator is in the stabilizer group,
    /// `0` if it anticommutes with some stabilizer.
    pub fn expectation(&self, op: &Pauli) -> i8 {
        assert_eq!(op.num_qubits(), self.n, "operator size mismatch");
        let op_sign = op.hermitian_sign().expect("expectation requires a Hermitian Pauli operator");
        if self.stabs.iter().any(|s| !s.commutes_with(op)) {
            return 0;
        }
        // Solve for the generator combination reproducing the operator's bits.
        let mut matrix = F2Matrix::new(2 * self.n);
        for s in &self.stabs {
            matrix.push_row(s.symplectic());
        }
        let combo = matrix
            .solve_combination(&op.symplectic())
            .expect("commuting Pauli must be in the stabilizer group of a stabilizer state");
        let mut prod = Pauli::identity(self.n);
        for idx in combo {
            prod.mul_assign(&self.stabs[idx]);
        }
        let prod_sign = prod.hermitian_sign().expect("products of stabilizers are Hermitian");
        op_sign * prod_sign
    }
}

/// Conjugates one tableau row by a single-qubit Clifford on `qubit`.
///
/// The row is stored in the normal form `i^φ · Π_j X_j^{x_j} Z_j^{z_j}`;
/// factors on different qubits commute and carry no relative phase, so the
/// conjugation only needs to replace the local `X^x Z^z` factor by the
/// phase-tracked product of the generator images and fold the product's
/// phase into `φ`. This keeps the update `O(1)` per row.
fn conjugate_row_1q(row: &mut Pauli, qubit: usize, img_x: &Pauli, img_z: &Pauli) {
    let has_x = row.x_bits().get(qubit);
    let has_z = row.z_bits().get(qubit);
    if !has_x && !has_z {
        return;
    }
    // Compute image_X^x * image_Z^z on one qubit, tracking the phase.
    let mut local = Pauli::identity(1);
    if has_x {
        local.mul_assign(img_x);
    }
    if has_z {
        local.mul_assign(img_z);
    }
    row.set_bits_at(qubit, local.x_bits().get(0), local.z_bits().get(0));
    row.mul_phase(local.phase_exponent());
}

/// Conjugates one tableau row by a two-qubit Clifford on `(q1, q2)`.
fn conjugate_row_2q(row: &mut Pauli, q1: usize, q2: usize, images: &[Pauli; 4]) {
    let (x1, z1) = (row.x_bits().get(q1), row.z_bits().get(q1));
    let (x2, z2) = (row.x_bits().get(q2), row.z_bits().get(q2));
    if !x1 && !z1 && !x2 && !z2 {
        return;
    }
    // local = imgX1^x1 * imgZ1^z1 * imgX2^x2 * imgZ2^z2 on two qubits. This
    // is exactly the conjugated image of the row's local factor written in
    // normal form (X before Z on each qubit).
    let mut local = Pauli::identity(2);
    if x1 {
        local.mul_assign(&images[0]);
    }
    if z1 {
        local.mul_assign(&images[1]);
    }
    if x2 {
        local.mul_assign(&images[2]);
    }
    if z2 {
        local.mul_assign(&images[3]);
    }
    row.set_bits_at(q1, local.x_bits().get(0), local.z_bits().get(0));
    row.set_bits_at(q2, local.x_bits().get(1), local.z_bits().get(1));
    row.mul_phase(local.phase_exponent());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{clifford_1q, clifford_zz};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tiscc_hw::NativeOp;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    fn pauli(n: usize, ops: &[(usize, PauliOp)]) -> Pauli {
        Pauli::from_sparse(n, ops)
    }

    #[test]
    fn zero_state_expectations() {
        let t = StabilizerTableau::zero_state(3);
        assert_eq!(t.expectation(&pauli(3, &[(0, PauliOp::Z)])), 1);
        assert_eq!(t.expectation(&pauli(3, &[(1, PauliOp::X)])), 0);
        assert_eq!(t.expectation(&pauli(3, &[(0, PauliOp::Z), (2, PauliOp::Z)])), 1);
        let mut neg = pauli(3, &[(0, PauliOp::Z)]);
        neg.negate();
        assert_eq!(t.expectation(&neg), -1);
    }

    #[test]
    fn hadamard_then_measure_is_random_and_repeatable() {
        let h = clifford_1q(NativeOp::YPi4).unwrap(); // part of H; use full H below
        let _ = h;
        let mut t = StabilizerTableau::zero_state(1);
        // H = Y_{π/4} ∘ Z_{π/2}
        t.apply_1q(0, &clifford_1q(NativeOp::ZPi2).unwrap());
        t.apply_1q(0, &clifford_1q(NativeOp::YPi4).unwrap());
        assert_eq!(t.expectation(&pauli(1, &[(0, PauliOp::X)])), 1);
        assert_eq!(t.expectation(&pauli(1, &[(0, PauliOp::Z)])), 0);
        let mut r = rng();
        let (first, deterministic) = t.measure_z(0, &mut r);
        assert!(!deterministic);
        // Once measured, the outcome repeats deterministically.
        let (second, deterministic2) = t.measure_z(0, &mut r);
        assert!(deterministic2);
        assert_eq!(first, second);
    }

    #[test]
    fn zz_gate_builds_correct_entangling_action() {
        // Build a Bell pair with H on qubit 0 and CNOT(0,1) compiled the same
        // way the hardware model does (H_t, S†_c, S†_t, ZZ, H_t).
        let mut t = StabilizerTableau::zero_state(2);
        let zpi2 = clifford_1q(NativeOp::ZPi2).unwrap();
        let ypi4 = clifford_1q(NativeOp::YPi4).unwrap();
        let sdag = clifford_1q(NativeOp::ZPi4Dag).unwrap();
        let zz = clifford_zz();
        // H on control.
        t.apply_1q(0, &zpi2);
        t.apply_1q(0, &ypi4);
        // CNOT(0 -> 1).
        t.apply_1q(1, &zpi2);
        t.apply_1q(1, &ypi4);
        t.apply_1q(0, &sdag);
        t.apply_1q(1, &sdag);
        t.apply_2q(0, 1, &zz);
        t.apply_1q(1, &zpi2);
        t.apply_1q(1, &ypi4);

        assert_eq!(t.expectation(&pauli(2, &[(0, PauliOp::X), (1, PauliOp::X)])), 1);
        assert_eq!(t.expectation(&pauli(2, &[(0, PauliOp::Z), (1, PauliOp::Z)])), 1);
        assert_eq!(t.expectation(&pauli(2, &[(0, PauliOp::Y), (1, PauliOp::Y)])), -1);
        assert_eq!(t.expectation(&pauli(2, &[(0, PauliOp::Z)])), 0);
    }

    #[test]
    fn bell_pair_measurements_are_correlated() {
        let mut r = rng();
        for _ in 0..10 {
            let mut t = StabilizerTableau::zero_state(2);
            let zpi2 = clifford_1q(NativeOp::ZPi2).unwrap();
            let ypi4 = clifford_1q(NativeOp::YPi4).unwrap();
            let sdag = clifford_1q(NativeOp::ZPi4Dag).unwrap();
            t.apply_1q(0, &zpi2);
            t.apply_1q(0, &ypi4);
            t.apply_1q(1, &zpi2);
            t.apply_1q(1, &ypi4);
            t.apply_1q(0, &sdag);
            t.apply_1q(1, &sdag);
            t.apply_2q(0, 1, &clifford_zz());
            t.apply_1q(1, &zpi2);
            t.apply_1q(1, &ypi4);
            let (a, _) = t.measure_z(0, &mut r);
            let (b, det) = t.measure_z(1, &mut r);
            assert!(det, "second half of a Bell pair must be deterministic");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut r = rng();
        let mut t = StabilizerTableau::zero_state(1);
        t.apply_1q(0, &clifford_1q(NativeOp::ZPi2).unwrap());
        t.apply_1q(0, &clifford_1q(NativeOp::YPi4).unwrap());
        t.reset_z(0, &mut r);
        assert_eq!(t.expectation(&pauli(1, &[(0, PauliOp::Z)])), 1);
    }

    #[test]
    fn pauli_gates_flip_signs_of_stabilizers() {
        let mut t = StabilizerTableau::zero_state(1);
        // X (as X_{π/2}) maps the stabilizer Z to -Z.
        t.apply_1q(0, &clifford_1q(NativeOp::XPi2).unwrap());
        assert_eq!(t.expectation(&pauli(1, &[(0, PauliOp::Z)])), -1);
        // Applying it again restores +Z.
        t.apply_1q(0, &clifford_1q(NativeOp::XPi2).unwrap());
        assert_eq!(t.expectation(&pauli(1, &[(0, PauliOp::Z)])), 1);
    }

    #[test]
    fn s_gate_turns_plus_into_plus_i() {
        let mut t = StabilizerTableau::zero_state(1);
        t.apply_1q(0, &clifford_1q(NativeOp::ZPi2).unwrap());
        t.apply_1q(0, &clifford_1q(NativeOp::YPi4).unwrap());
        t.apply_1q(0, &clifford_1q(NativeOp::ZPi4).unwrap());
        assert_eq!(t.expectation(&pauli(1, &[(0, PauliOp::Y)])), 1);
        assert_eq!(t.expectation(&pauli(1, &[(0, PauliOp::X)])), 0);
    }

    #[test]
    fn ghz_state_stabilizers_via_repeated_cnot() {
        // |GHZ_3⟩ stabilized by XXX, ZZI, IZZ.
        let mut t = StabilizerTableau::zero_state(3);
        let zpi2 = clifford_1q(NativeOp::ZPi2).unwrap();
        let ypi4 = clifford_1q(NativeOp::YPi4).unwrap();
        let sdag = clifford_1q(NativeOp::ZPi4Dag).unwrap();
        let cnot = |t: &mut StabilizerTableau, c: usize, tq: usize| {
            t.apply_1q(tq, &zpi2);
            t.apply_1q(tq, &ypi4);
            t.apply_1q(c, &sdag);
            t.apply_1q(tq, &sdag);
            t.apply_2q(c, tq, &clifford_zz());
            t.apply_1q(tq, &zpi2);
            t.apply_1q(tq, &ypi4);
        };
        t.apply_1q(0, &zpi2);
        t.apply_1q(0, &ypi4);
        cnot(&mut t, 0, 1);
        cnot(&mut t, 1, 2);
        use PauliOp::*;
        assert_eq!(t.expectation(&pauli(3, &[(0, X), (1, X), (2, X)])), 1);
        assert_eq!(t.expectation(&pauli(3, &[(0, Z), (1, Z)])), 1);
        assert_eq!(t.expectation(&pauli(3, &[(1, Z), (2, Z)])), 1);
        assert_eq!(t.expectation(&pauli(3, &[(0, Z)])), 0);
    }
}
