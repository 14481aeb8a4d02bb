//! The quantum gate set used throughout the paper (Section 2 and Section 3).
//!
//! Single-qubit gates are represented as dense 2x2 unitaries, two-qubit gates
//! as 4x4 unitaries. The fault-tolerant gate set of Section 3 (Pauli, H, S, T,
//! CNOT) is covered, plus the Pauli-rotation gates `R_P(theta) = exp(-i theta P / 2)`
//! that dominate the cost model in Section 7.

use crate::complex::{Complex, C_I, C_ONE, C_ZERO};
use crate::stabilizer::check_clifford;

/// A dense 2x2 complex matrix (row-major). Used for single-qubit unitaries.
pub type Mat2 = [[Complex; 2]; 2];
/// A dense 4x4 complex matrix (row-major). Used for two-qubit unitaries.
pub type Mat4 = [[Complex; 4]; 4];

/// `1/sqrt(2)`, the Hadamard normalization.
const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// A single-qubit Pauli operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Pauli X (bit flip).
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z (phase flip).
    Z,
}

impl Pauli {
    /// The 2x2 matrix of this Pauli operator.
    pub fn matrix(self) -> Mat2 {
        match self {
            Pauli::X => [[C_ZERO, C_ONE], [C_ONE, C_ZERO]],
            Pauli::Y => [[C_ZERO, -C_I], [C_I, C_ZERO]],
            Pauli::Z => [[C_ONE, C_ZERO], [C_ZERO, -C_ONE]],
        }
    }
}

/// A single-qubit gate.
///
/// `Rx/Ry/Rz(theta)` denote the Pauli rotations `exp(-i theta P / 2)` from the
/// paper's Section 2. `U` carries an arbitrary unitary for completeness (used
/// by tests and by gate-fusion utilities).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S† = diag(1, -i).
    Sdg,
    /// T = diag(1, e^{i pi/4}) = sqrt(S). The costly gate of Section 3.
    T,
    /// T† = diag(1, e^{-i pi/4}).
    Tdg,
    /// X rotation `exp(-i theta X / 2)`.
    Rx(f64),
    /// Y rotation `exp(-i theta Y / 2)`.
    Ry(f64),
    /// Z rotation `exp(-i theta Z / 2)`.
    Rz(f64),
    /// Phase rotation diag(1, e^{i theta}).
    Phase(f64),
    /// Arbitrary single-qubit unitary.
    U(Mat2),
}

impl Gate {
    /// The 2x2 unitary matrix of this gate.
    pub fn matrix(&self) -> Mat2 {
        let h = FRAC_1_SQRT_2;
        match *self {
            Gate::X => Pauli::X.matrix(),
            Gate::Y => Pauli::Y.matrix(),
            Gate::Z => Pauli::Z.matrix(),
            Gate::H => [
                [Complex::real(h), Complex::real(h)],
                [Complex::real(h), Complex::real(-h)],
            ],
            Gate::S => [[C_ONE, C_ZERO], [C_ZERO, C_I]],
            Gate::Sdg => [[C_ONE, C_ZERO], [C_ZERO, -C_I]],
            Gate::T => [
                [C_ONE, C_ZERO],
                [C_ZERO, Complex::cis(std::f64::consts::FRAC_PI_4)],
            ],
            Gate::Tdg => [
                [C_ONE, C_ZERO],
                [C_ZERO, Complex::cis(-std::f64::consts::FRAC_PI_4)],
            ],
            Gate::Rx(t) => {
                let c = Complex::real((t / 2.0).cos());
                let s = Complex::new(0.0, -(t / 2.0).sin());
                [[c, s], [s, c]]
            }
            Gate::Ry(t) => {
                let c = Complex::real((t / 2.0).cos());
                let s = Complex::real((t / 2.0).sin());
                [[c, -s], [s, c]]
            }
            Gate::Rz(t) => [
                [Complex::cis(-t / 2.0), C_ZERO],
                [C_ZERO, Complex::cis(t / 2.0)],
            ],
            Gate::Phase(t) => [[C_ONE, C_ZERO], [C_ZERO, Complex::cis(t)]],
            Gate::U(m) => m,
        }
    }

    /// The inverse (Hermitian conjugate) of this gate.
    pub fn dagger(&self) -> Gate {
        match *self {
            Gate::X | Gate::Y | Gate::Z | Gate::H => *self,
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::Phase(t) => Gate::Phase(-t),
            Gate::U(m) => Gate::U(dagger2(&m)),
        }
    }

    /// Whether this gate is a member of the single-qubit Clifford group,
    /// by its matrix's conjugation action — the stabilizer tableau's own
    /// rule ([`crate::Tableau`]'s `check_1q`), so `Rz(π/2)` and a `U`
    /// holding a Clifford qualify and `T` does not. The stabilizer backend
    /// can only realize Clifford gates, so batching layers use this to
    /// reject non-Clifford gates *eagerly* instead of deferring the error
    /// to the next flush point.
    pub fn is_clifford(&self) -> bool {
        check_clifford(0, &self.matrix()).is_ok()
    }

    /// Whether this gate is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_) | Gate::Phase(_)
        ) || matches!(self, Gate::U(m) if m[0][1].is_negligible(1e-15) && m[1][0].is_negligible(1e-15))
    }
}

/// Hermitian conjugate of a 2x2 matrix.
pub fn dagger2(m: &Mat2) -> Mat2 {
    [
        [m[0][0].conj(), m[1][0].conj()],
        [m[0][1].conj(), m[1][1].conj()],
    ]
}

/// Product `a * b` of two 2x2 matrices.
pub fn matmul2(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [[C_ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// Product `a * b` of two 4x4 matrices.
pub fn matmul4(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [[C_ZERO; 4]; 4];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            let mut acc = C_ZERO;
            for (k, bk) in b.iter().enumerate() {
                acc += a[i][k] * bk[j];
            }
            *v = acc;
        }
    }
    out
}

/// The CNOT unitary, ordered as |control target> with the target in the low bit.
pub fn cnot_matrix() -> Mat4 {
    let mut m = [[C_ZERO; 4]; 4];
    m[0][0] = C_ONE;
    m[1][1] = C_ONE;
    m[2][3] = C_ONE;
    m[3][2] = C_ONE;
    m
}

/// The controlled-Z unitary (symmetric in control/target).
pub fn cz_matrix() -> Mat4 {
    let mut m = [[C_ZERO; 4]; 4];
    m[0][0] = C_ONE;
    m[1][1] = C_ONE;
    m[2][2] = C_ONE;
    m[3][3] = -C_ONE;
    m
}

/// The SWAP unitary.
pub fn swap_matrix() -> Mat4 {
    let mut m = [[C_ZERO; 4]; 4];
    m[0][0] = C_ONE;
    m[1][2] = C_ONE;
    m[2][1] = C_ONE;
    m[3][3] = C_ONE;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    /// Hermitian conjugate of a 4x4 matrix.
    fn dagger4(m: &Mat4) -> Mat4 {
        let mut out = [[C_ZERO; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = m[j][i].conj();
            }
        }
        out
    }

    /// Checks `u * u† = I` to tolerance `tol` for a 2x2 matrix.
    fn is_unitary2(m: &Mat2, tol: f64) -> bool {
        let p = matmul2(m, &dagger2(m));
        let id = [[C_ONE, C_ZERO], [C_ZERO, C_ONE]];
        (0..2).all(|i| (0..2).all(|j| p[i][j].approx_eq(id[i][j], tol)))
    }

    /// Checks `u * u† = I` to tolerance `tol` for a 4x4 matrix.
    fn is_unitary4(m: &Mat4, tol: f64) -> bool {
        let p = matmul4(m, &dagger4(m));
        (0..4).all(|i| {
            (0..4).all(|j| {
                let expect = if i == j { C_ONE } else { C_ZERO };
                p[i][j].approx_eq(expect, tol)
            })
        })
    }

    fn all_fixed_gates() -> Vec<Gate> {
        vec![
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
        ]
    }

    #[test]
    fn fixed_gates_are_unitary() {
        for g in all_fixed_gates() {
            assert!(is_unitary2(&g.matrix(), TOL), "{g:?} not unitary");
        }
    }

    #[test]
    fn rotations_are_unitary() {
        for k in -8..=8 {
            let t = k as f64 * 0.37;
            for g in [Gate::Rx(t), Gate::Ry(t), Gate::Rz(t), Gate::Phase(t)] {
                assert!(is_unitary2(&g.matrix(), TOL), "{g:?} not unitary");
            }
        }
    }

    #[test]
    fn gate_times_dagger_is_identity() {
        for g in all_fixed_gates() {
            let p = matmul2(&g.matrix(), &g.dagger().matrix());
            assert!(p[0][0].approx_eq(C_ONE, TOL));
            assert!(p[1][1].approx_eq(C_ONE, TOL));
            assert!(p[0][1].approx_eq(C_ZERO, TOL));
            assert!(p[1][0].approx_eq(C_ZERO, TOL));
        }
    }

    #[test]
    fn s_is_t_squared() {
        let t2 = matmul2(&Gate::T.matrix(), &Gate::T.matrix());
        let s = Gate::S.matrix();
        for i in 0..2 {
            for j in 0..2 {
                assert!(t2[i][j].approx_eq(s[i][j], TOL));
            }
        }
    }

    #[test]
    fn z_is_s_squared() {
        let s2 = matmul2(&Gate::S.matrix(), &Gate::S.matrix());
        let z = Gate::Z.matrix();
        for i in 0..2 {
            for j in 0..2 {
                assert!(s2[i][j].approx_eq(z[i][j], TOL));
            }
        }
    }

    #[test]
    fn hxh_equals_z() {
        // H X H = Z, the identity behind Fig. 1(a).
        let h = Gate::H.matrix();
        let hxh = matmul2(&matmul2(&h, &Gate::X.matrix()), &h);
        let z = Gate::Z.matrix();
        for i in 0..2 {
            for j in 0..2 {
                assert!(hxh[i][j].approx_eq(z[i][j], TOL));
            }
        }
    }

    #[test]
    fn rz_pi_is_z_up_to_phase() {
        // Rz(pi) = -i Z.
        let rz = Gate::Rz(std::f64::consts::PI).matrix();
        let z = Gate::Z.matrix();
        let phase = Complex::cis(-std::f64::consts::FRAC_PI_2);
        for i in 0..2 {
            for j in 0..2 {
                assert!(rz[i][j].approx_eq(phase * z[i][j], TOL));
            }
        }
    }

    #[test]
    fn two_qubit_matrices_are_unitary() {
        assert!(is_unitary4(&cnot_matrix(), TOL));
        assert!(is_unitary4(&cz_matrix(), TOL));
        assert!(is_unitary4(&swap_matrix(), TOL));
    }

    #[test]
    fn cnot_is_h_cz_h_fig1a() {
        // Fig. 1(a): CNOT = (I ⊗ H) CZ (I ⊗ H), H on the target (low) qubit.
        let h = Gate::H.matrix();
        let mut ih = [[C_ZERO; 4]; 4]; // I ⊗ H acting on |c t>, t low bit
        for c in 0..2 {
            for t_out in 0..2 {
                for t_in in 0..2 {
                    ih[c * 2 + t_out][c * 2 + t_in] = h[t_out][t_in];
                }
            }
        }
        let prod = matmul4(&matmul4(&ih, &cz_matrix()), &ih);
        let cnot = cnot_matrix();
        for i in 0..4 {
            for j in 0..4 {
                assert!(prod[i][j].approx_eq(cnot[i][j], TOL), "mismatch at {i},{j}");
            }
        }
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Z.is_diagonal());
        assert!(Gate::Rz(0.3).is_diagonal());
        assert!(Gate::T.is_diagonal());
        assert!(!Gate::X.is_diagonal());
        assert!(!Gate::H.is_diagonal());
        assert!(!Gate::Rx(0.3).is_diagonal());
    }
}
