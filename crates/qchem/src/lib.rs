//! # qchem — quantum-chemistry substrate for the QMPI reproduction
//!
//! Everything the paper's Section 7.3 evaluation needs, built from scratch
//! (replacing the PySCF + OpenFermion stack; DESIGN.md substitution #3):
//!
//! * STO-3G Gaussian integrals for hydrogen rings ([`integrals`]),
//!   validated against textbook H2 values and the H2 FCI energy;
//! * Löwdin orthogonalization via an in-repo Jacobi eigensolver
//!   ([`linalg`]);
//! * second-quantized Hamiltonians and their qubit images under the
//!   Jordan-Wigner and Bravyi-Kitaev encodings ([`encoding`],
//!   [`hamiltonian`]), verified through canonical anticommutation relations
//!   and encoding-independent spectra;
//! * the Fig. 5 term-weight histogram ([`histogram`]) and the Fig. 7
//!   per-term EPR cost model over block layouts ([`layout`]).

#![forbid(unsafe_code)]

pub mod dense;
pub mod encoding;
pub mod gaussian;
pub mod hamiltonian;
pub mod histogram;
pub mod integrals;
pub mod layout;
pub mod linalg;
pub mod molecule;
pub mod pauli;
pub mod trotter;

pub use encoding::Encoding;
pub use hamiltonian::{molecular_hamiltonian, qubit_hamiltonian};
pub use histogram::WeightHistogram;
pub use layout::{term_epr_cost, trotter_step_epr_cost, BlockLayout, CircuitMethod};
pub use molecule::Molecule;
pub use pauli::{Axis, PauliString, PauliSum, C64};
pub use trotter::{first_order_step, rotations_per_step, TrotterTerm};

#[cfg(test)]
mod proptests {
    use crate::pauli::{PauliString, PauliSum, C64};
    use proptest::prelude::*;

    fn arb_string() -> impl Strategy<Value = PauliString> {
        (any::<u64>(), any::<u64>()).prop_map(|(x, z)| PauliString { x, z })
    }

    proptest! {
        #[test]
        fn string_multiplication_is_associative(a in arb_string(), b in arb_string(), c in arb_string()) {
            let (k1, ab) = a.mul(&b);
            let (k2, ab_c) = ab.mul(&c);
            let (k3, bc) = b.mul(&c);
            let (k4, a_bc) = a.mul(&bc);
            prop_assert_eq!(ab_c, a_bc);
            prop_assert_eq!((k1 + k2) & 3, (k3 + k4) & 3);
        }

        #[test]
        fn string_squares_to_identity(a in arb_string()) {
            let (k, sq) = a.mul(&a);
            prop_assert_eq!(sq, PauliString::IDENTITY);
            prop_assert_eq!(k, 0, "P^2 = +I for named Pauli strings");
        }

        #[test]
        fn commutation_matches_product_order(a in arb_string(), b in arb_string()) {
            let (k_ab, s_ab) = a.mul(&b);
            let (k_ba, s_ba) = b.mul(&a);
            prop_assert_eq!(s_ab, s_ba);
            if a.commutes_with(&b) {
                prop_assert_eq!(k_ab, k_ba);
            } else {
                prop_assert_eq!((k_ab + 2) & 3, k_ba & 3, "anticommuting strings differ by -1");
            }
        }

        #[test]
        fn weight_bounded_by_support(a in arb_string()) {
            prop_assert_eq!(a.weight(), a.support().count_ones());
            prop_assert!(a.y_count() <= a.weight());
        }

        #[test]
        fn sum_addition_commutes(xs in proptest::collection::vec((any::<u32>(), -5.0f64..5.0), 1..20) ) {
            let mut fwd = PauliSum::zero();
            for &(m, c) in &xs {
                fwd.add_term(PauliString::z_mask(m as u64), C64::real(c));
            }
            let mut rev = PauliSum::zero();
            for &(m, c) in xs.iter().rev() {
                rev.add_term(PauliString::z_mask(m as u64), C64::real(c));
            }
            for (s, c) in fwd.iter() {
                let c2 = rev.coeff(s);
                prop_assert!((c.re - c2.re).abs() < 1e-12);
            }
        }
    }
}
