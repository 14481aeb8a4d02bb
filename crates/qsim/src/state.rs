//! Dense state-vector representation.
//!
//! A register of `n` qubits is stored as `2^n` complex amplitudes; qubit `k`
//! corresponds to bit `k` of the basis-state index (qubit 0 is the least
//! significant bit). Qubits can be appended (tensor with |0>) and removed
//! (after collapse), which is what the dynamic `QMPI_Alloc_qmem` /
//! `QMPI_Free_qmem` interface of the paper's prototype requires. Removal
//! compacts the vector in place and keeps its capacity, so the append that
//! follows a removal only zero-fills: an alloc/free pair allocates nothing.
//!
//! The dense state is the one-stripe case of [`crate::stripe`]: its
//! [`AmpStore`] implementation checks operands, turns positions into bit
//! masks, and runs the stripe kernels over the whole vector at `base = 0`,
//! the element-wise ones split across two threads on a long vector (the
//! split entries in `stripe/split.rs`, same bits). No per-amplitude
//! arithmetic is defined here except the 4×4 [`State::apply_2q`], which no
//! engine executes and the fast-path tests use as their reference.

use crate::batch::SweepFactor;
use crate::complex::{Complex, C_ONE, C_ZERO};
use crate::gates::{Mat2, Mat4};
use crate::measure::PauliTerm;
use crate::sim::{AmpStore, SimError};
use crate::stripe::{self, split};

/// Numerical tolerance used for normalization and classicality checks.
pub const NORM_TOL: f64 = 1e-9;

/// The qubit budget of every dense-amplitude engine: `2^29` amplitudes
/// (8 GiB) is the widest register a [`State`] or a remote-sharded state
/// will hold or a sparse state will materialize.
pub const MAX_DENSE_QUBITS: usize = 29;

/// A pure quantum state over `n` qubits as a dense amplitude vector.
#[derive(Clone, Debug)]
pub struct State {
    amps: Vec<Complex>,
    n_qubits: usize,
}

impl State {
    /// Creates the all-zeros state |0...0> over `n_qubits` qubits.
    ///
    /// `n_qubits == 0` yields the scalar state (a single amplitude of 1),
    /// which is the correct identity for tensoring.
    pub fn zero(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= MAX_DENSE_QUBITS,
            "state vector of {n_qubits} qubits would not fit in memory (MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS})"
        );
        let mut amps = vec![C_ZERO; 1usize << n_qubits];
        amps[0] = C_ONE;
        State { amps, n_qubits }
    }

    /// Builds a state from raw amplitudes. The length must be a power of two
    /// and the vector must be normalized to within [`NORM_TOL`].
    pub fn from_amplitudes(amps: Vec<Complex>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "amplitude count must be a power of two"
        );
        let n_qubits = amps.len().trailing_zeros() as usize;
        let state = State { amps, n_qubits };
        assert!(
            (state.norm_sqr() - 1.0).abs() < NORM_TOL,
            "state not normalized: |psi|^2 = {}",
            state.norm_sqr()
        );
        state
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of amplitudes (`2^n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// True for the 0-qubit scalar state.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_qubits == 0
    }

    /// Read-only view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable view of the amplitudes.
    #[inline]
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// The amplitude of computational basis state `index`.
    #[inline]
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// Total squared norm (should always be ~1).
    pub fn norm_sqr(&self) -> f64 {
        stripe::norm_sqr(&self.amps)
    }

    /// Rescales so that the squared norm is exactly 1.
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        assert!(n > 0.0, "cannot renormalize the zero vector");
        split::scale(&mut self.amps, 1.0 / n);
    }

    /// Applies an arbitrary two-qubit unitary to qubits `(q1, q0)`, where `q0`
    /// indexes the low bit of the 4x4 matrix and `q1` the high bit. Not on
    /// any engine's gate path: it is the independent reference the
    /// CNOT/CZ/SWAP fast-path tests compare against.
    pub fn apply_2q(&mut self, q1: usize, q0: usize, m: &Mat4) {
        let n = self.n_qubits;
        assert!(q0 < n && q1 < n, "qubit out of range (n={n})");
        assert_ne!(q0, q1, "two-qubit gate needs distinct qubits");
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let quarter = self.amps.len() / 4;
        let (lo_bit, hi_bit) = if q0 < q1 { (b0, b1) } else { (b1, b0) };
        let amps = &mut self.amps;
        for i in 0..quarter {
            // Spread i over positions with both gate bits cleared.
            let mut base = i & (lo_bit - 1);
            let mid = (i & !(lo_bit - 1)) << 1;
            base |= mid & (hi_bit - 1);
            base |= (mid & !(hi_bit - 1)) << 1;
            let idx = [base, base | b0, base | b1, base | b0 | b1];
            let a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
            for (r, &out_i) in idx.iter().enumerate() {
                let mut acc = C_ZERO;
                for (c, &ac) in a.iter().enumerate() {
                    acc += m[r][c] * ac;
                }
                amps[out_i] = acc;
            }
        }
    }

    /// Bit of position `q`, checked against the register width.
    fn bit_of(&self, q: usize) -> usize {
        let n = self.n_qubits;
        assert!(q < n, "qubit {q} out of range (n={n})");
        1usize << q
    }

    /// Bit mask of the listed positions, each checked against the register
    /// width.
    fn mask_of(&self, qubits: &[usize]) -> usize {
        qubits.iter().fold(0, |mask, &q| mask | self.bit_of(q))
    }

    /// Removes `target`, keeping its `outcome` branch, which holds the
    /// `kept` mass, scaled by one over its square root.
    fn remove_collapsed(&mut self, target: usize, outcome: bool, kept: f64) {
        split::collapse_remove(&mut self.amps, target, outcome, kept);
        self.n_qubits -= 1;
    }

    /// Checks a two-qubit fast-path operand pair and returns its bits.
    fn pair_bits(&self, a: usize, b: usize, what: &str) -> (usize, usize) {
        let n = self.n_qubits;
        assert!(a < n && b < n, "qubit out of range (n={n})");
        assert_ne!(a, b, "{what} needs distinct qubits");
        (1usize << a, 1usize << b)
    }

    /// Tensor product `self ⊗ other`: `other`'s qubits become the new
    /// high-order qubits `self.n_qubits ..`.
    pub fn tensor(&self, other: &State) -> State {
        let mut amps = vec![C_ZERO; self.amps.len() * other.amps.len()];
        for (j, &b) in other.amps.iter().enumerate() {
            if b.is_negligible(1e-300) {
                continue;
            }
            let base = j << self.n_qubits;
            for (i, &a) in self.amps.iter().enumerate() {
                amps[base | i] = a * b;
            }
        }
        State {
            amps,
            n_qubits: self.n_qubits + other.n_qubits,
        }
    }

    /// Inner product `<self|other>`.
    pub fn inner_product(&self, other: &State) -> Complex {
        assert_eq!(self.n_qubits, other.n_qubits, "dimension mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .fold(C_ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// Fidelity `|<self|other>|^2` between two pure states.
    pub fn fidelity(&self, other: &State) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Returns a copy of this state with qubits re-ordered so that old qubit
    /// `perm[k]` becomes new qubit `k`. `perm` must be a permutation of
    /// `0..n_qubits`.
    pub fn permuted(&self, perm: &[usize]) -> State {
        assert_eq!(perm.len(), self.n_qubits, "permutation length mismatch");
        let mut seen = vec![false; self.n_qubits];
        for &p in perm {
            assert!(p < self.n_qubits && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        let mut amps = vec![C_ZERO; self.amps.len()];
        for (i, &a) in self.amps.iter().enumerate() {
            let mut j = 0usize;
            for (new_bit, &old_bit) in perm.iter().enumerate() {
                j |= ((i >> old_bit) & 1) << new_bit;
            }
            amps[j] = a;
        }
        State {
            amps,
            n_qubits: self.n_qubits,
        }
    }

    /// Probability that measuring all qubits yields the basis state `index`.
    #[inline]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Checks approximate equality up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &State, tol: f64) -> bool {
        if self.n_qubits != other.n_qubits {
            return false;
        }
        (self.fidelity(other) - 1.0).abs() < tol
    }
}

/// The 0-qubit register: one amplitude of 1.
impl Default for State {
    fn default() -> Self {
        State::zero(0)
    }
}

impl AmpStore for State {
    fn add_qubit(&mut self) -> usize {
        assert!(
            self.n_qubits < MAX_DENSE_QUBITS,
            "qubit budget exhausted (MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS})"
        );
        let idx = self.n_qubits;
        self.amps.resize(self.amps.len() * 2, C_ZERO);
        self.n_qubits += 1;
        idx
    }

    fn remove_qubit(&mut self, target: usize, outcome: bool) {
        let masses = split::masses(&self.amps, self.bit_of(target));
        let (kept, dropped) = (
            masses[usize::from(outcome)],
            masses[usize::from(!outcome)].finish(),
        );
        assert!(
            dropped < NORM_TOL,
            "removing qubit {target} with outcome {outcome} would discard {dropped:.3e} probability; collapse it first"
        );
        self.remove_collapsed(target, outcome, kept.finish());
    }

    fn apply_1q(&mut self, controls: &[usize], target: usize, m: &Mat2) {
        let (cmask, tbit) = (self.mask_of(controls), self.bit_of(target));
        assert_eq!(cmask & tbit, 0, "control equals target");
        split::apply_within(stripe::PairKernel::Mat(*m), &mut self.amps, cmask, tbit);
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        let (cbit, tbit) = self.pair_bits(control, target, "CNOT");
        split::apply_within(stripe::PairKernel::Swap, &mut self.amps, cbit, tbit);
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        let (abit, bbit) = self.pair_bits(a, b, "CZ");
        split::phase_flip(&mut self.amps, abit | bbit);
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        let (abit, bbit) = (self.bit_of(a), self.bit_of(b));
        if a != b {
            split::swap_within(&mut self.amps, abit, bbit);
        }
    }

    fn apply_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    ) {
        for &q in positions.iter().chain(czs.iter().flat_map(|(a, b)| [a, b])) {
            self.bit_of(q);
        }
        let (factors, flips) = stripe::sweep_masks(positions, diags, czs);
        split::phase_sweep(&mut self.amps, &factors, &flips);
    }

    fn collapse_remove(&mut self, target: usize, outcome: bool) {
        let tbit = self.bit_of(target);
        let want = if outcome { tbit } else { 0 };
        let kept = stripe::masked_norm(&self.amps, 0, tbit, want);
        self.remove_collapsed(target, outcome, kept);
    }

    /// Sums the outcome's branch mass once, for the draw and the collapse
    /// both (the two masses on two threads above the split threshold).
    fn measure_and_remove(&mut self, target: usize, u: f64) -> bool {
        let (outcome, kept) = split::measure(&self.amps, self.bit_of(target), u);
        self.remove_collapsed(target, outcome, kept);
        outcome
    }

    fn parity_prob_odd(&self, qubits: &[usize]) -> f64 {
        split::parity_prob_odd(&self.amps, self.mask_of(qubits))
    }

    fn collapse_parity(&mut self, qubits: &[usize], odd: bool) {
        let mask = self.mask_of(qubits);
        let kept = stripe::collapse_parity(&mut self.amps, 0, mask, odd);
        split::scale(&mut self.amps, stripe::renormalizer(kept.finish()));
    }

    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        split::expectation_each(&self.amps, &[terms.to_vec()])[0]
    }

    fn expectation_pauli_each(&self, strings: &[Vec<PauliTerm>]) -> Vec<f64> {
        split::expectation_each(&self.amps, strings)
    }

    fn snapshot(&self, perm: &[usize]) -> Result<State, SimError> {
        Ok(self.permuted(perm))
    }

    fn amplitude_of(&self, ones: &[usize]) -> Result<Complex, SimError> {
        Ok(self.amps[self.mask_of(ones)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::gates::{cnot_matrix, cz_matrix, swap_matrix, Gate, Pauli};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TOL: f64 = 1e-10;

    fn basis(n: usize, idx: usize) -> State {
        let mut amps = vec![C_ZERO; 1 << n];
        amps[idx] = C_ONE;
        State::from_amplitudes(amps)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Joint Z-parity measurement at the store level (over one position, a
    /// computational-basis measurement): the front's draw-then-collapse
    /// sequence.
    fn measure_z_parity(s: &mut State, qubits: &[usize], rng: &mut StdRng) -> bool {
        let outcome = rng.gen::<f64>() < s.parity_prob_odd(qubits);
        s.collapse_parity(qubits, outcome);
        outcome
    }

    #[test]
    fn zero_state_has_unit_amp_at_origin() {
        let s = State::zero(3);
        assert_eq!(s.len(), 8);
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "MAX_DENSE_QUBITS = 29")]
    fn zero_state_past_the_budget_panics_before_allocating() {
        let _ = State::zero(MAX_DENSE_QUBITS + 1);
    }

    #[test]
    fn add_qubit_preserves_amplitudes() {
        let mut s = State::from_amplitudes(vec![
            Complex::real(FRAC),
            Complex::real(FRAC),
            Complex::real(FRAC),
            Complex::real(FRAC),
        ]);
        let idx = s.add_qubit();
        assert_eq!(idx, 2);
        assert_eq!(s.n_qubits(), 3);
        for i in 0..4 {
            assert!((s.probability(i) - 0.25).abs() < 1e-12);
        }
        for i in 4..8 {
            assert!(s.probability(i) < 1e-15);
        }
    }

    const FRAC: f64 = 0.5;

    #[test]
    fn remove_qubit_shifts_higher_indices() {
        // |psi> = (|000> + |101>)/sqrt(2) over qubits (q2 q1 q0); collapse q1=0, remove it.
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let mut amps = vec![crate::complex::C_ZERO; 8];
        amps[0b000] = Complex::real(h);
        amps[0b101] = Complex::real(h);
        let mut s = State::from_amplitudes(amps);
        s.remove_qubit(1, false);
        assert_eq!(s.n_qubits(), 2);
        // Expect (|00> + |11>)/sqrt(2) over (q2->q1, q0).
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "discard")]
    fn remove_uncollapsed_qubit_panics() {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let amps = vec![Complex::real(h), Complex::real(h)];
        let mut s = State::from_amplitudes(amps);
        s.remove_qubit(0, false);
    }

    /// Seeded generic amplitudes over `n` qubits with `target` all but
    /// collapsed onto `outcome`: the other branch keeps amplitudes small
    /// enough to pass `remove_qubit`'s check and large enough that the
    /// dropped mass and the renormalisation are not trivial.
    fn nearly_collapsed(n: usize, target: usize, outcome: bool, rng: &mut StdRng) -> Vec<Complex> {
        let mut amps: Vec<Complex> = (0..1usize << n)
            .map(|i| {
                let a = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                if (i >> target) & 1 == outcome as usize {
                    a
                } else {
                    a.scale(1e-6)
                }
            })
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        stripe::scale(&mut amps, 1.0 / norm);
        amps
    }

    fn bits(amps: &[Complex]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    #[test]
    fn in_place_remove_equals_the_copying_form_bit_for_bit() {
        let mut r = rng();
        for n in 1..=8usize {
            for target in 0..n {
                for outcome in [false, true] {
                    let amps = nearly_collapsed(n, target, outcome, &mut r);
                    let case = (n, target, outcome);
                    // The copying form, then the same renormalisation.
                    let (copied, dropped) = stripe::remove_qubit_flat(&amps, target, outcome);
                    assert!(dropped > 0.0 && dropped < NORM_TOL, "{case:?}: {dropped:e}");
                    let mut want = State {
                        amps: copied,
                        n_qubits: n - 1,
                    };
                    want.renormalize();
                    let mut in_place = amps.clone();
                    let mass = stripe::remove_qubit_in_place(&mut in_place, target, outcome);
                    assert_eq!(mass.to_bits(), dropped.to_bits(), "{case:?}");
                    let mut got = State::from_amplitudes(amps);
                    got.remove_qubit(target, outcome);
                    assert_eq!(got.n_qubits(), n - 1, "{case:?}");
                    assert_eq!(bits(got.amplitudes()), bits(want.amplitudes()), "{case:?}");
                }
            }
        }
    }

    #[test]
    fn collapse_remove_equals_collapse_then_remove_bit_for_bit() {
        let mut r = rng();
        for n in 1..=12usize {
            // Generic angles on every amplitude, a few exact zeros.
            let raw: Vec<Complex> = (0..1usize << n)
                .map(|i| match i % 11 {
                    5 => C_ZERO,
                    _ => Complex::new(r.gen::<f64>() - 0.5, r.gen::<f64>() - 0.5),
                })
                .collect();
            let norm = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            let amps: Vec<Complex> = raw.iter().map(|a| a.scale(1.0 / norm)).collect();
            for target in 0..n {
                for outcome in [false, true] {
                    // The collapse's one rescale, then the position dropped.
                    let mut want = State::from_amplitudes(amps.clone());
                    want.collapse_parity(&[target], outcome);
                    stripe::remove_qubit_in_place(&mut want.amps, target, outcome);
                    let mut got = State::from_amplitudes(amps.clone());
                    let capacity = got.amps.capacity();
                    got.collapse_remove(target, outcome);
                    let case = (n, target, outcome);
                    assert_eq!(got.n_qubits(), n - 1, "{case:?}");
                    assert_eq!(bits(got.amplitudes()), bits(want.amplitudes()), "{case:?}");
                    assert!(got.amps.capacity() >= capacity, "{case:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability-zero outcome")]
    fn collapse_remove_onto_a_probability_zero_outcome_panics() {
        basis(3, 0b010).collapse_remove(1, false);
    }

    #[test]
    #[should_panic(expected = "probability-zero outcome")]
    fn collapse_parity_onto_a_probability_zero_outcome_panics() {
        basis(3, 0b010).collapse_parity(&[1], false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn collapse_remove_past_the_register_panics() {
        basis(3, 0b010).collapse_remove(3, false);
    }

    #[test]
    fn remove_keeps_the_capacity_and_the_next_add_only_zero_fills() {
        let mut r = rng();
        for (target, outcome) in [(0, false), (3, true), (5, false)] {
            let mut s = State::from_amplitudes(nearly_collapsed(6, target, outcome, &mut r));
            let (capacity, ptr) = (s.amps.capacity(), s.amps.as_ptr());
            s.remove_qubit(target, outcome);
            assert_eq!(s.len(), 32);
            assert!(s.amps.capacity() >= capacity, "capacity shrank on remove");
            let kept = bits(s.amplitudes());
            assert_eq!(s.add_qubit(), 5);
            assert_eq!(s.amps.as_ptr(), ptr, "add after remove reallocated");
            assert_eq!(s.amps.capacity(), capacity);
            assert_eq!(bits(&s.amplitudes()[..32]), kept);
            // The new half is +0.0 throughout: nothing the compaction left
            // behind past the halved length shows through.
            assert!(bits(&s.amplitudes()[32..]).iter().all(|&b| b == (0, 0)));
        }
    }

    #[test]
    fn tensor_of_plus_states() {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let plus = State::from_amplitudes(vec![Complex::real(h), Complex::real(h)]);
        let two = plus.tensor(&plus);
        assert_eq!(two.n_qubits(), 2);
        for i in 0..4 {
            assert!((two.probability(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn inner_product_orthogonal_states() {
        let zero = State::zero(1);
        let one = State::from_amplitudes(vec![crate::complex::C_ZERO, crate::complex::C_ONE]);
        assert!(zero.inner_product(&one).norm_sqr() < 1e-15);
        assert!((zero.fidelity(&zero) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_swaps_qubits() {
        // |01> (q1=0, q0=1) permuted by [1,0] becomes |10>.
        let mut amps = vec![crate::complex::C_ZERO; 4];
        amps[0b01] = crate::complex::C_ONE;
        let s = State::from_amplitudes(amps);
        let p = s.permuted(&[1, 0]);
        assert!((p.probability(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_identity_is_noop() {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let amps = vec![
            Complex::real(h),
            crate::complex::C_ZERO,
            crate::complex::C_ZERO,
            Complex::real(h),
        ];
        let s = State::from_amplitudes(amps);
        let p = s.permuted(&[0, 1]);
        assert!((s.fidelity(&p) - 1.0).abs() < 1e-12);
    }

    // Gate kernels through the store entry points.

    #[test]
    fn x_flips_basis_state() {
        let mut s = State::zero(1);
        s.apply_1q(&[], 0, &Gate::X.matrix());
        assert!((s.probability(1) - 1.0).abs() < TOL);
    }

    #[test]
    fn h_creates_uniform_superposition() {
        let mut s = State::zero(3);
        for q in 0..3 {
            s.apply_1q(&[], q, &Gate::H.matrix());
        }
        for i in 0..8 {
            assert!((s.probability(i) - 0.125).abs() < TOL);
        }
    }

    #[test]
    fn hh_is_identity() {
        let mut s = basis(2, 0b10);
        s.apply_1q(&[], 1, &Gate::H.matrix());
        s.apply_1q(&[], 1, &Gate::H.matrix());
        assert!((s.probability(0b10) - 1.0).abs() < TOL);
    }

    #[test]
    fn cnot_fast_path_matches_matrix() {
        for init in 0..4 {
            let mut s1 = basis(2, init);
            let mut s2 = basis(2, init);
            s1.apply_cnot(1, 0);
            // cnot_matrix is ordered |c t> with t low, matching (q1=control, q0=target).
            s2.apply_2q(1, 0, &cnot_matrix());
            assert!((s1.fidelity(&s2) - 1.0).abs() < TOL, "init={init}");
        }
    }

    #[test]
    fn cnot_reversed_operands() {
        // Control on low bit: |01> -> |11>.
        let mut s = basis(2, 0b01);
        s.apply_cnot(0, 1);
        assert!((s.probability(0b11) - 1.0).abs() < TOL);
    }

    #[test]
    fn cz_fast_path_matches_matrix() {
        let mut s1 = State::zero(2);
        let mut s2 = State::zero(2);
        for q in 0..2 {
            s1.apply_1q(&[], q, &Gate::H.matrix());
            s2.apply_1q(&[], q, &Gate::H.matrix());
        }
        s1.apply_cz(0, 1);
        s2.apply_2q(1, 0, &cz_matrix());
        assert!((s1.fidelity(&s2) - 1.0).abs() < TOL);
    }

    #[test]
    fn swap_fast_path_matches_matrix() {
        let mut s1 = basis(2, 0b01);
        let mut s2 = basis(2, 0b01);
        s1.apply_swap(0, 1);
        s2.apply_2q(1, 0, &swap_matrix());
        assert!((s1.fidelity(&s2) - 1.0).abs() < TOL);
        assert!((s1.probability(0b10) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_pair_construction() {
        let mut s = State::zero(2);
        s.apply_1q(&[], 0, &Gate::H.matrix());
        s.apply_cnot(0, 1);
        assert!((s.probability(0b00) - 0.5).abs() < TOL);
        assert!((s.probability(0b11) - 0.5).abs() < TOL);
        assert!(s.probability(0b01) < TOL);
        assert!(s.probability(0b10) < TOL);
    }

    #[test]
    fn toffoli_truth_table() {
        for init in 0..8usize {
            let mut s = basis(3, init);
            s.apply_1q(&[2, 1], 0, &Gate::X.matrix());
            let expect = if init & 0b110 == 0b110 {
                init ^ 1
            } else {
                init
            };
            assert!((s.probability(expect) - 1.0).abs() < TOL, "init={init}");
        }
    }

    #[test]
    fn controlled_gate_with_zero_control_is_identity() {
        let mut s = basis(2, 0b00);
        s.apply_1q(&[1], 0, &Gate::X.matrix());
        assert!((s.probability(0b00) - 1.0).abs() < TOL);
    }

    #[test]
    fn large_state_do_undo_returns_to_zero() {
        // 15 qubits => 32768 amplitudes: the one kernel set at a size past
        // the small-state tests, with the target above and below the control.
        let n = 15;
        let mut big = State::zero(n);
        for q in 0..n {
            big.apply_1q(&[], q, &Gate::H.matrix());
        }
        big.apply_1q(&[], 7, &Gate::Rz(0.3).matrix());
        big.apply_1q(&[3], 7, &Gate::Ry(1.1).matrix());
        for q in 0..n {
            big.apply_1q(&[], q, &Gate::H.matrix());
        }
        assert!((big.norm_sqr() - 1.0).abs() < 1e-9);
        // Undo everything and verify we return to |0...0>.
        for q in 0..n {
            big.apply_1q(&[], q, &Gate::H.matrix());
        }
        big.apply_1q(&[3], 7, &Gate::Ry(-1.1).matrix());
        big.apply_1q(&[], 7, &Gate::Rz(-0.3).matrix());
        for q in 0..n {
            big.apply_1q(&[], q, &Gate::H.matrix());
        }
        assert!((big.probability(0) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn norm_preserved_under_random_circuit() {
        let mut s = State::zero(6);
        let gates = [
            Gate::H,
            Gate::Rx(0.4),
            Gate::T,
            Gate::Ry(2.2),
            Gate::S,
            Gate::Rz(-0.9),
        ];
        for (i, g) in gates.iter().enumerate() {
            s.apply_1q(&[], i % 6, &g.matrix());
            s.apply_cnot(i % 6, (i + 1) % 6);
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phase_gate_only_affects_one_branch() {
        let mut s = State::zero(1);
        s.apply_1q(&[], 0, &Gate::H.matrix());
        s.apply_1q(&[], 0, &Gate::Phase(std::f64::consts::PI).matrix());
        s.apply_1q(&[], 0, &Gate::H.matrix());
        // H Z H = X, so we should be in |1>.
        assert!((s.probability(1) - 1.0).abs() < TOL);
    }

    #[test]
    fn apply_2q_general_unitary_preserves_norm() {
        // Use an arbitrary product of the fixed 4x4 unitaries.
        let m = crate::gates::matmul4(&cnot_matrix(), &cz_matrix());
        let mut s = State::zero(4);
        for q in 0..4 {
            s.apply_1q(&[], q, &Gate::H.matrix());
        }
        s.apply_2q(3, 1, &m);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fanout_parallel_controls_fig2() {
        // Fig. 2: fanout of control qubit, controlled gates in parallel on
        // distinct targets, then unfanout — equals two gates controlled on
        // the original qubit.
        let u1 = Gate::Ry(0.7);
        let u2 = Gate::Rz(1.3);
        // Reference: both controlled on qubit 0 directly. Targets 1, 2.
        let mut reference = State::zero(4);
        reference.apply_1q(&[], 0, &Gate::H.matrix());
        reference.apply_1q(&[0], 1, &u1.matrix());
        reference.apply_1q(&[0], 2, &u2.matrix());
        // Fanout version: qubit 3 is the auxiliary copy.
        let mut fan = State::zero(4);
        fan.apply_1q(&[], 0, &Gate::H.matrix());
        fan.apply_cnot(0, 3); // fanout
        fan.apply_1q(&[0], 1, &u1.matrix());
        fan.apply_1q(&[3], 2, &u2.matrix());
        fan.apply_cnot(0, 3); // unfanout
        assert!((reference.fidelity(&fan) - 1.0).abs() < TOL);
    }

    // Probabilities, collapse, parity and Pauli expectations.

    #[test]
    fn prob_one_of_zero_state_is_zero() {
        let s = State::zero(2);
        assert!(s.parity_prob_odd(&[0]) < TOL);
        assert!(s.parity_prob_odd(&[1]) < TOL);
    }

    #[test]
    fn prob_one_after_x() {
        let mut s = State::zero(2);
        s.apply_1q(&[], 1, &Gate::X.matrix());
        assert!((s.parity_prob_odd(&[1]) - 1.0).abs() < TOL);
        assert!(s.parity_prob_odd(&[0]) < TOL);
    }

    #[test]
    fn measurement_statistics_of_plus_state() {
        let mut ones = 0u32;
        let trials = 2000;
        let mut r = rng();
        for _ in 0..trials {
            let mut s = State::zero(1);
            s.apply_1q(&[], 0, &Gate::H.matrix());
            if measure_z_parity(&mut s, &[0], &mut r) {
                ones += 1;
            }
        }
        let frac = ones as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn measurement_collapses_entanglement() {
        let mut r = rng();
        for _ in 0..50 {
            let mut s = State::zero(2);
            s.apply_1q(&[], 0, &Gate::H.matrix());
            s.apply_cnot(0, 1);
            let m0 = measure_z_parity(&mut s, &[0], &mut r);
            let m1 = measure_z_parity(&mut s, &[1], &mut r);
            assert_eq!(m0, m1, "EPR halves must agree");
        }
    }

    #[test]
    fn collapse_renormalizes() {
        let mut s = State::zero(1);
        s.apply_1q(&[], 0, &Gate::Ry(1.0).matrix());
        s.collapse_parity(&[0], true);
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
        assert!((s.parity_prob_odd(&[0]) - 1.0).abs() < TOL);
    }

    #[test]
    fn parity_measurement_of_epr_pair_is_even() {
        let mut r = rng();
        for _ in 0..20 {
            let mut s = State::zero(2);
            s.apply_1q(&[], 0, &Gate::H.matrix());
            s.apply_cnot(0, 1);
            // EPR pair lives entirely in the even-parity subspace.
            assert!(!measure_z_parity(&mut s, &[0, 1], &mut r));
            // State must still be the EPR pair (projection was trivial).
            assert!((s.probability(0b00) - 0.5).abs() < TOL);
            assert!((s.probability(0b11) - 0.5).abs() < TOL);
        }
    }

    #[test]
    fn parity_measurement_preserves_superposition() {
        // |++> has equal weight in both parity sectors; after measurement the
        // state is a GHZ-like superposition within one sector.
        let mut r = rng();
        let mut s = State::zero(2);
        s.apply_1q(&[], 0, &Gate::H.matrix());
        s.apply_1q(&[], 1, &Gate::H.matrix());
        let odd = measure_z_parity(&mut s, &[0, 1], &mut r);
        if odd {
            assert!((s.probability(0b01) - 0.5).abs() < TOL);
            assert!((s.probability(0b10) - 0.5).abs() < TOL);
        } else {
            assert!((s.probability(0b00) - 0.5).abs() < TOL);
            assert!((s.probability(0b11) - 0.5).abs() < TOL);
        }
        assert!((s.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn expectation_z_of_zero_and_one() {
        let s = State::zero(1);
        assert!(
            (s.expectation_pauli(&[PauliTerm {
                qubit: 0,
                op: Pauli::Z
            }]) - 1.0)
                .abs()
                < TOL
        );
        let mut s1 = State::zero(1);
        s1.apply_1q(&[], 0, &Gate::X.matrix());
        assert!(
            (s1.expectation_pauli(&[PauliTerm {
                qubit: 0,
                op: Pauli::Z
            }]) + 1.0)
                .abs()
                < TOL
        );
    }

    #[test]
    fn expectation_x_of_plus_state() {
        let mut s = State::zero(1);
        s.apply_1q(&[], 0, &Gate::H.matrix());
        assert!(
            (s.expectation_pauli(&[PauliTerm {
                qubit: 0,
                op: Pauli::X
            }]) - 1.0)
                .abs()
                < TOL
        );
        assert!(
            s.expectation_pauli(&[PauliTerm {
                qubit: 0,
                op: Pauli::Z
            }])
            .abs()
                < TOL
        );
    }

    #[test]
    fn expectation_y_of_y_eigenstate() {
        // S H |0> = (|0> + i|1>)/sqrt(2), the +1 eigenstate of Y.
        let mut s = State::zero(1);
        s.apply_1q(&[], 0, &Gate::H.matrix());
        s.apply_1q(&[], 0, &Gate::S.matrix());
        assert!(
            (s.expectation_pauli(&[PauliTerm {
                qubit: 0,
                op: Pauli::Y
            }]) - 1.0)
                .abs()
                < TOL
        );
    }

    #[test]
    fn expectation_zz_of_epr_pair() {
        let mut s = State::zero(2);
        s.apply_1q(&[], 0, &Gate::H.matrix());
        s.apply_cnot(0, 1);
        let zz = s.expectation_pauli(&[
            PauliTerm {
                qubit: 0,
                op: Pauli::Z,
            },
            PauliTerm {
                qubit: 1,
                op: Pauli::Z,
            },
        ]);
        let xx = s.expectation_pauli(&[
            PauliTerm {
                qubit: 0,
                op: Pauli::X,
            },
            PauliTerm {
                qubit: 1,
                op: Pauli::X,
            },
        ]);
        let yy = s.expectation_pauli(&[
            PauliTerm {
                qubit: 0,
                op: Pauli::Y,
            },
            PauliTerm {
                qubit: 1,
                op: Pauli::Y,
            },
        ]);
        // Bell state (|00>+|11>)/sqrt(2): <ZZ> = <XX> = 1, <YY> = -1.
        assert!((zz - 1.0).abs() < TOL);
        assert!((xx - 1.0).abs() < TOL);
        assert!((yy + 1.0).abs() < TOL);
    }
}
