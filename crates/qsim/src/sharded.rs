//! The stripe layout in one address space.
//!
//! [`ShardedState`] stores the `2^n` amplitudes of an `n`-qubit register as
//! `2^k` *contiguous* stripes. Stripe `s` holds the amplitudes whose global
//! basis-state index has top bits `s`; the low `n - k` bits address within a
//! stripe. That fixes how every operation decomposes:
//!
//! * a gate on a **low** qubit (bit index `< n - k`) touches every stripe
//!   but only *within-stripe* amplitude pairs;
//! * a gate on a **high** qubit (bit index `>= n - k`) pairs stripe `s` with
//!   stripe `s | 2^(q - (n-k))`, offset for offset;
//! * a diagonal gate is stripe-local wherever its qubits sit;
//! * a reduction (probability, collapse norm, parity mass) is one exact
//!   partial sum per stripe, merged.
//!
//! This is the layout of the process-separated engine's workers, with the
//! same [`crate::stripe`] kernel called per stripe with the same `base`,
//! minus the transport: cutting the vector
//! into blocks changes where amplitudes live, never the answer. It is what
//! tells a layout bug from a transport or planner bug. The type is an
//! [`AmpStore`] like the dense [`State`] and is driven by the one simulator
//! front ([`crate::sim::AmpSim`]); it has no locks and spawns no threads.

use crate::batch::SweepFactor;
use crate::complex::{Complex, C_ONE, C_ZERO};
use crate::gates::Mat2;
use crate::measure::PauliTerm;
use crate::sim::{AmpStore, SimError};
use crate::state::{State, MAX_DENSE_QUBITS, NORM_TOL};
use crate::stripe::{self, ExactSum, PairKernel};

/// Hard cap on the stripe count (`2^8`).
pub const MAX_SHARD_BITS: u32 = 8;

/// The one shard-count normalization rule every sharded deployment
/// applies: clamp to `[1, 2^max_bits]`, then round up to a power of two.
/// Engine constructors and `BackendKind`'s clamp-warning diagnostics both
/// call this, so what the warning reports is by construction what the
/// engine runs with.
pub fn normalize_shards(requested: usize, max_bits: u32) -> usize {
    requested.clamp(1, 1 << max_bits).next_power_of_two()
}

/// A pure quantum state over `n` qubits, stored as `2^min(k, n)` contiguous
/// stripes.
pub struct ShardedState {
    stripes: Vec<Vec<Complex>>,
    /// Active shard-index bits: `min(max_shard_bits, n_qubits)`.
    shard_bits: u32,
    /// Configured shard-count exponent `k`.
    max_shard_bits: u32,
    n_qubits: usize,
}

impl ShardedState {
    /// Creates the 0-qubit scalar state striped over (up to) `shards`
    /// stripes. `shards` is rounded up to a power of two and clamped to
    /// `[1, 2^MAX_SHARD_BITS]`.
    pub fn new(shards: usize) -> Self {
        let shards = normalize_shards(shards, MAX_SHARD_BITS);
        ShardedState {
            stripes: vec![vec![C_ONE]],
            shard_bits: 0,
            max_shard_bits: shards.trailing_zeros(),
            n_qubits: 0,
        }
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of currently active stripes (`2^min(k, n)`).
    #[inline]
    pub fn num_shards(&self) -> usize {
        1 << self.shard_bits
    }

    /// The configured maximum stripe count (`2^k`).
    #[inline]
    pub fn max_shards(&self) -> usize {
        1 << self.max_shard_bits
    }

    /// Number of index bits addressing *within* a stripe.
    #[inline]
    fn local_bits(&self) -> usize {
        self.n_qubits - self.shard_bits as usize
    }

    /// Re-cuts the stripes from a dense vector of `2^n_qubits` amplitudes.
    fn rebuild(&mut self, flat: &[Complex], n_qubits: usize) {
        debug_assert_eq!(flat.len(), 1usize << n_qubits);
        self.n_qubits = n_qubits;
        self.shard_bits = self.max_shard_bits.min(n_qubits as u32);
        let len = flat.len() >> self.shard_bits;
        self.stripes = flat.chunks_exact(len).map(<[Complex]>::to_vec).collect();
    }

    /// The even- and odd-parity masses under `mask`: each stripe's exact
    /// partials, merged.
    fn masses(&self, mask: usize) -> [ExactSum; 2] {
        let mut masses = [ExactSum::ZERO; 2];
        for (base, amps) in self.based() {
            let [even, odd] = stripe::branch_masses(amps, base, mask);
            masses[0].merge(even);
            masses[1].merge(odd);
        }
        masses
    }

    fn scale(&mut self, factor: f64) {
        for amps in &mut self.stripes {
            stripe::scale(amps, factor);
        }
    }

    /// Dense snapshot of the state in the internal (position) qubit order.
    pub fn to_dense(&self) -> State {
        State::from_amplitudes(self.stripes.concat())
    }

    /// Each stripe with its global base index `s << local_bits`.
    fn based(&self) -> impl Iterator<Item = (usize, &Vec<Complex>)> {
        let l = self.local_bits();
        self.stripes
            .iter()
            .enumerate()
            .map(move |(s, a)| (s << l, a))
    }

    fn based_mut(&mut self) -> impl Iterator<Item = (usize, &mut Vec<Complex>)> {
        let l = self.local_bits();
        self.stripes
            .iter_mut()
            .enumerate()
            .map(move |(s, a)| (s << l, a))
    }

    /// Bit mask of the listed positions, each checked against the register
    /// width.
    fn mask_of(&self, qubits: &[usize]) -> usize {
        qubits.iter().fold(0, |mask, &q| {
            assert!(q < self.n_qubits, "qubit {q} out of range");
            mask | 1 << q
        })
    }

    /// [`Self::mask_of`], split into (within-stripe, shard-index) masks.
    fn split_masks(&self, qubits: &[usize]) -> (usize, usize) {
        let (mask, l) = (self.mask_of(qubits), self.local_bits());
        (mask & ((1 << l) - 1), mask >> l)
    }

    /// Applies `kernel` to every amplitude pair `(index, index | 2^target)`
    /// whose index reads 1 on every control: within each selected stripe
    /// for a low target, across each selected stripe pair for a high one.
    fn for_pairs(&mut self, controls: &[usize], target: usize, kernel: PairKernel) {
        assert!(target < self.n_qubits, "qubit {target} out of range");
        for &c in controls {
            assert_ne!(c, target, "control equals target");
        }
        let (c_lo, c_hi) = self.split_masks(controls);
        let l = self.local_bits();
        if target < l {
            let tbit = 1usize << target;
            for (s, amps) in self.stripes.iter_mut().enumerate() {
                if s & c_hi == c_hi {
                    kernel.apply_within(amps, c_lo, tbit);
                }
            }
        } else {
            let tbit = 1usize << (target - l);
            for s0 in 0..self.stripes.len() {
                if s0 & tbit == 0 && s0 & c_hi == c_hi {
                    let (a, b) = self.stripe_pair(s0, s0 | tbit);
                    kernel.apply_across(a, b, c_lo);
                }
            }
        }
    }

    /// Stripes `lo < hi`, both mutably.
    fn stripe_pair(&mut self, lo: usize, hi: usize) -> (&mut Vec<Complex>, &mut Vec<Complex>) {
        let (head, tail) = self.stripes.split_at_mut(hi);
        (&mut head[lo], &mut tail[0])
    }
}

impl AmpStore for ShardedState {
    fn add_qubit(&mut self) -> usize {
        assert!(
            self.n_qubits < MAX_DENSE_QUBITS,
            "qubit budget exhausted (MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS})"
        );
        let idx = self.n_qubits;
        let mut flat = self.stripes.concat();
        flat.resize(flat.len() * 2, C_ZERO);
        self.rebuild(&flat, idx + 1);
        idx
    }

    fn remove_qubit(&mut self, target: usize, outcome: bool) {
        let dropped = self.masses(self.mask_of(&[target]))[usize::from(!outcome)].finish();
        assert!(
            dropped < NORM_TOL,
            "removing qubit {target} with outcome {outcome} would discard {dropped:.3e} probability; collapse it first"
        );
        self.collapse_remove(target, outcome);
    }

    fn collapse_remove(&mut self, target: usize, outcome: bool) {
        let kept = self.masses(self.mask_of(&[target]))[usize::from(outcome)];
        let mut flat = self.stripes.concat();
        stripe::collapse_remove_in_place(&mut flat, target, outcome, kept.finish());
        self.rebuild(&flat, self.n_qubits - 1);
    }

    fn apply_1q(&mut self, controls: &[usize], target: usize, m: &Mat2) {
        self.for_pairs(controls, target, PairKernel::Mat(*m));
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        self.for_pairs(&[control], target, PairKernel::Swap);
    }

    /// Pure phase, so every stripe is independent wherever the qubits sit.
    fn apply_cz(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "CZ needs distinct qubits");
        let (lo_mask, hi_mask) = self.split_masks(&[a, b]);
        for (s, amps) in self.stripes.iter_mut().enumerate() {
            if s & hi_mask == hi_mask {
                stripe::phase_flip(amps, lo_mask);
            }
        }
    }

    /// One amplitude permutation pass in each pairing regime; bit-identical
    /// to three CNOT passes, which move the same amplitudes.
    fn apply_swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let n = self.n_qubits;
        assert!(a < n && b < n, "qubit out of range (n={n})");
        let l = self.local_bits();
        let (lo, hi) = (a.min(b), a.max(b));
        if hi < l {
            // Both positions address within every stripe.
            for amps in &mut self.stripes {
                stripe::swap_within(amps, 1 << lo, 1 << hi);
            }
        } else if lo < l {
            // `lo` addresses within the stripe, `hi` selects it: one
            // half-stripe exchange per stripe pair.
            let hbit = 1usize << (hi - l);
            for s0 in (0..self.stripes.len()).filter(|s| s & hbit == 0) {
                let (low, high) = self.stripe_pair(s0, s0 | hbit);
                stripe::swap_across_mixed(low, high, 1 << lo);
            }
        } else {
            // Both select the stripe: `(a=1, b=0)` stripes trade places
            // with their `(a=0, b=1)` partners.
            let (abit, bbit) = (1usize << (lo - l), 1usize << (hi - l));
            for s in 0..self.stripes.len() {
                if s & abit != 0 && s & bbit == 0 {
                    self.stripes.swap(s, s ^ abit ^ bbit);
                }
            }
        }
    }

    /// Every stripe evaluates the factors in slice order against the
    /// *global* basis index (stripe base ORed with the offset): the dense
    /// engine's per-amplitude arithmetic, one pass per stripe.
    fn apply_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    ) {
        for &(a, b) in czs {
            assert_ne!(a, b, "CZ needs distinct qubits");
        }
        for &q in positions.iter().chain(czs.iter().flat_map(|(a, b)| [a, b])) {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        let (factors, flips) = stripe::sweep_masks(positions, diags, czs);
        for (base, amps) in self.based_mut() {
            stripe::phase_sweep(amps, base, &factors, &flips);
        }
    }

    fn parity_prob_odd(&self, qubits: &[usize]) -> f64 {
        self.masses(self.mask_of(qubits))[1].finish()
    }

    fn collapse_parity(&mut self, qubits: &[usize], odd: bool) {
        let mask = self.mask_of(qubits);
        let mut kept = ExactSum::ZERO;
        for (base, amps) in self.based_mut() {
            kept.merge(stripe::collapse_parity(amps, base, mask, odd));
        }
        self.scale(stripe::renormalizer(kept.finish()));
    }

    /// The string may couple any pair of stripes, so it reads amplitudes by
    /// global index.
    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        let l = self.local_bits();
        let lmask = (1usize << l) - 1;
        stripe::expectation_pauli(self.n_qubits, |g| self.stripes[g >> l][g & lmask], terms)
    }

    fn snapshot(&self, perm: &[usize]) -> Result<State, SimError> {
        Ok(self.to_dense().permuted(perm))
    }

    fn amplitude_of(&self, ones: &[usize]) -> Result<Complex, SimError> {
        let (lo, hi) = self.split_masks(ones);
        Ok(self.stripes[hi][lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::Gate;
    use crate::noise::NoiseModel;
    use crate::sim::AmpSim;

    const TOL: f64 = 1e-10;

    /// Mirrors a circuit on a dense `State` and a `ShardedState`, then
    /// checks amplitudes agree exactly (same arithmetic, same order).
    fn assert_matches_dense(shards: usize, build: impl Fn(&mut State, &mut ShardedState)) {
        let mut dense = State::zero(0);
        let mut striped = ShardedState::new(shards);
        for _ in 0..6 {
            dense.add_qubit();
            striped.add_qubit();
        }
        build(&mut dense, &mut striped);
        let got = striped.to_dense();
        for i in 0..dense.len() {
            assert!(
                dense.amplitude(i).approx_eq(got.amplitude(i), TOL),
                "shards={shards} amp[{i}]: {:?} vs {:?}",
                dense.amplitude(i),
                got.amplitude(i)
            );
        }
    }

    #[test]
    fn local_and_cross_shard_gates_match_dense() {
        for shards in [1usize, 2, 4, 8, 16] {
            assert_matches_dense(shards, |dense, striped| {
                for q in 0..6 {
                    dense.apply_1q(&[], q, &Gate::H.matrix());
                    striped.apply_1q(&[], q, &Gate::H.matrix());
                }
                dense.apply_1q(&[], 5, &Gate::T.matrix());
                striped.apply_1q(&[], 5, &Gate::T.matrix());
                dense.apply_cnot(0, 5); // low control, high target
                striped.apply_cnot(0, 5);
                dense.apply_cnot(5, 0); // high control, low target
                striped.apply_cnot(5, 0);
                dense.apply_cnot(4, 5); // both high (at 8+ shards)
                striped.apply_cnot(4, 5);
                dense.apply_cz(1, 4);
                striped.apply_cz(1, 4);
                dense.apply_swap(2, 5);
                striped.apply_swap(2, 5);
                dense.apply_1q(&[0, 5], 3, &Gate::Ry(0.7).matrix());
                striped.apply_1q(&[0, 5], 3, &Gate::Ry(0.7).matrix());
            });
        }
    }

    #[test]
    fn phase_sweep_is_bit_identical_to_dense_in_every_sharding() {
        // Factors on low and shard-selecting qubits, parity factors that
        // span both at every shard count ({1, 5}; {0, 3, 4} from 4 shards
        // up) and mixed CZ flips: every stripe must form the product the
        // dense single-stripe pass forms.
        let t = Gate::T.matrix();
        let s = Gate::S.matrix();
        let rz = Gate::Rz(0.37).matrix();
        for shards in [1usize, 2, 4, 8, 16] {
            assert_matches_dense(shards, |dense, striped| {
                for q in 0..6 {
                    dense.apply_1q(&[], q, &Gate::H.matrix());
                    striped.apply_1q(&[], q, &Gate::H.matrix());
                }
                let positions = [1, 5, 0, 3, 4];
                let diags = [
                    (0b00001, t[0][0], t[1][1]),
                    (0b00011, rz[0][0], rz[1][1]),
                    (0b00010, s[0][0], s[1][1]),
                    (0b11100, rz[1][1], rz[0][0]),
                ];
                let flips = [(0, 5), (2, 3)];
                let (masked, flip_masks) = stripe::sweep_masks(&positions, &diags, &flips);
                assert_eq!(masked[1].0, 0b100010);
                assert_eq!(masked[3].0, 0b011001);
                stripe::phase_sweep(dense.amplitudes_mut(), 0, &masked, &flip_masks);
                striped.apply_phase_sweep(&positions, &diags, &flips);
            });
        }
    }

    #[test]
    fn one_round_swap_is_bit_identical_to_dense_in_every_pairing_regime() {
        // 6 qubits, 16 shards => 2 local bits: (0,1) is within-stripe,
        // (1,4) mixed, (3,5) both shard-selecting. The one-round exchange
        // is a pure permutation, so dense and striped must agree bit for
        // bit after a non-trivial scramble.
        for shards in [1usize, 2, 4, 16] {
            let mut dense = State::zero(0);
            let mut striped = ShardedState::new(shards);
            for _ in 0..6 {
                dense.add_qubit();
                striped.add_qubit();
            }
            for q in 0..6 {
                dense.apply_1q(&[], q, &Gate::H.matrix());
                striped.apply_1q(&[], q, &Gate::H.matrix());
            }
            dense.apply_1q(&[], 3, &Gate::T.matrix());
            striped.apply_1q(&[], 3, &Gate::T.matrix());
            dense.apply_cnot(0, 4);
            striped.apply_cnot(0, 4);
            for (a, b) in [(0usize, 1usize), (1, 4), (3, 5), (5, 2)] {
                dense.apply_swap(a, b);
                striped.apply_swap(a, b);
            }
            let got = striped.to_dense();
            for i in 0..dense.len() {
                let (w, g) = (dense.amplitude(i), got.amplitude(i));
                assert!(
                    w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                    "shards={shards} amp[{i}]: {w:?} vs {g:?}"
                );
            }
        }
    }

    #[test]
    fn more_shards_than_amplitudes_degrades_gracefully() {
        // 2 qubits but 256 shards requested: active shards clamp to 4.
        let mut s = ShardedState::new(256);
        s.add_qubit();
        s.add_qubit();
        assert_eq!(s.num_shards(), 4);
        assert_eq!(s.max_shards(), 256);
        s.apply_1q(&[], 0, &Gate::X.matrix());
        assert!((s.parity_prob_odd(&[0]) - 1.0).abs() < TOL);
        assert!(s.parity_prob_odd(&[1]) < TOL);
    }

    #[test]
    #[should_panic(expected = "probability-zero outcome")]
    fn collapse_parity_onto_a_probability_zero_outcome_panics() {
        let mut s = ShardedState::new(4);
        for _ in 0..3 {
            s.add_qubit();
        }
        s.apply_1q(&[], 2, &Gate::X.matrix());
        s.collapse_parity(&[2], false);
    }

    #[test]
    fn add_and_remove_qubits_preserve_state() {
        let mut s = ShardedState::new(4);
        let a = s.add_qubit();
        let b = s.add_qubit();
        let c = s.add_qubit();
        s.apply_1q(&[], c, &Gate::X.matrix());
        // Removing the middle qubit shifts c down; it must still read |1>.
        s.remove_qubit(b, false);
        assert_eq!(s.n_qubits(), 2);
        assert!((s.parity_prob_odd(&[c - 1]) - 1.0).abs() < TOL);
        assert!(s.parity_prob_odd(&[a]) < TOL);
    }

    #[test]
    fn measurement_collapses_epr_pair() {
        for seed in 0..20 {
            let mut sim = AmpSim::over(ShardedState::new(8), seed, NoiseModel::ideal());
            let a = sim.alloc();
            let b = sim.alloc();
            sim.apply(Gate::H, a).unwrap();
            sim.cnot(a, b).unwrap();
            let ma = sim.measure(a).unwrap();
            let mb = sim.measure(b).unwrap();
            assert_eq!(ma, mb, "EPR halves must agree");
        }
    }

    #[test]
    fn parity_measurement_matches_dense_behavior() {
        let mut sim = AmpSim::over(ShardedState::new(4), 9, NoiseModel::ideal());
        let a = sim.alloc();
        let b = sim.alloc();
        sim.apply(Gate::H, a).unwrap();
        sim.cnot(a, b).unwrap();
        // EPR pair lives entirely in the even-parity subspace.
        assert!(!sim.measure_z_parity(&[a, b]).unwrap());
        let dense = sim.raw_state().to_dense();
        assert!((dense.probability(0b00) - 0.5).abs() < TOL);
        assert!((dense.probability(0b11) - 0.5).abs() < TOL);
    }

    #[test]
    fn expectation_of_bell_pair() {
        use crate::gates::Pauli;
        let mut s = ShardedState::new(8);
        let a = s.add_qubit();
        let b = s.add_qubit();
        s.apply_1q(&[], a, &Gate::H.matrix());
        s.apply_cnot(a, b);
        let term = |q: usize, op: Pauli| PauliTerm { qubit: q, op };
        assert!((s.expectation_pauli(&[term(a, Pauli::Z), term(b, Pauli::Z)]) - 1.0).abs() < TOL);
        assert!((s.expectation_pauli(&[term(a, Pauli::X), term(b, Pauli::X)]) - 1.0).abs() < TOL);
        assert!((s.expectation_pauli(&[term(a, Pauli::Y), term(b, Pauli::Y)]) + 1.0).abs() < TOL);
    }

    #[test]
    fn norm_preserved_under_random_circuit() {
        let mut s = ShardedState::new(8);
        for _ in 0..6 {
            s.add_qubit();
        }
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
        assert!((s.to_dense().norm_sqr() - 1.0).abs() < 1e-9);
    }
}
