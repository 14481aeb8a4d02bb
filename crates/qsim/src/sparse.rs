//! Sparse full-state storage: only nonzero amplitudes are stored.
//!
//! Structured states — the cat/GHZ spanning trees and teleport chains the
//! paper's protocols are built from — have very few nonzero amplitudes, so a
//! map keyed by basis state simulates *real amplitudes* at hundreds of ranks
//! where the dense [`crate::Simulator`] caps out near 20 qubits (the design of
//! the Microsoft QDK `quantum_sparse_sim`). This module holds the storage
//! half only — a 512-bit basis key and the [`SparseState`] map kernels behind
//! [`AmpStore`]; the simulator over it, [`crate::SparseSim`], is the same
//! generic front as the dense [`crate::Simulator`] ([`crate::sim::AmpSim`])
//! and is proven against it by the cross-backend conformance harness.
//!
//! # Canonical bit-identity rule
//!
//! `SparseSim` is bit-identical to the dense engine up to one canonical rule:
//!
//! 1. an **absent map entry is equivalent to an exact-zero dense amplitude**,
//!    and
//! 2. **`-0.0` is equivalent to `+0.0`** in either representation.
//!
//! Everything else — every nonzero amplitude, every measurement outcome,
//! every expectation value, every RNG draw — matches the dense engine
//! *bitwise* for the same seed and noise model. This works because the sparse
//! kernels evaluate the *same floating-point expressions in the same order*
//! as the dense kernels in [`crate::stripe`], treating absent entries as
//! exact zero:
//!
//! * gate application computes `m[0][0]*a0 + m[0][1]*a1` (etc.) exactly as
//!   [`crate::stripe::pair_unitary`] does, and results that are exactly
//!   `±0.0` are dropped from the map (IEEE-754 guarantees a signed zero
//!   operand can only ever produce results differing in the sign of a zero —
//!   the difference never escapes the zero equivalence class);
//! * every probability/norm/expectation is an exact sum
//!   ([`crate::stripe::ExactSum`]) of the dense loop's terms over the present
//!   entries, in whatever order the map holds them: dense's exact-zero
//!   entries contribute exact-zero terms, and an exact sum does not depend
//!   on order;
//! * collapse ([`crate::stripe::collapse_parity`] then
//!   [`crate::stripe::scale`]), free-compaction
//!   (`j = (i & low) | ((i >> 1) & !low)`) and the one rescale by the kept
//!   mass reuse the dense formulas verbatim;
//! * the measurement RNG and the decoupled noise RNG live in the shared
//!   front, so zero-rate noise models are bit-identical to noiseless runs and
//!   trajectories line up draw for draw.
//!
//! CNOT and SWAP are pure key permutations (no float arithmetic at all) and
//! CZ is a sign flip, mirroring the dense fast paths.

use crate::batch::{named, SweepFactor};
use crate::complex::{Complex, C_ONE, C_ZERO};
use crate::gates::{Mat2, Pauli};
use crate::measure::PauliTerm;
use crate::sim::{AmpStore, SimError};
use crate::state::{State, MAX_DENSE_QUBITS, NORM_TOL};
use crate::stripe::{self, ExactSum};
use std::collections::HashMap;

/// Number of 64-bit words in a [`BasisKey`].
const KEY_WORDS: usize = 8;

/// Maximum number of simultaneously live qubits (512). The 128-rank cat
/// broadcast peaks near 130 live qubits (one share per rank plus transient
/// EPR halves), comfortably inside this bound.
pub const MAX_QUBITS: usize = KEY_WORDS * 64;

/// A basis-state index wide enough for paper-scale rank counts: 512 bits,
/// little-endian words (`word 0` holds qubit positions 0..64).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
struct BasisKey([u64; KEY_WORDS]);

impl BasisKey {
    /// The all-zero basis state |0...0>.
    const ZERO: BasisKey = BasisKey([0; KEY_WORDS]);

    /// The dense basis index, if it fits in a `usize`.
    fn to_index(self) -> Option<usize> {
        if self.0[1..].iter().any(|&w| w != 0) {
            return None;
        }
        usize::try_from(self.0[0]).ok()
    }

    /// Value of bit `pos`.
    #[inline]
    fn bit(self, pos: usize) -> bool {
        (self.0[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// Copy with bit `pos` set.
    #[inline]
    fn with_set(mut self, pos: usize) -> Self {
        self.0[pos / 64] |= 1u64 << (pos % 64);
        self
    }

    /// Copy with bit `pos` cleared.
    #[inline]
    fn with_cleared(mut self, pos: usize) -> Self {
        self.0[pos / 64] &= !(1u64 << (pos % 64));
        self
    }

    /// Copy with bit `pos` flipped.
    #[inline]
    fn with_flipped(mut self, pos: usize) -> Self {
        self.0[pos / 64] ^= 1u64 << (pos % 64);
        self
    }

    /// Bitwise XOR.
    #[inline]
    fn xor(self, other: BasisKey) -> Self {
        let mut r = self;
        for (w, o) in r.0.iter_mut().zip(other.0) {
            *w ^= o;
        }
        r
    }

    /// Bitwise AND.
    #[inline]
    fn and(self, other: BasisKey) -> Self {
        let mut r = self;
        for (w, o) in r.0.iter_mut().zip(other.0) {
            *w &= o;
        }
        r
    }

    /// Total number of set bits.
    #[inline]
    fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Parity of the set-bit count (`true` = odd).
    #[inline]
    fn parity(self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// Mask with bits `0..pos` set — the 512-bit analogue of `(1 << pos) - 1`.
    fn low_mask(pos: usize) -> Self {
        let mut m = BasisKey::ZERO;
        for (w, word) in m.0.iter_mut().enumerate() {
            let lo = w * 64;
            if pos >= lo + 64 {
                *word = u64::MAX;
            } else if pos > lo {
                *word = (1u64 << (pos - lo)) - 1;
            }
        }
        m
    }

    /// Shift right by one bit across all words.
    fn shr1(self) -> Self {
        let mut r = BasisKey::ZERO;
        for w in 0..KEY_WORDS {
            r.0[w] = self.0[w] >> 1;
            if w + 1 < KEY_WORDS {
                r.0[w] |= self.0[w + 1] << 63;
            }
        }
        r
    }

    /// Removes bit `pos`, shifting all higher bits down one position — the
    /// key analogue, `(i & low) | ((i >> 1) & !low)`, of what
    /// [`crate::stripe::remove_qubit_in_place`] does to a dense index.
    fn remove_bit(self, pos: usize) -> Self {
        let low = BasisKey::low_mask(pos);
        let mut r = self.and(low);
        let hi = self.shr1();
        for w in 0..KEY_WORDS {
            r.0[w] |= hi.0[w] & !low.0[w];
        }
        r
    }
}

/// Inserts `a` at `k`, or removes `k` when `a` is exactly `±0.0` — the map
/// invariant is "no exact-zero entries".
fn set_or_prune(amps: &mut HashMap<BasisKey, Complex>, k: BasisKey, a: Complex) {
    if a.re == 0.0 && a.im == 0.0 {
        amps.remove(&k);
    } else {
        amps.insert(k, a);
    }
}

/// The nonzero amplitudes of a register, keyed by basis state. See the
/// module docs for the canonical bit-identity rule relative to the dense
/// [`State`].
pub struct SparseState {
    amps: HashMap<BasisKey, Complex>,
    n_qubits: usize,
}

impl SparseState {
    /// Number of nonzero amplitudes currently stored.
    pub fn nonzero_count(&self) -> usize {
        self.amps.len()
    }

    /// Probability mass of the entries `pred` accepts, summed exactly.
    fn mass_where(&self, pred: impl Fn(BasisKey) -> bool) -> ExactSum {
        let mut mass = ExactSum::ZERO;
        for (&k, a) in &self.amps {
            if pred(k) {
                mass.add(a.norm_sqr());
            }
        }
        mass
    }

    /// Rescales every entry by the real factor, pruning exact zeros.
    fn scale(&mut self, factor: f64) {
        let keys: Vec<BasisKey> = self.amps.keys().copied().collect();
        for k in keys {
            let a = self.amps[&k].scale(factor);
            set_or_prune(&mut self.amps, k, a);
        }
    }

    /// Moves every entry `moves` accepts to the key `to` maps it to — the
    /// shape of a permutation gate (CNOT, SWAP) on a map.
    fn permute(&mut self, moves: impl Fn(BasisKey) -> bool, to: impl Fn(BasisKey) -> BasisKey) {
        let moved: Vec<(BasisKey, Complex)> = self
            .amps
            .iter()
            .filter(|(k, _)| moves(**k))
            .map(|(k, &a)| (*k, a))
            .collect();
        for (k, _) in &moved {
            self.amps.remove(k);
        }
        for (k, a) in moved {
            self.amps.insert(to(k), a);
        }
    }
}

/// Key with exactly the listed bit positions set.
fn key_of<'a>(positions: impl IntoIterator<Item = &'a usize>) -> BasisKey {
    let positions = positions.into_iter();
    positions.fold(BasisKey::ZERO, |k, &pos| k.with_set(pos))
}

/// The 0-qubit register: one amplitude of 1.
impl Default for SparseState {
    fn default() -> Self {
        let mut amps = HashMap::new();
        amps.insert(BasisKey::ZERO, C_ONE);
        SparseState { amps, n_qubits: 0 }
    }
}

impl AmpStore for SparseState {
    /// Existing keys keep their value (the new bit is 0 everywhere).
    fn add_qubit(&mut self) -> usize {
        assert!(self.n_qubits < MAX_QUBITS, "sparse qubit budget exhausted");
        self.n_qubits += 1;
        self.n_qubits - 1
    }

    fn remove_qubit(&mut self, pos: usize, outcome: bool) {
        let dropped = self.mass_where(|k| k.bit(pos) != outcome).finish();
        assert!(
            dropped < NORM_TOL,
            "removing qubit {pos} with outcome {outcome} would discard {dropped:.3e} probability; collapse it first"
        );
        self.collapse_remove(pos, outcome);
    }

    /// The kept entries move to their compacted keys, rescaled.
    fn collapse_remove(&mut self, pos: usize, outcome: bool) {
        let kept = self.mass_where(|k| k.bit(pos) == outcome).finish();
        let factor = stripe::renormalizer(kept);
        let mut out = HashMap::with_capacity(self.amps.len());
        for (k, a) in self.amps.drain().filter(|(k, _)| k.bit(pos) == outcome) {
            set_or_prune(&mut out, k.remove_bit(pos), a.scale(factor));
        }
        self.amps = out;
        self.n_qubits -= 1;
    }

    /// Absent entries read as exact zero and exact-zero results are pruned.
    fn apply_1q(&mut self, controls: &[usize], target: usize, m: &Mat2) {
        let cmask = key_of(controls);
        let mut pairs: HashMap<BasisKey, [Complex; 2]> = HashMap::new();
        for (k, &a) in self.amps.iter() {
            if k.and(cmask) != cmask {
                continue;
            }
            let base = k.with_cleared(target);
            pairs.entry(base).or_insert([C_ZERO; 2])[k.bit(target) as usize] = a;
        }
        for (base, [a0, a1]) in pairs {
            let n0 = m[0][0] * a0 + m[0][1] * a1;
            let n1 = m[1][0] * a0 + m[1][1] * a1;
            set_or_prune(&mut self.amps, base, n0);
            set_or_prune(&mut self.amps, base.with_set(target), n1);
        }
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        self.permute(|k| k.bit(control), |k| k.with_flipped(target));
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        for (k, amp) in self.amps.iter_mut() {
            if k.bit(a) && k.bit(b) {
                *amp = -*amp;
            }
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        self.permute(
            |k| k.bit(a) != k.bit(b),
            |k| k.with_flipped(a).with_flipped(b),
        );
    }

    /// [`crate::stripe::phase_sweep`]'s expression per present entry. Absent
    /// entries are exact zeros and stay zero under unit-modulus factors, so
    /// nothing needs pruning.
    fn apply_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    ) {
        let keyed = |&(set, d0, d1): &SweepFactor| (key_of(named(set, positions)), d0, d1);
        let factors: Vec<(BasisKey, Complex, Complex)> = diags.iter().map(keyed).collect();
        for (k, amp) in self.amps.iter_mut() {
            let selected =
                |&(mask, d0, d1): &(BasisKey, Complex, Complex)| match k.and(mask).parity() {
                    true => d1,
                    false => d0,
                };
            if let Some((first, rest)) = factors.split_first() {
                *amp *= rest.iter().fold(selected(first), |p, f| p * selected(f));
            }
            if czs.iter().filter(|&&(a, b)| k.bit(a) && k.bit(b)).count() % 2 == 1 {
                *amp = -*amp;
            }
        }
    }

    fn parity_prob_odd(&self, qubits: &[usize]) -> f64 {
        let mask = key_of(qubits);
        self.mass_where(|k| k.and(mask).parity()).finish()
    }

    fn collapse_parity(&mut self, qubits: &[usize], odd: bool) {
        let mask = key_of(qubits);
        self.amps.retain(|k, _| k.and(mask).parity() == odd);
        let kept = self.mass_where(|_| true).finish();
        self.scale(stripe::renormalizer(kept));
    }

    /// The dense store's terms ([`crate::stripe::expectation_partial`]) over
    /// the present entries: an absent entry's term is exactly zero.
    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        let mut x_mask = BasisKey::ZERO;
        let mut z_mask = BasisKey::ZERO;
        let mut y_count = 0u32;
        for t in terms {
            match t.op {
                Pauli::X => x_mask = x_mask.with_set(t.qubit),
                Pauli::Z => z_mask = z_mask.with_set(t.qubit),
                Pauli::Y => {
                    x_mask = x_mask.with_set(t.qubit);
                    z_mask = z_mask.with_set(t.qubit);
                    y_count += 1;
                }
            }
        }
        let mut acc = [ExactSum::ZERO; 2];
        for (&k, &a) in &self.amps {
            let sign = if k.and(z_mask).parity() { -1.0 } else { 1.0 };
            let partner = k.xor(x_mask);
            let b = self.amps.get(&partner).copied().unwrap_or(C_ZERO);
            let term = b.conj() * (a.scale(sign));
            acc[0].add(term.re);
            acc[1].add(term.im);
        }
        stripe::hermitian_value(stripe::y_phase(y_count), acc)
    }

    fn snapshot(&self, perm: &[usize]) -> Result<State, SimError> {
        if self.n_qubits > MAX_DENSE_QUBITS {
            return Err(SimError::Unsupported(format!(
                "dense snapshot of {} qubits from the sparse engine (MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS})",
                self.n_qubits
            )));
        }
        let mut st = State::zero(self.n_qubits);
        st.amplitudes_mut()[0] = C_ZERO;
        for (k, &a) in self.amps.iter() {
            let idx = k
                .to_index()
                .expect("key exceeds dense range despite the qubit budget check");
            st.amplitudes_mut()[idx] = a;
        }
        Ok(st.permuted(perm))
    }

    fn amplitude_of(&self, ones: &[usize]) -> Result<Complex, SimError> {
        Ok(self.amps.get(&key_of(ones)).copied().unwrap_or(C_ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::Gate;
    use crate::noise::NoiseModel;
    use crate::sim::{AmpSim, QubitId, Simulator, SparseSim};

    const TOL: f64 = 1e-12;

    #[test]
    fn basis_key_bit_ops_across_words() {
        let k = BasisKey::ZERO
            .with_set(0)
            .with_set(63)
            .with_set(64)
            .with_set(511);
        assert!(k.bit(0) && k.bit(63) && k.bit(64) && k.bit(511));
        assert!(!k.bit(1) && !k.bit(65));
        assert_eq!(k.count_ones(), 4);
        assert!(!k.parity());
        assert_eq!(k.with_cleared(64).count_ones(), 3);
        assert_eq!(k.with_flipped(2).count_ones(), 5);
    }

    #[test]
    fn basis_key_remove_bit_compacts_across_words() {
        // Bits {2, 63, 64, 100}; removing bit 63 shifts 64 -> 63, 100 -> 99.
        let k = BasisKey::ZERO
            .with_set(2)
            .with_set(63)
            .with_set(64)
            .with_set(100);
        let r = k.remove_bit(63);
        assert!(r.bit(2) && r.bit(63) && r.bit(99));
        assert_eq!(r.count_ones(), 3);
        // Removing an unset low bit just shifts everything down.
        let r2 = k.remove_bit(0);
        assert!(r2.bit(1) && r2.bit(62) && r2.bit(63) && r2.bit(99));
    }

    #[test]
    fn low_mask_boundaries() {
        assert_eq!(BasisKey::low_mask(0), BasisKey::ZERO);
        assert_eq!(BasisKey::low_mask(64).0[0], u64::MAX);
        assert_eq!(BasisKey::low_mask(64).0[1], 0);
        assert_eq!(BasisKey::low_mask(65).0[1], 1);
        assert_eq!(BasisKey::low_mask(512).count_ones(), 512);
    }

    #[test]
    fn ghz_has_two_amplitudes() {
        let mut sim = SparseSim::new(1);
        let qs = sim.alloc_n(20); // already past the dense 29-qubit-alloc cap's comfort zone
        sim.apply(Gate::H, qs[0]).unwrap();
        for w in qs.windows(2) {
            sim.cnot(w[0], w[1]).unwrap();
        }
        assert_eq!(sim.nonzero_count(), 2);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let a0 = sim.amplitude_of(&[]).unwrap();
        let a1 = sim.amplitude_of(&qs).unwrap();
        assert!((a0.re - h).abs() < TOL && a0.im == 0.0);
        assert!((a1.re - h).abs() < TOL && a1.im == 0.0);
        let z: Vec<_> = qs.iter().map(|&q| (q, Pauli::Z)).collect();
        let x: Vec<_> = qs.iter().map(|&q| (q, Pauli::X)).collect();
        assert!((sim.expectation(&z).unwrap() - 1.0).abs() < TOL);
        assert!((sim.expectation(&x).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn wide_ghz_beyond_dense_reach() {
        // 300 qubits: impossible densely (2^300 amplitudes), two entries here.
        let mut sim = SparseSim::new(5);
        let qs = sim.alloc_n(300);
        sim.apply(Gate::H, qs[0]).unwrap();
        for w in qs.windows(2) {
            sim.cnot(w[0], w[1]).unwrap();
        }
        assert_eq!(sim.nonzero_count(), 2);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((sim.amplitude_of(&qs).unwrap().re - h).abs() < TOL);
        assert!(sim.state_vector(&qs).is_err(), "dense snapshot must refuse");
        // Parity measurement across all 300 qubits is even, state survives.
        assert!(!sim.measure_z_parity(&qs).unwrap());
        assert_eq!(sim.nonzero_count(), 2);
        // Measure one share: the whole cat collapses to a single key.
        let m = sim.measure(qs[150]).unwrap();
        assert_eq!(sim.nonzero_count(), 1);
        for &q in &qs {
            assert_eq!(sim.free(q).unwrap(), m);
        }
        assert_eq!(sim.n_qubits(), 0);
    }

    /// Drives the same op sequence through dense and sparse and asserts
    /// *bitwise* equal snapshots under the canonical rule (+0.0 == -0.0 is
    /// free here because exact zeros never survive in either snapshot check).
    /// The sequence is one function generic over the front's store, passed
    /// once per instantiation.
    fn assert_matches_dense(
        seed: u64,
        noise: NoiseModel,
        dense_ops: fn(&mut Simulator),
        sparse_ops: fn(&mut SparseSim),
    ) {
        let mut dense = Simulator::with_noise(seed, noise);
        let mut sparse = SparseSim::with_noise(seed, noise);
        dense_ops(&mut dense);
        sparse_ops(&mut sparse);
        let dq: Vec<QubitId> = (0..dense.n_qubits() as u64).map(QubitId).collect();
        let ds = dense.state_vector(&dq).unwrap();
        let ss = sparse.state_vector(&dq).unwrap();
        assert_eq!(dense.gate_count(), sparse.gate_count());
        assert_eq!(dense.measurement_count(), sparse.measurement_count());
        for (i, (a, b)) in ds
            .amplitudes()
            .iter()
            .zip(ss.amplitudes().iter())
            .enumerate()
        {
            let canon = |x: f64| if x == 0.0 { 0.0f64 } else { x };
            assert_eq!(
                canon(a.re).to_bits(),
                canon(b.re).to_bits(),
                "re mismatch at index {i}: {a:?} vs {b:?}"
            );
            assert_eq!(
                canon(a.im).to_bits(),
                canon(b.im).to_bits(),
                "im mismatch at index {i}: {a:?} vs {b:?}"
            );
        }
    }

    fn clifford_t_mix<S: AmpStore>(s: &mut AmpSim<S>) {
        let q = s.alloc_n(5);
        s.apply(Gate::H, q[0]).unwrap();
        s.apply(Gate::T, q[1]).unwrap();
        s.cnot(q[0], q[1]).unwrap();
        s.apply(Gate::Ry(0.37), q[2]).unwrap();
        s.cz(q[1], q[2]).unwrap();
        s.swap(q[0], q[3]).unwrap();
        s.toffoli(q[0], q[1], q[4]).unwrap();
        s.apply(Gate::Sdg, q[3]).unwrap();
        s.apply(Gate::Rz(-1.2), q[4]).unwrap();
        s.cnot(q[4], q[0]).unwrap();
        s.apply(Gate::Tdg, q[2]).unwrap();
        s.apply(Gate::H, q[4]).unwrap();
    }

    #[test]
    fn bitwise_matches_dense_on_clifford_t_mix() {
        assert_matches_dense(42, NoiseModel::ideal(), clifford_t_mix, clifford_t_mix);
    }

    fn measure_free_epr<S: AmpStore>(s: &mut AmpSim<S>) {
        let q = s.alloc_n(6);
        s.entangle_epr(q[0], q[1]).unwrap();
        s.apply(Gate::H, q[2]).unwrap();
        s.cnot(q[2], q[3]).unwrap();
        let m = s.measure(q[2]).unwrap();
        if m {
            s.apply(Gate::X, q[3]).unwrap();
        }
        s.measure_and_free(q[4]).unwrap();
        s.measure_and_free(q[5]).unwrap();
        s.apply(Gate::T, q[3]).unwrap();
        let _ = s
            .expectation(&[(q[0], Pauli::Z), (q[1], Pauli::Z)])
            .unwrap();
        let _ = s
            .expectation(&[(q[0], Pauli::X), (q[1], Pauli::X)])
            .unwrap();
        let _ = s.expectation(&[(q[3], Pauli::Y)]).unwrap();
    }

    #[test]
    fn bitwise_matches_dense_through_measure_free_epr() {
        assert_matches_dense(7, NoiseModel::ideal(), measure_free_epr, measure_free_epr);
    }

    fn noisy_trajectory<S: AmpStore>(s: &mut AmpSim<S>) {
        let q = s.alloc_n(4);
        s.apply(Gate::H, q[0]).unwrap();
        s.cnot(q[0], q[1]).unwrap();
        s.entangle_epr(q[2], q[3]).unwrap();
        s.apply(Gate::T, q[1]).unwrap();
        s.cz(q[1], q[2]).unwrap();
        s.measure(q[0]).unwrap();
        s.apply(Gate::H, q[3]).unwrap();
        s.swap(q[1], q[3]).unwrap();
    }

    #[test]
    fn bitwise_matches_dense_under_noise_trajectories() {
        for (seed, model) in [
            (1u64, NoiseModel::depolarizing(0.3)),
            (2, NoiseModel::dephasing(0.4)),
            (3, NoiseModel::amplitude_damping(0.25)),
            (4, NoiseModel::ideal()), // zero-rate must equal noiseless bitwise
        ] {
            assert_matches_dense(seed, model, noisy_trajectory, noisy_trajectory);
        }
    }

    #[test]
    fn measurement_rng_stream_matches_dense() {
        // Same seed -> same outcome sequence on a maximally random circuit.
        let mut dense = Simulator::new(99);
        let mut sparse = SparseSim::new(99);
        let dq = dense.alloc_n(8);
        let sq = sparse.alloc_n(8);
        for i in 0..8 {
            dense.apply(Gate::H, dq[i]).unwrap();
            sparse.apply(Gate::H, sq[i]).unwrap();
        }
        for i in 0..8 {
            assert_eq!(
                dense.measure(dq[i]).unwrap(),
                sparse.measure(sq[i]).unwrap(),
                "outcome diverged at qubit {i}"
            );
        }
    }

    #[test]
    fn free_superposed_qubit_errors() {
        let mut sim = SparseSim::new(1);
        let q = sim.alloc();
        sim.apply(Gate::H, q).unwrap();
        assert_eq!(sim.free(q), Err(SimError::NotClassical(q)));
        assert!(sim.measure_and_free(q).is_ok());
        assert_eq!(sim.n_qubits(), 0);
    }

    #[test]
    fn unknown_and_duplicate_qubits_rejected() {
        let mut sim = SparseSim::new(1);
        let q = sim.alloc();
        assert_eq!(sim.cnot(q, q), Err(SimError::DuplicateQubit(q)));
        assert_eq!(sim.swap(q, q), Ok(()));
        sim.free(q).unwrap();
        assert_eq!(sim.apply(Gate::X, q), Err(SimError::UnknownQubit(q)));
        assert_eq!(sim.measure(q), Err(SimError::UnknownQubit(q)));
    }

    #[test]
    #[should_panic(expected = "probability-zero outcome")]
    fn collapse_parity_onto_a_probability_zero_outcome_panics() {
        let mut s = SparseState::default();
        for _ in 0..3 {
            s.add_qubit();
        }
        s.apply_1q(&[], 1, &Gate::X.matrix());
        s.collapse_parity(&[1], false);
    }

    #[test]
    fn handles_stable_across_interleaved_free() {
        let mut sim = SparseSim::new(1);
        let a = sim.alloc();
        let b = sim.alloc();
        let c = sim.alloc();
        sim.apply(Gate::X, c).unwrap();
        sim.free(b).unwrap();
        assert!((sim.prob_one(c).unwrap() - 1.0).abs() < TOL);
        assert!(sim.prob_one(a).unwrap() < TOL);
        assert_eq!(sim.free(c), Ok(true));
        assert_eq!(sim.free(a), Ok(false));
    }
}
