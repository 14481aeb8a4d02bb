//! Amplitude kernels over one contiguous stripe — the one definition of
//! the per-amplitude arithmetic for every dense-amplitude engine.
//!
//! A sharded state vector stores the `2^n` amplitudes of an `n`-qubit
//! register as `2^k` *contiguous* stripes: stripe `s` holds the amplitudes
//! whose global basis-state index has top bits `s`, and the low
//! `l = n - k` bits address within the stripe. Every per-stripe operation —
//! within-stripe pair gates, the within-stripe half of a cross-stripe pair
//! gate, diagonal phase passes, masked probability sums, and collapse
//! passes — only needs the stripe slice plus its global base index
//! `s << l`.
//!
//! Three deployments run these functions and nothing else: the dense
//! [`crate::state::State`] is the one-stripe case (`k = 0`, `base = 0`, the
//! cross-stripe kernels never fire); the in-process lock-striped
//! [`crate::sharded::ShardedState`] calls them under its stripe locks; and a
//! process-separated shard worker receiving commands over a message channel
//! runs them on the stripe it owns. One kernel set is what keeps dense,
//! lock-striped, and remote-sharded engines bit-identical: there is no
//! second copy of the arithmetic to drift. The sparse map
//! ([`crate::sparse`]) evaluates the same expressions in the same order
//! over its present entries.

use crate::complex::{Complex, C_ZERO};
use crate::gates::Mat2;
use crate::measure::PauliTerm;

/// Yields the amplitude-pair indices for iteration `i` of a pair loop over
/// a register, where `bit` is the target-qubit bit: the `i`-th index with
/// `bit` cleared, and its partner with `bit` set.
#[inline(always)]
pub fn pair_indices(i: usize, bit: usize) -> (usize, usize) {
    let low = i & (bit - 1);
    let high = (i & !(bit - 1)) << 1;
    let i0 = high | low;
    (i0, i0 | bit)
}

/// Applies `f` to every within-stripe amplitude pair `(i, i | tbit)` whose
/// low member satisfies the within-stripe control mask `c_lo`. The target
/// bit `tbit` must address within the stripe (`tbit < amps.len()`).
pub fn pair_within(
    amps: &mut [Complex],
    c_lo: usize,
    tbit: usize,
    f: impl Fn(&mut Complex, &mut Complex),
) {
    let half = amps.len() / 2;
    for i in 0..half {
        let (i0, i1) = pair_indices(i, tbit);
        if i0 & c_lo == c_lo {
            let (lo, hi) = amps.split_at_mut(i1);
            f(&mut lo[i0], &mut hi[0]);
        }
    }
}

/// Applies `f` to amplitude pairs spanning two stripes: `a` is the stripe
/// whose shard index has the target bit clear, `b` its partner with the
/// target bit set, and the pairs line up offset-for-offset. Offsets are
/// filtered by the within-stripe control mask `c_lo`.
pub fn pair_across(
    a: &mut [Complex],
    b: &mut [Complex],
    c_lo: usize,
    f: impl Fn(&mut Complex, &mut Complex),
) {
    debug_assert_eq!(a.len(), b.len(), "paired stripes must have equal length");
    for i in 0..a.len() {
        if i & c_lo == c_lo {
            f(&mut a[i], &mut b[i]);
        }
    }
}

/// One-pass SWAP kernel for two qubits that both address *within* the
/// stripe: exchanges the amplitudes of basis states with `(a=1, b=0)` and
/// `(a=0, b=1)`. A pure permutation — no complex arithmetic — so any
/// engine realizing SWAP this way stays bit-identical to one realizing it
/// as three CNOT passes.
pub fn swap_within(amps: &mut [Complex], abit: usize, bbit: usize) {
    debug_assert_ne!(abit, bbit, "SWAP needs distinct qubits");
    let xor = abit | bbit;
    for i in 0..amps.len() {
        if i & abit != 0 && i & bbit == 0 {
            amps.swap(i, i ^ xor);
        }
    }
}

/// One-round SWAP kernel for a mixed pair: qubit `a` addresses within the
/// stripe (`abit`), qubit `b` selects the shard. `low` is the stripe whose
/// shard index has the `b` bit clear, `high` its partner with the bit set;
/// the `(a=1, b=0)` amplitudes in `low` exchange with the `(a=0, b=1)`
/// amplitudes in `high` at offset `i ^ abit`. One stripe exchange replaces
/// the three cross-shard CNOT passes (6 transfers) of the naive
/// realization.
pub fn swap_across_mixed(low: &mut [Complex], high: &mut [Complex], abit: usize) {
    debug_assert_eq!(low.len(), high.len(), "paired stripes must match");
    for i in 0..low.len() {
        if i & abit != 0 {
            std::mem::swap(&mut low[i], &mut high[i ^ abit]);
        }
    }
}

/// Applies an arbitrary 2×2 unitary to every within-stripe amplitude pair
/// `(i, i | tbit)` whose low member satisfies the control mask `c_lo` —
/// the kernel behind every (controlled) single-qubit gate and fused 1q run
/// ([`crate::batch::BatchOp::Fused1q`]). The per-pair arithmetic — two
/// reads, then two multiply-add rows in matrix order — is defined here and
/// nowhere else, so a fused run and the gates it replaced, on any engine,
/// go through the same floating-point sequence.
pub fn pair_unitary(amps: &mut [Complex], c_lo: usize, tbit: usize, m: &Mat2) {
    pair_within(amps, c_lo, tbit, |a0, a1| {
        let (x0, x1) = (*a0, *a1);
        *a0 = m[0][0] * x0 + m[0][1] * x1;
        *a1 = m[1][0] * x0 + m[1][1] * x1;
    });
}

/// One-pass diagonal sweep (the [`crate::batch::BatchOp::PhaseSweep`]
/// kernel). For every amplitude, the global basis index is `base | i`;
/// each `(mask, d0, d1)` factor multiplies **sequentially in slice
/// order** — `d1` when `g & mask != 0`, else `d0` — and the amplitude is
/// finally negated when an odd number of `flips` masks are fully set
/// (`g & f == f`).
///
/// The factor order is the only floating-point degree of freedom (the
/// negation is exact), so callers on different deployments must present
/// factors in the same order to stay bit-identical. A factor constant
/// over the stripe (e.g. a shard-selecting qubit's contribution on a
/// remote worker) is encoded as `(0, c, c)` — `g & 0` is never nonzero,
/// so `d0 = c` always applies and the multiply sequence matches the
/// global-index run exactly. A flip mask of `0` is always fully set and
/// toggles the whole stripe.
pub fn phase_sweep(
    amps: &mut [Complex],
    base: usize,
    factors: &[(usize, Complex, Complex)],
    flips: &[usize],
) {
    for (i, a) in amps.iter_mut().enumerate() {
        let g = base | i;
        let mut v = *a;
        for &(mask, d0, d1) in factors {
            v *= if g & mask != 0 { d1 } else { d0 };
        }
        if flips.iter().filter(|&&f| g & f == f).count() % 2 == 1 {
            v = -v;
        }
        *a = v;
    }
}

/// Diagonal phase pass (the CZ kernel): negates every amplitude whose
/// within-stripe offset satisfies `lo_mask`. The caller is responsible for
/// only running it on stripes whose shard index satisfies the high mask.
pub fn phase_flip(amps: &mut [Complex], lo_mask: usize) {
    for (i, amp) in amps.iter_mut().enumerate() {
        if i & lo_mask == lo_mask {
            *amp = -*amp;
        }
    }
}

/// Partial probability mass of the basis states in this stripe whose
/// *global* index (stripe base ORed with the offset) matches `want` under
/// `mask`. Summing the partials over all stripes gives the global mass.
pub fn masked_norm(amps: &[Complex], base: usize, mask: usize, want: usize) -> f64 {
    amps.iter()
        .enumerate()
        .filter(|(i, _)| (base | i) & mask == want)
        .map(|(_, a)| a.norm_sqr())
        .sum()
}

/// Collapse pass: zeroes every amplitude whose global index does *not*
/// match `want` under `mask` and returns the kept probability mass of this
/// stripe. The caller renormalizes once the global mass is known.
pub fn collapse_keep(amps: &mut [Complex], base: usize, mask: usize, want: usize) -> f64 {
    let mut kept = 0.0f64;
    for (i, a) in amps.iter_mut().enumerate() {
        if (base | i) & mask == want {
            kept += a.norm_sqr();
        } else {
            *a = C_ZERO;
        }
    }
    kept
}

/// Partial probability mass of odd `mask`-parity basis states in this
/// stripe (joint Z-parity measurement, phase 1).
pub fn parity_prob_odd(amps: &[Complex], base: usize, mask: usize) -> f64 {
    amps.iter()
        .enumerate()
        .filter(|(i, _)| ((base | i) & mask).count_ones() % 2 == 1)
        .map(|(_, a)| a.norm_sqr())
        .sum()
}

/// Parity-collapse pass: keeps the `want_odd` parity subspace, zeroes the
/// rest, returns the kept mass of this stripe (joint Z-parity, phase 2).
pub fn collapse_parity(amps: &mut [Complex], base: usize, mask: usize, want_odd: bool) -> f64 {
    let mut kept = 0.0f64;
    for (i, a) in amps.iter_mut().enumerate() {
        let odd = ((base | i) & mask).count_ones() % 2 == 1;
        if odd == want_odd {
            kept += a.norm_sqr();
        } else {
            *a = C_ZERO;
        }
    }
    kept
}

/// Rescales every amplitude by the real factor (collapse renormalization,
/// phase 3 — broadcast once the global kept mass is reduced).
pub fn scale(amps: &mut [Complex], factor: f64) {
    for a in amps.iter_mut() {
        *a = a.scale(factor);
    }
}

/// Expectation value `<psi| P |psi>` of a Pauli string (a tensor product of
/// single-qubit Paulis on distinct qubits; identity elsewhere) over one
/// contiguous amplitude slice holding the whole register — the kernel the
/// dense [`crate::state::State`] runs. Walks the slice directly instead of
/// going through an accessor (measured: the accessor form costs a
/// whole-state readout about a fifth more), and shares [`pauli_masks`] and
/// the per-basis-state term with [`expectation_pauli`], so both accumulate
/// the identical floating-point sequence.
pub fn expectation_pauli_flat(amps: &[Complex], terms: &[PauliTerm]) -> f64 {
    let n_qubits = amps.len().trailing_zeros() as usize;
    let (x_mask, z_mask, i_pow) = pauli_masks(n_qubits, terms);
    let mut acc = Complex::default();
    for (g, &a) in amps.iter().enumerate() {
        if !a.is_negligible(NEGLIGIBLE) {
            acc += signed_term(a, amps[g ^ x_mask], g, z_mask);
        }
    }
    hermitian_value(i_pow, acc)
}

/// [`expectation_pauli_flat`] for callers whose amplitudes are not one
/// slice: reads them through `at` (global basis index → amplitude), so the
/// caller can serve them from locked stripes or anything else.
pub fn expectation_pauli(
    n_qubits: usize,
    at: impl Fn(usize) -> Complex,
    terms: &[PauliTerm],
) -> f64 {
    let (x_mask, z_mask, i_pow) = pauli_masks(n_qubits, terms);
    let mut acc = Complex::default();
    for g in 0..(1usize << n_qubits) {
        if let Some(t) = expectation_term(&at, g, x_mask, z_mask) {
            acc += t;
        }
    }
    hermitian_value(i_pow, acc)
}

/// Applies the `i^{#Y}` phase to a finished accumulator and returns the
/// (necessarily real) expectation value.
pub(crate) fn hermitian_value(i_pow: Complex, acc: Complex) -> f64 {
    let val = i_pow * acc;
    debug_assert!(
        val.im.abs() < 1e-9,
        "expectation of Hermitian operator must be real"
    );
    val.re
}

/// Derives the X/Z bit masks and the `i^{#Y}` phase factor of a Pauli
/// string — the quantities the evaluations above and the distributed
/// (per-stripe, gather-free) evaluation need. With the convention
/// `Y = i X Z`, `P|g> = i^{#Y} (-1)^{|g & z_mask|} |g ^ x_mask>`: `x_mask`
/// holds the qubits the string flips (X or Y), `z_mask` those acquiring a
/// `(-1)^bit` phase (Z or Y).
pub fn pauli_masks(n_qubits: usize, terms: &[PauliTerm]) -> (usize, usize, Complex) {
    use crate::gates::Pauli;
    let mut x_mask = 0usize;
    let mut z_mask = 0usize;
    let mut y_count = 0u32;
    for t in terms {
        assert!(t.qubit < n_qubits, "qubit {} out of range", t.qubit);
        match t.op {
            Pauli::X => x_mask |= 1 << t.qubit,
            Pauli::Z => z_mask |= 1 << t.qubit,
            Pauli::Y => {
                x_mask |= 1 << t.qubit;
                z_mask |= 1 << t.qubit;
                y_count += 1;
            }
        }
    }
    (x_mask, z_mask, y_phase(y_count))
}

/// `i^{y_count}`: the phase a Pauli string with that many Y factors carries.
pub(crate) fn y_phase(y_count: u32) -> Complex {
    match y_count % 4 {
        0 => Complex::real(1.0),
        1 => crate::complex::C_I,
        2 => Complex::real(-1.0),
        _ => -crate::complex::C_I,
    }
}

/// One basis state's contribution to the (pre-phase) Pauli expectation
/// accumulator: `conj(a[g ^ x_mask]) * a[g] * (-1)^{|g & z_mask|}`.
/// `None` when the amplitude at `g` is negligible — the caller must *skip*
/// (not add zero), so every evaluation path accumulates the identical
/// floating-point sequence.
#[inline]
pub fn expectation_term(
    at: &impl Fn(usize) -> Complex,
    g: usize,
    x_mask: usize,
    z_mask: usize,
) -> Option<Complex> {
    let a = at(g);
    if a.is_negligible(NEGLIGIBLE) {
        return None;
    }
    Some(signed_term(a, at(g ^ x_mask), g, z_mask))
}

/// Amplitudes below this magnitude are skipped by every Pauli-expectation
/// accumulation (skipped, not added as zero).
const NEGLIGIBLE: f64 = 1e-300;

/// The term a non-negligible amplitude `a` at basis state `g` contributes,
/// given its `x_mask` partner.
#[inline(always)]
fn signed_term(a: Complex, partner: Complex, g: usize, z_mask: usize) -> Complex {
    let sign = if (g & z_mask).count_ones() % 2 == 1 {
        -1.0
    } else {
        1.0
    };
    partner.conj() * a.scale(sign)
}

/// Removes qubit `target` from a dense amplitude vector, keeping the
/// `outcome` branch; qubits above `target` shift down one position. Returns
/// the halved vector plus the probability mass that was discarded — the
/// caller asserts it is negligible (the qubit must already be collapsed)
/// and renormalizes.
pub fn remove_qubit_flat(flat: &[Complex], target: usize, outcome: bool) -> (Vec<Complex>, f64) {
    let bit = 1usize << target;
    let low_mask = bit - 1;
    let keep = if outcome { bit } else { 0 };
    let mut out = vec![C_ZERO; flat.len() / 2];
    let mut dropped = 0.0f64;
    for (i, &a) in flat.iter().enumerate() {
        if i & bit == keep {
            let j = (i & low_mask) | ((i >> 1) & !low_mask);
            out[j] = a;
        } else {
            dropped += a.norm_sqr();
        }
    }
    (out, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C_ONE;
    use crate::gates::{cnot_matrix, swap_matrix, Gate};
    use crate::sim::AmpStore;
    use crate::state::State;

    fn uniform(n: usize) -> Vec<Complex> {
        let len = 1usize << n;
        vec![Complex::real(1.0 / (len as f64).sqrt()); len]
    }

    #[test]
    fn pair_within_matches_dense_1q_kernel() {
        // One 8-amplitude stripe; H on the low qubit via the raw pair walk
        // vs the dense state's entry point must be bit-identical.
        let mut dense = State::zero(3);
        dense.apply_1q(&[], 1, &Gate::H.matrix());
        let mut amps = vec![C_ZERO; 8];
        amps[0] = C_ONE;
        let m = Gate::H.matrix();
        pair_within(&mut amps, 0, 1 << 1, |a0, a1| {
            let (x0, x1) = (*a0, *a1);
            *a0 = m[0][0] * x0 + m[0][1] * x1;
            *a1 = m[1][0] * x0 + m[1][1] * x1;
        });
        for (i, &a) in amps.iter().enumerate() {
            assert_eq!(a, dense.amplitude(i), "amp[{i}]");
        }
    }

    #[test]
    fn pair_across_swaps_between_stripes() {
        // 2 stripes of 2 amps = 2 qubits; X on the high qubit swaps the
        // stripes offset-for-offset.
        let mut a = vec![Complex::real(1.0), Complex::real(2.0)];
        let mut b = vec![Complex::real(3.0), Complex::real(4.0)];
        pair_across(&mut a, &mut b, 0, std::mem::swap);
        assert_eq!(a, vec![Complex::real(3.0), Complex::real(4.0)]);
        assert_eq!(b, vec![Complex::real(1.0), Complex::real(2.0)]);
    }

    #[test]
    fn swap_within_matches_dense_swap_kernel() {
        // Arbitrary 3-qubit state; SWAP(0, 2) via the stripe kernel must
        // equal the 4x4 reference (whose 0/1 entries make it exact).
        let raw: Vec<Complex> = (0..8)
            .map(|i| Complex::new(i as f64 + 0.25, -(i as f64) * 0.5))
            .collect();
        let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let amps: Vec<Complex> = raw.iter().map(|a| a.scale(1.0 / norm)).collect();
        let mut dense = State::from_amplitudes(amps.clone());
        dense.apply_2q(2, 0, &swap_matrix());
        let mut striped = amps;
        swap_within(&mut striped, 1 << 0, 1 << 2);
        for (i, &a) in striped.iter().enumerate() {
            assert_eq!(a, dense.amplitude(i), "amp[{i}]");
        }
    }

    #[test]
    fn swap_across_mixed_exchanges_half_stripes() {
        // 2 stripes of 4 amps = 3 qubits; swap local qubit 0 with the
        // shard-selecting qubit 2. Global (a=1,b=0) indices are 1, 3 (in
        // low); partners (a=0,b=1) are 4, 6 (in high, offsets 0 and 2).
        let mut low: Vec<Complex> = (0..4).map(|i| Complex::real(i as f64)).collect();
        let mut high: Vec<Complex> = (0..4).map(|i| Complex::real(10.0 + i as f64)).collect();
        swap_across_mixed(&mut low, &mut high, 1 << 0);
        assert_eq!(low[1], Complex::real(10.0));
        assert_eq!(low[3], Complex::real(12.0));
        assert_eq!(high[0], Complex::real(1.0));
        assert_eq!(high[2], Complex::real(3.0));
        // Untouched members stay put.
        assert_eq!(low[0], Complex::real(0.0));
        assert_eq!(high[1], Complex::real(11.0));
    }

    #[test]
    fn pair_unitary_matches_dense_1q_kernel_bitwise() {
        let raw: Vec<Complex> = (0..8)
            .map(|i| Complex::new(0.1 + i as f64, 0.7 - (i as f64) * 0.2))
            .collect();
        let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let amps: Vec<Complex> = raw.iter().map(|a| a.scale(1.0 / norm)).collect();
        let m = crate::gates::matmul2(&Gate::H.matrix(), &Gate::T.matrix());
        // Reference: the two multiply-add rows written out per pair.
        let mut dense = amps.clone();
        for i0 in [0b000, 0b001, 0b100, 0b101] {
            let (x0, x1) = (amps[i0], amps[i0 | 0b10]);
            dense[i0] = m[0][0] * x0 + m[0][1] * x1;
            dense[i0 | 0b10] = m[1][0] * x0 + m[1][1] * x1;
        }
        let mut striped = amps;
        pair_unitary(&mut striped, 0, 1 << 1, &m);
        for (i, &a) in striped.iter().enumerate() {
            assert_eq!(a, dense[i], "amp[{i}]");
        }
    }

    #[test]
    fn phase_sweep_applies_factors_in_order_and_flips_by_parity() {
        // S on qubit 0, T on qubit 1, CZ(0,1) over a 2-qubit stripe at
        // base 0: check each amplitude against the hand-applied sequence.
        let amps: Vec<Complex> = vec![
            Complex::new(0.5, 0.1),
            Complex::new(-0.3, 0.4),
            Complex::new(0.2, -0.6),
            Complex::new(0.1, 0.3),
        ];
        let s = Gate::S.matrix();
        let t = Gate::T.matrix();
        let factors = [(0b01, s[0][0], s[1][1]), (0b10, t[0][0], t[1][1])];
        let flips = [0b11usize];
        let mut swept = amps.clone();
        phase_sweep(&mut swept, 0, &factors, &flips);
        for (g, &a) in amps.iter().enumerate() {
            let mut want = a;
            for &(mask, d0, d1) in &factors {
                want *= if g & mask != 0 { d1 } else { d0 };
            }
            if g & 0b11 == 0b11 {
                want = -want;
            }
            assert_eq!(swept[g], want, "amp[{g}]");
        }
    }

    #[test]
    fn phase_sweep_constant_factor_and_base_offset() {
        // A stripe at base 4 (shard bit 2 set): qubit 2's d1 is constant
        // over the stripe and can equivalently be encoded as (0, d1, d1);
        // both encodings must produce bit-identical amplitudes.
        let t = Gate::T.matrix();
        let amps: Vec<Complex> = (0..4)
            .map(|i| Complex::new(0.3 - i as f64 * 0.1, 0.2 * i as f64))
            .collect();
        let mut global = amps.clone();
        phase_sweep(&mut global, 4, &[(0b100, t[0][0], t[1][1])], &[]);
        let mut local = amps.clone();
        phase_sweep(&mut local, 0, &[(0, t[1][1], t[1][1])], &[]);
        assert_eq!(global, local);
        // A flip mask of 0 negates the entire stripe.
        let mut flipped = amps.clone();
        phase_sweep(&mut flipped, 0, &[], &[0]);
        for (i, &a) in amps.iter().enumerate() {
            assert_eq!(flipped[i], -a);
        }
        // An even flip count cancels exactly.
        let mut twice = amps.clone();
        phase_sweep(&mut twice, 0, &[], &[0, 0]);
        assert_eq!(twice, amps);
    }

    #[test]
    fn masked_norm_and_collapse_agree() {
        let mut amps = uniform(3);
        // Global indices 4..8 have bit 2 set; this stripe's base is 0.
        let p = masked_norm(&amps, 0, 0b100, 0b100);
        assert!((p - 0.5).abs() < 1e-12);
        let kept = collapse_keep(&mut amps, 0, 0b100, 0b100);
        assert!((kept - 0.5).abs() < 1e-12);
        assert_eq!(amps[0], C_ZERO);
        assert!(amps[4].norm_sqr() > 0.0);
    }

    #[test]
    fn base_offsets_masked_queries() {
        // The same stripe content at base 4 (= top bit set) now matches on
        // the high bit for every offset.
        let amps = uniform(2);
        assert!((masked_norm(&amps, 4, 0b100, 0b100) - 1.0).abs() < 1e-12);
        assert!(masked_norm(&amps, 4, 0b100, 0) < 1e-12);
    }

    #[test]
    fn parity_kernels_split_mass() {
        let mut amps = uniform(2);
        let p_odd = parity_prob_odd(&amps, 0, 0b11);
        assert!((p_odd - 0.5).abs() < 1e-12);
        let kept = collapse_parity(&mut amps, 0, 0b11, false);
        assert!((kept - 0.5).abs() < 1e-12);
        assert_eq!(amps[0b01], C_ZERO);
        assert_eq!(amps[0b10], C_ZERO);
        scale(&mut amps, 1.0 / kept.sqrt());
        let total: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn remove_qubit_flat_drops_collapsed_branch() {
        // |10>: removing qubit 0 (value 0) keeps qubit 1's |1>.
        let mut flat = vec![C_ZERO; 4];
        flat[0b10] = C_ONE;
        let (out, dropped) = remove_qubit_flat(&flat, 0, false);
        assert!(dropped < 1e-12);
        assert_eq!(out, vec![C_ZERO, C_ONE]);
    }

    #[test]
    fn single_qubit_register_is_one_two_amplitude_stripe() {
        // The smallest register the kernels ever see: n=1, one stripe of
        // two amplitudes, tbit == 1. Every kernel must degrade cleanly.
        let mut dense = State::zero(1);
        dense.apply_1q(&[], 0, &Gate::H.matrix());
        let mut amps = vec![C_ONE, C_ZERO];
        let m = Gate::H.matrix();
        pair_within(&mut amps, 0, 1, |a0, a1| {
            let (x0, x1) = (*a0, *a1);
            *a0 = m[0][0] * x0 + m[0][1] * x1;
            *a1 = m[1][0] * x0 + m[1][1] * x1;
        });
        assert_eq!(amps[0], dense.amplitude(0));
        assert_eq!(amps[1], dense.amplitude(1));
        // Diagonal pass on the only |1> state.
        phase_flip(&mut amps, 0b1);
        assert_eq!(amps[1], -dense.amplitude(1));
        // Probability and collapse over the whole (single-stripe) mass.
        assert!((masked_norm(&amps, 0, 0b1, 0b1) - 0.5).abs() < 1e-12);
        let kept = collapse_keep(&mut amps, 0, 0b1, 0);
        assert!((kept - 0.5).abs() < 1e-12);
        assert_eq!(amps[1], C_ZERO);
    }

    #[test]
    fn one_shard_configuration_covers_the_full_register() {
        // k=0 stripes: the single stripe holds all 2^n amplitudes at base
        // 0 and the cross-stripe kernels never fire. The within-stripe
        // CNOT (control mask + swap pair) must equal the 4x4 reference
        // (whose 0/1 entries make it exact) on an arbitrary state.
        let raw: Vec<Complex> = (0..8)
            .map(|i| Complex::new(0.5 + i as f64, (i as f64) * 0.3 - 1.0))
            .collect();
        let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let amps: Vec<Complex> = raw.iter().map(|a| a.scale(1.0 / norm)).collect();
        let mut dense = State::from_amplitudes(amps.clone());
        dense.apply_2q(2, 0, &cnot_matrix());
        let mut striped = amps;
        pair_within(&mut striped, 1 << 2, 1 << 0, |a0, a1| {
            std::mem::swap(a0, a1)
        });
        for (i, &a) in striped.iter().enumerate() {
            assert_eq!(a, dense.amplitude(i), "amp[{i}]");
        }
        // With one stripe, its masked partial IS the global mass.
        let p1: f64 = masked_norm(&striped, 0, 0b1, 0b1);
        let p0: f64 = masked_norm(&striped, 0, 0b1, 0);
        assert!((p0 + p1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn removing_the_last_remaining_qubit_leaves_the_scalar_state() {
        // Freeing the final qubit halves a 2-amplitude vector down to the
        // 0-qubit register: one amplitude, carrying the full phase.
        let one = [C_ZERO, C_ONE];
        let (out, dropped) = remove_qubit_flat(&one, 0, true);
        assert!(dropped < 1e-12);
        assert_eq!(out, vec![C_ONE]);
        // The kept branch's complex phase survives the removal untouched.
        let phase = Complex::new(0.6, 0.8);
        let zero = [phase, C_ZERO];
        let (out, dropped) = remove_qubit_flat(&zero, 0, false);
        assert!(dropped < 1e-12);
        assert_eq!(out, vec![phase]);
        // Removing against the empty branch reports the discarded mass
        // instead of silently keeping it.
        let (out, dropped) = remove_qubit_flat(&one, 0, false);
        assert_eq!(out, vec![C_ZERO]);
        assert!((dropped - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_via_accessor_matches_known_values() {
        use crate::gates::Pauli;
        // Bell pair: <ZZ> = +1, <XX> = +1.
        let s = 1.0 / 2.0f64.sqrt();
        let flat = [Complex::real(s), C_ZERO, C_ZERO, Complex::real(s)];
        let term = |q: usize, op: Pauli| PauliTerm { qubit: q, op };
        let zz = expectation_pauli(2, |g| flat[g], &[term(0, Pauli::Z), term(1, Pauli::Z)]);
        let xx = expectation_pauli(2, |g| flat[g], &[term(0, Pauli::X), term(1, Pauli::X)]);
        assert!((zz - 1.0).abs() < 1e-12);
        assert!((xx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flat_and_accessor_expectations_agree_bitwise() {
        use crate::gates::Pauli;
        // Arbitrary 4-qubit state with one exact zero (the skip path).
        let mut raw: Vec<Complex> = (0..16)
            .map(|i| Complex::new(0.3 + i as f64 * 0.11, 0.9 - i as f64 * 0.07))
            .collect();
        raw[5] = C_ZERO;
        let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let flat: Vec<Complex> = raw.iter().map(|a| a.scale(1.0 / norm)).collect();
        let term = |q: usize, op: Pauli| PauliTerm { qubit: q, op };
        for terms in [
            vec![term(0, Pauli::Z)],
            vec![term(1, Pauli::X), term(3, Pauli::Z)],
            vec![term(0, Pauli::Y), term(2, Pauli::Y), term(3, Pauli::X)],
        ] {
            let via_slice = expectation_pauli_flat(&flat, &terms);
            let via_accessor = expectation_pauli(4, |g| flat[g], &terms);
            assert_eq!(via_slice.to_bits(), via_accessor.to_bits(), "{terms:?}");
        }
    }
}
