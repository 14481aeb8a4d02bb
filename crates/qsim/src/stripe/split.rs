//! The dense store's element-wise kernels split across two threads: the
//! caller and the helper of [`super::dispatch::join`].
//!
//! A call over at least [`SPLIT_MIN`] amplitudes is cut at the top index bit
//! and each half runs the serial kernel over its own amplitudes, so every
//! amplitude goes through exactly the operations it does unsplit: a split
//! call leaves the same bits. A gate targeting the top bit pairs the halves
//! offset for offset and is cut at the next bit down instead; a control on
//! the bit a call is cut at runs the half where it is set, alone. A sum
//! is exact ([`super::ExactSum`]), so its two halves merge to the bits the
//! whole would sum to.
//!
//! Only [`crate::state::State`] calls these. The remote workers keep the
//! serial kernels: the workers' shards already occupy the cores.

use super::dispatch::{join, wide};
use super::{
    branch_masses, diagonal_sums, each_string, expectation_partial, odd_tables, parity_sum,
    renormalizer, ExactSum, PairKernel,
};
use crate::complex::Complex;
use crate::measure::PauliTerm;

/// Fewest amplitudes a call must cover to be split. Splitting costs a
/// handoff of a few microseconds; at 2^15 amplitudes (512 KiB) the second
/// core already saves more on a one-qubit gate, and a protocol's registers
/// of a few hundred amplitudes stay on one thread.
pub(crate) const SPLIT_MIN: usize = 1 << 15;

/// Runs `f` on two pieces of a call cut at index bit `bit`, each with the
/// control mask it needs there: a control on `bit` itself selects the upper
/// piece, which runs alone without it.
fn on_pieces<T: Send>(c_lo: usize, bit: usize, low: T, high: T, f: impl Fn(T, usize) + Sync) {
    if c_lo & bit != 0 {
        f(high, c_lo & !bit);
    } else {
        join(|| f(low, c_lo), || f(high, c_lo));
    }
}

/// [`PairKernel::apply_within`] over the whole register.
pub(crate) fn apply_within(kernel: PairKernel, amps: &mut [Complex], c_lo: usize, tbit: usize) {
    let top = amps.len() / 2;
    if amps.len() < SPLIT_MIN {
        return kernel.apply_within(amps, c_lo, tbit);
    }
    let (low, high) = amps.split_at_mut(top);
    if tbit == top {
        // The pairs are `(i, i + top)`: cut both halves in two, offset for
        // offset, and run each quarter pair across.
        let quarter = top / 2;
        let (low, low_up) = low.split_at_mut(quarter);
        let (high, high_up) = high.split_at_mut(quarter);
        on_pieces(
            c_lo,
            quarter,
            (low, high),
            (low_up, high_up),
            |(a, b), c_lo| kernel.apply_across(a, b, c_lo),
        );
    } else {
        on_pieces(c_lo, top, low, high, |half, c_lo| {
            kernel.apply_within(half, c_lo, tbit)
        });
    }
}

/// [`super::phase_sweep`] over the whole register (`base = 0`).
pub(crate) fn phase_sweep(
    amps: &mut [Complex],
    factors: &[(usize, Complex, Complex)],
    flips: &[usize],
) {
    let top = amps.len() / 2;
    if amps.len() < SPLIT_MIN {
        return super::phase_sweep(amps, 0, factors, flips);
    }
    let (low, high) = amps.split_at_mut(top);
    join(
        || super::phase_sweep(low, 0, factors, flips),
        || super::phase_sweep(high, top, factors, flips),
    );
}

/// [`super::phase_flip`] over the whole register.
pub(crate) fn phase_flip(amps: &mut [Complex], mask: usize) {
    let top = amps.len() / 2;
    if amps.len() < SPLIT_MIN {
        return super::phase_flip(amps, mask);
    }
    let (low, high) = amps.split_at_mut(top);
    on_pieces(mask, top, low, high, super::phase_flip);
}

/// [`super::swap_within`] over the whole register; split when neither
/// qubit is the top one.
pub(crate) fn swap_within(amps: &mut [Complex], abit: usize, bbit: usize) {
    let top = amps.len() / 2;
    if amps.len() < SPLIT_MIN || (abit | bbit) & top != 0 {
        return super::swap_within(amps, abit, bbit);
    }
    let (low, high) = amps.split_at_mut(top);
    join(
        || super::swap_within(low, abit, bbit),
        || super::swap_within(high, abit, bbit),
    );
}

/// [`super::scale`] over the whole register.
pub(crate) fn scale(amps: &mut [Complex], factor: f64) {
    if amps.len() < SPLIT_MIN {
        return super::scale(amps, factor);
    }
    let (low, high) = amps.split_at_mut(amps.len() / 2);
    join(|| super::scale(low, factor), || super::scale(high, factor));
}

/// Measures bit `tbit` against the uniform draw `u` and returns the outcome
/// with its branch's mass: set (odd) when `u` is below the set branch's
/// mass, which is [`parity_prob_odd`]'s to the bit.
pub(crate) fn measure(amps: &[Complex], tbit: usize, u: f64) -> (bool, f64) {
    let [even, odd] = masses(amps, tbit).map(ExactSum::finish);
    if u < odd {
        (true, odd)
    } else {
        (false, even)
    }
}

/// [`branch_masses`] under `mask` over the whole register (`base = 0`),
/// each half of it on one thread.
pub(crate) fn masses(amps: &[Complex], mask: usize) -> [ExactSum; 2] {
    merged(amps, |half, base| branch_masses(half, base, mask))
}

/// The mass of the odd `mask`-parity basis states over the whole register
/// ([`parity_sum`] at `base = 0`), each half of it on one thread.
pub(crate) fn parity_prob_odd(amps: &[Complex], mask: usize) -> f64 {
    let [odd] = merged(amps, |half, base| [parity_sum(half, base, mask)]);
    odd.finish()
}

/// [`super::collapse_remove_in_place`] over the whole register. With the
/// target on the top bit the kept half moves down as one run onto the
/// dropped half (or stays), so the pass splits: each thread rescales one
/// quarter of the register.
pub(crate) fn collapse_remove(amps: &mut Vec<Complex>, target: usize, outcome: bool, kept: f64) {
    let factor = renormalizer(kept);
    let top = amps.len() / 2;
    if amps.len() < SPLIT_MIN || 1 << target != top {
        return super::collapse_remove_in_place(amps, target, outcome, factor);
    }
    let (low, high) = amps.split_at_mut(top);
    let (low, low_up) = low.split_at_mut(top / 2);
    if outcome {
        let (high, high_up) = high.split_at_mut(top / 2);
        let rescale = |to: &mut [Complex], from: &[Complex]| {
            wide!(Avx2, {
                for (to, a) in to.iter_mut().zip(from) {
                    *to = a.scale(factor);
                }
            })
        };
        join(|| rescale(low, high), || rescale(low_up, high_up));
    } else {
        join(
            || super::scale(low, factor),
            || super::scale(low_up, factor),
        );
    }
    amps.truncate(top);
}

/// The two halves' partial sums of `f`, merged: `f(half, base)` on each
/// half of the register, one per thread. (Nothing is allocated on the
/// helper: a small allocation there can pin freed state vectors in the
/// heap.)
fn merged<const N: usize>(
    amps: &[Complex],
    f: impl Fn(&[Complex], usize) -> [ExactSum; N] + Sync,
) -> [ExactSum; N] {
    if amps.len() < SPLIT_MIN {
        return f(amps, 0);
    }
    let top = amps.len() / 2;
    let (low, high) = amps.split_at(top);
    let (mut sums, upper) = join(|| f(low, 0), || f(high, top));
    for (sum, upper) in sums.iter_mut().zip(upper) {
        sum.merge(upper);
    }
    sums
}

/// The value of each Pauli string over the whole register, the diagonal
/// (Z-only) ones read together in one sweep; each sweep's two halves on two
/// threads: a half's partners lie in the other half where the X mask flips
/// the top bit.
pub(crate) fn expectation_each(amps: &[Complex], strings: &[Vec<PauliTerm>]) -> Vec<f64> {
    let pauli_sums = |x_mask: usize, z_mask| {
        merged(amps, |half, base| {
            let local = half.len() - 1;
            let partners = &amps[base ^ (x_mask & !local)..][..half.len()];
            let mut acc = [ExactSum::ZERO; 2];
            expectation_partial(half, partners, base, x_mask & local, z_mask, &mut acc);
            acc
        })
    };
    each_string(amps.len(), strings, pauli_sums, |z_masks| {
        let (n, tables) = (z_masks.len(), odd_tables(z_masks));
        let mut sums = vec![ExactSum::ZERO; 2 * n];
        let (low_sums, high_sums) = sums.split_at_mut(n);
        if amps.len() < SPLIT_MIN {
            diagonal_sums(amps, 0, z_masks, &tables, low_sums);
        } else {
            let (low, high) = amps.split_at(amps.len() / 2);
            join(
                || diagonal_sums(low, 0, z_masks, &tables, low_sums),
                || diagonal_sums(high, low.len(), z_masks, &tables, high_sums),
            );
        }
        for k in 0..n {
            let upper = sums[n + k];
            sums[k].merge(upper);
        }
        sums.truncate(n);
        sums
    })
}
