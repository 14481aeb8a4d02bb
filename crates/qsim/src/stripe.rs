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
//! cross-stripe kernels never fire); the in-process
//! [`crate::sharded::ShardedState`] loops over its stripes calling them; and
//! a process-separated shard worker receiving commands over a message
//! channel runs them on the stripe it owns. One kernel set is what keeps
//! dense, striped, and remote-sharded engines bit-identical: there is no
//! second copy of the arithmetic to drift. The sparse map
//! ([`crate::sparse`]) evaluates the same expressions in the same order
//! over its present entries.
//!
//! # Traversal
//!
//! No kernel computes an index per amplitude. A gate on bit `t` pairs
//! *contiguous blocks* of `2^t` amplitudes, and a condition on a set of
//! index bits is constant over every aligned run as long as the lowest of
//! them, so the kernels walk runs (`for_runs`): the condition is tested once
//! per run, blocks whose controls above the target are clear are skipped
//! whole, and the arithmetic loops over plain slices. Every reduction still
//! adds into one accumulator in ascending index order: runs remove the
//! per-amplitude test, they do not re-associate the sum.

use crate::batch::{named, SweepFactor};
use crate::complex::{Complex, C_ZERO};
use crate::gates::Mat2;
use crate::measure::PauliTerm;

/// Calls `f` with the offset of each whole `len`-long run below `total`, in
/// ascending order. Inlined, so a constant `len` is a constant length of
/// every slice the caller cuts with it.
#[inline(always)]
fn walk(total: usize, len: usize, f: &mut impl FnMut(usize)) {
    let mut at = 0;
    while at + len <= total {
        f(at);
        at += len;
    }
}

/// Lowest set bit of `bits`: the length of the aligned runs over which
/// `index & bits` is constant (with no bit set, everywhere).
#[inline(always)]
fn run_len(bits: usize) -> usize {
    match bits {
        0 => usize::MAX,
        _ => 1 << bits.trailing_zeros(),
    }
}

/// Evaluates `$walk` with `$len` bound as a constant when it is 1 or 2: a
/// run that short cannot pay for a loop whose trip count is read at run
/// time; with the length known, the kernel's loop over the run unrolls.
macro_rules! walk_known_short {
    ($len:expr, |$known:ident| $walk:expr) => {
        match $len {
            1 => {
                let $known = 1usize;
                $walk
            }
            2 => {
                let $known = 2usize;
                $walk
            }
            $known => $walk,
        }
    };
}

/// The traversal under every kernel: cuts `total` amplitudes (a power of
/// two) into the aligned runs on which `index & bits` is constant and hands
/// `f` each one's offset and length in ascending order. Runs are taken two
/// at a time: neighbours differ in the lowest bit of `bits`, so a test of it
/// reads the same, run after run, at each place `f` is called from. (That is
/// seven places; where the optimizer would rather call `f` than inline it
/// that often, the caller marks its closure `#[inline(always)]`.)
fn for_runs(total: usize, bits: usize, mut f: impl FnMut(usize, usize)) {
    debug_assert!(total == 0 || total.is_power_of_two());
    if run_len(bits) >= total {
        return f(0, total);
    }
    walk_known_short!(run_len(bits), |len| walk(total, 2 * len, &mut |at| {
        f(at, len);
        f(at + len, len);
    }));
}

/// Hands `f` the runs of two equal-length slices, offset for offset, whose
/// offsets satisfy the control mask `c_lo`.
#[inline(always)]
fn across_runs(
    a: &mut [Complex],
    b: &mut [Complex],
    c_lo: usize,
    mut f: impl FnMut(&mut [Complex], &mut [Complex]),
) {
    debug_assert_eq!(a.len(), b.len(), "paired stripes must have equal length");
    for_runs(
        a.len().min(b.len()),
        c_lo,
        #[inline(always)]
        |at, len| {
            if at & c_lo == c_lo {
                f(&mut a[at..at + len], &mut b[at..at + len]);
            }
        },
    );
}

/// Hands `f` every pair of runs `(i.., (i | tbit)..)` within one stripe
/// whose low member satisfies `c_lo`: blocks of `2·tbit`, skipped whole
/// unless the controls above the target are all set, then the runs of the
/// two halves that the controls below it select.
#[inline(always)]
fn within_runs(
    amps: &mut [Complex],
    c_lo: usize,
    tbit: usize,
    mut f: impl FnMut(&mut [Complex], &mut [Complex]),
) {
    let (below, above) = (c_lo & (tbit - 1), c_lo & !(tbit - 1));
    walk_known_short!(run_len(below | tbit), |len| {
        // With no control below the target a half is one run, so a block of
        // known-short halves is itself of known length.
        let block = if below == 0 { 2 * len } else { 2 * tbit };
        walk(amps.len(), block, &mut |at| {
            if at & above == above {
                let (lo, hi) = amps[at..at + block].split_at_mut(block / 2);
                walk(block / 2, len, &mut |at| {
                    if at & below == below {
                        f(&mut lo[at..at + len], &mut hi[at..at + len]);
                    }
                });
            }
        })
    });
}

/// Applies `f` to the pairs of one run pair, offset for offset. (Indexed,
/// not zipped: inlined, a zipped loop is guarded by an overlap check on the
/// enclosing stripes, which the adjacent halves of a block fail.)
#[inline(always)]
fn each_pair(lo: &mut [Complex], hi: &mut [Complex], f: impl Fn(&mut Complex, &mut Complex)) {
    let len = lo.len().min(hi.len());
    let (lo, hi) = (&mut lo[..len], &mut hi[..len]);
    for j in 0..len {
        f(&mut lo[j], &mut hi[j]);
    }
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
    within_runs(amps, c_lo, tbit, |lo, hi| each_pair(lo, hi, &f));
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
    across_runs(a, b, c_lo, |lo, hi| each_pair(lo, hi, &f));
}

/// What a pairing gate does to each amplitude pair it selects: a full 2×2
/// unitary, or the CNOT/SWAP fast path (a pure amplitude swap, no
/// arithmetic). Every engine's pair gates, within a stripe and across two,
/// run through here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PairKernel {
    /// Swap the pair members (CNOT/SWAP fast path).
    Swap,
    /// Multiply the pair by a 2x2 matrix.
    Mat(Mat2),
}

impl PairKernel {
    /// The kernel over one run pair. The 2×2 arithmetic — two reads, then
    /// two multiply-add rows in matrix order — is spelled here and nowhere
    /// else, so a fused run and the gates it replaced, on any engine, go
    /// through the same floating-point sequence. (By-value reads and writes
    /// with the matrix in locals: the form that vectorizes unguarded.)
    #[inline(always)]
    fn run(self, lo: &mut [Complex], hi: &mut [Complex]) {
        match self {
            PairKernel::Swap => lo.swap_with_slice(hi),
            PairKernel::Mat([[m00, m01], [m10, m11]]) => {
                let len = lo.len().min(hi.len());
                let (lo, hi) = (&mut lo[..len], &mut hi[..len]);
                for j in 0..len {
                    let (x0, x1) = (lo[j], hi[j]);
                    lo[j] = m00 * x0 + m01 * x1;
                    hi[j] = m10 * x0 + m11 * x1;
                }
            }
        }
    }

    /// Runs the kernel over the within-stripe pairs `(i, i | tbit)` whose
    /// low member satisfies the control mask `c_lo`.
    pub fn apply_within(self, amps: &mut [Complex], c_lo: usize, tbit: usize) {
        within_runs(amps, c_lo, tbit, |lo, hi| self.run(lo, hi));
    }

    /// Runs the kernel across a stripe pair (the target bit selects the
    /// shard), offset for offset, on the offsets satisfying `c_lo`.
    pub fn apply_across(self, a: &mut [Complex], b: &mut [Complex], c_lo: usize) {
        across_runs(a, b, c_lo, |lo, hi| self.run(lo, hi));
    }
}

/// Applies an arbitrary 2×2 unitary to every within-stripe amplitude pair
/// `(i, i | tbit)` whose low member satisfies the control mask `c_lo` —
/// the kernel behind every (controlled) single-qubit gate and fused 1q run
/// ([`crate::batch::BatchOp::Fused1q`]): [`PairKernel::Mat`] in one stripe.
pub fn pair_unitary(amps: &mut [Complex], c_lo: usize, tbit: usize, m: &Mat2) {
    PairKernel::Mat(*m).apply_within(amps, c_lo, tbit);
}

/// One-pass SWAP kernel for two qubits that both address *within* the
/// stripe: exchanges the amplitudes of basis states with `(a=1, b=0)` and
/// `(a=0, b=1)`. A pure permutation — no complex arithmetic — so any
/// engine realizing SWAP this way stays bit-identical to one realizing it
/// as three CNOT passes.
pub fn swap_within(amps: &mut [Complex], abit: usize, bbit: usize) {
    debug_assert_ne!(abit, bbit, "SWAP needs distinct qubits");
    let (lo_bit, hi_bit) = (abit.min(bbit), abit.max(bbit));
    walk_known_short!(lo_bit, |lo_bit| walk(amps.len(), 2 * hi_bit, &mut |at| {
        let (low, high) = amps[at..at + 2 * hi_bit].split_at_mut(hi_bit);
        swap_set_with_clear(low, high, lo_bit);
    }));
}

/// One-round SWAP kernel for a mixed pair: qubit `a` addresses within the
/// stripe (`abit`), qubit `b` selects the shard. `low` is the stripe whose
/// shard index has the `b` bit clear, `high` its partner with the bit set;
/// the `(a=1, b=0)` runs of `low` exchange with the `(a=0, b=1)` runs of
/// `high`, `abit` amplitudes at a time. One stripe exchange replaces the
/// three cross-shard CNOT passes (6 transfers) of the naive realization.
pub fn swap_across_mixed(low: &mut [Complex], high: &mut [Complex], abit: usize) {
    debug_assert_eq!(low.len(), high.len(), "paired stripes must match");
    walk_known_short!(abit, |abit| swap_set_with_clear(low, high, abit));
}

/// Exchanges each `abit`-set run of `low` with the `abit`-clear run of
/// `high` one run before it.
#[inline(always)]
fn swap_set_with_clear(low: &mut [Complex], high: &mut [Complex], abit: usize) {
    walk(low.len().min(high.len()), 2 * abit, &mut |at| {
        low[at + abit..at + 2 * abit].swap_with_slice(&mut high[at..at + abit])
    });
}

/// Amplitudes [`phase_sweep`] keeps one table of factor products for, and
/// flips, before moving on: few enough that table and tile stay in the
/// first-level cache.
const SWEEP_TILE: usize = 1 << 9;

/// One-pass diagonal sweep (the [`crate::batch::BatchOp::PhaseSweep`]
/// kernel). For every amplitude, the global basis index is `g = base | i`.
/// A `(mask, d0, d1)` factor selects `d1` when an odd number of the `mask`
/// bits of `g` are set, else `d0`; the selected factors are multiplied
/// together **left to right in slice order** (the first starts the product),
/// the amplitude is multiplied by that product once, and it is finally
/// negated when an odd number of `flips` masks are fully set (`g & f == f`).
///
/// The product is constant over every aligned run as long as the lowest bit
/// any mask reads, so it is computed once per run of a tile, not per
/// amplitude, and a tile's table of products is kept for the next tile for
/// as long as the index bits the masks read above the tile are unchanged:
/// masks below the tile build one table for the whole stripe, masks above
/// it a handful of products per tile.
///
/// The factor order and the product-first association are the only
/// floating-point degrees of freedom (the negation is exact), so callers on
/// different deployments must present factors in the same order to stay
/// bit-identical. A factor constant over the stripe (e.g. a shard-selecting
/// qubit's contribution on a remote worker) is encoded as `(0, c, c)` — no
/// bit of `g & 0` is set, so `d0 = c` always applies and the product
/// matches the global-index run exactly; a mask that reads shard bits and
/// stripe bits arrives with the stripe bits only and `(d0, d1)` swapped on
/// the shards whose bits have odd parity. A flip mask of `0` is always
/// fully set and toggles the whole stripe.
pub fn phase_sweep(
    amps: &mut [Complex],
    base: usize,
    factors: &[(usize, Complex, Complex)],
    flips: &[usize],
) {
    let reads = factors.iter().fold(0, |bits, f| bits | f.0);
    let tile_len = amps.len().clamp(1, SWEEP_TILE);
    let run = run_len(reads).min(tile_len);
    let above = reads & !(tile_len - 1);
    let mut table = [C_ZERO; SWEEP_TILE];
    let mut built_for = None;
    for_runs(amps.len(), SWEEP_TILE, |at, len| {
        let (base, tile) = (base | at, &mut amps[at..at + len]);
        if let Some((first, rest)) = factors.split_first() {
            let table = &mut table[..len / run];
            if built_for != Some(base & above) {
                for (r, product) in table.iter_mut().enumerate() {
                    let g = base | (r * run);
                    *product = rest
                        .iter()
                        .fold(selected(g, first), |p, f| p * selected(g, f));
                }
                built_for = Some(base & above);
            }
            walk_known_short!(run, |run| {
                for (amps, &product) in tile.chunks_exact_mut(run).zip(table.iter()) {
                    amps.iter_mut().for_each(|a| *a *= product);
                }
            });
        }
        for &flip in flips {
            phase_flip_where(tile, flip, |at| (base | at) & flip == flip);
        }
    });
}

/// The entry of a [`phase_sweep`] factor that basis index `g` selects.
#[inline(always)]
fn selected(g: usize, &(mask, d0, d1): &(usize, Complex, Complex)) -> Complex {
    if odd_parity(g, mask) {
        d1
    } else {
        d0
    }
}

/// The `(mask, d0, d1)` factors and flip masks [`phase_sweep`] takes, from a
/// sweep held the way a simulator front resolves it: the listed qubits'
/// `positions`, factor sets as bit masks over that list, CZ position pairs.
pub fn sweep_masks(
    positions: &[usize],
    diags: &[SweepFactor],
    czs: &[(usize, usize)],
) -> (Vec<(usize, Complex, Complex)>, Vec<usize>) {
    let factors = diags.iter().map(|&(set, d0, d1)| {
        let mask = named(set, positions).fold(0, |mask, p| mask | 1usize << p);
        (mask, d0, d1)
    });
    let flips = czs.iter().map(|&(a, b)| 1usize << a | 1usize << b);
    (factors.collect(), flips.collect())
}

/// Negates the runs of `amps`, as `bits` cuts them, whose offset passes
/// `selected`.
#[inline(always)]
fn phase_flip_where(amps: &mut [Complex], bits: usize, selected: impl Fn(usize) -> bool) {
    for_runs(amps.len(), bits, |at, len| {
        if selected(at) {
            amps[at..at + len].iter_mut().for_each(|a| *a = -*a);
        }
    });
}

/// Diagonal phase pass (the CZ kernel): negates every amplitude whose
/// within-stripe offset satisfies `lo_mask`. The caller is responsible for
/// only running it on stripes whose shard index satisfies the high mask.
pub fn phase_flip(amps: &mut [Complex], lo_mask: usize) {
    phase_flip_where(amps, lo_mask, |at| at & lo_mask == lo_mask);
}

/// Probability mass of the runs of `amps`, as `bits` cuts them, whose
/// global start index passes `selected`: one sum, in ascending index order,
/// over exactly the selected amplitudes.
#[inline(always)]
fn norm_where(amps: &[Complex], base: usize, bits: usize, selected: impl Fn(usize) -> bool) -> f64 {
    // What `Iterator::sum` makes of no terms, and of these terms after it.
    let mut mass = -0.0f64;
    for_runs(amps.len(), bits, |at, len| {
        if selected(base | at) {
            for a in &amps[at..at + len] {
                mass += a.norm_sqr();
            }
        }
    });
    mass
}

/// Zeroes the runs of `amps`, as `bits` cuts them, whose global start index
/// fails `keep`, and returns the mass of the rest: one sum, in ascending
/// index order, over exactly the kept amplitudes.
#[inline(always)]
fn collapse_where(
    amps: &mut [Complex],
    base: usize,
    bits: usize,
    keep: impl Fn(usize) -> bool,
) -> f64 {
    let mut kept = 0.0f64;
    for_runs(amps.len(), bits, |at, len| {
        let run = &mut amps[at..at + len];
        if keep(base | at) {
            for a in run.iter() {
                kept += a.norm_sqr();
            }
        } else {
            run.fill(C_ZERO);
        }
    });
    kept
}

/// True when an odd number of the `mask` bits of `g` are set.
#[inline(always)]
fn odd_parity(g: usize, mask: usize) -> bool {
    (g & mask).count_ones() % 2 == 1
}

/// Partial probability mass of the basis states in this stripe whose
/// *global* index (stripe base ORed with the offset) matches `want` under
/// `mask`. Summing the partials over all stripes gives the global mass.
pub fn masked_norm(amps: &[Complex], base: usize, mask: usize, want: usize) -> f64 {
    norm_where(amps, base, mask, |g| g & mask == want)
}

/// Collapse pass: zeroes every amplitude whose global index does *not*
/// match `want` under `mask` and returns the kept probability mass of this
/// stripe. The caller renormalizes once the global mass is known.
pub fn collapse_keep(amps: &mut [Complex], base: usize, mask: usize, want: usize) -> f64 {
    collapse_where(amps, base, mask, |g| g & mask == want)
}

/// Partial probability mass of odd `mask`-parity basis states in this
/// stripe (joint Z-parity measurement, phase 1).
pub fn parity_prob_odd(amps: &[Complex], base: usize, mask: usize) -> f64 {
    norm_where(amps, base, mask, |g| odd_parity(g, mask))
}

/// Partial probability masses of the even and the odd `mask`-parity basis
/// states in this stripe, in one pass: each is the sum [`parity_prob_odd`]
/// forms for its side, to the bit. Under a one-bit mask the odd side is
/// [`masked_norm`]`(mask, mask)` and the even side `masked_norm(mask, 0)`.
pub fn branch_masses(amps: &[Complex], base: usize, mask: usize) -> (f64, f64) {
    let (mut even, mut odd) = (-0.0f64, -0.0f64);
    for_runs(amps.len(), mask, |at, len| {
        let mass = if odd_parity(base | at, mask) {
            &mut odd
        } else {
            &mut even
        };
        for a in &amps[at..at + len] {
            *mass += a.norm_sqr();
        }
    });
    (even, odd)
}

/// Parity-collapse pass: keeps the `want_odd` parity subspace, zeroes the
/// rest, returns the kept mass of this stripe (joint Z-parity, phase 2).
pub fn collapse_parity(amps: &mut [Complex], base: usize, mask: usize, want_odd: bool) -> f64 {
    collapse_where(amps, base, mask, |g| odd_parity(g, mask) == want_odd)
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
/// dense [`crate::state::State`] runs. Below the string's lowest qubit the
/// sign is constant and partners are neighbours, so it zips each run with
/// its partner run instead of going through an accessor; it shares
/// [`pauli_masks`] and the per-basis-state term with [`expectation_pauli`],
/// so both accumulate the identical floating-point sequence.
pub fn expectation_pauli_flat(amps: &[Complex], terms: &[PauliTerm]) -> f64 {
    let n_qubits = amps.len().trailing_zeros() as usize;
    let (x_mask, z_mask, i_pow) = pauli_masks(n_qubits, terms);
    let mut acc = Complex::default();
    for_runs(
        amps.len(),
        x_mask | z_mask,
        #[inline(always)]
        |g, len| {
            let sign = z_sign(g, z_mask);
            for (&a, &partner) in amps[g..g + len].iter().zip(&amps[g ^ x_mask..][..len]) {
                if !a.is_negligible(NEGLIGIBLE) {
                    acc += signed_term(a, partner, sign);
                }
            }
        },
    );
    hermitian_value(i_pow, acc)
}

/// [`expectation_pauli_flat`] for callers whose amplitudes are not one
/// slice: reads them through `at` (global basis index → amplitude), so the
/// caller can serve them from separate stripes or anything else.
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
    Some(signed_term(a, at(g ^ x_mask), z_sign(g, z_mask)))
}

/// Amplitudes below this magnitude are skipped by every Pauli-expectation
/// accumulation (skipped, not added as zero).
const NEGLIGIBLE: f64 = 1e-300;

/// `(-1)^{|g & z_mask|}`: the sign basis state `g` takes from the Z and Y
/// factors of a Pauli string.
#[inline(always)]
fn z_sign(g: usize, z_mask: usize) -> f64 {
    if odd_parity(g, z_mask) {
        -1.0
    } else {
        1.0
    }
}

/// The term a non-negligible amplitude `a` contributes, given its `x_mask`
/// partner and its [`z_sign`].
#[inline(always)]
fn signed_term(a: Complex, partner: Complex, sign: f64) -> Complex {
    partner.conj() * a.scale(sign)
}

/// Removes qubit `target` from a dense amplitude vector in place, keeping
/// the `outcome` branch; qubits above `target` shift down one position.
/// Halves the length, keeps the capacity, and returns the probability mass
/// that was discarded — the caller asserts it is negligible (the qubit must
/// already be collapsed) and renormalizes.
///
/// Compacts forward: block `k` (`2·bit` amplitudes) keeps one `bit`-long
/// run, which moves down to `k·bit` — into an earlier block, or for block 0
/// onto the run it drops — so summing a block's dropped run before moving
/// its kept run never reads an amplitude that was already overwritten.
pub fn remove_qubit_in_place(amps: &mut Vec<Complex>, target: usize, outcome: bool) -> f64 {
    let dropped = walk_known_short!(1usize << target, |bit| {
        let (kept_at, dropped_at) = if outcome { (bit, 0) } else { (0, bit) };
        let mut dropped = 0.0f64;
        for k in 0..amps.len() / (2 * bit) {
            let block = 2 * k * bit;
            for a in &amps[block + dropped_at..][..bit] {
                dropped += a.norm_sqr();
            }
            amps.copy_within(block + kept_at..block + kept_at + bit, k * bit);
        }
        dropped
    });
    amps.truncate(amps.len() / 2);
    dropped
}

/// Measure-and-free on a dense amplitude vector: leaves, to the bit, what
/// [`collapse_keep`] on `target = outcome`, [`scale`] by the kept mass,
/// [`remove_qubit_in_place`], a norm and a second [`scale`] leave — the same
/// two sums in the same ascending order and the same two roundings per
/// amplitude — in three passes over the kept half: nothing is zeroed, scaled
/// or summed in the half that is dropped, and each kept amplitude moves once.
/// Panics, as the composed form does, when the outcome has no probability.
pub fn collapse_remove_in_place(amps: &mut Vec<Complex>, target: usize, outcome: bool) {
    walk_known_short!(1usize << target, |bit| {
        let kept_at = if outcome { bit } else { 0 };
        let mut kept = 0.0f64;
        for block in amps.chunks_exact(2 * bit) {
            for a in &block[kept_at..kept_at + bit] {
                kept += a.norm_sqr();
            }
        }
        assert!(
            kept > 1e-12,
            "collapsing qubit {target} onto probability-zero outcome"
        );
        let s1 = 1.0 / kept.sqrt();
        // From `-0.0`: what `Iterator::sum` makes of the compacted vector.
        let mut norm = -0.0f64;
        for block in amps.chunks_exact(2 * bit) {
            for a in &block[kept_at..kept_at + bit] {
                norm += a.scale(s1).norm_sqr();
            }
        }
        assert!(norm.sqrt() > 0.0, "cannot renormalize the zero vector");
        let s2 = 1.0 / norm.sqrt();
        // Block 0 keeping its low run rescales where it stands; every other
        // kept run moves down, by at least its own length, onto amplitudes
        // that were dropped or have moved already.
        for k in 0..amps.len() / (2 * bit) {
            let (to, from) = (k * bit, 2 * k * bit + kept_at);
            if from == to {
                for a in &mut amps[..bit] {
                    *a = a.scale(s1).scale(s2);
                }
            } else {
                let (low, high) = amps.split_at_mut(from);
                for (to, a) in low[to..to + bit].iter_mut().zip(&high[..bit]) {
                    *to = a.scale(s1).scale(s2);
                }
            }
        }
    });
    amps.truncate(amps.len() / 2);
}

/// The copying form of [`remove_qubit_in_place`]: returns the halved vector
/// plus the discarded probability mass and leaves `flat` as it was.
pub fn remove_qubit_flat(flat: &[Complex], target: usize, outcome: bool) -> (Vec<Complex>, f64) {
    let mut out = flat.to_vec();
    let dropped = remove_qubit_in_place(&mut out, target, outcome);
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
    fn phase_sweep_applies_the_product_of_its_factors_and_flips_by_parity() {
        // S on qubit 0, T on qubit 1, Rz on the parity of both, CZ(0,1) over
        // a 2-qubit stripe at base 0: check each amplitude against the
        // product formed by hand.
        let amps: Vec<Complex> = vec![
            Complex::new(0.5, 0.1),
            Complex::new(-0.3, 0.4),
            Complex::new(0.2, -0.6),
            Complex::new(0.1, 0.3),
        ];
        let s = Gate::S.matrix();
        let t = Gate::T.matrix();
        let rz = Gate::Rz(0.37).matrix();
        let factors = [
            (0b01, s[0][0], s[1][1]),
            (0b10, t[0][0], t[1][1]),
            (0b11, rz[0][0], rz[1][1]),
        ];
        let flips = [0b11usize];
        let mut swept = amps.clone();
        phase_sweep(&mut swept, 0, &factors, &flips);
        let products = [
            s[0][0] * t[0][0] * rz[0][0],
            s[1][1] * t[0][0] * rz[1][1],
            s[0][0] * t[1][1] * rz[1][1],
            s[1][1] * t[1][1] * rz[0][0],
        ];
        for (g, &a) in amps.iter().enumerate() {
            let want = if g == 0b11 {
                -(a * products[g])
            } else {
                a * products[g]
            };
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

    /// The per-index loops the run traversal replaced, kept as the
    /// reference: one index computation, one test and one bounds-checked
    /// access per amplitude.
    mod naive {
        use super::super::*;

        pub fn pair_indices(i: usize, bit: usize) -> (usize, usize) {
            let low = i & (bit - 1);
            let high = (i & !(bit - 1)) << 1;
            let i0 = high | low;
            (i0, i0 | bit)
        }

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

        pub fn pair_across(
            a: &mut [Complex],
            b: &mut [Complex],
            c_lo: usize,
            f: impl Fn(&mut Complex, &mut Complex),
        ) {
            for i in 0..a.len() {
                if i & c_lo == c_lo {
                    f(&mut a[i], &mut b[i]);
                }
            }
        }

        pub fn unitary(m: &Mat2) -> impl Fn(&mut Complex, &mut Complex) + '_ {
            move |a0, a1| {
                let (x0, x1) = (*a0, *a1);
                *a0 = m[0][0] * x0 + m[0][1] * x1;
                *a1 = m[1][0] * x0 + m[1][1] * x1;
            }
        }

        pub fn swap_within(amps: &mut [Complex], abit: usize, bbit: usize) {
            let xor = abit | bbit;
            for i in 0..amps.len() {
                if i & abit != 0 && i & bbit == 0 {
                    amps.swap(i, i ^ xor);
                }
            }
        }

        pub fn swap_across_mixed(low: &mut [Complex], high: &mut [Complex], abit: usize) {
            for i in 0..low.len() {
                if i & abit != 0 {
                    std::mem::swap(&mut low[i], &mut high[i ^ abit]);
                }
            }
        }

        pub fn phase_sweep(
            amps: &mut [Complex],
            base: usize,
            factors: &[(usize, Complex, Complex)],
            flips: &[usize],
        ) {
            for (i, a) in amps.iter_mut().enumerate() {
                let g = base | i;
                let mut v = *a;
                let mut product = None;
                for &(mask, d0, d1) in factors {
                    let d = if (g & mask).count_ones() % 2 == 1 {
                        d1
                    } else {
                        d0
                    };
                    product = Some(product.map_or(d, |p: Complex| p * d));
                }
                if let Some(p) = product {
                    v *= p;
                }
                if flips.iter().filter(|&&f| g & f == f).count() % 2 == 1 {
                    v = -v;
                }
                *a = v;
            }
        }

        pub fn phase_flip(amps: &mut [Complex], lo_mask: usize) {
            for (i, amp) in amps.iter_mut().enumerate() {
                if i & lo_mask == lo_mask {
                    *amp = -*amp;
                }
            }
        }

        pub fn masked_norm(amps: &[Complex], base: usize, mask: usize, want: usize) -> f64 {
            amps.iter()
                .enumerate()
                .filter(|(i, _)| (base | i) & mask == want)
                .map(|(_, a)| a.norm_sqr())
                .sum()
        }

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

        pub fn parity_prob_odd(amps: &[Complex], base: usize, mask: usize) -> f64 {
            amps.iter()
                .enumerate()
                .filter(|(i, _)| ((base | i) & mask).count_ones() % 2 == 1)
                .map(|(_, a)| a.norm_sqr())
                .sum()
        }

        pub fn collapse_parity(
            amps: &mut [Complex],
            base: usize,
            mask: usize,
            want_odd: bool,
        ) -> f64 {
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

        pub fn expectation_pauli_flat(amps: &[Complex], terms: &[PauliTerm]) -> f64 {
            let n_qubits = amps.len().trailing_zeros() as usize;
            let (x_mask, z_mask, i_pow) = pauli_masks(n_qubits, terms);
            let mut acc = Complex::default();
            for (g, &a) in amps.iter().enumerate() {
                if !a.is_negligible(1e-300) {
                    let sign = if (g & z_mask).count_ones() % 2 == 1 {
                        -1.0
                    } else {
                        1.0
                    };
                    acc += amps[g ^ x_mask].conj() * a.scale(sign);
                }
            }
            hermitian_value(i_pow, acc)
        }

        pub fn remove_qubit_flat(
            flat: &[Complex],
            target: usize,
            outcome: bool,
        ) -> (Vec<Complex>, f64) {
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
    }

    /// Seeded generic-angle amplitudes (nothing a kernel could get right by
    /// symmetry), every seventh one an exact zero so skip rules are hit.
    fn seeded(len: usize, seed: u64) -> Vec<Complex> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| {
                let a = Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
                if i % 7 == 3 {
                    C_ZERO
                } else {
                    a
                }
            })
            .collect()
    }

    fn bits(amps: &[Complex]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// Runs `new` and `old` on copies of `amps` and compares every
    /// amplitude and the returned sum bit for bit.
    fn same_bits(
        amps: &[Complex],
        what: impl std::fmt::Debug,
        new: impl Fn(&mut Vec<Complex>) -> f64,
        old: impl Fn(&mut Vec<Complex>) -> f64,
    ) {
        let (mut got, mut want) = (amps.to_vec(), amps.to_vec());
        let (sum_got, sum_want) = (new(&mut got), old(&mut want));
        assert_eq!(sum_got.to_bits(), sum_want.to_bits(), "sum, {what:?}");
        assert_eq!(bits(&got), bits(&want), "amplitudes, {what:?}");
    }

    /// Lifts a kernel over two stripes of `len` amplitudes to the vector
    /// holding one after the other (no sum to return).
    fn on_halves<'f>(
        len: usize,
        f: &'f dyn Fn(&mut [Complex], &mut [Complex]),
    ) -> impl Fn(&mut Vec<Complex>) -> f64 + 'f {
        move |v| {
            let (a, b) = v.split_at_mut(len);
            f(a, b);
            0.0
        }
    }

    /// Lifts a kernel over one stripe to the first `len` amplitudes of a
    /// vector (no sum to return).
    fn on_first<'f>(
        len: usize,
        f: &'f dyn Fn(&mut [Complex]),
    ) -> impl Fn(&mut Vec<Complex>) -> f64 + 'f {
        move |v| {
            f(&mut v[..len]);
            0.0
        }
    }

    /// Stripe lengths the equivalence tests sweep: 2^1 ..= 2^7 amplitudes.
    fn stripe_lens() -> impl Iterator<Item = usize> {
        (1..=7).map(|bits| 1usize << bits)
    }

    #[test]
    fn pair_kernels_match_the_per_index_loops_bit_for_bit() {
        let m = crate::gates::matmul2(&Gate::Ry(0.37).matrix(), &Gate::Rz(1.1).matrix());
        // A kernel that is neither symmetric nor linear in the pair, so a
        // swapped or repeated visit shows.
        let lopsided = |a0: &mut Complex, a1: &mut Complex| {
            *a0 = *a0 * *a1 + Complex::real(0.25);
            *a1 -= *a0;
        };
        for len in stripe_lens() {
            let amps = seeded(2 * len, len as u64);
            // Every control subset of the stripe's bits (the ones naming
            // the target select nothing), plus a control above the stripe.
            for c_lo in (0..len).chain([len, len | 1, 3 * len]) {
                let case = (len, c_lo);
                same_bits(
                    &amps,
                    ("pair_across", case),
                    on_halves(len, &|a, b| pair_across(a, b, c_lo, lopsided)),
                    on_halves(len, &|a, b| naive::pair_across(a, b, c_lo, lopsided)),
                );
                same_bits(
                    &amps,
                    ("Mat across", case),
                    on_halves(len, &|a, b| PairKernel::Mat(m).apply_across(a, b, c_lo)),
                    on_halves(len, &|a, b| {
                        naive::pair_across(a, b, c_lo, naive::unitary(&m))
                    }),
                );
                same_bits(
                    &amps,
                    ("Swap across", case),
                    on_halves(len, &|a, b| PairKernel::Swap.apply_across(a, b, c_lo)),
                    on_halves(len, &|a, b| naive::pair_across(a, b, c_lo, std::mem::swap)),
                );
                for tbit in (0..len.trailing_zeros()).map(|t| 1usize << t) {
                    let case = (len, c_lo, tbit);
                    same_bits(
                        &amps,
                        ("pair_within", case),
                        on_first(len, &|s| pair_within(s, c_lo, tbit, lopsided)),
                        on_first(len, &|s| naive::pair_within(s, c_lo, tbit, lopsided)),
                    );
                    same_bits(
                        &amps,
                        ("pair_unitary", case),
                        on_first(len, &|s| pair_unitary(s, c_lo, tbit, &m)),
                        on_first(len, &|s| {
                            naive::pair_within(s, c_lo, tbit, naive::unitary(&m))
                        }),
                    );
                    same_bits(
                        &amps,
                        ("cnot", case),
                        on_first(len, &|s| PairKernel::Swap.apply_within(s, c_lo, tbit)),
                        on_first(len, &|s| naive::pair_within(s, c_lo, tbit, std::mem::swap)),
                    );
                }
            }
        }
    }

    #[test]
    fn swap_kernels_match_the_per_index_loops_bit_for_bit() {
        for len in stripe_lens() {
            let amps = seeded(2 * len, 100 + len as u64);
            let qubit_bits = || (0..len.trailing_zeros()).map(|q| 1usize << q);
            for abit in qubit_bits() {
                same_bits(
                    &amps,
                    ("swap_across_mixed", len, abit),
                    on_halves(len, &|low, high| swap_across_mixed(low, high, abit)),
                    on_halves(len, &|low, high| naive::swap_across_mixed(low, high, abit)),
                );
                for bbit in qubit_bits().filter(|&b| b != abit) {
                    same_bits(
                        &amps,
                        ("swap_within", len, abit, bbit),
                        on_first(len, &|s| swap_within(s, abit, bbit)),
                        on_first(len, &|s| naive::swap_within(s, abit, bbit)),
                    );
                }
            }
        }
    }

    #[test]
    fn masked_kernels_match_the_per_index_loops_bit_for_bit() {
        for len in stripe_lens() {
            let amps = seeded(len, 200 + len as u64);
            // Masks over the stripe's bits and the two above them, at every
            // base those two bits allow.
            for mask in 0..4 * len {
                for base in [0, len, 2 * len, 3 * len] {
                    let case = (len, base, mask);
                    same_bits(
                        &amps,
                        ("parity_prob_odd", case),
                        |v| parity_prob_odd(v, base, mask),
                        |v| naive::parity_prob_odd(v, base, mask),
                    );
                    same_bits(
                        &amps,
                        ("branch_masses odd", case),
                        |v| branch_masses(v, base, mask).1,
                        |v| naive::parity_prob_odd(v, base, mask),
                    );
                    same_bits(
                        &amps,
                        ("branch_masses even", case),
                        |v| branch_masses(v, base, mask).0,
                        |v| {
                            v.iter()
                                .enumerate()
                                .filter(|(i, _)| ((base | i) & mask).count_ones() % 2 == 0)
                                .map(|(_, a)| a.norm_sqr())
                                .sum()
                        },
                    );
                    for want_odd in [false, true] {
                        same_bits(
                            &amps,
                            ("collapse_parity", case, want_odd),
                            |v| collapse_parity(v, base, mask, want_odd),
                            |v| naive::collapse_parity(v, base, mask, want_odd),
                        );
                    }
                    // Every value the masked bits can take, then one they
                    // cannot: the empty selection.
                    let mut want = mask;
                    loop {
                        let case = (len, base, mask, want);
                        same_bits(
                            &amps,
                            ("masked_norm", case),
                            |v| masked_norm(v, base, mask, want),
                            |v| naive::masked_norm(v, base, mask, want),
                        );
                        same_bits(
                            &amps,
                            ("collapse_keep", case),
                            |v| collapse_keep(v, base, mask, want),
                            |v| naive::collapse_keep(v, base, mask, want),
                        );
                        if want == !mask {
                            break;
                        }
                        want = if want == 0 { !mask } else { (want - 1) & mask };
                    }
                }
                same_bits(
                    &amps,
                    ("phase_flip", len, mask),
                    on_first(len, &|s| phase_flip(s, mask)),
                    on_first(len, &|s| naive::phase_flip(s, mask)),
                );
            }
        }
        // The empty selection returns the empty sum's own bits.
        assert_eq!(
            masked_norm(&seeded(8, 1), 0, 0b1, 0b10).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(collapse_keep(&mut seeded(8, 1), 0, 0b1, 0b10).to_bits(), 0);
    }

    #[test]
    fn phase_sweep_matches_the_per_index_loop_bit_for_bit() {
        let d = |k: usize| {
            (
                Complex::cis(-0.1 - 0.07 * k as f64),
                Complex::cis(0.3 + 0.05 * k as f64),
            )
        };
        // Longer than SWEEP_TILE once, so more than one tile is swept.
        for len in stripe_lens().chain([4 * SWEEP_TILE]) {
            let amps = seeded(len, 300 + len as u64);
            let top = len.trailing_zeros() as usize + 2;
            // Single-qubit masks over the stripe's bits and the two above
            // (past one tile, bit 9 and up change parity from tile to tile),
            // the stripe-constant encoding `0`, and parity masks: low bits,
            // one astride the tile boundary, one astride the stripe's `base`,
            // one whose above-tile parity changes every tile under bit 0.
            let parities = [
                0b101,
                3 * SWEEP_TILE / 2,
                (len / 2) | (2 * len),
                1 | SWEEP_TILE,
            ];
            let masks: Vec<usize> = (0..top)
                .map(|q| 1 << q)
                .chain(parities)
                .chain([0])
                .collect();
            for (i, &m0) in masks.iter().enumerate() {
                for &m1 in &masks[i..] {
                    let factors = [
                        (m0, d(0).0, d(0).1),
                        (m1, d(1).0, d(1).1),
                        (m0, d(2).0, d(2).1),
                    ];
                    let flip_sets: [&[usize]; 4] = [&[], &[0], &[m0 | m1], &[m1, 0b11, m0 | 0b100]];
                    for flips in flip_sets {
                        for base in [0, len, 3 * len] {
                            for used in [&factors[..0], &factors[..2], &factors[..]] {
                                same_bits(
                                    &amps,
                                    ("phase_sweep", len, base, m0, m1, flips, used.len()),
                                    on_first(len, &|s| phase_sweep(s, base, used, flips)),
                                    on_first(len, &|s| naive::phase_sweep(s, base, used, flips)),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn expectation_matches_the_per_index_loop_bit_for_bit() {
        use crate::gates::Pauli;
        for n in 1..=7usize {
            let amps = seeded(1 << n, 400 + n as u64);
            // Every Pauli string over n qubits: base-4 digits I, X, Y, Z.
            for code in 0..(1usize << (2 * n)) {
                let terms: Vec<PauliTerm> = (0..n)
                    .filter_map(|q| {
                        let op = match (code >> (2 * q)) & 3 {
                            0 => return None,
                            1 => Pauli::X,
                            2 => Pauli::Y,
                            _ => Pauli::Z,
                        };
                        Some(PauliTerm { qubit: q, op })
                    })
                    .collect();
                let got = expectation_pauli_flat(&amps, &terms);
                let want = naive::expectation_pauli_flat(&amps, &terms);
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} code={code:#x}");
                let via_accessor = expectation_pauli(n, |g| amps[g], &terms);
                assert_eq!(
                    got.to_bits(),
                    via_accessor.to_bits(),
                    "n={n} code={code:#x}"
                );
            }
        }
    }

    #[test]
    fn in_place_removal_matches_the_per_index_copy_bit_for_bit() {
        for n in 1..=7usize {
            let amps = seeded(1 << n, 500 + n as u64);
            for target in 0..n {
                for outcome in [false, true] {
                    let (want, want_dropped) = naive::remove_qubit_flat(&amps, target, outcome);
                    let mut got = amps.clone();
                    let dropped = remove_qubit_in_place(&mut got, target, outcome);
                    let case = (n, target, outcome);
                    assert_eq!(dropped.to_bits(), want_dropped.to_bits(), "{case:?}");
                    assert_eq!(bits(&got), bits(&want), "{case:?}");
                    assert!(got.capacity() >= amps.len(), "capacity kept, {case:?}");
                    let (copied, copied_dropped) = remove_qubit_flat(&amps, target, outcome);
                    assert_eq!(copied_dropped.to_bits(), want_dropped.to_bits(), "{case:?}");
                    assert_eq!(bits(&copied), bits(&want), "{case:?}");
                }
            }
        }
    }
}
