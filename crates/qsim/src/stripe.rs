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
//! Two deployments run these functions and nothing else: the dense
//! [`crate::state::State`] is the one-stripe case (`k = 0`, `base = 0`, the
//! cross-stripe kernels never fire), and a process-separated shard worker
//! receiving commands over a message channel runs them on the stripe it
//! owns. One kernel set is what keeps the dense and remote-sharded engines
//! bit-identical: there is no second copy of the arithmetic to drift. The
//! sparse map
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
//! whole, and the arithmetic loops over plain slices.
//!
//! # Sums
//!
//! Every reduction — a probability mass, a norm, an expectation value —
//! adds its terms into one [`ExactSum`]: each term is cut onto a fixed
//! binary grid on its own, the cut terms add as integers, and the total is
//! rounded to an `f64` once. Integer adds do not depend on their order, so a
//! sum's bits do not depend on the order of its terms, on the lane width or
//! thread split that adds them, or on how the amplitudes are cut into
//! stripes or shards: a partial sum is merged exactly wherever it is formed.
//! What must still agree across engines is each *term*, which every store
//! forms from the same operands in the same order.
//!
//! A term must be at most 2 in magnitude: an `|a|²`, or a part of
//! `conj(b)·a`, of amplitudes of modulus at most √2, which any normalized
//! state's are. A larger, infinite or NaN term would be cut onto the grid
//! wrongly, so every reduction here panics on one instead, naming its
//! magnitude.

use crate::batch::{named, SweepFactor};
use crate::complex::{Complex, C_ZERO};
use crate::gates::Mat2;
use crate::measure::PauliTerm;
pub use dispatch::{kernel_level, kernel_threads};
use dispatch::{wide, wide_from};
mod dispatch;
pub(crate) mod split;

/// Calls `f` with the offset of each whole `len`-long run below `total`, in
/// ascending order. Inlined, so a constant `len` is a constant length of
/// every slice the caller cuts with it.
#[inline(always)]
fn walk(total: usize, len: usize, mut f: impl FnMut(usize)) {
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
/// seven places; a caller whose closure must be inlined at all of them, as a
/// wide kernel copy's must, marks it `#[inline(always)]`.)
#[inline(always)]
fn for_runs(total: usize, bits: usize, mut f: impl FnMut(usize, usize)) {
    debug_assert!(total == 0 || total.is_power_of_two());
    if run_len(bits) >= total {
        return f(0, total);
    }
    walk_known_short!(run_len(bits), |len| walk(
        total,
        2 * len,
        #[inline(always)]
        |at| {
            f(at, len);
            f(at + len, len);
        }
    ));
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
        walk(
            amps.len(),
            block,
            #[inline(always)]
            |at| {
                if at & above == above {
                    let (lo, hi) = amps[at..at + block].split_at_mut(block / 2);
                    walk(
                        block / 2,
                        len,
                        #[inline(always)]
                        |at| {
                            if at & below == below {
                                f(&mut lo[at..at + len], &mut hi[at..at + len]);
                            }
                        },
                    );
                }
            },
        )
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
        match self {
            PairKernel::Swap => within_runs(amps, c_lo, tbit, |lo, hi| self.run(lo, hi)),
            PairKernel::Mat(m) => pair_unitary(amps, c_lo, tbit, &m),
        }
    }

    /// Runs the kernel across a stripe pair (the target bit selects the
    /// shard), offset for offset, on the offsets satisfying `c_lo`.
    pub fn apply_across(self, a: &mut [Complex], b: &mut [Complex], c_lo: usize) {
        match self {
            PairKernel::Swap => across_runs(a, b, c_lo, |lo, hi| self.run(lo, hi)),
            PairKernel::Mat(_) => wide!(Avx512, {
                across_runs(a, b, c_lo, |lo, hi| self.run(lo, hi))
            }),
        }
    }
}

/// Applies an arbitrary 2×2 unitary to every within-stripe amplitude pair
/// `(i, i | tbit)` whose low member satisfies the control mask `c_lo` —
/// the kernel behind every (controlled) single-qubit gate and fused 1q run
/// ([`crate::batch::BatchOp::Fused1q`]): [`PairKernel::Mat`] in one stripe.
pub fn pair_unitary(amps: &mut [Complex], c_lo: usize, tbit: usize, m: &Mat2) {
    let kernel = PairKernel::Mat(*m);
    wide!(Avx512, {
        within_runs(amps, c_lo, tbit, |lo, hi| kernel.run(lo, hi))
    });
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
    wide!(Avx2, {
        let reads = factors.iter().fold(0, |bits, f| bits | f.0);
        let tile_len = amps.len().clamp(1, SWEEP_TILE);
        let run = run_len(reads).min(tile_len);
        let above = reads & !(tile_len - 1);
        let mut table = [C_ZERO; SWEEP_TILE];
        let mut built_for = None;
        for_runs(
            amps.len(),
            SWEEP_TILE,
            #[inline(always)]
            |at, len| {
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
            },
        );
    })
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
    wide!(Avx512, {
        phase_flip_where(amps, lo_mask, |at| at & lo_mask == lo_mask);
    })
}

/// Grid step of an [`ExactSum`]'s high limb: 2^-50.
const HI_STEP: f64 = 1.0 / (1u64 << 50) as f64;

/// Grid step of the low limb, in high-limb steps: 2^-52 (so 2^-102 overall).
const LO_STEP: f64 = 1.0 / (1u64 << 52) as f64;

/// 1.5·2^52: adding it to an `f64` of magnitude at most 2^51 rounds that to
/// the nearest integer (ties to even), whose value the sum's bits then hold
/// above this constant's.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// Terms one pair of `i64` limbs takes before it is folded into the `i128`:
/// each limb of a term is at most 2^51 in magnitude, so 2^11 of them stay
/// below 2^62.
const LIMB_RUN: usize = 1 << 11;

/// The largest term an [`ExactSum`] takes, 2, as the bits of its magnitude.
/// The bits of non-negative `f64`s order as their values do, and a NaN's lie
/// above infinity's, so one integer comparison rejects all three kinds of
/// term the grid cannot hold.
const MAX_TERM_BITS: i64 = 2.0f64.to_bits() as i64;

/// An exact, order-free sum of `f64` terms of magnitude at most 2.
///
/// A term `t` is held as the integer `round(t·2^102)` (ties to even): the
/// nearest point of a 2^-102 grid, which is a function of the term alone,
/// so cutting it is deterministic and the cut error is at most 2^-103.
/// Integers add associatively, so [`ExactSum::add`] and [`ExactSum::merge`]
/// give the same total in any order, split or grouping, and
/// [`ExactSum::finish`] rounds that total to the nearest `f64` once. Every
/// term a store sums is bounded by 1 — `|a|²`, and the real and imaginary
/// parts of `conj(b)·a` (at most `|a||b|`) — and so is every partial sum of
/// them (Cauchy–Schwarz), far inside the `i128`'s 2^25.
///
/// The cut runs in two `f64` roundings and two `i64` limbs (a 2^-50 grid,
/// then the remainder on a 2^-52 grid below it), which vectorize; a run of
/// terms adds into the limbs and folds into the `i128` once per 2^11
/// terms. The limbs also keep the largest magnitude they took, and the
/// fold checks it: a term above 2, infinite or NaN panics there, in any
/// build, with that magnitude in the message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactSum(i128);

impl ExactSum {
    /// The sum of nothing.
    pub const ZERO: ExactSum = ExactSum(0);

    /// Adds one term. Panics unless `|t| ≤ 2`.
    pub fn add(&mut self, t: f64) {
        let mut limbs = Limbs::default();
        limbs.add(t);
        self.fold(limbs);
    }

    /// Adds another partial sum, exactly.
    pub fn merge(&mut self, other: ExactSum) {
        self.0 += other.0;
    }

    /// The sum, rounded to the nearest `f64` (ties to even) once: the
    /// integer converts with one rounding, and the power-of-two scale that
    /// follows is exact. An empty or cancelled sum is `+0.0`.
    pub fn finish(self) -> f64 {
        self.0 as f64 * (HI_STEP * LO_STEP)
    }

    /// The sum in units of 2^-102: the state a partial sum travels as.
    pub fn units(self) -> i128 {
        self.0
    }

    /// The partial sum of [`ExactSum::units`] `units`.
    pub fn from_units(units: i128) -> Self {
        ExactSum(units)
    }

    /// Adds a run of limbs, once their terms are known to be in range.
    #[inline(always)]
    fn fold(&mut self, limbs: Limbs) {
        if limbs.peak > MAX_TERM_BITS {
            out_of_range(limbs.peak);
        }
        self.0 += (i128::from(limbs.hi) << 52) + i128::from(limbs.lo);
    }
}

/// The panic of a run whose largest term magnitude, as `f64` bits, is
/// `peak`: out of line, so the check costs the kernels one branch.
#[cold]
#[inline(never)]
fn out_of_range(peak: i64) -> ! {
    let magnitude = f64::from_bits(peak as u64);
    panic!("an exact sum's terms are at most 2 in magnitude; one was |t| = {magnitude}")
}

/// `N` exact sums being added to run by run: terms go into limbs until the
/// next run could overflow them, and only then fold into the `i128`s, so a
/// run of one or two terms does not pay a fold of its own.
struct Adder<const N: usize> {
    sums: [ExactSum; N],
    limbs: [Limbs; N],
    /// Terms any one limb pair can still take.
    room: usize,
}

impl<const N: usize> Adder<N> {
    #[inline(always)]
    fn new() -> Self {
        Adder {
            sums: [ExactSum::ZERO; N],
            limbs: [Limbs::default(); N],
            room: LIMB_RUN,
        }
    }

    /// Makes room for `n <= LIMB_RUN` more terms in every limb pair.
    #[inline(always)]
    fn make_room(&mut self, n: usize) {
        if n > self.room {
            for (sum, limbs) in self.sums.iter_mut().zip(&mut self.limbs) {
                sum.fold(std::mem::take(limbs));
            }
            self.room = LIMB_RUN;
        }
        self.room -= n;
    }

    /// Adds `term(x)` for every `x` of `xs` to sum `k`.
    #[inline(always)]
    fn add_each<T: Copy>(&mut self, k: usize, xs: &[T], term: impl Fn(T) -> f64) {
        for run in xs.chunks(LIMB_RUN) {
            self.make_room(run.len());
            let mut limbs = self.limbs[k];
            for &x in run {
                limbs.add(term(x));
            }
            self.limbs[k] = limbs;
        }
    }

    #[inline(always)]
    fn total(mut self) -> [ExactSum; N] {
        self.make_room(LIMB_RUN);
        self.sums
    }
}

/// `x` rounded to the nearest integer (ties to even), as an integer and as
/// an `f64`; `|x| ≤ 2^51`. No `as` cast: it saturates, and does not
/// vectorize.
#[inline(always)]
fn round_int(x: f64) -> (i64, f64) {
    let r = x + ROUND;
    let int = (r.to_bits() as i64).wrapping_sub(ROUND.to_bits() as i64);
    (int, r - ROUND)
}

/// Running limb sums of fewer than [`LIMB_RUN`] terms.
#[derive(Clone, Copy, Default)]
struct Limbs {
    hi: i64,
    lo: i64,
    /// The largest magnitude added, as `f64` bits: checked against
    /// [`MAX_TERM_BITS`] when the run folds, not once per term.
    peak: i64,
}

impl Limbs {
    /// Adds `t` as `hi·2^-50 + lo·2^-102`: `hi = round(t·2^50)`, then
    /// `lo = round((t·2^50 − hi)·2^52)`. For `|t| ≤ 2` both scalings and
    /// the difference are exact, so `hi·2^52 + lo = round(t·2^102)`; any
    /// other term only raises `peak` past the bound, and the limbs wrap
    /// instead of trapping so the fold's check is what reports it.
    #[inline(always)]
    fn add(&mut self, t: f64) {
        self.peak = self.peak.max(t.abs().to_bits() as i64);
        let x = t * (1.0 / HI_STEP);
        let (hi, hi_f) = round_int(x);
        let (lo, _) = round_int((x - hi_f) * (1.0 / LO_STEP));
        self.hi = self.hi.wrapping_add(hi);
        self.lo = self.lo.wrapping_add(lo);
    }

    /// Adds another run's limbs.
    #[inline(always)]
    fn merge(&mut self, other: Limbs) {
        self.hi = self.hi.wrapping_add(other.hi);
        self.lo = self.lo.wrapping_add(other.lo);
        self.peak = self.peak.max(other.peak);
    }
}

/// Probability mass of the runs of `amps`, as `bits` cuts them, whose
/// global start index passes `selected`: the exact sum of exactly the
/// selected `|a|²`.
#[inline(always)]
fn norm_where(
    amps: &[Complex],
    base: usize,
    bits: usize,
    selected: impl Fn(usize) -> bool,
) -> ExactSum {
    wide_from!(Avx512, amps.len(), {
        let mut mass = Adder::<1>::new();
        for_runs(
            amps.len(),
            bits,
            #[inline(always)]
            |at, len| {
                if selected(base | at) {
                    mass.add_each(0, &amps[at..at + len], Complex::norm_sqr);
                }
            },
        );
        mass.total()[0]
    })
}

/// Zeroes the runs of `amps`, as `bits` cuts them, whose global start index
/// fails `keep`, and returns the exact mass of the rest.
#[inline(always)]
fn collapse_where(
    amps: &mut [Complex],
    base: usize,
    bits: usize,
    keep: impl Fn(usize) -> bool,
) -> ExactSum {
    wide_from!(Avx512, amps.len(), {
        let mut kept = Adder::<1>::new();
        for_runs(
            amps.len(),
            bits,
            #[inline(always)]
            |at, len| {
                let run = &mut amps[at..at + len];
                if keep(base | at) {
                    kept.add_each(0, run, Complex::norm_sqr);
                } else {
                    run.fill(C_ZERO);
                }
            },
        );
        kept.total()[0]
    })
}

/// True when an odd number of the `mask` bits of `g` are set.
#[inline(always)]
fn odd_parity(g: usize, mask: usize) -> bool {
    (g & mask).count_ones() % 2 == 1
}

/// Probability mass of the basis states in this stripe whose *global*
/// index (stripe base ORed with the offset) matches `want` under `mask`.
/// No engine reads it: under a one-bit mask it is the odd side of
/// [`branch_masses`] to the bit (`want = mask`), which is how every store
/// reads one qubit.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn masked_norm(amps: &[Complex], base: usize, mask: usize, want: usize) -> f64 {
    norm_where(amps, base, mask, |g| g & mask == want).finish()
}

/// Collapse pass: zeroes every amplitude whose global index does *not*
/// match `want` under `mask` and returns the kept probability mass of this
/// stripe. Under a one-bit mask it is [`collapse_parity`] to the bit, which
/// every store collapses one qubit with.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn collapse_keep(amps: &mut [Complex], base: usize, mask: usize, want: usize) -> f64 {
    collapse_where(amps, base, mask, |g| g & mask == want).finish()
}

/// Probability mass of odd `mask`-parity basis states in this stripe (joint
/// Z-parity measurement, phase 1), as a partial sum.
/// Panics on a term out of range (see [Sums](self#sums)).
pub(crate) fn parity_sum(amps: &[Complex], base: usize, mask: usize) -> ExactSum {
    norm_where(amps, base, mask, |g| odd_parity(g, mask))
}

/// Partial probability masses of the even and the odd `mask`-parity basis
/// states in this stripe, in one pass, as partial sums to merge across
/// stripes: under a one-bit mask the odd side is the mass [`masked_norm`]
/// reads for `(mask, mask)` and the even side for `(mask, 0)`.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn branch_masses(amps: &[Complex], base: usize, mask: usize) -> [ExactSum; 2] {
    wide_from!(Avx512, amps.len(), {
        let mut masses = Adder::<2>::new();
        for_runs(
            amps.len(),
            mask,
            #[inline(always)]
            |at, len| {
                let side = usize::from(odd_parity(base | at, mask));
                masses.add_each(side, &amps[at..at + len], Complex::norm_sqr);
            },
        );
        masses.total()
    })
}

/// Parity-collapse pass: keeps the `want_odd` parity subspace, zeroes the
/// rest, returns the kept mass of this stripe as a partial sum (joint
/// Z-parity, phase 2).
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn collapse_parity(amps: &mut [Complex], base: usize, mask: usize, want_odd: bool) -> ExactSum {
    collapse_where(amps, base, mask, |g| odd_parity(g, mask) == want_odd)
}

/// [`collapse_parity`] onto `want_odd` then [`scale`] by `factor`, in one
/// pass that sums nothing: the kept runs are scaled, the others zeroed.
pub fn collapse_scale(amps: &mut [Complex], base: usize, mask: usize, want_odd: bool, factor: f64) {
    wide_from!(Avx512, amps.len(), {
        for_runs(
            amps.len(),
            mask,
            #[inline(always)]
            |at, len| {
                let run = &mut amps[at..at + len];
                if odd_parity(base | at, mask) == want_odd {
                    run.iter_mut().for_each(|a| *a = a.scale(factor));
                } else {
                    run.fill(C_ZERO);
                }
            },
        );
    })
}

/// Rescales every amplitude by the real factor (collapse renormalization,
/// phase 3 — broadcast once the global kept mass is reduced).
pub fn scale(amps: &mut [Complex], factor: f64) {
    wide!(Avx512, {
        for a in amps.iter_mut() {
            *a = a.scale(factor);
        }
    })
}

/// The factor a collapse scales the kept amplitudes by, given their mass:
/// `1/√kept`. Panics when the kept branch has no probability.
pub fn renormalizer(kept: f64) -> f64 {
    assert!(kept > 1e-12, "collapsing onto probability-zero outcome");
    1.0 / kept.sqrt()
}

/// Squared norm of the stripe: the exact sum of every `|a|²`.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn norm_sqr(amps: &[Complex]) -> f64 {
    norm_where(amps, 0, 0, |_| true).finish()
}

/// Adds to `acc` (real part, imaginary part) the (pre-phase) Pauli
/// expectation term of each `own[i]` against `other[i ^ x_lo]`, signed by
/// `base | i` under `z_mask`. Sign and partner offset are constant over a
/// run below the string's lowest bit, so it zips runs, not indices.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn expectation_partial(
    own: &[Complex],
    other: &[Complex],
    base: usize,
    x_lo: usize,
    z_mask: usize,
    acc: &mut [ExactSum; 2],
) {
    let [re, im] = wide!(Avx512, {
        let mut adder = Adder::<2>::new();
        for_runs(
            own.len(),
            x_lo | z_mask,
            #[inline(always)]
            |i, len| {
                let sign = z_sign(base | i, z_mask);
                let (own, other) = (&own[i..i + len], &other[i ^ x_lo..][..len]);
                for (own, other) in own.chunks(LIMB_RUN).zip(other.chunks(LIMB_RUN)) {
                    adder.make_room(own.len());
                    let [mut re, mut im] = adder.limbs;
                    for (&a, &partner) in own.iter().zip(other) {
                        let t = signed_term(a, partner, sign);
                        re.add(t.re);
                        im.add(t.im);
                    }
                    adder.limbs = [re, im];
                }
            },
        );
        adder.total()
    });
    acc[0].merge(re);
    acc[1].merge(im);
}

/// The expectation value `<psi| P |psi>` of a Pauli string (a tensor
/// product of single-qubit Paulis on distinct qubits; identity elsewhere),
/// for callers whose amplitudes are not one slice: reads them through `at`
/// (global basis index → amplitude), so the caller can serve them from
/// separate stripes or anything else.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn expectation_pauli(
    n_qubits: usize,
    at: impl Fn(usize) -> Complex,
    terms: &[PauliTerm],
) -> f64 {
    wide!(Avx2, {
        let (x_mask, z_mask, i_pow) = pauli_masks(n_qubits, terms);
        let mut adder = Adder::<2>::new();
        for g in 0..(1usize << n_qubits) {
            adder.make_room(1);
            let t = signed_term(at(g), at(g ^ x_mask), z_sign(g, z_mask));
            adder.limbs[0].add(t.re);
            adder.limbs[1].add(t.im);
        }
        hermitian_value(i_pow, adder.total())
    })
}

/// Amplitudes per tile of a diagonal sweep: the low index bits whose
/// parities are tabled once per call; the bits above are one parity per
/// tile.
const SIGN_TILE: usize = 1 << 8;

/// The values of `strings` over a register of `len` amplitudes: each
/// string with an X or Y through `pauli(x_mask, z_mask)`, the Z-only ones
/// through one `diagonal(z_masks)` call. A diagonal term `conj(a)·(±a)` is
/// exactly `±|a|²` with a zero imaginary part and the `i^{#Y}` phase is 1,
/// so a diagonal string's value is the exact sum of the signed `|a|²`.
pub(crate) fn each_string(
    len: usize,
    strings: &[Vec<PauliTerm>],
    pauli: impl Fn(usize, usize) -> [ExactSum; 2],
    diagonal: impl FnOnce(&[usize]) -> Vec<ExactSum>,
) -> Vec<f64> {
    let n_qubits = len.trailing_zeros() as usize;
    let mut values = vec![0.0; strings.len()];
    let (mut at, mut z_masks) = (Vec::new(), Vec::new());
    for (i, terms) in strings.iter().enumerate() {
        match pauli_masks(n_qubits, terms) {
            (0, z_mask, _) => {
                at.push(i);
                z_masks.push(z_mask);
            }
            (x_mask, z_mask, i_pow) => values[i] = hermitian_value(i_pow, pauli(x_mask, z_mask)),
        }
    }
    if !z_masks.is_empty() {
        for (i, sum) in at.into_iter().zip(diagonal(&z_masks)) {
            values[i] = sum.finish();
        }
    }
    values
}

/// Per mask of `z_masks`, the limb mask [`diagonal_sums`] selects a tile's
/// odd terms with: all ones at each offset below [`SIGN_TILE`] the mask
/// reads odd.
pub(crate) fn odd_tables(z_masks: &[usize]) -> Vec<[i64; SIGN_TILE]> {
    let table = |z| std::array::from_fn(|l| -i64::from(odd_parity(l, z)));
    z_masks.iter().map(|&z| table(z)).collect()
}

/// Writes to `sums` `Σ_g (-1)^{|g & z|} |a_g|²` for each mask `z` of
/// `z_masks`, `g` the global index `base | i`, in one sweep: the exact
/// total, less twice the exact mass of the amplitudes each mask reads odd.
/// A tile's terms are cut onto the grid once; a mask then sums the terms
/// its low bits read odd (`low_odd`, from [`odd_tables`]), and the tile's
/// high bits decide whether that sum or the rest of the tile is the odd
/// side. No amplitude pays a popcount, every inner loop runs over a tile's
/// terms, and nothing is allocated.
pub(crate) fn diagonal_sums(
    amps: &[Complex],
    base: usize,
    z_masks: &[usize],
    low_odd: &[[i64; SIGN_TILE]],
    sums: &mut [ExactSum],
) {
    wide!(Avx512, {
        let tile = amps.len().min(SIGN_TILE);
        let mut total = ExactSum::ZERO;
        let odd_mass = sums;
        odd_mass.fill(ExactSum::ZERO);
        let (mut hi, mut lo) = ([0i64; SIGN_TILE], [0i64; SIGN_TILE]);
        for (at, amps) in (base..).step_by(tile).zip(amps.chunks_exact(tile)) {
            let mut all = Limbs::default();
            for ((a, hi), lo) in amps.iter().zip(&mut hi).zip(&mut lo) {
                let mut one = Limbs::default();
                one.add(a.norm_sqr());
                (*hi, *lo) = (one.hi, one.lo);
                all.merge(one);
            }
            let mut tile_total = ExactSum::ZERO;
            tile_total.fold(all);
            total.merge(tile_total);
            for ((&z, low), odd) in z_masks.iter().zip(low_odd).zip(odd_mass.iter_mut()) {
                let mut picked = Limbs::default();
                for ((&h, &l), &m) in hi[..tile].iter().zip(&lo[..tile]).zip(&low[..tile]) {
                    picked.hi += h & m;
                    picked.lo += l & m;
                }
                let mut low_side = ExactSum::ZERO;
                low_side.fold(picked);
                odd.merge(match odd_parity(at, z) {
                    false => low_side,
                    true => ExactSum(tile_total.0 - low_side.0),
                });
            }
        }
        for odd in odd_mass {
            *odd = ExactSum(total.0 - 2 * odd.0);
        }
    })
}

/// Finishes an accumulator's real and imaginary parts, applies the `i^{#Y}`
/// phase and returns the (necessarily real) expectation value.
pub fn hermitian_value(i_pow: Complex, [re, im]: [ExactSum; 2]) -> f64 {
    let val = i_pow * Complex::new(re.finish(), im.finish());
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

/// The (pre-phase) term amplitude `a` contributes to a Pauli expectation,
/// given its `x_mask` partner and its [`z_sign`]:
/// `conj(partner) · (±a)`, the partner's conjugate first. Every store forms
/// every term this way, so every store sums the same terms.
#[inline(always)]
fn signed_term(a: Complex, partner: Complex, sign: f64) -> Complex {
    partner.conj() * a.scale(sign)
}

/// Removes qubit `target` from a dense amplitude vector in place, keeping
/// the `outcome` branch; qubits above `target` shift down one position.
/// Halves the length, keeps the capacity, and returns the probability mass
/// that was discarded.
///
/// Compacts forward: block `k` (`2·bit` amplitudes) keeps one `bit`-long
/// run, which moves down to `k·bit` — into an earlier block, or for block 0
/// onto the run it drops — so summing a block's dropped run before moving
/// its kept run never reads an amplitude that was already overwritten.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn remove_qubit_in_place(amps: &mut Vec<Complex>, target: usize, outcome: bool) -> f64 {
    let dropped = walk_known_short!(1usize << target, |bit| {
        let (kept_at, dropped_at) = if outcome { (bit, 0) } else { (0, bit) };
        let mut dropped = Adder::<1>::new();
        for k in 0..amps.len() / (2 * bit) {
            let block = 2 * k * bit;
            dropped.add_each(0, &amps[block + dropped_at..][..bit], Complex::norm_sqr);
            amps.copy_within(block + kept_at..block + kept_at + bit, k * bit);
        }
        dropped.total()[0]
    });
    amps.truncate(amps.len() / 2);
    dropped.finish()
}

/// Removes qubit `target` from a dense amplitude vector, keeping the
/// `outcome` branch scaled by `factor` (the [`renormalizer`] of its mass):
/// to the bit what [`collapse_parity`] over `target` onto `outcome`,
/// [`scale`] by `factor` and [`remove_qubit_in_place`] leave, in one pass
/// over the kept half — nothing is zeroed or scaled in the half that is
/// dropped, and each kept amplitude moves once.
pub fn collapse_remove_in_place(
    amps: &mut Vec<Complex>,
    target: usize,
    outcome: bool,
    factor: f64,
) {
    wide!(Avx2, {
        walk_known_short!(1usize << target, |bit| {
            let kept_at = if outcome { bit } else { 0 };
            // Block 0 keeping its low run rescales where it stands; every other
            // kept run moves down, by at least its own length, onto amplitudes
            // that were dropped or have moved already.
            for k in 0..amps.len() / (2 * bit) {
                let (to, from) = (k * bit, 2 * k * bit + kept_at);
                if from == to {
                    for a in &mut amps[..bit] {
                        *a = a.scale(factor);
                    }
                } else {
                    let (low, high) = amps.split_at_mut(from);
                    for (to, a) in low[to..to + bit].iter_mut().zip(&high[..bit]) {
                        *to = a.scale(factor);
                    }
                }
            }
        });
        amps.truncate(amps.len() / 2);
    })
}

/// The copying form of [`remove_qubit_in_place`]: returns the halved vector
/// plus the discarded probability mass and leaves `flat` as it was.
/// Panics on a term out of range (see [Sums](self#sums)).
pub fn remove_qubit_flat(flat: &[Complex], target: usize, outcome: bool) -> (Vec<Complex>, f64) {
    let mut out = flat.to_vec();
    let dropped = remove_qubit_in_place(&mut out, target, outcome);
    (out, dropped)
}

#[cfg(test)]
mod tests {
    use super::dispatch::tests::{on_each_copy, on_each_split};
    use super::*;
    use crate::complex::C_ONE;
    use crate::gates::{cnot_matrix, swap_matrix, Gate};
    use crate::sim::AmpStore;
    use crate::state::State;

    /// The odd-parity mass of one stripe: the serial read the split one
    /// (`split::parity_prob_odd`) is compared with.
    fn parity_prob_odd(amps: &[Complex], base: usize, mask: usize) -> f64 {
        parity_sum(amps, base, mask).finish()
    }

    /// The value of one Pauli string over a whole register in one slice:
    /// [`expectation_partial`] of the slice against itself.
    fn expectation_pauli_flat(amps: &[Complex], terms: &[PauliTerm]) -> f64 {
        let n_qubits = amps.len().trailing_zeros() as usize;
        let (x_mask, z_mask, i_pow) = pauli_masks(n_qubits, terms);
        let mut acc = [ExactSum::ZERO; 2];
        expectation_partial(amps, amps, 0, x_mask, z_mask, &mut acc);
        hermitian_value(i_pow, acc)
    }

    /// [`expectation_pauli_flat`] of each string, with the diagonal
    /// (Z-only) strings read together in one sweep: the serial form of the
    /// dense store's `split::expectation_each`.
    fn expectation_pauli_each_flat(amps: &[Complex], strings: &[Vec<PauliTerm>]) -> Vec<f64> {
        each_string(
            amps.len(),
            strings,
            |x_mask, z_mask| {
                let mut acc = [ExactSum::ZERO; 2];
                expectation_partial(amps, amps, 0, x_mask, z_mask, &mut acc);
                acc
            },
            |z_masks| {
                let mut sums = vec![ExactSum::ZERO; z_masks.len()];
                diagonal_sums(amps, 0, z_masks, &odd_tables(z_masks), &mut sums);
                sums
            },
        )
    }

    fn uniform(n: usize) -> Vec<Complex> {
        let len = 1usize << n;
        vec![Complex::real(1.0 / (len as f64).sqrt()); len]
    }

    #[test]
    fn apply_within_matches_dense_1q_kernel() {
        // One 8-amplitude stripe; H on the middle qubit via the pair kernel
        // vs the dense state's entry point must be bit-identical.
        let mut dense = State::zero(3);
        dense.apply_1q(&[], 1, &Gate::H.matrix());
        let mut amps = vec![C_ZERO; 8];
        amps[0] = C_ONE;
        PairKernel::Mat(Gate::H.matrix()).apply_within(&mut amps, 0, 1 << 1);
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
        let kept = collapse_parity(&mut amps, 0, 0b11, false).finish();
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
        pair_unitary(&mut amps, 0, 1, &Gate::H.matrix());
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
        // CNOT (control mask + swap kernel) must equal the 4x4 reference
        // (whose 0/1 entries make it exact) on an arbitrary state.
        let raw: Vec<Complex> = (0..8)
            .map(|i| Complex::new(0.5 + i as f64, (i as f64) * 0.3 - 1.0))
            .collect();
        let norm: f64 = raw.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let amps: Vec<Complex> = raw.iter().map(|a| a.scale(1.0 / norm)).collect();
        let mut dense = State::from_amplitudes(amps.clone());
        dense.apply_2q(2, 0, &cnot_matrix());
        let mut striped = amps;
        PairKernel::Swap.apply_within(&mut striped, 1 << 2, 1 << 0);
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

        /// The exact sum of `terms`, one [`ExactSum::add`] each.
        pub fn exact(terms: impl IntoIterator<Item = f64>) -> f64 {
            let mut sum = ExactSum::ZERO;
            terms.into_iter().for_each(|t| sum.add(t));
            sum.finish()
        }

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
            exact(
                amps.iter()
                    .enumerate()
                    .filter(|(i, _)| (base | i) & mask == want)
                    .map(|(_, a)| a.norm_sqr()),
            )
        }

        pub fn collapse_keep(amps: &mut [Complex], base: usize, mask: usize, want: usize) -> f64 {
            let mut kept = ExactSum::ZERO;
            for (i, a) in amps.iter_mut().enumerate() {
                if (base | i) & mask == want {
                    kept.add(a.norm_sqr());
                } else {
                    *a = C_ZERO;
                }
            }
            kept.finish()
        }

        pub fn parity_prob_odd(amps: &[Complex], base: usize, mask: usize) -> f64 {
            parity_mass(amps, base, mask, true)
        }

        pub fn parity_mass(amps: &[Complex], base: usize, mask: usize, odd: bool) -> f64 {
            exact(
                amps.iter()
                    .enumerate()
                    .filter(|(i, _)| (((base | i) & mask).count_ones() % 2 == 1) == odd)
                    .map(|(_, a)| a.norm_sqr()),
            )
        }

        pub fn collapse_parity(
            amps: &mut [Complex],
            base: usize,
            mask: usize,
            want_odd: bool,
        ) -> f64 {
            let mut kept = ExactSum::ZERO;
            for (i, a) in amps.iter_mut().enumerate() {
                let odd = ((base | i) & mask).count_ones() % 2 == 1;
                if odd == want_odd {
                    kept.add(a.norm_sqr());
                } else {
                    *a = C_ZERO;
                }
            }
            kept.finish()
        }

        pub fn expectation_pauli_flat(amps: &[Complex], terms: &[PauliTerm]) -> f64 {
            let n_qubits = amps.len().trailing_zeros() as usize;
            let (x_mask, z_mask, i_pow) = pauli_masks(n_qubits, terms);
            let mut acc = [ExactSum::ZERO; 2];
            for (g, &a) in amps.iter().enumerate() {
                let sign = if (g & z_mask).count_ones() % 2 == 1 {
                    -1.0
                } else {
                    1.0
                };
                let term = amps[g ^ x_mask].conj() * a.scale(sign);
                acc[0].add(term.re);
                acc[1].add(term.im);
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
            let mut dropped = ExactSum::ZERO;
            for (i, &a) in flat.iter().enumerate() {
                if i & bit == keep {
                    let j = (i & low_mask) | ((i >> 1) & !low_mask);
                    out[j] = a;
                } else {
                    dropped.add(a.norm_sqr());
                }
            }
            (out, dropped.finish())
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
                        |v| branch_masses(v, base, mask)[1].finish(),
                        |v| naive::parity_prob_odd(v, base, mask),
                    );
                    same_bits(
                        &amps,
                        ("branch_masses even", case),
                        |v| branch_masses(v, base, mask)[0].finish(),
                        |v| naive::parity_mass(v, base, mask, false),
                    );
                    for want_odd in [false, true] {
                        same_bits(
                            &amps,
                            ("collapse_parity", case, want_odd),
                            |v| collapse_parity(v, base, mask, want_odd).finish(),
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
        // The empty selection sums to `+0.0`.
        assert_eq!(masked_norm(&seeded(8, 1), 0, 0b1, 0b10).to_bits(), 0);
        assert_eq!(collapse_keep(&mut seeded(8, 1), 0, 0b1, 0b10).to_bits(), 0);
    }

    /// A single-qubit Z measurement is the one-bit parity measurement: under
    /// a one-bit mask the parity kernels select the runs the masked kernels
    /// select, in the same order, from the same start value.
    #[test]
    fn one_bit_parity_kernels_are_the_masked_kernels_bit_for_bit() {
        for len in stripe_lens() {
            let amps = seeded(len, 600 + len as u64);
            // Every bit of the stripe and the two above it, at every base
            // those two bits allow.
            for bit in (0..len.trailing_zeros() + 2).map(|q| 1usize << q) {
                for base in [0, len, 2 * len, 3 * len] {
                    let case = (len, base, bit);
                    same_bits(
                        &amps,
                        ("parity_prob_odd", case),
                        |v| parity_prob_odd(v, base, bit),
                        |v| masked_norm(v, base, bit, bit),
                    );
                    for (odd, want) in [(false, 0), (true, bit)] {
                        same_bits(
                            &amps,
                            ("collapse_parity", case, odd),
                            |v| collapse_parity(v, base, bit, odd).finish(),
                            |v| collapse_keep(v, base, bit, want),
                        );
                    }
                }
            }
        }
    }

    /// The one-pass collapse is the per-index collapse and then the per-index
    /// rescale, on every kernel copy the host has, with exact zeros of
    /// either sign among generic amplitudes.
    #[test]
    fn collapse_scale_is_collapse_then_scale_bit_for_bit() {
        let factor = renormalizer(0.3);
        on_each_copy(|| {
            for len in stripe_lens() {
                let mut amps = seeded(len, 700 + len as u64);
                for (i, a) in amps.iter_mut().enumerate().filter(|(i, _)| i % 5 == 1) {
                    *a = Complex::new(-0.0, if i % 2 == 0 { 0.0 } else { -0.0 });
                }
                for mask in 0..4 * len {
                    for base in [0, len, 2 * len, 3 * len] {
                        for odd in [false, true] {
                            same_bits(
                                &amps,
                                ("collapse_scale", len, base, mask, odd),
                                |v| {
                                    collapse_scale(v, base, mask, odd, factor);
                                    0.0
                                },
                                |v| {
                                    naive::collapse_parity(v, base, mask, odd);
                                    v.iter_mut().for_each(|a| *a = a.scale(factor));
                                    0.0
                                },
                            );
                        }
                    }
                }
            }
        });
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

    /// The Pauli string over `n` qubits whose base-4 digits of `code` are,
    /// from qubit 0 up, I, X, Y or Z.
    fn pauli_string(n: usize, code: u64) -> Vec<PauliTerm> {
        use crate::gates::Pauli;
        (0..n)
            .filter_map(|q| {
                let op = match (code >> (2 * q)) & 3 {
                    0 => return None,
                    1 => Pauli::X,
                    2 => Pauli::Y,
                    _ => Pauli::Z,
                };
                Some(PauliTerm { qubit: q, op })
            })
            .collect()
    }

    /// The Z-only string over the set bits of `mask`.
    fn z_string(mask: usize) -> Vec<PauliTerm> {
        (0..usize::BITS as usize)
            .filter(|q| mask >> q & 1 == 1)
            .map(|qubit| PauliTerm {
                qubit,
                op: crate::gates::Pauli::Z,
            })
            .collect()
    }

    /// [`seeded`] amplitudes with the values a sum can get wrong in its
    /// last bit or its sign: exact `+0.0` / `-0.0` components, and
    /// amplitudes of 1e-170 (whose `norm_sqr` underflows to `0.0`, the
    /// negligible skip's case) and 1e-160 (a subnormal `norm_sqr`).
    fn extremes(len: usize, seed: u64) -> Vec<Complex> {
        let mut amps = seeded(len, seed);
        for (i, a) in amps.iter_mut().enumerate() {
            *a = match i % 6 {
                1 => Complex::new(-0.0, 0.0),
                2 => Complex::new(0.0, -0.0),
                4 => a.scale(1e-170),
                5 if i % 4 == 1 => a.scale(1e-160),
                _ => *a,
            };
        }
        amps
    }

    /// Asserts that one fused call reads each string to the bits
    /// [`expectation_pauli_flat`] reads it to.
    fn assert_each_matches_flat(amps: &[Complex], strings: &[Vec<PauliTerm>]) {
        let got = expectation_pauli_each_flat(amps, strings);
        assert_eq!(got.len(), strings.len());
        for (value, terms) in got.iter().zip(strings) {
            let want = expectation_pauli_flat(amps, terms);
            assert_eq!(
                value.to_bits(),
                want.to_bits(),
                "{terms:?}: {value} vs {want}"
            );
        }
    }

    #[test]
    fn fused_expectations_match_one_string_at_a_time_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        for n in 0..=10usize {
            let mut rng = rand::rngs::StdRng::seed_from_u64(700 + n as u64);
            let all = (1usize << n) - 1;
            // Every single-Z string, the identity, random Z-only and general
            // strings and one repeat, in an order that interleaves the kinds.
            let mut strings: Vec<_> = (0..n).map(|q| z_string(1 << q)).collect();
            strings.push(vec![]);
            for _ in 0..16 {
                strings.push(z_string(rng.gen::<usize>() & all));
                strings.push(pauli_string(n, rng.gen()));
            }
            strings.push(strings[strings.len() / 2].clone());
            strings.reverse();
            for amps in [
                seeded(1 << n, 800 + n as u64),
                extremes(1 << n, 900 + n as u64),
            ] {
                assert_each_matches_flat(&amps, &strings);
            }
        }
        assert!(expectation_pauli_each_flat(&seeded(8, 1), &[]).is_empty());
    }

    mod exact_sum_proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Fisher–Yates.
        fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_range(0..i + 1));
            }
        }

        /// `2^e` for `-1022 <= e <= 1023`.
        fn pow2(e: i32) -> f64 {
            f64::from_bits(((1023 + e) as u64) << 52)
        }

        /// `t` on the 2^-102 grid, rounded half to even, from its sign,
        /// exponent and mantissa alone.
        fn grid_units(t: f64) -> i128 {
            let bits = t.to_bits();
            let (exp, frac) = (((bits >> 52) & 0x7ff) as i32, bits & ((1 << 52) - 1));
            // |t| = mant · 2^e.
            let (mant, e) = match exp {
                0 => (frac, -1074),
                _ => (frac | 1 << 52, exp - 1075),
            };
            let shift = e + 102;
            let units = if shift >= 0 {
                i128::from(mant) << shift
            } else if shift < -60 {
                0 // below a quarter of a grid step
            } else {
                let s = -shift;
                let (q, rem, half) = (mant >> s, mant & ((1 << s) - 1), 1u64 << (s - 1));
                i128::from(q + u64::from(rem > half || (rem == half && q & 1 == 1)))
            };
            if bits >> 63 == 1 {
                -units
            } else {
                units
            }
        }

        /// `units · 2^-102` rounded half to even once, by hand: the top 53
        /// bits of the magnitude and a sticky remainder.
        fn rounded(units: i128) -> f64 {
            let m = units.unsigned_abs();
            let width = 128 - m.leading_zeros() as i32;
            let value = if width <= 53 {
                m as u64 as f64 * pow2(-102)
            } else {
                let s = width - 53;
                let (q, rem, half) = (m >> s, m & ((1 << s) - 1), 1u128 << (s - 1));
                let q = q + u128::from(rem > half || (rem == half && q & 1 == 1));
                q as u64 as f64 * pow2(s - 102)
            };
            if units < 0 {
                -value
            } else {
                value
            }
        }

        /// The terms no sum may get wrong: ±2 (the bound), ±1, both zeros,
        /// the smallest and largest subnormals, 1e-300, a grid step and half
        /// of one (a tie), and values a hair either side of grid points.
        fn edge_terms() -> Vec<f64> {
            let sub = f64::from_bits(1);
            let big_sub = f64::from_bits((1 << 52) - 1);
            let step = pow2(-102);
            let mut terms = vec![2.0, -2.0, 1.0, -1.0, 0.0, -0.0, sub, -sub, big_sub, 1e-300];
            terms.push(-1e-300);
            terms.extend([step, -step, step / 2.0, 1.5 * step, -2.5 * step]);
            terms.extend([
                1.0 - f64::EPSILON / 2.0,
                -(0.5 + f64::EPSILON),
                1e-31,
                3e-17,
            ]);
            terms
        }

        /// Random terms in [-1, 1] of every scale, with the edge terms
        /// mixed in.
        fn terms(seed: u64, n: usize) -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut terms: Vec<f64> = (0..n)
                .map(|_| (2.0 * rng.gen::<f64>() - 1.0) * pow2(-((rng.gen::<u32>() % 120) as i32)))
                .collect();
            terms.extend(edge_terms());
            shuffle(&mut terms, &mut rng);
            terms
        }

        #[test]
        fn each_edge_term_lands_on_its_grid_point() {
            for t in edge_terms() {
                let mut sum = ExactSum::ZERO;
                sum.add(t);
                assert_eq!(sum.units(), grid_units(t), "{t:e}");
                assert_eq!(
                    sum.finish().to_bits(),
                    rounded(grid_units(t)).to_bits(),
                    "{t:e}"
                );
            }
            // A sum that cancels to exactly zero reads `+0.0`.
            let mut sum = ExactSum::ZERO;
            for t in [0.75, 1e-300, -0.5, 3e-17, -0.25, -3e-17, -1e-300, -0.0] {
                sum.add(t);
            }
            assert_eq!(sum.finish().to_bits(), 0);
            assert_eq!(ExactSum::ZERO.finish().to_bits(), 0);
        }

        /// A term the grid cannot hold panics in every build, naming its
        /// magnitude: added on its own, and as the square of one amplitude
        /// in the middle of a stripe long enough to take the vector loop.
        macro_rules! out_of_range_terms_panic {
            ($($add:ident, $norm:ident: $t:expr => $term:literal, $square:literal;)*) => {$(
                #[test]
                #[should_panic(expected = $term)]
                fn $add() {
                    let mut sum = ExactSum::ZERO;
                    sum.add($t);
                }

                #[test]
                #[should_panic(expected = $square)]
                fn $norm() {
                    let mut amps = vec![Complex::real(0.01); 1 << 12];
                    amps[1000] = Complex::real($t);
                    norm_sqr(&amps);
                }
            )*};
        }

        out_of_range_terms_panic! {
            add_rejects_2_5, norm_rejects_2_5: 2.5 => "|t| = 2.5", "|t| = 6.25";
            add_rejects_minus_3, norm_rejects_minus_3: -3.0 => "|t| = 3", "|t| = 9";
            add_rejects_infinity, norm_rejects_infinity: f64::INFINITY => "|t| = inf", "|t| = inf";
            add_rejects_nan, norm_rejects_nan: f64::NAN => "|t| = NaN", "|t| = NaN";
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Terms cut into random groups, each summed on its own (by one
            /// add at a time or a limb run), merged in a random order: the
            /// same units and bits every way, and `finish()` is the terms'
            /// exact grid sum rounded once.
            #[test]
            fn partitions_and_merge_orders_give_identical_bits(
                seed in any::<u64>(),
                n in 0usize..5000,
                groups in 1usize..12,
            ) {
                let terms = terms(seed, n);
                let want: i128 = terms.iter().map(|&t| grid_units(t)).sum();
                let mut rng = StdRng::seed_from_u64(!seed);
                let mut cuts: Vec<usize> = (0..groups - 1).map(|_| rng.gen_range(0..terms.len() + 1)).collect();
                cuts.extend([0, terms.len()]);
                cuts.sort_unstable();
                let mut partials: Vec<ExactSum> = cuts
                    .windows(2)
                    .enumerate()
                    .map(|(i, w)| {
                        let mut part = ExactSum::ZERO;
                        match i % 2 {
                            0 => terms[w[0]..w[1]].iter().for_each(|&t| part.add(t)),
                            _ => {
                                let mut adder = Adder::<1>::new();
                                adder.add_each(0, &terms[w[0]..w[1]], |t| t);
                                part = adder.total()[0];
                            }
                        }
                        part
                    })
                    .collect();
                shuffle(&mut partials, &mut rng);
                let mut total = ExactSum::ZERO;
                for part in partials {
                    total.merge(part);
                }
                prop_assert_eq!(total.units(), want);
                prop_assert_eq!(total.finish().to_bits(), rounded(want).to_bits());
                let mut serial = Adder::<1>::new();
                serial.add_each(0, &terms, |t| t);
                prop_assert_eq!(serial.total()[0], total);
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn bits_of(values: &[f64]) -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        }

        /// [`seeded`] amplitudes scaled to unit norm.
        fn normalized(len: usize, seed: u64) -> Vec<Complex> {
            let amps = seeded(len, seed);
            let norm = norm_sqr(&amps).sqrt();
            amps.iter().map(|a| a.scale(1.0 / norm)).collect()
        }

        /// Measure-and-free as the per-index loops compose it: the parity
        /// mass, collapse, rescale by the kept mass, remove.
        fn measured_and_removed(amps: &[Complex], target: usize, u: f64) -> (bool, Vec<Complex>) {
            let scaled = |v: &mut [Complex], f: f64| v.iter_mut().for_each(|a| *a = a.scale(f));
            let tbit = 1 << target;
            let outcome = u < naive::parity_prob_odd(amps, 0, tbit);
            let mut collapsed = amps.to_vec();
            let kept = naive::collapse_parity(&mut collapsed, 0, tbit, outcome);
            scaled(&mut collapsed, 1.0 / kept.sqrt());
            let (removed, _) = naive::remove_qubit_flat(&collapsed, target, outcome);
            (outcome, removed)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Every split entry `State` calls, at and above the split
            /// threshold, against the serial kernel over the whole register
            /// bit for bit, with the halves on the helper thread and in
            /// sequence on the caller: generic-angle states, the target on
            /// the top bit (split into quarters) or anywhere, a control on
            /// the bit the call is cut at, on the next one down, anywhere or
            /// nowhere, sweep factors and flips on random masks, and
            /// measure-and-free onto both outcomes.
            #[test]
            fn split_kernels_are_the_serial_kernels_bit_for_bit(
                above in 0usize..2,
                seed in any::<u64>(),
                picks in (any::<u64>(), any::<u64>(), any::<u64>()),
                sweep in collection::vec(any::<u64>(), 1..5),
                u in 0.0f64..1.0,
            ) {
                let len = split::SPLIT_MIN << above;
                let (n, top) = (len.trailing_zeros() as u64, len / 2);
                let amps = normalized(len, seed);
                let (t, c, o) = picks;
                let target = if t % 2 == 0 { n - 1 } else { t / 2 % n } as usize;
                let tbit = 1usize << target;
                let c_lo = [0, top, top / 2, 1 << (c / 4 % n)][(c % 4) as usize] & !tbit;
                let other = 1usize << (o % n);
                let m = crate::gates::matmul2(&Gate::Ry(6.0 * u).matrix(), &Gate::Rz(1.1).matrix());
                let factors: Vec<_> = sweep
                    .iter()
                    .map(|&k| {
                        let angle = k as f64 * 1e-19;
                        (k as usize & (len - 1), Complex::cis(angle), Complex::cis(0.3 - angle))
                    })
                    .collect();
                let flips: Vec<usize> = sweep.iter().map(|&k| k.rotate_left(23) as usize & (len - 1)).collect();
                let measured = [u, 0.0, 1.0 - f64::EPSILON].map(|u| (u, measured_and_removed(&amps, target, u)));
                on_each_split(|| {
                    for kernel in [PairKernel::Mat(m), PairKernel::Swap] {
                        same_bits(
                            &amps,
                            ("apply_within", kernel, tbit, c_lo),
                            |v| {
                                split::apply_within(kernel, v, c_lo, tbit);
                                0.0
                            },
                            |v| {
                                kernel.apply_within(v, c_lo, tbit);
                                0.0
                            },
                        );
                    }
                    same_bits(
                        &amps,
                        ("phase_sweep", &factors, &flips),
                        |v| {
                            split::phase_sweep(v, &factors, &flips);
                            0.0
                        },
                        |v| {
                            phase_sweep(v, 0, &factors, &flips);
                            0.0
                        },
                    );
                    same_bits(
                        &amps,
                        ("phase_flip", tbit | c_lo),
                        on_first(len, &|v| split::phase_flip(v, tbit | c_lo)),
                        on_first(len, &|v| phase_flip(v, tbit | c_lo)),
                    );
                    if other != tbit {
                        same_bits(
                            &amps,
                            ("swap_within", tbit, other),
                            on_first(len, &|v| split::swap_within(v, tbit, other)),
                            on_first(len, &|v| swap_within(v, tbit, other)),
                        );
                    }
                    same_bits(
                        &amps,
                        "scale",
                        on_first(len, &|v| split::scale(v, 0.5 + u)),
                        on_first(len, &|v| scale(v, 0.5 + u)),
                    );
                    // The reads: a parity mass, both branch masses, a
                    // string with X on the top bit, on the bit below it or
                    // anywhere, and diagonal strings.
                    let mask = tbit | other;
                    let masses = split::masses(&amps, mask);
                    assert_eq!(masses, branch_masses(&amps, 0, mask), "masses of {mask:#x}");
                    let odd = split::parity_prob_odd(&amps, mask);
                    assert_eq!(odd.to_bits(), parity_prob_odd(&amps, 0, mask).to_bits());
                    let strings = [
                        pauli_string(n as usize, 1 << (2 * (n - 1)) | 3 << (2 * (t % n))),
                        pauli_string(n as usize, 2 << (2 * (n - 2)) | 1 << (2 * (c % n))),
                        pauli_string(n as usize, o | 1),
                        z_string(mask),
                        z_string(tbit),
                    ];
                    let each = split::expectation_each(&amps, &strings);
                    assert_eq!(bits_of(&each), bits_of(&expectation_pauli_each_flat(&amps, &strings)));
                    for (terms, value) in strings.iter().zip(&each) {
                        let flat = expectation_pauli_flat(&amps, terms).to_bits();
                        assert_eq!(value.to_bits(), flat, "{terms:?}");
                    }
                    for (u, (outcome, want)) in &measured {
                        let kept = match outcome {
                            true => parity_prob_odd(&amps, 0, tbit),
                            false => masked_norm(&amps, 0, tbit, 0),
                        };
                        let got = split::measure(&amps, tbit, *u);
                        assert_eq!((got.0, got.1.to_bits()), (*outcome, kept.to_bits()), "u = {u}");
                        let mut got = State::from_amplitudes(amps.clone());
                        assert_eq!(got.measure_and_remove(target, *u), *outcome, "u = {u}");
                        assert_eq!(bits(got.amplitudes()), bits(want), "qubit {target} onto {outcome}");
                    }
                });
            }
        }

        /// A stripe's share of a Pauli expectation summed index by index,
        /// each term `conj(partner)·(±a)` added on its own, into `acc`: alone
        /// (`x_hi == 0`, partners in the stripe itself), or paired, `own`'s
        /// terms against `other`, the stripe the shard-crossing X bits
        /// `x_hi` pair it with.
        fn per_index_partial(
            own: &[Complex],
            other: &[Complex],
            base: usize,
            (x_lo, x_hi, z_mask): (usize, usize, usize),
            acc: &mut [ExactSum; 2],
        ) {
            for (i, &a) in own.iter().enumerate() {
                let partner = if x_hi == 0 {
                    own[i ^ x_lo]
                } else {
                    other[i ^ x_lo]
                };
                let sign = if ((base | i) & z_mask).count_ones() % 2 == 1 {
                    -1.0
                } else {
                    1.0
                };
                let term = partner.conj() * a.scale(sign);
                acc[0].add(term.re);
                acc[1].add(term.im);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The run kernel adds a stripe's terms to the bits of the
            /// per-index loop, on each kernel copy: alone, and as the low
            /// member of a pair, its own terms and then its partner's into
            /// one accumulator. Stripes of 1 to 2^8 amplitudes at a nonzero
            /// base, `x_lo` on bit 0, on the top stripe bit or anywhere, Z
            /// bits above the stripe, and amplitudes the skip drops.
            #[test]
            fn expectation_partial_is_the_per_index_loop_bit_for_bit(
                l in 0usize..9,
                shard in 1usize..8,
                flip in 1usize..8,
                picks in (0usize..4, any::<usize>(), any::<usize>()),
                seeds in (any::<u64>(), any::<u64>()),
                tame in any::<bool>(),
            ) {
                let len = 1usize << l;
                let (x_pick, x_any, z_any) = picks;
                let x_lo = [0, 1, len / 2, x_any][x_pick] & (len - 1);
                let z_mask = z_any & ((len << 3) - 1);
                let (base, x_hi) = (shard << l, flip << l);
                let stripe = |seed| if tame { seeded(len, seed) } else { extremes(len, seed) };
                let (own, other) = (stripe(seeds.0), stripe(seeds.1));
                on_each_copy(|| {
                    let zero = [ExactSum::ZERO; 2];
                    let (mut got, mut want) = (zero, zero);
                    expectation_partial(&own, &own, base, x_lo, z_mask, &mut got);
                    per_index_partial(&own, &own, base, (x_lo, 0, z_mask), &mut want);
                    assert_eq!(got, want, "alone");
                    let (mut got, mut want) = (zero, zero);
                    expectation_partial(&own, &other, base, x_lo, z_mask, &mut got);
                    per_index_partial(&own, &other, base, (x_lo, x_hi, z_mask), &mut want);
                    assert_eq!(got, want, "low member, own terms");
                    let partner = base ^ x_hi;
                    expectation_partial(&other, &own, partner, x_lo, z_mask, &mut got);
                    per_index_partial(&other, &own, partner, (x_lo, x_hi, z_mask), &mut want);
                    assert_eq!(got, want, "low member, partner terms");
                });
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Random lists of strings over random states: every value of
            /// one fused call is the one-string kernel's value to the bit.
            /// A code's low digit picks the kind — Z on one qubit, Z on a
            /// mask, the identity, any string — and the rest its operand.
            #[test]
            fn fused_expectations_are_the_flat_kernel_bit_for_bit(
                n in 0usize..11,
                seed in any::<u64>(),
                tame in any::<bool>(),
                codes in collection::vec(any::<u64>(), 1..40),
            ) {
                let all = (1usize << n) - 1;
                let strings: Vec<Vec<PauliTerm>> = codes
                    .iter()
                    .map(|&code| match (code & 3, (code >> 2) as usize) {
                        (0, q) if n > 0 => z_string(1 << (q % n)),
                        (1, mask) => z_string(mask & all),
                        (2, _) => vec![],
                        (_, rest) => pauli_string(n, rest as u64),
                    })
                    .collect();
                let amps = if tame {
                    seeded(1 << n, seed)
                } else {
                    extremes(1 << n, seed)
                };
                assert_each_matches_flat(&amps, &strings);
            }
        }
    }

    #[test]
    fn expectation_matches_the_per_index_loop_bit_for_bit() {
        for n in 1..=7usize {
            let amps = seeded(1 << n, 400 + n as u64);
            // Every Pauli string over n qubits: base-4 digits I, X, Y, Z.
            for code in 0..(1u64 << (2 * n)) {
                let terms = pauli_string(n, code);
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

    /// Every dispatched kernel, on each copy, against the per-index loops:
    /// generic-angle amplitudes, runs of 1 to 2^12 amplitudes, controls
    /// below and above the target.
    #[test]
    fn both_kernel_copies_match_the_per_index_loops_bit_for_bit() {
        const LEN: usize = 1 << 14;
        let amps = seeded(LEN, 1000);
        let m = crate::gates::matmul2(&Gate::Ry(0.37).matrix(), &Gate::Rz(1.1).matrix());
        let d = |k: f64| (Complex::cis(-0.1 - k), Complex::cis(0.3 + k));
        let naive_scale = |v: &mut [Complex], f: f64| v.iter_mut().for_each(|a| *a = a.scale(f));
        on_each_copy(|| {
            for j in 0..=12usize {
                let run = 1usize << j;
                // No control; one above the target; one below it.
                for (c_lo, tbit) in [(0, run), (2 * run, run), (run, 2 * run)] {
                    let case = (run, c_lo, tbit);
                    same_bits(
                        &amps,
                        ("pair_unitary", case),
                        on_first(LEN, &|s| pair_unitary(s, c_lo, tbit, &m)),
                        on_first(LEN, &|s| {
                            naive::pair_within(s, c_lo, tbit, naive::unitary(&m))
                        }),
                    );
                    same_bits(
                        &amps,
                        ("Mat across", case),
                        on_halves(LEN / 2, &|a, b| PairKernel::Mat(m).apply_across(a, b, c_lo)),
                        on_halves(LEN / 2, &|a, b| {
                            naive::pair_across(a, b, c_lo, naive::unitary(&m))
                        }),
                    );
                }
                let mask = run | (2 * run);
                same_bits(
                    &amps,
                    ("phase_flip", run),
                    on_first(LEN, &|s| phase_flip(s, mask)),
                    on_first(LEN, &|s| naive::phase_flip(s, mask)),
                );
                let factors = [(run, d(0.0).0, d(0.0).1), (mask, d(0.2).0, d(0.2).1)];
                // At a base with bits above the stripe set, as a shard's.
                for base in [0, LEN] {
                    same_bits(
                        &amps,
                        ("phase_sweep", run, base),
                        on_first(LEN, &|s| phase_sweep(s, base, &factors, &[mask])),
                        on_first(LEN, &|s| naive::phase_sweep(s, base, &factors, &[mask])),
                    );
                }
                // Stripe lengths of 1 to 2^12 for the whole-stripe pass and
                // the norm.
                same_bits(
                    &amps[..run],
                    ("scale", run),
                    |v| {
                        scale(v, 0.7);
                        norm_sqr(v)
                    },
                    |v| {
                        naive_scale(v, 0.7);
                        naive::exact(v.iter().map(|a| a.norm_sqr()))
                    },
                );
                // X⊗Z from qubit j up, and the diagonal Z⊗Z over `mask`.
                let n = LEN.trailing_zeros() as usize;
                let strings = [
                    pauli_string(n, (1 << (2 * j)) | (3 << (2 * j + 2))),
                    z_string(mask),
                ];
                let each = expectation_pauli_each_flat(&amps, &strings);
                for (terms, value) in strings.iter().zip(each) {
                    let want = naive::expectation_pauli_flat(&amps, terms).to_bits();
                    let flat = expectation_pauli_flat(&amps, terms);
                    let via_accessor = expectation_pauli(n, |g| amps[g], terms);
                    for got in [flat, via_accessor, value] {
                        assert_eq!(got.to_bits(), want, "{terms:?}");
                    }
                }
                for outcome in [false, true] {
                    // Collapse, rescale by the kept mass, remove: the composed
                    // form.
                    let mut want = amps.clone();
                    let kept = naive::collapse_parity(&mut want, 0, run, outcome);
                    naive_scale(&mut want, 1.0 / kept.sqrt());
                    let (want, _) = naive::remove_qubit_flat(&want, j, outcome);
                    let mut got = amps.clone();
                    let kept = masked_norm(&got, 0, run, if outcome { run } else { 0 });
                    collapse_remove_in_place(&mut got, j, outcome, renormalizer(kept));
                    assert_eq!(bits(&got), bits(&want), "qubit {j} onto {outcome}");
                }
            }
        });
    }
}
