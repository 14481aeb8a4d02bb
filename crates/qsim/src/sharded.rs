//! Lock-striped sharded state vector.
//!
//! [`ShardedState`] stores the `2^n` amplitudes of an `n`-qubit register as
//! `2^k` *contiguous* shards, each guarded by its own mutex. Shard `s` holds
//! the amplitudes whose global basis-state index has top bits `s`; the low
//! `n - k` bits address within a shard. This makes gate dispatch local:
//!
//! * a gate on a **low** qubit (bit index `< n - k`) touches every shard but
//!   only *within-shard* amplitude pairs, so shards are processed
//!   independently — in parallel via `std::thread::scope` for large states,
//!   or pipelined across concurrently calling threads for small ones;
//! * a gate on a **high** qubit (bit index `>= n - k`) pairs shard `s` with
//!   shard `s | 2^(q - (n-k))` — the two stripes are locked together (in
//!   ascending index order, so lock acquisition cannot deadlock) and the
//!   amplitude pairs line up offset-for-offset.
//!
//! Gate application therefore needs no global lock: callers operating on
//! disjoint qubits (which is what QMPI locality guarantees across ranks)
//! stream through the stripes concurrently. Two safety arguments back
//! this, and they differ by pairing axis:
//!
//! * **within-shard pairing** (low-qubit targets, and diagonal gates like
//!   CZ): each stripe receives every concurrent gate as one atomic pass
//!   under its mutex, and operators on disjoint qubits commute *exactly*,
//!   so per-stripe ordering differences are unobservable;
//! * **cross-shard pairing** (high-qubit targets): a pair spans two
//!   stripes, and interleaving with a concurrent gate's per-stripe passes
//!   would mix amplitude generations (stripe A post-gate, stripe B
//!   pre-gate), which does *not* commute. These gates therefore take the
//!   write side of an internal axis lock — they exclude all other gates —
//!   while within-shard gates share the read side.
//!
//! Structural operations — allocation, collapse, removal, snapshots — take
//! `&mut self` and are serialized by the caller (the backend wrapper holds
//! them under its own write lock).
//!
//! The per-stripe arithmetic itself lives in [`crate::stripe`]: this type
//! supplies the locking and dispatch, while process-separated shard
//! workers (which own a stripe in another thread of control and receive
//! commands over a message channel) run the identical kernels on theirs.

use crate::complex::{Complex, C_ONE, C_ZERO};
use crate::gates::Mat2;
use crate::measure::PauliTerm;
use crate::state::{State, MAX_DENSE_QUBITS, NORM_TOL};
use crate::stripe::{self, PairKernel};
use parking_lot::{Mutex, RwLock};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-shard amplitude count at or above which shard processing fans out to
/// worker threads inside a single gate call. Below it, the calling threads
/// themselves are the parallelism (each pipelines through the stripes).
pub const SHARD_PAR_MIN_LEN: usize = 1 << 14;

/// Hard cap on the shard count (`2^8`); more stripes than this only adds
/// lock overhead on any machine this workspace targets.
pub const MAX_SHARD_BITS: u32 = 8;

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// The one shard-count normalization rule every sharded deployment
/// applies: clamp to `[1, 2^max_bits]`, then round up to a power of two.
/// Engine constructors and `BackendKind`'s clamp-warning diagnostics both
/// call this, so what the warning reports is by construction what the
/// engine runs with.
pub fn normalize_shards(requested: usize, max_bits: u32) -> usize {
    requested.clamp(1, 1 << max_bits).next_power_of_two()
}

struct Shard {
    amps: Mutex<Vec<Complex>>,
}

/// A pure quantum state over `n` qubits, stored as `2^min(k, n)` contiguous
/// lock-striped shards.
pub struct ShardedState {
    shards: Vec<Shard>,
    /// Active shard-index bits: `min(max_shard_bits, n_qubits)`.
    shard_bits: u32,
    /// Configured shard-count exponent `k`.
    max_shard_bits: u32,
    n_qubits: usize,
    /// Pairing-axis guard: within-shard gates hold `read`, cross-shard
    /// gates hold `write` (see the module docs for why partial application
    /// across stripes must not interleave with cross-stripe pairing).
    axis: RwLock<()>,
    /// Rotating entry point into the stripe ring. Concurrent within-shard
    /// gates all need every stripe; starting them at staggered offsets
    /// pipelines them around the ring instead of convoying behind stripe 0.
    next_start: AtomicUsize,
}

impl ShardedState {
    /// Creates the 0-qubit scalar state striped over (up to) `shards`
    /// shards. `shards` is rounded up to a power of two and clamped to
    /// `[1, 2^MAX_SHARD_BITS]`.
    pub fn new(shards: usize) -> Self {
        let shards = normalize_shards(shards, MAX_SHARD_BITS);
        ShardedState {
            shards: vec![Shard {
                amps: Mutex::new(vec![C_ONE]),
            }],
            shard_bits: 0,
            max_shard_bits: shards.trailing_zeros(),
            n_qubits: 0,
            axis: RwLock::new(()),
            next_start: AtomicUsize::new(0),
        }
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of currently active shards (`2^min(k, n)`).
    #[inline]
    pub fn num_shards(&self) -> usize {
        1 << self.shard_bits
    }

    /// The configured maximum shard count (`2^k`).
    #[inline]
    pub fn max_shards(&self) -> usize {
        1 << self.max_shard_bits
    }

    /// Number of index bits addressing *within* a shard.
    #[inline]
    fn local_bits(&self) -> usize {
        self.n_qubits - self.shard_bits as usize
    }

    #[inline]
    fn shard_len(&self) -> usize {
        1 << self.local_bits()
    }

    // ---- structural operations (&mut self; caller serializes) ----

    /// Concatenates the shards into one dense vector (shards are contiguous
    /// index ranges, so this is a straight append in shard order).
    fn flatten(&mut self) -> Vec<Complex> {
        let mut flat = Vec::with_capacity(1usize << self.n_qubits);
        for sh in &mut self.shards {
            flat.append(sh.amps.get_mut());
        }
        flat
    }

    /// Rebuilds the stripes from a dense vector of `2^n_qubits` amplitudes.
    fn rebuild(&mut self, mut flat: Vec<Complex>, n_qubits: usize) {
        debug_assert_eq!(flat.len(), 1usize << n_qubits);
        self.n_qubits = n_qubits;
        self.shard_bits = self.max_shard_bits.min(n_qubits as u32);
        let len = flat.len() >> self.shard_bits;
        let mut shards = Vec::with_capacity(1 << self.shard_bits);
        for _ in 0..(1usize << self.shard_bits) {
            let rest = flat.split_off(len);
            shards.push(Shard {
                amps: Mutex::new(flat),
            });
            flat = rest;
        }
        self.shards = shards;
    }

    /// Appends a fresh qubit in |0> as the new most-significant qubit and
    /// returns its index. Existing qubit indices are stable.
    pub fn add_qubit(&mut self) -> usize {
        assert!(
            self.n_qubits < MAX_DENSE_QUBITS,
            "qubit budget exhausted (MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS})"
        );
        let idx = self.n_qubits;
        let mut flat = self.flatten();
        flat.resize(flat.len() * 2, C_ZERO);
        self.rebuild(flat, idx + 1);
        idx
    }

    /// Removes qubit `target`, which must already be collapsed to the
    /// classical value `outcome`. Qubits above `target` shift down by one.
    pub fn remove_qubit(&mut self, target: usize, outcome: bool) {
        assert!(target < self.n_qubits, "qubit {target} out of range");
        let mut flat = self.flatten();
        let dropped = stripe::remove_qubit_in_place(&mut flat, target, outcome);
        assert!(
            dropped < NORM_TOL,
            "removing qubit {target} with outcome {outcome} would discard {dropped:.3e} probability; collapse it first"
        );
        // The stripes are cut from `flat`: give back the half it no longer
        // fills rather than leave it attached to stripe 0.
        flat.shrink_to_fit();
        let n = self.n_qubits - 1;
        self.rebuild(flat, n);
        self.renormalize();
    }

    /// Rescales so that the squared norm is exactly 1.
    pub fn renormalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        assert!(norm > 0.0, "cannot renormalize the zero vector");
        for sh in &mut self.shards {
            stripe::scale(sh.amps.get_mut(), 1.0 / norm);
        }
    }

    /// Total squared norm (should always be ~1).
    pub fn norm_sqr(&mut self) -> f64 {
        self.shards
            .iter_mut()
            .map(|sh| sh.amps.get_mut().iter().map(|a| a.norm_sqr()).sum::<f64>())
            .sum()
    }

    /// Collapses `target` onto `outcome` and renormalizes. The caller must
    /// ensure the outcome has nonzero probability.
    pub fn collapse(&mut self, target: usize, outcome: bool) {
        let l = self.local_bits();
        let bit = 1usize << target;
        let keep = if outcome { bit } else { 0 };
        let mut norm = 0.0f64;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            norm += stripe::collapse_keep(sh.amps.get_mut(), s << l, bit, keep);
        }
        assert!(
            norm > 1e-12,
            "collapsing qubit {target} onto probability-zero outcome"
        );
        let inv = 1.0 / norm.sqrt();
        for sh in &mut self.shards {
            stripe::scale(sh.amps.get_mut(), inv);
        }
    }

    /// Measures `target` in the computational basis, sampling with `rng`,
    /// collapsing the state, and returning the outcome.
    pub fn measure(&mut self, target: usize, rng: &mut impl Rng) -> bool {
        let p1 = self.prob_one(target);
        let outcome = rng.gen::<f64>() < p1;
        self.collapse(target, outcome);
        outcome
    }

    /// Non-destructive joint Z-parity measurement over `qubits`: projects
    /// onto the sampled parity subspace and returns the outcome.
    pub fn measure_z_parity(&mut self, qubits: &[usize], rng: &mut impl Rng) -> bool {
        let l = self.local_bits();
        let mut mask = 0usize;
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
            mask |= 1usize << q;
        }
        let mut p_odd = 0.0f64;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            p_odd += stripe::parity_prob_odd(sh.amps.get_mut(), s << l, mask);
        }
        let want_odd = rng.gen::<f64>() < p_odd;
        let mut norm = 0.0f64;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            norm += stripe::collapse_parity(sh.amps.get_mut(), s << l, mask, want_odd);
        }
        let inv = 1.0 / norm.sqrt();
        for sh in &mut self.shards {
            stripe::scale(sh.amps.get_mut(), inv);
        }
        want_odd
    }

    // ---- read-only diagnostics (&self; lock every stripe) ----

    /// Probability that measuring `target` yields 1.
    pub fn prob_one(&self, target: usize) -> f64 {
        assert!(target < self.n_qubits, "qubit {target} out of range");
        let l = self.local_bits();
        let bit = 1usize << target;
        self.shards
            .iter()
            .enumerate()
            .map(|(s, sh)| stripe::masked_norm(&sh.amps.lock(), s << l, bit, bit))
            .sum()
    }

    /// Expectation value `<psi| P |psi>` of a Pauli string. Acquires every
    /// stripe for the duration (the string may couple any pair of shards).
    pub fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        let l = self.local_bits();
        let lmask = (1usize << l) - 1;
        let guards: Vec<_> = self.shards.iter().map(|sh| sh.amps.lock()).collect();
        stripe::expectation_pauli(self.n_qubits, |g| guards[g >> l][g & lmask], terms)
    }

    /// Dense snapshot of the state in the internal (position) qubit order.
    pub fn to_dense(&self) -> State {
        let mut flat = Vec::with_capacity(1usize << self.n_qubits);
        for sh in &self.shards {
            flat.extend_from_slice(&sh.amps.lock());
        }
        State::from_amplitudes(flat)
    }

    // ---- concurrent gate kernels (&self; lock touched stripes only) ----

    /// Runs `work(id)` for every id in `0..count`, fanning out to scoped
    /// worker threads when the per-shard work is large enough to amortize a
    /// spawn. The sequential path walks the ring from a rotating start
    /// offset so concurrent callers pipeline through the stripes instead of
    /// convoying behind stripe 0.
    fn dispatch(&self, count: usize, work: impl Fn(usize) + Sync) {
        let nthreads = max_threads();
        if count > 1 && self.shard_len() >= SHARD_PAR_MIN_LEN && nthreads > 1 {
            let chunk = count.div_ceil(nthreads);
            std::thread::scope(|scope| {
                let work = &work;
                for t in 0..nthreads {
                    let lo = t * chunk;
                    let hi = (lo + chunk).min(count);
                    if lo >= hi {
                        break;
                    }
                    scope.spawn(move || {
                        for id in lo..hi {
                            work(id);
                        }
                    });
                }
            });
        } else {
            let start = if count > 1 {
                self.next_start.fetch_add(1, Ordering::Relaxed) % count
            } else {
                0
            };
            for k in 0..count {
                work((start + k) % count);
            }
        }
    }

    /// Core pairwise kernel: applies `kernel` to every amplitude pair
    /// `(index, index | 2^target)` whose index satisfies the control masks
    /// (`c_lo` over within-shard bits, `c_hi` over shard-index bits).
    ///
    /// * `target < local_bits`: shard-parallel — each stripe is locked and
    ///   processed independently.
    /// * `target >= local_bits`: stripes pair up; both members of a pair
    ///   are held (ascending index order) while the offsets are zipped.
    fn for_pairs(&self, c_lo: usize, c_hi: usize, target: usize, kernel: PairKernel) {
        let l = self.local_bits();
        let num = self.num_shards();
        if target < l {
            // Within-shard pairing: concurrent with any other within-shard
            // or diagonal gate (exact commutation per atomic stripe pass).
            let _shared_axis = self.axis.read();
            let tbit = 1usize << target;
            self.dispatch(num, |s| {
                if s & c_hi != c_hi {
                    return;
                }
                let mut amps = self.shards[s].amps.lock();
                kernel.apply_within(&mut amps, c_lo, tbit);
            });
        } else {
            // Cross-shard pairing: exclusive, so no other gate can leave a
            // stripe half-updated while this pairing reads across stripes.
            let _exclusive_axis = self.axis.write();
            let tbit = 1usize << (target - l);
            self.dispatch(num, |s0| {
                if s0 & tbit != 0 || s0 & c_hi != c_hi {
                    return;
                }
                let mut a = self.shards[s0].amps.lock();
                let mut b = self.shards[s0 | tbit].amps.lock();
                kernel.apply_across(&mut a, &mut b, c_lo);
            });
        }
    }

    /// Splits a global control/qubit set into (within-shard, shard-index)
    /// masks.
    fn split_masks(&self, qubits: &[usize]) -> (usize, usize) {
        let l = self.local_bits();
        let mut lo = 0usize;
        let mut hi = 0usize;
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
            if q < l {
                lo |= 1 << q;
            } else {
                hi |= 1 << (q - l);
            }
        }
        (lo, hi)
    }

    /// Applies a single-qubit unitary `m` to `target`.
    pub fn apply_1q(&self, target: usize, m: &Mat2) {
        assert!(target < self.n_qubits, "qubit {target} out of range");
        self.for_pairs(0, 0, target, PairKernel::Mat(*m));
    }

    /// Applies `m` to `target` on basis states where every control is 1.
    pub fn apply_controlled_1q(&self, controls: &[usize], target: usize, m: &Mat2) {
        assert!(target < self.n_qubits, "qubit {target} out of range");
        for &c in controls {
            assert_ne!(c, target, "control equals target");
        }
        let (c_lo, c_hi) = self.split_masks(controls);
        self.for_pairs(c_lo, c_hi, target, PairKernel::Mat(*m));
    }

    /// CNOT fast path (amplitude swap, no complex multiplies).
    pub fn apply_cnot(&self, control: usize, target: usize) {
        assert_ne!(control, target, "CNOT needs distinct qubits");
        let (c_lo, c_hi) = self.split_masks(&[control]);
        self.for_pairs(c_lo, c_hi, target, PairKernel::Swap);
    }

    /// CZ fast path: pure phase, so every stripe is independent regardless
    /// of which qubits are involved.
    pub fn apply_cz(&self, a: usize, b: usize) {
        assert_ne!(a, b, "CZ needs distinct qubits");
        let (lo_mask, hi_mask) = self.split_masks(&[a, b]);
        // Diagonal: stripe-local regardless of qubit positions, so it
        // shares the axis with within-shard pair gates.
        let _shared_axis = self.axis.read();
        self.dispatch(self.num_shards(), |s| {
            if s & hi_mask != hi_mask {
                return;
            }
            let mut amps = self.shards[s].amps.lock();
            stripe::phase_flip(&mut amps, lo_mask);
        });
    }

    /// One-pass merged diagonal sweep ([`crate::batch::BatchOp::PhaseSweep`]
    /// with qubits already resolved to positions): every stripe applies the
    /// factors sequentially in slice order against the *global* basis index
    /// (stripe base ORed with the offset) and negates on odd CZ parity —
    /// the identical per-amplitude sequence as the dense engine, in one
    /// stripe pass regardless of how many diagonal gates were merged.
    pub fn apply_phase_sweep(
        &self,
        factors: &[(usize, Complex, Complex)],
        flips: &[(usize, usize)],
    ) {
        for &(a, b) in flips {
            assert_ne!(a, b, "CZ needs distinct qubits");
        }
        let qubits = factors.iter().map(|(q, ..)| q);
        for &q in qubits.chain(flips.iter().flat_map(|(a, b)| [a, b])) {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        let l = self.local_bits();
        // Diagonal: stripe-local regardless of qubit positions (like CZ).
        let _shared_axis = self.axis.read();
        self.dispatch(self.num_shards(), |s| {
            let mut amps = self.shards[s].amps.lock();
            stripe::phase_sweep_positions(&mut amps, s << l, factors, flips);
        });
    }

    /// One-round SWAP: a single amplitude permutation pass instead of the
    /// three CNOT passes of the naive realization (which, cross-shard, cost
    /// three stripe-pair exchanges). Pure amplitude moves, so the result is
    /// bit-identical to the three-CNOT version — only the pass count
    /// changes.
    pub fn apply_swap(&self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let n = self.n_qubits;
        assert!(a < n && b < n, "qubit out of range (n={n})");
        let l = self.local_bits();
        let (lo, hi) = (a.min(b), a.max(b));
        if hi < l {
            // Both qubits address within every stripe: shard-parallel, and
            // (like any within-shard pass) concurrent with other
            // within-shard gates.
            let _shared_axis = self.axis.read();
            let (abit, bbit) = (1usize << lo, 1usize << hi);
            self.dispatch(self.num_shards(), |s| {
                let mut amps = self.shards[s].amps.lock();
                stripe::swap_within(&mut amps, abit, bbit);
            });
        } else if lo < l {
            // Mixed: `lo` addresses within the stripe, `hi` selects the
            // shard. One half-stripe exchange per shard pair.
            let _exclusive_axis = self.axis.write();
            let abit = 1usize << lo;
            let hbit = 1usize << (hi - l);
            self.dispatch(self.num_shards(), |s0| {
                if s0 & hbit != 0 {
                    return;
                }
                let mut low = self.shards[s0].amps.lock();
                let mut high = self.shards[s0 | hbit].amps.lock();
                stripe::swap_across_mixed(&mut low, &mut high, abit);
            });
        } else {
            // Both qubits select the shard: shards with (a=1, b=0) trade
            // entire stripes with their (a=0, b=1) partners,
            // offset-for-offset.
            let _exclusive_axis = self.axis.write();
            let abit = 1usize << (lo - l);
            let bbit = 1usize << (hi - l);
            self.dispatch(self.num_shards(), |s| {
                if s & abit == 0 || s & bbit != 0 {
                    return;
                }
                let partner = s ^ abit ^ bbit;
                // Ascending lock order, matching `for_pairs`.
                let (first, second) = (s.min(partner), s.max(partner));
                let mut x = self.shards[first].amps.lock();
                let mut y = self.shards[second].amps.lock();
                std::mem::swap(&mut *x, &mut *y);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::Gate;
    use crate::sim::AmpStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-10;

    /// Mirrors a circuit on a dense `State` and a `ShardedState`, then
    /// checks amplitudes agree exactly (same arithmetic, same order).
    fn assert_matches_dense(shards: usize, build: impl Fn(&mut State, &ShardedState)) {
        let mut dense = State::zero(0);
        let mut striped = ShardedState::new(shards);
        for _ in 0..6 {
            dense.add_qubit();
            striped.add_qubit();
        }
        build(&mut dense, &striped);
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
                    striped.apply_1q(q, &Gate::H.matrix());
                }
                dense.apply_1q(&[], 5, &Gate::T.matrix());
                striped.apply_1q(5, &Gate::T.matrix());
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
                striped.apply_controlled_1q(&[0, 5], 3, &Gate::Ry(0.7).matrix());
            });
        }
    }

    #[test]
    fn phase_sweep_is_bit_identical_to_dense_in_every_sharding() {
        // Factors on low and shard-selecting qubits plus mixed CZ flips:
        // every stripe must run the identical sequential multiply the
        // dense single-stripe pass runs.
        let t = Gate::T.matrix();
        let s = Gate::S.matrix();
        for shards in [1usize, 2, 4, 8, 16] {
            assert_matches_dense(shards, |dense, striped| {
                for q in 0..6 {
                    dense.apply_1q(&[], q, &Gate::H.matrix());
                    striped.apply_1q(q, &Gate::H.matrix());
                }
                let factors = [(1, t[0][0], t[1][1]), (5, s[0][0], s[1][1])];
                let flips = [(0, 5), (2, 3)];
                let masked: Vec<(usize, Complex, Complex)> = factors
                    .iter()
                    .map(|&(q, d0, d1)| (1usize << q, d0, d1))
                    .collect();
                let flip_masks: Vec<usize> = flips
                    .iter()
                    .map(|&(a, b)| (1usize << a) | (1 << b))
                    .collect();
                stripe::phase_sweep(dense.amplitudes_mut(), 0, &masked, &flip_masks);
                striped.apply_phase_sweep(&factors, &flips);
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
                striped.apply_1q(q, &Gate::H.matrix());
            }
            dense.apply_1q(&[], 3, &Gate::T.matrix());
            striped.apply_1q(3, &Gate::T.matrix());
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
        s.apply_1q(0, &Gate::X.matrix());
        assert!((s.prob_one(0) - 1.0).abs() < TOL);
        assert!(s.prob_one(1) < TOL);
    }

    #[test]
    fn add_and_remove_qubits_preserve_state() {
        let mut s = ShardedState::new(4);
        let a = s.add_qubit();
        let b = s.add_qubit();
        let c = s.add_qubit();
        s.apply_1q(c, &Gate::X.matrix());
        // Removing the middle qubit shifts c down; it must still read |1>.
        s.remove_qubit(b, false);
        assert_eq!(s.n_qubits(), 2);
        assert!((s.prob_one(c - 1) - 1.0).abs() < TOL);
        assert!(s.prob_one(a) < TOL);
    }

    #[test]
    fn measurement_collapses_epr_pair() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let mut s = ShardedState::new(8);
            let a = s.add_qubit();
            let b = s.add_qubit();
            s.apply_1q(a, &Gate::H.matrix());
            s.apply_cnot(a, b);
            let ma = s.measure(a, &mut rng);
            let mb = s.measure(b, &mut rng);
            assert_eq!(ma, mb, "EPR halves must agree");
        }
    }

    #[test]
    fn parity_measurement_matches_dense_behavior() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = ShardedState::new(4);
        let a = s.add_qubit();
        let b = s.add_qubit();
        s.apply_1q(a, &Gate::H.matrix());
        s.apply_cnot(a, b);
        // EPR pair lives entirely in the even-parity subspace.
        assert!(!s.measure_z_parity(&[a, b], &mut rng));
        let dense = s.to_dense();
        assert!((dense.probability(0b00) - 0.5).abs() < TOL);
        assert!((dense.probability(0b11) - 0.5).abs() < TOL);
    }

    #[test]
    fn expectation_of_bell_pair() {
        use crate::gates::Pauli;
        let mut s = ShardedState::new(8);
        let a = s.add_qubit();
        let b = s.add_qubit();
        s.apply_1q(a, &Gate::H.matrix());
        s.apply_cnot(a, b);
        let term = |q: usize, op: Pauli| PauliTerm { qubit: q, op };
        assert!((s.expectation_pauli(&[term(a, Pauli::Z), term(b, Pauli::Z)]) - 1.0).abs() < TOL);
        assert!((s.expectation_pauli(&[term(a, Pauli::X), term(b, Pauli::X)]) - 1.0).abs() < TOL);
        assert!((s.expectation_pauli(&[term(a, Pauli::Y), term(b, Pauli::Y)]) + 1.0).abs() < TOL);
    }

    #[test]
    fn concurrent_gates_on_disjoint_qubits_commute() {
        // Two threads hammer disjoint qubits through &self concurrently;
        // the result must equal the sequential application.
        let mut s = ShardedState::new(8);
        for _ in 0..8 {
            s.add_qubit();
        }
        for q in 0..8 {
            s.apply_1q(q, &Gate::H.matrix());
        }
        let s = &s;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..50 {
                    s.apply_1q(1, &Gate::T.matrix());
                    s.apply_cnot(0, 1);
                    s.apply_cnot(0, 1);
                    s.apply_1q(1, &Gate::Tdg.matrix());
                }
            });
            scope.spawn(|| {
                for _ in 0..50 {
                    s.apply_1q(7, &Gate::S.matrix());
                    s.apply_cnot(6, 7);
                    s.apply_cnot(6, 7);
                    s.apply_1q(7, &Gate::Sdg.matrix());
                }
            });
        });
        // Every round was self-inverse, so the state is back to |+...+>.
        let dense = s.to_dense();
        for i in 0..dense.len() {
            assert!(
                (dense.probability(i) - 1.0 / 256.0).abs() < 1e-9,
                "index {i}"
            );
        }
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
            s.apply_1q(i % 6, &g.matrix());
            s.apply_cnot(i % 6, (i + 1) % 6);
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
