//! [`Tableau`]: the CHP stabilizer tableau (Aaronson & Gottesman, "Improved
//! simulation of stabilizer circuits", PRA 70, 052328, 2004) as an
//! amplitude store under the simulator front.
//!
//! Every QMPI communication primitive — EPR establishment, entangled copy,
//! teleportation, cat-state fanout, parity reduction — is pure Clifford, so
//! a tableau executes the paper's protocols in polynomial time and memory
//! where the dense state vector of [`crate::Simulator`] caps out near 25
//! qubits. [`StabilizerSim`] is the one front ([`AmpSim`]) over it, so its
//! handles, operand checks, counters, noise sites and measurement draws
//! are every other engine's; it backs the `Stabilizer` QMPI backend, which
//! scales the protocol suite to thousands of ranks.
//!
//! The tableau keeps `n` destabilizer and `n` stabilizer generators as
//! bit-packed X/Z rows plus a sign; positions are its columns. It
//! recognises a Clifford from what the front passes every store (its
//! [`AmpStore::check_1q`] and [`AmpStore::check_sweep`]):
//!
//! - a 2×2 matrix with no controls by how it conjugates X, Y and Z (to
//!   within 1e-9) — that action is the per-column update, so a gate, a
//!   fused product of Cliffords and a sampled Pauli insertion are one
//!   case;
//! - an X, Y or Z target under one control as CNOT, CY or CZ;
//! - a phase-sweep factor whose ratio `d1/d0` is a power of `i` as `S^k` on
//!   its parity.
//!
//! The front asks before it counts, draws or touches the store, so anything
//! else — T, generic rotations, Toffoli, amplitude damping — is
//! [`SimError::Unsupported`] with the tableau unchanged.
//!
//! Measurement follows the CHP procedure, generalised to joint Z parities
//! and Pauli-string expectations. Every probability is exactly 0, ½ or 1,
//! and the front's one uniform per measurement decides a random outcome as
//! `u < 0.5`: the draw, and the threshold up to dense rounding, that decide
//! it on the dense store, so a Clifford program's outcomes agree per seed
//! with the dense engine's.

use crate::batch::{named, SweepFactor};
use crate::complex::{Complex, C_I, C_ONE};
use crate::gates::{dagger2, matmul2, Mat2, Pauli};
use crate::measure::PauliTerm;
use crate::sim::{AmpSim, AmpStore, SimError};
use crate::state::State;

/// One tableau row: a Pauli string in the binary symplectic representation
/// (`x` and `z` bit-vectors) plus a sign bit. A set `x` bit alone is X, a
/// set `z` bit alone is Z, both set is Y (the factor of `i` is folded into
/// the convention, as in CHP).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Row {
    x: Vec<u64>,
    z: Vec<u64>,
    /// Sign: `true` represents a leading minus.
    neg: bool,
}

impl Row {
    fn zero(words: usize) -> Row {
        Row {
            x: vec![0; words],
            z: vec![0; words],
            neg: false,
        }
    }

    #[inline]
    fn get_x(&self, col: usize) -> bool {
        self.x[col / 64] >> (col % 64) & 1 == 1
    }

    #[inline]
    fn get_z(&self, col: usize) -> bool {
        self.z[col / 64] >> (col % 64) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, col: usize, v: bool) {
        let (w, b) = (col / 64, col % 64);
        self.x[w] = (self.x[w] & !(1 << b)) | (u64::from(v) << b);
    }

    #[inline]
    fn set_z(&mut self, col: usize, v: bool) {
        let (w, b) = (col / 64, col % 64);
        self.z[w] = (self.z[w] & !(1 << b)) | (u64::from(v) << b);
    }

    fn grow(&mut self, words: usize) {
        self.x.resize(words, 0);
        self.z.resize(words, 0);
    }

    /// Whether this row anticommutes with the Pauli string `other`
    /// (symplectic inner product is odd).
    fn anticommutes(&self, other: &Row) -> bool {
        let mut acc = 0u32;
        for w in 0..self.x.len().min(other.x.len()) {
            acc ^= (self.x[w] & other.z[w]).count_ones() & 1;
            acc ^= (self.z[w] & other.x[w]).count_ones() & 1;
        }
        acc & 1 == 1
    }

    /// Deletes column `col`; the columns above it shift down one place, as
    /// the registry's positions do on a free.
    fn remove_col(&mut self, col: usize) {
        let (w, b) = (col / 64, col % 64);
        for bits in [&mut self.x, &mut self.z] {
            let low = (1u64 << b) - 1;
            bits[w] = (bits[w] & low) | ((bits[w] >> 1) & !low);
            for i in w + 1..bits.len() {
                bits[i - 1] |= bits[i] << 63;
                bits[i] >>= 1;
            }
        }
    }
}

/// CHP `rowsum`: `dst := src * dst` as Pauli operators, tracking the sign.
///
/// The phase bookkeeping follows Aaronson–Gottesman's `g` function: for each
/// column, `g(x1, z1, x2, z2)` is the exponent of `i` contributed by
/// multiplying the column-`j` Paulis of `src` (1) and `dst` (2). The total
/// `2·neg_dst + 2·neg_src + Σ g` is always even; the new sign is its half,
/// mod 2.
fn rowsum(dst: &mut Row, src: &Row) {
    let mut g_total: i64 = 0;
    for w in 0..src.x.len() {
        let (x1, z1) = (src.x[w], src.z[w]);
        let (x2, z2) = (dst.x[w], dst.z[w]);
        // src column is Y: contributes z2 - x2.
        let y1 = x1 & z1;
        g_total += i64::from((y1 & z2).count_ones()) - i64::from((y1 & x2).count_ones());
        // src column is X: contributes z2 * (2*x2 - 1).
        let x_only = x1 & !z1;
        g_total += i64::from((x_only & z2 & x2).count_ones());
        g_total -= i64::from((x_only & z2 & !x2).count_ones());
        // src column is Z: contributes x2 * (1 - 2*z2).
        let z_only = !x1 & z1;
        g_total += i64::from((z_only & x2 & !z2).count_ones());
        g_total -= i64::from((z_only & x2 & z2).count_ones());
        dst.x[w] ^= x1;
        dst.z[w] ^= z1;
    }
    let total = 2 * i64::from(dst.neg) + 2 * i64::from(src.neg) + g_total;
    debug_assert!(
        total.rem_euclid(4) % 2 == 0,
        "odd i-power in stabilizer product"
    );
    dst.neg = total.rem_euclid(4) == 2;
}

/// How a single-qubit Clifford conjugates `[X, Y, Z]`: each image
/// `m P m†` as the `(x, z, neg)` bits of a tableau column (Y is `x = z =
/// 1`) and its sign.
type CliffordAction = [(bool, bool, bool); 3];

/// Hadamard: X ↔ Z, Y → −Y.
const H: CliffordAction = [
    (false, true, false),
    (true, true, true),
    (true, false, false),
];

/// S: X → Y, Y → −X.
const S: CliffordAction = [
    (true, true, false),
    (true, false, true),
    (false, true, false),
];

/// S†: X → −Y, Y → X.
const SDG: CliffordAction = [
    (true, true, true),
    (true, false, false),
    (false, true, false),
];

/// How close a matrix entry must be to its Clifford value.
const TOL: f64 = 1e-9;

const PAULIS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

/// Entrywise `a ≈ sign · b` to within [`TOL`].
fn close(a: &Mat2, b: &Mat2, sign: f64) -> bool {
    (0..4).all(|k| a[k / 2][k % 2].approx_eq(b[k / 2][k % 2].scale(sign), TOL))
}

/// The conjugation action of the 2×2 matrix `m`, or `None` when some
/// `m P m†` is not ±X, ±Y or ±Z to within 1e-9 — exactly when `m` is not a
/// single-qubit Clifford (a global phase is allowed, a non-unitary map is
/// not).
pub(crate) fn clifford_action(m: &Mat2) -> Option<CliffordAction> {
    let md = dagger2(m);
    let mut action = [(false, false, false); 3];
    for (image, p) in action.iter_mut().zip(PAULIS) {
        let c = matmul2(&matmul2(m, &p.matrix()), &md);
        *image = PAULIS.into_iter().find_map(|q| {
            [(false, 1.0), (true, -1.0)]
                .into_iter()
                .find(|&(_, sign)| close(&c, &q.matrix(), sign))
                .map(|(neg, _)| (q != Pauli::Z, q != Pauli::X, neg))
        })?;
    }
    Some(action)
}

/// The Pauli `m` equals to within 1e-9, phase included: the targets the
/// tableau realises under one control (CNOT, CY, CZ).
fn controlled_pauli(m: &Mat2) -> Option<Pauli> {
    PAULIS.into_iter().find(|p| close(m, &p.matrix(), 1.0))
}

/// `k` with `d1/d0 = i^k`: the sweep factor `(d0, d1)` is `S^k` on its
/// parity up to the global phase `d0`.
fn quarter_turns(d0: Complex, d1: Complex) -> Option<usize> {
    let ratio = d1 * d0.conj();
    [C_ONE, C_I, -C_ONE, -C_I]
        .iter()
        .position(|&w| ratio.approx_eq(w, TOL))
}

fn not_clifford(what: String) -> SimError {
    SimError::Unsupported(format!(
        "{what} is not Clifford; the stabilizer tableau realises Clifford gates \
         (single-controlled X/Y/Z among the controlled ones) and Pauli noise only"
    ))
}

/// Whether the tableau realises the 2×2 matrix `m` under `controls`
/// controls: a Clifford with none, an X, Y or Z with one. The one Clifford
/// rule — [`crate::Gate::is_clifford`] and [`crate::BatchOp::is_clifford`]
/// ask it too.
pub(crate) fn check_clifford(controls: usize, m: &Mat2) -> Result<(), SimError> {
    let realised = match controls {
        0 => clifford_action(m).is_some(),
        1 => controlled_pauli(m).is_some(),
        _ => false,
    };
    if realised {
        Ok(())
    } else {
        Err(not_clifford(format!("{m:?} under {controls} control(s)")))
    }
}

/// Whether the tableau realises every phase-sweep factor: `d1/d0` a power
/// of `i`.
pub(crate) fn check_clifford_sweep(diags: &[SweepFactor]) -> Result<(), SimError> {
    match diags.iter().find(|d| quarter_turns(d.1, d.2).is_none()) {
        None => Ok(()),
        Some(d) => Err(not_clifford(format!("phase-sweep factor {d:?}"))),
    }
}

/// The CHP tableau as an [`AmpStore`]; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct Tableau {
    words: usize,
    destab: Vec<Row>,
    stab: Vec<Row>,
}

/// The stabilizer simulator: the simulator front over a [`Tableau`].
pub type StabilizerSim = AmpSim<Tableau>;

impl Tableau {
    fn for_each_row(&mut self, mut f: impl FnMut(&mut Row)) {
        for row in self.destab.iter_mut().chain(self.stab.iter_mut()) {
            f(row);
        }
    }

    /// Conjugates column `j` by a single-qubit Clifford.
    fn apply_action(&mut self, j: usize, action: &CliffordAction) {
        self.for_each_row(|row| {
            let k = match (row.get_x(j), row.get_z(j)) {
                (false, false) => return,
                (true, false) => 0,
                (true, true) => 1,
                (false, true) => 2,
            };
            let (x, z, neg) = action[k];
            row.set_x(j, x);
            row.set_z(j, z);
            row.neg ^= neg;
        });
    }

    /// The Pauli string `Z` on every listed column, as a [`Row`].
    fn z_string(&self, cols: &[usize]) -> Row {
        let mut p = Row::zero(self.words);
        for &j in cols {
            p.set_z(j, true);
        }
        p
    }

    /// The first stabilizer generator that anticommutes with `p`; there is
    /// one exactly when measuring `p` has a random outcome.
    fn anticommuting(&self, p: &Row) -> Option<usize> {
        self.stab.iter().position(|row| row.anticommutes(p))
    }

    /// Collapses onto the `neg` eigenspace of `p`, which anticommutes with
    /// the generator at `pivot`: every other row that anticommutes with `p`
    /// absorbs that generator, which becomes the destabilizer, and `±p`
    /// becomes the stabilizer at `pivot`.
    fn project(&mut self, pivot: usize, p: &Row, neg: bool) {
        let row_p = self.stab[pivot].clone();
        for i in (0..self.stab.len()).filter(|&i| i != pivot) {
            if self.stab[i].anticommutes(p) {
                rowsum(&mut self.stab[i], &row_p);
            }
            if self.destab[i].anticommutes(p) {
                rowsum(&mut self.destab[i], &row_p);
            }
        }
        self.destab[pivot] = row_p;
        self.stab[pivot] = Row { neg, ..p.clone() };
    }

    /// Outcome of measuring `p` when it commutes with every stabilizer
    /// (so ±`p` is in the stabilizer group and the outcome is determined).
    fn deterministic_outcome(&self, p: &Row) -> bool {
        let mut scratch = Row::zero(self.words);
        for i in 0..self.stab.len() {
            if self.destab[i].anticommutes(p) {
                rowsum(&mut scratch, &self.stab[i]);
            }
        }
        debug_assert_eq!(
            scratch.x, p.x,
            "reconstructed operator must match the measured one"
        );
        debug_assert_eq!(
            scratch.z, p.z,
            "reconstructed operator must match the measured one"
        );
        scratch.neg != p.neg
    }

    /// `p`'s expectation class: `Some(true)` for the −1 eigenvalue,
    /// `Some(false)` for +1, `None` when the outcome is random.
    fn determined(&self, p: &Row) -> Option<bool> {
        match self.anticommuting(p) {
            Some(_) => None,
            None => Some(self.deterministic_outcome(p)),
        }
    }
}

fn no_amplitudes(what: &str) -> SimError {
    SimError::Unsupported(format!(
        "the stabilizer tableau holds no amplitudes, so no {what}; use an amplitude backend"
    ))
}

impl AmpStore for Tableau {
    fn add_qubit(&mut self) -> usize {
        let col = self.stab.len();
        let words = (col + 1).div_ceil(64);
        if words > self.words {
            self.words = words;
            for row in self.destab.iter_mut().chain(self.stab.iter_mut()) {
                row.grow(words);
            }
        }
        let mut d = Row::zero(self.words);
        d.set_x(col, true);
        let mut s = Row::zero(self.words);
        s.set_z(col, true);
        self.destab.push(d);
        self.stab.push(s);
        col
    }

    /// The qubit at `target` is a Z eigenstate, so a product factor: a
    /// Hadamard makes its Z measurement random, and projecting onto |0>
    /// leaves one stabilizer generator exactly `+Z_target` and every other
    /// row with `x[target] = 0`. Its row pair and column are then deleted.
    fn remove_qubit(&mut self, target: usize, _outcome: bool) {
        self.apply_action(target, &H);
        let p = self.z_string(&[target]);
        let pivot = self
            .anticommuting(&p)
            .expect("an X-eigenstate qubit must have an anticommuting stabilizer");
        self.project(pivot, &p, false);
        // Any `z[target]` left in another row only multiplies it by the
        // +Z_target stabilizer; the columns above shift down as the
        // registry shifts their handles.
        self.for_each_row(|row| row.remove_col(target));
        self.destab.remove(pivot);
        self.stab.remove(pivot);
    }

    /// Realises what [`AmpStore::check_1q`] accepts; the front never
    /// passes anything else.
    fn apply_1q(&mut self, controls: &[usize], target: usize, m: &Mat2) {
        match controls {
            [] => {
                if let Some(action) = clifford_action(m) {
                    self.apply_action(target, &action);
                }
            }
            &[c] => match controlled_pauli(m) {
                Some(Pauli::X) => self.apply_cnot(c, target),
                Some(Pauli::Y) => {
                    self.apply_action(target, &SDG);
                    self.apply_cnot(c, target);
                    self.apply_action(target, &S);
                }
                Some(Pauli::Z) => self.apply_cz(c, target),
                None => {}
            },
            _ => {}
        }
    }

    fn apply_cnot(&mut self, c: usize, t: usize) {
        self.for_each_row(|row| {
            let (xc, zc) = (row.get_x(c), row.get_z(c));
            let (xt, zt) = (row.get_x(t), row.get_z(t));
            row.neg ^= xc & zt & !(xt ^ zc);
            row.set_x(t, xt ^ xc);
            row.set_z(c, zc ^ zt);
        });
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        self.apply_action(b, &H);
        self.apply_cnot(a, b);
        self.apply_action(b, &H);
    }

    /// SWAP = CNOT(a,b) CNOT(b,a) CNOT(a,b) as unitaries, so the conjugated
    /// rows, signs included, are the same.
    fn apply_swap(&mut self, a: usize, b: usize) {
        self.apply_cnot(a, b);
        self.apply_cnot(b, a);
        self.apply_cnot(a, b);
    }

    /// Each factor folds its parity onto one column with a CNOT ladder,
    /// turns it by `S^k` and unfolds; the global phase `d0` is dropped.
    /// Realises what [`AmpStore::check_sweep`] accepts.
    fn apply_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    ) {
        for &(set, d0, d1) in diags {
            let cols: Vec<usize> = named(set, positions).copied().collect();
            let (Some(k), Some((&last, rest))) = (quarter_turns(d0, d1), cols.split_last()) else {
                continue;
            };
            rest.iter().for_each(|&c| self.apply_cnot(c, last));
            (0..k).for_each(|_| self.apply_action(last, &S));
            rest.iter().for_each(|&c| self.apply_cnot(c, last));
        }
        for &(a, b) in czs {
            self.apply_cz(a, b);
        }
    }

    fn check_1q(&self, controls: usize, m: &Mat2) -> Result<(), SimError> {
        check_clifford(controls, m)
    }

    fn check_sweep(&self, diags: &[SweepFactor]) -> Result<(), SimError> {
        check_clifford_sweep(diags)
    }

    /// Exactly 0, ½ or 1.
    fn parity_prob_odd(&self, qubits: &[usize]) -> f64 {
        match self.determined(&self.z_string(qubits)) {
            None => 0.5,
            Some(true) => 1.0,
            Some(false) => 0.0,
        }
    }

    /// Projects only when the outcome is random; a determined one is
    /// already the state's.
    fn collapse_parity(&mut self, qubits: &[usize], odd: bool) {
        let p = self.z_string(qubits);
        if let Some(pivot) = self.anticommuting(&p) {
            self.project(pivot, &p, odd);
        }
    }

    /// One anticommutation scan serves the read and the collapse: a
    /// determined outcome is returned as it is, a random one is `u < 0.5`.
    fn measure_parity(&mut self, qubits: &[usize], u: f64) -> bool {
        let p = self.z_string(qubits);
        let Some(pivot) = self.anticommuting(&p) else {
            return self.deterministic_outcome(&p);
        };
        let odd = u < 0.5;
        self.project(pivot, &p, odd);
        odd
    }

    /// A projection needs no rescale, so this is the collapse, then the
    /// removal.
    fn collapse_remove(&mut self, target: usize, outcome: bool) {
        self.collapse_parity(&[target], outcome);
        self.remove_qubit(target, outcome);
    }

    fn measure_and_remove(&mut self, target: usize, u: f64) -> bool {
        let outcome = self.measure_parity(&[target], u);
        self.remove_qubit(target, outcome);
        outcome
    }

    /// ±1 or 0.
    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        let mut p = Row::zero(self.words);
        for t in terms {
            p.set_x(t.qubit, t.op != Pauli::Z);
            p.set_z(t.qubit, t.op != Pauli::X);
        }
        match self.determined(&p) {
            None => 0.0,
            Some(true) => -1.0,
            Some(false) => 1.0,
        }
    }

    fn snapshot(&self, _perm: &[usize]) -> Result<State, SimError> {
        Err(no_amplitudes("dense snapshot"))
    }

    fn amplitude_of(&self, _ones: &[usize]) -> Result<Complex, SimError> {
        Err(no_amplitudes("amplitude probe"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::Gate;
    use crate::noise::NoiseModel;

    #[test]
    fn unsupported_noise_rejected_without_mutating() {
        use crate::noise::{NoiseChannel, NoiseModel};
        let model = NoiseModel::ideal().with_gate_1q(NoiseChannel::AmplitudeDamping { gamma: 0.1 });
        let mut sim = StabilizerSim::with_noise(1, model);
        let q = sim.alloc();
        assert!(matches!(
            sim.apply(Gate::X, q),
            Err(SimError::Unsupported(_))
        ));
        // The failed gate must not have landed: the qubit still reads |0>
        // and nothing was counted.
        assert_eq!(sim.prob_one(q), Ok(0.0));
        assert_eq!(sim.gate_count(), 0);
        // Classes with supported channels still work.
        let q2 = sim.alloc();
        sim.cnot(q, q2).unwrap();
        assert_eq!(sim.free(q2), Ok(false));
    }

    #[test]
    fn fresh_qubits_read_zero() {
        let mut sim = StabilizerSim::new(1);
        let q = sim.alloc();
        assert_eq!(sim.prob_one(q), Ok(0.0));
        assert_eq!(sim.measure(q), Ok(false));
        assert_eq!(sim.free(q), Ok(false));
        assert_eq!(sim.n_qubits(), 0);
    }

    #[test]
    fn x_flips_and_frees_as_one() {
        let mut sim = StabilizerSim::new(1);
        let q = sim.alloc();
        sim.apply(Gate::X, q).unwrap();
        assert_eq!(sim.prob_one(q), Ok(1.0));
        assert_eq!(sim.free(q), Ok(true));
    }

    #[test]
    fn plus_state_is_random_and_collapses() {
        let mut sim = StabilizerSim::new(3);
        let q = sim.alloc();
        sim.apply(Gate::H, q).unwrap();
        assert_eq!(sim.prob_one(q), Ok(0.5));
        assert_eq!(sim.free(q), Err(SimError::NotClassical(q)));
        let m = sim.measure(q).unwrap();
        assert_eq!(sim.prob_one(q), Ok(if m { 1.0 } else { 0.0 }));
        assert_eq!(sim.measure(q), Ok(m), "repeated measurement is stable");
    }

    #[test]
    fn epr_pair_correlations() {
        for seed in 0..20 {
            let mut sim = StabilizerSim::new(seed);
            let a = sim.alloc();
            let b = sim.alloc();
            sim.apply(Gate::H, a).unwrap();
            sim.cnot(a, b).unwrap();
            let ma = sim.measure(a).unwrap();
            let mb = sim.measure(b).unwrap();
            assert_eq!(ma, mb, "seed {seed}");
        }
    }

    #[test]
    fn bell_expectations() {
        let mut sim = StabilizerSim::new(5);
        let a = sim.alloc();
        let b = sim.alloc();
        sim.apply(Gate::H, a).unwrap();
        sim.cnot(a, b).unwrap();
        assert_eq!(sim.expectation(&[(a, Pauli::Z), (b, Pauli::Z)]), Ok(1.0));
        assert_eq!(sim.expectation(&[(a, Pauli::X), (b, Pauli::X)]), Ok(1.0));
        assert_eq!(sim.expectation(&[(a, Pauli::Y), (b, Pauli::Y)]), Ok(-1.0));
        assert_eq!(sim.expectation(&[(a, Pauli::Z)]), Ok(0.0));
    }

    #[test]
    fn minus_state_x_expectation() {
        let mut sim = StabilizerSim::new(5);
        let q = sim.alloc();
        sim.apply(Gate::X, q).unwrap();
        sim.apply(Gate::H, q).unwrap();
        assert_eq!(sim.expectation(&[(q, Pauli::X)]), Ok(-1.0));
        // S|−> has <Y> = −1.
        sim.apply(Gate::S, q).unwrap();
        assert_eq!(sim.expectation(&[(q, Pauli::Y)]), Ok(-1.0));
        sim.apply(Gate::Sdg, q).unwrap();
        assert_eq!(sim.expectation(&[(q, Pauli::X)]), Ok(-1.0));
    }

    #[test]
    fn ghz_parity_and_agreement() {
        for n in [3usize, 8, 64] {
            let mut sim = StabilizerSim::new(n as u64);
            let qs = sim.alloc_n(n);
            sim.apply(Gate::H, qs[0]).unwrap();
            for w in qs.windows(2) {
                sim.cnot(w[0], w[1]).unwrap();
            }
            // Even Z-parity without collapsing the GHZ superposition.
            assert_eq!(sim.measure_z_parity(&qs), Ok(false), "n={n}");
            let first = sim.measure(qs[0]).unwrap();
            for &q in &qs[1..] {
                assert_eq!(sim.measure(q), Ok(first), "n={n}");
            }
        }
    }

    #[test]
    fn z_parity_projects_and_persists() {
        let mut sim = StabilizerSim::new(11);
        let a = sim.alloc();
        let b = sim.alloc();
        sim.apply(Gate::H, a).unwrap();
        sim.apply(Gate::H, b).unwrap();
        let parity = sim.measure_z_parity(&[a, b]).unwrap();
        // Once projected, the joint parity is stable and matches the
        // subsequent individual outcomes.
        assert_eq!(sim.measure_z_parity(&[a, b]), Ok(parity));
        let ma = sim.measure(a).unwrap();
        let mb = sim.measure(b).unwrap();
        assert_eq!(ma ^ mb, parity);
    }

    #[test]
    fn teleportation_moves_basis_state() {
        for input in [false, true] {
            let mut sim = StabilizerSim::new(7);
            let src = sim.alloc();
            if input {
                sim.apply(Gate::X, src).unwrap();
            }
            let e1 = sim.alloc();
            let e2 = sim.alloc();
            sim.apply(Gate::H, e1).unwrap();
            sim.cnot(e1, e2).unwrap();
            sim.cnot(src, e1).unwrap();
            let mf = sim.measure_and_free(e1).unwrap();
            if mf {
                sim.apply(Gate::X, e2).unwrap();
            }
            sim.apply(Gate::H, src).unwrap();
            let mu = sim.measure_and_free(src).unwrap();
            if mu {
                sim.apply(Gate::Z, e2).unwrap();
            }
            assert_eq!(sim.prob_one(e2), Ok(if input { 1.0 } else { 0.0 }));
        }
    }

    #[test]
    fn free_compacts_positions() {
        let mut sim = StabilizerSim::new(1);
        let a = sim.alloc();
        let b = sim.alloc();
        let c = sim.alloc();
        sim.apply(Gate::X, c).unwrap();
        sim.free(b).unwrap();
        assert_eq!(sim.n_qubits(), 2);
        assert_eq!(sim.prob_one(c), Ok(1.0));
        assert_eq!(sim.prob_one(a), Ok(0.0));
        assert_eq!(sim.free(c), Ok(true));
        assert_eq!(sim.free(a), Ok(false));
    }

    #[test]
    fn free_entangled_half_preserves_partner_distribution() {
        // Measuring-and-freeing one EPR half must leave the partner in the
        // matching classical state.
        let mut sim = StabilizerSim::new(9);
        let a = sim.alloc();
        let b = sim.alloc();
        sim.apply(Gate::H, a).unwrap();
        sim.cnot(a, b).unwrap();
        let ma = sim.measure_and_free(a).unwrap();
        assert_eq!(sim.prob_one(b), Ok(if ma { 1.0 } else { 0.0 }));
    }

    #[test]
    fn non_clifford_gates_rejected() {
        let mut sim = StabilizerSim::new(1);
        let q = sim.alloc();
        assert!(matches!(
            sim.apply(Gate::T, q),
            Err(SimError::Unsupported(_))
        ));
        assert!(matches!(
            sim.apply(Gate::Rz(0.3), q),
            Err(SimError::Unsupported(_))
        ));
        let c = sim.alloc();
        assert!(matches!(
            sim.apply_controlled(&[c], Gate::S, q),
            Err(SimError::Unsupported(_))
        ));
        // The tableau is untouched by rejected gates.
        assert_eq!(sim.prob_one(q), Ok(0.0));
        // The rule is a matrix's action, not a list of gate names.
        let t = sim.alloc();
        assert!(matches!(
            sim.toffoli(c, t, q),
            Err(SimError::Unsupported(_))
        ));
        assert!(matches!(
            sim.apply_controlled(&[c], Gate::H, q),
            Err(SimError::Unsupported(_))
        ));
        sim.apply(Gate::Rz(std::f64::consts::FRAC_PI_2), q).unwrap();
        sim.apply(Gate::U(Gate::H.matrix()), q).unwrap();
        sim.apply(Gate::X, c).unwrap();
        sim.apply_controlled(&[c], Gate::Y, q).unwrap();
        // Y|+> = -i|->.
        assert_eq!(sim.expectation(&[(q, Pauli::X)]), Ok(-1.0));
    }

    #[test]
    fn unknown_qubit_rejected() {
        let mut sim = StabilizerSim::new(1);
        let q = sim.alloc();
        sim.free(q).unwrap();
        assert_eq!(sim.apply(Gate::X, q), Err(SimError::UnknownQubit(q)));
        assert_eq!(sim.measure(q), Err(SimError::UnknownQubit(q)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = StabilizerSim::new(seed);
            let qs = sim.alloc_n(6);
            for &q in &qs {
                sim.apply(Gate::H, q).unwrap();
            }
            qs.iter()
                .map(|&q| sim.measure(q).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(123), run(123));
        assert_ne!(
            run(123),
            run(124),
            "different seeds should diverge on 6 coin flips"
        );
    }

    #[test]
    fn wide_tableaus_cross_word_boundaries() {
        // 150 qubits spans three 64-bit words; chain them into one GHZ
        // state and verify parity plus agreement across the boundary.
        let mut sim = StabilizerSim::new(42);
        let qs = sim.alloc_n(150);
        sim.apply(Gate::H, qs[0]).unwrap();
        for w in qs.windows(2) {
            sim.cnot(w[0], w[1]).unwrap();
        }
        assert_eq!(sim.measure_z_parity(&qs[..2]), Ok(false));
        assert_eq!(
            sim.expectation(&[(qs[0], Pauli::Z), (qs[149], Pauli::Z)]),
            Ok(1.0)
        );
        let m0 = sim.measure(qs[0]).unwrap();
        assert_eq!(sim.measure(qs[149]), Ok(m0));
    }

    /// One seeded run over the front entry points the tableau realises —
    /// H, S, S†, Y, CNOT, CZ, SWAP, CY, fused products of four Cliffords,
    /// {S, Z}-factor sweeps with a CZ; measurements, two-qubit parities,
    /// Z⊗Z and X⊗Y expectations, measure-and-free and measure-then-free
    /// from the middle of the register, allocations up to `max_live` — as a
    /// string: `0`/`1` per outcome, `+`/`-`/`.` per expectation (rounded,
    /// so dense rounding reads as the tableau's exact ±1 or 0), `f`/`t` per
    /// free.
    fn transcript<S: AmpStore + Default>(seed: u64, noise: NoiseModel, max_live: usize) -> String {
        let mut sim = AmpSim::<S>::with_noise(seed, noise);
        let mut live = sim.alloc_n(9);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let bit = |b: bool| if b { '1' } else { '0' };
        let sign = |e: f64| match e.round() as i64 {
            1 => '+',
            -1 => '-',
            _ => '.',
        };
        let cliffords = [Gate::H, Gate::S, Gate::Sdg, Gate::X, Gate::Y, Gate::Z];
        let mut out = String::new();
        for _ in 0..300 {
            let n = live.len();
            let (a, b) = (next(n), next(n));
            let (qa, qb) = (live[a], live[b]);
            match next(16) {
                0 | 1 => sim.apply(Gate::H, qa).unwrap(),
                2 => sim.apply(Gate::S, qa).unwrap(),
                3 if a != b => sim.cnot(qa, qb).unwrap(),
                4 if a != b => sim.cz(qa, qb).unwrap(),
                5 if a != b => sim.swap(qa, qb).unwrap(),
                6 => out.push(bit(sim.measure(qa).unwrap())),
                7 if n > 4 => {
                    live.remove(a);
                    out.push(bit(sim.measure_and_free(qa).unwrap()));
                }
                8 if n > 4 => {
                    live.remove(a);
                    out.push(bit(sim.measure(qa).unwrap()));
                    out.push(if sim.free(qa).unwrap() { 't' } else { 'f' });
                }
                9 if n + 3 <= max_live => live.extend(sim.alloc_n(1 + next(3))),
                10 => sim.apply([Gate::Sdg, Gate::Y][next(2)], qa).unwrap(),
                11 if a != b => sim.apply_controlled(&[qa], Gate::Y, qb).unwrap(),
                12 => {
                    let m = (0..3).fold(Gate::X.matrix(), |m, _| {
                        matmul2(&cliffords[next(6)].matrix(), &m)
                    });
                    sim.apply_fused_1q(qa, &m).unwrap();
                }
                13 if a != b => {
                    let turn = |k: usize| [C_I, -C_ONE][k];
                    let diags = [
                        (1 + next(3) as u64, C_ONE, turn(next(2))),
                        (1 + next(3) as u64, C_ONE, turn(next(2))),
                    ];
                    sim.apply_phase_sweep(&[qa, qb], &diags, &[(qa, qb)])
                        .unwrap();
                }
                14 if a != b => out.push(bit(sim.measure_z_parity(&[qa, qb]).unwrap())),
                _ if a != b => {
                    let (pa, pb) = [(Pauli::Z, Pauli::Z), (Pauli::X, Pauli::Y)][next(2)];
                    out.push(sign(sim.expectation(&[(qa, pa), (qb, pb)]).unwrap()));
                }
                _ => {}
            }
        }
        for q in live {
            out.push(bit(sim.measure_and_free(q).unwrap()));
        }
        out
    }

    /// The tableau against the dense store through the one front: the same
    /// seed draws the same noise and the same uniform per measurement, and
    /// a random outcome is `u < 0.5` on the tableau and `u < p` with `p`
    /// within rounding of 0.5 on the dense store, so every outcome, free,
    /// parity and rounded expectation agrees (a draw within dense rounding
    /// of 0.5 could split them; none of these seeds has one).
    #[test]
    fn matches_state_vector_on_random_clifford_circuits() {
        for seed in 0..150u64 {
            for noise in [NoiseModel::ideal(), NoiseModel::depolarizing(0.05)] {
                assert_eq!(
                    transcript::<Tableau>(seed, noise, 12),
                    transcript::<State>(seed, noise, 12),
                    "seed {seed} under {noise:?}"
                );
            }
        }
    }

    /// Frees from the middle of the register compact the tableau, and the
    /// outcomes per seed do not depend on the column order that leaves.
    /// Pinned: a change to the front's draws or to the row order shows
    /// here.
    #[test]
    fn seeded_transcripts_with_middle_frees_are_pinned() {
        let want = [
            "00.00f1.0f1.0.0f+1.1t000f00f010f00.1.110.100.0f00f.100000.111..0f0010f01t00f001t.0f0f1.1101t1t010101010100",
            "00.00f1.0f1.0.0f+1.1t000f00f110f00.1.110.100.0f00f.100000.111..1t0010f01t00f001t.0f0f1.1101t1t010101010100",
            "00000000.0.0000000010000f0.010.1100.10f0f1t0f0100..+100f0-10.11010f1t0f0f0000f1t00000.01000f..0+0.+100f01t0f.00f001110100000",
            "00000000.0.0000000010000f0.110.1101.10f0f1t0f0100..+100f0+10.11010f1t0f0f0000f1t10000.01000f..0+0.+101t01t0f.00f001110100000",
            "00000f1010f00f+0f0f0f0000.1t0f0010f10f01..1-..00000111.0f100.0......+000+0.....011.-.0..0+0f00.011001t00f..11+00.0f.100000010000",
            "00001t1001t00f+0f0f0f1110.1t0f0010f11t01..1+..01010111.1t100.0......+000-0.....011.+.0..1-1t11.111000f10f..11-00.0f.101000010011",
            "0f00.0f10f1t0010f.0.01001t1t-10f-0f0010f-0f000..0010.00f.0f0f1.101t1.00100f010100..11.111+000+010.110f00011000111000110",
            "1t00.0f10f1t0010f.1.01001t1t-10f-1t0110f+0f000..0010.10f.0f0f1.101t1.00110f010100..10.011-010+010.010f00011010011000100",
        ];
        let mut want = want.iter();
        for seed in 0..4u64 {
            for noise in [NoiseModel::ideal(), NoiseModel::depolarizing(0.05)] {
                assert_eq!(
                    transcript::<Tableau>(seed, noise, 70),
                    *want.next().unwrap(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn removing_a_column_shifts_the_ones_above_across_words() {
        let mut row = Row::zero(3);
        for col in [3, 63, 64, 100, 130] {
            row.set_x(col, true);
            row.set_z(col + 1, true);
        }
        row.remove_col(5);
        let cols = |get: &dyn Fn(usize) -> bool| (0..192).filter(|&c| get(c)).collect::<Vec<_>>();
        assert_eq!(cols(&|c| row.get_x(c)), [3, 62, 63, 99, 129]);
        assert_eq!(cols(&|c| row.get_z(c)), [4, 63, 64, 100, 130]);
        row.remove_col(3);
        assert_eq!(cols(&|c| row.get_x(c)), [61, 62, 98, 128]);
    }
}
