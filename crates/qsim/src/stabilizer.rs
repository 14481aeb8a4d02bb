//! CHP-style stabilizer-tableau simulator (Aaronson & Gottesman,
//! arXiv:quant-ph/0406196).
//!
//! Every QMPI communication primitive — EPR establishment, entangled copy,
//! teleportation, cat-state fanout, parity reduction — is pure Clifford, so
//! a tableau simulator executes the paper's protocols in polynomial time and
//! memory where the dense state vector of [`crate::Simulator`] caps out near
//! 25 qubits. This engine backs the `Stabilizer` QMPI backend, which scales
//! the protocol suite to thousands of ranks.
//!
//! The tableau keeps `n` destabilizer and `n` stabilizer generators as
//! bit-packed X/Z rows plus a sign. Supported gates: Pauli X/Y/Z, H, S, S†,
//! CNOT, CZ, SWAP. Non-Clifford gates (T, rotations, arbitrary unitaries)
//! return [`SimError::Unsupported`]. Measurement follows the standard CHP
//! procedure; joint Z-parity measurement and Pauli-string expectations use
//! its textbook generalization to arbitrary Pauli operators.
//!
//! Qubit handles are stable [`QubitId`]s with dynamic allocate/free, matching
//! the [`crate::Simulator`] surface so the two engines are interchangeable
//! behind the QMPI backend trait.

use crate::gates::{Gate, Pauli};
use crate::noise::{ChannelAction, NoiseModel, NoiseState, OpClass};
use crate::registry::QubitRegistry;
use crate::sim::{QubitId, SimError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Stabilizer-tableau simulator with dynamic qubit allocation.
pub struct StabilizerSim {
    words: usize,
    destab: Vec<Row>,
    stab: Vec<Row>,
    reg: QubitRegistry,
    rng: StdRng,
    noise: NoiseState,
    gate_count: u64,
    measurement_count: u64,
}

impl StabilizerSim {
    /// Creates an empty, noiseless simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        StabilizerSim::with_noise(seed, NoiseModel::ideal())
    }

    /// Creates an empty simulator with a deterministic RNG seed and a noise
    /// model. Only the Clifford-compatible Pauli channels (depolarizing,
    /// dephasing) can run on the tableau; an operation whose channel is
    /// amplitude damping surfaces [`SimError::Unsupported`].
    pub fn with_noise(seed: u64, model: NoiseModel) -> Self {
        StabilizerSim {
            words: 0,
            destab: Vec::new(),
            stab: Vec::new(),
            reg: QubitRegistry::new(),
            rng: StdRng::seed_from_u64(seed),
            noise: NoiseState::new(seed, model),
            gate_count: 0,
            measurement_count: 0,
        }
    }

    /// The configured noise model.
    pub fn noise_model(&self) -> NoiseModel {
        self.noise.model
    }

    /// Number of currently allocated qubits.
    pub fn n_qubits(&self) -> usize {
        self.reg.len()
    }

    /// Total gates applied so far.
    pub fn gate_count(&self) -> u64 {
        self.gate_count
    }

    /// Total measurements performed so far.
    pub fn measurement_count(&self) -> u64 {
        self.measurement_count
    }

    fn pos(&self, q: QubitId) -> Result<usize, SimError> {
        self.reg.pos(q)
    }

    /// Allocates one fresh qubit in |0>.
    pub fn alloc(&mut self) -> QubitId {
        let col = self.n_qubits();
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
        self.reg.push(col)
    }

    /// Allocates `n` fresh qubits in |0>.
    pub fn alloc_n(&mut self, n: usize) -> Vec<QubitId> {
        (0..n).map(|_| self.alloc()).collect()
    }

    fn for_each_row(&mut self, mut f: impl FnMut(&mut Row)) {
        for row in self.destab.iter_mut().chain(self.stab.iter_mut()) {
            f(row);
        }
    }

    fn apply_h(&mut self, j: usize) {
        self.for_each_row(|row| {
            let (x, z) = (row.get_x(j), row.get_z(j));
            row.neg ^= x & z;
            row.set_x(j, z);
            row.set_z(j, x);
        });
    }

    fn apply_s(&mut self, j: usize) {
        self.for_each_row(|row| {
            let (x, z) = (row.get_x(j), row.get_z(j));
            row.neg ^= x & z;
            row.set_z(j, z ^ x);
        });
    }

    fn apply_cnot_cols(&mut self, c: usize, t: usize) {
        self.for_each_row(|row| {
            let (xc, zc) = (row.get_x(c), row.get_z(c));
            let (xt, zt) = (row.get_x(t), row.get_z(t));
            row.neg ^= xc & zt & !(xt ^ zc);
            row.set_x(t, xt ^ xc);
            row.set_z(c, zc ^ zt);
        });
    }

    /// Applies one Pauli to column `j` without touching the gate counter —
    /// the tableau realization of a sampled noise insertion.
    fn inject_pauli(&mut self, j: usize, p: Pauli) {
        match p {
            Pauli::X => self.for_each_row(|row| row.neg ^= row.get_z(j)),
            Pauli::Y => self.for_each_row(|row| row.neg ^= row.get_x(j) ^ row.get_z(j)),
            Pauli::Z => self.for_each_row(|row| row.neg ^= row.get_x(j)),
        }
    }

    /// Errors when the `class` channel cannot run on the tableau. Gate and
    /// measurement methods call this *before* mutating anything, so an
    /// unsupported-noise error leaves the simulator state untouched.
    fn check_noise(&self, class: OpClass) -> Result<(), SimError> {
        let ch = self.noise.model.channel(class);
        if ch.is_clifford() {
            Ok(())
        } else {
            Err(SimError::Unsupported(format!(
                "noise channel {ch} is not Clifford; the stabilizer backend supports \
                 depolarizing/dephasing noise only"
            )))
        }
    }

    /// Samples and applies the `class` channel to each listed column. Only
    /// Pauli channels are Clifford; amplitude damping is rejected (callers
    /// pre-check via [`Self::check_noise`] so the gate itself never lands).
    fn inject(&mut self, class: OpClass, cols: &[usize]) -> Result<(), SimError> {
        let ch = self.noise.model.channel(class);
        if ch.is_ideal() {
            return Ok(());
        }
        self.check_noise(class)?;
        for &j in cols {
            // Pauli channels never query the |1> probability.
            let action = ch.sample(|| 0.0, &mut self.noise.rng);
            match action {
                ChannelAction::Nothing => {}
                ChannelAction::Pauli(p) => self.inject_pauli(j, p),
                ChannelAction::Kraus(_) => unreachable!("non-Clifford channels rejected above"),
            }
        }
        Ok(())
    }

    /// Applies a single-qubit gate; non-Clifford gates are rejected.
    pub fn apply(&mut self, gate: Gate, q: QubitId) -> Result<(), SimError> {
        self.check_noise(OpClass::Gate1q)?;
        let j = self.pos(q)?;
        match gate {
            Gate::X => self.for_each_row(|row| row.neg ^= row.get_z(j)),
            Gate::Y => self.for_each_row(|row| row.neg ^= row.get_x(j) ^ row.get_z(j)),
            Gate::Z => self.for_each_row(|row| row.neg ^= row.get_x(j)),
            Gate::H => self.apply_h(j),
            Gate::S => self.apply_s(j),
            Gate::Sdg => {
                // S† = Z · S (diagonal gates commute).
                self.for_each_row(|row| row.neg ^= row.get_x(j));
                self.apply_s(j);
            }
            other => {
                return Err(SimError::Unsupported(format!(
                    "gate {other:?} is not Clifford; the stabilizer backend supports X/Y/Z/H/S/Sdg/CNOT/CZ/SWAP"
                )));
            }
        }
        self.gate_count += 1;
        self.inject(OpClass::Gate1q, &[j])
    }

    /// CNOT with `control`, `target`.
    pub fn cnot(&mut self, control: QubitId, target: QubitId) -> Result<(), SimError> {
        self.check_noise(OpClass::Gate2q)?;
        if control == target {
            return Err(SimError::DuplicateQubit(control));
        }
        let c = self.pos(control)?;
        let t = self.pos(target)?;
        self.apply_cnot_cols(c, t);
        self.gate_count += 1;
        self.inject(OpClass::Gate2q, &[c, t])
    }

    /// Controlled-Z (symmetric).
    pub fn cz(&mut self, a: QubitId, b: QubitId) -> Result<(), SimError> {
        self.check_noise(OpClass::Gate2q)?;
        if a == b {
            return Err(SimError::DuplicateQubit(a));
        }
        let pa = self.pos(a)?;
        let pb = self.pos(b)?;
        self.apply_h(pb);
        self.apply_cnot_cols(pa, pb);
        self.apply_h(pb);
        self.gate_count += 1;
        self.inject(OpClass::Gate2q, &[pa, pb])
    }

    /// SWAP two qubits.
    pub fn swap(&mut self, a: QubitId, b: QubitId) -> Result<(), SimError> {
        self.check_noise(OpClass::Gate2q)?;
        if a == b {
            return Ok(());
        }
        let pa = self.pos(a)?;
        let pb = self.pos(b)?;
        // SWAP = CNOT(a,b) CNOT(b,a) CNOT(a,b) as unitaries, so the
        // conjugated rows, signs included, are the same.
        self.apply_cnot_cols(pa, pb);
        self.apply_cnot_cols(pb, pa);
        self.apply_cnot_cols(pa, pb);
        self.gate_count += 1;
        self.inject(OpClass::Gate2q, &[pa, pb])
    }

    /// Controlled single-qubit gate. Only single-controlled X and Z are
    /// Clifford; everything else is rejected.
    pub fn apply_controlled(
        &mut self,
        controls: &[QubitId],
        gate: Gate,
        target: QubitId,
    ) -> Result<(), SimError> {
        for &c in controls {
            if c == target {
                return Err(SimError::DuplicateQubit(c));
            }
        }
        match (controls, gate) {
            ([c], Gate::X) => self.cnot(*c, target),
            ([c], Gate::Z) => self.cz(*c, target),
            _ => Err(SimError::Unsupported(format!(
                "controlled {gate:?} with {} controls is not Clifford",
                controls.len()
            ))),
        }
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
        for i in (0..self.n_qubits()).filter(|&i| i != pivot) {
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

    /// Measures the Pauli operator `p`, collapsing when the outcome is
    /// random. Returns `true` for the −1 eigenvalue.
    fn measure_pauli(&mut self, p: &Row) -> bool {
        self.measurement_count += 1;
        let Some(pivot) = self.anticommuting(p) else {
            return self.deterministic_outcome(p);
        };
        let outcome = self.rng.gen_bool(0.5);
        self.project(pivot, p, outcome);
        outcome
    }

    /// Outcome of measuring `p` when it commutes with every stabilizer
    /// (so ±`p` is in the stabilizer group and the outcome is determined).
    fn deterministic_outcome(&self, p: &Row) -> bool {
        let mut scratch = Row::zero(self.words);
        for i in 0..self.n_qubits() {
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

    /// Projective Z measurement with collapse:
    /// [`StabilizerSim::measure_z_parity`] over `q` alone. The measurement
    /// channel of a configured noise model is applied before projection
    /// (readout error).
    pub fn measure(&mut self, q: QubitId) -> Result<bool, SimError> {
        self.measure_z_parity(&[q])
    }

    /// Joint Z-parity measurement over `qubits` (collapses onto the parity
    /// subspace without collapsing individual qubits).
    pub fn measure_z_parity(&mut self, qubits: &[QubitId]) -> Result<bool, SimError> {
        let mut cols = Vec::with_capacity(qubits.len());
        for &q in qubits {
            let j = self.pos(q)?;
            if cols.contains(&j) {
                return Err(SimError::DuplicateQubit(q));
            }
            cols.push(j);
        }
        self.inject(OpClass::Measurement, &cols)?;
        let p = self.z_string(&cols);
        Ok(self.measure_pauli(&p))
    }

    /// Probability of measuring 1: exactly 0, 1, or 1/2 for stabilizer
    /// states.
    pub fn prob_one(&self, q: QubitId) -> Result<f64, SimError> {
        let j = self.pos(q)?;
        let p = self.z_string(&[j]);
        if self.anticommuting(&p).is_some() {
            Ok(0.5)
        } else if self.deterministic_outcome(&p) {
            Ok(1.0)
        } else {
            Ok(0.0)
        }
    }

    /// Expectation value of a Pauli string: −1, 0, or +1 on a stabilizer
    /// state.
    pub fn expectation(&self, terms: &[(QubitId, Pauli)]) -> Result<f64, SimError> {
        let mut p = Row::zero(self.words);
        for &(q, op) in terms {
            let j = self.pos(q)?;
            if p.get_x(j) || p.get_z(j) {
                return Err(SimError::DuplicateQubit(q));
            }
            match op {
                Pauli::X => p.set_x(j, true),
                Pauli::Y => {
                    p.set_x(j, true);
                    p.set_z(j, true);
                }
                Pauli::Z => p.set_z(j, true),
            }
        }
        if self.anticommuting(&p).is_some() {
            return Ok(0.0);
        }
        Ok(if self.deterministic_outcome(&p) {
            -1.0
        } else {
            1.0
        })
    }

    /// Removes a qubit that is in a product Z-basis state. The tableau is
    /// restructured so one stabilizer generator is exactly `+Z_j`, which
    /// leaves every other row with `x[j] = 0`: qubit `j` is then a product
    /// factor, and its row pair and column are deleted.
    fn remove_classical_qubit(&mut self, q: QubitId, j: usize) {
        // Put the qubit in an X eigenstate so the Z measurement below is
        // guaranteed to take the random branch; project onto its |0> branch.
        self.apply_h(j);
        let p = self.z_string(&[j]);
        let pivot = self
            .anticommuting(&p)
            .expect("an X-eigenstate qubit must have an anticommuting stabilizer");
        self.project(pivot, &p, false);
        // Compact: drop column j (any `z[j]` left in another row only
        // multiplies it by the +Z_j stabilizer), shifting the columns above
        // it down as the registry shifts their handles; then the pivot row
        // pair.
        self.for_each_row(|row| row.remove_col(j));
        self.reg.remove(q, j);
        self.destab.remove(pivot);
        self.stab.remove(pivot);
    }

    /// Frees a qubit that is already in a classical state, returning its
    /// value; errors with [`SimError::NotClassical`] otherwise.
    pub fn free(&mut self, q: QubitId) -> Result<bool, SimError> {
        let j = self.pos(q)?;
        let p = self.z_string(&[j]);
        if self.anticommuting(&p).is_some() {
            return Err(SimError::NotClassical(q));
        }
        let outcome = self.deterministic_outcome(&p);
        self.remove_classical_qubit(q, j);
        Ok(outcome)
    }

    /// Measures a qubit and frees it in one step.
    pub fn measure_and_free(&mut self, q: QubitId) -> Result<bool, SimError> {
        let outcome = self.measure(q)?;
        let j = self.pos(q)?;
        self.remove_classical_qubit(q, j);
        Ok(outcome)
    }

    /// Entangles two fresh |0> qubits into (|00> + |11>)/sqrt(2), modeling
    /// the quantum-coherent interconnect. Counted as the H + CNOT it stands
    /// for; a configured EPR noise channel is applied to *each half* after
    /// entangling (see [`OpClass::Epr`]).
    pub fn entangle_epr(&mut self, qa: QubitId, qb: QubitId) -> Result<(), SimError> {
        self.check_noise(OpClass::Epr)?;
        if qa == qb {
            return Err(SimError::DuplicateQubit(qa));
        }
        let pa = self.pos(qa)?;
        let pb = self.pos(qb)?;
        self.apply_h(pa);
        self.apply_cnot_cols(pa, pb);
        self.gate_count += 2;
        self.inject(OpClass::Epr, &[pa, pb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Cross-validation against the dense state-vector simulator on random
    /// Clifford circuits: all single-qubit probabilities and pairwise ZZ
    /// expectations must agree exactly.
    #[test]
    fn matches_state_vector_on_random_clifford_circuits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: usize = 5;
        for seed in 0..25u64 {
            let mut driver = StdRng::seed_from_u64(seed ^ 0xC11F_F0D5);
            let mut tab = StabilizerSim::new(seed);
            let mut vec = crate::Simulator::new(seed);
            let tq = tab.alloc_n(N);
            let vq = vec.alloc_n(N);
            for _ in 0..40 {
                match driver.gen_range(0..6u64) {
                    0..=3 => {
                        let g = [Gate::H, Gate::S, Gate::X, Gate::Z][driver.gen_range(0..4usize)];
                        let t = driver.gen_range(0..N);
                        tab.apply(g, tq[t]).unwrap();
                        vec.apply(g, vq[t]).unwrap();
                    }
                    4 => {
                        let c = driver.gen_range(0..N);
                        let t = driver.gen_range(0..N);
                        if c != t {
                            tab.cnot(tq[c], tq[t]).unwrap();
                            vec.cnot(vq[c], vq[t]).unwrap();
                        }
                    }
                    _ => {
                        let a = driver.gen_range(0..N);
                        let b = driver.gen_range(0..N);
                        if a != b {
                            tab.cz(tq[a], tq[b]).unwrap();
                            vec.cz(vq[a], vq[b]).unwrap();
                        }
                    }
                }
            }
            for i in 0..N {
                let pt = tab.prob_one(tq[i]).unwrap();
                let pv = vec.prob_one(vq[i]).unwrap();
                assert!(
                    (pt - pv).abs() < 1e-9,
                    "seed {seed} qubit {i}: {pt} vs {pv}"
                );
            }
            for i in 0..N {
                for j in (i + 1)..N {
                    let et = tab
                        .expectation(&[(tq[i], Pauli::Z), (tq[j], Pauli::Z)])
                        .unwrap();
                    let ev = vec
                        .expectation(&[(vq[i], Pauli::Z), (vq[j], Pauli::Z)])
                        .unwrap();
                    assert!(
                        (et - ev).abs() < 1e-9,
                        "seed {seed} ZZ({i},{j}): {et} vs {ev}"
                    );
                }
            }
        }
    }

    /// One seeded run that allocates, entangles, measures and frees qubits
    /// from the middle of the register, as a string: `0`/`1` per
    /// measurement, `+`/`-`/`.` per Z⊗Z expectation, `f`/`t` per free.
    fn transcript(seed: u64, noise: NoiseModel) -> String {
        let mut sim = StabilizerSim::with_noise(seed, noise);
        let mut live = sim.alloc_n(9);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let bit = |b: bool| if b { '1' } else { '0' };
        let mut out = String::new();
        for _ in 0..300 {
            let n = live.len();
            let (a, b) = (next(n), next(n));
            match next(10) {
                0 | 1 => sim.apply(Gate::H, live[a]).unwrap(),
                2 => sim.apply(Gate::S, live[a]).unwrap(),
                3 if a != b => sim.cnot(live[a], live[b]).unwrap(),
                4 if a != b => sim.cz(live[a], live[b]).unwrap(),
                5 if a != b => sim.swap(live[a], live[b]).unwrap(),
                6 => out.push(bit(sim.measure(live[a]).unwrap())),
                7 if n > 4 => {
                    let q = live.remove(a);
                    out.push(bit(sim.measure_and_free(q).unwrap()));
                }
                8 if n > 4 => {
                    let q = live.remove(a);
                    out.push(bit(sim.measure(q).unwrap()));
                    out.push(if sim.free(q).unwrap() { 't' } else { 'f' });
                }
                9 if n < 70 => live.extend(sim.alloc_n(1 + next(3))),
                _ if a != b => {
                    let e = sim
                        .expectation(&[(live[a], Pauli::Z), (live[b], Pauli::Z)])
                        .unwrap();
                    out.push(match e as i64 {
                        1 => '+',
                        -1 => '-',
                        _ => '.',
                    });
                }
                _ => {}
            }
        }
        for q in live {
            out.push(bit(sim.measure_and_free(q).unwrap()));
        }
        out
    }

    /// Frees from the middle of the register compact the tableau, and the
    /// outcomes per seed do not depend on the column order that leaves.
    /// Pinned: a change to where or how often `gen_bool` draws, or to the
    /// row order, shows here.
    #[test]
    fn seeded_transcripts_with_middle_frees_are_pinned() {
        let want = [
            "00f0f000f000000f01010...1+00f0f1t00..0...0f0f1t0010-1..0.01101t000f11t001t0f+0f0f01t0f00f01t00f1t0000f00f000f.0100",
            "00f0f000f000000f01010...1-00f0f1t00..0...0f0f1t1011-1..0.01101t000f11t001t1t+0f0f01t0f00f01t00f1t0001t00f011t.1100",
            "0000f0f000f0.00f000f0f1000f000111010010f0f0f0000f00f00f000000f00f00000f0f0f0000f0f00f01101t0f00010010f1111101110010001001",
            "0000f0f000f0.00f000f0f1000f001111000000f0f0f0000f00f00f000010f00f01100f0f0f1010f1t10f01000f0f01010010f1111101011010001001",
            "0101t0f0f0000+000000f00f000f10f0101000f00000000f00f000f0f0000f00f1t0f0000f00f1t00000f01100000f0000011110000000010000101100100100",
            "0101t0f0f0100+000000f00f000f10f0101000f00010000f11t000f0f0000f00f1t0f0000f00f1t00000f01110000f0010011110001101010000001100000100",
            "0f00f0f0f0.00f0f000f0010f00f00110f1+.0f00.11t1001-..+-+01t00f100f0f00f0f00f00f000f0101000101t100000f0f00000100000000000010",
            "0f00f0f0f0.10f0f000f0010f00f11110f1+.0f00.11t1000+..+++00f00f100f0f00f1t00f00f001t0101100111t100010f0f00000100000000000010",
        ];
        let mut want = want.iter();
        for seed in 0..4u64 {
            for noise in [NoiseModel::ideal(), NoiseModel::depolarizing(0.05)] {
                assert_eq!(
                    transcript(seed, noise),
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
