//! The simulator front: stable qubit handles over a dynamic amplitude store.
//!
//! This is the component the paper's prototype runs on rank 0 ("all ranks
//! forward quantum operations to rank 0, which then applies the operation to
//! the state vector"). Qubits are identified by stable [`QubitId`]s; the
//! front maintains the id -> store-position mapping across allocations and
//! deallocations, validates operands, counts operations, draws noise and
//! measurement randomness in a fixed order, and hands *positions* to an
//! [`AmpStore`], which holds the amplitudes and does the arithmetic.
//!
//! The front is written once, generic over the store: [`Simulator`] runs it
//! over the dense [`State`], [`SparseSim`] over the [`SparseState`] map,
//! [`crate::StabilizerSim`] over the CHP [`crate::Tableau`], and `qmpi`'s
//! engines also over the process-separated engine's worker-backed store and
//! the amplitude-free [`crate::trace::TraceState`].
//! All therefore seed and draw their RNG streams identically — the noise
//! stream before the measurement stream, one draw per touched position in
//! operand order, one uniform per measurement — which is what makes the
//! engines line up draw for draw (see [`crate::sparse`] for the rule their
//! amplitudes agree under, and [`crate::stabilizer`] for the tableau's). A
//! store that realises only some ops (the tableau) refuses the rest through
//! [`AmpStore::check_1q`] and [`AmpStore::check_sweep`], which the front asks
//! before it counts, draws or touches anything.

use crate::batch::{sweep_positions, SweepFactor};
use crate::complex::Complex;
use crate::gates::{Gate, Mat2, Pauli};
use crate::measure::PauliTerm;
use crate::noise::{ChannelAction, NoiseModel, NoiseState, OpClass};
use crate::registry::{classical_outcome, QubitRegistry};
use crate::sparse::SparseState;
use crate::state::State;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stable handle to an allocated qubit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QubitId(pub u64);

/// Errors reported by the simulator facade.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The qubit id is not currently allocated.
    UnknownQubit(QubitId),
    /// A multi-qubit operation was given duplicate qubits.
    DuplicateQubit(QubitId),
    /// `free` was called on a qubit still in superposition/entangled.
    NotClassical(QubitId),
    /// A snapshot order omits this live qubit.
    MissingQubit(QubitId),
    /// The operation is outside this engine's supported set (e.g. a
    /// non-Clifford gate on the stabilizer tableau, or a state-vector
    /// snapshot from an engine that tracks no amplitudes).
    Unsupported(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownQubit(q) => write!(f, "qubit {q:?} is not allocated"),
            SimError::DuplicateQubit(q) => write!(f, "duplicate qubit {q:?} in operation"),
            SimError::NotClassical(q) => {
                write!(
                    f,
                    "qubit {q:?} is not in a classical state; measure it before freeing"
                )
            }
            SimError::MissingQubit(q) => {
                write!(f, "live qubit {q:?} is missing from the snapshot order")
            }
            SimError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Amplitude storage under the simulator front: a register of qubits
/// addressed by *position* (bit index of the basis state), no handles, no
/// counters, no randomness. The trait hides the storage format — a dense
/// `2^n` vector ([`State`]) or a map of the nonzero entries ([`SparseState`]),
/// or stripes held by other processes (`qmpi`'s remote store, which queues
/// whatever needs no reply and ships the queue with the next read) —
/// and every implementation evaluates the same floating-point expressions
/// per amplitude and sums them exactly ([`crate::stripe::ExactSum`]), so the
/// front's results do not depend on which one it runs over (up to the
/// sparse canonical rule). Two stores hold no
/// amplitudes: [`crate::trace::TraceState`] holds the register width alone
/// and reads every qubit as |0>, so the front over it only counts, and
/// [`crate::Tableau`] holds stabilizer generators, whose probabilities and
/// expectations are exact.
pub trait AmpStore {
    /// Appends a fresh qubit in |0> as the new most-significant position and
    /// returns that position. Existing positions are stable.
    fn add_qubit(&mut self) -> usize;

    /// Removes position `target`, which must already be collapsed to the
    /// classical value `outcome` (all amplitude mass on that branch, up to
    /// [`crate::state::NORM_TOL`]); positions above `target` shift down by
    /// one. What is kept is rescaled as [`AmpStore::collapse_remove`]
    /// rescales it.
    fn remove_qubit(&mut self, target: usize, outcome: bool);

    /// Applies the 2×2 matrix `m` to `target` on the basis states where
    /// every position in `controls` reads 1 (no controls: everywhere).
    fn apply_1q(&mut self, controls: &[usize], target: usize, m: &Mat2);

    /// CNOT: flips `target` where `control` reads 1. A pure permutation.
    fn apply_cnot(&mut self, control: usize, target: usize);

    /// CZ: phase −1 where both positions read 1 (symmetric).
    fn apply_cz(&mut self, a: usize, b: usize);

    /// SWAP of two distinct positions. A pure permutation.
    fn apply_swap(&mut self, a: usize, b: usize);

    /// One-pass diagonal sweep. Bit `i` of a `(set, d0, d1)` factor's set
    /// names `positions[i]`; per amplitude, each factor selects `d1` where
    /// an odd number of its positions read 1, else `d0`, the selected
    /// factors are multiplied together **in slice order**, the amplitude is
    /// multiplied by that product, and it is then negated when an odd
    /// number of `czs` pairs read 1 on both positions.
    fn apply_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    );

    /// Whether the store realises the 2×2 matrix `m` under `controls`
    /// controls. The front asks before it counts, draws or touches the
    /// store — for an op's matrix and for every matrix its class's noise
    /// channel can apply ([`crate::noise::NoiseChannel::actions`]) — so
    /// `apply_1q` never sees what this refuses. Every amplitude store
    /// realises everything; [`crate::stabilizer::Tableau`] only Cliffords.
    fn check_1q(&self, _controls: usize, _m: &Mat2) -> Result<(), SimError> {
        Ok(())
    }

    /// [`AmpStore::check_1q`] for the factors of a phase sweep, asked before
    /// [`AmpStore::apply_phase_sweep`].
    fn check_sweep(&self, _diags: &[SweepFactor]) -> Result<(), SimError> {
        Ok(())
    }

    /// Probability mass of the basis states with odd parity over `qubits`.
    /// Over one position it is the probability that measuring it yields 1:
    /// a single-qubit Z measurement is the one-position parity measurement.
    fn parity_prob_odd(&self, qubits: &[usize]) -> f64;

    /// Projects onto the odd (`true`) or even parity subspace over `qubits`
    /// and rescales it by `1/√m`, `m` its mass; over one position, collapses
    /// it onto the outcome. Panics when the kept subspace has no
    /// probability.
    fn collapse_parity(&mut self, qubits: &[usize], odd: bool);

    /// Measure and free, after the draw: keeps the `outcome` branch of
    /// `target`, rescaled once by `1/√m` (`m` that branch's mass, an exact
    /// sum: [`crate::stripe::renormalizer`]), and removes the position, as
    /// [`AmpStore::remove_qubit`] does without its check that the other
    /// branch is empty. Panics when the branch has no probability.
    fn collapse_remove(&mut self, target: usize, outcome: bool);

    /// Measures `target` against the uniform draw `u`, as
    /// [`AmpStore::measure_parity`] over it alone does, then removes it
    /// (measure and free), as [`AmpStore::collapse_remove`] removes it.
    fn measure_and_remove(&mut self, target: usize, u: f64) -> bool {
        let outcome = u < self.parity_prob_odd(&[target]);
        self.collapse_remove(target, outcome);
        outcome
    }

    /// Joint Z-parity measurement against the uniform draw `u`: the outcome
    /// is `u < parity_prob_odd(qubits)`, and the state is projected onto it.
    /// A store overrides it only to read the probability and collapse in
    /// fewer round trips, to the same bits.
    fn measure_parity(&mut self, qubits: &[usize], u: f64) -> bool {
        let outcome = u < self.parity_prob_odd(qubits);
        self.collapse_parity(qubits, outcome);
        outcome
    }

    /// Expectation value `<psi| P |psi>` of a Pauli string over positions.
    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64;

    /// [`AmpStore::expectation_pauli`] of each string, to the same bits; a
    /// store overrides it only to make fewer passes over its amplitudes
    /// (the dense store reads every Z-only string in one sweep).
    fn expectation_pauli_each(&self, strings: &[Vec<PauliTerm>]) -> Vec<f64> {
        strings.iter().map(|t| self.expectation_pauli(t)).collect()
    }

    /// Dense snapshot in which old position `perm[k]` becomes position `k`
    /// (see [`State::permuted`]), or [`SimError::Unsupported`] when the
    /// register is too wide to materialize.
    fn snapshot(&self, perm: &[usize]) -> Result<State, SimError>;

    /// The amplitude of the basis state where the positions in `ones` read
    /// 1 and every other position reads 0, or [`SimError::Unsupported`]
    /// from a store that holds no amplitudes.
    fn amplitude_of(&self, ones: &[usize]) -> Result<Complex, SimError>;
}

/// Simulator with dynamic qubit allocation over the store `S`:
/// [`Simulator`], [`SparseSim`], [`crate::StabilizerSim`], or
/// [`AmpSim::over`] any other [`AmpStore`].
pub struct AmpSim<S> {
    state: S,
    reg: QubitRegistry,
    rng: StdRng,
    noise: NoiseState,
    /// Probability that no noise event has fired so far (1.0 when ideal).
    error_free: f64,
    gate_count: u64,
    measurement_count: u64,
}

/// The dense state-vector simulator: `2^n` amplitudes, exact for arbitrary
/// gates, exponential in the live qubit count.
pub type Simulator = AmpSim<State>;

/// The sparse full-state simulator: only nonzero amplitudes are stored, so
/// structured states stay cheap at hundreds of qubits. Bit-identical to
/// [`Simulator`] under the canonical rule documented in [`crate::sparse`].
pub type SparseSim = AmpSim<SparseState>;

impl SparseSim {
    /// Number of nonzero amplitudes currently stored — the quantity that
    /// stays small for structured states and makes paper-scale runs feasible.
    pub fn nonzero_count(&self) -> usize {
        self.state.nonzero_count()
    }
}

impl<S: AmpStore + Default> AmpSim<S> {
    /// Creates an empty, noiseless simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_noise(seed, NoiseModel::ideal())
    }

    /// [`AmpSim::over`] the store's default (0-qubit) register.
    pub fn with_noise(seed: u64, model: NoiseModel) -> Self {
        Self::over(S::default(), seed, model)
    }
}

impl<S: AmpStore> AmpSim<S> {
    /// Creates a simulator over `store`, which must hold the 0-qubit
    /// register, with a deterministic RNG seed and a noise model, realized
    /// as stochastic Pauli/Kraus insertions after each noisy operation (see
    /// [`crate::noise`]). The noise stream is seeded independently of the
    /// measurement stream, so a zero-rate model is bit-identical to
    /// [`NoiseModel::ideal`].
    pub fn over(store: S, seed: u64, model: NoiseModel) -> Self {
        AmpSim {
            state: store,
            reg: QubitRegistry::new(),
            rng: StdRng::seed_from_u64(seed),
            noise: NoiseState::new(seed, model),
            error_free: 1.0,
            gate_count: 0,
            measurement_count: 0,
        }
    }

    /// The amplitude store (position ordering); mostly for diagnostics.
    pub fn raw_state(&self) -> &S {
        &self.state
    }

    /// The configured noise model.
    pub fn noise_model(&self) -> NoiseModel {
        self.noise.model
    }

    /// The probability that no noise event fired over every operation so
    /// far: the product of each noise site's channel fidelity (1.0 under
    /// an ideal model). A store that holds no amplitudes has nothing to
    /// sample noise into, so this is what a run over it reports instead.
    pub fn error_free_probability(&self) -> f64 {
        self.error_free
    }

    /// Refuses, before anything moves, a `class` channel whose actions the
    /// store cannot realise (see [`AmpStore::check_1q`]).
    fn check_noise(&self, class: OpClass) -> Result<(), SimError> {
        let actions = self.noise.model.channel(class).actions();
        actions.iter().try_for_each(|m| self.state.check_1q(0, m))
    }

    /// Samples and applies the `class` channel to each listed store
    /// position, and folds it into [`AmpSim::error_free_probability`].
    /// Noise insertions are not counted as gates: the counters report the
    /// *program's* operations on every store.
    fn inject(&mut self, class: OpClass, positions: &[usize]) {
        let ch = self.noise.model.channel(class);
        if ch.is_ideal() {
            return;
        }
        self.error_free *= ch.error_free_probability().powi(positions.len() as i32);
        for &pos in positions {
            let action = ch.sample(|| self.state.parity_prob_odd(&[pos]), &mut self.noise.rng);
            match action {
                ChannelAction::Nothing => {}
                ChannelAction::Pauli(p) => self.state.apply_1q(&[], pos, &p.matrix()),
                ChannelAction::Kraus(m) => self.state.apply_1q(&[], pos, &m),
            }
        }
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

    /// Allocates one fresh qubit in |0>.
    pub fn alloc(&mut self) -> QubitId {
        let pos = self.state.add_qubit();
        self.reg.push(pos)
    }

    /// Allocates `n` fresh qubits in |0>.
    pub fn alloc_n(&mut self, n: usize) -> Vec<QubitId> {
        (0..n).map(|_| self.alloc()).collect()
    }

    fn pos(&self, q: QubitId) -> Result<usize, SimError> {
        self.reg.pos(q)
    }

    fn positions(&self, qubits: &[QubitId]) -> Result<Vec<usize>, SimError> {
        qubits.iter().map(|&q| self.pos(q)).collect()
    }

    /// Frees a qubit that is already in a classical state (prob 0 or 1 of
    /// being |1>, up to tolerance). Errors with [`SimError::NotClassical`]
    /// otherwise — mirroring `QMPI_Free_qmem`'s contract.
    pub fn free(&mut self, q: QubitId) -> Result<bool, SimError> {
        let pos = self.pos(q)?;
        let outcome = classical_outcome(q, self.state.parity_prob_odd(&[pos]))?;
        self.state.remove_qubit(pos, outcome);
        self.reg.remove(q, pos);
        Ok(outcome)
    }

    /// Measures a qubit and frees it in one step.
    pub fn measure_and_free(&mut self, q: QubitId) -> Result<bool, SimError> {
        let pos = self.pos(q)?;
        let u = self.draw_uniform(&[pos])?;
        let outcome = self.state.measure_and_remove(pos, u);
        self.reg.remove(q, pos);
        Ok(outcome)
    }

    /// Applies a single-qubit gate.
    pub fn apply(&mut self, gate: Gate, q: QubitId) -> Result<(), SimError> {
        self.apply_fused_1q(q, &gate.matrix())
    }

    /// Applies a pre-fused 2×2 unitary — a run of adjacent 1q gates
    /// multiplied at plan time ([`crate::batch::BatchOp::Fused1q`]).
    /// [`AmpSim::apply`] is this with the gate's own matrix, so fusion
    /// cannot change per-pair arithmetic; counted as one gate (the counters
    /// report kernel sweeps, which is what the fused plan reduces).
    pub fn apply_fused_1q(&mut self, q: QubitId, m: &Mat2) -> Result<(), SimError> {
        let pos = self.pos(q)?;
        self.state.check_1q(0, m)?;
        self.check_noise(OpClass::Gate1q)?;
        self.state.apply_1q(&[], pos, m);
        self.gate_count += 1;
        self.inject(OpClass::Gate1q, &[pos]);
        Ok(())
    }

    /// Applies a merged diagonal sweep
    /// ([`crate::batch::BatchOp::PhaseSweep`], whose fields these are) in
    /// one pass over the state (see [`AmpStore::apply_phase_sweep`] for the
    /// per-amplitude arithmetic). Counted as one gate; a noise channel rides
    /// on each touched qubit once.
    pub fn apply_phase_sweep(
        &mut self,
        qubits: &[QubitId],
        diags: &[SweepFactor],
        czs: &[(QubitId, QubitId)],
    ) -> Result<(), SimError> {
        let (positions, flips, touched) = sweep_positions(qubits, diags, czs, |q| self.pos(q))?;
        self.state.check_sweep(diags)?;
        self.check_noise(OpClass::Gate1q)?;
        self.state.apply_phase_sweep(&positions, diags, &flips);
        self.gate_count += 1;
        self.inject(OpClass::Gate1q, &touched);
        Ok(())
    }

    /// Applies a controlled single-qubit gate (any number of controls).
    pub fn apply_controlled(
        &mut self,
        controls: &[QubitId],
        gate: Gate,
        target: QubitId,
    ) -> Result<(), SimError> {
        let tpos = self.pos(target)?;
        let mut cpos = Vec::with_capacity(controls.len() + 1);
        for &c in controls {
            if c == target {
                return Err(SimError::DuplicateQubit(c));
            }
            cpos.push(self.pos(c)?);
        }
        let m = gate.matrix();
        self.state.check_1q(cpos.len(), &m)?;
        self.check_noise(OpClass::Gate2q)?;
        self.state.apply_1q(&cpos, tpos, &m);
        self.gate_count += 1;
        cpos.push(tpos);
        self.inject(OpClass::Gate2q, &cpos);
        Ok(())
    }

    /// One two-qubit fast-path gate on distinct qubits `(a, b)`.
    fn apply_pair(
        &mut self,
        a: QubitId,
        b: QubitId,
        kernel: impl FnOnce(&mut S, usize, usize),
    ) -> Result<(), SimError> {
        if a == b {
            return Err(SimError::DuplicateQubit(a));
        }
        let pa = self.pos(a)?;
        let pb = self.pos(b)?;
        self.check_noise(OpClass::Gate2q)?;
        kernel(&mut self.state, pa, pb);
        self.gate_count += 1;
        self.inject(OpClass::Gate2q, &[pa, pb]);
        Ok(())
    }

    /// CNOT with `control`, `target`.
    pub fn cnot(&mut self, control: QubitId, target: QubitId) -> Result<(), SimError> {
        self.apply_pair(control, target, S::apply_cnot)
    }

    /// Controlled-Z (symmetric).
    pub fn cz(&mut self, a: QubitId, b: QubitId) -> Result<(), SimError> {
        self.apply_pair(a, b, S::apply_cz)
    }

    /// SWAP two qubits; swapping a qubit with itself is a no-op and counts
    /// as no gate.
    pub fn swap(&mut self, a: QubitId, b: QubitId) -> Result<(), SimError> {
        if a == b {
            return Ok(());
        }
        self.apply_pair(a, b, S::apply_swap)
    }

    /// Toffoli (doubly-controlled NOT), the gate whose count dominates the
    /// fault-tolerant applications cited in Section 3.
    pub fn toffoli(&mut self, c1: QubitId, c2: QubitId, target: QubitId) -> Result<(), SimError> {
        self.apply_controlled(&[c1, c2], Gate::X, target)
    }

    /// Probability of measuring 1 on `q` (non-destructive).
    pub fn prob_one(&self, q: QubitId) -> Result<f64, SimError> {
        Ok(self.state.parity_prob_odd(&[self.pos(q)?]))
    }

    /// Projective measurement with collapse: [`AmpSim::measure_z_parity`]
    /// over `q` alone. The measurement channel of a configured noise model
    /// is applied before projection (readout error).
    pub fn measure(&mut self, q: QubitId) -> Result<bool, SimError> {
        self.measure_z_parity(&[q])
    }

    /// The part of a measurement of `positions` before the store reads it:
    /// readout noise on each, the count, and the uniform the outcome is
    /// drawn against. It is drawn before the read, so a store can read and
    /// collapse at once; no other draw comes from this stream, so its
    /// position does not move.
    fn draw_uniform(&mut self, positions: &[usize]) -> Result<f64, SimError> {
        self.check_noise(OpClass::Measurement)?;
        self.inject(OpClass::Measurement, positions);
        self.measurement_count += 1;
        Ok(self.rng.gen::<f64>())
    }

    /// Non-destructive joint Z-parity measurement over `qubits`: projects
    /// onto the even (+1, `false`) or odd (−1, `true`) parity subspace,
    /// sampling the outcome, and returns it. A repeated qubit is
    /// [`SimError::DuplicateQubit`], before any noise or measurement draw.
    pub fn measure_z_parity(&mut self, qubits: &[QubitId]) -> Result<bool, SimError> {
        let mut pos = Vec::with_capacity(qubits.len());
        for &q in qubits {
            let p = self.pos(q)?;
            if pos.contains(&p) {
                return Err(SimError::DuplicateQubit(q));
            }
            pos.push(p);
        }
        let u = self.draw_uniform(&pos)?;
        Ok(self.state.measure_parity(&pos, u))
    }

    /// Expectation value of a Pauli string given as `(qubit, pauli)` pairs.
    /// A repeated qubit is [`SimError::DuplicateQubit`].
    pub fn expectation(&self, terms: &[(QubitId, Pauli)]) -> Result<f64, SimError> {
        Ok(self.state.expectation_pauli(&self.pauli_positions(terms)?))
    }

    /// [`AmpSim::expectation`] of each string, to the same bits, in one call
    /// to the store (see [`AmpStore::expectation_pauli_each`]). Every string
    /// is checked before any is read.
    pub fn expectation_each(
        &self,
        strings: &[Vec<(QubitId, Pauli)>],
    ) -> Result<Vec<f64>, SimError> {
        let mapped: Result<Vec<_>, _> = strings.iter().map(|t| self.pauli_positions(t)).collect();
        Ok(self.state.expectation_pauli_each(&mapped?))
    }

    /// A Pauli string over handles as one over store positions.
    fn pauli_positions(&self, terms: &[(QubitId, Pauli)]) -> Result<Vec<PauliTerm>, SimError> {
        let mut mapped: Vec<PauliTerm> = Vec::with_capacity(terms.len());
        for &(q, op) in terms {
            let qubit = self.pos(q)?;
            if mapped.iter().any(|t| t.qubit == qubit) {
                return Err(SimError::DuplicateQubit(q));
            }
            mapped.push(PauliTerm { qubit, op });
        }
        Ok(mapped)
    }

    /// Entangles two fresh |0> qubits into (|00> + |11>)/sqrt(2), modeling
    /// the quantum-coherent interconnect. Counted as the H + CNOT it stands
    /// for; a configured EPR noise channel is applied to *each half* after
    /// entangling (not the gate channels — interconnect noise is its own
    /// [`OpClass::Epr`] class).
    pub fn entangle_epr(&mut self, qa: QubitId, qb: QubitId) -> Result<(), SimError> {
        if qa == qb {
            return Err(SimError::DuplicateQubit(qa));
        }
        let pa = self.pos(qa)?;
        let pb = self.pos(qb)?;
        self.check_noise(OpClass::Epr)?;
        self.state.apply_1q(&[], pa, &Gate::H.matrix());
        self.state.apply_cnot(pa, pb);
        self.gate_count += 2;
        self.inject(OpClass::Epr, &[pa, pb]);
        Ok(())
    }

    /// Snapshot of the state vector with qubits ordered as given in `order`
    /// (`order[0]` is the least-significant bit). `order` must contain every
    /// live qubit exactly once. The sparse store refuses registers wider
    /// than [`crate::state::MAX_DENSE_QUBITS`]; absent entries appear as
    /// `+0.0`.
    pub fn state_vector(&self, order: &[QubitId]) -> Result<State, SimError> {
        self.state.snapshot(&self.reg.permutation(order)?)
    }

    /// The amplitude of the basis state where the qubits listed in `ones` are
    /// 1 and all other live qubits are 0 — usable at any qubit count, unlike
    /// [`AmpSim::state_vector`].
    pub fn amplitude_of(&self, ones: &[QubitId]) -> Result<Complex, SimError> {
        self.state.amplitude_of(&self.positions(ones)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{Gate, Pauli};

    const TOL: f64 = 1e-10;

    #[test]
    fn alloc_free_roundtrip() {
        let mut sim = Simulator::new(1);
        let q = sim.alloc();
        assert_eq!(sim.n_qubits(), 1);
        assert_eq!(sim.free(q), Ok(false));
        assert_eq!(sim.n_qubits(), 0);
    }

    #[test]
    fn free_after_x_returns_one() {
        let mut sim = Simulator::new(1);
        let q = sim.alloc();
        sim.apply(Gate::X, q).unwrap();
        assert_eq!(sim.free(q), Ok(true));
    }

    #[test]
    fn free_superposed_qubit_errors() {
        let mut sim = Simulator::new(1);
        let q = sim.alloc();
        sim.apply(Gate::H, q).unwrap();
        assert_eq!(sim.free(q), Err(SimError::NotClassical(q)));
        // measure_and_free works regardless.
        assert!(sim.measure_and_free(q).is_ok());
        assert_eq!(sim.n_qubits(), 0);
    }

    #[test]
    fn unknown_qubit_rejected() {
        let mut sim = Simulator::new(1);
        let q = sim.alloc();
        sim.free(q).unwrap();
        assert_eq!(sim.apply(Gate::X, q), Err(SimError::UnknownQubit(q)));
        assert_eq!(sim.measure(q), Err(SimError::UnknownQubit(q)));
    }

    #[test]
    fn handles_stable_across_interleaved_free() {
        let mut sim = Simulator::new(1);
        let a = sim.alloc();
        let b = sim.alloc();
        let c = sim.alloc();
        sim.apply(Gate::X, c).unwrap();
        sim.free(b).unwrap(); // removing the middle qubit shifts positions
                              // c must still read as |1>.
        assert!((sim.prob_one(c).unwrap() - 1.0).abs() < TOL);
        assert!(sim.prob_one(a).unwrap() < TOL);
        assert_eq!(sim.free(c), Ok(true));
        assert_eq!(sim.free(a), Ok(false));
    }

    #[test]
    fn epr_pair_correlations() {
        let mut sim = Simulator::new(7);
        let a = sim.alloc();
        let b = sim.alloc();
        sim.apply(Gate::H, a).unwrap();
        sim.cnot(a, b).unwrap();
        let ma = sim.measure(a).unwrap();
        let mb = sim.measure(b).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn teleportation_within_simulator() {
        // Full teleportation circuit (Fig. 3c) inside one simulator: state of
        // `src` (arbitrary) moves to `dst` exactly.
        let mut sim = Simulator::new(3);
        let src = sim.alloc();
        sim.apply(Gate::Ry(0.73), src).unwrap();
        sim.apply(Gate::Rz(-1.2), src).unwrap();
        let reference = {
            let mut s = Simulator::new(0);
            let q = s.alloc();
            s.apply(Gate::Ry(0.73), q).unwrap();
            s.apply(Gate::Rz(-1.2), q).unwrap();
            s.state_vector(&[q]).unwrap()
        };
        // EPR pair between "nodes".
        let e1 = sim.alloc();
        let e2 = sim.alloc();
        sim.apply(Gate::H, e1).unwrap();
        sim.cnot(e1, e2).unwrap();
        // Fanout: parity of (src, e1).
        sim.cnot(src, e1).unwrap();
        let m_f = sim.measure_and_free(e1).unwrap();
        if m_f {
            sim.apply(Gate::X, e2).unwrap();
        }
        // Unfanout: X-basis measurement of src.
        sim.apply(Gate::H, src).unwrap();
        let m_u = sim.measure_and_free(src).unwrap();
        if m_u {
            sim.apply(Gate::Z, e2).unwrap();
        }
        let out = sim.state_vector(&[e2]).unwrap();
        assert!((out.fidelity(&reference) - 1.0).abs() < TOL);
    }

    #[test]
    fn cnot_reset_fig1b() {
        // Fig. 1(b): when CNOT would reset the target to |0>, replace it by
        // H + measure + conditional Z on the control side.
        // Build alpha|0>|0> + beta|1>|1> (target is a fanned-out copy).
        for (a, b) in [(0.6f64, 0.8f64), (0.28, 0.96)] {
            let mut sim = Simulator::new(11);
            let ctrl = sim.alloc();
            let copy = sim.alloc();
            sim.apply(Gate::Ry(2.0 * (b).atan2(a)), ctrl).unwrap();
            sim.cnot(ctrl, copy).unwrap();
            // Reference: undo with an actual CNOT.
            let mut reference = Simulator::new(11);
            let rc = reference.alloc();
            let rcopy = reference.alloc();
            reference.apply(Gate::Ry(2.0 * (b).atan2(a)), rc).unwrap();
            reference.cnot(rc, rcopy).unwrap();
            reference.cnot(rc, rcopy).unwrap();
            reference.free(rcopy).unwrap();
            let ref_state = reference.state_vector(&[rc]).unwrap();
            // Deferred-measurement version.
            sim.apply(Gate::H, copy).unwrap();
            let m = sim.measure_and_free(copy).unwrap();
            if m {
                sim.apply(Gate::Z, ctrl).unwrap();
            }
            let out = sim.state_vector(&[ctrl]).unwrap();
            assert!((out.fidelity(&ref_state) - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn expectation_through_handles() {
        let mut sim = Simulator::new(5);
        let a = sim.alloc();
        let b = sim.alloc();
        sim.apply(Gate::H, a).unwrap();
        sim.cnot(a, b).unwrap();
        let zz = sim.expectation(&[(a, Pauli::Z), (b, Pauli::Z)]).unwrap();
        assert!((zz - 1.0).abs() < TOL);
    }

    #[test]
    fn state_vector_ordering() {
        let mut sim = Simulator::new(5);
        let a = sim.alloc();
        let b = sim.alloc();
        sim.apply(Gate::X, b).unwrap();
        // Order [a, b]: expect |10> (b is high bit).
        let s = sim.state_vector(&[a, b]).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < TOL);
        // Order [b, a]: expect |01>.
        let s = sim.state_vector(&[b, a]).unwrap();
        assert!((s.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn gate_and_measurement_counters() {
        let mut sim = Simulator::new(5);
        let q = sim.alloc();
        sim.apply(Gate::H, q).unwrap();
        sim.apply(Gate::H, q).unwrap();
        sim.measure(q).unwrap();
        assert_eq!(sim.gate_count(), 2);
        assert_eq!(sim.measurement_count(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let qs = sim.alloc_n(4);
            for &q in &qs {
                sim.apply(Gate::H, q).unwrap();
            }
            qs.iter()
                .map(|&q| sim.measure(q).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(123), run(123));
    }
}
