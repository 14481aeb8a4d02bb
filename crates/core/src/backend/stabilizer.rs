//! The CHP stabilizer-tableau engine: Clifford-only QMPI at scale.
//!
//! Every QMPI communication primitive (EPR establishment, entangled copy,
//! teleportation, cat-state fanout, parity reduce) is pure Clifford, so this
//! engine runs the paper's protocols with polynomial cost — thousands of
//! ranks instead of the state vector's ~25-qubit ceiling. Applying a
//! non-Clifford gate surfaces [`qsim::SimError::Unsupported`].

use super::{BackendKind, SimEngine};
use qsim::noise::NoiseModel;
use qsim::{BatchOp, GateBatch, Pauli, QubitId, SimError, StabilizerSim, State};

/// Tableau engine over [`qsim::StabilizerSim`].
pub struct StabilizerEngine {
    sim: StabilizerSim,
}

impl StabilizerEngine {
    /// Creates a noiseless engine with a deterministic measurement RNG seed.
    pub fn new(seed: u64) -> Self {
        StabilizerEngine {
            sim: StabilizerSim::new(seed),
        }
    }

    /// Creates an engine that applies `noise` as stochastic Pauli
    /// insertions on the tableau. Only the Clifford-compatible channels
    /// (depolarizing/dephasing) are realizable; operations under an
    /// amplitude-damping channel surface [`qsim::SimError::Unsupported`] —
    /// [`super::build_backend`] rejects such models up front.
    pub fn with_noise(seed: u64, noise: NoiseModel) -> Self {
        StabilizerEngine {
            sim: StabilizerSim::with_noise(seed, noise),
        }
    }
}

impl SimEngine for StabilizerEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Stabilizer
    }

    fn noise(&self) -> NoiseModel {
        self.sim.noise_model()
    }

    fn entangle_epr(&mut self, qa: QubitId, qb: QubitId) -> Result<(), SimError> {
        // Routed through the simulator so interconnect noise uses the
        // dedicated EPR channel rather than the gate channels.
        self.sim.entangle_epr(qa, qb)
    }

    fn alloc(&mut self) -> QubitId {
        self.sim.alloc()
    }

    fn free(&mut self, q: QubitId) -> Result<bool, SimError> {
        self.sim.free(q)
    }

    fn measure_and_free(&mut self, q: QubitId) -> Result<bool, SimError> {
        self.sim.measure_and_free(q)
    }

    fn apply_batch(&mut self, batch: &GateBatch) -> Result<(), SimError> {
        for op in batch.ops() {
            match op {
                BatchOp::Gate { gate, q } => self.sim.apply(*gate, *q)?,
                BatchOp::Controlled {
                    controls,
                    gate,
                    target,
                } => self.sim.apply_controlled(controls, *gate, *target)?,
                BatchOp::Cnot { c, t } => self.sim.cnot(*c, *t)?,
                BatchOp::Cz { a, b } => self.sim.cz(*a, *b)?,
                BatchOp::Swap { a, b } => self.sim.swap(*a, *b)?,
                // Optimizer products carry raw matrices; the optimizer
                // never runs for this backend.
                BatchOp::Fused1q { .. } | BatchOp::PhaseSweep { .. } => {
                    return Err(SimError::Unsupported(format!(
                        "{op:?} is not Clifford; the stabilizer backend takes unfused gate streams"
                    )))
                }
            }
        }
        Ok(())
    }

    fn prob_one(&self, q: QubitId) -> Result<f64, SimError> {
        self.sim.prob_one(q)
    }

    fn measure_z_parity(&mut self, qubits: &[QubitId]) -> Result<bool, SimError> {
        self.sim.measure_z_parity(qubits)
    }

    fn expectation(&self, terms: &[(QubitId, Pauli)]) -> Result<f64, SimError> {
        self.sim.expectation(terms)
    }

    fn state_vector(&self, _order: &[QubitId]) -> Result<State, SimError> {
        Err(SimError::Unsupported(
            "the stabilizer backend tracks a tableau, not amplitudes; use the state-vector \
             backend for dense snapshots"
                .into(),
        ))
    }

    fn n_qubits(&self) -> usize {
        self.sim.n_qubits()
    }

    fn gate_count(&self) -> u64 {
        self.sim.gate_count()
    }

    fn measurement_count(&self) -> u64 {
        self.sim.measurement_count()
    }
}
