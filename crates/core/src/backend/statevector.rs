//! The full state-vector engine — the paper's prototype backend.

use super::{BackendKind, SimEngine};
use qsim::noise::NoiseModel;
use qsim::{BatchOp, GateBatch, Pauli, QubitId, SimError, Simulator, State};

/// Dense-amplitude engine over [`qsim::Simulator`]. Exact for arbitrary
/// gates, exponential in total qubit count (~25-qubit practical cap).
pub struct StateVectorEngine {
    sim: Simulator,
}

impl StateVectorEngine {
    /// Creates a noiseless engine with a deterministic measurement RNG seed.
    pub fn new(seed: u64) -> Self {
        StateVectorEngine {
            sim: Simulator::new(seed),
        }
    }

    /// Creates an engine that applies `noise` as stochastic Pauli/Kraus
    /// trajectory insertions (see [`qsim::noise`]).
    pub fn with_noise(seed: u64, noise: NoiseModel) -> Self {
        StateVectorEngine {
            sim: Simulator::with_noise(seed, noise),
        }
    }
}

impl SimEngine for StateVectorEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::StateVector
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
                BatchOp::Fused1q { q, m } => self.sim.apply_fused_1q(*q, m)?,
                BatchOp::PhaseSweep { diags, czs } => self.sim.apply_phase_sweep(diags, czs)?,
            }
        }
        Ok(())
    }

    fn measure(&mut self, q: QubitId) -> Result<bool, SimError> {
        self.sim.measure(q)
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

    fn state_vector(&self, order: &[QubitId]) -> Result<State, SimError> {
        self.sim.state_vector(order)
    }

    fn amplitude_of(&self, ones: &[QubitId]) -> Result<qsim::Complex, SimError> {
        self.sim.amplitude_of(ones)
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
