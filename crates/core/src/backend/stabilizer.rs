//! The CHP stabilizer-tableau engine: Clifford-only QMPI at scale.
//!
//! Every QMPI communication primitive (EPR establishment, entangled copy,
//! teleportation, cat-state fanout, parity reduce) is pure Clifford, so this
//! engine runs the paper's protocols with polynomial cost — thousands of
//! ranks instead of the state vector's ~25-qubit ceiling. Applying a
//! non-Clifford gate surfaces [`qsim::SimError::Unsupported`].

use super::{BackendKind, SimEngine};
use qsim::noise::NoiseModel;
use qsim::{BatchOp, GateBatch, Pauli, QubitId, SimError, StabilizerSim};

/// Tableau engine: [`qsim::StabilizerSim`] itself, which has the engine
/// surface already. Under a noise model only the Clifford-compatible
/// channels (depolarizing/dephasing) are realizable; [`super::build_backend`]
/// rejects amplitude damping up front.
pub type StabilizerEngine = StabilizerSim;

impl SimEngine for StabilizerSim {
    fn kind(&self) -> BackendKind {
        BackendKind::Stabilizer
    }

    fn noise(&self) -> NoiseModel {
        self.noise_model()
    }

    fn entangle_epr(&mut self, qa: QubitId, qb: QubitId) -> Result<(), SimError> {
        StabilizerSim::entangle_epr(self, qa, qb)
    }

    fn alloc(&mut self) -> QubitId {
        StabilizerSim::alloc(self)
    }

    fn free(&mut self, q: QubitId) -> Result<bool, SimError> {
        StabilizerSim::free(self, q)
    }

    fn measure_and_free(&mut self, q: QubitId) -> Result<bool, SimError> {
        StabilizerSim::measure_and_free(self, q)
    }

    fn apply_batch(&mut self, batch: &GateBatch) -> Result<(), SimError> {
        for op in batch.ops() {
            match op {
                BatchOp::Gate { gate, q } => self.apply(*gate, *q)?,
                BatchOp::Controlled {
                    controls,
                    gate,
                    target,
                } => self.apply_controlled(controls, *gate, *target)?,
                BatchOp::Cnot { c, t } => self.cnot(*c, *t)?,
                BatchOp::Cz { a, b } => self.cz(*a, *b)?,
                BatchOp::Swap { a, b } => self.swap(*a, *b)?,
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
        StabilizerSim::prob_one(self, q)
    }

    fn measure_z_parity(&mut self, qubits: &[QubitId]) -> Result<bool, SimError> {
        StabilizerSim::measure_z_parity(self, qubits)
    }

    fn expectation(&self, terms: &[(QubitId, Pauli)]) -> Result<f64, SimError> {
        StabilizerSim::expectation(self, terms)
    }

    fn n_qubits(&self) -> usize {
        StabilizerSim::n_qubits(self)
    }

    fn gate_count(&self) -> u64 {
        StabilizerSim::gate_count(self)
    }

    fn measurement_count(&self) -> u64 {
        StabilizerSim::measurement_count(self)
    }
}
