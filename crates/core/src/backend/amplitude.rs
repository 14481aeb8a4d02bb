//! The two full-state amplitude engines — dense (the paper's prototype
//! backend) and sparse (real amplitudes at paper-scale rank counts) — as one
//! generic engine over the simulator front's amplitude store.

use super::{BackendKind, SimEngine};
use qsim::noise::NoiseModel;
use qsim::sim::AmpSim;
use qsim::{AmpStore, BatchOp, GateBatch, Pauli, QubitId, SimError, SparseState, State};

/// An amplitude store that backs an engine, and the [`BackendKind`] it is
/// selected by.
pub trait EngineStore: AmpStore + Send + Sync {
    /// The kind [`AmplitudeEngine`] reports over this store.
    const KIND: BackendKind;
}

impl EngineStore for State {
    const KIND: BackendKind = BackendKind::StateVector;
}

impl EngineStore for SparseState {
    const KIND: BackendKind = BackendKind::Sparse;
}

/// Full-state engine over [`qsim::sim::AmpSim`]: exact for arbitrary gates,
/// with the storage format chosen by `S`.
pub struct AmplitudeEngine<S> {
    sim: AmpSim<S>,
}

/// Dense-amplitude engine over [`qsim::Simulator`]. Exponential in total
/// qubit count (~25-qubit practical cap).
pub type StateVectorEngine = AmplitudeEngine<State>;

/// Sparse-amplitude engine over [`qsim::SparseSim`]. Bit-identical to the
/// dense engine under the canonical rule documented in [`qsim::sparse`],
/// but memory scales with the number of *nonzero* amplitudes instead of
/// `2^n`, so structured states (cat/GHZ spanning trees, teleport chains)
/// carry real amplitudes at hundreds of ranks where every dense backend is
/// out of memory.
pub type SparseEngine = AmplitudeEngine<SparseState>;

impl<S: EngineStore> AmplitudeEngine<S> {
    /// Creates a noiseless engine with a deterministic measurement RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_noise(seed, NoiseModel::ideal())
    }

    /// Creates an engine that applies `noise` as stochastic Pauli/Kraus
    /// trajectory insertions (see [`qsim::noise`]); both stores share one
    /// RNG stream discipline.
    pub fn with_noise(seed: u64, noise: NoiseModel) -> Self {
        AmplitudeEngine {
            sim: AmpSim::with_noise(seed, noise),
        }
    }
}

impl SparseEngine {
    /// Number of nonzero amplitudes currently stored — the working-set
    /// size that stays small for the paper's structured states.
    pub fn nonzero_count(&self) -> usize {
        self.sim.nonzero_count()
    }
}

impl<S: EngineStore> SimEngine for AmplitudeEngine<S> {
    fn kind(&self) -> BackendKind {
        S::KIND
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{build_backend, ops, BackendKind, DIAG_RANK};
    use cmpi::TransportKind;
    use qsim::Gate;

    #[test]
    fn engine_reports_its_kind_and_counts() {
        let mut e = SparseEngine::new(3);
        assert_eq!(e.kind(), BackendKind::Sparse);
        let a = e.alloc();
        let b = e.alloc();
        e.entangle_epr(a, b).unwrap();
        assert_eq!(e.gate_count(), 2); // H + CNOT
        assert_eq!(e.nonzero_count(), 2);
        let ma = e.measure(a).unwrap();
        let mb = e.measure_and_free(b).unwrap();
        assert_eq!(ma, mb, "EPR halves must agree");
        assert_eq!(e.measurement_count(), 2);
    }

    #[test]
    fn backend_amplitude_probe_works_through_the_wrapper() {
        let backend = build_backend(
            BackendKind::Sparse,
            TransportKind::InProcess,
            11,
            NoiseModel::ideal(),
        )
        .unwrap();
        let q = backend.alloc(0, 3);
        backend.apply_batch(0, &ops::gate(Gate::H, q[0])).unwrap();
        backend.apply_batch(0, &ops::cnot(q[0], q[1])).unwrap();
        backend.apply_batch(0, &ops::cnot(q[1], q[2])).unwrap();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let a0 = backend.amplitude_of(0, &[]).unwrap();
        let a1 = backend.amplitude_of(DIAG_RANK, &q).unwrap();
        assert!((a0.re - h).abs() < 1e-12);
        assert!((a1.re - h).abs() < 1e-12);
        // The probe is ownership-checked like every other rank-scoped read.
        assert!(backend.amplitude_of(1, &q).is_err());
    }

    #[test]
    fn amplitude_probe_unsupported_on_amplitude_less_backends() {
        let backend = build_backend(
            BackendKind::Trace,
            TransportKind::InProcess,
            0,
            NoiseModel::ideal(),
        )
        .unwrap();
        let q = backend.alloc(0, 1);
        assert!(backend.amplitude_of(0, &q).is_err());
    }
}
