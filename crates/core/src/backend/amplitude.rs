//! The six engines, all on the simulator front — dense (the paper's
//! prototype backend), sparse (real amplitudes at paper-scale rank counts),
//! striped (the dense vector in the remote workers' layout), remote (those
//! stripes in worker ranks, [`super::remote`]), stabilizer (the CHP
//! tableau, Clifford protocols at thousands of ranks) and trace (no
//! amplitudes, only counts) — as one generic engine over the front's
//! store, so handles, operand checks, counters, noise sites and the one
//! uniform per measurement exist once.

use super::{BackendKind, TransportStats};
use qsim::noise::NoiseModel;
use qsim::sim::AmpSim;
use qsim::{
    AmpStore, BatchOp, GateBatch, ShardedState, SimError, SparseState, State, Tableau, TraceState,
};
use std::ops::{Deref, DerefMut};

/// A store that backs an engine, and the [`BackendKind`] it is selected
/// by.
pub trait EngineStore: AmpStore + Send + Sync {
    /// The kind [`AmplitudeEngine`] reports over this store.
    fn kind(&self) -> BackendKind;

    /// Whether the store models noise rather than sampling it: one with no
    /// amplitudes to perturb, whose engine reports the front's error-free
    /// probability as [`AmplitudeEngine::modeled_fidelity`].
    fn models_noise() -> bool {
        false
    }

    /// Transport accounting, for a store driven over a message substrate;
    /// `None` for a store in this address space.
    fn transport_stats(&self) -> Option<TransportStats> {
        None
    }
}

impl EngineStore for State {
    fn kind(&self) -> BackendKind {
        BackendKind::StateVector
    }
}

impl EngineStore for SparseState {
    fn kind(&self) -> BackendKind {
        BackendKind::Sparse
    }
}

impl EngineStore for ShardedState {
    fn kind(&self) -> BackendKind {
        BackendKind::ShardedStateVector {
            shards: self.max_shards(),
        }
    }
}

impl EngineStore for Tableau {
    fn kind(&self) -> BackendKind {
        BackendKind::Stabilizer
    }
}

impl EngineStore for TraceState {
    fn kind(&self) -> BackendKind {
        BackendKind::Trace
    }

    fn models_noise() -> bool {
        true
    }
}

/// The stores whose empty register takes no parameter, so their engines
/// are built from a seed alone. (A local bound: `Default` by itself would
/// leave the seed-only constructors overlapping the striped engine's.)
pub trait UnstripedStore: EngineStore + Default {}

impl UnstripedStore for State {}

impl UnstripedStore for SparseState {}

impl UnstripedStore for Tableau {}

impl UnstripedStore for TraceState {}

/// The engine over [`qsim::sim::AmpSim`], with the storage format (and
/// where the amplitudes live) chosen by `S`. It dereferences to the front,
/// whose methods — alloc, free, measurement, expectations, snapshots,
/// counters — are the engine's; it adds the engine's identity and the one
/// `match` over [`BatchOp`] that applies a gate batch.
pub struct AmplitudeEngine<S> {
    sim: AmpSim<S>,
}

impl<S> Deref for AmplitudeEngine<S> {
    type Target = AmpSim<S>;

    fn deref(&self) -> &AmpSim<S> {
        &self.sim
    }
}

impl<S> DerefMut for AmplitudeEngine<S> {
    fn deref_mut(&mut self) -> &mut AmpSim<S> {
        &mut self.sim
    }
}

impl<S: EngineStore> AmplitudeEngine<S> {
    /// The engine over `store`, which must hold the 0-qubit register.
    pub(crate) fn over(store: S, seed: u64, noise: NoiseModel) -> Self {
        AmplitudeEngine {
            sim: AmpSim::over(store, seed, noise),
        }
    }

    /// Which [`BackendKind`] this engine realizes.
    pub fn kind(&self) -> BackendKind {
        self.sim.raw_state().kind()
    }

    /// The engine's running estimate of run fidelity under its noise model,
    /// if it models noise rather than sampling it. Only the trace engine
    /// does ([`EngineStore::models_noise`]): the probability that *no*
    /// noise event fired across every operation so far — a lower bound on
    /// state fidelity, computable at scales where no amplitudes exist.
    pub fn modeled_fidelity(&self) -> Option<f64> {
        S::models_noise().then(|| self.sim.error_free_probability())
    }

    /// Applies a recorded gate stream in program order — the engine's only
    /// gate entry point (an eager gate is a batch of one). Each
    /// [`BatchOp`] counts as one gate, a `Swap` of a qubit with itself as
    /// none. On error, the operations preceding the failing one have been
    /// applied; the failing one has moved nothing.
    pub fn apply_batch(&mut self, batch: &GateBatch) -> Result<(), SimError> {
        batch.ops().iter().try_for_each(|op| match op {
            BatchOp::Gate { gate, q } => self.sim.apply(*gate, *q),
            BatchOp::Controlled {
                controls,
                gate,
                target,
            } => self.sim.apply_controlled(controls, *gate, *target),
            BatchOp::Cnot { c, t } => self.sim.cnot(*c, *t),
            BatchOp::Cz { a, b } => self.sim.cz(*a, *b),
            BatchOp::Swap { a, b } => self.sim.swap(*a, *b),
            BatchOp::Fused1q { q, m } => self.sim.apply_fused_1q(*q, m),
            BatchOp::PhaseSweep { qubits, diags, czs } => {
                self.sim.apply_phase_sweep(qubits, diags, czs)
            }
        })
    }
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

/// Dense-amplitude engine over a [`ShardedState`]: the envelope of
/// [`StateVectorEngine`], with the vector cut into stripes (by position
/// order, not the remote engine's stable axes) in one address space, the
/// same kernels run per stripe and each stripe's exact partial sums merged.
pub type ShardedStateVector = AmplitudeEngine<ShardedState>;

/// CHP stabilizer-tableau engine over [`qsim::StabilizerSim`]:
/// Clifford-only, polynomial in qubit count, so every QMPI communication
/// protocol runs at thousands of ranks. A non-Clifford op is
/// [`SimError::Unsupported`] before anything moves; under a noise model
/// only the Pauli channels (depolarizing/dephasing) are realizable, and
/// [`super::build_backend`] rejects amplitude damping up front. On a
/// Clifford program its outcomes agree per seed with the dense engine's
/// (see [`qsim::stabilizer`]).
pub type StabilizerEngine = AmplitudeEngine<Tableau>;

/// Counting-only engine over [`qsim::TraceState`]: every measurement reads
/// `false`, so the resource ledger reproduces the paper's Tables 1–3 at any
/// rank count. Noise it draws lands on no amplitudes, so it reports the
/// probability that none fired instead
/// ([`AmplitudeEngine::modeled_fidelity`]).
pub type TraceEngine = AmplitudeEngine<TraceState>;

impl<S: UnstripedStore> AmplitudeEngine<S> {
    /// Creates a noiseless engine with a deterministic measurement RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_noise(seed, NoiseModel::ideal())
    }

    /// Creates an engine that applies `noise` as stochastic Pauli/Kraus
    /// trajectory insertions (see [`qsim::noise`]); every store shares one
    /// RNG stream discipline.
    pub fn with_noise(seed: u64, noise: NoiseModel) -> Self {
        Self::over(S::default(), seed, noise)
    }
}

impl ShardedStateVector {
    /// Creates a noiseless engine with a deterministic measurement RNG seed
    /// and (up to) `shards` amplitude stripes (rounded to a power of two,
    /// clamped to `[1, 256]`).
    pub fn new(seed: u64, shards: usize) -> Self {
        Self::with_noise(seed, shards, NoiseModel::ideal())
    }

    /// [`ShardedStateVector::new`] with a noise model, drawn exactly as
    /// the dense engine draws it.
    pub fn with_noise(seed: u64, shards: usize, noise: NoiseModel) -> Self {
        Self::over(ShardedState::new(shards), seed, noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{build_backend, ops, BackendKind, QuantumBackend, DIAG_RANK};
    use cmpi::TransportKind;
    use qsim::{Gate, QubitId};

    #[test]
    fn engine_reports_its_kind_and_counts() {
        let mut e = SparseEngine::new(3);
        assert_eq!(e.kind(), BackendKind::Sparse);
        let a = e.alloc();
        let b = e.alloc();
        e.entangle_epr(a, b).unwrap();
        assert_eq!(e.gate_count(), 2); // H + CNOT
        assert_eq!(e.nonzero_count(), 2);
        let ma = e.measure_z_parity(&[a]).unwrap();
        let mb = e.measure_and_free(b).unwrap();
        assert_eq!(ma, mb, "EPR halves must agree");
        assert_eq!(e.measurement_count(), 2);
    }

    #[test]
    fn backend_amplitude_probe_works_through_the_wrapper() {
        for kind in [
            BackendKind::StateVector,
            BackendKind::Sparse,
            BackendKind::ShardedStateVector { shards: 4 },
            BackendKind::RemoteSharded { shards: 2 },
        ] {
            let backend =
                build_backend(kind, TransportKind::InProcess, 11, NoiseModel::ideal()).unwrap();
            let q = backend.alloc(0, 3);
            backend.apply_batch(0, &ops::gate(Gate::H, q[0])).unwrap();
            backend.apply_batch(0, &ops::cnot(q[0], q[1])).unwrap();
            backend.apply_batch(0, &ops::cnot(q[1], q[2])).unwrap();
            let h = std::f64::consts::FRAC_1_SQRT_2;
            let a0 = backend.amplitude_of(0, &[]).unwrap();
            let a1 = backend.amplitude_of(DIAG_RANK, &q).unwrap();
            let a2 = backend.amplitude_of(DIAG_RANK, &q[2..]).unwrap();
            assert!((a0.re - h).abs() < 1e-12, "{kind}");
            assert!((a1.re - h).abs() < 1e-12, "{kind}");
            assert_eq!(a2, qsim::Complex::default(), "{kind}");
            // The probe is ownership-checked like every other rank-scoped
            // read.
            assert!(backend.amplitude_of(1, &q).is_err(), "{kind}");
        }
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

    const TOL: f64 = 1e-12;

    /// One step of a random Clifford+T circuit.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Gate(Gate, usize),
        Cnot(usize, usize),
        Cz(usize, usize),
    }

    fn apply_steps<S: EngineStore>(
        engine: &mut AmplitudeEngine<S>,
        qs: &[QubitId],
        steps: &[Step],
    ) {
        for &step in steps {
            match step {
                Step::Gate(g, t) => engine.apply_batch(&ops::gate(g, qs[t])).unwrap(),
                Step::Cnot(c, t) if c != t => engine.apply_batch(&ops::cnot(qs[c], qs[t])).unwrap(),
                Step::Cz(a, b) if a != b => engine.apply_batch(&ops::cz(qs[a], qs[b])).unwrap(),
                _ => {}
            }
        }
    }

    fn amplitudes_match(steps: &[Step], shards: usize, n_qubits: usize) {
        amplitudes_match_noisy(steps, shards, n_qubits, NoiseModel::ideal());
    }

    /// Dense and striped engines given the same seed and noise model must
    /// draw identical noise trajectories: the sampling logic and stream
    /// seeding live in `qsim::noise`, shared by both.
    fn amplitudes_match_noisy(steps: &[Step], shards: usize, n_qubits: usize, noise: NoiseModel) {
        let mut dense = StateVectorEngine::with_noise(1, noise);
        let mut striped = ShardedStateVector::with_noise(1, shards, noise);
        let dq: Vec<QubitId> = (0..n_qubits).map(|_| dense.alloc()).collect();
        let sq: Vec<QubitId> = (0..n_qubits).map(|_| striped.alloc()).collect();
        apply_steps(&mut dense, &dq, steps);
        apply_steps(&mut striped, &sq, steps);
        let want = dense.state_vector(&dq).unwrap();
        let got = striped.state_vector(&sq).unwrap();
        for i in 0..want.len() {
            assert!(
                want.amplitude(i).approx_eq(got.amplitude(i), TOL),
                "shards={shards} amp[{i}]: {:?} vs {:?}",
                want.amplitude(i),
                got.amplitude(i)
            );
        }
    }

    /// The process-separated engine must match the dense engine *bit for
    /// bit* per seed: the shard workers run the same `qsim::stripe` kernels
    /// in the same global command order, and Pauli-noise trajectories come
    /// from the same seeded stream.
    fn remote_matches_dense_bitwise(
        steps: &[Step],
        shards: usize,
        n_qubits: usize,
        noise: NoiseModel,
    ) {
        use crate::backend::RemoteShardedEngine;
        let mut dense = StateVectorEngine::with_noise(1, noise);
        let mut remote = RemoteShardedEngine::with_noise(1, shards, noise);
        let dq: Vec<QubitId> = (0..n_qubits).map(|_| dense.alloc()).collect();
        let rq: Vec<QubitId> = (0..n_qubits).map(|_| remote.alloc()).collect();
        apply_steps(&mut dense, &dq, steps);
        apply_steps(&mut remote, &rq, steps);
        let want = dense.state_vector(&dq).unwrap();
        let got = remote.state_vector(&rq).unwrap();
        for i in 0..want.len() {
            let (w, g) = (want.amplitude(i), got.amplitude(i));
            assert!(
                w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                "remote shards={shards} amp[{i}]: {w:?} vs {g:?} (bit mismatch)"
            );
        }
    }

    #[test]
    fn engine_matches_dense_on_fixed_circuit() {
        let steps = [
            Step::Gate(Gate::H, 0),
            Step::Gate(Gate::H, 9),
            Step::Gate(Gate::T, 9),
            Step::Cnot(0, 9),
            Step::Cnot(9, 0),
            Step::Cz(3, 8),
            Step::Gate(Gate::S, 5),
            Step::Cnot(8, 9),
        ];
        for shards in [1usize, 2, 8] {
            amplitudes_match(&steps, shards, 10);
        }
    }

    #[test]
    fn engine_matches_dense_under_pauli_noise() {
        let steps = [
            Step::Gate(Gate::H, 0),
            Step::Cnot(0, 1),
            Step::Gate(Gate::T, 2),
            Step::Cz(1, 3),
            Step::Gate(Gate::S, 3),
            Step::Cnot(3, 0),
        ];
        let noise = NoiseModel::depolarizing(0.25)
            .with_measurement(qsim::NoiseChannel::Dephasing { p: 0.3 });
        for shards in [1usize, 2, 8] {
            amplitudes_match_noisy(&steps, shards, 4, noise);
        }
    }

    #[test]
    fn engine_matches_dense_under_amplitude_damping() {
        // The trajectory decision depends on prob_one, computed by summing
        // amplitudes in different orders in the two engines; a fixed seed
        // and circuit keeps both on the same branch and the Kraus maps
        // must then agree to round-off.
        let steps = [
            Step::Gate(Gate::H, 0),
            Step::Gate(Gate::X, 1),
            Step::Cnot(0, 2),
            Step::Gate(Gate::Ry(0.9), 1),
            Step::Cnot(1, 3),
            Step::Gate(Gate::H, 2),
        ];
        let noise = NoiseModel::amplitude_damping(0.2);
        for shards in [1usize, 2, 8] {
            amplitudes_match_noisy(&steps, shards, 4, noise);
        }
    }

    #[test]
    fn amplitude_damping_preserves_norm() {
        let mut engine = ShardedStateVector::with_noise(5, 4, NoiseModel::amplitude_damping(0.3));
        let qs: Vec<QubitId> = (0..6).map(|_| engine.alloc()).collect();
        for &q in &qs {
            engine.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        }
        for w in qs.windows(2) {
            engine.apply_batch(&ops::cnot(w[0], w[1])).unwrap();
        }
        let st = engine.state_vector(&qs).unwrap();
        let norm: f64 = (0..st.len()).map(|i| st.amplitude(i).norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm = {norm}");
    }

    #[test]
    fn wrapper_runs_concurrent_rank_gates() {
        use std::sync::Arc;
        let backend: Arc<dyn QuantumBackend> = crate::backend::build_backend(
            BackendKind::ShardedStateVector { shards: 8 },
            cmpi::TransportKind::InProcess,
            3,
            NoiseModel::ideal(),
        )
        .unwrap();
        let mut qubits = Vec::new();
        for rank in 0..4usize {
            qubits.push((rank, backend.alloc(rank, 2)));
        }
        std::thread::scope(|s| {
            for (rank, qs) in &qubits {
                let backend = Arc::clone(&backend);
                s.spawn(move || {
                    for _ in 0..25 {
                        backend
                            .apply_batch(*rank, &ops::gate(Gate::H, qs[0]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::cnot(qs[0], qs[1]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::cnot(qs[0], qs[1]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::gate(Gate::H, qs[0]))
                            .unwrap();
                    }
                });
            }
        });
        // Every rank's round was self-inverse: all qubits must read |0>.
        for (rank, qs) in &qubits {
            for &q in qs {
                assert!(backend.prob_one(*rank, q).unwrap() < 1e-9);
                backend.measure_and_free(*rank, q).unwrap();
            }
        }
        assert_eq!(backend.counts().live_qubits, 0);
    }

    #[test]
    fn batch_entangle_is_one_acquisition_of_many_pairs() {
        let backend = crate::backend::build_backend(
            BackendKind::ShardedStateVector { shards: 4 },
            cmpi::TransportKind::InProcess,
            9,
            NoiseModel::ideal(),
        )
        .unwrap();
        let a = backend.alloc(0, 3);
        let b = backend.alloc(1, 3);
        let pairs: Vec<(QubitId, QubitId)> = a.iter().copied().zip(b.iter().copied()).collect();
        backend.entangle_epr_batch(&pairs).unwrap();
        for (qa, qb) in pairs {
            let ma = backend.measure_z_parity(0, &[qa]).unwrap();
            let mb = backend.measure_z_parity(1, &[qb]).unwrap();
            assert_eq!(ma, mb, "batched pair must be entangled");
        }
        assert_eq!(backend.counts().epr_entanglements, 3);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_step(n_qubits: usize) -> impl Strategy<Value = Step> {
            let n = n_qubits;
            prop_oneof![
                (0usize..8, 0..n).prop_map(|(g, t)| {
                    let gate = match g {
                        0 => Gate::H,
                        1 => Gate::S,
                        2 => Gate::Sdg,
                        3 => Gate::T,
                        4 => Gate::Tdg,
                        5 => Gate::X,
                        6 => Gate::Y,
                        _ => Gate::Z,
                    };
                    Step::Gate(gate, t)
                }),
                (0..n, 0..n).prop_map(|(c, t)| Step::Cnot(c, t)),
                (0..n, 0..n).prop_map(|(a, b)| Step::Cz(a, b)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The satellite acceptance property: 1-, 2-, and 8-shard
            /// striped engines produce amplitudes identical to the dense
            /// engine on random 10-qubit Clifford+T circuits — and the
            /// process-separated engine matches bit for bit.
            #[test]
            fn sharded_amplitudes_identical_to_dense(
                steps in proptest::collection::vec(arb_step(10), 10..60),
            ) {
                for shards in [1usize, 2, 8] {
                    amplitudes_match(&steps, shards, 10);
                    remote_matches_dense_bitwise(&steps, shards, 10, NoiseModel::ideal());
                }
            }

            /// The same property under Pauli noise: every engine must draw
            /// identical trajectories from the shared seeded noise stream
            /// (the remote engine samples on the controller, so its stream
            /// is the dense engine's stream).
            #[test]
            fn sharded_amplitudes_identical_to_dense_under_noise(
                steps in proptest::collection::vec(arb_step(8), 10..40),
                p in 0.0f64..0.5,
            ) {
                let noise = NoiseModel::depolarizing(p);
                for shards in [1usize, 2, 8] {
                    amplitudes_match_noisy(&steps, shards, 8, noise);
                    remote_matches_dense_bitwise(&steps, shards, 8, noise);
                }
            }
        }
    }
}
