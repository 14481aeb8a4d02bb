//! The sharded state-vector engine and the `&self` gate surface.
//!
//! [`ShardedStateVector`] is a full-amplitude engine like
//! [`super::StateVectorEngine`], but its amplitudes live in a
//! [`qsim::sharded::ShardedState`] — `2^k` contiguous shards, each behind
//! its own stripe lock — and its gate entry point is available through
//! `&self` ([`ShardableEngine`]). That is what [`super::Shared`] exploits:
//! gate traffic from concurrently executing ranks takes the *shared* side
//! of the wrapper's reader-writer lock (ranks act on disjoint qubits, so
//! their gates commute and the stripe locks provide amplitude-level
//! exclusion); only structural operations — allocation, free, measurement
//! collapse, EPR establishment, snapshots — take the exclusive side.
//!
//! The result is the fourth [`super::BackendKind`]:
//! `BackendKind::ShardedStateVector { shards }`.

use super::{BackendKind, SimEngine};
use parking_lot::Mutex;
use qsim::noise::{ChannelAction, NoiseModel, NoiseState, OpClass};
use qsim::registry::QubitRegistry;
use qsim::sharded::ShardedState;
use qsim::{BatchOp, Gate, GateBatch, Pauli, QubitId, SimError, State};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`SimEngine`] that additionally accepts gate batches through `&self`,
/// safe for concurrent callers operating on disjoint qubits. Engines
/// implementing this (and answering [`SimEngine::as_shardable`]) keep gate
/// dispatch on the shared side of [`super::Shared`]'s lock.
pub trait ShardableEngine: SimEngine {
    /// [`SimEngine::apply_batch`] through `&self` (concurrent-safe): same
    /// stream, same order, same gate tally and
    /// partial-application-on-error semantics.
    fn apply_batch_concurrent(&self, batch: &GateBatch) -> std::result::Result<(), SimError>;

    /// Applies several ranks' gate segments — the drained contents of a
    /// cross-rank coalesce window, in arrival order — as one unit. Each
    /// `(rank, batch)` segment is a stream that was flushed (and possibly
    /// plan-time-optimized) by one rank in isolation; ranks own disjoint
    /// qubits, so the segments commute and concatenating them in arrival
    /// order reproduces exactly what dispatching each separately would
    /// have computed. The default does that concatenation seam-preserving
    /// ([`qsim::concat_segments`] — no cross-rank re-fusion) and applies
    /// it as one batch; the process-separated engine overrides this to
    /// ship one *merged* framed command per worker with per-rank segment
    /// markers, so failover replay keeps segment boundaries.
    fn apply_segments_concurrent(
        &self,
        segs: Vec<(usize, GateBatch)>,
    ) -> std::result::Result<(), SimError> {
        let merged = qsim::concat_segments(segs.into_iter().map(|(_, b)| b));
        self.apply_batch_concurrent(&merged)
    }
}

/// Full state-vector engine over lock-striped amplitude shards.
///
/// Exact for arbitrary gates, exponential in total qubit count — the same
/// envelope as [`super::StateVectorEngine`] — but gate application goes
/// through per-shard stripe locks, so many ranks can apply gates at once.
pub struct ShardedStateVector {
    state: ShardedState,
    /// Stable handle <-> position bookkeeping, shared with the dense
    /// engine ([`qsim::registry`]) so the two cannot drift apart.
    reg: QubitRegistry,
    rng: StdRng,
    /// Mutex-wrapped (not `&mut`) because noise fires on the `&self`
    /// concurrent gate surface too; the sampling logic and stream seeding
    /// are shared with the dense engine, so a single-threaded caller gets
    /// amplitudes identical to [`qsim::Simulator`] under the same model.
    noise: Mutex<NoiseState>,
    /// Cached copy of the model so the hot path can skip ideal channels
    /// without touching the noise lock.
    noise_model: NoiseModel,
    /// Atomic so the concurrent gate surface can count without `&mut`.
    gate_count: AtomicU64,
    measurement_count: u64,
}

impl ShardedStateVector {
    /// Creates a noiseless engine with a deterministic measurement RNG seed
    /// and (up to) `shards` amplitude stripes (rounded to a power of two,
    /// clamped to `[1, 256]`).
    pub fn new(seed: u64, shards: usize) -> Self {
        ShardedStateVector::with_noise(seed, shards, NoiseModel::ideal())
    }

    /// Creates an engine that applies `noise` as stochastic Pauli/Kraus
    /// trajectory insertions through the stripe locks. For Pauli channels
    /// concurrent callers serialize only on the (cheap) noise RNG draw —
    /// the amplitude work happens after the lock drops; amplitude damping
    /// additionally reads the qubit's |1> probability (an O(2^n) sweep)
    /// under the lock, because the jump decision must be coherent with the
    /// state it was sampled from. With a single caller the noise stream is
    /// deterministic and identical to the dense engine's.
    pub fn with_noise(seed: u64, shards: usize, noise: NoiseModel) -> Self {
        ShardedStateVector {
            state: ShardedState::new(shards),
            reg: QubitRegistry::new(),
            rng: StdRng::seed_from_u64(seed),
            noise: Mutex::new(NoiseState::new(seed, noise)),
            noise_model: noise,
            gate_count: AtomicU64::new(0),
            measurement_count: 0,
        }
    }

    /// Samples and applies the `class` channel to each listed position;
    /// safe for concurrent callers (stripe locks provide amplitude-level
    /// exclusion, the RNG serializes behind its own mutex).
    ///
    /// Pauli channels sample under the lock but *apply* after it drops:
    /// concurrent ranks act on disjoint qubits and Pauli insertions on
    /// different qubits commute, so deferring the amplitude sweeps keeps
    /// the noise lock down to the RNG draws. Amplitude damping instead
    /// samples *and* applies under the lock — each jump decision (and its
    /// renormalization) must be coherent with the state produced by the
    /// previous insertion, exactly as the dense engine sequences them.
    fn inject(&self, class: OpClass, positions: &[usize]) {
        let ch = self.noise_model.channel(class);
        if ch.is_ideal() {
            return;
        }
        if matches!(ch, qsim::NoiseChannel::AmplitudeDamping { .. }) {
            let mut guard = self.noise.lock();
            for &pos in positions {
                let action = guard.sample(class, || self.state.prob_one(pos));
                match action {
                    ChannelAction::Nothing => {}
                    ChannelAction::Pauli(p) => self.state.apply_1q(pos, &p.matrix()),
                    ChannelAction::Kraus(m) => self.state.apply_1q(pos, &m),
                }
            }
            return;
        }
        let actions: Vec<(usize, ChannelAction)> = {
            let mut guard = self.noise.lock();
            positions
                .iter()
                .map(|&pos| {
                    (
                        pos,
                        guard.sample(class, || {
                            unreachable!("Pauli channels never query prob_one")
                        }),
                    )
                })
                .collect()
        };
        for (pos, action) in actions {
            match action {
                ChannelAction::Nothing => {}
                ChannelAction::Pauli(p) => self.state.apply_1q(pos, &p.matrix()),
                ChannelAction::Kraus(_) => unreachable!("Pauli channels never produce Kraus maps"),
            }
        }
    }

    /// The configured stripe count.
    pub fn max_shards(&self) -> usize {
        self.state.max_shards()
    }

    fn pos(&self, q: QubitId) -> std::result::Result<usize, SimError> {
        self.reg.pos(q)
    }

    fn remove_at(&mut self, q: QubitId, pos: usize, outcome: bool) {
        self.state.remove_qubit(pos, outcome);
        self.reg.remove(q, pos);
    }

    /// Positions of two distinct qubits.
    fn pair(&self, a: QubitId, b: QubitId) -> std::result::Result<[usize; 2], SimError> {
        if a == b {
            return Err(SimError::DuplicateQubit(a));
        }
        Ok([self.pos(a)?, self.pos(b)?])
    }
}

impl ShardableEngine for ShardedStateVector {
    fn apply_batch_concurrent(&self, batch: &GateBatch) -> std::result::Result<(), SimError> {
        // The positions each op's noise channel rides on, reused across ops.
        let mut touched = Vec::new();
        for op in batch.ops() {
            touched.clear();
            let class = match op {
                BatchOp::Gate { gate, q } => {
                    touched.push(self.pos(*q)?);
                    self.state.apply_1q(touched[0], &gate.matrix());
                    OpClass::Gate1q
                }
                BatchOp::Fused1q { q, m } => {
                    touched.push(self.pos(*q)?);
                    self.state.apply_1q(touched[0], m);
                    OpClass::Gate1q
                }
                BatchOp::Controlled {
                    controls,
                    gate,
                    target,
                } => {
                    let tpos = self.pos(*target)?;
                    for c in controls {
                        if c == target {
                            return Err(SimError::DuplicateQubit(*c));
                        }
                        touched.push(self.pos(*c)?);
                    }
                    self.state
                        .apply_controlled_1q(&touched, tpos, &gate.matrix());
                    touched.push(tpos);
                    OpClass::Gate2q
                }
                BatchOp::Cnot { c, t } => {
                    let [pc, pt] = self.pair(*c, *t)?;
                    self.state.apply_cnot(pc, pt);
                    touched.extend([pc, pt]);
                    OpClass::Gate2q
                }
                BatchOp::Cz { a, b } => {
                    let [pa, pb] = self.pair(*a, *b)?;
                    self.state.apply_cz(pa, pb);
                    touched.extend([pa, pb]);
                    OpClass::Gate2q
                }
                BatchOp::Swap { a, b } if a == b => continue,
                BatchOp::Swap { a, b } => {
                    let [pa, pb] = self.pair(*a, *b)?;
                    self.state.apply_swap(pa, pb);
                    touched.extend([pa, pb]);
                    OpClass::Gate2q
                }
                BatchOp::PhaseSweep { diags, czs } => {
                    let mut factors = Vec::with_capacity(diags.len());
                    for &(q, d0, d1) in diags {
                        let pos = self.pos(q)?;
                        factors.push((pos, d0, d1));
                        touched.push(pos);
                    }
                    let mut flips = Vec::with_capacity(czs.len());
                    for &(a, b) in czs {
                        let [pa, pb] = self.pair(a, b)?;
                        flips.push((pa, pb));
                        touched.extend([pa, pb]);
                    }
                    // One stripe pass for the whole merged sweep, same
                    // per-amplitude sequence as the dense engine.
                    self.state.apply_phase_sweep(&factors, &flips);
                    OpClass::Gate1q
                }
            };
            self.gate_count.fetch_add(1, Ordering::Relaxed);
            self.inject(class, &touched);
        }
        Ok(())
    }
}

impl SimEngine for ShardedStateVector {
    fn kind(&self) -> BackendKind {
        BackendKind::ShardedStateVector {
            shards: self.state.max_shards(),
        }
    }

    fn noise(&self) -> NoiseModel {
        self.noise_model
    }

    fn as_shardable(&self) -> Option<&dyn ShardableEngine> {
        Some(self)
    }

    fn entangle_epr(&mut self, qa: QubitId, qb: QubitId) -> std::result::Result<(), SimError> {
        // Same H + CNOT realization (and gate tally) as the other engines,
        // with interconnect noise drawn from the dedicated EPR channel in
        // the same order as the dense engine.
        let [pa, pb] = self.pair(qa, qb)?;
        self.state.apply_1q(pa, &Gate::H.matrix());
        self.state.apply_cnot(pa, pb);
        self.gate_count.fetch_add(2, Ordering::Relaxed);
        self.inject(OpClass::Epr, &[pa, pb]);
        Ok(())
    }

    fn alloc(&mut self) -> QubitId {
        let pos = self.state.add_qubit();
        self.reg.push(pos)
    }

    fn free(&mut self, q: QubitId) -> std::result::Result<bool, SimError> {
        let pos = self.pos(q)?;
        let outcome = qsim::registry::classical_outcome(q, self.state.prob_one(pos))?;
        self.remove_at(q, pos, outcome);
        Ok(outcome)
    }

    fn measure_and_free(&mut self, q: QubitId) -> std::result::Result<bool, SimError> {
        let outcome = self.measure(q)?;
        let pos = self.pos(q)?;
        self.remove_at(q, pos, outcome);
        Ok(outcome)
    }

    fn apply_batch(&mut self, batch: &GateBatch) -> std::result::Result<(), SimError> {
        // Same stream, same order, through the stripe-locked surface.
        self.apply_batch_concurrent(batch)
    }

    fn measure(&mut self, q: QubitId) -> std::result::Result<bool, SimError> {
        let pos = self.pos(q)?;
        self.inject(OpClass::Measurement, &[pos]);
        self.measurement_count += 1;
        Ok(self.state.measure(pos, &mut self.rng))
    }

    fn prob_one(&self, q: QubitId) -> std::result::Result<f64, SimError> {
        Ok(self.state.prob_one(self.pos(q)?))
    }

    fn measure_z_parity(&mut self, qubits: &[QubitId]) -> std::result::Result<bool, SimError> {
        let mut pos = Vec::with_capacity(qubits.len());
        for &q in qubits {
            pos.push(self.pos(q)?);
        }
        self.inject(OpClass::Measurement, &pos);
        self.measurement_count += 1;
        Ok(self.state.measure_z_parity(&pos, &mut self.rng))
    }

    fn expectation(&self, terms: &[(QubitId, Pauli)]) -> std::result::Result<f64, SimError> {
        let mut mapped = Vec::with_capacity(terms.len());
        for &(q, op) in terms {
            mapped.push(qsim::measure::PauliTerm {
                qubit: self.pos(q)?,
                op,
            });
        }
        Ok(self.state.expectation_pauli(&mapped))
    }

    fn state_vector(&self, order: &[QubitId]) -> std::result::Result<State, SimError> {
        Ok(self
            .state
            .to_dense()
            .permuted(&self.reg.permutation(order)?))
    }

    fn n_qubits(&self) -> usize {
        self.reg.len()
    }

    fn gate_count(&self) -> u64 {
        self.gate_count.load(Ordering::Relaxed)
    }

    fn measurement_count(&self) -> u64 {
        self.measurement_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ops, QuantumBackend, StateVectorEngine};

    const TOL: f64 = 1e-12;

    /// One step of a random Clifford+T circuit.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Gate(Gate, usize),
        Cnot(usize, usize),
        Cz(usize, usize),
    }

    fn apply_steps<E: SimEngine>(engine: &mut E, qs: &[QubitId], steps: &[Step]) {
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
            let ma = backend.measure(0, qa).unwrap();
            let mb = backend.measure(1, qb).unwrap();
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
