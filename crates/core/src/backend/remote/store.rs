//! The store and the engine: [`RemoteStore`] puts the controller under
//! the one simulator front, and [`RemoteShardedEngine`] is that front.

use super::controller::Controller;
use super::{PairKernel, ShardCmd};
use crate::backend::amplitude::{AmplitudeEngine, EngineStore};
use crate::backend::pool::ShardLease;
use crate::backend::{BackendKind, TransportStats};
use cmpi::TransportKind;
use parking_lot::Mutex;
use qsim::gates::Mat2;
use qsim::measure::PauliTerm;
use qsim::noise::NoiseModel;
use qsim::state::MAX_DENSE_QUBITS;
use qsim::stripe;
use qsim::{AmpStore, Complex, SimError, State, SweepFactor};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The amplitude store of [`RemoteShardedEngine`]: the controller of one
/// worker world, driven by the simulator front like any other
/// [`AmpStore`]. Gate methods, `add_qubit` and `remove_qubit` queue their
/// work; every other method is a read, which ships the queue in the frame
/// of its own command (one retry unit per read).
pub struct RemoteStore {
    pub(super) ctl: Mutex<Controller>,
}

impl RemoteStore {
    /// The store over `lease`'s world (reset first), holding the 0-qubit
    /// scalar state.
    fn from_lease(mut lease: ShardLease) -> Self {
        lease.reset();
        let mut ctl = Controller::new(lease);
        // The 0-qubit scalar state |> with amplitude 1 — the checkpoint a
        // fresh `FailoverState` holds, so a death during this scatter
        // recovers into the same state.
        ctl.cmd_rounds += 1;
        ctl.run(|c| c.scatter_raw(vec![Complex::real(1.0)], 0));
        RemoteStore {
            ctl: Mutex::new(ctl),
        }
    }

    /// Queues reply-free work with `f` (see [`Controller::defer`]).
    fn defer(&mut self, f: impl FnOnce(&mut Controller)) {
        self.ctl.get_mut().defer(f);
    }

    /// The dense state: the queue in a round of its own, then a gather (a
    /// checkpoint, with failover armed).
    fn gather(&self) -> Vec<Complex> {
        let mut ctl = self.ctl.lock();
        ctl.flush();
        ctl.run_gather()
    }

    /// Command rounds (one per fan-out of command frames, which is one per
    /// read: gates, allocs, frees and collapses wait for the next one),
    /// worker↔worker exchange rounds (data motion no framing can remove),
    /// wire bytes (see [`TransportStats::wire_bytes`]) and worker respawns
    /// (failover events; always 0 in-process).
    fn stats(&self) -> TransportStats {
        let ctl = self.ctl.lock();
        TransportStats {
            command_rounds: ctl.cmd_rounds,
            exchange_rounds: ctl.xchg_rounds,
            wire_bytes: ctl.lease.link().wire_bytes(),
            respawns: ctl.lease.link().respawns(),
            coalesced_flushes: 0,
        }
    }
}

impl AmpStore for RemoteStore {
    fn add_qubit(&mut self) -> usize {
        let ctl = self.ctl.get_mut();
        assert!(
            ctl.n_qubits < MAX_DENSE_QUBITS,
            "qubit budget exhausted (MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS})"
        );
        let pos = ctl.n_qubits;
        ctl.defer(|c| c.reshape(None));
        pos
    }

    /// The front has read the qubit's mass to check that it is classical,
    /// so the rescale reuses that read and the removal queues.
    fn remove_qubit(&mut self, target: usize, outcome: bool) {
        self.collapse_remove(target, outcome);
    }

    fn collapse_remove(&mut self, target: usize, outcome: bool) {
        self.defer(|c| c.remove_branch(target, outcome));
    }

    fn apply_1q(&mut self, controls: &[usize], target: usize, m: &Mat2) {
        let kernel = PairKernel::Mat(*m);
        self.defer(|c| c.plan_pair(controls, target, kernel));
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        self.defer(|c| c.plan_pair(&[control], target, PairKernel::Swap));
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        self.defer(|c| c.plan_phase(a, b));
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        self.defer(|c| c.plan_swap(a, b));
    }

    fn apply_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    ) {
        self.defer(|c| c.plan_phase_sweep(positions, diags, czs));
    }

    fn parity_prob_odd(&self, qubits: &[usize]) -> f64 {
        let mut ctl = self.ctl.lock();
        let mask = ctl.mask(qubits);
        ctl.masses(mask)[1].finish()
    }

    fn collapse_parity(&mut self, qubits: &[usize], odd: bool) {
        let ctl = self.ctl.get_mut();
        ctl.project(ctl.mask(qubits), |_| odd);
    }

    /// One read, the measurement's: the collapse, its rescale by the read's
    /// mass, and the free's reshape queue behind it.
    fn measure_and_remove(&mut self, target: usize, u: f64) -> bool {
        let outcome = u < self.parity_prob_odd(&[target]);
        self.collapse_remove(target, outcome);
        outcome
    }

    /// One read: both branch masses come back with the probability, and the
    /// collapse onto the outcome is queued.
    fn measure_parity(&mut self, qubits: &[usize], u: f64) -> bool {
        let ctl = self.ctl.get_mut();
        ctl.project(ctl.mask(qubits), |p_odd| u < p_odd)
    }

    /// Gather-free: the X mask's shard-crossing half pairs workers up
    /// directly (worker↔worker stripe exchange) and each pair reports one
    /// exact partial sum, instead of every stripe flowing to the controller.
    /// Partials merge exactly, so the value is the dense engine's to the
    /// bit, however the shards pair up; expectations never write state.
    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        let mut ctl = self.ctl.lock();
        let on_bits = terms.iter().map(|&PauliTerm { qubit, op }| PauliTerm {
            qubit: ctl.bit(qubit),
            op,
        });
        let (x_mask, z_mask, i_pow) =
            stripe::pauli_masks(ctl.n_qubits, &on_bits.collect::<Vec<_>>());
        stripe::hermitian_value(i_pow, ctl.run(|c| c.expect(x_mask, z_mask)))
    }

    /// The gathered state is in physical bit order.
    fn snapshot(&self, perm: &[usize]) -> Result<State, SimError> {
        let order: Vec<usize> = perm.iter().map(|&p| self.ctl.lock().bit(p)).collect();
        Ok(State::from_amplitudes(self.gather()).permuted(&order))
    }

    /// Gather, then index: a diagnostic probe, one gather on this store.
    fn amplitude_of(&self, ones: &[usize]) -> Result<Complex, SimError> {
        let index = self.ctl.lock().mask(ones);
        Ok(self.gather()[index])
    }
}

impl EngineStore for RemoteStore {
    fn kind(&self) -> BackendKind {
        BackendKind::RemoteSharded {
            shards: self.ctl.lock().workers(),
        }
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        Some(self.stats())
    }
}

/// Full state-vector engine whose `2^k` amplitude shards live in dedicated
/// worker ranks and exchange nothing but [`cmpi`] messages: the one
/// [`AmplitudeEngine`] over a [`RemoteStore`]. See the module docs for the
/// protocol.
pub type RemoteShardedEngine = AmplitudeEngine<RemoteStore>;

impl RemoteShardedEngine {
    /// Spawns in-process worker ranks for a noiseless engine. `shards` is
    /// rounded up to a power of two and clamped to
    /// `[1, 2^MAX_REMOTE_SHARD_BITS]`.
    pub fn new(seed: u64, shards: usize) -> Self {
        RemoteShardedEngine::with_noise(seed, shards, NoiseModel::ideal())
    }

    /// Spawns in-process worker ranks for an engine applying `noise` as
    /// controller-sampled trajectory insertions.
    pub fn with_noise(seed: u64, shards: usize, noise: NoiseModel) -> Self {
        Self::over_transport(seed, shards, noise, TransportKind::InProcess)
            .expect("spawning worker threads performs no I/O")
    }

    /// Spawns a worker world for this engine alone behind the given
    /// transport: threads for [`TransportKind::InProcess`], child
    /// processes speaking framed sockets otherwise — with
    /// checkpoint/replay failover armed. Per-seed trajectories are
    /// bit-identical across transports: both run the same planner, the
    /// same kernels, in the same global order. Fails when the worker
    /// processes cannot be started (no `qworker` binary, no socket).
    pub fn over_transport(
        seed: u64,
        shards: usize,
        noise: NoiseModel,
        kind: TransportKind,
    ) -> std::io::Result<Self> {
        Ok(Self::from_lease(
            seed,
            ShardLease::spawn(kind, shards)?,
            noise,
        ))
    }

    /// Builds an engine over an already-running worker world — the seam
    /// between engine semantics and worker lifecycle. A lease from a
    /// [`crate::backend::ShardWorkerPool`] returns its workers, still
    /// running, to the pool when the engine drops.
    ///
    /// Construction resets a pooled world (see [`ShardLease`]) and the
    /// scatter of the fresh scalar state overwrites every worker's stripe,
    /// so per-seed trajectories are bit-identical to an engine over
    /// freshly spawned workers.
    pub fn from_lease(seed: u64, lease: ShardLease, noise: NoiseModel) -> Self {
        Self::over(RemoteStore::from_lease(lease), seed, noise)
    }

    /// Overrides the watchdog for every blocking protocol receive —
    /// controller reply waits and worker exchange waits alike (the duration
    /// is shared atomically with the workers). Tests use a short one to
    /// prove timeouts diagnose instead of hang.
    pub fn with_watchdog(self, watchdog: Duration) -> Self {
        self.raw_state()
            .ctl
            .lock()
            .lease
            .link()
            .watchdog()
            .store(watchdog.as_millis() as u64, Ordering::Relaxed);
        self
    }

    /// The engine's transport accounting (see [`TransportStats`]).
    pub fn transport_stats(&self) -> TransportStats {
        self.raw_state().stats()
    }

    /// Test/diagnostic hook: forces a checkpoint once `units` (at least 1)
    /// mutating units are logged, instead of the default 32, so a test can
    /// interleave checkpoints with every alloc, gate batch and free it
    /// makes. Only a multi-process transport checkpoints; in-process the
    /// hook does nothing.
    pub fn debug_checkpoint_limit(&self, units: usize) {
        if let Some(f) = self.raw_state().ctl.lock().failover.as_mut() {
            f.limit = units.max(1);
        }
    }

    /// Test/diagnostic hook: each worker's queued commands (a batch is one).
    pub fn debug_queued_commands(&self) -> Vec<usize> {
        let ctl = self.raw_state().ctl.lock();
        ctl.queue.cmds.iter().map(Vec::len).collect()
    }

    /// Test/diagnostic hook: makes shard `shard`'s worker exit its event
    /// loop *without* completing the protocol, simulating a crashed shard
    /// node. In-process, subsequent operations touching that shard trip
    /// the deadlock watchdog instead of hanging; over a socket transport
    /// the worker process exits and failover respawns it.
    pub fn debug_kill_worker(&self, shard: usize) {
        let mut ctl = self.raw_state().ctl.lock();
        assert!(shard < ctl.workers(), "shard {shard} out of range");
        let _ = ctl.send_raw(shard, &ShardCmd::Die);
    }

    /// Test/diagnostic hook for the socket transports: SIGKILLs shard
    /// `shard`'s worker *process* outright — no protocol, no cleanup, the
    /// hardest death a shard node can die. The next operation touching the
    /// shard observes EOF and runs failover.
    pub fn debug_kill_worker_process(&self, shard: usize) {
        let mut ctl = self.raw_state().ctl.lock();
        assert!(shard < ctl.workers(), "shard {shard} out of range");
        ctl.lease.link_mut().kill_process(shard);
    }
}
