//! Pluggable simulation backends behind one QMPI execution API.
//!
//! The paper's prototype (Section 6) forwards every quantum operation to a
//! single full state-vector simulator, which caps any run at ~25 total
//! qubits. But nearly every QMPI protocol — EPR distribution, teleportation,
//! cat-state broadcast, parity reduce — is pure Clifford, and the headline
//! results (Tables 1–3) are *resource estimates* at scales no state vector
//! can reach. This module therefore splits the execution core into three
//! layers:
//!
//! * [`AmplitudeEngine`] — the engine: the one simulator front
//!   ([`qsim::sim::AmpSim`]: handles, operand checks, counters, noise
//!   sites, one uniform per measurement) over a store, with no notion of
//!   ranks or ownership. Five engines ship, one per store:
//!   [`amplitude::StateVectorEngine`] (exact amplitudes, the paper's
//!   prototype), [`amplitude::StabilizerEngine`] (CHP tableau; Clifford
//!   protocols at thousands of ranks), [`amplitude::TraceEngine`] (no
//!   amplitudes at all — operation counting for Table 1–3-style resource
//!   estimation at paper scale), [`amplitude::SparseEngine`] (only nonzero
//!   amplitudes stored, so structured states carry real amplitudes at
//!   hundreds of ranks) and [`remote::RemoteShardedEngine`] (shards owned by
//!   worker ranks that exchange nothing but [`cmpi`] messages — the paper's
//!   process-separated deployment model).
//! * [`Shared`] — the locality wrapper: one reader-writer-locked engine
//!   plus the qubit-ownership registry. Every engine gets the paper's
//!   locality semantics for free — a multi-qubit gate across ranks is
//!   rejected with [`QmpiError::Locality`], so algorithm code must
//!   communicate via QMPI exactly as on real distributed hardware. The
//!   only cross-rank quantum operation is
//!   [`QuantumBackend::entangle_epr_batch`], modeling the quantum-coherent
//!   interconnect. Every quantum operation takes the exclusive side of the
//!   lock.
//! * [`QuantumBackend`] — the rank-aware trait object held by every
//!   `QmpiRank`, implemented by [`Shared`] alone. Select an engine per
//!   world via [`crate::QmpiConfig::backend`] and [`BackendKind`].
//!
//! One gate IR crosses all three layers: a [`qsim::GateBatch`] handed to
//! `apply_batch` (an eager gate is a batch of one), and
//! [`AmplitudeEngine::apply_batch`] holds the one `match` over
//! [`qsim::BatchOp`] that executes it.
//!
//! Every engine additionally accepts a [`qsim::noise::NoiseModel`]
//! (threaded through [`build_backend`] from
//! [`crate::QmpiConfig::noise`]): the stochastic engines sample seeded
//! Pauli/Kraus insertions (the stabilizer engine only the
//! Clifford-compatible Pauli subset), and the trace engine, with nothing to
//! sample into, reports the front's error-free probability as a modeled
//! fidelity ([`QuantumBackend::modeled_fidelity`]). See
//! `docs/NOISE.md` for channel definitions and conventions.
//!
//! Exclusive acquisition mirrors the prototype's "all ranks forward
//! quantum operations to rank 0" — identical serialization semantics, and
//! the engine's global state faithfully represents the distributed machine
//! at every point.

pub mod amplitude;
pub mod pool;
pub mod remote;
pub mod remote_transport;

use crate::context::BatchPolicy;
use crate::error::{QmpiError, Result};
use cmpi::TransportKind;
use parking_lot::RwLock;
use qsim::noise::NoiseModel;
use qsim::{GateBatch, Pauli, QubitId, State};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub use amplitude::{
    AmplitudeEngine, EngineStore, SparseEngine, StabilizerEngine, StateVectorEngine, TraceEngine,
};
pub use pool::{ShardLease, ShardWorkerPool};
pub use remote::RemoteShardedEngine;
pub use remote_transport::qworker_main;

/// Which simulation engine backs a QMPI world.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Full state-vector simulation (exact amplitudes, ~25-qubit cap) —
    /// the paper's prototype engine and the default.
    #[default]
    StateVector,
    /// CHP stabilizer tableau: Clifford-only, polynomial in qubit count.
    /// Runs every QMPI communication protocol, at thousands of ranks.
    Stabilizer,
    /// No amplitudes at all: gates and measurements only count. Measurement
    /// outcomes are fixed `false`, so protocols execute deterministically
    /// and the resource ledger reproduces the paper's Tables 1–3 at any
    /// scale.
    Trace,
    /// Sparse full-state simulation: only nonzero amplitudes are stored, in
    /// a map keyed by 512-bit basis state. Exact for arbitrary gates like
    /// the dense engine (bit-identical under the canonical rule documented
    /// in [`qsim::sparse`]), but memory scales with the number of *nonzero*
    /// amplitudes instead of `2^n` — structured states (cat/GHZ trees,
    /// teleport chains) run with real amplitudes at hundreds of ranks.
    Sparse,
    /// Another name for [`BackendKind::RemoteSharded`]: the same engine,
    /// over the transport it is given, with the same shard rule, and its
    /// backend reports itself as `RemoteSharded`. It remains only because
    /// the qperf harness's `sharded` layer probe still names it.
    ShardedStateVector {
        /// Number of amplitude shards (= worker ranks).
        shards: usize,
    },
    /// Full state-vector simulation whose `shards` amplitude shards live in
    /// dedicated *worker ranks* — separate threads of control exchanging
    /// nothing but [`cmpi`] messages, the paper's actual deployment model.
    /// Same observable semantics (and bit-identical gate amplitudes) as the
    /// dense engines; higher per-gate latency, no shared-address-space
    /// assumption. `shards` is rounded up to a power of two (clamped to
    /// `[1, 64]`). See [`remote::RemoteShardedEngine`].
    RemoteSharded {
        /// Number of amplitude shards (= worker ranks).
        shards: usize,
    },
}

impl BackendKind {
    /// The shard count this kind will actually run with, after the
    /// rounding and clamping the remote engine applies (`[1, 64]` worker
    /// ranks). `None` for the unsharded kinds.
    pub fn effective_shards(self) -> Option<usize> {
        // The worker world's own rule, so the clamp warning cannot drift
        // from what the engine actually runs.
        match self {
            BackendKind::ShardedStateVector { shards } | BackendKind::RemoteSharded { shards } => {
                Some(remote::normalize_shards(shards))
            }
            _ => None,
        }
    }

    /// A human-readable warning when the configured shard count will not be
    /// honored as written (clamped to the engine's supported range or
    /// rounded to a power of two), `None` when the count is taken as-is.
    /// [`build_backend`] logs this to stderr so a request
    /// for, say, 128 remote workers visibly becomes 64 instead of silently
    /// shrinking.
    fn shard_clamp_warning(self) -> Option<String> {
        let effective = self.effective_shards()?;
        let requested = match self {
            BackendKind::ShardedStateVector { shards } | BackendKind::RemoteSharded { shards } => {
                shards
            }
            _ => return None,
        };
        if requested == effective {
            return None;
        }
        let cap = 1usize << remote::MAX_REMOTE_SHARD_BITS;
        let what = if requested == 0 || requested > cap {
            format!("clamped to the supported range [1, {cap}]")
        } else {
            "rounded up to a power of two".to_string()
        };
        Some(format!(
            "{} backend: requested {requested} shard(s) {what}; running with {effective}",
            self.name()
        ))
    }

    /// Human-readable engine name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::StateVector => "state-vector",
            BackendKind::Stabilizer => "stabilizer",
            BackendKind::Trace => "trace",
            BackendKind::Sparse => "sparse",
            BackendKind::ShardedStateVector { .. } => "sharded-state-vector",
            BackendKind::RemoteSharded { .. } => "remote-sharded",
        }
    }
}

/// The single backend construction point: builds a ready-to-share backend
/// of `kind` over `transport` with a noise model. Every other constructor
/// ([`crate::QmpiConfig::build_backend`], qserve's job launcher) funnels
/// through here.
///
/// The transport selects where shard workers live and only applies to
/// [`BackendKind::RemoteSharded`] (and its other name,
/// [`BackendKind::ShardedStateVector`]): [`TransportKind::InProcess`] runs them
/// as threads over in-process pipes, [`TransportKind::UnixSocket`] spawns
/// real `qworker` child processes speaking framed Unix domain sockets (with
/// failover — see [`remote_transport`]). Every other backend kind is
/// transport-less and ignores the parameter.
///
/// Fails with [`QmpiError::InvalidArgument`] when a noise rate is outside
/// `[0, 1]`, when the stabilizer backend is paired with a non-Clifford
/// channel (amplitude damping) — the tableau can only realize Pauli noise
/// (depolarizing/dephasing) — or when the Unix-socket transport cannot
/// start its `qworker` processes (the message names the transport and the
/// binary path tried).
pub fn build_backend(
    kind: BackendKind,
    transport: TransportKind,
    seed: u64,
    noise: NoiseModel,
) -> Result<Arc<dyn QuantumBackend>> {
    noise.validate().map_err(QmpiError::InvalidArgument)?;
    if kind == BackendKind::Stabilizer && !noise.is_clifford() {
        return Err(QmpiError::InvalidArgument(
            "the stabilizer backend supports only Clifford-compatible Pauli noise \
             (depolarizing/dephasing); amplitude damping needs a state-vector backend"
                .into(),
        ));
    }
    if let Some(warning) = kind.shard_clamp_warning() {
        emit_clamp_warning_once(&warning);
    }
    Ok(match kind {
        BackendKind::StateVector => {
            Arc::new(Shared::new(StateVectorEngine::with_noise(seed, noise)))
        }
        BackendKind::Stabilizer => Arc::new(Shared::new(StabilizerEngine::with_noise(seed, noise))),
        BackendKind::Trace => Arc::new(Shared::new(TraceEngine::with_noise(seed, noise))),
        BackendKind::Sparse => Arc::new(Shared::new(SparseEngine::with_noise(seed, noise))),
        BackendKind::ShardedStateVector { shards } | BackendKind::RemoteSharded { shards } => {
            Arc::new(Shared::new(
                RemoteShardedEngine::over_transport(seed, shards, noise, transport).map_err(
                    |e| {
                        QmpiError::InvalidArgument(format!(
                            "cannot spawn {transport} shard workers: {e}"
                        ))
                    },
                )?,
            ))
        }
    })
}

/// [`build_backend`], with a [`BatchPolicy`] that no backend reads: a
/// stub kept only because the qperf harness still calls it. The policy
/// governs how each rank records and flushes (see
/// [`crate::QmpiConfig::batch`]); the backend applies every flush at its
/// call.
pub fn build_backend_with_policy(
    kind: BackendKind,
    transport: TransportKind,
    seed: u64,
    noise: NoiseModel,
    _policy: BatchPolicy,
) -> Result<Arc<dyn QuantumBackend>> {
    build_backend(kind, transport, seed, noise)
}

/// Once-per-process latch for the shard-clamp warning. Module-scoped (not
/// function-local) so tests can reset it and observe the emit/suppress
/// transition regardless of which test fired the warning first.
static CLAMP_WARNING_EMITTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Prints a shard-clamp warning to stderr at most once per process and
/// returns whether this call was the one that printed. A job storm of 100
/// identically misconfigured backends warns once, not 100 times; the
/// warning text itself stays available per-config via
/// [`BackendKind::shard_clamp_warning`].
fn emit_clamp_warning_once(warning: &str) -> bool {
    use std::sync::atomic::Ordering;
    let first = CLAMP_WARNING_EMITTED
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok();
    if first {
        eprintln!("warning: {warning} (further shard-clamp warnings suppressed)");
    }
    first
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Rank used by diagnostics to bypass the ownership check on read-only
/// observables ([`QuantumBackend::expectation`]).
pub const DIAG_RANK: usize = usize::MAX;

/// Uniform transport accounting for engines driven over a message
/// substrate ([`RemoteShardedEngine`] — worker threads behind in-process
/// pipes, or worker processes behind sockets). Returned by
/// [`QuantumBackend::transport_stats`]; `None` means the backend has no
/// transport at all (dense in-memory engines).
///
/// All counters are cumulative over the engine's lifetime; per-job deltas
/// are the consumer's job (qserve snapshots them into its `JobReport`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Controller→worker command rounds: one per fan-out of command frames,
    /// and a fan-out carries a read (gates, allocs, frees and collapses
    /// wait for the next one).
    pub command_rounds: u64,
    /// Worker↔worker exchange rounds: cross-shard gate and reshape
    /// and expectation traffic.
    pub exchange_rounds: u64,
    /// Bytes put on the wire, both directions, each frame counted once on
    /// the link it crosses. The controller counts the commands it writes
    /// and the replies it reads, and each worker reports the exchange
    /// frames it wrote to its peers in its next reply. In-process the links
    /// are pipes carrying the same frames as the sockets, so both
    /// transports count the same bytes. A read's exchanges are all counted
    /// once its replies are in, so read this after a reduction every
    /// worker answers (`prob_one`).
    pub wire_bytes: u64,
    /// Workers respawned: by failover, over either transport, or by a
    /// pooled world's reset after its last user left it with a dead worker
    /// or unread replies. A failover replaces the whole generation.
    pub respawns: u64,
    /// Failover checkpoints: the periodic gathers and every snapshot's.
    pub checkpoints: u64,
    /// Bytes of those gathers' frames, a share of `wire_bytes`.
    pub checkpoint_bytes: u64,
    /// Always 0: a stub kept only because the qperf harness still reads
    /// it. Every flush reaches the engine at its call, and the remote
    /// engine's queue carries it in the frame of the next read.
    pub coalesced_flushes: u64,
}

/// Aggregate operation counts, maintained by the [`Shared`] wrapper across
/// every engine. The `Trace` backend exists purely to produce these (plus
/// the [`crate::ResourceLedger`] totals) at scales no amplitude-tracking
/// engine reaches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Gates applied (from the engine's own counter).
    pub gates: u64,
    /// Measurements performed (projective, parity, and measuring frees).
    pub measurements: u64,
    /// EPR entanglement operations performed over the interconnect.
    pub epr_entanglements: u64,
    /// Qubits allocated over the run.
    pub allocations: u64,
    /// Qubits freed over the run.
    pub frees: u64,
    /// Currently live qubits.
    pub live_qubits: u64,
    /// High-water mark of live qubits — the total quantum memory the
    /// distributed machine would need.
    pub max_live_qubits: u64,
}

/// The full, rank-aware backend surface held by every `QmpiRank` as
/// `Arc<dyn QuantumBackend>`. [`Shared`] is the one implementation, so
/// locality enforcement is uniform across engines.
pub trait QuantumBackend: Send + Sync {
    /// Which engine kind backs this world.
    fn kind(&self) -> BackendKind;

    /// The noise model the world's engine applies.
    fn noise(&self) -> NoiseModel;

    /// The engine's modeled run fidelity, if it maintains one (the trace
    /// backend's error-free probability; `None` elsewhere). See
    /// [`AmplitudeEngine::modeled_fidelity`].
    fn modeled_fidelity(&self) -> Option<f64>;

    /// The engine's transport accounting, if it is driven over a message
    /// substrate — see [`EngineStore::transport_stats`]. Per-job accounting
    /// (the `qserve` job service) reads these through the backend handle.
    fn transport_stats(&self) -> Option<TransportStats>;

    /// Does nothing and returns `Ok`: a stub kept only because the qperf
    /// harness still calls it. [`Self::apply_batch`] hands every flush to
    /// the engine at its call, so there is nothing left to ship.
    fn sync_coalesced(&self) -> Result<()> {
        Ok(())
    }

    /// Allocates `n` fresh |0> qubits owned by `rank`.
    fn alloc(&self, rank: usize, n: usize) -> Vec<QubitId>;

    /// Frees a classical-state qubit owned by `rank`.
    fn free(&self, rank: usize, q: QubitId) -> Result<bool>;

    /// Measures and frees a qubit owned by `rank`.
    fn measure_and_free(&self, rank: usize, q: QubitId) -> Result<bool>;

    /// Applies a recorded gate stream owned by `rank` in one backend
    /// acquisition — the only gate entry point. Per-rank gate calls
    /// accumulate into a [`qsim::GateBatch`] and flush through here (an
    /// eager gate is a batch of one), so the locality lock is taken once
    /// per *batch* — and the engine underneath sees the stream as one unit
    /// (queued, on the process-separated engine, for the frame of the next
    /// read).
    ///
    /// Every qubit in the batch is ownership-checked against `rank`
    /// *before* anything applies; an engine-level failure partway through
    /// leaves the preceding operations applied.
    fn apply_batch(&self, rank: usize, batch: &GateBatch) -> Result<()>;

    /// Probability of measuring 1 (non-destructive diagnostic).
    fn prob_one(&self, rank: usize, q: QubitId) -> Result<f64>;

    /// Local joint Z-parity measurement (all qubits on `rank`, qubits
    /// survive). Measuring one qubit projectively is `&[q]`.
    fn measure_z_parity(&self, rank: usize, qubits: &[QubitId]) -> Result<bool>;

    /// Models the quantum-coherent interconnect: entangles each pair of
    /// fresh |0> qubits on (possibly) different ranks into
    /// (|00> + |11>)/sqrt(2), all in one backend acquisition (one pair is a
    /// batch of one).
    ///
    /// This is the *only* cross-rank quantum operation; everything else
    /// must go through teleportation/fanout protocols built on it.
    /// Collectives that establish a whole spanning tree of pairs (the
    /// cat-state bcast) pass it at once, so `n - 1` establishments cost one
    /// lock round-trip instead of `n - 1`.
    fn entangle_epr_batch(&self, pairs: &[(QubitId, QubitId)]) -> Result<()>;

    /// Expectation value of a Pauli string over qubits owned by `rank`.
    /// Diagnostics pass [`DIAG_RANK`] to read across the whole machine.
    fn expectation(&self, rank: usize, terms: &[(QubitId, Pauli)]) -> Result<f64>;

    /// Expectation values of many Pauli strings — one observable, many
    /// terms — in one backend acquisition and one engine call
    /// ([`qsim::sim::AmpSim::expectation_each`]), each to [`Self::expectation`]'s
    /// bits, every qubit ownership-checked before anything is read. Term by
    /// term (per-site magnetization, multi-rank parity checks) costs a lock
    /// and, on the dense engine, a sweep per Z-only term.
    fn expectation_each(&self, rank: usize, strings: &[Vec<(QubitId, Pauli)>]) -> Result<Vec<f64>>;

    /// Global state snapshot in the given qubit order — diagnostics for
    /// tests and examples ("the state vector faithfully represents the
    /// quantum state of the distributed quantum computer", Section 6).
    /// Only the amplitude engines support it.
    fn state_vector(&self, order: &[QubitId]) -> Result<State>;

    /// Amplitude of the basis state with the qubits in `ones` set to 1 and
    /// every other live qubit 0, over qubits owned by `rank` (diagnostics
    /// pass [`DIAG_RANK`] to probe across the whole machine). Every
    /// amplitude engine answers it (see [`qsim::sim::AmpSim::amplitude_of`]);
    /// unlike [`Self::state_vector`], it works at paper-scale rank counts
    /// on the sparse backend. Amplitude-less engines report
    /// [`qsim::SimError::Unsupported`].
    fn amplitude_of(&self, rank: usize, ones: &[QubitId]) -> Result<qsim::Complex>;

    /// Total gates applied (diagnostics).
    fn gate_count(&self) -> u64;

    /// Aggregate operation counts (the `Trace` backend's primary output).
    fn counts(&self) -> OpCounts;
}

/// Engine state plus the ownership registry and resource counters — what
/// [`Shared`] guards. The ownership/locality semantics live here, written
/// once for every engine.
struct Inner<S> {
    engine: AmplitudeEngine<S>,
    owner: HashMap<QubitId, usize>,
    /// Qubits untouched since their alloc, so certainly |0>: an EPR
    /// establishment on them skips the freshness probe (a read, on an
    /// engine driven over a message substrate).
    fresh: HashSet<QubitId>,
    epr_entanglements: u64,
    allocations: u64,
    frees: u64,
    max_live: u64,
}

impl<S: EngineStore> Inner<S> {
    fn check_owner(&self, rank: usize, q: QubitId) -> Result<()> {
        match self.owner.get(&q) {
            None => Err(QmpiError::Sim(qsim::SimError::UnknownQubit(q))),
            Some(&o) if o == rank => Ok(()),
            Some(&o) => Err(QmpiError::Locality {
                qubit: q,
                owner: o,
                acting: rank,
            }),
        }
    }

    /// Ownership-checks every qubit a batch touches, before any of it
    /// applies.
    fn check_batch(&self, rank: usize, batch: &GateBatch) -> Result<()> {
        for op in batch.ops() {
            // Allocation-free qubit sweep: this runs under the backend
            // lock on every flush, so no per-op `Vec`s.
            let mut failed = None;
            op.for_each_qubit(|q| {
                if failed.is_none() {
                    failed = self.check_owner(rank, q).err();
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
            op.validate().map_err(QmpiError::Sim)?;
        }
        Ok(())
    }

    /// Takes every qubit an ownership-checked batch names out of the fresh
    /// set.
    fn touch_batch(&mut self, batch: &GateBatch) {
        if self.fresh.is_empty() {
            return;
        }
        for op in batch.ops() {
            op.for_each_qubit(|q| {
                self.fresh.remove(&q);
            });
        }
    }

    fn alloc(&mut self, rank: usize, n: usize) -> Vec<QubitId> {
        let ids: Vec<QubitId> = (0..n).map(|_| self.engine.alloc()).collect();
        for &id in &ids {
            self.owner.insert(id, rank);
            self.fresh.insert(id);
        }
        self.allocations += n as u64;
        let live = self.engine.n_qubits() as u64;
        self.max_live = self.max_live.max(live);
        ids
    }

    fn free(&mut self, rank: usize, q: QubitId) -> Result<bool> {
        self.check_owner(rank, q)?;
        self.fresh.remove(&q);
        let out = self.engine.free(q)?;
        self.owner.remove(&q);
        self.frees += 1;
        Ok(out)
    }

    fn measure_and_free(&mut self, rank: usize, q: QubitId) -> Result<bool> {
        self.check_owner(rank, q)?;
        self.fresh.remove(&q);
        let out = self.engine.measure_and_free(q)?;
        self.owner.remove(&q);
        self.frees += 1;
        Ok(out)
    }

    fn prob_one(&self, rank: usize, q: QubitId) -> Result<f64> {
        self.check_owner(rank, q)?;
        Ok(self.engine.prob_one(q)?)
    }

    fn measure_z_parity(&mut self, rank: usize, qubits: &[QubitId]) -> Result<bool> {
        for &q in qubits {
            self.check_owner(rank, q)?;
            self.fresh.remove(&q);
        }
        Ok(self.engine.measure_z_parity(qubits)?)
    }

    fn entangle_epr(&mut self, qa: QubitId, qb: QubitId) -> Result<()> {
        if !self.owner.contains_key(&qa) {
            return Err(QmpiError::Sim(qsim::SimError::UnknownQubit(qa)));
        }
        if !self.owner.contains_key(&qb) {
            return Err(QmpiError::Sim(qsim::SimError::UnknownQubit(qb)));
        }
        for &q in &[qa, qb] {
            if !self.fresh.contains(&q) && self.engine.prob_one(q)? > 1e-9 {
                return Err(QmpiError::EprQubitNotFresh(q));
            }
        }
        self.engine.entangle_epr(qa, qb)?;
        self.fresh.remove(&qa);
        self.fresh.remove(&qb);
        self.epr_entanglements += 1;
        Ok(())
    }

    fn expectation_each(&self, rank: usize, strings: &[Vec<(QubitId, Pauli)>]) -> Result<Vec<f64>> {
        if rank != DIAG_RANK {
            for &(q, _) in strings.iter().flatten() {
                self.check_owner(rank, q)?;
            }
        }
        Ok(self.engine.expectation_each(strings)?)
    }

    fn amplitude_of(&self, rank: usize, ones: &[QubitId]) -> Result<qsim::Complex> {
        if rank != DIAG_RANK {
            for &q in ones {
                self.check_owner(rank, q)?;
            }
        }
        Ok(self.engine.amplitude_of(ones)?)
    }

    fn counts(&self) -> OpCounts {
        OpCounts {
            gates: self.engine.gate_count(),
            measurements: self.engine.measurement_count(),
            epr_entanglements: self.epr_entanglements,
            allocations: self.allocations,
            frees: self.frees,
            live_qubits: self.engine.n_qubits() as u64,
            max_live_qubits: self.max_live,
        }
    }
}

/// The locality wrapper and the one [`QuantumBackend`]: a reader-writer
/// locked [`AmplitudeEngine`] plus the qubit-ownership registry and resource
/// counters, so ownership/locality semantics are written exactly once.
///
/// Every quantum operation — gate batches, alloc/free, measurement, EPR
/// establishment, expectations, snapshots — takes the exclusive side; only
/// read-only accessors (counters, ownership lookups, transport stats) take
/// the shared side. A rank's flushed gate batch is ownership-checked and
/// handed to the engine under that one acquisition, on every engine. The
/// process-separated engine's store queues it there and ships it in the
/// frame of the next read (see [`remote`]), so concurrent ranks' flushes
/// share that read's command round without any joining here.
pub struct Shared<S> {
    /// Cached at construction so [`QuantumBackend::kind`] never touches the
    /// lock that serializes quantum operations.
    kind: BackendKind,
    /// Cached like `kind`: the model is immutable after construction.
    noise: NoiseModel,
    inner: RwLock<Inner<S>>,
}

impl<S: EngineStore> Shared<S> {
    /// Wraps an engine.
    pub fn new(engine: AmplitudeEngine<S>) -> Self {
        Shared {
            kind: engine.kind(),
            noise: engine.noise_model(),
            inner: RwLock::new(Inner {
                engine,
                owner: HashMap::new(),
                fresh: HashSet::new(),
                epr_entanglements: 0,
                allocations: 0,
                frees: 0,
                max_live: 0,
            }),
        }
    }
}

impl<S: EngineStore> QuantumBackend for Shared<S> {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn noise(&self) -> NoiseModel {
        self.noise
    }

    fn modeled_fidelity(&self) -> Option<f64> {
        self.inner.read().engine.modeled_fidelity()
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        self.inner.read().engine.raw_state().transport_stats()
    }

    fn alloc(&self, rank: usize, n: usize) -> Vec<QubitId> {
        self.inner.write().alloc(rank, n)
    }

    fn free(&self, rank: usize, q: QubitId) -> Result<bool> {
        self.inner.write().free(rank, q)
    }

    fn measure_and_free(&self, rank: usize, q: QubitId) -> Result<bool> {
        self.inner.write().measure_and_free(rank, q)
    }

    fn apply_batch(&self, rank: usize, batch: &GateBatch) -> Result<()> {
        // One acquisition (plus one ownership sweep) for the whole gate
        // stream — the lock-per-batch rule. Ownership errors surface here,
        // before any op applies.
        let mut g = self.inner.write();
        g.check_batch(rank, batch)?;
        g.touch_batch(batch);
        Ok(g.engine.apply_batch(batch)?)
    }

    fn prob_one(&self, rank: usize, q: QubitId) -> Result<f64> {
        self.inner.write().prob_one(rank, q)
    }

    fn measure_z_parity(&self, rank: usize, qubits: &[QubitId]) -> Result<bool> {
        self.inner.write().measure_z_parity(rank, qubits)
    }

    fn entangle_epr_batch(&self, pairs: &[(QubitId, QubitId)]) -> Result<()> {
        let mut g = self.inner.write();
        pairs
            .iter()
            .try_for_each(|&(qa, qb)| g.entangle_epr(qa, qb))
    }

    fn expectation(&self, rank: usize, terms: &[(QubitId, Pauli)]) -> Result<f64> {
        Ok(self.expectation_each(rank, &[terms.to_vec()])?[0])
    }

    fn expectation_each(&self, rank: usize, strings: &[Vec<(QubitId, Pauli)>]) -> Result<Vec<f64>> {
        self.inner.write().expectation_each(rank, strings)
    }

    fn state_vector(&self, order: &[QubitId]) -> Result<State> {
        Ok(self.inner.write().engine.state_vector(order)?)
    }

    fn amplitude_of(&self, rank: usize, ones: &[QubitId]) -> Result<qsim::Complex> {
        self.inner.write().amplitude_of(rank, ones)
    }

    fn gate_count(&self) -> u64 {
        self.inner.read().engine.gate_count()
    }

    fn counts(&self) -> OpCounts {
        self.inner.read().counts()
    }
}

/// Op-to-batch helpers shared with the integration suites.
#[cfg(test)]
#[path = "../../../../tests/common/ops.rs"]
pub(crate) mod ops;

#[cfg(test)]
mod tests {
    use super::*;

    /// Rearms the once-per-process shard-clamp warning so the next
    /// [`build_backend`] that clamps will print (and return `true` from the
    /// emitter) again: lets the clamp test assert both sides of the latch
    /// without depending on process-wide test ordering.
    fn reset_clamp_warning_for_tests() {
        CLAMP_WARNING_EMITTED.store(false, std::sync::atomic::Ordering::Relaxed);
    }

    /// The unified construction path over the in-process transport, ideal
    /// noise.
    fn build(kind: BackendKind, seed: u64) -> Arc<dyn QuantumBackend> {
        build_backend(kind, TransportKind::InProcess, seed, NoiseModel::ideal())
            .expect("test backend configurations are valid")
    }

    fn all_kinds() -> [BackendKind; 5] {
        [
            BackendKind::StateVector,
            BackendKind::Stabilizer,
            BackendKind::Trace,
            BackendKind::Sparse,
            BackendKind::RemoteSharded { shards: 2 },
        ]
    }

    /// Kinds that track real quantum state (trace excluded).
    fn stateful_kinds() -> [BackendKind; 4] {
        [
            BackendKind::StateVector,
            BackendKind::Stabilizer,
            BackendKind::Sparse,
            BackendKind::RemoteSharded { shards: 2 },
        ]
    }

    /// The one gate surface's contract, checked on every backend kind:
    /// batch granularity is unobservable, locality is checked before
    /// anything applies, an engine failure leaves the prefix applied, and
    /// an eager world's gates reach the engine at once — on the remote
    /// engine they then wait in the store's queue for the next read,
    /// costing no command round.
    #[test]
    fn gate_surface_contract_holds_on_every_backend() {
        use crate::context::{run_on_backend, QmpiConfig};
        use qsim::{BatchOp, Gate};
        for kind in all_kinds() {
            let non_clifford = kind != BackendKind::Stabilizer;
            let circuit = |q: &[QubitId]| {
                vec![
                    BatchOp::Gate {
                        gate: Gate::H,
                        q: q[0],
                    },
                    BatchOp::Cnot { c: q[0], t: q[1] },
                    BatchOp::Gate {
                        gate: if non_clifford { Gate::T } else { Gate::S },
                        q: q[2],
                    },
                    BatchOp::Swap { a: q[1], b: q[2] },
                    BatchOp::Cz { a: q[0], b: q[2] },
                    BatchOp::Controlled {
                        controls: vec![q[2]],
                        gate: Gate::X,
                        target: q[1],
                    },
                ]
            };

            // N one-op batches == one N-op batch.
            let (split, whole) = (build(kind, 5), build(kind, 5));
            let (sq, wq) = (split.alloc(0, 3), whole.alloc(0, 3));
            for op in circuit(&sq) {
                split.apply_batch(0, &ops::batch([op])).unwrap();
            }
            whole.apply_batch(0, &ops::batch(circuit(&wq))).unwrap();
            assert_eq!(split.counts(), whole.counts(), "{kind}");
            assert_eq!(whole.counts().gates, 6, "{kind}");
            if let (Ok(want), Ok(got)) = (split.state_vector(&sq), whole.state_vector(&wq)) {
                for i in 0..want.len() {
                    let (w, g) = (want.amplitude(i), got.amplitude(i));
                    assert!(
                        w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                        "{kind} amp[{i}]: {w:?} vs {g:?}"
                    );
                }
            }

            // A cross-rank qubit anywhere in a batch: typed rejection
            // before any op applies.
            let theirs = whole.alloc(1, 1)[0];
            let mut crossing = circuit(&wq);
            crossing.push(BatchOp::Cnot {
                c: wq[0],
                t: theirs,
            });
            assert_eq!(
                whole.apply_batch(0, &ops::batch(crossing)),
                Err(QmpiError::Locality {
                    qubit: theirs,
                    owner: 1,
                    acting: 0
                }),
                "{kind}"
            );
            assert_eq!(whole.gate_count(), 6, "{kind}: rejected batch applied ops");

            // An engine-level failure mid-batch leaves the prefix applied.
            if !non_clifford {
                let failing = ops::batch(
                    [Gate::H, Gate::T, Gate::H].map(|gate| BatchOp::Gate { gate, q: wq[0] }),
                );
                assert!(matches!(
                    whole.apply_batch(0, &failing),
                    Err(QmpiError::Sim(qsim::SimError::Unsupported(_)))
                ));
                assert_eq!(
                    whole.gate_count(),
                    7,
                    "{kind}: H lands, T fails, H never runs"
                );
            }

            // An eager world hands each gate to the engine at its call
            // site; on the remote engine none of them is a command round,
            // and the measurement that follows is one read for all three.
            let backend = build(kind, 5);
            let config = QmpiConfig::new().batch(BatchPolicy::eager()).backend(kind);
            let run = run_on_backend(1, config, Arc::clone(&backend), |ctx| {
                let q = ctx.alloc_one();
                // A handle taken up front: reading through it is not a
                // flush point.
                let backend = Arc::clone(ctx.backend());
                let rounds = || backend.transport_stats().map(|t| t.command_rounds);
                let (gates, before) = (backend.gate_count(), rounds());
                for landed in 1..=3 {
                    ctx.h(&q).unwrap();
                    assert_eq!(backend.gate_count(), gates + landed);
                }
                let gates_cost = rounds().map(|after| after - before.unwrap());
                let before = rounds();
                ctx.measure(&q).unwrap();
                let read_cost = rounds().map(|after| after - before.unwrap());
                ctx.measure_and_free(q).unwrap();
                (gates_cost, read_cost)
            });
            let remote = matches!(kind, BackendKind::RemoteSharded { .. });
            let expect = (remote.then_some(0), remote.then_some(1));
            assert_eq!(run.results, vec![expect], "{kind}");
        }
    }

    #[test]
    fn entangle_epr_creates_bell_pair() {
        let b = build(BackendKind::StateVector, 3);
        let qa = b.alloc(0, 1)[0];
        let qb = b.alloc(1, 1)[0];
        b.entangle_epr_batch(&[(qa, qb)]).unwrap();
        let st = b.state_vector(&[qa, qb]).unwrap();
        assert!((st.probability(0b00) - 0.5).abs() < 1e-10);
        assert!((st.probability(0b11) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn entangle_epr_correlates_on_stabilizer() {
        let b = build(BackendKind::Stabilizer, 3);
        let qa = b.alloc(0, 1)[0];
        let qb = b.alloc(1, 1)[0];
        b.entangle_epr_batch(&[(qa, qb)]).unwrap();
        assert_eq!(
            b.expectation(DIAG_RANK, &[(qa, Pauli::Z), (qb, Pauli::Z)]),
            Ok(1.0)
        );
        let ma = b.measure_z_parity(0, &[qa]).unwrap();
        let mb = b.measure_z_parity(1, &[qb]).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn entangle_requires_fresh_qubits() {
        for kind in stateful_kinds() {
            let b = build(kind, 3);
            let qa = b.alloc(0, 1)[0];
            let qb = b.alloc(1, 1)[0];
            b.apply_batch(0, &ops::gate(qsim::Gate::X, qa)).unwrap();
            assert_eq!(
                b.entangle_epr_batch(&[(qa, qb)]),
                Err(QmpiError::EprQubitNotFresh(qa)),
                "{kind}"
            );
        }
    }

    #[test]
    fn free_transfers_out_of_registry() {
        for kind in all_kinds() {
            let b = build(kind, 1);
            let q = b.alloc(0, 1)[0];
            assert_eq!(b.free(0, q), Ok(false), "{kind}");
            assert!(
                b.apply_batch(0, &ops::gate(qsim::Gate::X, q)).is_err(),
                "{kind}"
            );
        }
    }

    #[test]
    fn cross_rank_free_rejected() {
        for kind in all_kinds() {
            let b = build(kind, 1);
            let q = b.alloc(0, 1)[0];
            assert!(
                matches!(b.free(1, q), Err(QmpiError::Locality { .. })),
                "{kind}"
            );
        }
    }

    #[test]
    fn epr_measurements_agree() {
        for kind in stateful_kinds() {
            let b = build(kind, 9);
            let qa = b.alloc(0, 1)[0];
            let qb = b.alloc(1, 1)[0];
            b.entangle_epr_batch(&[(qa, qb)]).unwrap();
            let ma = b.measure_z_parity(0, &[qa]).unwrap();
            let mb = b.measure_z_parity(1, &[qb]).unwrap();
            assert_eq!(ma, mb, "{kind}");
        }
    }

    #[test]
    fn expectation_enforces_ownership() {
        // The doc always promised a rank-ownership check; the wrapper now
        // performs it (diagnostics opt out via DIAG_RANK).
        for kind in stateful_kinds() {
            let b = build(kind, 5);
            let q0 = b.alloc(0, 1)[0];
            let q1 = b.alloc(1, 1)[0];
            assert!(b.expectation(0, &[(q0, Pauli::Z)]).is_ok(), "{kind}");
            assert!(
                matches!(
                    b.expectation(0, &[(q0, Pauli::Z), (q1, Pauli::Z)]),
                    Err(QmpiError::Locality { .. })
                ),
                "{kind}: cross-rank expectation must be rejected"
            );
            assert!(
                b.expectation(DIAG_RANK, &[(q0, Pauli::Z), (q1, Pauli::Z)])
                    .is_ok(),
                "{kind}"
            );
        }
    }

    #[test]
    fn clamp_warning_latch_is_observable_and_resettable() {
        // No other test in this binary builds a clamping shard count, so
        // between the reset and the emission below the latch is ours
        // alone — both sides of the transition are assertable.
        reset_clamp_warning_for_tests();
        assert!(
            emit_clamp_warning_once("test warning (armed)"),
            "a freshly reset latch must print"
        );
        assert!(
            !emit_clamp_warning_once("test warning (suppressed)"),
            "the second emission must be suppressed"
        );
        assert!(!emit_clamp_warning_once("test warning (still suppressed)"));
        // Rearming is repeatable, not a one-way door per process.
        reset_clamp_warning_for_tests();
        assert!(emit_clamp_warning_once("test warning (re-armed)"));
    }

    #[test]
    fn shard_clamp_warning_fires_only_when_the_count_changes() {
        // In-range powers of two pass silently.
        assert_eq!(
            BackendKind::RemoteSharded { shards: 4 }.shard_clamp_warning(),
            None
        );
        assert_eq!(
            BackendKind::ShardedStateVector { shards: 8 }.shard_clamp_warning(),
            None
        );
        // The other name of the remote engine follows its rule exactly.
        assert_eq!(
            BackendKind::ShardedStateVector { shards: 4 }.effective_shards(),
            BackendKind::RemoteSharded { shards: 4 }.effective_shards()
        );
        assert_eq!(BackendKind::StateVector.shard_clamp_warning(), None);
        // Over the remote cap: clamped to 64 with a visible message.
        let w = BackendKind::RemoteSharded { shards: 128 }
            .shard_clamp_warning()
            .expect("128 remote shards must warn");
        assert!(
            w.contains("128") && w.contains("64") && w.contains("clamped"),
            "{w}"
        );
        assert_eq!(
            BackendKind::RemoteSharded { shards: 128 }.effective_shards(),
            Some(64)
        );
        // Zero: clamped up to 1.
        assert!(BackendKind::RemoteSharded { shards: 0 }
            .shard_clamp_warning()
            .is_some());
        // Non-power-of-two inside the range: rounded, different message.
        let w = BackendKind::ShardedStateVector { shards: 6 }
            .shard_clamp_warning()
            .expect("6 shards round to 8");
        assert!(w.contains("rounded") && w.contains('8'), "{w}");
        // The other name has no cap of its own.
        assert_eq!(
            BackendKind::ShardedStateVector { shards: 1000 }.effective_shards(),
            Some(64)
        );
    }

    #[test]
    fn trace_backend_counts_operations() {
        let b = build(BackendKind::Trace, 0);
        let qs = b.alloc(0, 3);
        b.apply_batch(0, &ops::gate(qsim::Gate::H, qs[0])).unwrap();
        b.apply_batch(0, &ops::cnot(qs[0], qs[1])).unwrap();
        b.entangle_epr_batch(&[(qs[1], qs[2])]).unwrap();
        b.measure_z_parity(0, &[qs[0]]).unwrap();
        let c = b.counts();
        assert_eq!(c.allocations, 3);
        assert_eq!(c.epr_entanglements, 1);
        assert_eq!(c.measurements, 1);
        // H + CNOT + the EPR's internal H/CNOT pair.
        assert_eq!(c.gates, 4);
        assert_eq!(c.live_qubits, 3);
        assert_eq!(c.max_live_qubits, 3);
    }

    #[test]
    fn stabilizer_rejects_non_clifford() {
        let b = build(BackendKind::Stabilizer, 1);
        let q = b.alloc(0, 1)[0];
        assert!(matches!(
            b.apply_batch(0, &ops::gate(qsim::Gate::T, q)),
            Err(QmpiError::Sim(qsim::SimError::Unsupported(_)))
        ));
    }

    /// No other test in this binary spawns worker processes, so pointing
    /// the lookup at a missing file races with nothing.
    #[test]
    fn missing_qworker_binary_is_a_typed_error() {
        std::env::set_var("QMPI_QWORKER_BIN", "/nonexistent/qworker");
        let err = build_backend(
            BackendKind::RemoteSharded { shards: 2 },
            TransportKind::UnixSocket,
            1,
            NoiseModel::ideal(),
        )
        .err()
        .expect("no worker binary, no backend");
        let QmpiError::InvalidArgument(msg) = err else {
            panic!("expected InvalidArgument, got {err:?}");
        };
        assert!(
            msg.contains("unix-socket") && msg.contains("/nonexistent/qworker"),
            "{msg}"
        );
    }

    #[test]
    fn non_dense_backends_refuse_state_vector() {
        for kind in [BackendKind::Stabilizer, BackendKind::Trace] {
            let b = build(kind, 1);
            let q = b.alloc(0, 1)[0];
            assert!(
                matches!(
                    b.state_vector(&[q]),
                    Err(QmpiError::Sim(qsim::SimError::Unsupported(_)))
                ),
                "{kind}"
            );
        }
    }

    #[test]
    fn max_live_tracks_high_water_mark() {
        let b = build(BackendKind::Trace, 0);
        let qs = b.alloc(0, 5);
        for q in qs {
            b.measure_and_free(0, q).unwrap();
        }
        let more = b.alloc(0, 2);
        let c = b.counts();
        assert_eq!(c.live_qubits, 2);
        assert_eq!(c.max_live_qubits, 5);
        assert_eq!(c.frees, 5);
        for q in more {
            b.free(0, q).unwrap();
        }
    }
}
