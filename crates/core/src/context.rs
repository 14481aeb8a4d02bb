//! QMPI world setup and the per-rank context handle.
//!
//! [`run`] is the analogue of launching a QMPI program with `mpirun`: it
//! starts `n` ranks, wires them to a shared simulation [`QuantumBackend`],
//! and hands each a [`QmpiRank`] — the `QMPI_COMM_WORLD` of the paper. All quantum
//! nodes also speak classical MPI (Section 4.1), exposed via
//! [`QmpiRank::classical`].

use crate::backend::{BackendKind, QuantumBackend};
use crate::error::{QmpiError, Result};
use crate::qubit::Qubit;
use crate::resources::{ResourceLedger, ResourceSnapshot};
use cmpi::{Communicator, TransportKind, Universe};
use qsim::noise::NoiseModel;
use std::sync::Arc;

/// User-visible message tag (the paper's `tag` argument).
pub type QTag = u16;

/// Internal protocol channels, namespaced into the high bits of the
/// classical substrate's 32-bit tag space.
#[derive(Clone, Copy, Debug)]
#[repr(u32)]
pub(crate) enum ProtoOp {
    /// EPR rendezvous: the higher rank's qubit id.
    EprId = 1,
    /// EPR rendezvous: establishment acknowledgement.
    EprAck = 2,
    /// Entangled-copy fixup bit (QMPI_Send -> Recv).
    CopyFix = 3,
    /// Uncopy fixup bit (QMPI_Unrecv -> Unsend).
    UncopyFix = 4,
    /// Teleportation fixup bits (QMPI_Send_move -> Recv_move).
    MoveFix = 5,
}

/// Which side of a directed p2p operation an EPR preparation belongs to.
/// Crossing traffic (both ranks sending to each other with the same tag,
/// e.g. `QMPI_Sendrecv_replace`) must not mis-pair rendezvous messages, so
/// the origin and target sides post on distinct streams; the symmetric
/// role serves the public `QMPI_Prepare_EPR`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EprRole {
    /// Both sides call `QMPI_Prepare_EPR` symmetrically.
    Symmetric,
    /// The sending side of a directed operation.
    Origin,
    /// The receiving side of a directed operation.
    Target,
}

impl EprRole {
    pub(crate) fn opposite(self) -> EprRole {
        match self {
            EprRole::Symmetric => EprRole::Symmetric,
            EprRole::Origin => EprRole::Target,
            EprRole::Target => EprRole::Origin,
        }
    }

    fn bits(self) -> u32 {
        match self {
            EprRole::Symmetric => 0,
            EprRole::Origin => 1,
            EprRole::Target => 2,
        }
    }
}

pub(crate) fn ptag(op: ProtoOp, user_tag: QTag) -> cmpi::Tag {
    ((op as u32) << 20) | user_tag as u32
}

pub(crate) fn ptag_role(op: ProtoOp, role: EprRole, user_tag: QTag) -> cmpi::Tag {
    ((op as u32) << 20) | (role.bits() << 16) | user_tag as u32
}

/// How a rank's pending gate stream batches, optimizes, and flushes.
///
/// Gate calls append to a per-rank [`qsim::GateBatch`]; the policy bounds
/// the memory such a stream can pin (the op and byte budgets) and decides
/// whether the plan-time optimizer ([`qsim::optimize`]) rewrites each
/// batch into fused kernel sweeps before dispatch. [`QmpiConfig::new`]
/// starts from [`BatchPolicy::default`], and only a
/// [`QmpiConfig::batch`] call changes it: no environment variable does.
///
/// ```
/// use qmpi::{BatchPolicy, QmpiConfig};
///
/// let cfg = QmpiConfig::new().batch(BatchPolicy {
///     max_ops: 64,
///     ..BatchPolicy::default()
/// });
/// assert_eq!(cfg.batch_policy().max_ops, 64);
/// assert!(!BatchPolicy::eager().is_batching());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Auto-flush once this many ops are pending. `0` disables batching
    /// entirely: every gate call dispatches eagerly, as a batch of one.
    pub max_ops: usize,
    /// Auto-flush once the pending stream's approximate in-memory size
    /// ([`qsim::GateBatch::approx_bytes`]) reaches this many bytes —
    /// bounds memory without cutting fusion windows at an arbitrary op
    /// count when ops are small.
    pub max_bytes: usize,
    /// Run the plan-time optimizer on every flushed batch (1q-run fusion
    /// and diagonal phase-sweep merging; see [`qsim::optimize`]). Only
    /// consulted where fusion is sound: every backend but the trace engine,
    /// under an ideal noise model. Latency stays bounded by the flush points
    /// themselves — fusion never delays dispatch.
    pub fuse: bool,
    /// Nothing reads it: a stub kept only because the qperf harness
    /// records it in its run description. Every flush reaches the backend
    /// at its call.
    pub coalesce: bool,
    /// Nothing reads it: a stub kept only because the qperf harness
    /// records it in its run description.
    pub max_age_ms: u64,
}

impl Default for BatchPolicy {
    /// 4096 pending ops or ~1 MiB of recorded stream, optimizer on.
    fn default() -> Self {
        BatchPolicy {
            max_ops: 4096,
            max_bytes: 1 << 20,
            fuse: true,
            coalesce: true,
            max_age_ms: 0,
        }
    }
}

impl BatchPolicy {
    /// The no-batching policy: every gate dispatches at its call site.
    pub fn eager() -> Self {
        BatchPolicy {
            max_ops: 0,
            max_bytes: 0,
            fuse: false,
            coalesce: false,
            max_age_ms: 0,
        }
    }

    /// Whether gate calls accumulate at all (`max_ops > 0`).
    pub fn is_batching(&self) -> bool {
        self.max_ops > 0
    }
}

/// World configuration, built fluently:
///
/// ```
/// use qmpi::{BackendKind, QmpiConfig};
///
/// let cfg = QmpiConfig::new()
///     .seed(7)
///     .s_limit(4)
///     .backend(BackendKind::Stabilizer);
/// assert_eq!(cfg.backend_kind(), BackendKind::Stabilizer);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct QmpiConfig {
    /// Measurement RNG seed (deterministic runs).
    pub(crate) seed: u64,
    /// Optional per-rank EPR buffer limit — the SENDQ `S` parameter.
    /// Exceeding it is an error, so algorithms can be validated against a
    /// target machine's buffer budget.
    pub(crate) s_limit: Option<u32>,
    /// Which simulation engine backs the world.
    pub(crate) backend: BackendKind,
    /// Where the backend's shard workers live (in-process threads by
    /// default; real child processes for the socket transports). Only the
    /// [`BackendKind::RemoteSharded`] engine has workers, so other kinds
    /// ignore this.
    pub(crate) transport: TransportKind,
    /// Noise model applied by the engine (ideal by default).
    pub(crate) noise: NoiseModel,
    /// How per-rank gate streams batch, optimize, and flush.
    pub(crate) batch: BatchPolicy,
}

impl QmpiConfig {
    /// The default configuration (state-vector backend, fixed seed, no
    /// buffer limit, in-process workers, ideal noise,
    /// [`BatchPolicy::default`]); identical to [`QmpiConfig::default`].
    /// Nothing in the environment changes it.
    pub fn new() -> Self {
        QmpiConfig::default()
    }

    /// Sets the measurement RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-rank EPR buffer limit (the SENDQ `S` parameter).
    pub fn s_limit(mut self, limit: u32) -> Self {
        self.s_limit = Some(limit);
        self
    }

    /// Removes the EPR buffer limit.
    pub fn unlimited_buffer(mut self) -> Self {
        self.s_limit = None;
        self
    }

    /// Selects the simulation backend for the world.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Selects the shard-worker transport for the world's backend: where
    /// the [`BackendKind::RemoteSharded`] engine's workers live and how
    /// they speak. [`TransportKind::InProcess`] (the default) runs them as
    /// threads over in-process pipes; [`TransportKind::UnixSocket`] spawns
    /// real `qworker` child processes behind framed Unix domain sockets,
    /// with failover. Backends without shard workers ignore the setting.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Sets the noise model the world's engine applies — imperfect gates,
    /// measurements, and EPR pairs for fidelity-vs-`S`-budget studies:
    ///
    /// ```
    /// use qmpi::{run_with_config, BackendKind, NoiseChannel, NoiseModel, QmpiConfig};
    ///
    /// // 5% depolarizing on each half of every EPR pair; everything else
    /// // ideal. Clifford-compatible, so it runs on the stabilizer backend.
    /// let cfg = QmpiConfig::new()
    ///     .seed(7)
    ///     .backend(BackendKind::Stabilizer)
    ///     .noise(NoiseModel::epr_only(NoiseChannel::Depolarizing { p: 0.05 }));
    /// let out = run_with_config(2, cfg, |ctx| {
    ///     let q = ctx.alloc_one();
    ///     ctx.prepare_epr(&q, 1 - ctx.rank(), 0).unwrap();
    ///     ctx.measure_and_free(q).unwrap()
    /// });
    /// assert_eq!(out.len(), 2); // correlated except when the channel fired
    /// ```
    pub fn noise(mut self, model: NoiseModel) -> Self {
        self.noise = model;
        self
    }

    /// The configured noise model.
    pub fn noise_model(&self) -> NoiseModel {
        self.noise
    }

    /// The configured measurement RNG seed.
    pub fn rng_seed(&self) -> u64 {
        self.seed
    }

    /// The configured EPR buffer limit, if any.
    pub fn epr_buffer_limit(&self) -> Option<u32> {
        self.s_limit
    }

    /// The configured backend kind.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// The configured shard-worker transport.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport
    }

    /// Builds the configured backend — kind, transport, seed, and noise in
    /// one construction point (see [`crate::backend::build_backend`]).
    /// This is what [`crate::run_with_config`] calls; it is public so
    /// schedulers that manage backends themselves (qserve) construct them
    /// identically.
    pub fn build_backend(&self) -> crate::error::Result<Arc<dyn QuantumBackend>> {
        crate::backend::build_backend(self.backend, self.transport, self.seed, self.noise)
    }

    /// Sets the full batch policy for the world, replacing the
    /// [`BatchPolicy::default`] that [`QmpiConfig::new`] starts from. With batching
    /// on (`max_ops > 0`), rank-local gate calls append to a per-rank
    /// [`qsim::GateBatch`] that flushes lazily — on measurement,
    /// probability/expectation reads, allocation, EPR establishment,
    /// barriers, backend access, budget exhaustion, or an explicit
    /// [`crate::QmpiRank::flush`] — so the backend takes its locality lock
    /// once per *batch* instead of once per gate. Flush points are placed so
    /// batched and eager runs are bit-identical per seed; with
    /// [`BatchPolicy::fuse`] on, each flushed batch is additionally
    /// rewritten into fewer kernel sweeps (matching to ~1e-12 rather than
    /// bitwise; see `docs/ARCHITECTURE.md`).
    pub fn batch(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// The configured batch policy.
    pub fn batch_policy(&self) -> BatchPolicy {
        self.batch
    }
}

impl Default for QmpiConfig {
    fn default() -> Self {
        QmpiConfig {
            seed: 0x514D5049, // "QMPI"
            s_limit: None,
            backend: BackendKind::default(),
            transport: TransportKind::default(),
            noise: NoiseModel::ideal(),
            batch: BatchPolicy::default(),
        }
    }
}

/// Per-rank QMPI context: quantum allocation, gates, and communication.
pub struct QmpiRank {
    pub(crate) proto: Communicator,
    classical: Communicator,
    pub(crate) backend: Arc<dyn QuantumBackend>,
    pub(crate) ledger: Arc<ResourceLedger>,
    pub(crate) config: QmpiConfig,
    /// Sequence number for quantum collectives. Identical across ranks since
    /// collectives must be invoked in the same order everywhere; used to
    /// derive private tags in the reserved range `0x8000..`.
    pub(crate) qcoll_seq: std::cell::Cell<u16>,
    /// The rank's pending gate stream: gate calls append here under a
    /// batching [`BatchPolicy`], and every state-observing or
    /// state-restructuring operation flushes it first (see
    /// [`QmpiRank::flush`]). A rank is single-threaded, so a `RefCell`
    /// suffices.
    pub(crate) pending: std::cell::RefCell<qsim::GateBatch>,
    /// Whether flushed batches run through the plan-time optimizer:
    /// [`BatchPolicy::fuse`] is on AND the world's noise model is ideal
    /// AND its backend is not the trace engine (resolved once at world
    /// construction). Fusing would otherwise change the op stream that
    /// noise injection and the trace engine's counts key on.
    pub(crate) fuse: bool,
    /// A flush error raised at an infallible flush point (an accessor like
    /// [`QmpiRank::classical`] that cannot return `Result`). Parked here
    /// and surfaced — typed — by the next fallible QMPI call instead of
    /// panicking inside the accessor.
    deferred: std::cell::RefCell<Option<QmpiError>>,
    /// One `(peer, tag, role)` entry per EPR request dropped before its
    /// protocol ran: the peer's message for it (on the lower rank its
    /// qubit id, on the higher the acknowledgement) still arrives on that
    /// stream, and the next request waited on there discards it first (see
    /// [`crate::epr::EprRequest`]).
    pub(crate) abandoned_epr: std::cell::RefCell<Vec<(usize, QTag, EprRole)>>,
}

impl QmpiRank {
    /// This rank's id (QMPI_Comm_rank on QMPI_COMM_WORLD).
    pub fn rank(&self) -> usize {
        self.proto.rank()
    }

    /// Number of quantum ranks (QMPI_Comm_size on QMPI_COMM_WORLD).
    pub fn size(&self) -> usize {
        self.proto.size()
    }

    /// The classical MPI communicator for user data (measurement results,
    /// parameters, ...). Fully separate from quantum communication, as the
    /// paper's Section 4.2 requires.
    ///
    /// A flush point: a classical message is the one way a rank can signal
    /// "my gates are done" to a peer, so any gates recorded before the
    /// signal must land before it can be sent — that keeps cross-rank
    /// orderings established by classical traffic identical between the
    /// batched and eager paths (and with them, the shared noise-stream
    /// draw order).
    ///
    /// The flush fires at *this accessor*, which covers the idiomatic
    /// `ctx.classical().send(..)` form. Storing the returned reference and
    /// interleaving gate calls before sending through it bypasses the
    /// flush (the communicator knows nothing about the backend) — call
    /// [`QmpiRank::flush`] yourself in that pattern, or re-fetch the
    /// communicator per operation.
    pub fn classical(&self) -> &Communicator {
        self.flush_or_defer();
        &self.classical
    }

    /// Applies the rank's pending gate stream as one batched backend call
    /// (one locality-lock acquisition; on the process-separated engine the
    /// batch waits in the store's queue for the next read). No-op when
    /// nothing is pending or
    /// batching is off.
    ///
    /// Called automatically at every point where deferred gates could be
    /// observed: measurement, probability and expectation reads, qubit
    /// allocation and frees, EPR establishment, barriers, and
    /// [`QmpiRank::backend`] access. Call it explicitly to bound gate
    /// latency (e.g. before timing a communication round).
    ///
    /// A batch-wide ownership or validation failure surfaces here — as a
    /// typed [`QmpiError`] at the flush call site — rather than at the
    /// gate call that recorded the failing op (or as a panic deep in the
    /// locality wrapper); ops preceding the failing one are applied,
    /// exactly as if issued eagerly. An error deferred by an infallible
    /// flush point (see [`QmpiRank::classical`]) is surfaced first.
    pub fn flush(&self) -> Result<()> {
        if let Some(e) = self.deferred.borrow_mut().take() {
            return Err(e);
        }
        let batch = self.pending.borrow_mut().take();
        if batch.is_empty() {
            return Ok(());
        }
        let batch = if self.fuse {
            qsim::optimize(batch)
        } else {
            batch
        };
        self.backend.apply_batch(self.rank(), &batch)
    }

    /// Flush for the accessors that cannot return `Result`: a failure is
    /// parked in `deferred` (first error wins) and re-raised, typed, by
    /// the next fallible call instead of panicking here.
    fn flush_or_defer(&self) {
        if let Err(e) = self.flush() {
            self.deferred.borrow_mut().get_or_insert(e);
        }
    }

    /// Records one gate op (or dispatches it immediately with batching
    /// off). Errors that do not need engine state still surface *at the
    /// call site*, exactly like the eager path: structural faults
    /// (duplicate qubits) via [`qsim::BatchOp::validate`], and
    /// non-Clifford ops on the stabilizer backend by routing them eagerly.
    /// With qubit handles being linear (a freed [`Qubit`] cannot be
    /// named), that leaves no engine error a *recorded* op can raise at
    /// its flush point.
    pub(crate) fn enqueue(&self, op: qsim::BatchOp) -> Result<()> {
        op.validate().map_err(QmpiError::Sim)?;
        let policy = self.config.batch;
        if !policy.is_batching()
            || (self.backend.kind() == BackendKind::Stabilizer && !op.is_clifford())
        {
            // The eager path proper: flush anything recorded before the
            // mode switch, then dispatch this op as a batch of one.
            self.flush()?;
            let mut one = qsim::GateBatch::new();
            one.push(op);
            return self.backend.apply_batch(self.rank(), &one);
        }
        // The op/byte budgets bound the memory a long measurement-free
        // gate storm can pin, without cutting fusion windows at an
        // arbitrary op count when the recorded ops are small.
        let (len, bytes) = {
            let mut pending = self.pending.borrow_mut();
            pending.push(op);
            (pending.len(), pending.approx_bytes())
        };
        if len >= policy.max_ops || bytes >= policy.max_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// The global resource ledger (EPR pairs, classical correction bits).
    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    /// Convenience: snapshot of the global resource totals.
    pub fn resources(&self) -> ResourceSnapshot {
        self.ledger.snapshot()
    }

    /// The shared backend (diagnostics: state snapshots, operation counts).
    ///
    /// Flushes this rank's pending gate batch first, so whatever the
    /// caller reads through the backend reflects every gate issued so far.
    /// A flush failure (impossible for well-formed programs; gate calls on
    /// linear [`Qubit`] handles only fail at engine level) is deferred to
    /// the next fallible call — see [`QmpiRank::flush`].
    pub fn backend(&self) -> &Arc<dyn QuantumBackend> {
        self.flush_or_defer();
        &self.backend
    }

    /// World configuration.
    pub fn config(&self) -> &QmpiConfig {
        &self.config
    }

    /// Allocates `n` fresh qubits in |0> (QMPI_Alloc_qmem). A flush point:
    /// the engine's amplitude layout changes here, and keeping the eager
    /// and batched paths' operation orders identical is what keeps them
    /// bit-identical per seed.
    pub fn alloc_qmem(&self, n: usize) -> Vec<Qubit> {
        self.flush_or_defer();
        self.backend
            .alloc(self.rank(), n)
            .into_iter()
            .map(Qubit::new)
            .collect()
    }

    /// Allocates a single fresh qubit in |0>.
    pub fn alloc_one(&self) -> Qubit {
        self.alloc_qmem(1).pop().expect("one qubit")
    }

    /// Frees a qubit already in a classical state (QMPI_Free_qmem),
    /// returning its value. A flush point.
    pub fn free_qmem(&self, q: Qubit) -> Result<bool> {
        self.flush()?;
        self.backend.free(self.rank(), q.id)
    }

    /// Measures a qubit and frees it. A flush point.
    pub fn measure_and_free(&self, q: Qubit) -> Result<bool> {
        self.flush()?;
        self.backend.measure_and_free(self.rank(), q.id)
    }

    /// Classical barrier over all ranks. A flush point: code sequenced
    /// after a barrier may observe global state (counts, snapshots), so
    /// every rank's pending gates must land before its barrier entry.
    pub fn barrier(&self) {
        self.flush_or_defer();
        self.proto.barrier();
    }

    /// Runs `f` between barrier fences and returns the global resource
    /// delta it caused plus its result. Collective: all ranks must call it
    /// (the fences guarantee no rank races ahead of another's snapshot).
    pub fn measure_resources<R>(&self, f: impl FnOnce() -> R) -> (ResourceSnapshot, R) {
        self.barrier();
        let before = self.resources();
        self.barrier();
        let r = f();
        self.barrier();
        (self.resources() - before, r)
    }

    /// Next private tag for a quantum collective. User point-to-point tags
    /// must stay below `0x8000`; the top half of the tag space is reserved
    /// for collectives.
    pub(crate) fn next_qcoll_tag(&self) -> QTag {
        let seq = self.qcoll_seq.get();
        self.qcoll_seq.set(seq.wrapping_add(1));
        0x8000 | (seq & 0x7FFF)
    }

    /// Checks the EPR buffer budget after an increment; callers roll the
    /// increment back on error.
    pub(crate) fn check_buffer(&self, new_level: i64) -> Result<()> {
        if let Some(limit) = self.config.s_limit {
            if new_level > limit as i64 {
                self.ledger.buffer_dec(self.rank());
                return Err(QmpiError::EprBufferExceeded {
                    rank: self.rank(),
                    limit,
                });
            }
        }
        Ok(())
    }
}

/// Runs `f` on `n` QMPI ranks with the default configuration; returns
/// per-rank results in rank order.
pub fn run<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&QmpiRank) -> T + Send + Sync + 'static,
{
    run_with_config(n, QmpiConfig::default(), f)
}

/// Runs `f` on `n` QMPI ranks with an explicit configuration; the backend
/// selected by [`QmpiConfig::backend`] is constructed here and shared by
/// every rank.
///
/// # Panics
///
/// Panics when the configured [`QmpiConfig::noise`] model is invalid for
/// the configured backend (a rate outside `[0, 1]`, or amplitude damping on
/// the stabilizer backend) — see [`crate::backend::build_backend`].
pub fn run_with_config<T, F>(n: usize, config: QmpiConfig, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&QmpiRank) -> T + Send + Sync + 'static,
{
    let backend = config
        .build_backend()
        .unwrap_or_else(|e| panic!("cannot build the {} backend: {e}", config.backend));
    run_on_backend(n, config, backend, f).results
}

/// Everything one world execution produced: the per-rank results plus the
/// final totals of the world's private [`ResourceLedger`] — the accounting
/// a job scheduler needs without sharing the ledger itself.
pub struct WorldRun<T> {
    /// Per-rank results in rank order.
    pub results: Vec<T>,
    /// Final ledger totals (EPR pairs, classical bits, EPR rounds).
    pub resources: ResourceSnapshot,
    /// Largest per-rank EPR-buffer peak — the minimum SENDQ `S` this
    /// execution actually required.
    pub max_buffer_peak: i64,
}

/// Runs `f` on `n` QMPI ranks over an *already constructed* backend —
/// the entry point for callers that manage backend lifecycle themselves,
/// such as the `qserve` job service multiplexing jobs over pooled shard
/// workers ([`crate::backend::ShardWorkerPool`]).
///
/// The world gets its own fresh [`ResourceLedger`]; its final totals come
/// back in the [`WorldRun`]. `config.backend` is informational here — the
/// provided `backend` executes the quantum operations regardless — but
/// `config.seed`, `config.s_limit`, and `config.batch` apply as in
/// [`run_with_config`].
pub fn run_on_backend<T, F>(
    n: usize,
    config: QmpiConfig,
    backend: Arc<dyn QuantumBackend>,
    f: F,
) -> WorldRun<T>
where
    T: Send + 'static,
    F: Fn(&QmpiRank) -> T + Send + Sync + 'static,
{
    let ledger = Arc::new(ResourceLedger::new(n));
    let ledger_out = Arc::clone(&ledger);
    // Whether flushes run the plan-time optimizer: resolved once against
    // the *actual* backend (not the informational `config.backend`). Fusing
    // rewrites the op stream, which must not perturb per-op noise injection
    // or the trace engine's accounting. Fused products of Cliffords are
    // Clifford, so the stabilizer tableau takes the fused stream too.
    let fuse =
        config.batch.fuse && backend.noise().is_ideal() && backend.kind() != BackendKind::Trace;
    let results = Universe::run(n, move |comm| {
        // The original world communicator carries the QMPI protocol; users
        // get a duplicate so their classical traffic can never collide.
        let classical = comm.dup();
        let ctx = QmpiRank {
            proto: comm,
            classical,
            backend: Arc::clone(&backend),
            ledger: Arc::clone(&ledger),
            config,
            qcoll_seq: std::cell::Cell::new(0),
            pending: std::cell::RefCell::new(qsim::GateBatch::new()),
            fuse,
            deferred: std::cell::RefCell::new(None),
            abandoned_epr: std::cell::RefCell::new(Vec::new()),
        };
        let out = f(&ctx);
        // The rank's program is over: anything still pending must land so
        // post-run diagnostics (counts, snapshots) see the full program.
        // This is the only teardown flush; a rank that panics skips it,
        // and its world re-raises the panic.
        ctx.flush()
            .expect("flushing the rank's pending batched gates at world teardown");
        out
    });
    WorldRun {
        results,
        resources: ledger_out.snapshot(),
        max_buffer_peak: ledger_out.max_buffer_peak(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_sizes_and_ranks() {
        let out = run(3, |ctx| (ctx.rank(), ctx.size()));
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn alloc_and_free_qmem() {
        let out = run(2, |ctx| {
            let qs = ctx.alloc_qmem(3);
            assert_eq!(qs.len(), 3);
            for q in qs {
                assert!(!ctx.free_qmem(q).unwrap());
            }
            ctx.rank()
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn classical_channel_works() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.classical().send(&7u32, 1, 0);
                0
            } else {
                ctx.classical().recv::<u32>(0, 0).0
            }
        });
        assert_eq!(out[1], 7);
    }

    #[test]
    fn config_carries_s_limit() {
        let cfg = QmpiConfig::new().seed(5).s_limit(2);
        let out = run_with_config(2, cfg, |ctx| ctx.config().epr_buffer_limit());
        assert_eq!(out, vec![Some(2), Some(2)]);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let cfg = QmpiConfig::new();
        assert_eq!(cfg.backend_kind(), crate::BackendKind::StateVector);
        assert_eq!(cfg.epr_buffer_limit(), None);
        let cfg = cfg.seed(9).s_limit(3).backend(crate::BackendKind::Trace);
        assert_eq!(cfg.rng_seed(), 9);
        assert_eq!(cfg.epr_buffer_limit(), Some(3));
        assert_eq!(cfg.backend_kind(), crate::BackendKind::Trace);
        assert_eq!(cfg.unlimited_buffer().epr_buffer_limit(), None);
    }

    /// A fresh config carries the default policy; an explicit policy
    /// replaces it and round-trips through the accessor.
    #[test]
    fn an_explicit_batch_policy_replaces_the_default() {
        assert_eq!(QmpiConfig::new().batch_policy(), BatchPolicy::default());
        let custom = BatchPolicy {
            max_ops: 17,
            max_bytes: 1234,
            fuse: false,
            ..BatchPolicy::default()
        };
        assert_eq!(QmpiConfig::new().batch(custom).batch_policy(), custom);
        assert!(BatchPolicy::default().is_batching());
        assert!(!BatchPolicy::eager().is_batching());
    }

    /// The op and byte budgets both force an auto-flush; gates land at the
    /// backend (observed through a pre-cloned handle, which does not
    /// flush) without any explicit flush point.
    #[test]
    fn batch_budgets_auto_flush() {
        for policy in [
            BatchPolicy {
                max_ops: 2,
                ..BatchPolicy::default()
            },
            BatchPolicy {
                max_bytes: 1,
                ..BatchPolicy::default()
            },
        ] {
            let out = run_with_config(1, QmpiConfig::new().batch(policy), move |ctx| {
                let q = ctx.alloc_one();
                let backend = Arc::clone(ctx.backend());
                ctx.t(&q).unwrap();
                ctx.t(&q).unwrap();
                let landed = backend.gate_count();
                ctx.measure_and_free(q).unwrap();
                landed
            });
            assert!(
                out[0] >= 1,
                "budget {policy:?} must have flushed mid-stream, saw {} gates",
                out[0]
            );
        }
        // Control: a roomy budget leaves the gates pending until a real
        // flush point.
        let out = run_with_config(1, QmpiConfig::new().batch(BatchPolicy::default()), |ctx| {
            let q = ctx.alloc_one();
            let backend = Arc::clone(ctx.backend());
            ctx.t(&q).unwrap();
            ctx.t(&q).unwrap();
            let landed = backend.gate_count();
            ctx.measure_and_free(q).unwrap();
            landed
        });
        assert_eq!(out[0], 0, "no budget hit, no flush point crossed");
    }

    /// A batch-wide locality failure surfaces as a typed error from
    /// `flush()` — including when the failing flush fired at an infallible
    /// accessor, which defers the error instead of panicking.
    #[test]
    fn flush_failures_surface_typed_not_as_panics() {
        let out = run_with_config(2, QmpiConfig::new(), |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                ctx.barrier(); // rank 1 forges its handle after this
                ctx.barrier(); // ...and is done misusing it after this
                ctx.measure_and_free(q).unwrap();
                true
            } else {
                ctx.barrier();
                // Forge rank 0's qubit (test-only: the public API's linear
                // handles cannot name a foreign qubit).
                let stolen = Qubit::new(qsim::QubitId(0));
                ctx.x(&stolen).unwrap(); // records fine; structurally valid
                let err = ctx.flush().unwrap_err();
                assert!(matches!(err, QmpiError::Locality { .. }), "{err}");
                // Same failure through an infallible flush point: the
                // accessor defers, the next fallible call surfaces it.
                ctx.x(&stolen).unwrap();
                let _ = ctx.backend(); // must not panic
                let err = ctx.flush().unwrap_err();
                assert!(matches!(err, QmpiError::Locality { .. }), "{err}");
                // The rank stays usable afterwards.
                let mine = ctx.alloc_one();
                ctx.x(&mine).unwrap();
                let outcome = ctx.measure_and_free(mine).unwrap();
                ctx.barrier();
                outcome
            }
        });
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn world_runs_on_every_backend_kind() {
        for kind in [
            crate::BackendKind::StateVector,
            crate::BackendKind::Stabilizer,
            crate::BackendKind::Trace,
            crate::BackendKind::Sparse,
            crate::BackendKind::RemoteSharded { shards: 2 },
        ] {
            let out = run_with_config(2, QmpiConfig::new().backend(kind), move |ctx| {
                assert_eq!(ctx.backend().kind(), kind);
                let q = ctx.alloc_one();
                ctx.x(&q).unwrap();
                ctx.measure_and_free(q).unwrap()
            });
            // The trace backend fixes every measurement to false; stateful
            // backends must observe the X flip.
            let expect = kind != crate::BackendKind::Trace;
            assert_eq!(out, vec![expect, expect], "{kind}");
        }
    }
}
