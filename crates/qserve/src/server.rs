//! The job server: queues, admission control, fair scheduling, dispatch.
//!
//! ## Scheduling policy
//!
//! One FIFO queue per tenant, scanned round-robin from a rotating cursor.
//! A queue's *head* job is admitted when (a) the server is under its
//! concurrent-job cap, (b) the job's declared S-budget fits in the free
//! S-capacity, and (c) — for pooled jobs — a pool slot is free. An
//! inadmissible head blocks only its own tenant: the scan moves on to the
//! next tenant's queue, and the cursor advances past every dispatched
//! tenant, so a backlog of EPR-hungry jobs from one tenant cannot starve
//! another tenant's small job (its queue is visited at least once per
//! rotation — bounded wait).
//!
//! Scheduling opportunities arise on submission and on every job
//! completion (which is also when budget, a concurrency slot, and possibly
//! a pool slot free up); there is no scheduler thread to keep alive or
//! shut down.

use crate::spec::{JobBackend, JobError, JobOutput, JobReport, JobSpec, SubmitError};
use qmpi::{
    run_on_backend, NoiseModel, QmpiConfig, QmpiRank, QuantumBackend, RemoteShardedEngine,
    ShardLease, ShardWorkerPool, Shared, TransportKind, TransportStats,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server capacity knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Total S-budget (EPR-buffer halves) that admitted jobs may hold
    /// concurrently — the admission-control ledger's capacity.
    pub s_capacity: u64,
    /// Maximum jobs running at once (each job spawns its own rank
    /// threads; this caps the multiprogramming level).
    pub max_concurrent: usize,
    /// Long-lived shard-worker pool slots ([`JobBackend::Pooled`] jobs
    /// lease one each). Zero disables the pool.
    pub pool_slots: usize,
    /// Shard workers per pool slot (rounded/clamped as in
    /// [`qmpi::BackendKind::RemoteSharded`]).
    pub pool_shards: usize,
    /// Where shard workers live: [`TransportKind::InProcess`] (default)
    /// pools worker *threads*; the multi-process kinds pool real `qworker`
    /// child processes behind framed sockets, with failover. Applies to
    /// the pool and to spawned `RemoteSharded` job backends alike.
    pub transport: TransportKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            s_capacity: 64,
            max_concurrent: 8,
            pool_slots: 4,
            pool_shards: 2,
            transport: TransportKind::InProcess,
        }
    }
}

/// Point-in-time scheduler observables, for monitoring and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs waiting in tenant queues.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs finished since the server started.
    pub finished: u64,
    /// S-budget currently reserved by running jobs.
    pub used_s_budget: u64,
    /// Free pool slots (0 when the server has no pool).
    pub pool_available: usize,
}

/// What the dispatcher hands a job at dispatch time.
struct RunCtx {
    lease: Option<ShardLease>,
    transport: TransportKind,
    queued: Duration,
    dispatch_seq: u64,
}

/// A queued job: admission inputs plus the type-erased runner.
struct QueuedJob {
    budget: u64,
    pooled: bool,
    submitted: Instant,
    run: Box<dyn FnOnce(RunCtx) + Send>,
}

struct TenantQueue {
    tenant: String,
    jobs: VecDeque<QueuedJob>,
}

struct SchedState {
    queues: Vec<TenantQueue>,
    /// Index of the tenant the next scan starts at.
    cursor: usize,
    queued: usize,
    running: usize,
    used_budget: u64,
    finished: u64,
}

struct Inner {
    cfg: ServerConfig,
    pool: Option<ShardWorkerPool>,
    state: Mutex<SchedState>,
    /// Signaled on every job completion (drain waits on it).
    done_cv: Condvar,
    next_job: AtomicU64,
    next_dispatch: AtomicU64,
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The multi-tenant QMPI job service. See the [crate docs](crate) for the
/// model and the [module docs](self) for the scheduling policy.
pub struct JobServer {
    inner: Arc<Inner>,
}

impl JobServer {
    /// Starts a server: spawns the worker pool (if any) and nothing else —
    /// jobs bring their own rank threads. Panics when a multi-process
    /// `cfg.transport` cannot start the pool's `qworker` processes.
    pub fn new(cfg: ServerConfig) -> Self {
        let pool = (cfg.pool_slots > 0).then(|| {
            ShardWorkerPool::over_transport(cfg.pool_slots, cfg.pool_shards.max(1), cfg.transport)
                .expect("cannot spawn the shard-worker pool")
        });
        JobServer {
            inner: Arc::new(Inner {
                cfg,
                pool,
                state: Mutex::new(SchedState {
                    queues: Vec::new(),
                    cursor: 0,
                    queued: 0,
                    running: 0,
                    used_budget: 0,
                    finished: 0,
                }),
                done_cv: Condvar::new(),
                next_job: AtomicU64::new(0),
                next_dispatch: AtomicU64::new(0),
            }),
        }
    }

    /// A server with the default capacity ([`ServerConfig::default`]).
    pub fn with_defaults() -> Self {
        Self::new(ServerConfig::default())
    }

    /// Current scheduler observables.
    pub fn stats(&self) -> ServerStats {
        let st = self.inner.lock();
        ServerStats {
            queued: st.queued,
            running: st.running,
            finished: st.finished,
            used_s_budget: st.used_budget,
            pool_available: self.inner.pool.as_ref().map_or(0, |p| p.available()),
        }
    }

    /// Submits a job: `f` runs on every rank of the job's world (exactly
    /// as in [`qmpi::run_with_config`]) once the scheduler admits it.
    /// Returns immediately with a handle; [`JobHandle::wait`] blocks for
    /// the results and the accounting report.
    ///
    /// Rejects (rather than queues) jobs that could never be admitted:
    /// a declared S-budget over the server's total capacity, a pooled job
    /// without a pool, an empty world.
    pub fn submit<T, F>(&self, spec: JobSpec, f: F) -> Result<JobHandle<T>, SubmitError>
    where
        T: Send + 'static,
        F: Fn(&QmpiRank) -> T + Send + Sync + 'static,
    {
        if spec.ranks == 0 {
            return Err(SubmitError::NoRanks);
        }
        let budget = spec.declared_s_budget();
        if budget > self.inner.cfg.s_capacity {
            return Err(SubmitError::BudgetExceedsCapacity {
                declared: budget,
                capacity: self.inner.cfg.s_capacity,
            });
        }
        let pooled = spec.backend == JobBackend::Pooled;
        if pooled && self.inner.pool.is_none() {
            return Err(SubmitError::NoPool);
        }

        let job_id = self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        let tenant = spec.tenant.clone();
        let run = Box::new(move |rcx: RunCtx| run_job(job_id, spec, f, rcx, tx));

        {
            let mut st = self.inner.lock();
            let ti = match st.queues.iter().position(|q| q.tenant == tenant) {
                Some(ti) => ti,
                None => {
                    st.queues.push(TenantQueue {
                        tenant,
                        jobs: VecDeque::new(),
                    });
                    st.queues.len() - 1
                }
            };
            st.queues[ti].jobs.push_back(QueuedJob {
                budget,
                pooled,
                submitted: Instant::now(),
                run,
            });
            st.queued += 1;
        }
        pump(&self.inner);
        Ok(JobHandle { job_id, rx })
    }

    /// Blocks until every submitted job (queued or running) has finished.
    pub fn drain(&self) {
        let mut st = self.inner.lock();
        while st.queued > 0 || st.running > 0 {
            st = self
                .inner
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        // Graceful: run everything to completion so no handle is left
        // hanging, then (via the last Arc) shut the pool's workers down.
        self.drain();
    }
}

/// Waits for one submitted job.
pub struct JobHandle<T> {
    job_id: u64,
    rx: Receiver<Result<JobOutput<T>, JobError>>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("job_id", &self.job_id)
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// The server-assigned job id.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Blocks until the job finishes; returns its per-rank results and
    /// accounting report, or why it failed.
    pub fn wait(self) -> Result<JobOutput<T>, JobError> {
        self.rx.recv().unwrap_or(Err(JobError::Lost))
    }
}

/// Dispatches every currently admissible job. Called on submission and
/// after each completion.
fn pump(inner: &Arc<Inner>) {
    loop {
        let mut st = inner.lock();
        if st.running >= inner.cfg.max_concurrent || st.queues.is_empty() {
            return;
        }
        let n = st.queues.len();
        let mut picked = None;
        for step in 0..n {
            let ti = (st.cursor + step) % n;
            let Some(job) = st.queues[ti].jobs.front() else {
                continue;
            };
            if st.used_budget + job.budget > inner.cfg.s_capacity {
                continue; // blocks this tenant's head only; scan moves on
            }
            if job.pooled {
                // Taking the lease inside the scheduling decision keeps
                // admission and allocation atomic: an admitted pooled job
                // always holds its slot.
                match inner
                    .pool
                    .as_ref()
                    .expect("pooled implies pool")
                    .try_lease()
                {
                    Some(lease) => {
                        picked = Some((ti, Some(lease)));
                        break;
                    }
                    None => continue,
                }
            }
            picked = Some((ti, None));
            break;
        }
        let Some((ti, lease)) = picked else { return };
        let job = st.queues[ti].jobs.pop_front().expect("head checked");
        st.cursor = (ti + 1) % n;
        st.queued -= 1;
        st.running += 1;
        st.used_budget += job.budget;
        drop(st);

        let dispatch_seq = inner.next_dispatch.fetch_add(1, Ordering::Relaxed);
        let queued_for = job.submitted.elapsed();
        let budget = job.budget;
        let inner2 = Arc::clone(inner);
        std::thread::Builder::new()
            .name(format!("qserve-job-{dispatch_seq}"))
            .spawn(move || {
                (job.run)(RunCtx {
                    lease,
                    transport: inner2.cfg.transport,
                    queued: queued_for,
                    dispatch_seq,
                });
                let mut st = inner2.lock();
                st.running -= 1;
                st.used_budget -= budget;
                st.finished += 1;
                drop(st);
                inner2.done_cv.notify_all();
                pump(&inner2);
            })
            .expect("failed to spawn job thread");
        // Loop: more queued jobs may be admissible.
    }
}

/// Executes one dispatched job end to end and reports through `tx`.
fn run_job<T, F>(
    job_id: u64,
    spec: JobSpec,
    f: F,
    rcx: RunCtx,
    tx: Sender<Result<JobOutput<T>, JobError>>,
) where
    T: Send + 'static,
    F: Fn(&QmpiRank) -> T + Send + Sync + 'static,
{
    let started = Instant::now();
    let transport_kind = rcx.transport;
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        execute(&spec, f, rcx.lease, transport_kind)
    }));
    let report =
        |backend, resources, peak, counts, transport: Option<TransportStats>, fidelity| JobReport {
            job_id,
            tenant: spec.tenant.clone(),
            backend,
            ranks: spec.ranks,
            s_budget: spec.declared_s_budget(),
            dispatch_seq: rcx.dispatch_seq,
            queued: rcx.queued,
            wall: started.elapsed(),
            resources,
            max_buffer_peak: peak,
            counts,
            transport,
            modeled_fidelity: fidelity,
        };
    let result = match outcome {
        Ok(Ok((results, stats))) => Ok(JobOutput {
            results,
            report: report(
                stats.kind,
                stats.resources,
                stats.max_buffer_peak,
                stats.counts,
                stats.transport,
                stats.fidelity,
            ),
        }),
        Ok(Err(build)) => Err(JobError::Build(build)),
        Err(panic) => Err(JobError::Panicked(panic_message(&*panic))),
    };
    // A dropped handle is fine: accounting already updated by the caller.
    let _ = tx.send(result);
}

/// Backend-side accounting read after the world finishes, before the
/// backend (and any lease under it) is released.
struct BackendStats {
    kind: qmpi::BackendKind,
    resources: qmpi::ResourceSnapshot,
    max_buffer_peak: i64,
    counts: qmpi::OpCounts,
    transport: Option<TransportStats>,
    fidelity: Option<f64>,
}

/// Builds the job's backend, runs its world, and harvests accounting.
/// Returns `Err(message)` when the backend cannot be built.
fn execute<T, F>(
    spec: &JobSpec,
    f: F,
    lease: Option<ShardLease>,
    transport: TransportKind,
) -> Result<(Vec<T>, BackendStats), String>
where
    T: Send + 'static,
    F: Fn(&QmpiRank) -> T + Send + Sync + 'static,
{
    // The noise rides in the backend; the config's model would only
    // rebuild it. s_limit and the batch policy apply per rank — and the
    // same policy governs the backend's coalesce window, so both are built
    // from this one config.
    let mut config = QmpiConfig::new().seed(spec.seed).noise(NoiseModel::ideal());
    if let Some(limit) = spec.s_limit {
        config = config.s_limit(limit);
    }
    let backend: Arc<dyn QuantumBackend> = match (&spec.backend, lease) {
        (JobBackend::Pooled, Some(lease)) => {
            spec.noise
                .validate()
                .map_err(|e| format!("invalid noise model: {e}"))?;
            let engine = RemoteShardedEngine::from_lease(spec.seed, lease, spec.noise);
            Arc::new(Shared::new(engine, config.batch_policy()))
        }
        (JobBackend::Spawn(kind), _) => qmpi::build_backend_with_policy(
            *kind,
            transport,
            spec.seed,
            spec.noise,
            config.batch_policy(),
        )
        .map_err(|e| e.to_string())?,
        (JobBackend::Pooled, None) => unreachable!("pooled dispatch always carries a lease"),
    };
    let kind = backend.kind();
    config = config.backend(kind);

    let run = run_on_backend(spec.ranks, config, Arc::clone(&backend), f);
    let stats = BackendStats {
        kind,
        resources: run.resources,
        max_buffer_peak: run.max_buffer_peak,
        counts: backend.counts(),
        transport: backend.transport_stats(),
        fidelity: backend.modeled_fidelity(),
    };
    // Dropping the backend now (all rank clones are joined) releases a
    // leased slot back to the pool *before* the job is marked finished.
    drop(backend);
    Ok((run.results, stats))
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}
