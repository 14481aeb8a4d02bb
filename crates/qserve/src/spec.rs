//! Job specifications and per-job accounting reports.

use qmpi::{BackendKind, NoiseModel, OpCounts, ResourceSnapshot, TransportStats};
use std::time::Duration;

/// Which simulation capacity a job runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobBackend {
    /// Lease a slot of the server's long-lived shard-worker pool
    /// ([`qmpi::ShardWorkerPool`]) for the job's lifetime. The default:
    /// jobs share workers instead of spawning their own.
    Pooled,
    /// Build a private backend of this kind for the job (including
    /// `RemoteSharded`, which spawns and joins its own workers — the
    /// spawn-per-job model the pool exists to beat).
    Spawn(BackendKind),
}

/// What one tenant asks the server to run: world size, seeding, backend
/// choice, and the declared S-budget the admission controller holds the
/// job to.
///
/// ```
/// use qserve::JobSpec;
///
/// let spec = JobSpec::new("alice", 2).seed(7).s_limit(2);
/// assert_eq!(spec.declared_s_budget(), 4); // ranks × s_limit
/// ```
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub(crate) tenant: String,
    pub(crate) ranks: usize,
    pub(crate) seed: u64,
    pub(crate) s_limit: Option<u32>,
    pub(crate) noise: NoiseModel,
    pub(crate) backend: JobBackend,
    pub(crate) s_budget: Option<u64>,
}

impl JobSpec {
    /// A pooled-backend job for `tenant` over `ranks` QMPI ranks.
    pub fn new(tenant: impl Into<String>, ranks: usize) -> Self {
        JobSpec {
            tenant: tenant.into(),
            ranks,
            seed: 0,
            s_limit: None,
            noise: NoiseModel::ideal(),
            backend: JobBackend::Pooled,
            s_budget: None,
        }
    }

    /// Sets the measurement RNG seed (deterministic per-job trajectories).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-rank EPR buffer limit (the SENDQ `S` parameter),
    /// enforced during the run exactly as in [`qmpi::QmpiConfig::s_limit`].
    /// Also the default basis of the declared S-budget.
    pub fn s_limit(mut self, limit: u32) -> Self {
        self.s_limit = Some(limit);
        self
    }

    /// Sets the noise model the job's backend applies.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Selects the job's capacity source (default: [`JobBackend::Pooled`]).
    pub fn backend(mut self, backend: JobBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the declared S-budget the admission controller reserves
    /// for the job (EPR-buffer halves held concurrently across the world).
    pub fn s_budget(mut self, budget: u64) -> Self {
        self.s_budget = Some(budget);
        self
    }

    /// The tenant name used for fair scheduling.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The S-budget admission control reserves while the job runs: the
    /// explicit [`JobSpec::s_budget`] override, else `ranks × s_limit`,
    /// else `ranks × 2` (two buffered EPR halves per rank — the teleport
    /// working set) when no limit is declared.
    pub fn declared_s_budget(&self) -> u64 {
        self.s_budget
            .unwrap_or_else(|| self.ranks as u64 * u64::from(self.s_limit.unwrap_or(2)))
    }
}

/// Why a submission was rejected outright (as opposed to queued).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The declared S-budget exceeds the server's total capacity: the job
    /// could never be admitted, so queueing it would wait forever.
    BudgetExceedsCapacity {
        /// The job's declared budget.
        declared: u64,
        /// The server's total S-capacity.
        capacity: u64,
    },
    /// A pooled job was submitted to a server configured without a pool.
    NoPool,
    /// A world of zero ranks.
    NoRanks,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BudgetExceedsCapacity { declared, capacity } => write!(
                f,
                "declared S-budget {declared} exceeds the server's total capacity {capacity}"
            ),
            SubmitError::NoPool => write!(f, "server has no worker pool (pool_slots = 0)"),
            SubmitError::NoRanks => write!(f, "a job needs at least one rank"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a dispatched job produced no result.
#[derive(Clone, Debug)]
pub enum JobError {
    /// The job's backend could not be built (e.g. an invalid noise model).
    Build(String),
    /// A rank (or the engine protocol under it) panicked.
    Panicked(String),
    /// The job thread ended without reporting (never expected; defensive).
    Lost,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Build(msg) => write!(f, "backend construction failed: {msg}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::Lost => write!(f, "job result channel closed without a report"),
        }
    }
}

impl std::error::Error for JobError {}

/// A finished job's results plus its accounting.
pub struct JobOutput<T> {
    /// Per-rank results in rank order.
    pub results: Vec<T>,
    /// The accounting record.
    pub report: JobReport,
}

/// Per-job accounting: the paper's cost metrics (EPR pairs, correction
/// bits, rounds) plus service-level fields (queue wait, wall time,
/// dispatch order) and the PR 5 transport counters when the backend is
/// message-driven.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Server-assigned job id (submission order).
    pub job_id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The backend kind that executed the job.
    pub backend: BackendKind,
    /// World size.
    pub ranks: usize,
    /// The S-budget admission control reserved for the job.
    pub s_budget: u64,
    /// Global dispatch sequence number (scheduling order across tenants).
    pub dispatch_seq: u64,
    /// Time spent queued between submission and dispatch.
    pub queued: Duration,
    /// Wall time from dispatch to completion.
    pub wall: Duration,
    /// Final ledger totals: EPR pairs, classical correction bits, EPR
    /// rounds.
    pub resources: ResourceSnapshot,
    /// Largest per-rank EPR-buffer peak — the minimum SENDQ `S` the run
    /// actually required (compare against `s_budget / ranks`).
    pub max_buffer_peak: i64,
    /// Backend operation counts (gates, measurements, entanglements).
    pub counts: OpCounts,
    /// Transport accounting (command rounds, exchange rounds, wire bytes,
    /// worker respawns), for message-driven backends; `None` when the
    /// backend has no transport.
    pub transport: Option<TransportStats>,
    /// The backend's modeled run fidelity, when it maintains one (the
    /// trace engine's error-free probability).
    pub modeled_fidelity: Option<f64>,
}

impl JobReport {
    /// Header matching [`JobReport::table_row`], for the accounting table
    /// the `job_server` example prints.
    pub fn table_header() -> String {
        format!(
            "{:>4}  {:<8} {:<16} {:>5} {:>6} {:>8} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9} {:>4} {:>9}  {:>10}",
            "job",
            "tenant",
            "backend",
            "ranks",
            "S-bud",
            "EPR",
            "bits",
            "rounds",
            "peak",
            "cmd-rnd",
            "xch-rnd",
            "wire-B",
            "rsp",
            "fidelity",
            "wall"
        )
    }

    /// One fixed-width accounting row.
    pub fn table_row(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".into(), |v| v.to_string());
        let t = self.transport;
        format!(
            "{:>4}  {:<8} {:<16} {:>5} {:>6} {:>8} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9} {:>4} {:>9}  {:>10}",
            self.job_id,
            self.tenant,
            self.backend.to_string(),
            self.ranks,
            self.s_budget,
            self.resources.epr_pairs,
            self.resources.classical_bits,
            self.resources.epr_rounds,
            self.max_buffer_peak,
            opt(t.map(|t| t.command_rounds)),
            opt(t.map(|t| t.exchange_rounds)),
            opt(t.map(|t| t.wire_bytes)),
            opt(t.map(|t| t.respawns)),
            self.modeled_fidelity
                .map_or_else(|| "-".into(), |f| format!("{f:.5}")),
            format!("{:.2?}", self.wall),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_budget_defaults() {
        assert_eq!(JobSpec::new("t", 4).declared_s_budget(), 8);
        assert_eq!(JobSpec::new("t", 4).s_limit(3).declared_s_budget(), 12);
        assert_eq!(
            JobSpec::new("t", 4)
                .s_limit(3)
                .s_budget(5)
                .declared_s_budget(),
            5
        );
    }

    #[test]
    fn table_row_aligns_with_header() {
        let report = JobReport {
            job_id: 7,
            tenant: "alice".into(),
            backend: BackendKind::Trace,
            ranks: 8,
            s_budget: 16,
            dispatch_seq: 3,
            queued: Duration::from_millis(2),
            wall: Duration::from_millis(5),
            resources: ResourceSnapshot::default(),
            max_buffer_peak: 2,
            counts: OpCounts::default(),
            transport: Some(TransportStats {
                command_rounds: 12,
                exchange_rounds: 9,
                wire_bytes: 4096,
                respawns: 1,
                ..TransportStats::default()
            }),
            modeled_fidelity: Some(0.75),
        };
        let header = JobReport::table_header();
        let row = report.table_row();
        assert!(row.contains("alice") && row.contains("0.75000"));
        assert!(row.contains("4096") && row.contains("12") && row.contains('9'));
        assert!(header.contains("rsp") && header.contains("wire-B"));
        // Fixed-width formatting: the row may only differ in length by the
        // wall-clock field's rendering.
        assert!(header.len() >= 100 && row.len() >= 100);
    }
}
