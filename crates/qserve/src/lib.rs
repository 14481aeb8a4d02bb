//! # qserve — a multi-tenant QMPI job service
//!
//! The paper's deployment picture is a *facility*: one distributed quantum
//! machine, many users. `qserve` turns the [`qmpi`] runtime into that
//! facility. A **job** is a closure over [`qmpi::QmpiRank`] plus a
//! [`JobSpec`] (world size, seed, S-limit, noise, backend choice); a
//! [`JobServer`] runs many jobs concurrently over **one long-lived pool**
//! of shard workers ([`qmpi::ShardWorkerPool`]) instead of spawning a
//! worker set per engine.
//!
//! Two service-level mechanisms keep tenants honest:
//!
//! * **Admission control on the S-budget.** Each job declares how much EPR
//!   buffer capacity it will hold ([`JobSpec::declared_s_budget`], default
//!   `ranks × s_limit`). The server admits jobs only while the sum of
//!   admitted budgets fits its `s_capacity` — an over-budget job waits in
//!   its tenant's queue; a job that could *never* fit is rejected at
//!   submission ([`SubmitError::BudgetExceedsCapacity`]).
//! * **Fair scheduling across tenants.** Queues are per-tenant and scanned
//!   round-robin, so one tenant's backlog of EPR-hungry jobs cannot starve
//!   another tenant's small job (see [`server`] for the policy).
//!
//! Every finished job returns a [`JobReport`]: the paper's cost metrics
//! (EPR pairs, correction bits, EPR rounds, buffer peaks) plus transport
//! round counters, modeled fidelity, queue wait, and wall time.
//!
//! ## Quick start
//!
//! ```
//! use qserve::{JobServer, JobSpec, ServerConfig};
//!
//! let server = JobServer::new(ServerConfig {
//!     s_capacity: 16,
//!     max_concurrent: 4,
//!     pool_slots: 2,
//!     pool_shards: 2,
//!     ..ServerConfig::default()
//! });
//!
//! // Two tenants teleport concurrently over the same worker pool.
//! let handles: Vec<_> = ["alice", "bob"]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, tenant)| {
//!         let spec = JobSpec::new(*tenant, 2).seed(40 + i as u64).s_limit(2);
//!         server
//!             .submit(spec, |ctx| {
//!                 if ctx.rank() == 0 {
//!                     let q = ctx.alloc_one();
//!                     ctx.x(&q).unwrap();
//!                     ctx.send_move(q, 1, 0).unwrap();
//!                     true
//!                 } else {
//!                     let q = ctx.recv_move(0, 0).unwrap();
//!                     ctx.measure_and_free(q).unwrap()
//!                 }
//!             })
//!             .unwrap()
//!     })
//!     .collect();
//!
//! for handle in handles {
//!     let out = handle.wait().unwrap();
//!     assert!(out.results[1]); // teleported |1> lands intact
//!     assert!(out.report.resources.epr_pairs >= 1);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod server;
pub mod spec;

pub use server::{JobHandle, JobServer, ServerConfig, ServerStats};
pub use spec::{JobBackend, JobError, JobOutput, JobReport, JobSpec, SubmitError};
