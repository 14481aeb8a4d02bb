//! # qmpi — Quantum MPI
//!
//! A Rust implementation of **QMPI**, the quantum extension of the Message
//! Passing Interface proposed in *Distributed Quantum Computing with QMPI*
//! (Häner, Steiger, Hoefler, Troyer — SC 2021).
//!
//! ## Model
//!
//! A QMPI world consists of `n` quantum ranks (nodes), each owning a set of
//! qubits. Ranks exchange quantum information exclusively through EPR pairs
//! established over the (simulated) quantum-coherent interconnect; classical
//! correction bits travel over the classical MPI substrate ([`cmpi`]).
//! Execution is backed by a pluggable [`QuantumBackend`], and *locality is
//! enforced* by the shared backend wrapper regardless of engine: applying a
//! multi-qubit gate to another rank's qubit is a [`QmpiError::Locality`]
//! error.
//!
//! ## Quick start
//!
//! The paper's Section 6 example — an EPR pair between two ranks:
//!
//! ```
//! use qmpi::run;
//!
//! let outcomes = run(2, |ctx| {
//!     let qubit = ctx.alloc_one();                      // QMPI_Alloc_qmem(1)
//!     let dest = 1 - ctx.rank();
//!     ctx.prepare_epr(&qubit, dest, 0).unwrap();        // QMPI_Prepare_EPR
//!     ctx.measure_and_free(qubit).unwrap()
//! });
//! // Both ranks observe the same value when measuring their EPR half.
//! assert_eq!(outcomes[0], outcomes[1]);
//! ```
//!
//! ## Choosing a backend
//!
//! [`QmpiConfig`] is a builder; [`BackendKind`] selects the engine that
//! executes quantum operations for the whole world:
//!
//! ```
//! use qmpi::{run_with_config, BackendKind, QmpiConfig};
//!
//! // The QMPI protocols are pure Clifford, so the stabilizer tableau runs
//! // them at rank counts far beyond any state vector.
//! let cfg = QmpiConfig::new().seed(11).backend(BackendKind::Stabilizer);
//! let outcomes = run_with_config(64, cfg, |ctx| {
//!     let share = ctx.cat_establish().unwrap();         // 64-rank GHZ
//!     ctx.measure_and_free(share).unwrap()
//! });
//! assert!(outcomes.iter().all(|&m| m == outcomes[0]));
//! ```
//!
//! * [`BackendKind::StateVector`] (default) — exact amplitudes via [`qsim`];
//!   supports every gate, including the non-Clifford rotations the
//!   application layer ([`qalgo`-style workloads]) needs. Practical cap of
//!   roughly 25 total qubits — the paper's prototype.
//! * [`BackendKind::Stabilizer`] — CHP tableau; Clifford-only and
//!   polynomial-cost, so EPR distribution, teleportation, cat-state
//!   broadcast, and parity reduction run with *thousands* of ranks.
//! * [`BackendKind::Trace`] — no amplitudes at all; gates, measurements,
//!   EPR establishments, and qubit high-water marks are only counted
//!   ([`OpCounts`]), which reproduces the paper's Table 1–3 resource
//!   formulas at arbitrary scale in microseconds.
//! * `BackendKind::RemoteSharded { shards }` — exact amplitudes whose
//!   shards live in dedicated *worker ranks* driven purely by [`cmpi`]
//!   message passing (the paper's process-separated deployment model); same
//!   results as the dense engines, no shared-address-space assumption.
//!   `BackendKind::ShardedStateVector { shards }` is another name for it.
//!
//! [`qalgo`-style workloads]: BackendKind::StateVector
//!
//! ## Surface
//!
//! * Point-to-point (Table 2): [`QmpiRank::send`]/[`QmpiRank::recv`]
//!   (entangled copy), [`QmpiRank::unsend`]/[`QmpiRank::unrecv`] (inverses),
//!   [`QmpiRank::send_move`]/[`QmpiRank::recv_move`] (teleportation),
//!   `sendrecv`, `sendrecv_replace`, buffered/synchronous/ready aliases,
//!   non-blocking EPR establishment.
//! * Collectives (Table 3): `bcast` (binomial tree or constant-depth cat
//!   state), `gather`/`scatter` (± move), `allgather`, `alltoall` (± move),
//!   reversible `reduce`/`scan`/`exscan` with full inverses.
//! * Persistent requests (Section 4.7): [`QmpiRank::send_init`] /
//!   [`QmpiRank::recv_init`] — quantum resources up front, classical-only
//!   starts.
//! * Resource accounting: every operation reports EPR pairs and classical
//!   correction bits to a global [`ResourceLedger`], which the experiment
//!   harness diffs against the paper's Tables 1–3.
//! * Noisy execution: [`QmpiConfig::noise`] threads a [`NoiseModel`]
//!   (depolarizing / dephasing / amplitude damping, independent rates for
//!   1q gates, 2q gates, measurement, and EPR establishment) into every
//!   backend for fidelity-vs-`S`-budget studies.

#![forbid(unsafe_code)]

pub mod backend;
pub mod cat;
pub mod collectives;
pub mod collectives_v;
pub mod context;
pub mod datatypes;
pub mod epr;
pub mod error;
pub mod gates;
pub mod p2p;
pub mod persistent;
pub mod qubit;
pub mod reduce_ops;
pub mod resources;

pub use backend::{
    build_backend, build_backend_with_policy, qworker_main, AmplitudeEngine, BackendKind,
    EngineStore, OpCounts, QuantumBackend, RemoteShardedEngine, ShardLease, ShardWorkerPool,
    Shared, SparseEngine, StabilizerEngine, StateVectorEngine, TraceEngine, TransportStats,
    DIAG_RANK,
};
pub use cmpi::TransportKind;
pub use collectives::{
    AllreduceHandle, BcastAlgorithm, ExscanHandle, ReduceHandle, ReduceScatterHandle, ScanHandle,
};
pub use context::{
    run, run_on_backend, run_with_config, BatchPolicy, QTag, QmpiConfig, QmpiRank, WorldRun,
};
pub use datatypes::{Datatype, QUBIT};
pub use epr::EprRequest;
pub use error::{QmpiError, Result};
pub use persistent::{PersistentRecv, PersistentSend};
pub use qsim::noise::{NoiseChannel, NoiseModel, OpClass};
pub use qubit::Qubit;
pub use reduce_ops::{Parity, QuantumReduceOp};
pub use resources::{ResourceLedger, ResourceSnapshot};

#[cfg(test)]
mod proptests {
    use crate::context::run_with_config;
    use crate::QmpiConfig;
    use proptest::prelude::*;
    use qsim::Pauli;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn teleportation_preserves_random_states(theta in 0.0f64..3.1, phi in -3.1f64..3.1, seed in 0u64..500) {
            let cfg = QmpiConfig::new().seed(seed);
            let out = run_with_config(2, cfg, move |ctx| {
                if ctx.rank() == 0 {
                    let q = ctx.alloc_one();
                    ctx.ry(&q, theta).unwrap();
                    ctx.rz(&q, phi).unwrap();
                    ctx.send_move(q, 1, 0).unwrap();
                    (0.0, 0.0, 0.0)
                } else {
                    let q = ctx.recv_move(0, 0).unwrap();
                    let z = ctx.expectation(&[(&q, Pauli::Z)]).unwrap();
                    let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
                    let y = ctx.expectation(&[(&q, Pauli::Y)]).unwrap();
                    ctx.measure_and_free(q).unwrap();
                    (z, x, y)
                }
            });
            let (z, x, y) = out[1];
            prop_assert!((z - theta.cos()).abs() < 1e-8);
            prop_assert!((x - theta.sin() * phi.cos()).abs() < 1e-8);
            prop_assert!((y - theta.sin() * phi.sin()).abs() < 1e-8);
        }

        #[test]
        fn copy_uncopy_roundtrip_random_states(theta in 0.0f64..3.1, phi in -3.1f64..3.1, seed in 0u64..500) {
            let cfg = QmpiConfig::new().seed(seed);
            let out = run_with_config(2, cfg, move |ctx| {
                if ctx.rank() == 0 {
                    let q = ctx.alloc_one();
                    ctx.ry(&q, theta).unwrap();
                    ctx.rz(&q, phi).unwrap();
                    ctx.send(&q, 1, 0).unwrap();
                    ctx.unsend(&q, 1, 0).unwrap();
                    let z = ctx.expectation(&[(&q, Pauli::Z)]).unwrap();
                    let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
                    let y = ctx.expectation(&[(&q, Pauli::Y)]).unwrap();
                    ctx.measure_and_free(q).unwrap();
                    (z, x, y)
                } else {
                    let c = ctx.recv(0, 0).unwrap();
                    ctx.unrecv(c, 0, 0).unwrap();
                    (0.0, 0.0, 0.0)
                }
            });
            let (z, x, y) = out[0];
            prop_assert!((z - theta.cos()).abs() < 1e-8);
            prop_assert!((x - theta.sin() * phi.cos()).abs() < 1e-8);
            prop_assert!((y - theta.sin() * phi.sin()).abs() < 1e-8);
        }

        #[test]
        fn reduce_parity_matches_classical_xor(bits in proptest::collection::vec(any::<bool>(), 2..5)) {
            let n = bits.len();
            let bits_arc = std::sync::Arc::new(bits.clone());
            let out = run_with_config(n, QmpiConfig::default(), move |ctx| {
                let q = ctx.alloc_one();
                if bits_arc[ctx.rank()] {
                    ctx.x(&q).unwrap();
                }
                let (result, handle) = ctx.reduce(&q, &crate::Parity, 0).unwrap();
                let parity = result.as_ref().map(|r| ctx.expectation(&[(r, Pauli::Z)]).unwrap() < 0.0);
                ctx.unreduce(&q, result, handle, &crate::Parity).unwrap();
                ctx.measure_and_free(q).unwrap();
                parity
            });
            let expect = bits.iter().fold(false, |a, &b| a ^ b);
            prop_assert_eq!(out[0], Some(expect));
        }
    }
}
