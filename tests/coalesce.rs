//! Cross-rank batch coalescing acceptance suite.
//!
//! The tentpole claim of the coalescing window: when several ranks flush
//! concurrently into a sharded backend, their per-rank gate plans merge
//! into shared per-worker frames — one command fan-out round per window
//! instead of one per flush — while every observable stays bit-identical
//! per seed to the uncoalesced path (the ranks own disjoint qubits, so
//! their sub-streams commute; the window interleaves them in deterministic
//! arrival order and never reorders within a rank).
//!
//! The tests drive rank IDs from a single thread on the raw
//! [`qmpi::QuantumBackend`] surface, so "concurrent" is deterministic:
//! flush arrival order — and therefore the noise-draw order and the
//! merged frame layout — is fixed, which lets bit-identity be asserted
//! exactly rather than statistically.

mod common;

use common::conformance::{canon_bits, ensure_worker_bin};
use qmpi::{build_backend_with_policy, BackendKind, BatchPolicy, QuantumBackend, TransportKind};
use qsim::{BatchOp, Gate, GateBatch, NoiseModel, QubitId};
use std::sync::Arc;

const RANKS: usize = 4;
const QUBITS_PER_RANK: usize = 2;
const STORM_ROUNDS: usize = 3;

fn coalesced() -> BatchPolicy {
    BatchPolicy::default()
}

fn uncoalesced() -> BatchPolicy {
    BatchPolicy {
        coalesce: false,
        ..BatchPolicy::default()
    }
}

/// One rank's flush payload for a storm round: a few gates confined to
/// the rank's own qubits (the disjoint-ownership precondition of the
/// commutation-safety argument).
fn rank_batch(round: usize, qs: &[QubitId]) -> GateBatch {
    let mut b = GateBatch::new();
    b.push(BatchOp::Gate {
        gate: Gate::H,
        q: qs[round % qs.len()],
    });
    b.push(BatchOp::Cnot { c: qs[0], t: qs[1] });
    b.push(BatchOp::Gate {
        gate: Gate::Rz(0.3 + 0.1 * round as f64),
        q: qs[1],
    });
    b
}

/// Everything the storm observes, bitwise-comparable.
#[derive(Debug, PartialEq, Eq)]
struct StormOutcome {
    amps: Vec<(u64, u64)>,
    trajectory: Vec<bool>,
}

/// Runs the 4-rank gate storm on `backend`: each rank owns its own pair
/// of qubits, every round each rank flushes one sub-budget batch, every
/// round ends in an explicit coalescing sync. Returns the observables
/// plus the command rounds and coalesced flushes the storm itself cost
/// (alloc and measurement rounds excluded by differencing).
fn run_storm(backend: &Arc<dyn QuantumBackend>) -> (StormOutcome, u64, u64) {
    let owned: Vec<Vec<QubitId>> = (0..RANKS)
        .map(|r| backend.alloc(r, QUBITS_PER_RANK))
        .collect();
    let stats_at = || {
        backend
            .transport_stats()
            .expect("the remote backend always has a transport")
    };
    let before = stats_at();
    for round in 0..STORM_ROUNDS {
        for (r, qs) in owned.iter().enumerate() {
            backend
                .apply_batch(r, &rank_batch(round, qs))
                .expect("storm batches target owned qubits only");
        }
        backend.sync_coalesced().expect("window ship");
    }
    let after = stats_at();
    let all: Vec<QubitId> = owned.iter().flatten().copied().collect();
    let st = backend.state_vector(&all).expect("dense snapshot");
    let amps = (0..st.len())
        .map(|i| {
            let a = st.amplitude(i);
            (canon_bits(a.re), canon_bits(a.im))
        })
        .collect();
    let trajectory = owned
        .iter()
        .enumerate()
        .flat_map(|(r, qs)| qs.iter().map(move |&q| (r, q)))
        .map(|(r, q)| backend.measure(r, q).expect("owned measurement"))
        .collect();
    (
        StormOutcome { amps, trajectory },
        after.command_rounds - before.command_rounds,
        after.coalesced_flushes - before.coalesced_flushes,
    )
}

fn storm_backend(policy: BatchPolicy, noise: NoiseModel, seed: u64) -> Arc<dyn QuantumBackend> {
    build_backend_with_policy(
        BackendKind::RemoteSharded { shards: 2 },
        TransportKind::InProcess,
        seed,
        noise,
        policy,
    )
    .expect("backend builds")
}

/// The tentpole counter-proof: R concurrent ranks' flushes collapse to
/// one command round per worker per window, halving (at least) the round
/// count of the per-rank path — and the merged execution is bit-identical
/// to the per-rank one, amplitudes and measurement trajectory both, with
/// and without Pauli noise drawn along the way.
#[test]
fn concurrent_rank_flushes_collapse_to_one_round_per_window() {
    for noise in [NoiseModel::ideal(), NoiseModel::depolarizing(0.2)] {
        for seed in [7u64, 42] {
            let (out_c, rounds_c, saved_c) = run_storm(&storm_backend(coalesced(), noise, seed));
            let (out_u, rounds_u, saved_u) = run_storm(&storm_backend(uncoalesced(), noise, seed));
            // Per-rank path: one fan-out per flush = RANKS × STORM_ROUNDS.
            assert_eq!(rounds_u, (RANKS * STORM_ROUNDS) as u64);
            // Coalesced path: one fan-out per window = STORM_ROUNDS.
            assert_eq!(rounds_c, STORM_ROUNDS as u64);
            assert!(
                2 * rounds_c <= rounds_u,
                "coalescing must at least halve command rounds ({rounds_c} vs {rounds_u})"
            );
            // Every flush after a window's first is one saved round.
            assert_eq!(saved_c, (RANKS * STORM_ROUNDS - STORM_ROUNDS) as u64);
            assert_eq!(saved_u, 0, "coalescing off must never count a save");
            assert_eq!(
                out_c, out_u,
                "merged frames diverged from per-rank dispatch (seed {seed})"
            );
        }
    }
}

/// Wire-bytes satellite: a merged frame re-frames several flushes into
/// one message, so coalescing must never put *more* bytes on the wire
/// than the per-rank path for the same workload.
#[test]
fn coalescing_never_costs_wire_bytes() {
    let seed = 11;
    let bytes_of = |policy: BatchPolicy| {
        let backend = storm_backend(policy, NoiseModel::ideal(), seed);
        let _ = run_storm(&backend);
        backend
            .transport_stats()
            .expect("remote transport")
            .wire_bytes
    };
    let coalesced_bytes = bytes_of(coalesced());
    let uncoalesced_bytes = bytes_of(uncoalesced());
    assert!(
        coalesced_bytes <= uncoalesced_bytes,
        "merged frames must not inflate the wire ({coalesced_bytes} vs {uncoalesced_bytes} bytes)"
    );
}

/// In-process deferral proof: with the remote engine's workers as
/// threads, the window parks sub-budget flushes — the engine sees nothing
/// until a sync point ships the whole window in one merged application.
#[test]
fn window_defers_engine_dispatch_until_sync() {
    let backend = build_backend_with_policy(
        BackendKind::RemoteSharded { shards: 4 },
        TransportKind::InProcess,
        3,
        NoiseModel::ideal(),
        coalesced(),
    )
    .expect("backend builds");
    let owned: Vec<Vec<QubitId>> = (0..RANKS)
        .map(|r| backend.alloc(r, QUBITS_PER_RANK))
        .collect();
    for (r, qs) in owned.iter().enumerate() {
        backend.apply_batch(r, &rank_batch(0, qs)).unwrap();
    }
    assert_eq!(
        backend.gate_count(),
        0,
        "sub-budget flushes must park in the window, not reach the engine"
    );
    backend.sync_coalesced().unwrap();
    let per_rank = rank_batch(0, &owned[0]).len() as u64;
    assert_eq!(
        backend.gate_count(),
        RANKS as u64 * per_rank,
        "the sync must ship every parked segment"
    );
}

/// With coalescing disabled the same flushes reach the engine eagerly —
/// the selectable old behavior the `QMPI_COALESCE=off` switch pins.
#[test]
fn coalescing_off_dispatches_each_flush_eagerly() {
    let backend = build_backend_with_policy(
        BackendKind::RemoteSharded { shards: 4 },
        TransportKind::InProcess,
        3,
        NoiseModel::ideal(),
        uncoalesced(),
    )
    .expect("backend builds");
    let qs = backend.alloc(0, QUBITS_PER_RANK);
    backend.apply_batch(0, &rank_batch(0, &qs)).unwrap();
    assert_eq!(
        backend.gate_count(),
        rank_batch(0, &qs).len() as u64,
        "with coalescing off every flush dispatches immediately"
    );
}

/// The ops/bytes budgets trip the window just like they trip a rank's
/// local batch: a segment at or over budget ships at once, so a rank
/// that flushed *because* its budget tripped is never parked behind the
/// window on top of that.
#[test]
fn window_budget_trips_ship_immediately() {
    let tiny_budget = BatchPolicy {
        max_ops: 4,
        ..BatchPolicy::default()
    };
    let backend = build_backend_with_policy(
        BackendKind::RemoteSharded { shards: 2 },
        TransportKind::InProcess,
        5,
        NoiseModel::ideal(),
        tiny_budget,
    )
    .expect("backend builds");
    let qs = backend.alloc(0, QUBITS_PER_RANK);
    let mut big = GateBatch::new();
    for i in 0..4 {
        big.push(BatchOp::Gate {
            gate: Gate::H,
            q: qs[i % qs.len()],
        });
    }
    backend.apply_batch(0, &big).unwrap();
    assert_eq!(
        backend.gate_count(),
        4,
        "a budget-sized flush must ship its window immediately"
    );
}

/// `max_age_ms` satellite: an opt-in age budget bounds how long a parked
/// window can sit; once a flush arrives past the deadline, the whole
/// window ships even though no ops/bytes budget tripped and no sync
/// point was reached.
#[test]
fn age_budget_ships_stale_window() {
    let aged = BatchPolicy {
        max_age_ms: 1,
        ..BatchPolicy::default()
    };
    let backend = build_backend_with_policy(
        BackendKind::RemoteSharded { shards: 2 },
        TransportKind::InProcess,
        9,
        NoiseModel::ideal(),
        aged,
    )
    .expect("backend builds");
    let qs = backend.alloc(0, QUBITS_PER_RANK);
    backend.apply_batch(0, &rank_batch(0, &qs)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(10));
    // The deadline has long passed; the next flush ships the window.
    backend.apply_batch(0, &rank_batch(1, &qs)).unwrap();
    assert_eq!(
        backend.gate_count(),
        2 * rank_batch(0, &qs).len() as u64,
        "a flush past the age deadline must ship the whole window"
    );
}

/// The age budget is opt-in: at the default `max_age_ms = 0`, elapsed
/// time alone never ships a window (round counts stay deterministic for
/// the transport suites).
#[test]
fn age_budget_disabled_by_default() {
    let backend = build_backend_with_policy(
        BackendKind::RemoteSharded { shards: 2 },
        TransportKind::InProcess,
        9,
        NoiseModel::ideal(),
        coalesced(),
    )
    .expect("backend builds");
    let qs = backend.alloc(0, QUBITS_PER_RANK);
    backend.apply_batch(0, &rank_batch(0, &qs)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(10));
    backend.apply_batch(0, &rank_batch(1, &qs)).unwrap();
    assert_eq!(
        backend.gate_count(),
        0,
        "without an age budget, time alone must never ship the window"
    );
}

/// The merged path also holds over real worker *processes*: same storm,
/// socket transport, rounds halve and observables stay bit-identical.
#[test]
fn storm_over_socket_workers_matches_per_rank_dispatch() {
    ensure_worker_bin();
    let build = |policy: BatchPolicy| {
        build_backend_with_policy(
            BackendKind::RemoteSharded { shards: 2 },
            TransportKind::UnixSocket,
            13,
            NoiseModel::depolarizing(0.15),
            policy,
        )
        .expect("backend builds")
    };
    let (out_c, rounds_c, _) = run_storm(&build(coalesced()));
    let (out_u, rounds_u, _) = run_storm(&build(uncoalesced()));
    assert!(
        2 * rounds_c <= rounds_u,
        "coalescing must at least halve command rounds over sockets ({rounds_c} vs {rounds_u})"
    );
    assert_eq!(out_c, out_u, "socket merged frames diverged from per-rank");
}
