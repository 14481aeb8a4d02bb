//! Cross-rank batch coalescing acceptance suite.
//!
//! The coalescing window joins concurrent ranks' flushes into one gate
//! batch, and every observable stays bit-identical per seed to the
//! uncoalesced path (the ranks own disjoint qubits, so their sub-streams
//! commute; the window joins them in deterministic arrival order and never
//! reorders within a rank).
//!
//! Under the remote engine the window no longer saves anything: the store
//! queues every flush until a read, so a coalesced and an uncoalesced storm
//! become the same frames and cost the same command rounds and the same
//! wire bytes. `coalesced_flushes` still counts the joins.
//!
//! The tests drive rank IDs from a single thread on the raw
//! [`qmpi::QuantumBackend`] surface, so "concurrent" is deterministic:
//! flush arrival order — and therefore the noise-draw order and the
//! frame layout — is fixed, which lets bit-identity be asserted exactly
//! rather than statistically.

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
/// (snapshot and measurement rounds excluded by differencing).
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

/// Coalesced or not, a storm of flushes costs no command round — the
/// store queues them until a read — and the two executions are
/// bit-identical, amplitudes and measurement trajectory both, with and
/// without Pauli noise drawn along the way. The window still counts every
/// flush that joined it.
#[test]
fn concurrent_rank_flushes_cost_the_same_rounds_coalesced_or_not() {
    for noise in [NoiseModel::ideal(), NoiseModel::depolarizing(0.2)] {
        for seed in [7u64, 42] {
            let (out_c, rounds_c, saved_c) = run_storm(&storm_backend(coalesced(), noise, seed));
            let (out_u, rounds_u, saved_u) = run_storm(&storm_backend(uncoalesced(), noise, seed));
            assert_eq!((rounds_c, rounds_u), (0, 0), "flushes wait for a read");
            // Every flush after a window's first joined it.
            assert_eq!(saved_c, (RANKS * STORM_ROUNDS - STORM_ROUNDS) as u64);
            assert_eq!(saved_u, 0, "coalescing off must never count a join");
            assert_eq!(
                out_c, out_u,
                "coalesced windows diverged from per-rank dispatch (seed {seed})"
            );
        }
    }
}

/// Wire-bytes satellite: a window's batch and the per-rank flushes it joins
/// become the same queued frames, so coalescing neither costs nor saves a
/// byte on the wire for the same workload. Over sockets, where the
/// controller counts every frame as it passes (in-process the count
/// depends on which thread sends when).
#[test]
fn coalescing_never_costs_wire_bytes() {
    ensure_worker_bin();
    let seed = 11;
    let bytes_of = |policy: BatchPolicy| {
        let backend = build_backend_with_policy(
            BackendKind::RemoteSharded { shards: 2 },
            TransportKind::UnixSocket,
            seed,
            NoiseModel::ideal(),
            policy,
        )
        .expect("backend builds");
        let _ = run_storm(&backend);
        backend
            .transport_stats()
            .expect("remote transport")
            .wire_bytes
    };
    let coalesced_bytes = bytes_of(coalesced());
    let uncoalesced_bytes = bytes_of(uncoalesced());
    assert!(coalesced_bytes > 0);
    assert_eq!(
        coalesced_bytes, uncoalesced_bytes,
        "the queue makes both storms the same frames"
    );
}

/// In-process deferral proof: with the remote engine's workers as
/// threads, the window parks sub-budget flushes — the engine sees nothing
/// until a sync point ships the whole window as one batch.
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

/// The coalesced path also holds over real worker *processes*: same storm,
/// socket transport, same rounds and bit-identical observables.
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
    assert_eq!(
        rounds_c, rounds_u,
        "the queue makes both storms the same rounds"
    );
    assert_eq!(
        out_c, out_u,
        "socket coalesced windows diverged from per-rank"
    );
}
