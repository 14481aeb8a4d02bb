//! Multi-process transport acceptance suite.
//!
//! The Unix-socket transport runs the same planner, the same kernels, in
//! the same global order as the in-process remote engine — so per seed they
//! must be *bit-identical*, not merely close: same amplitudes (as bit
//! patterns), same measurement trajectory, same command/exchange round
//! counts, with or without Pauli noise drawn along the way.
//!
//! And a worker process dying mid-run must be survivable: the controller
//! observes EOF, respawns the child, re-scatters its stripe from the last
//! checkpoint, replays the logged suffix, and the run finishes with the
//! same amplitudes as a run in which nothing died — at the engine's own
//! checkpoint threshold and with a checkpoint after every logged unit
//! (`RemoteShardedEngine::debug_checkpoint_limit(1)`), so checkpoints
//! interleave with every alloc, gate batch and free a test makes.
//!
//! Circuit driving and observable capture live in the shared conformance
//! harness (`common::conformance`); this suite only picks the pair to
//! compare: same remote backend, in-process vs unix-socket transport.
//!
//! These tests spawn real `qworker` child processes. The binary is built
//! as part of this package; its path reaches the engine through
//! `QMPI_QWORKER_BIN`.

mod common;

use common::conformance::{canon_bits, ensure_worker_bin, run_circuit, Outcome, Step};
use common::ops;
use proptest::test_runner::TestRng;
use qmpi::{
    build_backend, run_with_config, BackendKind, BatchPolicy, QmpiConfig, QuantumBackend,
    RemoteShardedEngine, ShardWorkerPool, Shared, StateVectorEngine, TransportKind,
};
use qsim::{BatchOp, Gate, GateBatch, NoiseModel, Pauli, QubitId, SimError};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const N_QUBITS: usize = 4;

/// Runs `steps` single-rank on the process-separated backend over the
/// given transport and captures every observable, including the protocol
/// round counts — the schedule itself must match across transports, not
/// just its end state.
fn run_remote(transport: TransportKind, steps: &[Step], noise: NoiseModel, seed: u64) -> Outcome {
    let cfg = QmpiConfig::new()
        .seed(seed)
        .backend(BackendKind::RemoteSharded { shards: SHARDS })
        .transport(transport)
        .noise(noise);
    let (mut out, stats) = run_circuit(cfg, N_QUBITS, steps, false);
    let t = stats.expect("the remote backend always has a transport");
    if transport.is_multiprocess() {
        assert!(t.wire_bytes > 0, "socket transport must count wire bytes");
    }
    assert_eq!(t.respawns, 0, "nothing died in this run");
    out.rounds = Some((t.command_rounds, t.exchange_rounds));
    out
}

fn assert_transports_bit_identical(
    socket: TransportKind,
    steps: &[Step],
    noise: NoiseModel,
    seed: u64,
) {
    ensure_worker_bin();
    let reference = run_remote(TransportKind::InProcess, steps, noise, seed);
    assert_eq!(
        reference,
        run_remote(socket, steps, noise, seed),
        "{socket} transport diverged from in-process (seed {seed})"
    );
}

/// Amplitudes of the engine's state as bit patterns.
fn amp_bits(e: &RemoteShardedEngine, order: &[QubitId]) -> Vec<(u64, u64)> {
    let st = e.state_vector(order).unwrap();
    (0..st.len())
        .map(|i| {
            let a = st.amplitude(i);
            (a.re.to_bits(), a.im.to_bits())
        })
        .collect()
}

/// The forced-checkpoint thresholds the failover tests run at: the
/// engine's own (`None`), and a checkpoint after every logged unit.
const CHECKPOINT_LIMITS: [Option<usize>; 2] = [None, Some(1)];

/// Where a remote engine's workers live and the checkpoint threshold it
/// runs at: in-process, which never checkpoints, and over Unix sockets at
/// each of [`CHECKPOINT_LIMITS`].
const REMOTE_ARMS: [(TransportKind, Option<usize>); 3] = [
    (TransportKind::InProcess, None),
    (TransportKind::UnixSocket, CHECKPOINT_LIMITS[0]),
    (TransportKind::UnixSocket, CHECKPOINT_LIMITS[1]),
];

/// A remote engine over `transport`, checkpointing every `limit` units
/// where given.
fn remote(
    seed: u64,
    shards: usize,
    noise: NoiseModel,
    transport: TransportKind,
    limit: Option<usize>,
) -> RemoteShardedEngine {
    ensure_worker_bin();
    let e = RemoteShardedEngine::over_transport(seed, shards, noise, transport)
        .expect("spawn shard workers");
    if let Some(units) = limit {
        e.debug_checkpoint_limit(units);
    }
    e
}

/// A fixed dense circuit (Clifford + T + rotations, cross-shard traffic
/// included) lands bit-identically over the socket transport, ideal and
/// noisy, across several seeds.
#[test]
fn socket_transport_matches_in_process_bit_for_bit() {
    let steps = [
        Step::G(Gate::H, 0),
        Step::Cnot(0, 1),
        Step::G(Gate::T, 2),
        Step::G(Gate::Ry(0.3), 3),
        Step::Cnot(1, 2),
        Step::Swap(1, 3),
        Step::G(Gate::Rz(0.7), 0),
        Step::Cz(0, 3),
        Step::Cnot(2, 3),
        Step::G(Gate::H, 3),
    ];
    let socket = TransportKind::UnixSocket;
    for seed in [1u64, 7, 42] {
        assert_transports_bit_identical(socket, &steps, NoiseModel::ideal(), seed);
        assert_transports_bit_identical(socket, &steps, NoiseModel::depolarizing(0.2), seed);
    }
}

/// The full QMPI protocol stack (EPR establishment, teleportation,
/// fixups, collapse) over socket workers matches in-process per seed.
#[test]
fn teleportation_over_socket_workers_matches_in_process() {
    ensure_worker_bin();
    let run = |transport: TransportKind| {
        let cfg = QmpiConfig::new()
            .seed(23)
            .backend(BackendKind::RemoteSharded { shards: SHARDS })
            .transport(transport);
        run_with_config(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                ctx.x(&q).unwrap();
                ctx.h(&q).unwrap();
                ctx.send_move(q, 1, 0).unwrap();
                0u64
            } else {
                let q = ctx.recv_move(0, 0).unwrap();
                let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
                ctx.measure_and_free(q).unwrap();
                x.to_bits()
            }
        })
    };
    assert_eq!(
        run(TransportKind::InProcess),
        run(TransportKind::UnixSocket),
        "teleported observable must be bit-identical across transports"
    );
}

/// The failover acceptance test: SIGKILL a worker process mid-run, let
/// the next read trip over the EOF, and require the run to finish with
/// amplitudes and a measurement trajectory bit-identical to an undisturbed
/// run — plus a respawn on the books.
#[test]
fn sigkilled_worker_respawns_and_finishes_bit_identically() {
    for limit in CHECKPOINT_LIMITS {
        let run = |kill: bool| {
            let noise = NoiseModel::depolarizing(0.1);
            let mut e = remote(11, SHARDS, noise, TransportKind::UnixSocket, limit);
            let qs: Vec<_> = (0..N_QUBITS).map(|_| e.alloc()).collect();
            for &q in &qs {
                e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
            }
            for w in qs.windows(2) {
                e.apply_batch(&ops::cnot(w[0], w[1])).unwrap();
            }
            e.apply_batch(&ops::gate(Gate::T, qs[0])).unwrap();
            if kill {
                // The hardest death a shard node can die: no protocol, no
                // cleanup — the child is SIGKILLed outright.
                e.debug_kill_worker_process(SHARDS - 1);
            }
            // The batch waits in the queue; the measurement's read ships it
            // into the dead socket, failover respawns the worker, re-scatters
            // the stripe from the checkpoint, replays the logged suffix and
            // retries the read with the queue restored.
            let mut batch = GateBatch::new();
            for (i, &q) in qs.iter().enumerate() {
                batch.push(BatchOp::Gate {
                    gate: Gate::Ry(0.3 + 0.1 * i as f64),
                    q,
                });
            }
            batch.push(BatchOp::Cz {
                a: qs[0],
                b: qs[N_QUBITS - 1],
            });
            e.apply_batch(&batch).unwrap();
            // The measurement draws from the engine RNG: trajectory identity
            // proves replay did not re-draw or skip randomness.
            let m = e.measure_z_parity(&[qs[1]]).unwrap();
            let amps = amp_bits(&e, &qs);
            let stats = e.transport_stats();
            if kill {
                assert!(
                    stats.respawns >= 1,
                    "limit {limit:?}: the SIGKILLed worker must have been respawned"
                );
            } else {
                assert_eq!(
                    stats.respawns, 0,
                    "limit {limit:?}: undisturbed run respawns nothing"
                );
            }
            (m, amps)
        };
        assert_eq!(
        run(false),
        run(true),
        "limit {limit:?}: a run that lost a worker must finish bit-identically to one that did not"
    );
    }
}

/// Failover through two-segment batches: each batch holds two segments on
/// disjoint qubit pairs and waits in the queue at no command round.
/// SIGKILL a worker after one such batch; the measurement's read ships
/// both and trips over the EOF, failover reloads the checkpoint, restores
/// the queue, retries the read — and the run finishes bit-identical to an
/// undisturbed run, noise draws included.
#[test]
fn sigkilled_worker_mid_two_segment_batch_replays_segments_bit_identically() {
    for limit in CHECKPOINT_LIMITS {
        let run = |kill: bool| {
            let noise = NoiseModel::depolarizing(0.1);
            let mut e = remote(17, SHARDS, noise, TransportKind::UnixSocket, limit);
            let qs: Vec<_> = (0..N_QUBITS).map(|_| e.alloc()).collect();
            for &q in &qs {
                e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
            }
            // One segment: a rotation plus an entangler confined to one qubit
            // pair.
            let seg = |lo: usize, theta: f64| {
                [
                    BatchOp::Gate {
                        gate: Gate::Ry(theta),
                        q: qs[lo],
                    },
                    BatchOp::Cnot {
                        c: qs[lo],
                        t: qs[lo + 1],
                    },
                ]
            };
            let two_segments =
                |(a, ta), (b, tb)| ops::batch(seg(a, ta).into_iter().chain(seg(b, tb)));
            // A two-segment batch is queued: no command round.
            let rounds = e.transport_stats().command_rounds;
            e.apply_batch(&two_segments((0, 0.3), (2, 0.7))).unwrap();
            assert_eq!(
                e.transport_stats().command_rounds,
                rounds,
                "limit {limit:?}"
            );
            if kill {
                e.debug_kill_worker_process(SHARDS - 1);
            }
            // Queued too; the measurement's read discovers the dead socket.
            e.apply_batch(&two_segments((0, 1.1), (2, 0.2))).unwrap();
            // Trajectory identity proves replay did not re-draw randomness.
            let m = e.measure_z_parity(&[qs[0]]).unwrap();
            let amps = amp_bits(&e, &qs);
            let stats = e.transport_stats();
            if kill {
                assert!(
                    stats.respawns >= 1,
                    "limit {limit:?}: the SIGKILLed worker must have been respawned"
                );
            } else {
                assert_eq!(
                    stats.respawns, 0,
                    "limit {limit:?}: undisturbed run respawns nothing"
                );
            }
            (m, amps)
        };
        assert_eq!(
        run(false),
        run(true),
        "limit {limit:?}: a two-segment batch interrupted by a worker death must replay bit-identically"
    );
    }
}

/// Killing a worker twice (including re-killing the respawned child) is
/// still survivable: every failure epoch restarts cleanly.
#[test]
fn worker_survives_repeated_kills() {
    for limit in CHECKPOINT_LIMITS {
        let mut e = remote(
            5,
            SHARDS,
            NoiseModel::ideal(),
            TransportKind::UnixSocket,
            limit,
        );
        let q = e.alloc();
        let p = e.alloc();
        e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        e.apply_batch(&ops::cnot(q, p)).unwrap();
        e.debug_kill_worker_process(0);
        e.apply_batch(&ops::cnot(q, p)).unwrap();
        e.debug_kill_worker_process(SHARDS - 1);
        e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        assert!(
            e.prob_one(q).unwrap() < 1e-9,
            "limit {limit:?}: the self-inverse run ends in |00>"
        );
        assert!(e.prob_one(p).unwrap() < 1e-9, "limit {limit:?}");
        assert!(e.transport_stats().respawns >= 2, "limit {limit:?}");
    }
}

/// Stripes of 2^17 amplitudes (2 MiB, far past a socket buffer) cross the
/// direct worker links both ways: a SWAP of the two shard-selecting qubits
/// of four shards trades whole stripes, and freeing a shard axis moves a
/// 1 MiB half-stripe per shard pair. Both land on the dense engine's bits,
/// under a 2 s watchdog a deadlock would trip.
#[test]
fn stripe_trades_past_a_socket_buffer_match_dense_bit_for_bit() {
    ensure_worker_bin();
    const WIDTH: usize = 19;
    let bits = |s: &qsim::State| -> Vec<(u64, u64)> {
        let amps = s.amplitudes().iter();
        amps.map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    };
    let kind = TransportKind::UnixSocket;
    let mut dense = StateVectorEngine::new(41);
    let mut remote = spawned(41, 4, kind).with_watchdog(Duration::from_secs(2));
    let dq: Vec<_> = (0..WIDTH).map(|_| dense.alloc()).collect();
    let mut rq: Vec<_> = (0..WIDTH).map(|_| remote.alloc()).collect();
    for i in 0..WIDTH {
        let ry = Gate::Ry(0.3 + 0.1 * i as f64);
        dense.apply_batch(&ops::gate(ry, dq[i])).unwrap();
        remote.apply_batch(&ops::gate(ry, rq[i])).unwrap();
    }
    // The first two qubits allocated hold the shard axes.
    dense.apply_batch(&ops::swap(dq[0], dq[1])).unwrap();
    remote.apply_batch(&ops::swap(rq[0], rq[1])).unwrap();
    let want = dense.state_vector(&dq).unwrap();
    assert_eq!(
        bits(&remote.state_vector(&rq).unwrap()),
        bits(&want),
        "{kind}: swap"
    );
    let before = remote.transport_stats().exchange_rounds;
    let outcome = dense.measure_and_free(dq[0]).unwrap();
    assert_eq!(
        remote.measure_and_free(rq.remove(0)).unwrap(),
        outcome,
        "{kind}"
    );
    let want = dense.state_vector(&dq[1..]).unwrap();
    assert_eq!(
        bits(&remote.state_vector(&rq).unwrap()),
        bits(&want),
        "{kind}: free"
    );
    let moved = remote.transport_stats().exchange_rounds - before;
    assert_eq!(
        moved, 2,
        "{kind}: the freed axis moves one part per shard pair"
    );
    assert_eq!(remote.transport_stats().respawns, 0, "{kind}");
}

/// SIGKILL a worker while its partner is blocked receiving that worker's
/// stripe. Shard 1 has thousands of gates to run before it ships its
/// stripe to shard 0, which has only the pairing: the queue fills to its
/// bound and ships in a round of its own, no reply awaited, and the kill
/// lands while shard 1 still grinds. Shard 0 reads EOF on its link and
/// exits, the next read fails over at once — not at the 30 s watchdog —
/// and the run finishes on the undisturbed run's bits.
#[test]
fn sigkilled_worker_mid_exchange_fails_over_at_once_bit_identically() {
    const WIDTH: usize = 12;
    let bound = BatchPolicy::default().max_ops;
    for limit in CHECKPOINT_LIMITS {
        let run = |kill: bool| {
            let mut e = remote(
                37,
                SHARDS,
                NoiseModel::ideal(),
                TransportKind::UnixSocket,
                limit,
            );
            // The first qubit allocated holds the shard axis.
            let qs: Vec<_> = (0..WIDTH).map(|_| e.alloc()).collect();
            for (i, &q) in qs.iter().enumerate() {
                e.apply_batch(&ops::gate(Gate::Ry(0.3 + 0.2 * i as f64), q))
                    .unwrap();
            }
            e.prob_one(qs[0]).unwrap();
            // Controlled by the shard axis, each gate is one queued op on
            // shard 1 alone; the cross-shard CNOT adds one on each shard
            // and brings the queue to its bound.
            let grind = (0..bound - 2).map(|i| BatchOp::Controlled {
                controls: vec![qs[0]],
                gate: Gate::Ry(1e-3 * (i + 1) as f64),
                target: qs[1 + i % (WIDTH - 1)],
            });
            e.apply_batch(&ops::batch(grind)).unwrap();
            let rounds = e.transport_stats().command_rounds;
            e.apply_batch(&ops::cnot(qs[1], qs[0])).unwrap();
            assert_eq!(
                e.transport_stats().command_rounds,
                rounds + 1,
                "limit {limit:?}: the queue shipped at its bound"
            );
            let start = Instant::now();
            if kill {
                e.debug_kill_worker_process(1);
            }
            let p = e.prob_one(qs[0]).unwrap().to_bits();
            let took = start.elapsed();
            let respawns = e.transport_stats().respawns;
            ((p, amp_bits(&e, &qs)), took, respawns)
        };
        let (calm, killed) = (run(false), run(true));
        assert_eq!(
            calm.2, 0,
            "limit {limit:?}: undisturbed run respawns nothing"
        );
        assert!(killed.2 >= 1, "limit {limit:?}: {} respawns", killed.2);
        assert!(
            killed.1 < Duration::from_secs(10),
            "limit {limit:?}: the death took {:?} to fail over",
            killed.1
        );
        assert_eq!(
            calm.0, killed.0,
            "limit {limit:?}: a death mid-exchange must not show"
        );
    }
}

/// `wire_bytes` counts each frame once, on the socket it crosses: a
/// cross-shard CNOT adds its op to both workers' frames and two stripe
/// frames worker to worker — the high member's stripe and the half the
/// low member ships back — and nothing else.
#[test]
fn a_cross_shard_gate_counts_each_stripe_frame_once() {
    ensure_worker_bin();
    const LOCAL_BITS: usize = 10;
    let kind = TransportKind::UnixSocket;
    let mut e = spawned(3, SHARDS, kind);
    let qs: Vec<_> = (0..=LOCAL_BITS).map(|_| e.alloc()).collect();
    for &q in &qs {
        e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
    }
    // Every exchange has been reported once the read's replies are in.
    let read = |e: &mut RemoteShardedEngine| {
        let before = e.transport_stats().wire_bytes;
        e.prob_one(qs[1]).unwrap();
        e.transport_stats().wire_bytes - before
    };
    read(&mut e);
    let alone = read(&mut e);
    // qs[0] holds the shard axis: this CNOT pairs the two stripes.
    e.apply_batch(&ops::cnot(qs[1], qs[0])).unwrap();
    let with_gate = read(&mut e);
    // A stripe of 2^10 amplitudes, none zero after the Hadamards: the
    // frame header, the count and one segment header, and the literals.
    let stripe_frame = cmpi::transport::FRAME_OVERHEAD + 24 + (16 << LOCAL_BITS);
    // Each worker's frame becomes a `Seq` of a one-op batch and the read:
    // 18 B more, plus the op (18 B for the low member's `CrossLow`, 9 B
    // for the high member's `CrossHigh`).
    let ops_bytes = (18 + 18) + (18 + 9);
    assert_eq!(
        with_gate - alone,
        (2 * stripe_frame + ops_bytes) as u64,
        "{kind}"
    );
}

/// The largest world, 64 workers, links every pair up over Unix sockets
/// and runs a read that pairs every shard with its opposite.
#[test]
fn the_largest_world_links_up_over_each_socket_kind() {
    ensure_worker_bin();
    const WORKERS: usize = 64;
    let kind = TransportKind::UnixSocket;
    let start = Instant::now();
    let mut e = spawned(9, WORKERS, kind);
    let spawn = start.elapsed();
    let qs: Vec<_> = (0..8).map(|_| e.alloc()).collect();
    for &q in &qs {
        e.apply_batch(&ops::gate(Gate::Ry(0.7), q)).unwrap();
    }
    // X on every shard axis pairs shard s with shard 63 - s.
    let string: Vec<_> = qs[..6].iter().map(|&q| (q, Pauli::X)).collect();
    let want = 0.7f64.sin().powi(6);
    let got = e.expectation(&string).unwrap();
    assert!((got - want).abs() < 1e-12, "{kind}: {got} vs {want}");
    assert!(
        spawn < Duration::from_secs(10),
        "{kind}: 64 workers took {spawn:?} to link up"
    );
}

/// Allocs and frees are logged like any gate batch, not checkpoints: a worker SIGKILLed (a) before an alloc, (b) between an
/// alloc and its first gate, (c) before a `measure_and_free` is respawned,
/// the checkpoint reloaded at *its* layout, the logged reshapes replayed on
/// top — and the run lands on the undisturbed run's outcomes and amplitude
/// bits. Odd rounds free a low (within-stripe) position, even rounds the
/// top (shard-selecting) one, so both data paths replay.
#[test]
fn sigkilled_workers_across_layout_changes_finish_bit_identically() {
    const ROUNDS: usize = 12;
    for limit in CHECKPOINT_LIMITS {
        let run = |kill: bool| {
            let mut e = remote(
                19,
                SHARDS,
                NoiseModel::ideal(),
                TransportKind::UnixSocket,
                limit,
            );
            let mut kills = 0u64;
            let mut kill_at = |e: &RemoteShardedEngine, round: usize, site: usize| {
                if kill && round % 3 == site {
                    e.debug_kill_worker_process(round % SHARDS);
                    kills += 1;
                }
            };
            let mut live: Vec<_> = (0..3).map(|_| e.alloc()).collect();
            for (i, &q) in live.iter().enumerate() {
                e.apply_batch(&ops::gate(Gate::Ry(0.4 + i as f64), q))
                    .unwrap();
            }
            let mut outcomes = Vec::new();
            for round in 0..ROUNDS {
                kill_at(&e, round, 0);
                let fresh = e.alloc();
                kill_at(&e, round, 1);
                e.apply_batch(&ops::gate(Gate::H, fresh)).unwrap();
                e.apply_batch(&ops::cnot(fresh, live[round % 3])).unwrap();
                kill_at(&e, round, 2);
                let gone = if round % 2 == 0 {
                    fresh
                } else {
                    std::mem::replace(&mut live[round % 3], fresh)
                };
                outcomes.push(e.measure_and_free(gone).unwrap());
            }
            let respawns = e.transport_stats().respawns;
            assert!(
                respawns >= kills,
                "limit {limit:?}: {respawns} respawns, {kills} kills"
            );
            (outcomes, amp_bits(&e, &live))
        };
        assert_eq!(
            run(false),
            run(true),
            "limit {limit:?}: worker deaths around layout changes must not show"
        );
    }
}

/// A worker SIGKILLed while work waits in the queue: right after a
/// `measure` (its `CollapseScale` queued), right after an alloc (its
/// `Reshape` queued) and right after a `measure_and_free` (its collapse and
/// `Reshape` queued). Each time the next read ships the queue into the dead
/// socket, and failover reloads the checkpoint, replays the log, restores
/// the queue and retries the read — landing on the undisturbed run's
/// amplitudes and measurement trajectory.
#[test]
fn sigkilled_worker_with_work_queued_finishes_bit_identically() {
    for limit in CHECKPOINT_LIMITS {
        let run = |kill: bool| {
            let noise = NoiseModel::depolarizing(0.1);
            let mut e = remote(23, SHARDS, noise, TransportKind::UnixSocket, limit);
            let kill_now = |e: &RemoteShardedEngine, shard: usize| {
                if kill {
                    e.debug_kill_worker_process(shard);
                }
            };
            let mut qs: Vec<_> = (0..N_QUBITS).map(|_| e.alloc()).collect();
            for (i, &q) in qs.iter().enumerate() {
                e.apply_batch(&ops::gate(Gate::Ry(0.5 + 0.2 * i as f64), q))
                    .unwrap();
            }
            e.apply_batch(&ops::cnot(qs[0], qs[N_QUBITS - 1])).unwrap();
            let mut trajectory = vec![e.measure_z_parity(&[qs[1]]).unwrap()];
            kill_now(&e, 0);
            trajectory.push(e.measure_z_parity(&[qs[2]]).unwrap());
            qs.push(e.alloc());
            kill_now(&e, SHARDS - 1);
            e.apply_batch(&ops::gate(Gate::H, qs[N_QUBITS])).unwrap();
            e.apply_batch(&ops::cnot(qs[N_QUBITS], qs[0])).unwrap();
            trajectory.push(e.measure_and_free(qs.remove(1)).unwrap());
            kill_now(&e, 0);
            trajectory.push(e.measure_z_parity(&[qs[0]]).unwrap());
            let respawns = e.transport_stats().respawns;
            (trajectory, amp_bits(&e, &qs), respawns)
        };
        let (calm, killed) = (run(false), run(true));
        assert_eq!(
            calm.2, 0,
            "limit {limit:?}: undisturbed run respawns nothing"
        );
        assert!(
            killed.2 >= 3,
            "limit {limit:?}: {} respawns for three kills",
            killed.2
        );
        assert_eq!(
            (calm.0, calm.1),
            (killed.0, killed.1),
            "limit {limit:?}: worker deaths with work queued must not show"
        );
    }
}

/// A free needs no reply: its one `Reshape` per worker waits in the queue
/// until a read ships it. SIGKILL a worker right after `measure_and_free`
/// or `free` returns, with that reshape still queued: the next read ships
/// it into the dead socket, failover replays the log and the restored
/// queue, and the new generation runs the reshape again — every read and
/// the final amplitudes land on the undisturbed run's bits. Frees alternate
/// between the fresh qubit (the top local bit: compacted where it lives)
/// and an older one, which is a shard axis in two of the rounds (its free
/// moves half-stripes, counted as exchange rounds); both kinds occur.
#[test]
fn sigkilled_worker_with_a_free_queued_finishes_bit_identically() {
    const WORKERS: usize = 4;
    const ROUNDS: usize = 8;
    for limit in CHECKPOINT_LIMITS {
        let run = |kill: bool| {
            let noise = NoiseModel::depolarizing(0.1);
            let mut e = remote(29, WORKERS, noise, TransportKind::UnixSocket, limit);
            let mut qs: Vec<_> = (0..5).map(|_| e.alloc()).collect();
            for (i, &q) in qs.iter().enumerate() {
                e.apply_batch(&ops::gate(Gate::Ry(0.3 + 0.4 * i as f64), q))
                    .unwrap();
            }
            let mut reads = Vec::new();
            for round in 0..ROUNDS {
                let fresh = e.alloc();
                e.apply_batch(&ops::gate(Gate::H, fresh)).unwrap();
                let partner = round % qs.len();
                e.apply_batch(&ops::cnot(fresh, qs[partner])).unwrap();
                let gone = if round % 2 == 0 {
                    fresh
                } else {
                    std::mem::replace(&mut qs[partner], fresh)
                };
                let before = e.transport_stats().exchange_rounds;
                let outcome = if round % 4 < 2 {
                    e.measure_and_free(gone).unwrap()
                } else {
                    let m = e.measure_z_parity(&[gone]).unwrap();
                    assert_eq!(e.free(gone).unwrap(), m);
                    m
                };
                let axis = e.transport_stats().exchange_rounds > before;
                assert_eq!(
                    e.debug_queued_commands(),
                    [1; WORKERS],
                    "limit {limit:?}, round {round}"
                );
                if kill {
                    e.debug_kill_worker_process(round % WORKERS);
                }
                let p = e.prob_one(qs[0]).unwrap();
                reads.push((axis, outcome, p.to_bits()));
            }
            let respawns = e.transport_stats().respawns;
            (reads, amp_bits(&e, &qs), respawns)
        };
        let (calm, killed) = (run(false), run(true));
        assert_eq!(
            calm.2, 0,
            "limit {limit:?}: undisturbed run respawns nothing"
        );
        assert!(
            killed.2 >= ROUNDS as u64,
            "limit {limit:?}: {} respawns",
            killed.2
        );
        let axes: Vec<bool> = calm.0.iter().map(|&(axis, ..)| axis).collect();
        assert!(
            axes.contains(&true) && axes.contains(&false),
            "limit {limit:?}: {axes:?}"
        );
        assert_eq!(
            (calm.0, calm.1),
            (killed.0, killed.1),
            "limit {limit:?}: worker deaths with a free queued must not show"
        );
    }
}

/// Each kind of free, onto each outcome, over threads and over sockets: a
/// local qubit's free rescales and compacts each stripe where it lives,
/// and a shard axis's free rescales the kept side's stripes and moves
/// half of each to the dropped side. Either is one queued `Reshape` per
/// worker, with no collapse command ahead of it, and lands on the dense
/// engine's outcome and amplitudes to the bit.
#[test]
fn each_kind_of_free_is_one_queued_command_per_worker_and_matches_dense() {
    ensure_worker_bin();
    for transport in [TransportKind::InProcess, TransportKind::UnixSocket] {
        // Indexed by [the freed qubit is the shard axis][outcome].
        let mut seen = [[false; 2]; 2];
        for seed in 0..24u64 {
            for axis in [false, true] {
                let mut dense = StateVectorEngine::new(seed);
                let mut remote = RemoteShardedEngine::over_transport(
                    seed,
                    SHARDS,
                    NoiseModel::ideal(),
                    transport,
                )
                .expect("spawn shard workers");
                // The first qubit allocated holds the shard axis.
                let dq: Vec<QubitId> = (0..3).map(|_| dense.alloc()).collect();
                let rq: Vec<QubitId> = (0..3).map(|_| remote.alloc()).collect();
                for i in 0..3 {
                    let ry = Gate::Ry(0.4 + 0.7 * i as f64 + 0.05 * seed as f64);
                    dense.apply_batch(&ops::gate(ry, dq[i])).unwrap();
                    remote.apply_batch(&ops::gate(ry, rq[i])).unwrap();
                }
                dense.apply_batch(&ops::cnot(dq[0], dq[2])).unwrap();
                remote.apply_batch(&ops::cnot(rq[0], rq[2])).unwrap();
                let gone = if axis { 0 } else { 2 };
                let outcome = dense.measure_and_free(dq[gone]).unwrap();
                assert_eq!(remote.measure_and_free(rq[gone]).unwrap(), outcome);
                assert_eq!(remote.debug_queued_commands(), [1; SHARDS]);
                seen[usize::from(axis)][usize::from(outcome)] = true;
                let keep = |q: &[QubitId]| -> Vec<QubitId> {
                    (0..3).filter(|&i| i != gone).map(|i| q[i]).collect()
                };
                let want = dense.state_vector(&keep(&dq)).unwrap();
                let got = remote.state_vector(&keep(&rq)).unwrap();
                assert_eq!(want.len(), got.len());
                for i in 0..want.len() {
                    let (w, g) = (want.amplitude(i), got.amplitude(i));
                    assert_eq!(
                        (w.re.to_bits(), w.im.to_bits()),
                        (g.re.to_bits(), g.im.to_bits()),
                        "{transport} seed {seed} axis {axis} amp[{i}]"
                    );
                }
            }
        }
        assert_eq!(seen, [[true; 2]; 2], "{transport}: every kind and outcome");
    }
}

/// What each call costs in command rounds and in exchange rounds on
/// `RemoteSharded{2}`, over threads and over sockets, with the first of the
/// two qubits holding the shard axis. Allocs, gate batches and EPR
/// establishment on fresh qubits wait in the queue. A read is one round,
/// and so is an EPR establishment that has to probe a qubit a batch
/// touched. A free, measuring or not, is one: its read decides the outcome,
/// and its collapse and reshape queue behind it. A snapshot is one, or two
/// when work is queued. Data moves worker to worker only where an X reads
/// the shard axis and where the axis itself is freed (the local qubit takes
/// it over): one exchange each. A fresh qubit is local, so nothing it does
/// here moves a stripe.
#[test]
fn every_call_costs_its_pinned_command_rounds() {
    ensure_worker_bin();
    type Call = fn(&dyn QuantumBackend, &[QubitId]);
    let table: [(&str, u64, u64, Call); 13] = [
        ("alloc", 0, 0, |b, _| {
            b.alloc(0, 1);
        }),
        ("gate batch", 0, 0, |b, q| {
            b.apply_batch(0, &ops::cnot(q[0], q[1])).unwrap();
        }),
        ("an EPR pair on fresh qubits", 0, 0, |b, _| {
            let (x, y) = (b.alloc(0, 1)[0], b.alloc(1, 1)[0]);
            b.entangle_epr_batch(&[(x, y)]).unwrap();
        }),
        ("an EPR pair on a qubit flipped by X twice", 1, 0, |b, _| {
            let (x, y) = (b.alloc(0, 1)[0], b.alloc(1, 1)[0]);
            for _ in 0..2 {
                b.apply_batch(0, &ops::gate(Gate::X, x)).unwrap();
            }
            b.entangle_epr_batch(&[(x, y)]).unwrap();
        }),
        ("prob_one", 1, 0, |b, q| {
            b.prob_one(0, q[0]).unwrap();
        }),
        ("measure", 1, 0, |b, q| {
            b.measure_z_parity(0, &[q[0]]).unwrap();
        }),
        ("measure_z_parity", 1, 0, |b, q| {
            b.measure_z_parity(0, q).unwrap();
        }),
        ("expectation", 1, 1, |b, q| {
            b.expectation(0, &[(q[0], Pauli::X)]).unwrap();
        }),
        ("measure_and_free of the shard axis", 1, 1, |b, q| {
            b.measure_and_free(0, q[0]).unwrap();
        }),
        ("measure_and_free of a fresh qubit", 1, 0, |b, _| {
            let x = b.alloc(0, 1)[0];
            b.apply_batch(0, &ops::gate(Gate::H, x)).unwrap();
            b.measure_and_free(0, x).unwrap();
        }),
        ("free", 1, 0, |b, q| {
            b.free(0, q[1]).unwrap();
        }),
        ("state_vector, nothing queued", 1, 0, |b, q| {
            b.state_vector(q).unwrap();
        }),
        ("state_vector, work queued", 2, 0, |b, q| {
            b.apply_batch(0, &ops::gate(Gate::H, q[1])).unwrap();
            b.state_vector(q).unwrap();
        }),
    ];
    for transport in [TransportKind::InProcess, TransportKind::UnixSocket] {
        for (call, cost, exchanges, run) in table {
            let kind = BackendKind::RemoteSharded { shards: 2 };
            let b = build_backend(kind, transport, 3, NoiseModel::ideal()).unwrap();
            let q = b.alloc(0, 2);
            b.apply_batch(0, &ops::gate(Gate::H, q[0])).unwrap();
            // A read first, so nothing is queued when the call starts.
            b.prob_one(0, q[0]).unwrap();
            let rounds = || {
                let t = b.transport_stats().unwrap();
                (t.command_rounds, t.exchange_rounds)
            };
            let before = rounds();
            run(&*b, &q);
            let after = rounds();
            assert_eq!(after.0 - before.0, cost, "{transport}: {call}");
            assert_eq!(
                after.1 - before.1,
                exchanges,
                "{transport}: {call}, exchanges"
            );
        }
    }
}

/// The shard axes stay on the qubits that hold them, so once the register
/// is wider than the shard bits a fresh qubit is a local bit: allocating
/// it, entangling it with a local qubit and measuring and freeing it move
/// no stripe. No exchange round, and over the socket the same bytes at 8
/// and at 12 qubits, commands and replies only.
#[test]
fn a_fresh_qubit_costs_no_exchange_and_no_stripe_bytes() {
    ensure_worker_bin();
    let cycle = |transport: TransportKind, width: usize| {
        let mut e = spawned(5, 4, transport);
        let qs: Vec<_> = (0..width).map(|_| e.alloc()).collect();
        for &q in &qs {
            e.apply_batch(&ops::gate(Gate::Ry(0.9), q)).unwrap();
        }
        e.prob_one(qs[0]).unwrap();
        let before = e.transport_stats();
        for _ in 0..3 {
            let fresh = e.alloc();
            e.apply_batch(&ops::cnot(qs[width - 1], fresh)).unwrap();
            e.measure_and_free(fresh).unwrap();
        }
        // Ship the last free's queued collapse and reshape.
        e.prob_one(qs[0]).unwrap();
        let after = e.transport_stats();
        (
            after.exchange_rounds - before.exchange_rounds,
            after.wire_bytes - before.wire_bytes,
        )
    };
    for transport in [TransportKind::InProcess, TransportKind::UnixSocket] {
        for width in [8, 12] {
            assert_eq!(cycle(transport, width).0, 0, "{transport}, {width} qubits");
        }
    }
    let (narrow, wide) = (
        cycle(TransportKind::UnixSocket, 8).1,
        cycle(TransportKind::UnixSocket, 12).1,
    );
    assert!(narrow > 0);
    assert_eq!(
        narrow, wide,
        "bytes that grow with the register are stripes"
    );
}

/// An alloc/free storm over four shards that frees long-lived qubits
/// holding shard axes while newer qubits live (and fresh ones, which are
/// local): each free of an axis hands it to the highest local qubit with
/// one exchange per shard pair, the others exchange nothing, and outcomes
/// and amplitudes stay the dense engine's to the bit after every free, in
/// process and over sockets, measured and freed at once or measured, then
/// freed.
#[test]
fn alloc_free_storm_over_shard_axes_matches_dense_bit_for_bit() {
    for (transport, limit) in REMOTE_ARMS {
        for seed in [1u64, 7] {
            let mut rng = TestRng::for_case(seed);
            let mut dense = StateVectorEngine::new(seed);
            let mut remote = remote(seed, 4, NoiseModel::ideal(), transport, limit);
            let (mut dq, mut rq): (Vec<QubitId>, Vec<QubitId>) = (Vec::new(), Vec::new());
            let (mut axis_frees, mut local_frees) = (0, 0);
            for round in 0..24 {
                // Newer qubits, entangled with the live ones at generic angles.
                while dq.len() < 7 {
                    let (d, r) = (dense.alloc(), remote.alloc());
                    let old = rng.below(dq.len().max(1) as u64) as usize;
                    let ry = Gate::Ry(0.2 + 2.8 * rng.unit_f64());
                    dense.apply_batch(&ops::gate(ry, d)).unwrap();
                    remote.apply_batch(&ops::gate(ry, r)).unwrap();
                    if !dq.is_empty() {
                        dense.apply_batch(&ops::cnot(dq[old], d)).unwrap();
                        remote.apply_batch(&ops::cnot(rq[old], r)).unwrap();
                    }
                    dq.push(d);
                    rq.push(r);
                }
                // The oldest, mostly; sometimes the newest or one between.
                let at = match round % 4 {
                    3 => dq.len() - 1,
                    2 => 1 + rng.below(dq.len() as u64 - 1) as usize,
                    _ => 0,
                };
                let (d, r) = (dq.remove(at), rq.remove(at));
                let before = remote.transport_stats().exchange_rounds;
                let case = format!("{transport}, limit {limit:?}, seed {seed}, round {round}");
                if round % 2 == 0 {
                    let outcome = dense.measure_and_free(d).unwrap();
                    assert_eq!(remote.measure_and_free(r).unwrap(), outcome, "{case}");
                } else {
                    let outcome = dense.measure_z_parity(&[d]).unwrap();
                    assert_eq!(remote.measure_z_parity(&[r]).unwrap(), outcome, "{case}");
                    assert_eq!(dense.free(d).unwrap(), remote.free(r).unwrap(), "{case}");
                }
                match remote.transport_stats().exchange_rounds - before {
                    0 => local_frees += 1,
                    2 => axis_frees += 1,
                    other => panic!("{case}: a free cost {other} exchanges"),
                }
                let want = dense.state_vector(&dq).unwrap();
                let got = remote.state_vector(&rq).unwrap();
                let bits = |s: &qsim::State| -> Vec<(u64, u64)> {
                    let amps = s.amplitudes().iter();
                    amps.map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{case}");
            }
            assert!(
                axis_frees >= 4 && local_frees >= 4,
                "{transport}, limit {limit:?}: {axis_frees} / {local_frees}"
            );
        }
    }
}

/// The in-place reshape against the dense engine: seeded interleavings of
/// alloc / rotation + CNOT / `measure_and_free` at random positions, up to
/// 7 live qubits, so at 8 shards the state grows and shrinks through
/// fewer-qubits-than-shard-bits and every stripe-part routing case runs.
/// Outcomes and amplitudes are the dense engine's to the bit after every
/// step, at every shard count: every sum is exact.
#[test]
fn reshape_tracks_the_dense_engine_through_every_layout_case() {
    for (transport, limit) in REMOTE_ARMS {
        for shards in [1usize, 2, 4, 8] {
            for seed in 0..4u64 {
                let mut rng = TestRng::for_case(seed * 16 + shards as u64);
                let mut dense = StateVectorEngine::new(seed);
                let mut remote = remote(seed, shards, NoiseModel::ideal(), transport, limit);
                let (mut dq, mut rq): (Vec<QubitId>, Vec<QubitId>) = (Vec::new(), Vec::new());
                for step in 0..80 {
                    let n = dq.len();
                    match rng.below(3) {
                        0 if n < 7 => {
                            dq.push(dense.alloc());
                            rq.push(remote.alloc());
                        }
                        1 if n > 0 => {
                            let i = rng.below(n as u64) as usize;
                            let ry = Gate::Ry(3.0 * rng.unit_f64());
                            dense.apply_batch(&ops::gate(ry, dq[i])).unwrap();
                            remote.apply_batch(&ops::gate(ry, rq[i])).unwrap();
                            if n > 1 {
                                let j = (i + 1 + rng.below(n as u64 - 1) as usize) % n;
                                dense.apply_batch(&ops::cnot(dq[i], dq[j])).unwrap();
                                remote.apply_batch(&ops::cnot(rq[i], rq[j])).unwrap();
                            }
                        }
                        2 if n > 0 => {
                            let i = rng.below(n as u64) as usize;
                            assert_eq!(
                            dense.measure_and_free(dq.remove(i)).unwrap(),
                            remote.measure_and_free(rq.remove(i)).unwrap(),
                            "{transport}, limit {limit:?}, shards={shards} seed={seed} step={step}: outcome"
                        );
                        }
                        _ => continue,
                    }
                    let want = dense.state_vector(&dq).unwrap();
                    let got = remote.state_vector(&rq).unwrap();
                    assert_eq!(want.len(), got.len());
                    for i in 0..want.len() {
                        let (w, g) = (want.amplitude(i), got.amplitude(i));
                        assert_eq!(
                        (w.re.to_bits(), w.im.to_bits()),
                        (g.re.to_bits(), g.im.to_bits()),
                        "{transport}, limit {limit:?}, shards={shards} seed={seed} step={step} amp[{i}]: {w:?} vs {g:?}"
                    );
                    }
                }
            }
        }
    }
}

/// Alloc and free change each stripe where it lives; the dense state never
/// reaches the controller. Over the socket that is a byte bound: growing a
/// 12-qubit state (a new local qubit) and freeing a within-stripe qubit
/// cost command and reply frames only.
#[test]
fn alloc_and_free_keep_the_state_off_the_controller_wire() {
    ensure_worker_bin();
    let mut e = spawned(3, SHARDS, TransportKind::UnixSocket);
    let qs: Vec<_> = (0..12).map(|_| e.alloc()).collect();
    for &q in &qs {
        e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
    }
    let state_bytes = 16u64 << qs.len();
    // Gate batches and allocs wait in the queue; a reduction ships them,
    // and its replies come after every exchange they set off.
    let bytes = |e: &RemoteShardedEngine| {
        e.prob_one(qs[1]).unwrap();
        e.transport_stats().wire_bytes
    };

    let before = bytes(&e);
    let top = e.alloc();
    let alloc_bytes = bytes(&e) - before;
    assert!(
        alloc_bytes < 1024,
        "alloc moved {alloc_bytes} B for a {state_bytes} B state"
    );

    let before = bytes(&e);
    e.measure_and_free(qs[0]).unwrap();
    let free_bytes = bytes(&e) - before;
    assert!(
        free_bytes < 1024,
        "a within-stripe free moved {free_bytes} B"
    );

    // The state survived both: every remaining qubit still reads |+>.
    for &q in &qs[1..] {
        let x = e.expectation(&[(q, Pauli::X)]).unwrap();
        assert!((x - 1.0).abs() < 1e-12, "<X> = {x}");
    }
    assert!(e.prob_one(top).unwrap() < 1e-12);
}

/// A fresh qubit is a local bit: its |1⟩ half is zero-filled where the
/// stripe lives (no zero run travels, not even as a length), and a gate
/// pairing two fresh qubits runs within each stripe, so growing a 12-qubit
/// state by an entangled pair moves no amplitude at all.
#[test]
fn a_fresh_pair_ships_its_zero_halves_as_lengths() {
    ensure_worker_bin();
    let mut e = spawned(3, SHARDS, TransportKind::UnixSocket);
    let qs: Vec<_> = (0..12).map(|_| e.alloc()).collect();
    for &q in &qs {
        e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
    }
    let state_bytes = 16u64 << qs.len();
    let bytes = |e: &RemoteShardedEngine| {
        e.prob_one(qs[1]).unwrap();
        e.transport_stats().wire_bytes
    };

    let before = bytes(&e);
    let (a, b) = (e.alloc(), e.alloc());
    e.apply_batch(&ops::gate(Gate::H, a)).unwrap();
    e.apply_batch(&ops::cnot(a, b)).unwrap();
    let moved = bytes(&e) - before;
    assert!(
        moved < 2048,
        "an entangled pair's alloc moved {moved} B for a {state_bytes} B state"
    );
    assert!((e.prob_one(b).unwrap() - 0.5).abs() < 1e-12);
}

/// A checkpoint limit of one logged unit gathers the whole state after
/// every read that ships work, on top of what the read itself moves: the
/// same gate and read cost at least the 16 KiB of a 10-qubit state more on
/// the wire than at the engine's own threshold, and read the same bits.
#[test]
fn a_checkpoint_limit_of_one_gathers_the_state_after_every_unit() {
    let cost = |limit| {
        let mut e = remote(
            3,
            SHARDS,
            NoiseModel::ideal(),
            TransportKind::UnixSocket,
            limit,
        );
        let qs: Vec<_> = (0..10).map(|_| e.alloc()).collect();
        for &q in &qs {
            e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        }
        e.prob_one(qs[0]).unwrap();
        let before = e.transport_stats().wire_bytes;
        e.apply_batch(&ops::gate(Gate::Ry(0.4), qs[1])).unwrap();
        let p = e.prob_one(qs[1]).unwrap().to_bits();
        (p, e.transport_stats().wire_bytes - before)
    };
    let (own, one) = (cost(None), cost(Some(1)));
    assert_eq!(own.0, one.0, "the read does not depend on the limit");
    assert!(
        one.1 >= own.1 + (16 << 10),
        "limit 1 moved {} B, the default {} B",
        one.1,
        own.1
    );
}

/// A snapshot order the front rejects — a freed qubit, or a live one twice —
/// errors before any protocol round: no gather, no checkpoint, no bytes.
#[test]
fn invalid_snapshot_order_costs_no_gather() {
    ensure_worker_bin();
    for kind in [TransportKind::InProcess, TransportKind::UnixSocket] {
        let mut e = spawned(7, SHARDS, kind);
        let (a, b) = (e.alloc(), e.alloc());
        e.apply_batch(&ops::gate(Gate::H, a)).unwrap();
        assert!(!e.free(b).unwrap());
        // A reduction first, so every exchange has been reported.
        e.prob_one(a).unwrap();
        let before = e.transport_stats();
        assert!(
            matches!(e.state_vector(&[b]), Err(SimError::UnknownQubit(q)) if q == b),
            "{kind}"
        );
        assert_eq!(e.transport_stats(), before, "{kind}: a freed qubit");
        assert!(
            matches!(e.state_vector(&[a, a]), Err(SimError::DuplicateQubit(q)) if q == a),
            "{kind}"
        );
        assert_eq!(e.transport_stats(), before, "{kind}: a repeated qubit");
    }
}

/// Every engine kind.
const KINDS: [BackendKind; 5] = [
    BackendKind::StateVector,
    BackendKind::Stabilizer,
    BackendKind::Trace,
    BackendKind::Sparse,
    BackendKind::RemoteSharded { shards: SHARDS },
];

/// A rank's flush reaches the engine at its call, on every engine kind and
/// over threads and sockets alike: the engine counts its gates before
/// `apply_batch` returns. On the remote engine the store queues them, so
/// the flushes cost no command round and the next read costs one.
#[test]
fn a_flush_reaches_the_engine_at_its_call_on_every_kind() {
    ensure_worker_bin();
    for kind in KINDS {
        for transport in [TransportKind::InProcess, TransportKind::UnixSocket] {
            let b = build_backend(kind, transport, 3, NoiseModel::ideal()).unwrap();
            let (mine, theirs) = (b.alloc(0, 2), b.alloc(1, 1)[0]);
            let rounds = || b.transport_stats().map(|t| t.command_rounds);
            let before = rounds();
            b.apply_batch(
                0,
                &ops::batch([
                    BatchOp::Gate {
                        gate: Gate::H,
                        q: mine[0],
                    },
                    BatchOp::Cnot {
                        c: mine[0],
                        t: mine[1],
                    },
                ]),
            )
            .unwrap();
            assert_eq!(b.gate_count(), 2, "{kind} over {transport}");
            b.apply_batch(1, &ops::gate(Gate::X, theirs)).unwrap();
            assert_eq!(b.gate_count(), 3, "{kind} over {transport}");
            assert_eq!(rounds(), before, "{kind} over {transport}: flushes queue");
            b.prob_one(1, theirs).unwrap();
            assert_eq!(
                rounds(),
                before.map(|r| r + 1),
                "{kind} over {transport}: one read ships them"
            );
        }
    }
}

const STORM_RANKS: usize = 4;
const STORM_QUBITS_PER_RANK: usize = 2;
const STORM_ROUNDS: usize = 3;

/// One rank's flush in a storm round: a few gates on the rank's own qubits.
fn storm_batch(round: usize, qs: &[QubitId]) -> GateBatch {
    ops::batch([
        BatchOp::Gate {
            gate: Gate::H,
            q: qs[round % qs.len()],
        },
        BatchOp::Cnot { c: qs[0], t: qs[1] },
        BatchOp::Gate {
            gate: Gate::Rz(0.3 + 0.1 * round as f64),
            q: qs[1],
        },
    ])
}

/// What a storm observes: amplitudes as canonical bit patterns, then every
/// qubit's measurement.
type StormOutcome = (Vec<(u64, u64)>, Vec<bool>);

/// Runs a gate storm: each of four ranks owns a pair of qubits and flushes
/// one batch a round, for three rounds, driven from this one thread so the
/// flush order (and so the noise-draw order) is fixed. Returns what the
/// storm observes and the command rounds its flushes cost (`None` without
/// a transport).
fn run_storm(backend: &dyn QuantumBackend) -> (StormOutcome, Option<u64>) {
    let owned: Vec<Vec<QubitId>> = (0..STORM_RANKS)
        .map(|r| backend.alloc(r, STORM_QUBITS_PER_RANK))
        .collect();
    let rounds = || backend.transport_stats().map(|t| t.command_rounds);
    let before = rounds();
    for round in 0..STORM_ROUNDS {
        for (r, qs) in owned.iter().enumerate() {
            backend.apply_batch(r, &storm_batch(round, qs)).unwrap();
        }
    }
    let cost = rounds().zip(before).map(|(after, before)| after - before);
    let all: Vec<QubitId> = owned.iter().flatten().copied().collect();
    let st = backend.state_vector(&all).unwrap();
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
        .map(|(r, q)| backend.measure_z_parity(r, &[q]).unwrap())
        .collect();
    ((amps, trajectory), cost)
}

/// A storm of rank flushes costs no command round — the store queues them
/// until a read — and lands on the dense engine's bits, amplitudes and
/// measurements both, with and without Pauli noise drawn along the way.
#[test]
fn a_storm_of_rank_flushes_costs_no_command_round_and_matches_dense() {
    for noise in [NoiseModel::ideal(), NoiseModel::depolarizing(0.2)] {
        for seed in [7u64, 42] {
            let dense = build_backend(
                BackendKind::StateVector,
                TransportKind::InProcess,
                seed,
                noise,
            );
            let (dense, _) = run_storm(&*dense.unwrap());
            for (transport, limit) in REMOTE_ARMS {
                let (remote, rounds) =
                    run_storm(&Shared::new(remote(seed, SHARDS, noise, transport, limit)));
                let case = format!("{transport}, limit {limit:?}, seed {seed}");
                assert_eq!(rounds, Some(0), "{case}: flushes wait for a read");
                assert_eq!(remote, dense, "{case}: the storm left the dense bits");
            }
        }
    }
}

/// The same noisy storm over `qworker` processes costs the same rounds
/// and observes the same bits as over threads.
#[test]
fn a_socket_storm_matches_the_in_process_storm_bit_for_bit() {
    let storm = |transport, limit| {
        let noise = NoiseModel::depolarizing(0.15);
        run_storm(&Shared::new(remote(13, SHARDS, noise, transport, limit)))
    };
    let threads = storm(TransportKind::InProcess, None);
    for limit in CHECKPOINT_LIMITS {
        assert_eq!(
            storm(TransportKind::UnixSocket, limit),
            threads,
            "limit {limit:?}"
        );
    }
}

/// Every place worker worlds can live.
const TRANSPORTS: [TransportKind; 2] = [TransportKind::InProcess, TransportKind::UnixSocket];

fn spawned(seed: u64, shards: usize, kind: TransportKind) -> RemoteShardedEngine {
    remote(seed, shards, NoiseModel::ideal(), kind, None)
}

fn pool_over(slots: usize, shards: usize, kind: TransportKind) -> ShardWorkerPool {
    ShardWorkerPool::over_transport(slots, shards, kind).expect("spawn the worker pool")
}

/// A short seeded program with measurements, exercising gates,
/// cross-shard pairing, and RNG-consuming collapses.
fn seeded_trajectory(e: &mut RemoteShardedEngine, seed_angle: f64) -> (Vec<bool>, Vec<u64>) {
    let qs: Vec<_> = (0..4).map(|_| e.alloc()).collect();
    e.apply_batch(&ops::gate(Gate::Ry(seed_angle), qs[0]))
        .unwrap();
    e.apply_batch(&ops::cnot(qs[0], qs[3])).unwrap();
    e.apply_batch(&ops::gate(Gate::H, qs[1])).unwrap();
    e.apply_batch(&ops::cz(qs[1], qs[2])).unwrap();
    let outcomes: Vec<bool> = qs
        .into_iter()
        .map(|q| e.measure_and_free(q).unwrap())
        .collect();
    (outcomes, vec![e.gate_count(), e.measurement_count()])
}

#[test]
fn leased_engines_are_bit_identical_to_spawned_and_slots_reset() {
    ensure_worker_bin();
    for kind in TRANSPORTS {
        let pool = pool_over(2, 4, kind);
        assert_eq!((pool.slots(), pool.shards()), (2, 4));
        assert_eq!(pool.available(), 2);
        for (seed, angle) in [(11u64, 0.3), (12, 1.1), (11, 0.3)] {
            // Spawn-per-engine reference trajectory.
            let want = seeded_trajectory(&mut spawned(seed, 4, kind), angle);
            // Same seed over a pooled lease — including the third pass,
            // which reuses a slot two earlier engines already dirtied.
            let lease = pool.try_lease().expect("slot free");
            assert_eq!(lease.shards(), 4);
            let mut leased = RemoteShardedEngine::from_lease(seed, lease, NoiseModel::ideal());
            let got = seeded_trajectory(&mut leased, angle);
            assert_eq!(got, want, "{kind} seed {seed}: pooled must match spawned");
            // The slot came back with its workers alive, not replaced.
            assert_eq!(leased.transport_stats().respawns, 0, "{kind}");
            drop(leased);
            assert_eq!(pool.available(), 2, "{kind}: slot returned on engine drop");
        }
    }
}

/// Leases are exclusive, the pool reports exhaustion, and engines over
/// concurrently held leases never observe each other's traffic.
#[test]
fn concurrent_leases_run_isolated_worlds() {
    ensure_worker_bin();
    for kind in TRANSPORTS {
        let pool = pool_over(2, 2, kind);
        let solo: Vec<_> = (0..2u64)
            .map(|seed| seeded_trajectory(&mut spawned(seed, 2, kind), 0.4 + seed as f64))
            .collect();
        let leases = [pool.lease(), pool.lease()];
        assert!(pool.try_lease().is_none(), "{kind}: both slots out");
        std::thread::scope(|s| {
            let handles: Vec<_> = leases
                .into_iter()
                .zip(0u64..)
                .map(|(lease, seed)| {
                    s.spawn(move || {
                        let mut e =
                            RemoteShardedEngine::from_lease(seed, lease, NoiseModel::ideal());
                        seeded_trajectory(&mut e, 0.4 + seed as f64)
                    })
                })
                .collect();
            for (h, want) in handles.into_iter().zip(&solo) {
                assert_eq!(&h.join().unwrap(), want, "{kind}");
            }
        });
        assert_eq!(pool.available(), 2, "{kind}");
    }
}

/// A blocking `lease()` wakes when the slot is released, and dropping the
/// pool shuts its free slots down at once but a leased slot only when its
/// lease drops (the engine over it keeps working until then).
#[test]
fn blocked_lease_wakes_on_release_and_leases_outlive_the_pool() {
    ensure_worker_bin();
    for kind in TRANSPORTS {
        let pool = pool_over(1, 2, kind);
        let held = pool.lease();
        let (about_to_block, blocked) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                about_to_block.send(()).unwrap();
                drop(pool.lease());
            });
            blocked.recv().unwrap();
            // Best effort at letting the waiter reach the condvar; the
            // assertions hold either way.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!waiter.is_finished(), "{kind}: the only slot is held");
            drop(held);
            waiter.join().unwrap();
        });
        assert_eq!(pool.available(), 1, "{kind}");

        let pool = pool_over(2, 2, kind);
        let held = pool.lease();
        drop(pool);
        let want = seeded_trajectory(&mut spawned(5, 2, kind), 0.7);
        let mut orphan = RemoteShardedEngine::from_lease(5, held, NoiseModel::ideal());
        assert_eq!(seeded_trajectory(&mut orphan, 0.7), want, "{kind}");
    }
}

/// A lessee that gets a worker process killed and then drops its engine
/// mid-protocol (live qubits, a dead child, nothing cleaned up) poisons
/// nothing: the slot goes home, and the next lessee's reset respawns the
/// worker and lands on the trajectory of a freshly spawned engine.
#[test]
fn poisoned_lease_is_reset_for_the_next_lessee() {
    ensure_worker_bin();
    let kind = TransportKind::UnixSocket;
    let pool = pool_over(1, SHARDS, kind);
    let want = seeded_trajectory(&mut spawned(31, SHARDS, kind), 0.9);
    {
        let mut e = RemoteShardedEngine::from_lease(30, pool.lease(), NoiseModel::ideal());
        let qs: Vec<_> = (0..N_QUBITS).map(|_| e.alloc()).collect();
        for w in qs.windows(2) {
            e.apply_batch(&ops::gate(Gate::H, w[0])).unwrap();
            e.apply_batch(&ops::cnot(w[0], w[1])).unwrap();
        }
        e.debug_kill_worker_process(SHARDS - 1);
    }
    assert_eq!(pool.available(), 1, "a poisoned slot still goes home");
    let mut next = RemoteShardedEngine::from_lease(31, pool.lease(), NoiseModel::ideal());
    assert_eq!(seeded_trajectory(&mut next, 0.9), want);
    assert!(next.transport_stats().respawns >= 1, "the reset respawned");
    drop(next);
    assert_eq!(pool.available(), pool.slots());
}

mod proptests {
    use super::*;
    use crate::common::conformance::strategies::arb_steps;
    use proptest::prelude::*;

    proptest! {
        // Each case spawns worker processes; keep the default sweep small
        // (the nightly stress lane raises it via PROPTEST_CASES).
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The tentpole acceptance property: random dense circuits land
        /// bit-identically over the socket transport, ideal or noisy.
        #[test]
        fn random_circuits_bit_identical_across_transports(
            steps in arb_steps(N_QUBITS, false, 6..20),
            seed in 0u64..1000,
            p in 0.0f64..0.4,
        ) {
            let socket = TransportKind::UnixSocket;
            assert_transports_bit_identical(socket, &steps, NoiseModel::ideal(), seed);
            assert_transports_bit_identical(socket, &steps, NoiseModel::depolarizing(p), seed);
        }
    }
}
