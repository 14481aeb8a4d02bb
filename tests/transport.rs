//! Multi-process transport acceptance suite.
//!
//! The socket transports run the same planner, the same kernels, in the
//! same global order as the in-process remote engine — so per seed they
//! must be *bit-identical*, not merely close: same amplitudes (as bit
//! patterns), same measurement trajectory, same command/exchange round
//! counts, with or without Pauli noise drawn along the way.
//!
//! And a worker process dying mid-run must be survivable: the controller
//! observes EOF, respawns the child, re-scatters its stripe from the last
//! checkpoint, replays the logged suffix, and the run finishes with the
//! same amplitudes as a run in which nothing died.
//!
//! Circuit driving and observable capture live in the shared conformance
//! harness (`common::conformance`); this suite only picks the pair to
//! compare: same remote backend, in-process vs unix-socket transport.
//!
//! These tests spawn real `qworker` child processes. The binary is built
//! as part of this package; its path reaches the engine through
//! `QMPI_QWORKER_BIN`.

mod common;

use common::conformance::{ensure_worker_bin, run_circuit, Outcome, Step};
use common::ops;
use proptest::test_runner::TestRng;
use qmpi::{
    build_backend, run_with_config, BackendKind, QmpiConfig, QuantumBackend, RemoteShardedEngine,
    ShardWorkerPool, SimEngine, StateVectorEngine, TransportKind,
};
use qsim::{BatchOp, Gate, GateBatch, NoiseModel, Pauli, QubitId, SimError};

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
    for socket in [TransportKind::UnixSocket, TransportKind::Tcp] {
        for seed in [1u64, 7, 42] {
            assert_transports_bit_identical(socket, &steps, NoiseModel::ideal(), seed);
            assert_transports_bit_identical(socket, &steps, NoiseModel::depolarizing(0.2), seed);
        }
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
    ensure_worker_bin();
    let run = |kill: bool| {
        let mut e = RemoteShardedEngine::over_transport(
            11,
            SHARDS,
            NoiseModel::depolarizing(0.1),
            TransportKind::UnixSocket,
        )
        .expect("spawn unix-socket shard workers");
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
        let m = e.measure(qs[1]).unwrap();
        let amps = amp_bits(&e, &qs);
        let stats = e.transport_stats();
        if kill {
            assert!(
                stats.respawns >= 1,
                "the SIGKILLed worker must have been respawned"
            );
        } else {
            assert_eq!(stats.respawns, 0, "undisturbed run respawns nothing");
        }
        (m, amps)
    };
    assert_eq!(
        run(false),
        run(true),
        "a run that lost a worker must finish bit-identically to one that did not"
    );
}

/// Failover through *coalesced* batches: two ranks' flushes joined into one
/// batch (what the coalesce window ships) wait in the queue at no command
/// round. SIGKILL a worker after one such batch; the measurement's read
/// ships both and trips over the EOF, failover reloads the checkpoint,
/// restores the queue, retries the read — and the run finishes
/// bit-identical to an undisturbed run, noise draws included.
#[test]
fn sigkilled_worker_mid_coalesced_batch_replays_segments_bit_identically() {
    ensure_worker_bin();
    let run = |kill: bool| {
        let mut e = RemoteShardedEngine::over_transport(
            17,
            SHARDS,
            NoiseModel::depolarizing(0.1),
            TransportKind::UnixSocket,
        )
        .expect("spawn unix-socket shard workers");
        let qs: Vec<_> = (0..N_QUBITS).map(|_| e.alloc()).collect();
        for &q in &qs {
            e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        }
        // One "rank's" segment: a rotation plus an entangler confined to
        // its own qubit pair (the window's disjoint-ownership shape).
        let seg = |lo: usize, theta: f64| {
            let mut b = GateBatch::new();
            b.push(BatchOp::Gate {
                gate: Gate::Ry(theta),
                q: qs[lo],
            });
            b.push(BatchOp::Cnot {
                c: qs[lo],
                t: qs[lo + 1],
            });
            b
        };
        let coalesced = |first: GateBatch, second: GateBatch| {
            let mut window = first;
            window.append(second);
            window
        };
        // A coalesced batch (two segments) is queued: no command round.
        let rounds = e.transport_stats().command_rounds;
        e.apply_batch(&coalesced(seg(0, 0.3), seg(2, 0.7))).unwrap();
        assert_eq!(e.transport_stats().command_rounds, rounds);
        if kill {
            e.debug_kill_worker_process(SHARDS - 1);
        }
        // Queued too; the measurement's read discovers the dead socket.
        e.apply_batch(&coalesced(seg(0, 1.1), seg(2, 0.2))).unwrap();
        // Trajectory identity proves replay did not re-draw randomness.
        let m = e.measure(qs[0]).unwrap();
        let amps = amp_bits(&e, &qs);
        let stats = e.transport_stats();
        if kill {
            assert!(
                stats.respawns >= 1,
                "the SIGKILLed worker must have been respawned"
            );
        } else {
            assert_eq!(stats.respawns, 0, "undisturbed run respawns nothing");
        }
        (m, amps)
    };
    assert_eq!(
        run(false),
        run(true),
        "a coalesced batch interrupted by a worker death must replay bit-identically"
    );
}

/// Killing a worker twice (including re-killing the respawned child) is
/// still survivable: every failure epoch restarts cleanly.
#[test]
fn worker_survives_repeated_kills() {
    ensure_worker_bin();
    let mut e = RemoteShardedEngine::over_transport(
        5,
        SHARDS,
        NoiseModel::ideal(),
        TransportKind::UnixSocket,
    )
    .expect("spawn unix-socket shard workers");
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
        "the self-inverse run ends in |00>"
    );
    assert!(e.prob_one(p).unwrap() < 1e-9);
    assert!(e.transport_stats().respawns >= 2);
}

/// Allocs and frees are logged like any gate batch, not checkpoints: a worker SIGKILLed (a) before an alloc, (b) between an
/// alloc and its first gate, (c) before a `measure_and_free` is respawned,
/// the checkpoint reloaded at *its* layout, the logged reshapes replayed on
/// top — and the run lands on the undisturbed run's outcomes and amplitude
/// bits. Odd rounds free a low (within-stripe) position, even rounds the
/// top (shard-selecting) one, so both data paths replay.
#[test]
fn sigkilled_workers_across_layout_changes_finish_bit_identically() {
    ensure_worker_bin();
    const ROUNDS: usize = 12;
    for kind in [TransportKind::UnixSocket, TransportKind::Tcp] {
        let run = |kill: bool| {
            let mut e = spawned(19, SHARDS, kind);
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
                "{kind}: {respawns} respawns, {kills} kills"
            );
            (outcomes, amp_bits(&e, &live))
        };
        assert_eq!(
            run(false),
            run(true),
            "{kind}: worker deaths around layout changes must not show"
        );
    }
}

/// A worker SIGKILLed while work waits in the queue: right after a
/// `measure` (its `CollapseScale` queued), right after an alloc (its
/// `Reshape` queued) and right after a `measure_and_free` (its `Scale`
/// queued). Each time the next read ships the queue into the dead socket,
/// and failover reloads the checkpoint, replays the log, restores the queue
/// and retries the read — landing on the undisturbed run's amplitudes and
/// measurement trajectory.
#[test]
fn sigkilled_worker_with_work_queued_finishes_bit_identically() {
    ensure_worker_bin();
    let run = |kill: bool| {
        let mut e = RemoteShardedEngine::over_transport(
            23,
            SHARDS,
            NoiseModel::depolarizing(0.1),
            TransportKind::UnixSocket,
        )
        .expect("spawn unix-socket shard workers");
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
        let mut trajectory = vec![e.measure(qs[1]).unwrap()];
        kill_now(&e, 0);
        trajectory.push(e.measure(qs[2]).unwrap());
        qs.push(e.alloc());
        kill_now(&e, SHARDS - 1);
        e.apply_batch(&ops::gate(Gate::H, qs[N_QUBITS])).unwrap();
        e.apply_batch(&ops::cnot(qs[N_QUBITS], qs[0])).unwrap();
        trajectory.push(e.measure_and_free(qs.remove(1)).unwrap());
        kill_now(&e, 0);
        trajectory.push(e.measure(qs[0]).unwrap());
        let respawns = e.transport_stats().respawns;
        (trajectory, amp_bits(&e, &qs), respawns)
    };
    let (calm, killed) = (run(false), run(true));
    assert_eq!(calm.2, 0, "undisturbed run respawns nothing");
    assert!(killed.2 >= 3, "{} respawns for three kills", killed.2);
    assert_eq!(
        (calm.0, calm.1),
        (killed.0, killed.1),
        "worker deaths with work queued must not show"
    );
}

/// What each call costs in command rounds on `RemoteSharded{2}`, over
/// threads and over sockets. Allocs, gate batches and EPR establishment on
/// fresh qubits wait in the queue. A read is one round, and so is an EPR
/// establishment that has to probe a qubit a batch touched. A free,
/// measuring or not, is two: the dropped mass and the norm come back. A
/// snapshot is one, or two when work is queued.
#[test]
fn every_call_costs_its_pinned_command_rounds() {
    ensure_worker_bin();
    type Call = fn(&dyn QuantumBackend, &[QubitId]);
    let table: [(&str, u64, Call); 12] = [
        ("alloc", 0, |b, _| {
            b.alloc(0, 1);
        }),
        ("gate batch", 0, |b, q| {
            b.apply_batch(0, &ops::cnot(q[0], q[1])).unwrap();
            b.sync_coalesced().unwrap();
        }),
        ("entangle_epr on fresh qubits", 0, |b, _| {
            let (x, y) = (b.alloc(0, 1)[0], b.alloc(1, 1)[0]);
            b.entangle_epr(x, y).unwrap();
        }),
        ("entangle_epr on a qubit flipped by X twice", 1, |b, _| {
            let (x, y) = (b.alloc(0, 1)[0], b.alloc(1, 1)[0]);
            for _ in 0..2 {
                b.apply_batch(0, &ops::gate(Gate::X, x)).unwrap();
            }
            b.entangle_epr(x, y).unwrap();
        }),
        ("prob_one", 1, |b, q| {
            b.prob_one(0, q[0]).unwrap();
        }),
        ("measure", 1, |b, q| {
            b.measure(0, q[0]).unwrap();
        }),
        ("measure_z_parity", 1, |b, q| {
            b.measure_z_parity(0, q).unwrap();
        }),
        ("expectation", 1, |b, q| {
            b.expectation(0, &[(q[0], Pauli::X)]).unwrap();
        }),
        ("measure_and_free", 2, |b, q| {
            b.measure_and_free(0, q[0]).unwrap();
        }),
        ("free", 2, |b, q| {
            b.free(0, q[1]).unwrap();
        }),
        ("state_vector, nothing queued", 1, |b, q| {
            b.state_vector(q).unwrap();
        }),
        ("state_vector, work queued", 2, |b, q| {
            b.apply_batch(0, &ops::gate(Gate::H, q[1])).unwrap();
            b.state_vector(q).unwrap();
        }),
    ];
    for transport in [TransportKind::InProcess, TransportKind::UnixSocket] {
        for (call, cost, run) in table {
            let kind = BackendKind::RemoteSharded { shards: 2 };
            let b = build_backend(kind, transport, 3, NoiseModel::ideal()).unwrap();
            let q = b.alloc(0, 2);
            b.apply_batch(0, &ops::gate(Gate::H, q[0])).unwrap();
            // A read first, so nothing is queued when the call starts.
            b.prob_one(0, q[0]).unwrap();
            let rounds = || b.transport_stats().unwrap().command_rounds;
            let before = rounds();
            run(&*b, &q);
            assert_eq!(rounds() - before, cost, "{transport}: {call}");
        }
    }
}

/// The in-place reshape against the dense engine: seeded interleavings of
/// alloc / rotation + CNOT / `measure_and_free` at random positions, up to
/// 7 live qubits, so at 8 shards the state grows and shrinks through
/// fewer-qubits-than-shard-bits and every stripe-part routing case runs.
/// Outcomes are identical and amplitudes agree to 1e-12 after every step —
/// bit for bit with one shard, where the reduction order is the dense one.
#[test]
fn reshape_tracks_the_dense_engine_through_every_layout_case() {
    for shards in [1usize, 2, 4, 8] {
        for seed in 0..4u64 {
            let mut rng = TestRng::for_case(seed * 16 + shards as u64);
            let mut dense = StateVectorEngine::new(seed);
            let mut remote = RemoteShardedEngine::new(seed, shards);
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
                            "shards={shards} seed={seed} step={step}: outcome"
                        );
                    }
                    _ => continue,
                }
                let want = dense.state_vector(&dq).unwrap();
                let got = remote.state_vector(&rq).unwrap();
                assert_eq!(want.len(), got.len());
                for i in 0..want.len() {
                    let (w, g) = (want.amplitude(i), got.amplitude(i));
                    let same = if shards == 1 {
                        (w.re.to_bits(), w.im.to_bits()) == (g.re.to_bits(), g.im.to_bits())
                    } else {
                        w.approx_eq(g, 1e-12)
                    };
                    assert!(
                        same,
                        "shards={shards} seed={seed} step={step} amp[{i}]: {w:?} vs {g:?}"
                    );
                }
            }
        }
    }
}

/// Alloc and free move stripe parts worker↔worker and report two floats per
/// worker; the dense state never reaches the controller. Over the socket
/// that is a byte bound: growing a 12-qubit state costs the one stripe that
/// changes owner, relayed once (in and out of the router: one state's worth
/// of bytes, where gather + doubled scatter cost three), and freeing a
/// within-stripe qubit costs command and report frames only.
#[test]
fn alloc_and_free_keep_the_state_off_the_controller_wire() {
    // A forced checkpoint is a gather by design; with the interval lowered
    // (CI's QMPI_CHECKPOINT_ROUNDS=1 lane) one lands inside every window
    // measured here, and the bounds are about alloc and free themselves.
    if std::env::var_os("QMPI_CHECKPOINT_ROUNDS").is_some() {
        return;
    }
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
        alloc_bytes < state_bytes + 1024,
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
        // A reduction first, so the routers have counted every exchange.
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

/// Every place worker worlds can live.
const TRANSPORTS: [TransportKind; 3] = [
    TransportKind::InProcess,
    TransportKind::UnixSocket,
    TransportKind::Tcp,
];

fn spawned(seed: u64, shards: usize, kind: TransportKind) -> RemoteShardedEngine {
    RemoteShardedEngine::over_transport(seed, shards, NoiseModel::ideal(), kind)
        .expect("spawn shard workers")
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
