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
use qmpi::{run_with_config, BackendKind, QmpiConfig, TransportKind};
use qsim::{BatchOp, Gate, GateBatch, NoiseModel, Pauli};

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

fn assert_transports_bit_identical(steps: &[Step], noise: NoiseModel, seed: u64) {
    ensure_worker_bin();
    let reference = run_remote(TransportKind::InProcess, steps, noise, seed);
    let socket = run_remote(TransportKind::UnixSocket, steps, noise, seed);
    assert_eq!(
        reference, socket,
        "unix-socket transport diverged from in-process (seed {seed})"
    );
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
    for seed in [1u64, 7, 42] {
        assert_transports_bit_identical(&steps, NoiseModel::ideal(), seed);
        assert_transports_bit_identical(&steps, NoiseModel::depolarizing(0.2), seed);
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
/// the next batched dispatch trip over the EOF, and require the run to
/// finish with amplitudes and a measurement trajectory bit-identical to
/// an undisturbed run — plus a respawn on the books.
#[test]
fn sigkilled_worker_respawns_and_finishes_bit_identically() {
    ensure_worker_bin();
    use qmpi::{RemoteShardedEngine, SimEngine};
    let run = |kill: bool| {
        let mut e = RemoteShardedEngine::over_transport(
            11,
            SHARDS,
            NoiseModel::depolarizing(0.1),
            TransportKind::UnixSocket,
        );
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
        // The next dispatch is a whole batch; its command fan-out hits
        // the dead socket, failover respawns the worker, re-scatters the
        // stripe from the checkpoint, and replays the logged suffix.
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
        // A measurement draws from the engine RNG: trajectory identity
        // proves replay did not re-draw or skip randomness.
        let m = e.measure(qs[1]).unwrap();
        let st = e.state_vector(&qs).unwrap();
        let amps: Vec<(u64, u64)> = (0..st.len())
            .map(|i| {
                let a = st.amplitude(i);
                (a.re.to_bits(), a.im.to_bits())
            })
            .collect();
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

/// Failover through *merged* frames: two ranks' sub-streams coalesced
/// into one command round are logged as one mutating unit with the
/// per-rank segment structure intact. SIGKILL a worker after one merged
/// frame committed; the next merged dispatch trips over the EOF, failover
/// reloads the checkpoint, replays the logged merged frame verbatim
/// (segments in arrival order), retries the in-flight one — and the run
/// finishes bit-identical to an undisturbed run, noise draws included.
#[test]
fn sigkilled_worker_mid_merged_batch_replays_segments_bit_identically() {
    ensure_worker_bin();
    use qmpi::{RemoteShardedEngine, ShardableEngine, SimEngine};
    let run = |kill: bool| {
        let mut e = RemoteShardedEngine::over_transport(
            17,
            SHARDS,
            NoiseModel::depolarizing(0.1),
            TransportKind::UnixSocket,
        );
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
        // A committed merged frame (two segments, one command round).
        e.apply_segments_concurrent(vec![(0, seg(0, 0.3)), (1, seg(2, 0.7))])
            .unwrap();
        if kill {
            e.debug_kill_worker_process(SHARDS - 1);
        }
        // This merged dispatch discovers the dead socket mid-fan-out.
        e.apply_segments_concurrent(vec![(0, seg(0, 1.1)), (1, seg(2, 0.2))])
            .unwrap();
        // Trajectory identity proves replay did not re-draw randomness.
        let m = e.measure(qs[0]).unwrap();
        let st = e.state_vector(&qs).unwrap();
        let amps: Vec<(u64, u64)> = (0..st.len())
            .map(|i| {
                let a = st.amplitude(i);
                (a.re.to_bits(), a.im.to_bits())
            })
            .collect();
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
        "a merged batch interrupted by a worker death must replay bit-identically"
    );
}

/// Killing a worker twice (including re-killing the respawned child) is
/// still survivable: every failure epoch restarts cleanly.
#[test]
fn worker_survives_repeated_kills() {
    ensure_worker_bin();
    use qmpi::{RemoteShardedEngine, SimEngine};
    let mut e = RemoteShardedEngine::over_transport(
        5,
        SHARDS,
        NoiseModel::ideal(),
        TransportKind::UnixSocket,
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
        "the self-inverse run ends in |00>"
    );
    assert!(e.prob_one(p).unwrap() < 1e-9);
    assert!(e.transport_stats().respawns >= 2);
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
            assert_transports_bit_identical(&steps, NoiseModel::ideal(), seed);
            assert_transports_bit_identical(&steps, NoiseModel::depolarizing(p), seed);
        }
    }
}
