//! Cross-backend amplitude conformance suite: one harness, six backends.
//!
//! Every amplitude-class backend — sparse, striped (at one and several
//! stripes), process-separated remote — must be bit-identical
//! to the dense state-vector oracle per seed, under the shared harness's
//! canonical rule (`-0.0 ≡ +0.0`, everything else exact): same
//! amplitudes, same expectation values, same measurement trajectory, same
//! counters, on random Clifford+T circuits with random flush points, with
//! and without batching, ideal and under Pauli / amplitude-damping noise.
//!
//! The stabilizer tableau exposes no amplitudes, so it has the oracle's
//! Clifford arm instead: on random Clifford circuits its outcomes and
//! counts equal the dense engine's per seed, and its expectations equal
//! them up to dense rounding, at every batch policy, ideal and noisy. (The
//! trace engine's bar — batched-vs-eager self-identity on the observables
//! it exposes — lives in `tests/batching.rs`, driven by this same
//! harness.)
//!
//! The property module runs under the nightly stress lane's
//! `PROPTEST_CASES=320` sweep alongside the other in-tree proptest suites.

mod common;

use common::conformance::{
    assert_matches_dense_oracle, assert_same_reads, assert_stabilizer_matches_dense, canon_bits,
    ensure_worker_bin, generic_angle_family, Step,
};
use common::ops;
use proptest::test_runner::TestRng;
use qmpi::{
    AmplitudeEngine, BackendKind, BatchPolicy, EngineStore, RemoteShardedEngine,
    ShardedStateVector, SparseEngine, StateVectorEngine,
};
use qsim::{BatchOp, Gate, NoiseModel, Pauli, QubitId};

const N_QUBITS: usize = 10;

/// The batch-policy dimension of the sweep: eager dispatch, unfused
/// batching, coalescing off, and the full default — fusion-off stays
/// bit-identical to the pre-fusion engines, fusion-on must agree because
/// every backend executes the same optimized stream, and coalescing
/// on/off must agree because the window only *defers* a flush's dispatch
/// to the next synchronization point, never reorders it.
fn policies() -> [BatchPolicy; 4] {
    [
        BatchPolicy::eager(),
        BatchPolicy {
            fuse: false,
            ..BatchPolicy::default()
        },
        BatchPolicy {
            coalesce: false,
            ..BatchPolicy::default()
        },
        BatchPolicy::default(),
    ]
}

/// The in-process amplitude-class backends (cheap enough to sweep widely).
fn local_amplitude_kinds() -> [BackendKind; 3] {
    [
        BackendKind::Sparse,
        BackendKind::ShardedStateVector { shards: 1 },
        BackendKind::ShardedStateVector { shards: 8 },
    ]
}

fn fixed_circuit() -> Vec<Step> {
    use Step::*;
    vec![
        G(Gate::H, 0),
        Cnot(0, 1),
        Cnot(1, 2),
        G(Gate::T, 2),
        Flush,
        G(Gate::Ry(0.9), 7),
        Cz(2, 9),
        Swap(3, 8),
        G(Gate::Tdg, 5),
        Cnot(9, 4),
        Flush,
        G(Gate::Rz(1.1), 0),
        G(Gate::H, 6),
        Cz(6, 7),
    ]
}

#[test]
fn fixed_circuit_matches_dense_oracle_on_every_local_kind() {
    let steps = fixed_circuit();
    for kind in local_amplitude_kinds() {
        for policy in policies() {
            assert_matches_dense_oracle(kind, N_QUBITS, &steps, NoiseModel::ideal(), 42, policy);
        }
    }
}

#[test]
fn fixed_circuit_matches_dense_oracle_under_pauli_noise() {
    let steps = fixed_circuit();
    let noise =
        NoiseModel::depolarizing(0.25).with_measurement(qsim::NoiseChannel::Dephasing { p: 0.3 });
    for kind in local_amplitude_kinds() {
        for seed in [1u64, 7, 42] {
            assert_matches_dense_oracle(
                kind,
                N_QUBITS,
                &steps,
                noise,
                seed,
                BatchPolicy::default(),
            );
        }
    }
}

#[test]
fn fixed_circuit_matches_dense_oracle_under_amplitude_damping() {
    let steps = fixed_circuit();
    let noise = NoiseModel::amplitude_damping(0.2);
    for kind in local_amplitude_kinds() {
        for seed in [3u64, 19] {
            assert_matches_dense_oracle(
                kind,
                N_QUBITS,
                &steps,
                noise,
                seed,
                BatchPolicy::default(),
            );
        }
    }
}

/// The process-separated backend runs the fixed sweep too — it spawns
/// real worker children, so it gets its own (smaller) test.
#[test]
fn fixed_circuit_matches_dense_oracle_over_remote_workers() {
    ensure_worker_bin();
    let steps = fixed_circuit();
    let kind = BackendKind::RemoteSharded { shards: 2 };
    assert_matches_dense_oracle(
        kind,
        N_QUBITS,
        &steps,
        NoiseModel::ideal(),
        42,
        BatchPolicy::default(),
    );
    assert_matches_dense_oracle(
        kind,
        N_QUBITS,
        &steps,
        NoiseModel::depolarizing(0.2),
        7,
        BatchPolicy::default(),
    );
    // Coalescing off must land on the same amplitudes and trajectory —
    // the window never reorders a rank's stream, only defers its ship.
    assert_matches_dense_oracle(
        kind,
        N_QUBITS,
        &steps,
        NoiseModel::depolarizing(0.2),
        7,
        BatchPolicy {
            coalesce: false,
            ..BatchPolicy::default()
        },
    );
    assert_matches_dense_oracle(
        kind,
        N_QUBITS,
        &steps,
        NoiseModel::amplitude_damping(0.15),
        11,
        BatchPolicy::eager(),
    );
}

/// Everything the benchmark-sized case observes, as canonical bit patterns.
type LargeStateObs = (Vec<(u64, u64)>, bool, u64);

/// One fixed circuit at the benchmark's state size (2^16 amplitudes, where
/// qperf's `tfim_sv` / `readout_sv` run and the 10-qubit sweeps above never
/// reach): every kernel once, with operands on both sides of the top
/// (shard-selecting) qubit.
fn large_state_observables(kind: BackendKind) -> LargeStateObs {
    const N: usize = 16;
    let cfg = qmpi::QmpiConfig::new()
        .seed(5)
        .backend(kind)
        .transport(cmpi::TransportKind::InProcess);
    let out = qmpi::run_with_config(1, cfg, |ctx| {
        let qs = ctx.alloc_qmem(N);
        for q in &qs {
            ctx.apply(Gate::H, q).unwrap();
        }
        ctx.apply(Gate::Rz(0.3), &qs[7]).unwrap();
        ctx.controlled(&[&qs[15]], Gate::Ry(1.1), &qs[0]).unwrap();
        ctx.controlled(&[&qs[1]], Gate::Ry(-0.7), &qs[15]).unwrap();
        ctx.cnot(&qs[2], &qs[14]).unwrap();
        ctx.cnot(&qs[15], &qs[3]).unwrap();
        ctx.cz(&qs[4], &qs[15]).unwrap();
        ctx.swap(&qs[5], &qs[15]).unwrap();
        let outcome = ctx.measure(&qs[15]).unwrap();
        let xz = ctx
            .expectation(&[(&qs[0], qsim::Pauli::X), (&qs[14], qsim::Pauli::Z)])
            .unwrap();
        let ids: Vec<qsim::QubitId> = qs.iter().map(|q| q.id()).collect();
        let st = ctx.backend().state_vector(&ids).unwrap();
        let amps = st
            .amplitudes()
            .iter()
            .map(|a| (canon_bits(a.re), canon_bits(a.im)))
            .collect();
        for q in qs {
            ctx.measure_and_free(q).unwrap();
        }
        (amps, outcome, canon_bits(xz))
    });
    out.into_iter().next().unwrap()
}

/// The benchmark-sized register again, gated by eight ranks at once (two
/// qubits each, the shape of `qmpi_bench::local_gates`). The order in which
/// the ranks' batches reach an engine is a race, and floating-point products
/// on disjoint qubits do not commute bitwise, so the stream is one whose
/// gates do: H from |0…0> (every amplitude the same product of equal
/// factors), a barrier, then permutations (X, CNOT, SWAP) and exact phases
/// (S, Z, CZ). Returns the amplitudes by rank order and the gate count.
fn concurrent_ranks_observables(kind: BackendKind) -> (Vec<(u64, u64)>, u64) {
    let cfg = qmpi::QmpiConfig::new()
        .seed(5)
        .backend(kind)
        .transport(cmpi::TransportKind::InProcess);
    let out = qmpi::run_with_config(8, cfg, |ctx| {
        let qs = ctx.alloc_qmem(2);
        for q in &qs {
            ctx.apply(Gate::H, q).unwrap();
        }
        ctx.barrier();
        let r = ctx.rank();
        for i in 0..5 + r % 3 {
            let (a, b) = (&qs[(i + r) % 2], &qs[(i + r + 1) % 2]);
            ctx.apply(Gate::S, a).unwrap();
            ctx.cnot(a, b).unwrap();
            ctx.cz(a, b).unwrap();
            if i % 3 == r % 3 {
                ctx.swap(a, b).unwrap();
            }
            ctx.apply(if i % 2 == 0 { Gate::X } else { Gate::Z }, b)
                .unwrap();
        }
        let ids: Vec<u64> = qs.iter().map(|q| q.id().0).collect();
        let seen = ctx.classical().gather(&ids, 0).map(|all| {
            let order: Vec<_> = all.into_iter().flatten().map(qsim::QubitId).collect();
            let st = ctx.backend().state_vector(&order).unwrap();
            let amps = st.amplitudes().iter();
            (
                amps.map(|a| (canon_bits(a.re), canon_bits(a.im))).collect(),
                ctx.backend().gate_count(),
            )
        });
        ctx.barrier();
        for q in qs {
            ctx.measure_and_free(q).unwrap();
        }
        seen
    });
    out.into_iter().next().unwrap().unwrap()
}

#[test]
fn benchmark_sized_state_is_bit_identical_across_dense_engines() {
    let dense = large_state_observables(BackendKind::StateVector);
    assert_eq!(dense.0.len(), 1 << 16);
    let dense_8_ranks = concurrent_ranks_observables(BackendKind::StateVector);
    assert_eq!(dense_8_ranks.0.len(), 1 << 16);
    for kind in [
        BackendKind::ShardedStateVector { shards: 2 },
        BackendKind::RemoteSharded { shards: 2 },
    ] {
        let other = large_state_observables(kind);
        assert!(dense.0 == other.0, "{kind}: amplitude bits diverged");
        assert_eq!(dense.1, other.1, "{kind}: measurement outcome");
        assert_eq!(dense.2, other.2, "{kind}: expectation bits");
    }
    for kind in [
        BackendKind::ShardedStateVector { shards: 2 },
        BackendKind::ShardedStateVector { shards: 8 },
        BackendKind::RemoteSharded { shards: 2 },
    ] {
        let other = concurrent_ranks_observables(kind);
        assert!(
            dense_8_ranks == other,
            "{kind}: 8 concurrent ranks diverged"
        );
    }
}

/// The fused ladders of the paper's applications, amplitudes (canonical bit
/// patterns) and gate count: a product state of generic angles, one rank's
/// TFIM Trotter step (a ZZ bond per neighbour pair, then the Rx layer) and
/// a Jordan–Wigner string over all eight qubits. Under the default policy
/// each ladder reaches the engine as one parity sweep whose factors read
/// the top qubits — shard-selecting on the sharded engines — together with
/// stripe-local ones. Amplitudes are read before anything is measured: an
/// engine's reduction order does not enter.
fn fused_ladder_observables(
    kind: BackendKind,
    transport: cmpi::TransportKind,
) -> (Vec<(u64, u64)>, u64) {
    const N: usize = 8;
    let cfg = qmpi::QmpiConfig::new()
        .seed(5)
        .backend(kind)
        .transport(transport);
    let out = qmpi::run_with_config(1, cfg, |ctx| {
        let qs = ctx.alloc_qmem(N);
        for (s, q) in qs.iter().enumerate() {
            ctx.apply(Gate::Ry(0.4 + 0.3 * s as f64), q).unwrap();
        }
        for s in 0..N - 1 {
            ctx.cnot(&qs[s], &qs[s + 1]).unwrap();
            ctx.apply(Gate::Rz(0.31 + 0.17 * s as f64), &qs[s + 1])
                .unwrap();
            ctx.cnot(&qs[s], &qs[s + 1]).unwrap();
        }
        for (s, q) in qs.iter().enumerate() {
            ctx.apply(Gate::Rx(-0.47 - 0.05 * s as f64), q).unwrap();
        }
        for s in 0..N - 1 {
            ctx.cnot(&qs[s], &qs[s + 1]).unwrap();
        }
        ctx.apply(Gate::Rz(0.83), &qs[N - 1]).unwrap();
        for s in (0..N - 1).rev() {
            ctx.cnot(&qs[s], &qs[s + 1]).unwrap();
        }
        let ids: Vec<qsim::QubitId> = qs.iter().map(|q| q.id()).collect();
        let st = ctx.backend().state_vector(&ids).unwrap();
        let amps = st.amplitudes().iter();
        let seen = (
            amps.map(|a| (canon_bits(a.re), canon_bits(a.im))).collect(),
            ctx.backend().gate_count(),
        );
        for q in qs {
            ctx.measure_and_free(q).unwrap();
        }
        seen
    });
    out.into_iter().next().unwrap()
}

#[test]
fn fused_ladders_are_bit_identical_across_amplitude_engines_and_transports() {
    use cmpi::TransportKind::{InProcess, UnixSocket};
    ensure_worker_bin();
    let dense = fused_ladder_observables(BackendKind::StateVector, InProcess);
    assert_eq!(dense.0.len(), 1 << 8);
    // Eight preparations, one sweep, eight Rx, one sweep.
    assert_eq!(dense.1, 8 + 1 + 8 + 1);
    for (kind, transport) in [
        (BackendKind::Sparse, InProcess),
        (BackendKind::ShardedStateVector { shards: 2 }, InProcess),
        (BackendKind::ShardedStateVector { shards: 8 }, InProcess),
        (BackendKind::RemoteSharded { shards: 2 }, InProcess),
        (BackendKind::RemoteSharded { shards: 4 }, InProcess),
        (BackendKind::RemoteSharded { shards: 2 }, UnixSocket),
        (BackendKind::RemoteSharded { shards: 4 }, UnixSocket),
    ] {
        let other = fused_ladder_observables(kind, transport);
        assert!(dense == other, "{kind} over {transport:?} diverged");
    }
}

/// What the interleaving case observes: the amplitudes after each free (as
/// canonical bit patterns), every measurement outcome, and two reads.
type InterleavingObs = (Vec<Vec<(u64, u64)>>, Vec<bool>, [u64; 2]);

/// Alloc → entangle → measure-and-free, three times over, with the freed
/// qubit at the bottom, in the middle and at the top of the register: the
/// dense engine compacts in place, the striped one flattens and re-cuts
/// its stripes, the remote one reshapes worker to worker. The state
/// is `a|0…0> + b|1…1>` with generic `a`, `b` and phases, measured in the X
/// basis, so no reduction here ever adds more than two nonzero terms and
/// the order an engine adds its partial sums in cannot show.
fn alloc_free_interleaving(kind: BackendKind, seed: u64) -> InterleavingObs {
    let cfg = qmpi::QmpiConfig::new()
        .seed(seed)
        .backend(kind)
        .transport(cmpi::TransportKind::InProcess);
    let out = qmpi::run_with_config(1, cfg, |ctx| {
        let mut qs = ctx.alloc_qmem(6);
        ctx.apply(Gate::Ry(0.9), &qs[0]).unwrap();
        for k in 1..6 {
            ctx.cnot(&qs[0], &qs[k]).unwrap();
        }
        ctx.apply(Gate::T, &qs[2]).unwrap();
        ctx.apply(Gate::Rz(1.1), &qs[4]).unwrap();
        let mut states = Vec::new();
        let mut outcomes = Vec::new();
        // Position of the qubit to free among the live ones, allocation
        // order being position order: bottom, middle, then the fresh top.
        for position in [0usize, 3, 6] {
            let fresh = ctx.alloc_one();
            ctx.cnot(&qs[1], &fresh).unwrap();
            qs.push(fresh);
            let freed = qs.remove(position);
            ctx.apply(Gate::H, &freed).unwrap();
            outcomes.push(ctx.measure_and_free(freed).unwrap());
            let ids: Vec<qsim::QubitId> = qs.iter().map(|q| q.id()).collect();
            let st = ctx.backend().state_vector(&ids).unwrap();
            states.push(
                st.amplitudes()
                    .iter()
                    .map(|a| (canon_bits(a.re), canon_bits(a.im)))
                    .collect(),
            );
        }
        let p = ctx.prob_one(&qs[2]).unwrap();
        let zz = ctx
            .expectation(&[(&qs[0], qsim::Pauli::Z), (&qs[5], qsim::Pauli::Z)])
            .unwrap();
        for q in qs {
            outcomes.push(ctx.measure_and_free(q).unwrap());
        }
        (states, outcomes, [canon_bits(p), canon_bits(zz)])
    });
    out.into_iter().next().unwrap()
}

#[test]
fn alloc_free_interleaving_is_bit_identical_across_amplitude_engines() {
    for seed in [2u64, 9, 31] {
        let dense = alloc_free_interleaving(BackendKind::StateVector, seed);
        assert_eq!(dense.0.iter().map(Vec::len).collect::<Vec<_>>(), [64; 3]);
        for kind in [
            BackendKind::Sparse,
            BackendKind::ShardedStateVector { shards: 2 },
            BackendKind::ShardedStateVector { shards: 8 },
            BackendKind::RemoteSharded { shards: 2 },
            BackendKind::RemoteSharded { shards: 4 },
        ] {
            assert_eq!(
                dense,
                alloc_free_interleaving(kind, seed),
                "{kind}, seed {seed}"
            );
        }
    }
}

/// What the generic-angle program observes, compared exactly: amplitudes,
/// probabilities and the probed amplitude as canonical bit patterns, the
/// outcomes, and (gates, measurements).
#[derive(Debug, PartialEq, Eq)]
struct GenericAngleObs {
    amps: Vec<(u64, u64)>,
    probs: Vec<u64>,
    probe: (u64, u64),
    outcomes: Vec<bool>,
    counts: (u64, u64),
}

/// Seeded `Ry` on eight qubits with a CNOT ladder, seeded `Rx`, then every
/// read and every kind of measurement — the frees at the bottom and near the
/// top — another `Ry` layer and the reads again. Generic angles make every
/// reduction add many nonzero terms, which the Clifford+T vocabulary of the
/// oracle above never does. Returns the exact observables and two
/// expectation values, one with X on the top (shard-selecting) qubit.
fn generic_angle_program<S: EngineStore>(
    e: &mut AmplitudeEngine<S>,
    seed: u64,
) -> (GenericAngleObs, [f64; 2]) {
    let mut rng = TestRng::for_case(seed);
    let angles: Vec<f64> = (0..22).map(|_| 3.0 * rng.unit_f64()).collect();
    let rotations = |gate: fn(f64) -> Gate, qs: &[QubitId], angles: &[f64]| {
        ops::batch(
            qs.iter()
                .zip(angles)
                .map(|(&q, &a)| BatchOp::Gate { gate: gate(a), q }),
        )
    };
    let mut qs: Vec<QubitId> = (0..8).map(|_| e.alloc()).collect();
    let mut ladder = rotations(Gate::Ry, &qs, &angles[..8]);
    for w in qs.windows(2) {
        ladder.push(BatchOp::Cnot { c: w[0], t: w[1] });
    }
    e.apply_batch(&ladder).unwrap();
    e.apply_batch(&rotations(Gate::Rx, &qs, &angles[8..16]))
        .unwrap();
    let mut probs: Vec<u64> = qs
        .iter()
        .map(|&q| canon_bits(e.prob_one(q).unwrap()))
        .collect();
    let expectations = [
        e.expectation(&[(qs[7], Pauli::X), (qs[2], Pauli::Z)])
            .unwrap(),
        e.expectation(&[(qs[0], Pauli::Y), (qs[4], Pauli::X), (qs[5], Pauli::Z)])
            .unwrap(),
    ];
    let mut outcomes = vec![
        e.measure_z_parity(&[qs[3]]).unwrap(),
        e.measure_z_parity(&[qs[1], qs[7]]).unwrap(),
    ];
    // The bottom qubit, then the one below the top.
    for at in [0, 5] {
        outcomes.push(e.measure_and_free(qs.remove(at)).unwrap());
    }
    e.apply_batch(&rotations(Gate::Ry, &qs, &angles[16..]))
        .unwrap();
    probs.extend(qs.iter().map(|&q| canon_bits(e.prob_one(q).unwrap())));
    let probe = e.amplitude_of(&[qs[0], qs[4]]).unwrap();
    let st = e.state_vector(&qs).unwrap();
    let obs = GenericAngleObs {
        amps: st
            .amplitudes()
            .iter()
            .map(|a| (canon_bits(a.re), canon_bits(a.im)))
            .collect(),
        probs,
        probe: (canon_bits(probe.re), canon_bits(probe.im)),
        outcomes,
        counts: (e.gate_count(), e.measurement_count()),
    };
    (obs, expectations)
}

/// The remote engine is bit-identical to the dense engine on generic-angle
/// states: amplitudes, probabilities, outcomes, counters and expectation
/// values, in-process and over sockets, ideal, under Pauli noise with
/// readout dephasing, and under amplitude damping.
#[test]
fn remote_engine_matches_its_layout_reference_on_generic_angles() {
    use cmpi::TransportKind::{InProcess, UnixSocket};
    ensure_worker_bin();
    let pauli =
        NoiseModel::depolarizing(0.1).with_measurement(qsim::NoiseChannel::Dephasing { p: 0.2 });
    for noise in [
        NoiseModel::ideal(),
        pauli,
        NoiseModel::amplitude_damping(0.1),
    ] {
        for shards in [1usize, 2, 4] {
            for seed in [3u64, 17] {
                let mut reference = StateVectorEngine::with_noise(seed, noise);
                let (want, want_x) = generic_angle_program(&mut reference, seed);
                for transport in [InProcess, UnixSocket] {
                    let mut remote =
                        RemoteShardedEngine::over_transport(seed, shards, noise, transport)
                            .expect("spawn shard workers");
                    let (got, got_x) = generic_angle_program(&mut remote, seed);
                    let case = format!("{shards} shards over {transport}, seed {seed}, {noise:?}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(got_x.map(canon_bits), want_x.map(canon_bits), "{case}");
                }
            }
        }
    }
}

/// The generic-angle family ([`generic_angle_family`]) reads the dense
/// engine's bits on every other amplitude engine: sparse, striped and
/// remote at 2, 4 and 8 shards, the remote one in-process and over Unix
/// sockets.
#[test]
fn generic_angle_family_matches_dense_on_every_amplitude_engine() {
    use cmpi::TransportKind::{InProcess, UnixSocket};
    ensure_worker_bin();
    for seed in [5u64, 23, 61] {
        let want = generic_angle_family(&mut StateVectorEngine::new(seed), seed);
        let got = generic_angle_family(&mut SparseEngine::new(seed), seed);
        assert_same_reads(&want, &got, &format!("sparse, seed {seed}"));
        for shards in [2usize, 4, 8] {
            let got = generic_angle_family(&mut ShardedStateVector::new(seed, shards), seed);
            assert_same_reads(&want, &got, &format!("{shards} stripes, seed {seed}"));
            for transport in [InProcess, UnixSocket] {
                let mut remote = RemoteShardedEngine::over_transport(
                    seed,
                    shards,
                    NoiseModel::ideal(),
                    transport,
                )
                .expect("spawn shard workers");
                let got = generic_angle_family(&mut remote, seed);
                let case = format!("{shards} shards over {transport}, seed {seed}");
                assert_same_reads(&want, &got, &case);
            }
        }
    }
}

mod proptests {
    use super::*;
    use crate::common::conformance::strategies::arb_steps;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole acceptance property: on random 10-qubit
        /// Clifford+T circuits with random flush points, the sparse and
        /// sharded engines are bit-identical to the dense oracle, ideal
        /// and under depolarizing noise.
        #[test]
        fn random_circuits_match_dense_oracle(
            steps in arb_steps(N_QUBITS, true, 8..30),
            seed in 0u64..1000,
            p in 0.0f64..0.4,
            pol in 0usize..4,
        ) {
            let policy = policies()[pol];
            for kind in local_amplitude_kinds() {
                assert_matches_dense_oracle(kind, N_QUBITS, &steps, NoiseModel::ideal(), seed, policy);
                assert_matches_dense_oracle(kind, N_QUBITS, &steps, NoiseModel::depolarizing(p), seed, policy);
            }
        }

        /// The Clifford arm: on random 10-qubit Clifford circuits with
        /// random flush points (`run_circuit` turns T and rotations into
        /// S), the stabilizer tableau's outcomes and counts equal the
        /// dense oracle's per seed — eager, unfused batching and the fused
        /// default, ideal, depolarizing, and with dephasing readout noise.
        #[test]
        fn random_clifford_circuits_match_dense_on_the_stabilizer(
            steps in arb_steps(N_QUBITS, true, 8..30),
            seed in 0u64..1000,
        ) {
            let noises = [
                NoiseModel::ideal(),
                NoiseModel::depolarizing(0.1),
                NoiseModel::ideal().with_measurement(qsim::NoiseChannel::Dephasing { p: 0.3 }),
            ];
            let policies = [
                BatchPolicy::eager(),
                BatchPolicy { fuse: false, ..BatchPolicy::default() },
                BatchPolicy::default(),
            ];
            for noise in noises {
                for policy in policies {
                    assert_stabilizer_matches_dense(N_QUBITS, &steps, noise, seed, policy);
                }
            }
        }

        /// Amplitude damping draws state-dependent Kraus trajectories —
        /// the harshest test of RNG-stream identity across engines.
        #[test]
        fn random_circuits_match_dense_under_amplitude_damping(
            steps in arb_steps(N_QUBITS, true, 8..24),
            seed in 0u64..1000,
            gamma in 0.0f64..0.35,
        ) {
            for kind in local_amplitude_kinds() {
                assert_matches_dense_oracle(
                    kind, N_QUBITS, &steps, NoiseModel::amplitude_damping(gamma), seed,
                    BatchPolicy::default(),
                );
            }
        }
    }

    proptest! {
        // Each case spawns worker processes; keep the default sweep small
        // (the nightly stress lane raises it via PROPTEST_CASES).
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Remote workers against the dense oracle on random circuits.
        #[test]
        fn remote_random_circuits_match_dense_oracle(
            steps in arb_steps(N_QUBITS, true, 6..20),
            seed in 0u64..1000,
            p in 0.0f64..0.3,
        ) {
            ensure_worker_bin();
            let kind = BackendKind::RemoteSharded { shards: 2 };
            assert_matches_dense_oracle(
                kind, N_QUBITS, &steps, NoiseModel::ideal(), seed, BatchPolicy::default(),
            );
            assert_matches_dense_oracle(
                kind, N_QUBITS, &steps, NoiseModel::depolarizing(p), seed, BatchPolicy::default(),
            );
        }
    }
}
