//! Batched-vs-eager equivalence suite.
//!
//! With batching on (the default), rank-local gate calls record into a
//! per-rank `GateBatch` that flushes lazily; with it off, every gate
//! dispatches eagerly. The two modes must be *observably identical per
//! seed* on every backend — bit-identical amplitudes on the
//! amplitude-class engines (state-vector, sparse, lock-striped sharded,
//! process-separated remote), identical expectation values and
//! measurement outcomes on the stabilizer tableau, identical operation
//! counts and modeled fidelity on the trace engine — no matter where
//! flush points land and whether Pauli noise is drawn along the way.
//!
//! Circuit driving and observable capture live in the shared conformance
//! harness (`common::conformance`); this suite only picks the pair to
//! compare: same kind, batching on vs off.
//!
//! The property module runs under the nightly stress lane's
//! `PROPTEST_CASES=320` sweep alongside the other in-tree proptest suites.

mod common;

use common::conformance::{run_circuit, Outcome, Step};
use qmpi::{run_with_config, BackendKind, BatchPolicy, QmpiConfig};
use qsim::{Gate, NoiseModel};

const N_QUBITS: usize = 6;

/// The batched mode under test here: batching on, plan-time optimizer
/// *off*. This suite's contract is bit-identity to the eager path, which
/// fusion intentionally trades away (FP re-association); the fusion
/// dimension has its own suite (`tests/fusion.rs`).
fn unfused_batching() -> BatchPolicy {
    BatchPolicy {
        fuse: false,
        ..BatchPolicy::default()
    }
}

/// Runs `steps` on one rank of `kind` with (unfused) batching on or off
/// and captures every observable the backend exposes.
fn run_one(kind: BackendKind, batching: bool, steps: &[Step], noise: NoiseModel) -> Outcome {
    let policy = if batching {
        unfused_batching()
    } else {
        BatchPolicy::eager()
    };
    let cfg = QmpiConfig::new()
        .seed(42)
        .backend(kind)
        .noise(noise)
        .batch(policy);
    run_circuit(cfg, N_QUBITS, steps, kind == BackendKind::Stabilizer).0
}

fn all_kinds() -> [BackendKind; 6] {
    [
        BackendKind::StateVector,
        BackendKind::Stabilizer,
        BackendKind::Trace,
        BackendKind::Sparse,
        BackendKind::ShardedStateVector { shards: 4 },
        BackendKind::RemoteSharded { shards: 4 },
    ]
}

fn assert_batched_matches_eager(steps: &[Step], noise: NoiseModel) {
    for kind in all_kinds() {
        let eager = run_one(kind, false, steps, noise);
        let batched = run_one(kind, true, steps, noise);
        assert_eq!(
            eager, batched,
            "{kind}: batched run must be bit-identical to eager"
        );
        assert!(
            !matches!(kind, BackendKind::StateVector | BackendKind::Sparse)
                || !eager.amps.is_empty(),
            "amplitude-class engines must actually compare amplitudes"
        );
    }
}

#[test]
fn fixed_circuit_with_flushes_matches_eager_on_all_backends() {
    use Step::*;
    let steps = [
        G(Gate::H, 0),
        G(Gate::H, 5),
        Cnot(0, 5),
        Flush,
        G(Gate::T, 2),
        Swap(1, 5),
        Cz(2, 4),
        G(Gate::S, 3),
        Flush,
        Flush, // double flush: second must be a no-op
        Cnot(5, 0),
        Swap(3, 4),
    ];
    assert_batched_matches_eager(&steps, NoiseModel::ideal());
}

#[test]
fn fixed_circuit_with_flushes_matches_eager_under_pauli_noise() {
    use Step::*;
    let steps = [
        G(Gate::H, 0),
        Cnot(0, 4),
        G(Gate::T, 1),
        Flush,
        Swap(0, 5),
        Cz(1, 3),
        Cnot(4, 2),
        G(Gate::Y, 5),
    ];
    let noise =
        NoiseModel::depolarizing(0.2).with_measurement(qsim::NoiseChannel::Dephasing { p: 0.25 });
    assert_batched_matches_eager(&steps, noise);
}

/// Amplitude damping is state-dependent, so batching engines fall back to
/// eager per-gate dispatch internally — the observable contract is the
/// same: identical trajectories per seed.
#[test]
fn amplitude_damping_falls_back_to_identical_trajectories() {
    use Step::*;
    let steps = [
        G(Gate::H, 0),
        G(Gate::X, 1),
        Cnot(0, 2),
        Flush,
        G(Gate::Ry(0.9), 1),
        Swap(2, 5),
    ];
    let noise = NoiseModel::amplitude_damping(0.2);
    for kind in [
        BackendKind::StateVector,
        BackendKind::Sparse,
        BackendKind::ShardedStateVector { shards: 4 },
        BackendKind::RemoteSharded { shards: 4 },
    ] {
        let eager = run_one(kind, false, &steps, noise);
        let batched = run_one(kind, true, &steps, noise);
        assert_eq!(eager, batched, "{kind}");
    }
}

/// Structural gate errors must surface at the call site with batching on —
/// never as a panic at a later flush point (barrier, teardown).
#[test]
fn duplicate_qubit_errors_surface_at_the_call_site() {
    for kind in all_kinds() {
        let cfg = QmpiConfig::new()
            .seed(1)
            .backend(kind)
            .batch(BatchPolicy::env_default());
        let out = run_with_config(1, cfg, |ctx| {
            let q = ctx.alloc_one();
            let a = ctx.alloc_one();
            let cnot_err = ctx.cnot(&q, &q).unwrap_err();
            let cz_err = ctx.cz(&q, &q).unwrap_err();
            let ctrl_err = ctx.controlled(&[&q], qsim::Gate::X, &q).unwrap_err();
            // A self-SWAP is a legal no-op everywhere.
            ctx.swap(&q, &q).unwrap();
            // The rank must still be fully usable afterwards.
            ctx.cnot(&q, &a).unwrap();
            ctx.measure_and_free(q).unwrap();
            ctx.measure_and_free(a).unwrap();
            [cnot_err, cz_err, ctrl_err]
                .iter()
                .all(|e| matches!(e, qmpi::QmpiError::Sim(qsim::SimError::DuplicateQubit(_))))
        });
        assert!(out[0], "{kind}: duplicate-qubit errors must be eager");
    }
}

/// Ops the stabilizer tableau cannot realize — Toffoli, controlled
/// rotations, T, generic rotations — must be rejected at the call site
/// even though their base gate may be Clifford, not recorded and exploded
/// at teardown. The rule is the tableau's own, by matrix: a
/// single-controlled Y, `Rz(π/2)` and a `U` holding a Clifford batch fine.
#[test]
fn stabilizer_rejects_unsupported_controlled_ops_eagerly() {
    let cfg = QmpiConfig::new()
        .seed(1)
        .backend(BackendKind::Stabilizer)
        .batch(BatchPolicy::env_default());
    let out = run_with_config(1, cfg, |ctx| {
        let a = ctx.alloc_one();
        let b = ctx.alloc_one();
        let t = ctx.alloc_one();
        let toffoli_err = ctx.toffoli(&a, &b, &t).unwrap_err();
        let ch_err = ctx.controlled(&[&a], qsim::Gate::H, &t).unwrap_err();
        let t_err = ctx.apply(qsim::Gate::T, &t).unwrap_err();
        let rz_err = ctx.apply(qsim::Gate::Rz(0.3), &t).unwrap_err();
        // The single-control X/Y/Z spellings the tableau does realize still
        // batch fine, and so do Cliffords spelled as matrices or angles.
        ctx.controlled(&[&a], qsim::Gate::X, &t).unwrap();
        ctx.controlled(&[&a], qsim::Gate::Z, &b).unwrap();
        ctx.controlled(&[&a], qsim::Gate::Y, &b).unwrap();
        ctx.apply(qsim::Gate::Rz(std::f64::consts::FRAC_PI_2), &t)
            .unwrap();
        ctx.apply(qsim::Gate::U(qsim::Gate::H.matrix()), &t)
            .unwrap();
        for q in [a, b, t] {
            ctx.measure_and_free(q).unwrap();
        }
        [toffoli_err, ch_err, t_err, rz_err]
            .iter()
            .all(|e| matches!(e, qmpi::QmpiError::Sim(qsim::SimError::Unsupported(_))))
    });
    assert!(
        out[0],
        "unsupported controlled ops must be rejected eagerly"
    );
}

/// A classical message is how a rank signals "my gates are done": the
/// sender's recorded gates must be visible (in the global counters) by the
/// time the receiver gets the message.
#[test]
fn classical_send_flushes_pending_gates_first() {
    let cfg = QmpiConfig::new()
        .seed(4)
        .backend(BackendKind::StateVector)
        // Unfused: the optimizer would cancel the H·H pair below to zero
        // sweeps, and this test counts landed gates.
        .batch(unfused_batching());
    let out = run_with_config(2, cfg, |ctx| {
        if ctx.rank() == 0 {
            let q = ctx.alloc_one();
            ctx.h(&q).unwrap();
            ctx.h(&q).unwrap(); // recorded, not yet applied
            ctx.classical().send(&(), 1, 0); // flush point: both gates land here
            let _ = ctx.classical().recv::<()>(1, 1);
            ctx.measure_and_free(q).unwrap();
            0
        } else {
            let _ = ctx.classical().recv::<()>(0, 0);
            let gates = ctx.backend().gate_count();
            ctx.classical().send(&(), 0, 1);
            gates
        }
    });
    assert!(
        out[1] >= 2,
        "rank 0's recorded gates must land before its classical send, saw {}",
        out[1]
    );
}

mod proptests {
    use super::*;
    use crate::common::conformance::strategies::arb_steps;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole acceptance property: random Clifford+T circuits
        /// with randomly placed flush points produce observables
        /// bit-identical to the eager path on all six backends.
        #[test]
        fn random_flush_points_are_bit_identical_to_eager(
            steps in arb_steps(N_QUBITS, true, 8..30),
        ) {
            assert_batched_matches_eager(&steps, NoiseModel::ideal());
        }

        /// The same property with the controller/engine drawing Pauli
        /// noise from the shared seeded stream along the way.
        #[test]
        fn random_flush_points_identical_under_pauli_noise(
            steps in arb_steps(N_QUBITS, true, 8..24),
            p in 0.0f64..0.4,
        ) {
            assert_batched_matches_eager(&steps, NoiseModel::depolarizing(p));
        }
    }
}
