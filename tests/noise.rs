//! Noisy-execution suite: the acceptance criteria of the noise subsystem.
//!
//! * A zero-rate model must be *bit-identical* to the noiseless path on all
//!   four backends — the noise stream is seeded separately from the
//!   measurement stream and ideal channels draw nothing.
//! * A seeded depolarizing teleport on the stabilizer backend must
//!   reproduce the closed-form fidelity within statistical tolerance.
//! * One `QmpiConfig::noise(..)` call must drive a noisy 8-rank
//!   teleportation sweep on the state-vector, remote-sharded, and
//!   stabilizer backends.

mod common;

use common::ops;
use qalgo::fidelity::{analytic_teleport_fidelity, teleport_fidelity, teleport_fidelity_sweep};
use qmpi::{
    run_with_config, BackendKind, NoiseChannel, NoiseModel, OpCounts, QmpiConfig, QmpiError,
    StateVectorEngine,
};
use qsim::Gate;

/// Shorthand for the unified construction path over the default
/// (in-process) transport.
fn build(
    kind: BackendKind,
    seed: u64,
    noise: NoiseModel,
) -> qmpi::Result<std::sync::Arc<dyn qmpi::QuantumBackend>> {
    qmpi::build_backend(kind, qmpi::TransportKind::InProcess, seed, noise)
}

fn all_kinds() -> [BackendKind; 4] {
    [
        BackendKind::StateVector,
        BackendKind::Stabilizer,
        BackendKind::Trace,
        BackendKind::RemoteSharded { shards: 2 },
    ]
}

/// Every channel kind at rate exactly zero — must be indistinguishable from
/// no noise at all, and valid on every backend (including zero-gamma
/// amplitude damping on the stabilizer tableau).
fn zero_rate_model() -> NoiseModel {
    NoiseModel::ideal()
        .with_gate_1q(NoiseChannel::Depolarizing { p: 0.0 })
        .with_gate_2q(NoiseChannel::Dephasing { p: 0.0 })
        .with_measurement(NoiseChannel::AmplitudeDamping { gamma: 0.0 })
        .with_epr(NoiseChannel::Depolarizing { p: 0.0 })
}

/// A protocol touching every noise hook — EPR establishment, 1q/2q gates,
/// teleportation, parity measurement, measuring frees — whose RNG draw
/// order is *deterministic*: every measurement sits on the teleport chain's
/// message-dependency order (the scrambling block runs on the last rank
/// after the chain has drained), so two runs of the same config are
/// bit-comparable.
fn protocol_run(kind: BackendKind, noise: NoiseModel) -> (Vec<bool>, OpCounts) {
    let cfg = QmpiConfig::new().seed(33).backend(kind).noise(noise);
    let out = run_with_config(4, cfg, |ctx| {
        let r = ctx.rank();
        // Teleport chain of |1> across all ranks.
        let mut bits = Vec::new();
        if r == 0 {
            let q = ctx.alloc_one();
            ctx.x(&q).unwrap();
            ctx.send_move(q, 1, 0).unwrap();
        } else {
            let q = ctx.recv_move(r - 1, (r - 1) as u16).unwrap();
            if r + 1 < ctx.size() {
                ctx.send_move(q, r + 1, r as u16).unwrap();
            } else {
                bits.push(ctx.measure_and_free(q).unwrap());
                // Scrambling + parity, sequenced strictly after the chain
                // (every other rank is already quantum-idle).
                let a = ctx.alloc_one();
                let b = ctx.alloc_one();
                ctx.h(&a).unwrap();
                ctx.cnot(&a, &b).unwrap();
                bits.push(ctx.measure_z_parity(&[&a, &b]).unwrap());
                bits.push(ctx.measure_and_free(a).unwrap());
                bits.push(ctx.measure_and_free(b).unwrap());
            }
        }
        ctx.barrier();
        (bits, ctx.backend().counts())
    });
    let last = out.len() - 1;
    (out[last].0.clone(), out[last].1)
}

#[test]
fn zero_rate_noise_is_bit_identical_on_every_backend() {
    for kind in all_kinds() {
        let (ideal_bits, mut ideal_counts) = protocol_run(kind, NoiseModel::ideal());
        let (zero_bits, mut zero_counts) = protocol_run(kind, zero_rate_model());
        assert_eq!(ideal_bits, zero_bits, "{kind}: outcomes diverged");
        // The high-water mark depends on rank scheduling, not on noise —
        // every other counter is a protocol invariant.
        ideal_counts.max_live_qubits = 0;
        zero_counts.max_live_qubits = 0;
        assert_eq!(ideal_counts, zero_counts, "{kind}: op counts diverged");
    }
}

#[test]
fn zero_rate_amplitudes_are_bit_identical() {
    // Engine-level check, stronger than outcome equality: every amplitude
    // bit pattern after a circuit with measurements must match exactly.
    let mut ideal = StateVectorEngine::new(7);
    let mut zeroed = StateVectorEngine::with_noise(7, zero_rate_model());
    for engine in [&mut ideal, &mut zeroed] {
        let q0 = engine.alloc();
        let q1 = engine.alloc();
        let q2 = engine.alloc();
        let q3 = engine.alloc();
        engine.apply_batch(&ops::gate(Gate::Ry(0.73), q0)).unwrap();
        engine.apply_batch(&ops::cnot(q0, q1)).unwrap();
        engine.apply_batch(&ops::gate(Gate::T, q1)).unwrap();
        engine.entangle_epr(q2, q3).unwrap();
        engine.measure_z_parity(&[q2]).unwrap();
        engine.apply_batch(&ops::cz(q0, q2)).unwrap();
    }
    // Equal handle streams: use the same ids on both engines.
    let order: Vec<qsim::QubitId> = (0..4).map(qsim::QubitId).collect();
    let a = ideal.state_vector(&order).unwrap();
    let b = zeroed.state_vector(&order).unwrap();
    for i in 0..a.len() {
        assert_eq!(a.amplitude(i).re.to_bits(), b.amplitude(i).re.to_bits());
        assert_eq!(a.amplitude(i).im.to_bits(), b.amplitude(i).im.to_bits());
    }
}

#[test]
fn stabilizer_depolarizing_teleport_matches_analytic_fidelity() {
    let p = 0.3;
    let noise = NoiseModel::epr_only(NoiseChannel::Depolarizing { p });
    let trials = 4000;
    let f = teleport_fidelity(BackendKind::Stabilizer, noise, 2, trials, 123);
    let expected = analytic_teleport_fidelity(&noise, 1);
    // One hop, q = 2p/3 = 0.2: expected = 1 - 2q(1-q) = 0.68. Four-sigma
    // tolerance at 4000 trials is ~0.03.
    assert!((expected - 0.68).abs() < 1e-12);
    assert!(
        (f - expected).abs() < 0.035,
        "empirical {f} vs analytic {expected}"
    );
}

#[test]
fn noisy_sweep_runs_on_all_stateful_backends_from_one_config() {
    // The acceptance bar: an 8-rank noisy teleportation sweep on the
    // state-vector, remote-sharded, and stabilizer backends, all driven by
    // the same QmpiConfig::noise(..) call inside the sweep.
    for kind in [
        BackendKind::StateVector,
        BackendKind::RemoteSharded { shards: 4 },
        BackendKind::Stabilizer,
    ] {
        let pts = teleport_fidelity_sweep(kind, &[0.0, 0.2], 8, 30, 77);
        assert_eq!(pts[0].fidelity, 1.0, "{kind}: zero rate must be perfect");
        assert!(
            pts[1].fidelity < 1.0,
            "{kind}: p=0.2 over 7 hops flips some runs with overwhelming probability"
        );
    }
}

#[test]
fn stabilizer_rejects_amplitude_damping_noise() {
    let noise = NoiseModel::amplitude_damping(0.1);
    match build(BackendKind::Stabilizer, 1, noise) {
        Err(QmpiError::InvalidArgument(msg)) => {
            assert!(msg.contains("Clifford"), "{msg}");
        }
        other => panic!("expected InvalidArgument, got {:?}", other.map(|_| ())),
    }
    // The same model is fine on amplitude-tracking backends.
    for kind in [
        BackendKind::StateVector,
        BackendKind::RemoteSharded { shards: 2 },
        BackendKind::Trace,
    ] {
        assert!(build(kind, 1, noise).is_ok(), "{kind}");
    }
}

#[test]
fn out_of_range_rates_are_rejected_everywhere() {
    for kind in all_kinds() {
        assert!(
            matches!(
                build(kind, 1, NoiseModel::depolarizing(1.5)),
                Err(QmpiError::InvalidArgument(_))
            ),
            "{kind}"
        );
    }
}

#[test]
fn trace_backend_models_error_free_probability() {
    let noise = NoiseModel::depolarizing(0.1);
    let b = build(BackendKind::Trace, 0, noise).unwrap();
    let qs = b.alloc(0, 3);
    b.apply_batch(0, &ops::gate(Gate::H, qs[0])).unwrap(); // 1q: 0.9
    b.apply_batch(0, &ops::cnot(qs[0], qs[1])).unwrap(); // 2q: 0.9^2
    b.entangle_epr_batch(&[(qs[1], qs[2])]).unwrap(); // epr: 0.9^2
    b.measure_z_parity(0, &[qs[0]]).unwrap(); // measurement: 0.9
    let got = b.modeled_fidelity().expect("trace models fidelity");
    let want = 0.9f64.powi(6);
    assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    // Stateful engines sample noise instead of modeling it.
    assert_eq!(
        build(BackendKind::StateVector, 0, NoiseModel::ideal())
            .unwrap()
            .modeled_fidelity(),
        None
    );
}

/// The trace engine is the simulator front over a store with no
/// amplitudes, so it counts every op kind exactly as the dense engine
/// does, and models one noise site wherever the front samples one.
#[test]
fn trace_counts_what_the_front_counts() {
    use qsim::{BatchOp, Complex};
    let noise = NoiseModel::depolarizing(0.1);
    // Branch-free: no outcome is read back, so both engines run the same
    // ops whatever their measurements return.
    let run = |kind| {
        let b = build(kind, 7, noise).unwrap();
        let qs = b.alloc(0, 4);
        let other = b.alloc(1, 1)[0];
        let program = ops::batch([
            BatchOp::Gate {
                gate: Gate::H,
                q: qs[0],
            },
            BatchOp::Controlled {
                controls: vec![qs[0]],
                gate: Gate::Ry(0.3),
                target: qs[1],
            },
            BatchOp::Cnot { c: qs[1], t: qs[2] },
            BatchOp::Cz { a: qs[2], b: qs[3] },
            BatchOp::Swap { a: qs[3], b: qs[3] },
            BatchOp::PhaseSweep {
                qubits: vec![qs[0], qs[1]],
                diags: vec![(0b11, Complex::real(1.0), Complex::new(0.0, 1.0))],
                czs: vec![(qs[1], qs[2])],
            },
        ]);
        b.apply_batch(0, &program).unwrap();
        b.entangle_epr_batch(&[(qs[3], other)]).unwrap();
        b.measure_z_parity(0, &[qs[0], qs[2]]).unwrap();
        b.measure_and_free(1, other).unwrap();
        (b.counts(), b.modeled_fidelity())
    };
    let (trace, fidelity) = run(BackendKind::Trace);
    let (dense, dense_fidelity) = run(BackendKind::StateVector);
    assert_eq!(trace, dense);
    // Five swept ops (the self-swap is none) and the EPR pair's H + CNOT.
    assert_eq!((trace.gates, trace.measurements), (7, 2));
    assert_eq!(dense_fidelity, None);
    // Sites: H 1, controlled 2, CNOT 2, CZ 2, self-swap 0, sweep over three
    // distinct qubits 3, EPR 2, two-qubit parity 2, measuring free 1.
    let want = 0.9f64.powi(15);
    let got = fidelity.expect("trace models fidelity");
    assert!((got - want).abs() < 1e-12, "{got} vs {want}");
}

/// A merged sweep's noise rides on each qubit it touches once, however
/// many factors read it, and a sweep that lists a qubit twice (a parity set
/// naming both would silently cancel it) is an error on every engine.
#[test]
fn sweep_noise_sites_are_distinct_and_a_repeated_qubit_is_rejected() {
    use qsim::{BatchOp, Complex, QubitId, SimError};
    let (one, i) = (Complex::real(1.0), Complex::new(0.0, 1.0));
    let sweep = |qubits: Vec<QubitId>, czs: Vec<(QubitId, QubitId)>| {
        ops::batch([BatchOp::PhaseSweep {
            qubits,
            diags: vec![(0b01, one, i), (0b11, one, i), (0b01, i, one)],
            czs,
        }])
    };
    // Three factors and a CZ over three distinct qubits: three sites.
    let b = build(BackendKind::Trace, 0, NoiseModel::depolarizing(0.1)).unwrap();
    let qs = b.alloc(0, 3);
    b.apply_batch(0, &sweep(vec![qs[0], qs[1]], vec![(qs[0], qs[2])]))
        .unwrap();
    let got = b.modeled_fidelity().expect("trace models fidelity");
    assert!((got - 0.9f64.powi(3)).abs() < 1e-12, "{got}");
    for kind in [
        BackendKind::StateVector,
        BackendKind::Sparse,
        BackendKind::Trace,
        BackendKind::RemoteSharded { shards: 2 },
    ] {
        let b = build(kind, 0, NoiseModel::ideal()).unwrap();
        let qs = b.alloc(0, 2);
        let apply = |batch| b.apply_batch(0, &batch);
        assert_eq!(
            apply(sweep(vec![qs[0], qs[0]], vec![])),
            Err(QmpiError::Sim(SimError::DuplicateQubit(qs[0]))),
            "{kind}"
        );
        // Every listed qubit is checked, not only the first of a set.
        let stray = QubitId(999);
        assert!(apply(sweep(vec![qs[0], stray], vec![])).is_err(), "{kind}");
        assert_eq!(b.gate_count(), 0, "{kind}");
    }
}

#[test]
fn amplitude_damping_relaxes_excited_qubits() {
    // gamma = 1 after a 1q gate: the excited state must relax to |0>
    // immediately (jump probability gamma * P(1) = 1).
    let model = NoiseModel::ideal().with_gate_1q(NoiseChannel::AmplitudeDamping { gamma: 1.0 });
    for kind in [
        BackendKind::StateVector,
        BackendKind::RemoteSharded { shards: 2 },
    ] {
        let b = build(kind, 5, model).unwrap();
        let q = b.alloc(0, 1)[0];
        b.apply_batch(0, &ops::gate(Gate::X, q)).unwrap();
        assert!(
            b.prob_one(0, q).unwrap() < 1e-12,
            "{kind}: X then full damping must read |0>"
        );
        b.free(0, q).unwrap();
    }
}

#[test]
fn configured_model_is_visible_on_the_backend() {
    let model = NoiseModel::epr_only(NoiseChannel::Dephasing { p: 0.25 });
    let cfg = QmpiConfig::new()
        .backend(BackendKind::Stabilizer)
        .noise(model);
    assert_eq!(cfg.noise_model(), model);
    let out = run_with_config(2, cfg, move |ctx| ctx.backend().noise() == model);
    assert_eq!(out, vec![true, true]);
}
