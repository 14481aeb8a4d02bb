//! Plan-time optimizer suite: fused execution vs the unfused engines.
//!
//! With `BatchPolicy::default()` (fusion on) every flush runs the batch
//! through `qsim::optimize` — adjacent 1q-gate runs collapse into single
//! `Fused1q` matrix sweeps and diagonal stretches (Z/S/T/Rz/CZ) merge into
//! one `PhaseSweep`. Fusing re-associates floating-point matrix products,
//! so the contract here is *not* bit-identity to the eager path (that is
//! `tests/batching.rs`, which pins fusion off); it is:
//!
//! * amplitudes and expectations within 1e-12 of the eager run on general
//!   Clifford+T circuits — far tighter than any physical tolerance;
//! * **exact** bitwise identity on permutation/phase circuits
//!   (X/Z/S/CNOT/CZ/SWAP), whose fused kernels only permute amplitudes
//!   and multiply by unit factors with exact IEEE representations;
//! * identical measurement trajectories per seed;
//! * strictly *fewer* kernel sweeps on fusible circuits — the counters
//!   prove the optimizer actually fired, not just that it did no harm —
//!   and at most a third of them on the CNOT·Rz·CNOT ladders both of the
//!   paper's applications are made of, which merge into parity sweeps.
//!
//! The property module runs under the nightly stress lane's
//! `PROPTEST_CASES=320` sweep alongside the other in-tree proptest suites.

mod common;

use common::conformance::{assert_fused_matches_unfused, ensure_worker_bin, run_circuit, Step};
use qmpi::{BackendKind, BatchPolicy, QmpiConfig};
use qsim::{Gate, NoiseModel};

const N_QUBITS: usize = 6;
const TOL: f64 = 1e-12;

fn amplitude_kinds() -> [BackendKind; 4] {
    [
        BackendKind::StateVector,
        BackendKind::Sparse,
        BackendKind::ShardedStateVector { shards: 1 },
        BackendKind::ShardedStateVector { shards: 8 },
    ]
}

/// A general Clifford+T circuit with long 1q runs and diagonal stretches —
/// plenty for both fusion passes to chew on, plus flush points and 2q
/// entanglers that act as fusion barriers.
fn clifford_t_circuit() -> Vec<Step> {
    use Step::*;
    vec![
        G(Gate::H, 0),
        G(Gate::T, 0),
        G(Gate::H, 0),
        G(Gate::Ry(0.3), 1),
        G(Gate::Rz(1.1), 1),
        Cnot(0, 1),
        G(Gate::T, 2),
        G(Gate::S, 2),
        G(Gate::Z, 3),
        Cz(2, 3),
        G(Gate::Rz(0.7), 2),
        Flush,
        G(Gate::H, 4),
        G(Gate::Tdg, 4),
        G(Gate::Sdg, 4),
        Swap(4, 5),
        G(Gate::Y, 5),
        G(Gate::X, 5),
        Cnot(5, 0),
        G(Gate::T, 5),
    ]
}

/// A permutation/phase circuit: every gate maps basis states to basis
/// states times a factor from {±1, ±i} — exactly representable, so fusion
/// must be bitwise lossless.
fn permutation_phase_circuit() -> Vec<Step> {
    use Step::*;
    vec![
        G(Gate::X, 0),
        G(Gate::X, 2),
        G(Gate::Z, 0),
        G(Gate::S, 0),
        G(Gate::S, 2),
        Cnot(0, 1),
        G(Gate::T, 1),
        G(Gate::T, 1), // T·T = S: exact factors even though T alone isn't
        Cz(1, 2),
        Swap(2, 3),
        G(Gate::Z, 3),
        G(Gate::Sdg, 3),
        Flush,
        Cnot(3, 4),
        G(Gate::X, 4),
        G(Gate::Z, 5),
        Cz(4, 5),
        G(Gate::S, 5),
    ]
}

/// The two ladder shapes of the paper's applications, generic angles
/// throughout: one rank's TFIM Trotter step (§7.2: a ZZ bond per neighbour
/// pair, then the transverse-field layer) and a Jordan–Wigner string (§7.3:
/// one `Rz` read through a CNOT chain). Every qubit is on a ladder, so on
/// the sharded engines the shard-selecting (top) qubits are too.
fn ladder_circuit() -> Vec<Step> {
    use Step::*;
    let mut steps = Vec::new();
    for s in 0..N_QUBITS - 1 {
        let rz = Gate::Rz(0.31 + 0.17 * s as f64);
        steps.extend([Cnot(s, s + 1), G(rz, s + 1), Cnot(s, s + 1)]);
    }
    steps.extend((0..N_QUBITS).map(|s| G(Gate::Rx(-0.47 - 0.05 * s as f64), s)));
    let chain: Vec<Step> = (0..N_QUBITS - 1).map(|s| Cnot(s, s + 1)).collect();
    steps.extend(chain.iter().copied());
    steps.push(G(Gate::Rz(0.83), N_QUBITS - 1));
    steps.extend(chain.iter().rev().copied());
    steps
}

/// [`ladder_circuit`] on a product state of generic angles, so every
/// amplitude is nonzero and no two factors act alike.
fn prepared_ladder_circuit() -> Vec<Step> {
    let prepare = (0..N_QUBITS).map(|s| Step::G(Gate::Ry(0.4 + 0.3 * s as f64), s));
    prepare.chain(ladder_circuit()).collect()
}

#[test]
fn clifford_t_fused_matches_unfused_within_tolerance() {
    for kind in amplitude_kinds() {
        assert_fused_matches_unfused(kind, N_QUBITS, &clifford_t_circuit(), 42, TOL);
        assert_fused_matches_unfused(kind, N_QUBITS, &prepared_ladder_circuit(), 42, TOL);
    }
}

#[test]
fn permutation_phase_circuits_are_exact_under_fusion() {
    let steps = permutation_phase_circuit();
    for kind in amplitude_kinds() {
        assert_fused_matches_unfused(kind, N_QUBITS, &steps, 7, 0.0);
    }
}

/// The process-separated backend spawns real worker children, so it gets
/// its own (smaller) sweep of both fixed circuits.
#[test]
fn remote_workers_fuse_identically() {
    ensure_worker_bin();
    let kind = BackendKind::RemoteSharded { shards: 2 };
    assert_fused_matches_unfused(kind, N_QUBITS, &clifford_t_circuit(), 42, TOL);
    assert_fused_matches_unfused(kind, N_QUBITS, &permutation_phase_circuit(), 7, 0.0);
    // Qubit 5 (then 4 as well) selects the shard: the ladders' parity
    // factors read it from the shard index, not from the stripe.
    for shards in [2, 4] {
        let kind = BackendKind::RemoteSharded { shards };
        assert_fused_matches_unfused(kind, N_QUBITS, &prepared_ladder_circuit(), 42, TOL);
    }
}

/// The counter proof: on a 1q-run-heavy circuit the fused run must apply
/// *strictly fewer* kernel sweeps than the unfused-batched run — the
/// optimizer demonstrably fired, it didn't just pass the stream through —
/// on the dense engine and on the striped and remote ones, which plan the
/// same fused stream onto stripes.
#[test]
fn fusion_strictly_reduces_kernel_sweeps() {
    ensure_worker_bin();
    for kind in [
        BackendKind::StateVector,
        BackendKind::ShardedStateVector { shards: 4 },
        BackendKind::RemoteSharded { shards: 4 },
    ] {
        assert_fusion_reduces_sweeps(kind);
    }
}

fn assert_fusion_reduces_sweeps(kind: BackendKind) {
    use Step::*;
    let steps = [
        G(Gate::H, 0),
        G(Gate::T, 0),
        G(Gate::H, 0),
        G(Gate::S, 1),
        G(Gate::T, 1),
        G(Gate::Z, 1),
        G(Gate::Rz(0.4), 2),
        G(Gate::T, 2),
        Cz(0, 1),
        G(Gate::Ry(0.8), 3),
        G(Gate::Rz(0.2), 3),
        G(Gate::H, 3),
    ];
    let run = |steps: &[Step], policy: BatchPolicy| {
        let cfg = QmpiConfig::new()
            .seed(3)
            .backend(kind)
            .noise(NoiseModel::ideal())
            .batch(policy);
        run_circuit(cfg, N_QUBITS, steps, false).0
    };
    let unfused_policy = BatchPolicy {
        fuse: false,
        ..BatchPolicy::default()
    };
    let unfused = run(&steps, unfused_policy);
    let fused = run(&steps, BatchPolicy::default());
    assert!(
        fused.counts.0 < unfused.counts.0,
        "{kind}: fusion must strictly reduce kernel sweeps on this circuit \
         ({} fused vs {} unfused)",
        fused.counts.0,
        unfused.counts.0
    );
    assert_eq!(fused.outcomes, unfused.outcomes, "{kind}");
    // The ladders: each is one parity sweep, so a Trotter step costs its
    // transverse-field layer plus one, and the CNOTs are gone.
    let unfused = run(&ladder_circuit(), unfused_policy);
    let fused = run(&ladder_circuit(), BatchPolicy::default());
    assert_eq!(unfused.counts.0, (3 * 5 + 6 + 2 * 5 + 1) as u64, "{kind}");
    assert_eq!(fused.counts.0, 1 + 6 + 1, "{kind}");
    assert!(3 * fused.counts.0 <= unfused.counts.0, "{kind}");
    assert_eq!(fused.outcomes, unfused.outcomes, "{kind}");
}

mod proptests {
    use super::*;
    use crate::common::conformance::strategies::arb_steps;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random Clifford+T circuits with random flush points: the fused
        /// run agrees with the eager run within 1e-12 on every in-process
        /// amplitude engine and never adds kernel sweeps.
        #[test]
        fn random_circuits_fuse_within_tolerance(
            steps in arb_steps(N_QUBITS, true, 8..30),
            seed in 0u64..1000,
        ) {
            for kind in amplitude_kinds() {
                assert_fused_matches_unfused(kind, N_QUBITS, &steps, seed, TOL);
            }
        }
    }
}
