//! The shared cross-backend conformance oracle.
//!
//! Every suite that asserts "backend A is observably identical to backend
//! B per seed" goes through this module: one `Step` vocabulary for random
//! Clifford+T circuits with flush points, one `Outcome` capture of every
//! observable a backend exposes, one canonical float comparison, and one
//! dense-state-vector oracle assertion. The suites differ only in *which*
//! pair they compare (batched vs eager, in-process vs socket transport,
//! sparse/remote vs the dense oracle) — never in how they run the
//! circuit or read it out.
//!
//! ## Canonical comparison rule
//!
//! Floats are compared as bit patterns — the acceptance bar is
//! bit-identity, not tolerance — under exactly one equivalence: `-0.0` is
//! canonicalized to `+0.0` ([`canon_bits`]). That is the documented
//! freedom of the sparse engine (see `qsim::sparse`): a pruned exact zero
//! and a dense `-0.0` are the same physical amplitude. Everything else,
//! including the last ulp of every nonzero amplitude, expectation value,
//! and noise-perturbed trajectory, must match exactly.

use qmpi::{run_with_config, BackendKind, BatchPolicy, QmpiConfig, QmpiRank};
use qsim::{Gate, NoiseModel, Pauli};

/// One step of a circuit (indices reduced mod the qubit count).
#[derive(Clone, Copy, Debug)]
pub enum Step {
    G(Gate, usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Swap(usize, usize),
    /// An explicit `QmpiRank::flush` — a no-op for program semantics, so
    /// sprinkling these anywhere must never change any observable.
    Flush,
}

/// Everything a backend lets us observe, in exactly-comparable form
/// (floats as canonicalized bit patterns, see the module docs).
#[derive(Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Dense amplitudes as bit patterns (empty on stabilizer/trace).
    pub amps: Vec<(u64, u64)>,
    /// Per-qubit <Z> (plus one joint string) as bit patterns.
    pub expectations: Vec<u64>,
    /// Final measurement outcome of every qubit.
    pub outcomes: Vec<bool>,
    /// (gates, measurements) from the backend counters.
    pub counts: (u64, u64),
    /// Trace engine's modeled error-free probability, as bits.
    pub fidelity: Option<u64>,
    /// (command rounds, exchange rounds) of a remote transport. Left
    /// `None` by [`run_circuit`]; the transport suite fills it in from
    /// [`TransportObs`] when the protocol schedule itself is under test.
    pub rounds: Option<(u64, u64)>,
}

/// Transport counters observed by a run on a process-separated backend.
pub struct TransportObs {
    pub wire_bytes: u64,
    pub respawns: u64,
    pub command_rounds: u64,
    pub exchange_rounds: u64,
}

/// Canonicalizes a float for bitwise comparison: `-0.0` and `+0.0` are
/// the same observable. Everything else compares exactly.
pub fn canon_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// Points every engine in the calling test binary at the `qworker` binary
/// Cargo built alongside the suite (CI lanes that invoke a suite directly
/// set the variable themselves).
pub fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("QMPI_QWORKER_BIN").is_none() {
            std::env::set_var("QMPI_QWORKER_BIN", env!("CARGO_BIN_EXE_qworker"));
        }
    });
}

/// Drives `steps` through the rank. With `clifford_only` (the stabilizer
/// tableau), non-Clifford gates are substituted with `S` so every backend
/// executes the same step *count*.
pub fn apply_steps(ctx: &QmpiRank, qs: &[qmpi::Qubit], steps: &[Step], clifford_only: bool) {
    let n = qs.len();
    for &step in steps {
        match step {
            Step::G(g, t) => {
                let g = if clifford_only && !g.is_clifford() {
                    Gate::S
                } else {
                    g
                };
                ctx.apply(g, &qs[t % n]).unwrap();
            }
            Step::Cnot(c, t) if c % n != t % n => {
                ctx.cnot(&qs[c % n], &qs[t % n]).unwrap();
            }
            Step::Cz(a, b) if a % n != b % n => {
                ctx.cz(&qs[a % n], &qs[b % n]).unwrap();
            }
            Step::Swap(a, b) if a % n != b % n => {
                ctx.swap(&qs[a % n], &qs[b % n]).unwrap();
            }
            Step::Flush => ctx.flush().unwrap(),
            _ => {}
        }
    }
}

/// Runs `steps` on one rank under `cfg` and captures every observable the
/// backend exposes, plus transport counters when the backend has any.
pub fn run_circuit(
    cfg: QmpiConfig,
    n_qubits: usize,
    steps: &[Step],
    clifford_only: bool,
) -> (Outcome, Option<TransportObs>) {
    let steps = steps.to_vec();
    let out = run_with_config(1, cfg, move |ctx| {
        let qs = ctx.alloc_qmem(n_qubits);
        apply_steps(ctx, &qs, &steps, clifford_only);
        // Dense snapshot (flushes via backend()); engines without
        // amplitudes report none.
        let ids: Vec<qsim::QubitId> = qs.iter().map(|q| q.id()).collect();
        let amps = match ctx.backend().state_vector(&ids) {
            Ok(st) => (0..st.len())
                .map(|i| {
                    let a = st.amplitude(i);
                    (canon_bits(a.re), canon_bits(a.im))
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        let mut expectations: Vec<u64> = qs
            .iter()
            .map(|q| canon_bits(ctx.expectation(&[(q, Pauli::Z)]).unwrap()))
            .collect();
        expectations.push(canon_bits(
            ctx.expectation(&[(&qs[0], Pauli::Z), (&qs[n_qubits - 1], Pauli::Z)])
                .unwrap(),
        ));
        let fidelity = ctx.backend().modeled_fidelity().map(f64::to_bits);
        let outcomes: Vec<bool> = qs
            .into_iter()
            .map(|q| ctx.measure_and_free(q).unwrap())
            .collect();
        let counts = ctx.backend().counts();
        let transport = ctx.backend().transport_stats().map(|t| TransportObs {
            wire_bytes: t.wire_bytes,
            respawns: t.respawns,
            command_rounds: t.command_rounds,
            exchange_rounds: t.exchange_rounds,
        });
        (
            Outcome {
                amps,
                expectations,
                outcomes,
                counts: (counts.gates, counts.measurements),
                fidelity,
                rounds: None,
            },
            transport,
        )
    });
    out.into_iter().next().unwrap()
}

/// The cross-backend oracle: `kind` must produce an [`Outcome`]
/// bit-identical (under the canonical rule) to the dense state-vector
/// engine on the same seed, circuit, noise model, and [`BatchPolicy`] —
/// including with the plan-time optimizer on, where every backend
/// executes the same fused stream with the same per-amplitude arithmetic.
/// Both sides must expose amplitudes, and the helper enforces that; the
/// stabilizer tableau has its own arm, [`assert_stabilizer_matches_dense`].
pub fn assert_matches_dense_oracle(
    kind: BackendKind,
    n_qubits: usize,
    steps: &[Step],
    noise: NoiseModel,
    seed: u64,
    policy: BatchPolicy,
) {
    let cfg = |k: BackendKind| {
        QmpiConfig::new()
            .seed(seed)
            .backend(k)
            .noise(noise)
            .batch(policy)
    };
    let (dense, _) = run_circuit(cfg(BackendKind::StateVector), n_qubits, steps, false);
    let (other, _) = run_circuit(cfg(kind), n_qubits, steps, false);
    assert!(
        !dense.amps.is_empty() && !other.amps.is_empty(),
        "{kind}: this oracle compares amplitudes (the stabilizer has its Clifford arm)"
    );
    assert_eq!(
        dense, other,
        "{kind} diverged from the dense state-vector oracle (seed {seed}, {policy:?})"
    );
}

/// The oracle's Clifford arm: the stabilizer tableau against the dense
/// engine on the same seed, Clifford circuit ([`run_circuit`]'s
/// `clifford_only`), noise model and [`BatchPolicy`]. Both engines run the
/// one simulator front, which draws the same noise and one uniform per
/// measurement, so outcomes and counts must be equal.
///
/// A tableau probability or expectation is exactly 0, ½ or ±1; the dense
/// one is that value to within rounding. So expectations compare to
/// within 1e-9 — dense rounding, nothing looser — and the one exception
/// to equal outcomes is a uniform drawn within dense rounding of 0.5,
/// which the tableau reads against exactly 0.5 (about one draw in 2^50).
/// The tableau holds no amplitudes, so only the dense run has a snapshot.
pub fn assert_stabilizer_matches_dense(
    n_qubits: usize,
    steps: &[Step],
    noise: NoiseModel,
    seed: u64,
    policy: BatchPolicy,
) {
    let cfg = |k: BackendKind| {
        QmpiConfig::new()
            .seed(seed)
            .backend(k)
            .noise(noise)
            .batch(policy)
    };
    let (dense, _) = run_circuit(cfg(BackendKind::StateVector), n_qubits, steps, true);
    let (tableau, _) = run_circuit(cfg(BackendKind::Stabilizer), n_qubits, steps, true);
    let at = format!("seed {seed}, {noise:?}, {policy:?}");
    assert_eq!(tableau.outcomes, dense.outcomes, "outcomes diverged ({at})");
    assert_eq!(tableau.counts, dense.counts, "counts diverged ({at})");
    assert_eq!(tableau.expectations.len(), dense.expectations.len());
    for (i, (t, d)) in tableau
        .expectations
        .iter()
        .zip(&dense.expectations)
        .enumerate()
    {
        let (t, d) = (f64::from_bits(*t), f64::from_bits(*d));
        assert!((t - d).abs() <= 1e-9, "expectation[{i}]: {t} vs {d} ({at})");
    }
}

/// The fusion-vs-eager oracle: the same circuit run unfused-eager and
/// fused-batched on `kind` must agree on every amplitude and expectation
/// within `tol` (bitwise under the canonical rule when `tol == 0.0` —
/// permutation/phase circuits, whose fused kernels stay exact in IEEE
/// arithmetic), with identical measurement outcomes, while the fused run
/// applies *no more* kernel sweeps. `tol > 0.0` covers general Clifford+T
/// streams, where fusing re-associates floating-point matrix products.
pub fn assert_fused_matches_unfused(
    kind: BackendKind,
    n_qubits: usize,
    steps: &[Step],
    seed: u64,
    tol: f64,
) {
    let cfg = |policy: BatchPolicy| {
        QmpiConfig::new()
            .seed(seed)
            .backend(kind)
            .noise(NoiseModel::ideal())
            .batch(policy)
    };
    let (eager, _) = run_circuit(cfg(BatchPolicy::eager()), n_qubits, steps, false);
    let (fused, _) = run_circuit(cfg(BatchPolicy::default()), n_qubits, steps, false);
    assert!(
        !eager.amps.is_empty(),
        "{kind}: the fusion oracle only applies to amplitude-class backends"
    );
    assert!(
        fused.counts.0 <= eager.counts.0,
        "{kind}: fusion must never add kernel sweeps ({} fused vs {} eager)",
        fused.counts.0,
        eager.counts.0
    );
    assert_eq!(
        fused.outcomes, eager.outcomes,
        "{kind}: measurement trajectory diverged (seed {seed})"
    );
    assert_eq!(fused.counts.1, eager.counts.1, "{kind}: measurement count");
    if tol == 0.0 {
        assert_eq!(fused.amps, eager.amps, "{kind}: exact circuit diverged");
        assert_eq!(fused.expectations, eager.expectations, "{kind}");
    } else {
        for (i, (f, e)) in fused.amps.iter().zip(&eager.amps).enumerate() {
            let d_re = (f64::from_bits(f.0) - f64::from_bits(e.0)).abs();
            let d_im = (f64::from_bits(f.1) - f64::from_bits(e.1)).abs();
            assert!(
                d_re <= tol && d_im <= tol,
                "{kind}: amp[{i}] off by ({d_re:e}, {d_im:e}) > {tol:e}"
            );
        }
        for (i, (f, e)) in fused
            .expectations
            .iter()
            .zip(&eager.expectations)
            .enumerate()
        {
            let d = (f64::from_bits(*f) - f64::from_bits(*e)).abs();
            assert!(d <= tol, "{kind}: expectation[{i}] off by {d:e} > {tol:e}");
        }
    }
}

pub mod strategies {
    //! Proptest circuit generators shared across the suites.
    use super::Step;
    use proptest::prelude::*;
    use qsim::Gate;

    /// A random circuit step over `n` qubits: the full Clifford+T gate
    /// set plus fixed-angle rotations, 2q gates, and (optionally)
    /// explicit flush points.
    pub fn arb_step(n: usize, with_flush: bool) -> BoxedStrategy<Step> {
        let gate = (0usize..10, 0..n).prop_map(|(g, t)| {
            let gate = match g {
                0 => Gate::H,
                1 => Gate::S,
                2 => Gate::Sdg,
                3 => Gate::T,
                4 => Gate::Tdg,
                5 => Gate::X,
                6 => Gate::Y,
                7 => Gate::Z,
                8 => Gate::Ry(0.37),
                _ => Gate::Rz(1.1),
            };
            Step::G(gate, t)
        });
        let cnot = (0..n, 0..n).prop_map(|(c, t)| Step::Cnot(c, t));
        let cz = (0..n, 0..n).prop_map(|(a, b)| Step::Cz(a, b));
        let swap = (0..n, 0..n).prop_map(|(a, b)| Step::Swap(a, b));
        if with_flush {
            prop_oneof![gate, cnot, cz, swap, Just(Step::Flush)].boxed()
        } else {
            prop_oneof![gate, cnot, cz, swap].boxed()
        }
    }

    /// A whole random circuit of `len` steps.
    pub fn arb_steps(
        n: usize,
        with_flush: bool,
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(arb_step(n, with_flush), len)
    }
}

/// What the generic-angle family reads, in program order and exactly
/// comparable: every probability, parity mass and expectation value as
/// canonical bits, every measurement outcome, the amplitudes after each
/// collapse, and (gates, measurements).
#[derive(Debug, PartialEq, Eq)]
pub struct GenericAngleReads {
    pub values: Vec<u64>,
    pub outcomes: Vec<bool>,
    pub amps: Vec<Vec<(u64, u64)>>,
    pub counts: (u64, u64),
}

/// Register width of the generic-angle family: three shard-selecting
/// qubits at eight shards and four addressing within a stripe.
pub const GENERIC_QUBITS: usize = 7;

/// The generic-angle family: seeded `Ry`/`Rx`/`Rz` layers between CNOT
/// ladders, with every read after each layer — each qubit's probability,
/// parity masses of neighbouring and far pairs, one- and two-site
/// expectations (X, Y and Z on every position) and the same strings through
/// `expectation_each` — then a Z measurement, a parity measurement and a
/// measure-and-free at a position that walks the register (bottom, middle,
/// top: shard-selecting on the remote engine), a fresh qubit in its
/// place, and the amplitudes after every collapse. Generic angles make every
/// reduction add many nonzero terms of mixed magnitude, so the order in
/// which an engine adds them would show in the last bit.
pub fn generic_angle_family<S: qmpi::EngineStore>(
    e: &mut qmpi::AmplitudeEngine<S>,
    seed: u64,
) -> GenericAngleReads {
    use qsim::{BatchOp, QubitId};
    let n = GENERIC_QUBITS;
    let mut rng = proptest::test_runner::TestRng::for_case(seed);
    let mut angle = move || 0.05 + 3.0 * rng.unit_f64();
    let mut reads = GenericAngleReads {
        values: Vec::new(),
        outcomes: Vec::new(),
        amps: Vec::new(),
        counts: (0, 0),
    };
    // Live qubits in position order: allocation order, less the freed.
    let mut qs: Vec<QubitId> = (0..n).map(|_| e.alloc()).collect();
    for layer in 0..n {
        let mut batch = qsim::GateBatch::new();
        for rotation in [Gate::Ry, Gate::Rx, Gate::Rz] {
            for &q in &qs {
                batch.push(BatchOp::Gate {
                    gate: rotation(angle()),
                    q,
                });
            }
        }
        for w in qs.windows(2) {
            batch.push(BatchOp::Cnot { c: w[0], t: w[1] });
        }
        batch.push(BatchOp::Cnot {
            c: qs[n - 1],
            t: qs[layer % (n - 1)],
        });
        e.apply_batch(&batch).unwrap();
        // Reads: probabilities and parity masses...
        for (p, &q) in qs.iter().enumerate() {
            reads.values.push(canon_bits(e.prob_one(q).unwrap()));
            for other in [(p + 1) % n, (p + 3) % n] {
                let mass = e.raw_state().parity_prob_odd(&[p, other]);
                reads.values.push(canon_bits(mass));
            }
        }
        // ...one- and two-site expectations, one call each and all at once.
        let mut strings: Vec<Vec<(QubitId, Pauli)>> = Vec::new();
        for (p, &q) in qs.iter().enumerate() {
            for op in [Pauli::X, Pauli::Y, Pauli::Z] {
                strings.push(vec![(q, op)]);
            }
            strings.push(vec![(q, Pauli::Z), (qs[(p + 1) % n], Pauli::Z)]);
            strings.push(vec![(q, Pauli::X), (qs[(p + 2) % n], Pauli::Z)]);
            strings.push(vec![(q, Pauli::Y), (qs[(p + 4) % n], Pauli::X)]);
        }
        for terms in &strings {
            reads.values.push(canon_bits(e.expectation(terms).unwrap()));
        }
        let each = e.expectation_each(&strings).unwrap();
        reads.values.extend(each.into_iter().map(canon_bits));
        // Measurements at a position that walks the register.
        let at = |k: usize| (layer * 3 + k) % n;
        reads
            .outcomes
            .push(e.measure_z_parity(&[qs[at(0)]]).unwrap());
        reads
            .outcomes
            .push(e.measure_z_parity(&[qs[at(1)], qs[at(2)]]).unwrap());
        let freed = qs.remove(at(n - 1 - layer % 2));
        reads.outcomes.push(e.measure_and_free(freed).unwrap());
        let fresh = e.alloc();
        qs.push(fresh);
        let st = e.state_vector(&qs).unwrap();
        reads.amps.push(
            st.amplitudes()
                .iter()
                .map(|a| (canon_bits(a.re), canon_bits(a.im)))
                .collect(),
        );
    }
    reads.counts = (e.gate_count(), e.measurement_count());
    reads
}

/// Asserts that two runs of [`generic_angle_family`] read the same bits,
/// naming the first read that differs.
pub fn assert_same_reads(want: &GenericAngleReads, got: &GenericAngleReads, case: &str) {
    let first = |w: &[u64], g: &[u64]| w.iter().zip(g).position(|(w, g)| w != g);
    if let Some(i) = first(&want.values, &got.values) {
        let (w, g) = (
            f64::from_bits(want.values[i]),
            f64::from_bits(got.values[i]),
        );
        panic!("{case}: read {i} differs: {g:e} where dense reads {w:e}");
    }
    for (k, (w, g)) in want.amps.iter().zip(&got.amps).enumerate() {
        if let Some(i) = w.iter().zip(g).position(|(w, g)| w != g) {
            panic!("{case}: amplitude {i} after collapse {k} differs");
        }
    }
    assert_eq!(want, got, "{case}");
}
