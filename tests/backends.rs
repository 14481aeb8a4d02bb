//! Backend-parameterized protocol suite.
//!
//! The same QMPI protocol code must produce the same *observable* results on
//! every amplitude-tracking backend (the individual fixup bits may differ —
//! they are random — but the delivered values, parities, and resource
//! consumption are protocol invariants). The trace backend must reproduce
//! the resource consumption alone, at scales only it and the stabilizer
//! engine can reach.
//!
//! Every test runs on every arm it applies to, and every assertion names
//! its arm, so a regression in one engine, policy or transport cannot hide
//! behind another's pass. An arm is a [`BackendKind`] in-process under
//! each of three batch policies — the default (batched and fused), eager
//! (a batch of one per gate, on the remote engine's queue as well) and
//! unfused (batched, optimizer off) — and, for the remote engine, its
//! workers as `qworker` child processes over Unix sockets, which re-proves
//! every protocol invariant across an OS boundary.

use qmpi::{
    run_with_config, BackendKind, BatchPolicy, Parity, QmpiConfig, ResourceSnapshot, TransportKind,
};
use qsim::Pauli;

/// Every backend under test.
fn all_kinds() -> Vec<BackendKind> {
    vec![
        BackendKind::StateVector,
        BackendKind::Stabilizer,
        BackendKind::Sparse,
        BackendKind::RemoteSharded { shards: 4 },
        BackendKind::Trace,
    ]
}

/// Whether `kind` tracks real quantum state (trace only counts).
fn is_stateful(kind: BackendKind) -> bool {
    kind != BackendKind::Trace
}

/// One configuration the suite runs a test under.
#[derive(Clone, Copy)]
struct Arm {
    kind: BackendKind,
    transport: TransportKind,
    policy: (&'static str, BatchPolicy),
}

impl std::fmt::Display for Arm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, transport, policy) = (self.kind, self.transport, self.policy.0);
        write!(f, "{kind:?} over {transport}, {policy} policy")
    }
}

impl Arm {
    fn cfg(self, seed: u64) -> QmpiConfig {
        if self.transport.is_multiprocess() && std::env::var_os("QMPI_QWORKER_BIN").is_none() {
            // This suite is part of the package that builds `qworker`.
            std::env::set_var("QMPI_QWORKER_BIN", env!("CARGO_BIN_EXE_qworker"));
        }
        QmpiConfig::new()
            .seed(seed)
            .backend(self.kind)
            .transport(self.transport)
            .batch(self.policy.1)
    }
}

/// The arms of `kind`: in-process under the default, eager and unfused
/// policies, and for the remote engine also over Unix sockets under the
/// default policy.
fn arms_of(kind: BackendKind) -> Vec<Arm> {
    let unfused = BatchPolicy {
        fuse: false,
        ..BatchPolicy::default()
    };
    let policies = [
        ("default", BatchPolicy::default()),
        ("eager", BatchPolicy::eager()),
        ("unfused", unfused),
    ];
    let in_process = policies.map(|policy| Arm {
        kind,
        transport: TransportKind::InProcess,
        policy,
    });
    let sockets = matches!(kind, BackendKind::RemoteSharded { .. }).then_some(Arm {
        kind,
        transport: TransportKind::UnixSocket,
        policy: policies[0],
    });
    in_process.into_iter().chain(sockets).collect()
}

/// Every arm of every backend under test.
fn all_arms() -> Vec<Arm> {
    all_kinds().into_iter().flat_map(arms_of).collect()
}

/// The arms of the backends that track real quantum state.
fn stateful_arms() -> Vec<Arm> {
    let mut arms = all_arms();
    arms.retain(|arm| is_stateful(arm.kind));
    arms
}

/// Teleportation chain 0 -> 1 -> 2 of a basis state: the delivered value
/// (stateful engines) and the resource bill (every engine) must be
/// identical on each backend under test.
#[test]
fn teleportation_chain_identical_across_backends() {
    for input in [false, true] {
        let mut per_arm: Vec<(Arm, bool, ResourceSnapshot)> = Vec::new();
        for arm in all_arms() {
            let out = run_with_config(3, arm.cfg(7), move |ctx| {
                let (delta, delivered) = ctx.measure_resources(|| match ctx.rank() {
                    0 => {
                        let q = ctx.alloc_one();
                        if input {
                            ctx.x(&q).unwrap();
                        }
                        ctx.send_move(q, 1, 0).unwrap();
                        false
                    }
                    1 => {
                        let q = ctx.recv_move(0, 0).unwrap();
                        ctx.send_move(q, 2, 1).unwrap();
                        false
                    }
                    _ => {
                        let q = ctx.recv_move(1, 1).unwrap();
                        ctx.measure_and_free(q).unwrap()
                    }
                });
                (delivered, delta)
            });
            per_arm.push((arm, out[2].0, out[0].1));
        }
        for &(arm, delivered, bill) in &per_arm {
            if is_stateful(arm.kind) {
                assert_eq!(delivered, input, "{arm}: must deliver the input");
            }
            assert_eq!(bill.epr_pairs, 2, "{arm}: two hops, one pair each");
            assert_eq!(bill.classical_bits, 4, "{arm}: two 2-bit fixup messages");
        }
        for w in per_arm.windows(2) {
            assert_eq!(
                w[0].2, w[1].2,
                "{} and {} must consume identical resources",
                w[0].0, w[1].0
            );
        }
    }
}

/// Entangled copy + uncopy of a basis state: the copy's observed value, the
/// original's survival, and the Table 1 costs agree across backends.
#[test]
fn copy_uncopy_identical_across_backends() {
    for input in [false, true] {
        let mut results = Vec::new();
        for arm in stateful_arms() {
            let out = run_with_config(2, arm.cfg(21), move |ctx| {
                if ctx.rank() == 0 {
                    let q = ctx.alloc_one();
                    if input {
                        ctx.x(&q).unwrap();
                    }
                    ctx.send(&q, 1, 0).unwrap();
                    ctx.unsend(&q, 1, 0).unwrap();
                    let z = ctx.expectation(&[(&q, Pauli::Z)]).unwrap();
                    let survived = ctx.measure_and_free(q).unwrap();
                    (false, z, survived)
                } else {
                    let copy = ctx.recv(0, 0).unwrap();
                    let seen = ctx.measure(&copy).unwrap();
                    ctx.unrecv(copy, 0, 0).unwrap();
                    (seen, 0.0, false)
                }
            });
            results.push((arm, (out[1].0, out[0].1, out[0].2)));
        }
        let z_expect = if input { -1.0 } else { 1.0 };
        for &(arm, (seen, z, survived)) in &results {
            assert_eq!(seen, input, "{arm}: copy carries the sender's value");
            assert!(
                (z - z_expect).abs() < 1e-9,
                "{arm}: uncopy restores the original"
            );
            assert_eq!(survived, input, "{arm}: original survives with its value");
        }
        for w in results.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "{} and {} must agree on copy value and restored state",
                w[0].0, w[1].0
            );
        }
    }
}

/// Parity reduction with inverse: the root's parity matches the classical
/// XOR on every stateful backend, and scratch uncomputation verifies.
#[test]
fn parity_reduce_identical_across_backends() {
    let patterns: [&[bool]; 3] = [
        &[true, false, true, true],
        &[false, false, false],
        &[true, true, true, true, true],
    ];
    for bits in patterns {
        let bits_owned: Vec<bool> = bits.to_vec();
        let expect = bits_owned.iter().fold(false, |a, &b| a ^ b);
        for arm in stateful_arms() {
            let bits_arc = std::sync::Arc::new(bits_owned.clone());
            let out = run_with_config(bits_owned.len(), arm.cfg(4), move |ctx| {
                let q = ctx.alloc_one();
                if bits_arc[ctx.rank()] {
                    ctx.x(&q).unwrap();
                }
                let (result, handle) = ctx.reduce(&q, &Parity, 0).unwrap();
                let parity = result
                    .as_ref()
                    .map(|r| ctx.expectation(&[(r, Pauli::Z)]).unwrap() < 0.0);
                ctx.unreduce(&q, result, handle, &Parity).unwrap();
                // free_qmem doubles as the |0>-scratch self-check.
                let restored = ctx.measure_and_free(q).unwrap();
                (parity, restored)
            });
            assert_eq!(
                out[0],
                (Some(expect), bits_owned[0]),
                "{arm}: root parity = classical XOR, inputs restored"
            );
        }
    }
}

/// The acceptance benchmark: a 64-rank cat-state broadcast — far beyond any
/// state vector — completes on the stabilizer backend in well under five
/// seconds, all shares agree, and the X-basis disband parity check passes.
#[test]
fn stabilizer_runs_64_rank_cat_broadcast_fast() {
    let n = 64;
    for arm in arms_of(BackendKind::Stabilizer) {
        let start = std::time::Instant::now();
        let out = run_with_config(n, arm.cfg(64), |ctx| {
            // First establishment: measure in Z — every share must agree.
            let share = ctx.cat_establish().unwrap();
            ctx.barrier();
            let m = ctx.measure(&share).unwrap();
            ctx.measure_and_free(share).unwrap();
            let m0: bool = ctx
                .classical()
                .bcast(if ctx.rank() == 0 { Some(m) } else { None }, 0);
            // Second establishment: the collective X-parity disband check must
            // certify a pure cat state.
            let share = ctx.cat_establish().unwrap();
            let disband_ok = ctx.cat_disband(share).is_ok();
            m == m0 && disband_ok
        });
        let elapsed = start.elapsed();
        assert!(
            out.iter().all(|&ok| ok),
            "{arm}: all 64 GHZ shares agree and disband cleanly"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "{arm}: 64-rank cat broadcast took {elapsed:?}, budget is 5s"
        );
    }
}

/// A GHZ fanout across 96 ranks on the stabilizer backend — a scale at
/// which the dense engine would need a 2^96-amplitude vector.
#[test]
fn stabilizer_scales_to_96_rank_ghz() {
    let n = 96;
    for arm in arms_of(BackendKind::Stabilizer) {
        let out = run_with_config(n, arm.cfg(5), |ctx| {
            let share = ctx.cat_establish().unwrap();
            ctx.barrier();
            let m = ctx.measure(&share).unwrap();
            ctx.measure_and_free(share).unwrap();
            m
        });
        assert!(
            out.iter().all(|&m| m == out[0]),
            "{arm}: 96-rank GHZ shares must agree"
        );
    }
}

/// The remote backend runs the full cat-state protocol (establish, agree,
/// disband) at 8 ranks — 14+ simulator qubits cut into 8 shards — with
/// the batched single-acquisition EPR establishment underneath.
#[test]
fn sharded_runs_cat_broadcast_with_batched_establishment() {
    for arm in arms_of(BackendKind::RemoteSharded { shards: 8 }) {
        let out = run_with_config(8, arm.cfg(13), |ctx| {
            let share = ctx.cat_establish().unwrap();
            ctx.barrier();
            let m = ctx.measure(&share).unwrap();
            ctx.measure_and_free(share).unwrap();
            let share = ctx.cat_establish().unwrap();
            let disband_ok = ctx.cat_disband(share).is_ok();
            (m, disband_ok)
        });
        assert!(
            out.iter().all(|&(m, _)| m == out[0].0),
            "{arm}: GHZ shares must agree"
        );
        assert!(
            out.iter().all(|&(_, ok)| ok),
            "{arm}: disband check must pass"
        );
    }
}

/// The process-separated engine runs the full cat-state protocol
/// (establish, agree, disband) at 4 ranks: every amplitude lives in a shard
/// worker and every gate, EPR establishment, and measurement crosses the
/// shard boundary as `cmpi` messages. A hung worker would trip the
/// engine's deadlock watchdog rather than stall this test forever.
#[test]
fn remote_runs_cat_broadcast_over_message_passing_shards() {
    for arm in arms_of(BackendKind::RemoteSharded { shards: 4 }) {
        let out = run_with_config(4, arm.cfg(17), |ctx| {
            let share = ctx.cat_establish().unwrap();
            ctx.barrier();
            let m = ctx.measure(&share).unwrap();
            ctx.measure_and_free(share).unwrap();
            let share = ctx.cat_establish().unwrap();
            let disband_ok = ctx.cat_disband(share).is_ok();
            (m, disband_ok)
        });
        assert!(
            out.iter().all(|&(m, _)| m == out[0].0),
            "{arm}: GHZ shares must agree"
        );
        assert!(
            out.iter().all(|&(_, ok)| ok),
            "{arm}: disband check must pass"
        );
    }
}

/// Table 3 via the trace backend at paper scale: the cat-state broadcast on
/// 64 ranks costs N−1 EPR pairs in 2 establishment rounds with
/// (N−2) + (N−1) protocol bits, and the binomial tree costs N−1 pairs,
/// N−1 bits in ⌈log₂N⌉ rounds. The trace engine also reports the gate and
/// memory high-water profile no dense engine could measure at this size.
#[test]
fn trace_backend_reproduces_table3_formulas_at_64_ranks() {
    use qmpi::BcastAlgorithm;
    let n = 64;
    for arm in arms_of(BackendKind::Trace) {
        for (algo, bits, rounds) in [
            (
                BcastAlgorithm::CatState,
                (n as u64 - 2) + (n as u64 - 1),
                2u64,
            ),
            (BcastAlgorithm::BinomialTree, n as u64 - 1, 6),
        ] {
            let out = run_with_config(n, arm.cfg(0), move |ctx| {
                let (delta, q) = ctx.measure_resources(|| {
                    if ctx.rank() == 0 {
                        let q = ctx.alloc_one();
                        ctx.bcast_with(algo, Some(&q), 0).unwrap();
                        q
                    } else {
                        ctx.bcast_with(algo, None, 0).unwrap().unwrap()
                    }
                });
                ctx.measure_and_free(q).unwrap();
                // Let every rank finish freeing before reading global counts.
                ctx.barrier();
                (delta, ctx.backend().counts())
            });
            let delta = out[0].0;
            assert_eq!(
                delta.epr_pairs,
                n as u64 - 1,
                "{arm}, {algo:?}: N-1 EPR pairs (Table 3)"
            );
            assert_eq!(
                delta.classical_bits, bits,
                "{arm}, {algo:?}: protocol bits (Table 3)"
            );
            assert_eq!(
                delta.epr_rounds, rounds,
                "{arm}, {algo:?}: establishment rounds (Section 7.1)"
            );
            let counts = out[0].1;
            assert!(
                counts.gates > 0 && counts.max_live_qubits >= n as u64,
                "{arm}, {algo:?}: {counts:?}"
            );
            assert_eq!(
                counts.live_qubits, 0,
                "{arm}, {algo:?}: everything measured away"
            );
        }
    }
}

/// Every backend under test agrees on the resource ledger for a mixed
/// collective workload, and the bill matches the closed form.
#[test]
fn resource_ledger_is_backend_invariant() {
    let n = 5;
    let mut bills = Vec::new();
    for arm in all_arms() {
        let out = run_with_config(n, arm.cfg(3), |ctx| {
            let (delta, q) = ctx.measure_resources(|| {
                let q = ctx.alloc_one();
                if ctx.rank() == 2 {
                    ctx.x(&q).unwrap();
                }
                let (result, handle) = ctx.reduce(&q, &Parity, 0).unwrap();
                ctx.unreduce(&q, result, handle, &Parity).unwrap();
                let share = ctx.cat_establish().unwrap();
                ctx.measure_and_free(share).unwrap();
                ctx.ledger().buffer_dec(ctx.rank());
                q
            });
            ctx.measure_and_free(q).unwrap();
            delta
        });
        bills.push((arm, out[0]));
    }
    for &(arm, bill) in &bills {
        assert_eq!(
            bill.epr_pairs,
            2 * (n as u64 - 1),
            "{arm}: reduce + cat establishment"
        );
    }
    for w in bills.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{} bill must match {}", w[1].0, w[0].0);
    }
}

/// Non-Clifford workloads fail loudly (not silently wrong) on the
/// stabilizer backend, and the state-vector backend remains the default.
#[test]
fn non_clifford_rejected_on_stabilizer_only() {
    assert_eq!(QmpiConfig::new().backend_kind(), BackendKind::StateVector);
    for arm in stateful_arms() {
        let out = run_with_config(1, arm.cfg(1), move |ctx| {
            let q = ctx.alloc_one();
            let t = ctx.t(&q);
            ctx.measure_and_free(q).unwrap();
            t
        });
        if arm.kind == BackendKind::Stabilizer {
            assert!(
                matches!(
                    out[0],
                    Err(qmpi::QmpiError::Sim(qsim::SimError::Unsupported(_)))
                ),
                "{arm}: {:?}",
                out[0]
            );
        } else {
            assert!(out[0].is_ok(), "{arm}: dense backends support T");
        }
    }
}

/// A qubit named twice in a parity measurement is `DuplicateQubit` on every
/// backend, before any noise or measurement draw: the failed call counts no
/// measurement, and what follows it reads, to the bit, what a run without
/// it reads.
#[test]
fn repeated_qubit_in_a_parity_measurement_is_rejected_before_any_draw() {
    let noise = qsim::NoiseModel::depolarizing(0.2);
    for arm in all_arms() {
        let run = |repeat: bool| {
            run_with_config(1, arm.cfg(8).noise(noise), move |ctx| {
                let qs = ctx.alloc_qmem(3);
                for q in &qs {
                    ctx.h(q).unwrap();
                }
                ctx.cnot(&qs[0], &qs[2]).unwrap();
                if repeat {
                    let before = ctx.backend().counts();
                    let err = ctx.measure_z_parity(&[&qs[0], &qs[0]]);
                    assert!(
                        matches!(
                            err,
                            Err(qmpi::QmpiError::Sim(qsim::SimError::DuplicateQubit(_)))
                        ),
                        "{arm}: {err:?}"
                    );
                    assert_eq!(ctx.backend().counts(), before, "{arm}");
                }
                let m = ctx.measure(&qs[0]).unwrap();
                let probs = [&qs[1], &qs[2]].map(|q| ctx.prob_one(q).unwrap().to_bits());
                let frees: Vec<bool> = qs
                    .into_iter()
                    .map(|q| ctx.measure_and_free(q).unwrap())
                    .collect();
                (m, probs, frees, ctx.backend().counts())
            })
        };
        assert_eq!(run(true), run(false), "{arm}");
    }
}

/// A qubit named twice in a Pauli string is `DuplicateQubit` on every
/// backend, through `expectation` and `expectation_each` alike (Z·Z is the
/// identity, not Z; X·Z is not Hermitian), before anything is read; a read
/// after it sees the state as it was.
#[test]
fn repeated_qubit_in_a_pauli_string_is_rejected() {
    for arm in all_arms() {
        let out = run_with_config(1, arm.cfg(8), move |ctx| {
            let qs = ctx.alloc_qmem(2);
            ctx.x(&qs[0]).unwrap();
            let duplicate = |e: Option<qmpi::QmpiError>| {
                matches!(
                    e,
                    Some(qmpi::QmpiError::Sim(qsim::SimError::DuplicateQubit(_)))
                )
            };
            let mut rejected = Vec::new();
            for repeat in [
                vec![(&qs[0], Pauli::Z), (&qs[0], Pauli::Z)],
                vec![(&qs[0], Pauli::X), (&qs[1], Pauli::Z), (&qs[0], Pauli::Z)],
            ] {
                rejected.push(duplicate(ctx.expectation(&repeat).err()));
                let strings = [vec![(&qs[1], Pauli::Z)], repeat];
                rejected.push(duplicate(ctx.expectation_each(&strings).err()));
            }
            let z = ctx.expectation(&[(&qs[0], Pauli::Z)]).unwrap();
            for q in qs {
                ctx.measure_and_free(q).unwrap();
            }
            (rejected, z)
        });
        let (rejected, z) = &out[0];
        assert_eq!(rejected, &[true; 4], "{arm}");
        let want = if is_stateful(arm.kind) { -1.0 } else { 1.0 };
        assert_eq!(*z, want, "{arm}: <Z> of |1>");
    }
}
