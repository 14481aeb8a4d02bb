//! Criterion bench: the same QMPI protocols on each simulation backend as
//! the rank count grows.
//!
//! The points the numbers make:
//!
//! * the single-mutex state-vector engine (the paper's prototype) falls off
//!   a cliff past ~16 total qubits, while the stabilizer tableau runs the
//!   identical Clifford protocol at 64+ ranks and the trace backend scales
//!   to whatever the thread launcher tolerates — which is what makes
//!   Table 1–3-style resource estimation at paper scale possible;
//! * on dense workloads that *fit* in a state vector, the striped engine
//!   runs the same kernels as the dense one behind the same single lock and
//!   pays for re-cutting its stripes on alloc and free; the ranking of the
//!   amplitude engines is `cargo run --release -p qmpi-bench --bin
//!   engine_census`, whose rows are the programs timed here.
//!
//! `QMPI_BENCH_QUICK=1` shrinks the size sweep for CI smoke runs, and the
//! compat criterion harness honors `CRITERION_SAMPLE_SIZE` /
//! `CRITERION_OUTPUT_JSON` for the bench-regression pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmpi::{run_with_config, BackendKind, BatchPolicy, QmpiConfig, TransportKind};

const SHARDS: usize = 8;

fn cfg(kind: BackendKind) -> QmpiConfig {
    QmpiConfig::new().seed(1).backend(kind)
}

fn quick() -> bool {
    std::env::var_os("QMPI_BENCH_QUICK").is_some()
}

fn sizes(full: &'static [usize]) -> &'static [usize] {
    if quick() {
        &full[..2.min(full.len())]
    } else {
        full
    }
}

fn kinds_for(n: usize) -> Vec<BackendKind> {
    // One cat establishment allocates ~2(n-1) simulator qubits at peak; keep
    // the dense engines within their feasible window.
    if n <= 8 {
        vec![
            BackendKind::StateVector,
            BackendKind::ShardedStateVector { shards: SHARDS },
            BackendKind::Stabilizer,
            BackendKind::Trace,
        ]
    } else {
        vec![BackendKind::Stabilizer, BackendKind::Trace]
    }
}

fn bench_cat_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/cat_bcast");
    group.sample_size(10);
    for &n in sizes(&[4usize, 8, 16, 32, 64]) {
        for kind in kinds_for(n) {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, &n| {
                b.iter(|| {
                    run_with_config(n, cfg(kind), |ctx| {
                        let share = ctx.cat_establish().unwrap();
                        ctx.measure_and_free(share).unwrap();
                        ctx.ledger().buffer_dec(ctx.rank());
                    })
                });
            });
        }
    }
    group.finish();
}

fn bench_teleport_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/teleport_chain");
    group.sample_size(10);
    for &n in sizes(&[4usize, 8, 16, 32]) {
        for kind in kinds_for(n) {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, &n| {
                b.iter(|| run_with_config(n, cfg(kind), qmpi_bench::teleport_chain));
            });
        }
    }
    group.finish();
}

fn bench_parity_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/parity_reduce");
    group.sample_size(10);
    for &n in sizes(&[4usize, 8, 32]) {
        for kind in kinds_for(n) {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, &n| {
                b.iter(|| run_with_config(n, cfg(kind), qmpi_bench::parity_reduce));
            });
        }
    }
    group.finish();
}

/// 8 ranks × 2 qubits = 16 total qubits (a 65 536-amplitude dense state),
/// every rank streaming local gates at once ([`qmpi_bench::local_gates`]).
/// Both engines serialize the ranks' batches through one lock and run the
/// same kernels; the striped one additionally re-cuts its stripes on every
/// alloc and free.
fn bench_local_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/local_gates");
    group.sample_size(10);
    let ranks = 8usize;
    let gates_per_rank = if quick() { 16 } else { 48 };
    for kind in [
        BackendKind::StateVector,
        BackendKind::ShardedStateVector { shards: SHARDS },
    ] {
        let label = format!("{}q_{}r", ranks * 2, ranks);
        group.bench_with_input(BenchmarkId::new(kind.name(), label), &ranks, |b, &n| {
            b.iter(|| {
                run_with_config(n, cfg(kind), move |ctx| {
                    qmpi_bench::local_gates(ctx, gates_per_rank)
                })
            });
        });
    }
    group.finish();
}

/// The message-passing counterpart of `local_gates`: 4 ranks × 2 qubits,
/// every gate crossing the shard boundary as `cmpi` commands to worker
/// ranks. Compared against the striped engine (same layout, one address
/// space) on the identical workload, the gap *is* the protocol overhead
/// (encode + mailbox hop per batch) — the number to watch as the remote
/// engine's batching improves. Kept smaller than `local_gates` because the
/// message rounds are the point, not raw amplitude throughput.
///
/// A third arm runs the same workload with the workers as real `qworker`
/// child processes over the unix-socket transport, so the in-process vs
/// OS-boundary premium is one table row apart. `cargo bench` does not
/// build the umbrella package's `qworker` binary, so the arm needs
/// `QMPI_QWORKER_BIN` pointing at it and is skipped (loudly) otherwise.
fn bench_remote_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/remote_gates");
    group.sample_size(10);
    let ranks = 4usize;
    let qubits_per_rank = 2usize;
    let gates_per_rank = if quick() { 8 } else { 24 };
    let mut arms = vec![
        (
            BackendKind::ShardedStateVector { shards: 4 },
            TransportKind::InProcess,
        ),
        (
            BackendKind::RemoteSharded { shards: 4 },
            TransportKind::InProcess,
        ),
    ];
    if std::env::var_os("QMPI_QWORKER_BIN").is_some() {
        arms.push((
            BackendKind::RemoteSharded { shards: 4 },
            TransportKind::UnixSocket,
        ));
    } else {
        eprintln!(
            "remote_gates: QMPI_QWORKER_BIN unset; skipping the unix-socket transport arm              (build the qworker binary and point the variable at it)"
        );
    }
    for (kind, transport) in arms {
        let name = if transport.is_multiprocess() {
            format!("{}-{transport}", kind.name())
        } else {
            kind.name().to_string()
        };
        let label = format!("{}q_{}r", ranks * qubits_per_rank, ranks);
        group.bench_with_input(BenchmarkId::new(name, label), &ranks, |b, &n| {
            b.iter(|| {
                run_with_config(n, cfg(kind).transport(transport), move |ctx| {
                    let qs = ctx.alloc_qmem(qubits_per_rank);
                    ctx.barrier();
                    for i in 0..gates_per_rank {
                        let q = &qs[i % qubits_per_rank];
                        ctx.ry(q, 0.1 + i as f64 * 0.01).unwrap();
                        ctx.cnot(&qs[0], &qs[1]).unwrap();
                        ctx.cz(&qs[0], &qs[1]).unwrap();
                        ctx.rz(q, -0.05).unwrap();
                    }
                    for i in (0..gates_per_rank).rev() {
                        let q = &qs[i % qubits_per_rank];
                        ctx.rz(q, 0.05).unwrap();
                        ctx.cz(&qs[0], &qs[1]).unwrap();
                        ctx.cnot(&qs[0], &qs[1]).unwrap();
                        ctx.ry(q, -(0.1 + i as f64 * 0.01)).unwrap();
                    }
                    ctx.barrier();
                    for q in qs {
                        ctx.free_qmem(q).unwrap();
                    }
                })
            });
        });
    }
    group.finish();
}

/// The batching acceptance workload: the identical 4-rank × 8-qubit gate
/// storm on the sharded and remote engines in three modes — `fused` (the
/// default policy: batched + plan-time optimizer), `batched` (same
/// batching, fusion off — the pre-fusion stream), and `per-gate`
/// (`BatchPolicy::eager()`). On both engines batching's gap is one
/// locality-lock acquisition per batch against one per gate (the remote
/// engine queues gates until a read either way). Fusion then shrinks the batch itself: adjacent
/// 1q gates collapse into single matrix sweeps and diagonal stretches
/// into single phase sweeps, which the counter assertion below proves
/// before timing anything.
fn bench_batched_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/batched_gates");
    group.sample_size(10);
    let ranks = 4usize;
    let qubits_per_rank = 2usize;
    let gates_per_rank = if quick() { 8 } else { 24 };
    let storm = move |ctx: &qmpi::QmpiRank| {
        let qs = ctx.alloc_qmem(qubits_per_rank);
        ctx.barrier();
        for i in 0..gates_per_rank {
            let q = &qs[i % qubits_per_rank];
            ctx.ry(q, 0.1 + i as f64 * 0.01).unwrap();
            ctx.cnot(&qs[0], &qs[1]).unwrap();
            ctx.swap(&qs[0], &qs[1]).unwrap();
            ctx.cz(&qs[0], &qs[1]).unwrap();
            ctx.rz(q, -0.05).unwrap();
        }
        // One flush per storm direction: the batched modes land their
        // stream here, the per-gate mode already landed it per call.
        ctx.flush().unwrap();
        for i in (0..gates_per_rank).rev() {
            let q = &qs[i % qubits_per_rank];
            ctx.rz(q, 0.05).unwrap();
            ctx.cz(&qs[0], &qs[1]).unwrap();
            ctx.swap(&qs[0], &qs[1]).unwrap();
            ctx.cnot(&qs[0], &qs[1]).unwrap();
            ctx.ry(q, -(0.1 + i as f64 * 0.01)).unwrap();
        }
        ctx.barrier();
        for q in qs {
            ctx.free_qmem(q).unwrap();
        }
    };
    let modes = [
        ("fused", BatchPolicy::default()),
        (
            "batched",
            BatchPolicy {
                fuse: false,
                ..BatchPolicy::default()
            },
        ),
        ("per-gate", BatchPolicy::eager()),
    ];
    for kind in [
        BackendKind::ShardedStateVector { shards: 4 },
        BackendKind::RemoteSharded { shards: 4 },
    ] {
        // Counter proof ahead of the timing: the fused arm must apply
        // strictly fewer kernel sweeps than the unfused stream on this
        // storm, or the "fused" label is a lie.
        let sweeps = |policy: BatchPolicy| {
            run_with_config(ranks, cfg(kind).batch(policy), move |ctx| {
                storm(ctx);
                ctx.backend().gate_count()
            })[0]
        };
        let (fused_sweeps, unfused_sweeps) = (sweeps(modes[0].1), sweeps(modes[1].1));
        assert!(
            fused_sweeps < unfused_sweeps,
            "{}: fusion must reduce kernel sweeps ({fused_sweeps} vs {unfused_sweeps})",
            kind.name()
        );
        for (mode, policy) in modes {
            let label = format!("{}-{mode}", kind.name());
            let id = format!("{}q_{}r", ranks * qubits_per_rank, ranks);
            group.bench_with_input(BenchmarkId::new(label, id), &ranks, |b, &n| {
                b.iter(|| run_with_config(n, cfg(kind).batch(policy), storm));
            });
        }
    }
    group.finish();
}

/// The coalescing acceptance workload: 4 ranks storm the remote engine
/// with sub-budget flushes (the service-shaped pattern — many tenants,
/// small frequent flushes), window-synced every round. With coalescing
/// on, the wrapper merges the ranks' flushes into one batch per window;
/// the remote store queues both paths' gates into the same frames until a
/// read, so the counter assertion pins equal command rounds on this storm
/// before anything is timed, and the timing prices what is left: the
/// window's own bookkeeping.
fn bench_coalesced_gates(c: &mut Criterion) {
    use qmpi::{build_backend_with_policy, QuantumBackend};
    use qsim::{BatchOp, Gate, GateBatch, NoiseModel, QubitId};
    use std::sync::Arc;

    let mut group = c.benchmark_group("backend/coalesced_gates");
    group.sample_size(10);
    let ranks = 4usize;
    let qubits_per_rank = 2usize;
    let rounds = if quick() { 4 } else { 16 };
    let build = |policy: BatchPolicy| -> Arc<dyn QuantumBackend> {
        build_backend_with_policy(
            BackendKind::RemoteSharded { shards: 4 },
            TransportKind::InProcess,
            1,
            NoiseModel::ideal(),
            policy,
        )
        .expect("backend builds")
    };
    let alloc_owned = move |backend: &Arc<dyn QuantumBackend>| -> Vec<Vec<QubitId>> {
        (0..ranks)
            .map(|r| backend.alloc(r, qubits_per_rank))
            .collect()
    };
    let storm = move |backend: &Arc<dyn QuantumBackend>, owned: &[Vec<QubitId>]| {
        for round in 0..rounds {
            for (r, qs) in owned.iter().enumerate() {
                let mut b = GateBatch::new();
                b.push(BatchOp::Gate {
                    gate: Gate::Ry(0.1 + round as f64 * 0.01),
                    q: qs[round % qs.len()],
                });
                b.push(BatchOp::Cnot { c: qs[0], t: qs[1] });
                b.push(BatchOp::Gate {
                    gate: Gate::Rz(-0.05),
                    q: qs[1],
                });
                backend.apply_batch(r, &b).unwrap();
            }
            backend.sync_coalesced().unwrap();
        }
    };
    let modes = [
        ("coalesced", BatchPolicy::default()),
        (
            "per-rank",
            BatchPolicy {
                coalesce: false,
                ..BatchPolicy::default()
            },
        ),
    ];
    // Counter proof ahead of the timing: the merged and per-rank paths
    // cost the same command rounds, since both queue until a read.
    let rounds_of = |policy: BatchPolicy| {
        let backend = build(policy);
        let owned = alloc_owned(&backend);
        let before = backend
            .transport_stats()
            .expect("remote transport")
            .command_rounds;
        storm(&backend, &owned);
        backend
            .transport_stats()
            .expect("remote transport")
            .command_rounds
            - before
    };
    let (merged, per_rank) = (rounds_of(modes[0].1), rounds_of(modes[1].1));
    assert_eq!(
        merged, per_rank,
        "coalesced and per-rank storms must cost the same command rounds"
    );
    for (mode, policy) in modes {
        let label = format!("remote-sharded-{mode}");
        let id = format!("{}q_{}r", ranks * qubits_per_rank, ranks);
        group.bench_with_input(BenchmarkId::new(label, id), &ranks, |b, _| {
            b.iter(|| {
                let backend = build(policy);
                let owned = alloc_owned(&backend);
                storm(&backend, &owned);
            });
        });
    }
    group.finish();
}

/// The sparse engine's headline: real amplitudes at paper-scale rank
/// counts for a constant factor over pure counting. The workload is a
/// cat-state broadcast built as a sequential entangled-copy chain — the
/// sparse-friendly realization, a handful of nonzero amplitudes at every
/// step — run identically on every arm. At 16 ranks the sparse engine
/// races the dense state vector (2^16+ amplitudes striped per gate) and
/// the trace engine; at 128 ranks a dense register would need 2^128
/// amplitudes, so sparse (two map entries) races trace alone — the cost
/// of carrying actual amplitudes instead of op counts at a scale no
/// dense engine reaches.
fn bench_sparse_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend/sparse_gates");
    group.sample_size(10);
    for &n in sizes(&[16usize, 128]) {
        let kinds = if n <= 16 {
            vec![
                BackendKind::Sparse,
                BackendKind::StateVector,
                BackendKind::Trace,
            ]
        } else {
            vec![BackendKind::Sparse, BackendKind::Trace]
        };
        for kind in kinds {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, &n| {
                b.iter(|| {
                    run_with_config(n, cfg(kind), |ctx| {
                        let me = ctx.rank();
                        let q = if me == 0 {
                            let q = ctx.alloc_one();
                            ctx.h(&q).unwrap();
                            ctx.send(&q, 1, 0).unwrap();
                            q
                        } else {
                            let q = ctx.recv(me - 1, 0).unwrap();
                            if me + 1 < ctx.size() {
                                ctx.send(&q, me + 1, 0).unwrap();
                            }
                            q
                        };
                        ctx.barrier();
                        ctx.measure_and_free(q).unwrap();
                    })
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_local_gates, bench_remote_gates, bench_batched_gates, bench_coalesced_gates, bench_sparse_gates, bench_cat_broadcast, bench_teleport_chain, bench_parity_reduce
}
criterion_main!(benches);
