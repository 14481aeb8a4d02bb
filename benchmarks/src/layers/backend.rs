//! `qmpi.backend`: the locality wrapper + engine dispatch under a rank's
//! flush, on a 4-qubit state so kernels vanish and what is left is lock +
//! plan + codec + command round. A 1-op batch gives the per-round
//! intercept, a 256-op batch the per-op slope; `alloc_free` is one
//! structural round trip (on the remote engines: Gather → rebuild → Load).
//! The contended pair runs two threads on disjoint qubits.

use super::{median_ns, time_ns, Metrics};
use crate::stats::median;
use qmpi::{
    build_backend_with_policy, BackendKind, BatchPolicy, NoiseModel, QuantumBackend, TransportKind,
};
use qsim::{BatchOp, Gate, GateBatch, QubitId};
use std::sync::Arc;

const ENGINES: [(&str, BackendKind, TransportKind); 4] = [
    (
        "statevector",
        BackendKind::StateVector,
        TransportKind::InProcess,
    ),
    (
        "sharded",
        BackendKind::ShardedStateVector { shards: 2 },
        TransportKind::InProcess,
    ),
    (
        "remote-inproc",
        BackendKind::RemoteSharded { shards: 2 },
        TransportKind::InProcess,
    ),
    (
        "remote-unix",
        BackendKind::RemoteSharded { shards: 2 },
        TransportKind::UnixSocket,
    ),
];

fn build(kind: BackendKind, transport: TransportKind) -> Arc<dyn QuantumBackend> {
    build_backend_with_policy(
        kind,
        transport,
        1,
        NoiseModel::ideal(),
        BatchPolicy::default(),
    )
    .expect("probe backend builds")
}

/// `ops` gates cycling over `qubits`: rotations with a CNOT every fourth.
fn batch(qubits: &[QubitId], ops: usize) -> GateBatch {
    let mut b = GateBatch::new();
    for i in 0..ops {
        let q = qubits[i % qubits.len()];
        let next = qubits[(i + 1) % qubits.len()];
        b.push(if i % 4 == 3 {
            BatchOp::Cnot { c: q, t: next }
        } else {
            BatchOp::Gate {
                gate: Gate::Ry(0.01 * (i + 1) as f64),
                q,
            }
        });
    }
    b
}

/// One flush as a rank issues it: apply, then ship any coalesce window.
fn flush(backend: &dyn QuantumBackend, rank: usize, b: &GateBatch) {
    backend.apply_batch(rank, b).expect("apply_batch");
    backend.sync_coalesced().expect("sync_coalesced");
}

fn release(backend: &dyn QuantumBackend, rank: usize, qubits: Vec<QubitId>) {
    for q in qubits {
        backend.measure_and_free(rank, q).expect("release");
    }
}

pub fn probe(samples: usize, m: &mut Metrics) {
    for (name, kind, transport) in ENGINES {
        let backend = build(kind, transport);
        let qubits = backend.alloc(0, 4);
        for (label, ops) in [("1op", 1), ("256op", 256)] {
            let b = batch(&qubits, ops);
            m.push(
                format!("qmpi.backend.apply_batch_us.{name}.{label}"),
                median_ns(samples, || flush(&*backend, 0, &b)) / 1e3,
                "us",
            );
        }
        m.push(
            format!("qmpi.backend.alloc_free_us.{name}"),
            median_ns(samples, || {
                let a = backend.alloc(0, 1);
                backend.measure_and_free(0, a[0]).expect("free")
            }) / 1e3,
            "us",
        );
        release(&*backend, 0, qubits);
    }

    for (name, kind, transport) in &ENGINES[..2] {
        let backend = build(*kind, *transport);
        let both_allocated = std::sync::Barrier::new(2);
        let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|rank| {
                    let (backend, both_allocated) = (&*backend, &both_allocated);
                    s.spawn(move || {
                        let qubits = backend.alloc(rank, 4);
                        let b = batch(&qubits, 256);
                        both_allocated.wait();
                        let ns = time_ns(samples, || flush(backend, rank, &b));
                        release(backend, rank, qubits);
                        ns
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("contending thread"))
                .collect()
        });
        m.push(
            format!("qmpi.backend.contended_apply_batch_us.{name}"),
            median(&per_thread.concat()) / 1e3,
            "us",
        );
    }
}
