//! Op-to-batch helpers. `apply_batch` is the only gate entry point on an
//! engine or a backend, so a test that wants "H on q" passes
//! `&ops::gate(Gate::H, q)`. Depends on `qsim` alone: the integration
//! suites reach it as `common::ops`, the `qmpi` crate's unit tests include
//! the same file by path.

use qsim::{BatchOp, Gate, GateBatch, QubitId};

/// A batch of the given ops, in order.
pub fn batch(ops: impl IntoIterator<Item = BatchOp>) -> GateBatch {
    let mut b = GateBatch::new();
    for op in ops {
        b.push(op);
    }
    b
}

/// A one-op batch: a single-qubit gate.
pub fn gate(gate: Gate, q: QubitId) -> GateBatch {
    batch([BatchOp::Gate { gate, q }])
}

/// A one-op batch: CNOT.
pub fn cnot(c: QubitId, t: QubitId) -> GateBatch {
    batch([BatchOp::Cnot { c, t }])
}

/// A one-op batch: CZ.
pub fn cz(a: QubitId, b: QubitId) -> GateBatch {
    batch([BatchOp::Cz { a, b }])
}

/// A one-op batch: SWAP.
pub fn swap(a: QubitId, b: QubitId) -> GateBatch {
    batch([BatchOp::Swap { a, b }])
}
