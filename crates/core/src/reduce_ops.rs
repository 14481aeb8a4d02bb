//! Reversible reduction operations for quantum collectives (Section 4.5).
//!
//! Unlike classical MPI, a quantum reduction operator must be *reversible*
//! so that `QMPI_Unreduce` can uncompute scratch space ("the QMPI
//! implementation leaves all memory management to the user and QMPI_Reduce
//! only accepts reversible operations"). The first version of QMPI ships
//! `QMPI_PARITY`, the one operation here; a user-defined operation
//! implements [`QuantumReduceOp`].

use crate::context::QmpiRank;
use crate::error::Result;
use crate::qubit::Qubit;

/// A reversible fold of one local qubit into an accumulator qubit.
///
/// `apply` must be a unitary on (local, acc) that is classical (permutation)
/// on the computational basis with respect to `acc` — this is what makes
/// chain reductions with entangled copies well-defined.
pub trait QuantumReduceOp: Sync {
    /// Folds `local` into `acc`.
    fn apply(&self, ctx: &QmpiRank, local: &Qubit, acc: &Qubit) -> Result<()>;
    /// Inverse of [`QuantumReduceOp::apply`].
    fn unapply(&self, ctx: &QmpiRank, local: &Qubit, acc: &Qubit) -> Result<()>;
    /// Human-readable name for diagnostics.
    fn name(&self) -> &'static str;
}

/// `QMPI_PARITY`: the accumulator accumulates the XOR of all inputs
/// (Section 4.5's example operation). Self-inverse.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parity;

impl QuantumReduceOp for Parity {
    fn apply(&self, ctx: &QmpiRank, local: &Qubit, acc: &Qubit) -> Result<()> {
        ctx.cnot(local, acc)
    }

    fn unapply(&self, ctx: &QmpiRank, local: &Qubit, acc: &Qubit) -> Result<()> {
        ctx.cnot(local, acc)
    }

    fn name(&self) -> &'static str {
        "QMPI_PARITY"
    }
}
