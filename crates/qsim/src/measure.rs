//! The Pauli-string observable type shared by every engine's expectation
//! entry point. The measurement, collapse and expectation kernels
//! themselves live in [`crate::stripe`] (dense amplitudes) and
//! [`crate::sparse`] (the nonzero-entry map), behind
//! [`crate::sim::AmpStore`].

/// One factor of a Pauli-string observable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PauliTerm {
    /// Which qubit the operator acts on.
    pub qubit: usize,
    /// Which Pauli operator.
    pub op: crate::gates::Pauli,
}
