//! # qalgo — distributed quantum algorithms on QMPI
//!
//! The applications of the paper's Section 7, implemented against the QMPI
//! API and validated against dense single-process references:
//!
//! * [`tfim`] — transverse-field Ising model time evolution and annealing
//!   (Listing 1), with a conflict-free boundary-exchange schedule that also
//!   handles odd ring sizes;
//! * [`parity`] — the three implementations of `exp(-it Z⊗...⊗Z)` from
//!   Fig. 6 (in-place tree, out-of-place ancilla, constant-depth cat);
//! * [`maxcut`] — adiabatic MaxCut optimization (the Section 7.2
//!   motivation);
//! * [`gadgets`] — distributed CNOT/CZ/ZZ-rotation building blocks;
//! * [`fidelity`] — teleportation-fidelity-vs-noise sweeps over an
//!   imperfect interconnect, with closed-form cross-checks.

#![forbid(unsafe_code)]

pub mod fidelity;
pub mod gadgets;
pub mod maxcut;
pub mod parity;
pub mod qpe;
pub mod tfim;

pub use fidelity::{analytic_teleport_fidelity, teleport_fidelity, teleport_fidelity_sweep};
pub use maxcut::Graph;
pub use tfim::TfimParams;
