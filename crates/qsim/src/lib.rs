//! # qsim — full state-vector quantum simulator
//!
//! The simulation substrate backing the QMPI prototype, mirroring Section 6
//! of *Distributed Quantum Computing with QMPI* (SC 2021): a full state
//! simulator with dynamic qubit allocation that all QMPI ranks forward their
//! quantum operations to.
//!
//! Layering:
//! - [`complex`] — self-contained complex arithmetic.
//! - [`gates`] — the paper's gate set (Pauli, H, S/T, rotations, CNOT/CZ/...).
//! - [`stripe`] — the amplitude kernels (pair gates, phase passes, masked
//!   norms, collapse, Pauli expectation, qubit removal) over one contiguous
//!   stripe: the single definition of the per-amplitude arithmetic, at the
//!   host's vector width.
//! - [`state`] — dense amplitude vector with add/remove-qubit support: the
//!   one-stripe case of [`stripe`], whose element-wise kernels it splits
//!   across the caller and one helper thread on registers of 2^15
//!   amplitudes and up.
//! - [`batch`] — [`batch::GateBatch`]: the batched gate-stream IR that
//!   engines apply as one unit (one lock acquisition per batch instead of
//!   per gate).
//! - [`optimizer`] — the plan-time pass over a recorded batch: fuses runs
//!   of adjacent 1q gates into single [`batch::BatchOp::Fused1q`] kernels
//!   and merges commuting diagonal gates/CZs, read through the CNOTs
//!   around them, into [`batch::BatchOp::PhaseSweep`]s, so engines sweep
//!   memory once per fused op instead of once per recorded gate.
//! - [`measure`] — [`measure::PauliTerm`], the Pauli-string observable type.
//! - [`sparse`] — [`sparse::SparseState`]: the nonzero amplitudes in a map
//!   keyed by 512-bit basis state, evaluating the stripe expressions in the
//!   same order over its present entries.
//! - [`sim`] — the simulator front, written once over [`sim::AmpStore`]:
//!   stable qubit handles, operand checks, counters, noise and measurement
//!   draws. [`sim::Simulator`] runs it over [`state::State`],
//!   [`sim::SparseSim`] over [`sparse::SparseState`],
//!   [`stabilizer::StabilizerSim`] over [`stabilizer::Tableau`], and
//!   `qmpi` runs it over the stripes its shard workers hold.
//! - [`trace`] — [`trace::TraceState`]: the store with no amplitudes, only
//!   a register width; the front over it counts operations at any scale.
//! - [`stabilizer`] — [`stabilizer::Tableau`]: the CHP tableau as a store,
//!   realising the Clifford ops the front passes it (and refusing the rest
//!   before anything moves), for Clifford-only workloads at scales far
//!   beyond any state vector (the QMPI protocols are all Clifford).
//! - [`noise`] — pluggable noise channels ([`noise::NoiseModel`]):
//!   depolarizing/dephasing/amplitude-damping with independent rates per
//!   operation class, realized as seeded stochastic Pauli/Kraus insertions
//!   in every simulator.

// Not `forbid`: `stripe::dispatch` allows it, to call the wide kernel copies.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod batch;
pub mod complex;
pub mod gates;
pub mod measure;
pub mod noise;
pub mod optimizer;
mod registry;
pub mod sim;
pub mod sparse;
pub mod stabilizer;
pub mod state;
pub mod stripe;
pub mod trace;

pub use batch::{sweep_positions, BatchOp, GateBatch, SweepFactor};
pub use complex::Complex;
pub use gates::{Gate, Pauli};
pub use noise::{NoiseChannel, NoiseModel};
pub use optimizer::optimize;
pub use sim::{AmpStore, QubitId, SimError, Simulator, SparseSim};
pub use sparse::SparseState;
pub use stabilizer::{StabilizerSim, Tableau};
pub use state::State;
pub use trace::TraceState;

#[cfg(test)]
mod proptests {
    use crate::gates::Gate;
    use crate::sim::Simulator;
    use proptest::prelude::*;

    fn arb_gate() -> impl Strategy<Value = Gate> {
        prop_oneof![
            Just(Gate::X),
            Just(Gate::Y),
            Just(Gate::Z),
            Just(Gate::H),
            Just(Gate::S),
            Just(Gate::Sdg),
            Just(Gate::T),
            Just(Gate::Tdg),
            (-3.2f64..3.2).prop_map(Gate::Rx),
            (-3.2f64..3.2).prop_map(Gate::Ry),
            (-3.2f64..3.2).prop_map(Gate::Rz),
            (-3.2f64..3.2).prop_map(Gate::Phase),
        ]
    }

    proptest! {
        #[test]
        fn random_circuits_preserve_norm(
            gates in proptest::collection::vec((arb_gate(), 0usize..5), 1..40),
            cnots in proptest::collection::vec((0usize..5, 0usize..5), 0..20),
        ) {
            let mut sim = Simulator::new(99);
            let qs = sim.alloc_n(5);
            for (g, t) in gates {
                sim.apply(g, qs[t]).unwrap();
            }
            for (c, t) in cnots {
                if c != t {
                    sim.cnot(qs[c], qs[t]).unwrap();
                }
            }
            let norm = sim.raw_state().norm_sqr();
            prop_assert!((norm - 1.0).abs() < 1e-8);
        }

        #[test]
        fn gate_then_dagger_is_identity(
            gates in proptest::collection::vec((arb_gate(), 0usize..4), 1..25),
        ) {
            let mut sim = Simulator::new(7);
            let qs = sim.alloc_n(4);
            // Scramble into an interesting state first.
            for &q in &qs {
                sim.apply(Gate::H, q).unwrap();
            }
            sim.cnot(qs[0], qs[1]).unwrap();
            sim.cnot(qs[2], qs[3]).unwrap();
            let before = sim.state_vector(&qs).unwrap();
            for &(g, t) in &gates {
                sim.apply(g, qs[t]).unwrap();
            }
            for &(g, t) in gates.iter().rev() {
                sim.apply(g.dagger(), qs[t]).unwrap();
            }
            let after = sim.state_vector(&qs).unwrap();
            prop_assert!((before.fidelity(&after) - 1.0).abs() < 1e-8);
        }

        #[test]
        fn teleportation_preserves_arbitrary_states(theta in 0.0f64..3.1, phi in -3.1f64..3.1) {
            // Fig. 3(c) on a random Bloch-sphere state.
            let mut sim = Simulator::new(13);
            let src = sim.alloc();
            sim.apply(Gate::Ry(theta), src).unwrap();
            sim.apply(Gate::Rz(phi), src).unwrap();
            let reference = sim.state_vector(&[src]).unwrap();
            let e1 = sim.alloc();
            let e2 = sim.alloc();
            sim.apply(Gate::H, e1).unwrap();
            sim.cnot(e1, e2).unwrap();
            sim.cnot(src, e1).unwrap();
            let mf = sim.measure_and_free(e1).unwrap();
            if mf { sim.apply(Gate::X, e2).unwrap(); }
            sim.apply(Gate::H, src).unwrap();
            let mu = sim.measure_and_free(src).unwrap();
            if mu { sim.apply(Gate::Z, e2).unwrap(); }
            let out = sim.state_vector(&[e2]).unwrap();
            prop_assert!((out.fidelity(&reference) - 1.0).abs() < 1e-8);
        }

        #[test]
        fn measurement_outcome_matches_collapsed_state(seed in 0u64..1000) {
            let mut sim = Simulator::new(seed);
            let q = sim.alloc();
            sim.apply(Gate::Ry(1.1), q).unwrap();
            let m = sim.measure(q).unwrap();
            let p1 = sim.prob_one(q).unwrap();
            let consistent = if m { (p1 - 1.0).abs() < 1e-9 } else { p1 < 1e-9 };
            prop_assert!(consistent);
        }
    }
}
