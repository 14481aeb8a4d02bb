//! [`TraceState`]: the amplitude store that holds no amplitudes.
//!
//! The paper's Tables 1–3 are resource counts — EPR pairs, classical bits,
//! rounds, gates — at rank counts no state vector reaches. Run under the
//! simulator front ([`crate::sim::AmpSim`]), this store keeps only the
//! register width: gates and collapses do nothing, every parity mass reads
//! `0.0`, so every measurement and free yields `false` (|0>) through the
//! front's own draw, and a Pauli string reads as on the all-|0> register
//! (`+1` when Z-only, else `0`). Handles, operand checks, counters and
//! noise sites are the front's, as on every amplitude engine; the control
//! flow, message pattern and resource consumption of a protocol are exact,
//! with its fixup branches taken least often.

use crate::batch::SweepFactor;
use crate::complex::Complex;
use crate::gates::{Mat2, Pauli};
use crate::measure::PauliTerm;
use crate::sim::{AmpStore, SimError};
use crate::state::State;

/// The register width, and nothing else; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct TraceState {
    n: usize,
}

fn no_amplitudes(what: &str) -> SimError {
    SimError::Unsupported(format!(
        "the trace backend tracks no amplitudes, so no {what}; use an amplitude backend"
    ))
}

impl AmpStore for TraceState {
    fn add_qubit(&mut self) -> usize {
        self.n += 1;
        self.n - 1
    }

    fn remove_qubit(&mut self, _target: usize, _outcome: bool) {
        self.n -= 1;
    }

    fn apply_1q(&mut self, _controls: &[usize], _target: usize, _m: &Mat2) {}

    fn apply_cnot(&mut self, _control: usize, _target: usize) {}

    fn apply_cz(&mut self, _a: usize, _b: usize) {}

    fn apply_swap(&mut self, _a: usize, _b: usize) {}

    fn apply_phase_sweep(&mut self, _: &[usize], _: &[SweepFactor], _: &[(usize, usize)]) {}

    fn parity_prob_odd(&self, _qubits: &[usize]) -> f64 {
        0.0
    }

    fn collapse_parity(&mut self, _qubits: &[usize], _odd: bool) {}

    fn collapse_remove(&mut self, target: usize, outcome: bool) {
        self.remove_qubit(target, outcome);
    }

    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        if terms.iter().all(|t| t.op == Pauli::Z) {
            1.0
        } else {
            0.0
        }
    }

    fn snapshot(&self, _perm: &[usize]) -> Result<State, SimError> {
        Err(no_amplitudes("dense snapshot"))
    }

    fn amplitude_of(&self, _ones: &[usize]) -> Result<Complex, SimError> {
        Err(no_amplitudes("amplitude probe"))
    }
}
