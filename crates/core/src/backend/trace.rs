//! The trace engine: no amplitudes, only operation accounting.
//!
//! Applying a gate or establishing an EPR pair just increments counters;
//! measurements deterministically return `false` (|0>), so every protocol's
//! fixup branches are exercised least-often but the control flow, message
//! pattern, and resource consumption — the quantities the paper's Tables
//! 1–3 are about — are exact. This is what lets the experiment harness
//! reproduce the paper's resource formulas at arbitrary rank counts in
//! microseconds.

use super::{BackendKind, SimEngine};
use qsim::noise::{NoiseModel, OpClass};
use qsim::{BatchOp, GateBatch, Pauli, QubitId, SimError, State};
use std::collections::HashSet;

/// Counting-only engine; see the module docs.
///
/// Under a [`NoiseModel`] the trace engine cannot sample trajectories — it
/// has no state to perturb — so it *models* the noise instead: every
/// operation multiplies a running error-free probability by each involved
/// qubit's channel fidelity, yielding the probability that no noise event
/// fired over the whole run ([`TraceEngine::modeled_fidelity`]). That is the
/// quantity fidelity-vs-`S`-budget studies extrapolate to rank counts no
/// amplitude-tracking engine reaches.
pub struct TraceEngine {
    live: HashSet<QubitId>,
    next_id: u64,
    gate_count: u64,
    measurement_count: u64,
    noise: NoiseModel,
    /// Probability that no noise event has fired so far (1.0 when ideal).
    error_free: f64,
}

impl TraceEngine {
    /// Creates an empty, noiseless trace engine.
    pub fn new() -> Self {
        TraceEngine::with_noise(NoiseModel::ideal())
    }

    /// Creates a trace engine that models `noise` analytically.
    pub fn with_noise(noise: NoiseModel) -> Self {
        TraceEngine {
            live: HashSet::new(),
            next_id: 0,
            gate_count: 0,
            measurement_count: 0,
            noise,
            error_free: 1.0,
        }
    }

    fn check(&self, q: QubitId) -> Result<(), SimError> {
        if self.live.contains(&q) {
            Ok(())
        } else {
            Err(SimError::UnknownQubit(q))
        }
    }

    /// Checks two distinct live qubits.
    fn check_pair(&self, a: QubitId, b: QubitId) -> Result<(), SimError> {
        if a == b {
            return Err(SimError::DuplicateQubit(a));
        }
        self.check(a)?;
        self.check(b)
    }

    /// Folds one application of the `class` channel on `qubits` qubits into
    /// the modeled error-free probability.
    fn model_noise(&mut self, class: OpClass, qubits: u32) {
        let ch = self.noise.channel(class);
        if !ch.is_ideal() {
            self.error_free *= ch.error_free_probability().powi(qubits as i32);
        }
    }
}

impl Default for TraceEngine {
    fn default() -> Self {
        TraceEngine::new()
    }
}

impl SimEngine for TraceEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Trace
    }

    fn noise(&self) -> NoiseModel {
        self.noise
    }

    fn modeled_fidelity(&self) -> Option<f64> {
        Some(self.error_free)
    }

    fn alloc(&mut self) -> QubitId {
        let id = QubitId(self.next_id);
        self.next_id += 1;
        self.live.insert(id);
        id
    }

    fn free(&mut self, q: QubitId) -> Result<bool, SimError> {
        self.check(q)?;
        self.live.remove(&q);
        Ok(false)
    }

    fn measure_and_free(&mut self, q: QubitId) -> Result<bool, SimError> {
        self.check(q)?;
        self.live.remove(&q);
        self.measurement_count += 1;
        self.model_noise(OpClass::Measurement, 1);
        Ok(false)
    }

    fn apply_batch(&mut self, batch: &GateBatch) -> Result<(), SimError> {
        // One sweep that validates, counts and folds the op's noise class
        // over the qubits it touches. One kernel sweep = one counted gate,
        // matching every amplitude engine (the counters report sweeps,
        // which is what fusion cuts); ops before a failing one stay
        // counted.
        for op in batch.ops() {
            let (class, touched) = match op {
                BatchOp::Gate { q, .. } | BatchOp::Fused1q { q, .. } => {
                    self.check(*q)?;
                    (OpClass::Gate1q, 1)
                }
                BatchOp::Controlled {
                    controls, target, ..
                } => {
                    for &c in controls {
                        self.check(c)?;
                        if c == *target {
                            return Err(SimError::DuplicateQubit(c));
                        }
                    }
                    self.check(*target)?;
                    (OpClass::Gate2q, controls.len() as u32 + 1)
                }
                BatchOp::Swap { a, b } if a == b => continue,
                BatchOp::Cnot { c: a, t: b } | BatchOp::Cz { a, b } | BatchOp::Swap { a, b } => {
                    self.check_pair(*a, *b)?;
                    (OpClass::Gate2q, 2)
                }
                BatchOp::PhaseSweep { qubits, diags, czs } => {
                    // Every listed qubit and CZ operand checked; a noise
                    // site per distinct qubit, as on the amplitude engines.
                    let site = |q: QubitId| self.check(q).map(|()| q.0 as usize);
                    let (.., touched) = qsim::sweep_positions(qubits, diags, czs, site)?;
                    (OpClass::Gate1q, touched.len() as u32)
                }
            };
            self.gate_count += 1;
            self.model_noise(class, touched);
        }
        Ok(())
    }

    fn prob_one(&self, q: QubitId) -> Result<f64, SimError> {
        self.check(q)?;
        // Every qubit reads |0>: EPR freshness checks pass and frees
        // succeed, which is exactly what a counting run wants.
        Ok(0.0)
    }

    fn measure_z_parity(&mut self, qubits: &[QubitId]) -> Result<bool, SimError> {
        for (i, &q) in qubits.iter().enumerate() {
            self.check(q)?;
            if qubits[..i].contains(&q) {
                return Err(SimError::DuplicateQubit(q));
            }
        }
        self.measurement_count += 1;
        self.model_noise(OpClass::Measurement, qubits.len() as u32);
        Ok(false)
    }

    fn expectation(&self, terms: &[(QubitId, Pauli)]) -> Result<f64, SimError> {
        for (i, &(q, _)) in terms.iter().enumerate() {
            self.check(q)?;
            if terms[..i].iter().any(|&(p, _)| p == q) {
                return Err(SimError::DuplicateQubit(q));
            }
        }
        // Consistent with the all-|0> convention: <Z> = +1, <X> = <Y> = 0.
        Ok(if terms.iter().all(|&(_, p)| p == Pauli::Z) {
            1.0
        } else {
            0.0
        })
    }

    fn state_vector(&self, _order: &[QubitId]) -> Result<State, SimError> {
        Err(SimError::Unsupported(
            "the trace backend tracks no amplitudes; use the state-vector backend for dense \
             snapshots"
                .into(),
        ))
    }

    fn n_qubits(&self) -> usize {
        self.live.len()
    }

    fn gate_count(&self) -> u64 {
        self.gate_count
    }

    fn measurement_count(&self) -> u64 {
        self.measurement_count
    }

    fn entangle_epr(&mut self, qa: QubitId, qb: QubitId) -> Result<(), SimError> {
        // Count the interconnect operation as the H + CNOT it stands for,
        // matching the other engines' gate tallies — but model its noise as
        // one EPR-channel application per half, like the stochastic engines,
        // not as gate noise.
        self.check(qa)?;
        self.check(qb)?;
        if qa == qb {
            return Err(SimError::DuplicateQubit(qa));
        }
        self.gate_count += 2;
        self.model_noise(OpClass::Epr, 2);
        Ok(())
    }
}
