//! Rank-local quantum gates.
//!
//! These are the local operations a node of the distributed machine can
//! perform on its own qubits; anything touching another rank's qubits fails
//! with [`crate::QmpiError::Locality`] and must be expressed via QMPI
//! communication instead.

use crate::context::QmpiRank;
use crate::error::Result;
use crate::qubit::Qubit;
use qsim::{BatchOp, Gate, Pauli};

impl QmpiRank {
    /// Applies an arbitrary single-qubit gate.
    ///
    /// With batching enabled (the default — see [`crate::BatchPolicy`])
    /// this *records* the gate into the rank's pending [`qsim::GateBatch`];
    /// the stream lands at the next flush point (measurement, probability or
    /// expectation read, allocation, EPR establishment, barrier, backend
    /// access, a tripped op/byte budget, or an explicit [`QmpiRank::flush`])
    /// as one backend call, optimized at plan time when
    /// [`crate::BatchPolicy::fuse`] is on.
    /// Engine-level errors from a recorded gate therefore surface at the
    /// flush point. All other gate entry points below share this behavior.
    pub fn apply(&self, gate: Gate, q: &Qubit) -> Result<()> {
        self.enqueue(BatchOp::Gate { gate, q: q.id })
    }

    /// Hadamard.
    pub fn h(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::H, q)
    }

    /// Pauli X.
    pub fn x(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::X, q)
    }

    /// Pauli Y.
    pub fn y(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::Y, q)
    }

    /// Pauli Z.
    pub fn z(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::Z, q)
    }

    /// Phase gate S.
    pub fn s(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::S, q)
    }

    /// Inverse phase gate S†.
    pub fn sdg(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::Sdg, q)
    }

    /// T gate (the expensive magic-state gate of Section 3).
    pub fn t(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::T, q)
    }

    /// T† gate.
    pub fn tdg(&self, q: &Qubit) -> Result<()> {
        self.apply(Gate::Tdg, q)
    }

    /// X rotation `exp(-i theta X / 2)`.
    pub fn rx(&self, q: &Qubit, theta: f64) -> Result<()> {
        self.apply(Gate::Rx(theta), q)
    }

    /// Y rotation `exp(-i theta Y / 2)`.
    pub fn ry(&self, q: &Qubit, theta: f64) -> Result<()> {
        self.apply(Gate::Ry(theta), q)
    }

    /// Z rotation `exp(-i theta Z / 2)` — the rotation gate whose delay
    /// `D_R` dominates the SENDQ analyses of Section 7.
    pub fn rz(&self, q: &Qubit, theta: f64) -> Result<()> {
        self.apply(Gate::Rz(theta), q)
    }

    /// Phase rotation diag(1, e^{i theta}).
    pub fn phase(&self, q: &Qubit, theta: f64) -> Result<()> {
        self.apply(Gate::Phase(theta), q)
    }

    /// Local CNOT (both qubits on this rank).
    pub fn cnot(&self, control: &Qubit, target: &Qubit) -> Result<()> {
        self.enqueue(BatchOp::Cnot {
            c: control.id,
            t: target.id,
        })
    }

    /// Local CZ.
    pub fn cz(&self, a: &Qubit, b: &Qubit) -> Result<()> {
        self.enqueue(BatchOp::Cz { a: a.id, b: b.id })
    }

    /// Local SWAP.
    pub fn swap(&self, a: &Qubit, b: &Qubit) -> Result<()> {
        self.enqueue(BatchOp::Swap { a: a.id, b: b.id })
    }

    /// Local Toffoli.
    pub fn toffoli(&self, c1: &Qubit, c2: &Qubit, target: &Qubit) -> Result<()> {
        self.enqueue(BatchOp::Controlled {
            controls: vec![c1.id, c2.id],
            gate: Gate::X,
            target: target.id,
        })
    }

    /// Local multi-controlled single-qubit gate.
    pub fn controlled(&self, controls: &[&Qubit], gate: Gate, target: &Qubit) -> Result<()> {
        let ids: Vec<_> = controls.iter().map(|q| q.id).collect();
        self.enqueue(BatchOp::Controlled {
            controls: ids,
            gate,
            target: target.id,
        })
    }

    /// Projective measurement; the qubit stays allocated. The one-qubit
    /// [`QmpiRank::measure_z_parity`]. A flush point.
    pub fn measure(&self, q: &Qubit) -> Result<bool> {
        self.flush()?;
        self.backend.measure_z_parity(self.rank(), &[q.id])
    }

    /// Probability of measuring |1> (non-destructive diagnostic). A flush
    /// point.
    ///
    /// A read sees the joint state at that instant: one that races a peer's
    /// measurement of an entangled qubit depends on thread order.
    pub fn prob_one(&self, q: &Qubit) -> Result<f64> {
        self.flush()?;
        self.backend.prob_one(self.rank(), q.id)
    }

    /// Local fanout (Fig. 2): allocates an auxiliary qubit and CNOTs `q`
    /// into it, producing an entangled local copy.
    pub fn fanout_local(&self, q: &Qubit) -> Result<Qubit> {
        let aux = self.alloc_one();
        self.cnot(q, &aux)?;
        Ok(aux)
    }

    /// Undoes a local fanout produced by [`QmpiRank::fanout_local`].
    pub fn unfanout_local(&self, q: &Qubit, aux: Qubit) -> Result<()> {
        self.cnot(q, &aux)?;
        self.free_qmem(aux)?;
        Ok(())
    }

    /// Local in-place joint Z-parity measurement over this rank's qubits
    /// (used by the cat-state protocol of Fig. 4). A flush point.
    pub fn measure_z_parity(&self, qubits: &[&Qubit]) -> Result<bool> {
        self.flush()?;
        let ids: Vec<_> = qubits.iter().map(|q| q.id).collect();
        self.backend.measure_z_parity(self.rank(), &ids)
    }

    /// Expectation value of a local Pauli string (diagnostic). Every qubit
    /// must be owned by this rank — reading another rank's observable
    /// without communication would break the distributed-machine model. A
    /// flush point.
    ///
    /// A read sees the joint state at that instant: one that races a peer's
    /// measurement of an entangled qubit depends on thread order.
    pub fn expectation(&self, terms: &[(&Qubit, Pauli)]) -> Result<f64> {
        self.flush()?;
        let mapped: Vec<_> = terms.iter().map(|&(q, p)| (q.id, p)).collect();
        self.backend.expectation(self.rank(), &mapped)
    }

    /// Expectation values of several local Pauli strings — one observable
    /// made of many terms — in a *single* backend acquisition.
    ///
    /// Evaluating an observable term by term through
    /// [`QmpiRank::expectation`] takes the global backend lock once per
    /// Pauli string; with 64 ranks doing the same the lock thrashes. This
    /// hoists the acquisition to once per observable, and the engine gets
    /// the whole list in one call: the dense state-vector engine reads all
    /// Z-only strings (per-site ⟨Z_i⟩, ZZ correlators) in one sweep of the
    /// amplitudes instead of one sweep each. Each value is bit-identical to
    /// the one [`QmpiRank::expectation`] returns for that string; a qubit
    /// repeated within a string is [`qsim::SimError::DuplicateQubit`].
    ///
    /// A read sees the joint state at that instant: one that races a peer's
    /// measurement of an entangled qubit depends on thread order.
    pub fn expectation_each(&self, strings: &[Vec<(&Qubit, Pauli)>]) -> Result<Vec<f64>> {
        self.flush()?;
        let mapped: Vec<Vec<(qsim::QubitId, Pauli)>> = strings
            .iter()
            .map(|terms| terms.iter().map(|&(q, p)| (q.id, p)).collect())
            .collect();
        self.backend.expectation_each(self.rank(), &mapped)
    }
}

#[cfg(test)]
mod tests {
    use crate::context::run;

    #[test]
    fn local_gates_and_measurement() {
        let out = run(1, |ctx| {
            let q = ctx.alloc_one();
            ctx.x(&q).unwrap();
            let m = ctx.measure(&q).unwrap();
            ctx.free_qmem(q).unwrap();
            m
        });
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn cross_rank_gate_rejected() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                // Tell rank 1 the raw id so it can try to touch it.
                ctx.classical().send(&q.id().0, 1, 0);
                let _ = ctx.classical().recv::<bool>(1, 1);
                ctx.free_qmem(q).unwrap();
                true
            } else {
                let (_id, _) = ctx.classical().recv::<u64>(0, 0);
                // Rank 1 cannot even name rank 0's qubit through the typed
                // API (handles are linear and unforgeable), which is the
                // point: locality is structurally enforced.
                ctx.classical().send(&true, 0, 1);
                true
            }
        });
        assert!(out[0] && out[1]);
    }

    #[test]
    fn fanout_unfanout_roundtrip() {
        let out = run(1, |ctx| {
            let q = ctx.alloc_one();
            ctx.ry(&q, 0.9).unwrap();
            let aux = ctx.fanout_local(&q).unwrap();
            // Correlated: parity even.
            let even = !ctx.measure_z_parity(&[&q, &aux]).unwrap();
            ctx.unfanout_local(&q, aux).unwrap();
            let p = ctx.prob_one(&q).unwrap();
            ctx.measure_and_free(q).unwrap();
            (even, p)
        });
        assert!(out[0].0);
        assert!((out[0].1 - (0.45f64).sin().powi(2)).abs() < 1e-9);
    }

    /// One `expectation_each` call reads each string to the bits a call of
    /// its own reads, on every engine: a 10-qubit generic-angle state (a
    /// Clifford one on the stabilizer engine) and 23 strings, 17 of them
    /// Z-only — more than the dense store reads in one sweep — and 6 not.
    #[test]
    fn expectation_each_matches_per_term_calls() {
        use crate::{run_with_config, BackendKind, QmpiConfig};
        use qsim::Pauli::{X, Y, Z};
        for kind in [
            BackendKind::StateVector,
            BackendKind::Stabilizer,
            BackendKind::Trace,
            BackendKind::Sparse,
            BackendKind::ShardedStateVector { shards: 4 },
            BackendKind::RemoteSharded { shards: 2 },
        ] {
            let config = QmpiConfig::new().seed(3).backend(kind);
            let out = run_with_config(1, config, move |ctx| {
                let q = ctx.alloc_qmem(10);
                let layer = |turn: f64| {
                    for (i, qi) in q.iter().enumerate() {
                        if kind == BackendKind::Stabilizer {
                            ctx.h(qi).unwrap();
                            if i % 3 == 1 {
                                ctx.s(qi).unwrap();
                            }
                        } else {
                            ctx.ry(qi, turn + 0.21 * i as f64).unwrap();
                            ctx.rz(qi, 1.1 - turn * i as f64).unwrap();
                        }
                    }
                };
                layer(0.3);
                for w in q.windows(2) {
                    ctx.cnot(&w[0], &w[1]).unwrap();
                }
                layer(0.7);
                let mut strings: Vec<_> = q.iter().map(|qi| vec![(qi, Z)]).collect();
                strings.push(vec![]);
                strings.push(q.iter().map(|qi| (qi, Z)).collect());
                for k in 0..5 {
                    strings.push(vec![(&q[k], Z), (&q[9 - k], Z)]);
                    strings.push(vec![(&q[k], X), (&q[k + 5], Y)]);
                }
                strings.push(vec![(&q[2], Y), (&q[3], Z), (&q[7], X)]);
                let each = ctx.expectation_each(&strings).unwrap();
                let one: Vec<f64> = strings
                    .iter()
                    .map(|s| ctx.expectation(s).unwrap())
                    .collect();
                for qi in q {
                    ctx.measure_and_free(qi).unwrap();
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (bits(&each), bits(&one), each[10])
            });
            let (each, one, identity) = &out[0];
            assert_eq!(each.len(), 23, "{kind}");
            assert_eq!(each, one, "{kind}");
            assert!((identity - 1.0).abs() < 1e-9, "{kind}: <I> = {identity}");
        }
    }

    #[test]
    fn toffoli_through_context() {
        let out = run(1, |ctx| {
            let a = ctx.alloc_one();
            let b = ctx.alloc_one();
            let t = ctx.alloc_one();
            ctx.x(&a).unwrap();
            ctx.x(&b).unwrap();
            ctx.toffoli(&a, &b, &t).unwrap();
            let m = ctx.measure(&t).unwrap();
            for q in [a, b, t] {
                ctx.measure_and_free(q).unwrap();
            }
            m
        });
        assert_eq!(out, vec![true]);
    }
}
