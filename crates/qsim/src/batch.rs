//! The batched gate-stream IR.
//!
//! QMPI's performance model bills per communication *round*, not per gate:
//! a distributed backend that pays one lock acquisition — or, for the
//! process-separated engine, one full controller→worker→controller message
//! round — per gate leaves an order of magnitude on the table. A
//! [`GateBatch`] is the intermediate representation that fixes this: a
//! recorded sequence of gate operations ([`BatchOp`]) that flows from the
//! per-rank gate calls down through every engine as *one* unit.
//!
//! The IR deliberately covers only the unitary gate stream. Everything
//! that observes or restructures the state — measurement, probability
//! queries, expectation values, allocation, EPR establishment — is a
//! *flush point*: the pending batch must be applied first, so the sequence
//! of amplitude operations (and the order of noise-RNG draws) is identical
//! to the eager, gate-at-a-time path. That identity is what keeps batched
//! and unbatched runs bit-identical per seed on every engine.

use crate::complex::Complex;
use crate::gates::{Gate, Mat2};
use crate::sim::{QubitId, SimError};
use crate::stabilizer::{check_clifford, check_clifford_sweep};

/// One recorded gate operation in a [`GateBatch`].
#[derive(Clone, Debug, PartialEq)]
pub enum BatchOp {
    /// Single-qubit gate.
    Gate {
        /// The gate.
        gate: Gate,
        /// Target qubit.
        q: QubitId,
    },
    /// Multi-controlled single-qubit gate.
    Controlled {
        /// Control qubits (all must read 1).
        controls: Vec<QubitId>,
        /// The gate applied to the target.
        gate: Gate,
        /// Target qubit.
        target: QubitId,
    },
    /// CNOT.
    Cnot {
        /// Control qubit.
        c: QubitId,
        /// Target qubit.
        t: QubitId,
    },
    /// CZ (symmetric).
    Cz {
        /// First qubit.
        a: QubitId,
        /// Second qubit.
        b: QubitId,
    },
    /// SWAP.
    Swap {
        /// First qubit.
        a: QubitId,
        /// Second qubit.
        b: QubitId,
    },
    /// A run of adjacent single-qubit gates on one qubit, pre-multiplied
    /// into a single 2×2 unitary by the plan-time optimizer
    /// ([`crate::optimizer`]). Engines apply it as one kernel sweep instead
    /// of one per constituent gate; it counts as *one* gate everywhere.
    Fused1q {
        /// Target qubit.
        q: QubitId,
        /// The product of the run's gate matrices (last gate leftmost).
        m: Mat2,
    },
    /// A merged sweep of commuting diagonal operations (Z/S/T/Rz/Phase
    /// factors, the same factors read through CNOT ladders, and CZ sign
    /// flips), produced by the plan-time optimizer.
    ///
    /// A factor reads the *parity* of a set of qubits: `(set, d0, d1)`
    /// applies `d1` to the basis states where an odd number of the set's
    /// qubits read 1 and `d0` elsewhere. Bit `i` of `set` names
    /// `qubits[i]`, so no factor owns an allocation; a one-qubit set is a
    /// plain single-qubit diagonal gate, and `CNOT(a,b)·Rz(b)·CNOT(a,b)` is
    /// the one factor on `{a, b}`.
    ///
    /// Semantics are fixed exactly so every engine lands on the same bits:
    /// per amplitude, the selected entries of `diags` are multiplied
    /// together left to right in `diags` order (the first one starts the
    /// product; there is no leading 1), the amplitude is multiplied by that
    /// product once, and it is then negated when an odd number of `czs`
    /// pairs have both qubits set. Sign flips are exact, so the
    /// product-first association and the factor *order* are the only FP
    /// degrees of freedom — and both are preserved end to end, including
    /// across the process-separated engine's wire format.
    PhaseSweep {
        /// The qubits the factors read, each listed once (at most 64 can be
        /// named by a factor).
        qubits: Vec<QubitId>,
        /// Diagonal factors in merge order: `(set, factor-at-even-parity,
        /// factor-at-odd-parity)`, `set` a bit mask over `qubits`.
        diags: Vec<SweepFactor>,
        /// CZ sign flips (order-insensitive: negation is exact).
        czs: Vec<(QubitId, QubitId)>,
    },
}

/// One diagonal factor of a [`BatchOp::PhaseSweep`]: `(set, d0, d1)`, where
/// bit `i` of `set` names the sweep's `i`-th listed qubit (or, once a
/// simulator front has resolved them, its `i`-th store position).
pub type SweepFactor = (u64, Complex, Complex);

/// The entries of a sweep's qubit (or position) list that a factor's `set`
/// names.
pub fn named<T>(set: u64, listed: &[T]) -> impl Iterator<Item = &T> {
    let listed = listed.iter().take(64).enumerate();
    listed
        .filter(move |(i, _)| set >> i & 1 == 1)
        .map(|(_, x)| x)
}

/// The structural error in a [`BatchOp::PhaseSweep`]'s operands, if any: a
/// qubit listed twice (a parity set naming both would silently cancel it), a
/// CZ of a qubit with itself, or a factor naming a qubit past the list.
fn check_sweep(
    qubits: &[QubitId],
    diags: &[SweepFactor],
    czs: &[(QubitId, QubitId)],
) -> Result<(), SimError> {
    if let Some(i) = (1..qubits.len()).find(|&i| qubits[..i].contains(&qubits[i])) {
        return Err(SimError::DuplicateQubit(qubits[i]));
    }
    if let Some(&(a, _)) = czs.iter().find(|(a, b)| a == b) {
        return Err(SimError::DuplicateQubit(a));
    }
    let listed = 1u64
        .checked_shl(qubits.len() as u32)
        .map_or(u64::MAX, |bit| bit - 1);
    if diags.iter().any(|d| d.0 & !listed != 0) {
        return Err(SimError::Unsupported(
            "phase-sweep factor names a qubit past the sweep's list".into(),
        ));
    }
    Ok(())
}

/// Resolves a [`BatchOp::PhaseSweep`]'s operands to store positions through
/// `pos`, for the simulator fronts: the listed qubits' positions (what the
/// factor sets index from here on), the CZ pairs as positions, and every
/// touched position once — the sites a noise channel rides on. Fails on the
/// errors [`BatchOp::validate`] reports and on whatever `pos` rejects.
#[allow(clippy::type_complexity)]
pub fn sweep_positions(
    qubits: &[QubitId],
    diags: &[SweepFactor],
    czs: &[(QubitId, QubitId)],
    pos: impl Fn(QubitId) -> Result<usize, SimError>,
) -> Result<(Vec<usize>, Vec<(usize, usize)>, Vec<usize>), SimError> {
    check_sweep(qubits, diags, czs)?;
    let positions = qubits
        .iter()
        .map(|&q| pos(q))
        .collect::<Result<Vec<_>, _>>()?;
    let mut touched = positions.clone();
    let mut flips = Vec::with_capacity(czs.len());
    for &(a, b) in czs {
        let pair = (pos(a)?, pos(b)?);
        flips.push(pair);
        for p in [pair.0, pair.1] {
            if !touched.contains(&p) {
                touched.push(p);
            }
        }
    }
    Ok((positions, flips, touched))
}

impl BatchOp {
    /// Visits every qubit the operation touches, in a fixed order
    /// (controls before target), without allocating. Locality wrappers use
    /// this to run their ownership checks once per batch instead of once
    /// per gate call — on the flush hot path, so no per-op `Vec`s.
    pub fn for_each_qubit(&self, mut f: impl FnMut(QubitId)) {
        match self {
            BatchOp::Gate { q, .. } => f(*q),
            BatchOp::Controlled {
                controls, target, ..
            } => {
                for &c in controls {
                    f(c);
                }
                f(*target);
            }
            BatchOp::Cnot { c, t } => {
                f(*c);
                f(*t);
            }
            BatchOp::Cz { a, b } | BatchOp::Swap { a, b } => {
                f(*a);
                f(*b);
            }
            BatchOp::Fused1q { q, .. } => f(*q),
            BatchOp::PhaseSweep { qubits, czs, .. } => {
                for &q in qubits {
                    f(q);
                }
                for &(a, b) in czs {
                    f(a);
                    f(b);
                }
            }
        }
    }

    /// Whether the op stays inside the Clifford group — and, equivalently,
    /// whether the stabilizer tableau can realize it: the tableau's own
    /// rule (its [`crate::AmpStore::check_1q`] and
    /// [`crate::AmpStore::check_sweep`]), so a recorded op and the store it
    /// reaches cannot disagree. CNOT/CZ/SWAP always qualify; a
    /// `Controlled` op only as a single-control X, Y or Z (a multi-controlled
    /// gate like Toffoli is genuinely outside the group). Used to keep
    /// non-Clifford rejection *eager* on the stabilizer backend even when
    /// batching.
    pub fn is_clifford(&self) -> bool {
        match self {
            BatchOp::Gate { gate, .. } => gate.is_clifford(),
            BatchOp::Controlled { controls, gate, .. } => {
                check_clifford(controls.len(), &gate.matrix()).is_ok()
            }
            BatchOp::Cnot { .. } | BatchOp::Cz { .. } | BatchOp::Swap { .. } => true,
            BatchOp::Fused1q { m, .. } => check_clifford(0, m).is_ok(),
            BatchOp::PhaseSweep { diags, .. } => check_clifford_sweep(diags).is_ok(),
        }
    }

    /// The structural error the op would raise on any engine, checked
    /// *without* engine state: duplicate qubits in a CNOT/CZ, a control
    /// equal to its target, or a malformed sweep. The batching layer runs
    /// this at record time so
    /// these errors surface at the gate call site, exactly like the eager
    /// path — not at an arbitrary later flush point. (`Swap { a, a }` is a
    /// legal no-op everywhere, so it passes.)
    pub fn validate(&self) -> Result<(), SimError> {
        match self {
            BatchOp::Cnot { c: a, t: b } | BatchOp::Cz { a, b } if a == b => {
                Err(SimError::DuplicateQubit(*a))
            }
            BatchOp::Controlled {
                controls, target, ..
            } if controls.contains(target) => Err(SimError::DuplicateQubit(*target)),
            BatchOp::PhaseSweep { qubits, diags, czs } => check_sweep(qubits, diags, czs),
            _ => Ok(()),
        }
    }

    /// Approximate in-memory footprint of the op (stack slot plus owned
    /// heap), used by the flush byte budget
    /// (`qmpi::BatchPolicy::max_bytes`). An estimate, not an accounting —
    /// the budget bounds the memory a long measurement-free gate storm can
    /// pin, it does not meter allocations.
    fn approx_bytes(&self) -> usize {
        let heap = match self {
            BatchOp::Controlled { controls, .. } => std::mem::size_of_val(controls.as_slice()),
            BatchOp::PhaseSweep { qubits, diags, czs } => {
                std::mem::size_of_val(qubits.as_slice())
                    + std::mem::size_of_val(diags.as_slice())
                    + std::mem::size_of_val(czs.as_slice())
            }
            _ => 0,
        };
        std::mem::size_of::<BatchOp>() + heap
    }
}

/// A recorded stream of gate operations, applied as one unit.
///
/// Built by one rank's gate calls (which record instead of dispatching)
/// and handed whole to the engines' `apply_batch`; nothing joins batches. The batch carries
/// program order: engines must apply `ops()` front to back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateBatch {
    ops: Vec<BatchOp>,
    /// Running [`BatchOp::approx_bytes`] total, maintained on push so the
    /// flush byte budget is O(1) to consult.
    approx_bytes: usize,
}

impl GateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        GateBatch::default()
    }

    /// Appends one operation.
    pub fn push(&mut self, op: BatchOp) {
        self.approx_bytes += op.approx_bytes();
        self.ops.push(op);
    }

    /// The recorded operations, in program order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Consumes the batch into its operations, in program order (the
    /// optimizer's entry point).
    pub fn into_ops(self) -> Vec<BatchOp> {
        self.ops
    }

    /// Approximate memory pinned by the recorded ops (each op's stack slot
    /// plus its owned heap), consulted by the flush byte budget.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Moves the recorded ops out, leaving the batch empty (the flush
    /// primitive: the caller applies the returned batch while new gates can
    /// keep accumulating).
    pub fn take(&mut self) -> GateBatch {
        GateBatch {
            ops: std::mem::take(&mut self.ops),
            approx_bytes: std::mem::take(&mut self.approx_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every qubit `op` touches, in [`BatchOp::for_each_qubit`] order.
    fn qubits(op: &BatchOp) -> Vec<QubitId> {
        let mut qs = Vec::new();
        op.for_each_qubit(|q| qs.push(q));
        qs
    }

    #[test]
    fn qubits_cover_all_operands_in_order() {
        let q = |i: u64| QubitId(i);
        assert_eq!(
            qubits(&BatchOp::Gate {
                gate: Gate::H,
                q: q(3)
            }),
            vec![q(3)]
        );
        assert_eq!(
            qubits(&BatchOp::Controlled {
                controls: vec![q(1), q(2)],
                gate: Gate::X,
                target: q(0)
            }),
            vec![q(1), q(2), q(0)]
        );
        assert_eq!(
            qubits(&BatchOp::Cnot { c: q(5), t: q(6) }),
            vec![q(5), q(6)]
        );
        assert_eq!(
            qubits(&BatchOp::Swap { a: q(7), b: q(8) }),
            vec![q(7), q(8)]
        );
    }

    #[test]
    fn clifford_classification_follows_the_gate() {
        let q = QubitId(0);
        assert!(BatchOp::Gate { gate: Gate::S, q }.is_clifford());
        assert!(!BatchOp::Gate { gate: Gate::T, q }.is_clifford());
        assert!(BatchOp::Cnot {
            c: q,
            t: QubitId(1)
        }
        .is_clifford());
        assert!(!BatchOp::Controlled {
            controls: vec![q],
            gate: Gate::Rz(0.1),
            target: QubitId(1)
        }
        .is_clifford());
        let t = Gate::T.matrix();
        assert!(BatchOp::Fused1q {
            q,
            m: crate::gates::matmul2(&t, &t)
        }
        .is_clifford());
        assert!(!BatchOp::PhaseSweep {
            qubits: vec![q],
            diags: vec![(1, t[0][0], t[1][1])],
            czs: vec![]
        }
        .is_clifford());
    }

    #[test]
    fn take_drains_preserving_order() {
        let mut b = GateBatch::new();
        b.push(BatchOp::Gate {
            gate: Gate::H,
            q: QubitId(0),
        });
        b.push(BatchOp::Cz {
            a: QubitId(0),
            b: QubitId(1),
        });
        assert_eq!(b.len(), 2);
        let taken = b.take();
        assert!(b.is_empty());
        assert_eq!(taken.len(), 2);
        assert!(matches!(taken.ops()[0], BatchOp::Gate { .. }));
        assert!(matches!(taken.ops()[1], BatchOp::Cz { .. }));
    }

    #[test]
    fn optimizer_ops_report_their_qubits_in_order() {
        let q = |i: u64| QubitId(i);
        let fused = BatchOp::Fused1q {
            q: q(4),
            m: Gate::H.matrix(),
        };
        assert_eq!(qubits(&fused), vec![q(4)]);
        let one = Complex::real(1.0);
        let sweep = |qubits: Vec<QubitId>, sets: &[u64], czs: Vec<(QubitId, QubitId)>| {
            BatchOp::PhaseSweep {
                qubits,
                diags: sets.iter().map(|&set| (set, one, one)).collect(),
                czs,
            }
        };
        let good = sweep(vec![q(2), q(5)], &[0b01, 0b11, 0], vec![(q(1), q(3))]);
        assert_eq!(qubits(&good), vec![q(2), q(5), q(1), q(3)]);
        // Unit factors are the identity on every parity: Clifford.
        assert!(good.is_clifford());
        assert!(good.validate().is_ok());
        assert_eq!(
            sweep(vec![], &[], vec![(q(1), q(1))]).validate(),
            Err(SimError::DuplicateQubit(q(1)))
        );
        // A qubit listed twice would cancel out of any set naming both.
        assert_eq!(
            sweep(vec![q(2), q(5), q(2)], &[0b101], vec![]).validate(),
            Err(SimError::DuplicateQubit(q(2)))
        );
        assert!(matches!(
            sweep(vec![q(2), q(5)], &[0b100], vec![]).validate(),
            Err(SimError::Unsupported(_))
        ));
    }

    #[test]
    fn sweep_positions_lists_every_touched_position_once() {
        let q = |i: u64| QubitId(i);
        let one = Complex::real(1.0);
        let pos = |id: QubitId| match id.0 {
            9 => Err(SimError::UnknownQubit(id)),
            i => Ok(10 + i as usize),
        };
        let diags = [(0b01, one, one), (0b11, one, one), (0b01, one, one)];
        let czs = [(q(5), q(1)), (q(3), q(1))];
        let (positions, flips, touched) =
            sweep_positions(&[q(2), q(5)], &diags, &czs, pos).unwrap();
        assert_eq!(positions, vec![12, 15]);
        assert_eq!(flips, vec![(15, 11), (13, 11)]);
        assert_eq!(touched, vec![12, 15, 11, 13]);
        assert_eq!(
            sweep_positions(&[q(2)], &diags[..1], &[(q(9), q(1))], pos),
            Err(SimError::UnknownQubit(q(9)))
        );
        assert_eq!(
            sweep_positions(&[q(2), q(2)], &diags[..1], &[], pos),
            Err(SimError::DuplicateQubit(q(2)))
        );
    }

    #[test]
    fn approx_bytes_accumulates_and_drains_with_take() {
        let mut b = GateBatch::new();
        assert_eq!(b.approx_bytes(), 0);
        b.push(BatchOp::Gate {
            gate: Gate::H,
            q: QubitId(0),
        });
        let one_op = b.approx_bytes();
        assert!(one_op >= std::mem::size_of::<BatchOp>());
        b.push(BatchOp::Controlled {
            controls: vec![QubitId(1), QubitId(2)],
            gate: Gate::X,
            target: QubitId(0),
        });
        // The controlled op's heap payload must count beyond the stack slot.
        assert!(b.approx_bytes() > one_op + std::mem::size_of::<BatchOp>());
        let taken = b.take();
        assert_eq!(b.approx_bytes(), 0);
        assert!(taken.approx_bytes() > 0);
    }
}
