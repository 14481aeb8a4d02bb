//! Plan-time gate fusion over a recorded [`GateBatch`].
//!
//! The paper's cost model bills kernel *sweeps* over huge amplitude
//! stripes, not gates: a run of k adjacent single-qubit gates on one qubit
//! costs k full passes over the state when replayed verbatim, but exactly
//! one if their 2×2 matrices are multiplied first. [`optimize`] is that
//! pass, run by the per-rank flush point on the batch it is about to
//! dispatch — after recording, before any engine sees it — in two stages:
//!
//! 1. **1q run fusion.** Adjacent single-qubit gates on the same qubit
//!    multiply into one [`BatchOp::Fused1q`] kernel. A pending run that is
//!    diagonal commutes exactly past CNOT controls, CZ operands, and
//!    `Controlled` controls (those ops never change the bit the factor
//!    reads), so runs survive across interleaved 2q traffic; non-diagonal
//!    runs flush at the first 2q op that touches their qubit. Length-1
//!    runs re-emit the original op verbatim.
//! 2. **Phase-sweep merging.** Diagonal items — diagonal gates, diagonal
//!    fused runs, CZs — *and the CNOTs around them* collect into one
//!    [`BatchOp::PhaseSweep`], a single pass applying every factor and sign
//!    flip at once. The open sweep is a diagonal `D`, written in the basis
//!    the sweep opened in, followed by a linear map `L`, the product of the
//!    CNOTs absorbed so far:
//!    * **the frame** records `L` as, per qubit, the set of input qubits
//!      whose parity that qubit reads after `L`; `Cnot { c, t }` is
//!      `frame[t] ^= frame[c]`;
//!    * a diagonal item on `q` arriving after `L` equals the same factors on
//!      the parity `frame[q]` applied *before* `L` — a diagonal pulled in
//!      front of a linear map is the diagonal of the map's pre-image — so it
//!      joins `D` as a factor on that set;
//!    * **the stack** holds the CNOTs of `L` not yet cancelled, in order; a
//!      CNOT equal to the top pops it (CNOT² = I exactly);
//!    * **on close** the sweep emits `D` as one `PhaseSweep` and then the
//!      stack in order, which is `L·D`: the unitary of everything absorbed.
//!
//!    So `Cnot(a,b) Rz(b) Cnot(a,b)` is one factor on `{a, b}` with nothing
//!    left on the stack, a rank's whole TFIM ladder is one sweep of
//!    `sites − 1` factors, a Jordan–Wigner string `C01 C12 C23 Rz3 C23 C12
//!    C01` is one factor on four qubits, and a CNOT with no partner is
//!    emitted once, after the sweep.
//!    **The close rule**: while `L = I`, an op closes the sweep only if it
//!    changes a bit some factor or CZ of `D` reads (everything else
//!    commutes with a diagonal and passes in front); while CNOTs are held,
//!    any op other than a diagonal item or a CNOT that touches a qubit of
//!    the sweep closes it, since it would have to commute with `L` too. A CZ
//!    of a qubit a held CNOT has moved closes the sweep (in front of `L` it
//!    is a product of parity factors the IR's pairs do not spell). CZ pairs
//!    cancel in parity (CZ² = I exactly), exact-identity factors drop, and
//!    a sweep whose one item reads its qubit unmoved re-emits it verbatim.
//!    Every absorbed CNOT comes out at most once and every run of diagonal
//!    items as at most one op, so output never has more ops than input.
//!
//! The pass reorders and re-associates floating-point products, so a
//! fused stream is *not* bit-identical to its eager expansion (H·H ≠ I at
//! the last ulp); it is equivalent to ~1e-12, and exactly equal on
//! permutation/phase circuits (X/Z/S/CNOT/CZ/SWAP) where every factor is
//! exact. Cross-*backend* bit-identity is preserved because every engine
//! executes the same optimized batch with the same per-amplitude
//! arithmetic. The caller is responsible for the fusion barriers the IR
//! cannot see: the pass must not run under a non-ideal noise model (it
//! reorders noise-injection sites) or for engines without amplitude
//! kernels (stabilizer, trace) — `qmpi`'s flush point gates on both.

use crate::batch::{BatchOp, GateBatch, SweepFactor};
use crate::complex::{Complex, C_ONE, C_ZERO};
use crate::gates::{matmul2, Mat2};
use crate::sim::QubitId;

/// Whether `m` is exactly diagonal. The optimizer treats only *exact*
/// zeros as structural (products of exactly-diagonal factors keep exact
/// zeros off-diagonal), so no tolerance is involved and every backend
/// classifies identically.
fn is_diag_mat(m: &Mat2) -> bool {
    m[0][1] == C_ZERO && m[1][0] == C_ZERO
}

/// A pending fusion run: adjacent 1q gates on `q`, accumulated as one
/// matrix product. `first` is the op that opened the run, re-emitted
/// verbatim when nothing else joined.
struct Run {
    q: QubitId,
    m: Mat2,
    count: usize,
    first: BatchOp,
}

impl Run {
    fn emit(self) -> BatchOp {
        if self.count == 1 {
            self.first
        } else {
            BatchOp::Fused1q {
                q: self.q,
                m: self.m,
            }
        }
    }
}

/// Stage 1: multiply runs of adjacent 1q gates per qubit into single
/// [`BatchOp::Fused1q`] kernels, letting diagonal runs commute past ops
/// that do not change their qubit's bit.
fn fuse_1q_runs(ops: Vec<BatchOp>) -> Vec<BatchOp> {
    let mut out: Vec<BatchOp> = Vec::with_capacity(ops.len());
    // Insertion-ordered; linear scans are fine — a rank's live-qubit
    // working set is small, and the ops vec dominates anyway.
    let mut runs: Vec<Run> = Vec::new();

    fn flush(out: &mut Vec<BatchOp>, runs: &mut Vec<Run>, q: QubitId) {
        if let Some(i) = runs.iter().position(|r| r.q == q) {
            out.push(runs.remove(i).emit());
        }
    }
    /// True when the pending run on `q` (if any) commutes past an op that
    /// reads — but never changes — `q`'s bit.
    fn passes_as_control(runs: &[Run], q: QubitId) -> bool {
        runs.iter()
            .find(|r| r.q == q)
            .is_none_or(|r| is_diag_mat(&r.m))
    }

    for op in ops {
        match op {
            BatchOp::Gate { gate, q } => match runs.iter_mut().find(|r| r.q == q) {
                Some(r) => {
                    r.m = matmul2(&gate.matrix(), &r.m);
                    r.count += 1;
                }
                None => runs.push(Run {
                    q,
                    m: gate.matrix(),
                    count: 1,
                    first: BatchOp::Gate { gate, q },
                }),
            },
            BatchOp::Fused1q { q, m } => match runs.iter_mut().find(|r| r.q == q) {
                Some(r) => {
                    r.m = matmul2(&m, &r.m);
                    r.count += 1;
                }
                None => runs.push(Run {
                    q,
                    m,
                    count: 1,
                    first: BatchOp::Fused1q { q, m },
                }),
            },
            BatchOp::Cnot { c, t } => {
                if !passes_as_control(&runs, c) {
                    flush(&mut out, &mut runs, c);
                }
                flush(&mut out, &mut runs, t);
                out.push(BatchOp::Cnot { c, t });
            }
            BatchOp::Cz { a, b } => {
                // CZ is diagonal: diagonal runs on either operand commute.
                if !passes_as_control(&runs, a) {
                    flush(&mut out, &mut runs, a);
                }
                if !passes_as_control(&runs, b) {
                    flush(&mut out, &mut runs, b);
                }
                out.push(BatchOp::Cz { a, b });
            }
            BatchOp::Controlled {
                controls,
                gate,
                target,
            } => {
                for &c in &controls {
                    if !passes_as_control(&runs, c) {
                        flush(&mut out, &mut runs, c);
                    }
                }
                flush(&mut out, &mut runs, target);
                out.push(BatchOp::Controlled {
                    controls,
                    gate,
                    target,
                });
            }
            BatchOp::Swap { a, b } => {
                flush(&mut out, &mut runs, a);
                flush(&mut out, &mut runs, b);
                out.push(BatchOp::Swap { a, b });
            }
            BatchOp::PhaseSweep { .. } => {
                // Already-optimized input: flush everything it touches and
                // pass it through untouched.
                op.for_each_qubit(|q| flush(&mut out, &mut runs, q));
                out.push(op);
            }
        }
    }
    // Leftover runs land at batch end, in run-start order.
    for r in runs {
        out.push(r.emit());
    }
    out
}

/// Qubits one sweep's table can hold: a factor names its set as a `u64` mask
/// over the table. A sweep is closed before an op could take it past this.
const TABLE_QUBITS: usize = 64;

/// The open phase sweep being accumulated by stage 2: a diagonal `D` in the
/// basis the sweep opened in, followed by the linear map `L` of the CNOTs it
/// has absorbed and not cancelled. See the module docs.
#[derive(Default)]
struct Sweep {
    /// Every qubit an absorbed op touched; bit `i` of a set names
    /// `qubits[i]`.
    qubits: Vec<QubitId>,
    /// `frame[i]`: the set of *input* qubits whose parity `qubits[i]` reads
    /// after `L` (`{i}` itself until a CNOT targets it).
    frame: Vec<u64>,
    /// `L`: the absorbed CNOTs `(c, t)` not yet cancelled, in program order.
    stack: Vec<(QubitId, QubitId)>,
    diags: Vec<SweepFactor>,
    czs: Vec<(QubitId, QubitId)>,
    /// Input qubits some factor or CZ of `D` reads.
    reads: u64,
    /// Whether a diagonal item (a cancelled or identity one included) has
    /// been absorbed.
    absorbed: bool,
    /// The only item absorbed so far, when re-emitting it verbatim is the
    /// same as emitting the sweep.
    verbatim: Option<BatchOp>,
}

impl Sweep {
    /// `q`'s index in the table, if it is there.
    fn at(&self, q: QubitId) -> Option<usize> {
        self.qubits.iter().position(|&x| x == q)
    }

    /// `q`'s index in the table, entering it if new.
    fn index(&mut self, q: QubitId) -> usize {
        self.at(q).unwrap_or_else(|| {
            self.frame.push(1 << self.qubits.len());
            self.qubits.push(q);
            self.qubits.len() - 1
        })
    }

    /// Whether an absorbed CNOT has `q` reading anything but its own input.
    fn moved(&self, q: QubitId) -> bool {
        self.at(q).is_some_and(|i| self.frame[i] != 1 << i)
    }

    fn note(&mut self, original: BatchOp, as_is: bool) {
        self.verbatim = (!self.absorbed && as_is).then_some(original);
        self.absorbed = true;
    }

    /// A diagonal item on `q` is, in front of `L`, the same factors on the
    /// parity `q` reads through `L`.
    fn push_diag(&mut self, q: QubitId, d0: Complex, d1: Complex, original: BatchOp) {
        let i = self.index(q);
        let set = self.frame[i];
        // Exact identities (e.g. a fused Z·Z run) contribute nothing.
        if !(d0 == C_ONE && d1 == C_ONE) {
            self.diags.push((set, d0, d1));
            self.reads |= set;
        }
        self.note(original, set == 1 << i);
    }

    /// A CZ of two qubits no CNOT has moved (the caller closes the sweep
    /// otherwise).
    fn push_cz(&mut self, a: QubitId, b: QubitId) {
        self.reads |= 1 << self.index(a) | 1 << self.index(b);
        let pair = (a.min(b), a.max(b));
        // CZ² = I exactly: a repeated pair cancels instead of stacking.
        match self.czs.iter().position(|&p| p == pair) {
            Some(i) => {
                self.czs.remove(i);
            }
            None => self.czs.push(pair),
        }
        self.note(BatchOp::Cz { a, b }, true);
    }

    /// `L ← CNOT·L`: the target now reads its parity XOR the control's, and
    /// a CNOT equal to the last uncancelled one undoes it.
    fn push_cnot(&mut self, c: QubitId, t: QubitId) {
        let (ci, ti) = (self.index(c), self.index(t));
        self.frame[ti] ^= self.frame[ci];
        if self.stack.last() == Some(&(c, t)) {
            self.stack.pop();
        } else {
            self.stack.push((c, t));
        }
    }

    /// Whether `op` (not a diagonal item, not a CNOT) has to come after the
    /// sweep. With `L` pending it must commute with `L` and `D` alike, so
    /// touching any table qubit blocks; with `L = I` only changing a bit
    /// `D` reads does.
    fn blocks(&self, op: &BatchOp) -> bool {
        let mut hit = false;
        if !self.stack.is_empty() {
            op.for_each_qubit(|q| hit |= self.at(q).is_some());
            return hit;
        }
        let mut mixes = |q: QubitId| hit |= self.at(q).is_some_and(|i| self.reads >> i & 1 == 1);
        match op {
            BatchOp::Gate { q, .. } | BatchOp::Fused1q { q, .. } => mixes(*q),
            // A controlled *diagonal* gate is itself diagonal and commutes;
            // otherwise only the target's bit changes.
            BatchOp::Controlled { gate, target, .. } if !gate.is_diagonal() => mixes(*target),
            BatchOp::Cnot { t, .. } => mixes(*t),
            BatchOp::Swap { a, b } => {
                mixes(*a);
                mixes(*b);
            }
            BatchOp::Controlled { .. } | BatchOp::Cz { .. } | BatchOp::PhaseSweep { .. } => {}
        }
        hit
    }

    /// Emits `D`, then `L`, and empties the sweep.
    fn close(&mut self, out: &mut Vec<BatchOp>) {
        let sweep = std::mem::take(self);
        match sweep.verbatim {
            // Everything cancelled (CZ pairs) or was an exact identity.
            _ if sweep.diags.is_empty() && sweep.czs.is_empty() => {}
            Some(only) => out.push(only),
            None => out.push(BatchOp::PhaseSweep {
                qubits: sweep.qubits,
                diags: sweep.diags,
                czs: sweep.czs,
            }),
        }
        out.extend(sweep.stack.iter().map(|&(c, t)| BatchOp::Cnot { c, t }));
    }
}

/// Stage 2: collect runs of diagonal items, and the CNOTs around them, into
/// single [`BatchOp::PhaseSweep`] passes.
fn merge_phase_sweeps(ops: Vec<BatchOp>) -> Vec<BatchOp> {
    let mut out: Vec<BatchOp> = Vec::with_capacity(ops.len());
    let mut sweep = Sweep::default();

    for op in ops {
        // Every op absorbed below enters at most two qubits.
        if sweep.qubits.len() + 2 > TABLE_QUBITS {
            sweep.close(&mut out);
        }
        match op {
            BatchOp::Gate { gate, q } if gate.is_diagonal() => {
                let m = gate.matrix();
                sweep.push_diag(q, m[0][0], m[1][1], BatchOp::Gate { gate, q });
            }
            BatchOp::Fused1q { q, m } if is_diag_mat(&m) => {
                sweep.push_diag(q, m[0][0], m[1][1], BatchOp::Fused1q { q, m });
            }
            BatchOp::Cz { a, b } if a != b => {
                // In front of `L` a CZ of a moved qubit is a product of
                // parity terms, which the IR's pairs do not spell.
                if sweep.moved(a) || sweep.moved(b) {
                    sweep.close(&mut out);
                }
                sweep.push_cz(a, b);
            }
            BatchOp::Cnot { c, t } if c != t => sweep.push_cnot(c, t),
            // Everything else (a pre-merged sweep and the malformed pairs
            // an engine will reject included) passes in front of the sweep
            // if it commutes with it and closes it if not.
            op => {
                if sweep.blocks(&op) {
                    sweep.close(&mut out);
                }
                out.push(op);
            }
        }
    }
    sweep.close(&mut out);
    out
}

/// Runs the full plan-time pass: 1q run fusion, then phase-sweep merging.
///
/// The result applies the same unitary as `batch` (to FP re-association;
/// see the module docs for the exactness contract) with at most as many —
/// typically far fewer — kernel sweeps. Must only be called under the
/// fusion barriers the caller enforces: ideal noise model, an engine that
/// does not count the recorded stream (every engine but the trace one), and
/// never across measurements/ownership changes (those are
/// flush points, so they cannot appear inside one batch by construction).
pub fn optimize(batch: GateBatch) -> GateBatch {
    let ops = merge_phase_sweeps(fuse_1q_runs(batch.into_ops()));
    let mut out = GateBatch::new();
    for op in ops {
        out.push(op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::Gate;

    fn q(i: u64) -> QubitId {
        QubitId(i)
    }

    fn gate(g: Gate, t: u64) -> BatchOp {
        BatchOp::Gate { gate: g, q: q(t) }
    }

    fn optimize_ops(ops: Vec<BatchOp>) -> Vec<BatchOp> {
        let mut b = GateBatch::new();
        for op in ops {
            b.push(op);
        }
        optimize(b).into_ops()
    }

    fn cnot(c: u64, t: u64) -> BatchOp {
        BatchOp::Cnot { c: q(c), t: q(t) }
    }

    /// The lone [`BatchOp::PhaseSweep`] in `out[at]`, its sets spelled as
    /// qubit ids.
    #[allow(clippy::type_complexity)]
    fn sweep_at(out: &[BatchOp], at: usize) -> (Vec<Vec<u64>>, Vec<(QubitId, QubitId)>) {
        let BatchOp::PhaseSweep { qubits, diags, czs } = &out[at] else {
            panic!("expected a sweep at {at}, got {out:?}");
        };
        let ids = |&(set, ..): &SweepFactor| {
            let mut ids: Vec<u64> = crate::batch::named(set, qubits).map(|q| q.0).collect();
            ids.sort_unstable();
            ids
        };
        (diags.iter().map(ids).collect(), czs.clone())
    }

    /// The state `ops` leave `n` qubits in, from a product state of generic
    /// angles, through the simulator front (one method per op kind).
    fn run(n: usize, ops: &[BatchOp]) -> crate::State {
        let mut sim = crate::Simulator::new(1);
        let qs = sim.alloc_n(n);
        for (i, &qi) in qs.iter().enumerate() {
            sim.apply(Gate::Ry(0.4 + 0.3 * i as f64), qi).unwrap();
            sim.apply(Gate::Rz(1.1 - 0.2 * i as f64), qi).unwrap();
        }
        for op in ops {
            match op {
                BatchOp::Gate { gate, q } => sim.apply(*gate, *q),
                BatchOp::Controlled {
                    controls,
                    gate,
                    target,
                } => sim.apply_controlled(controls, *gate, *target),
                BatchOp::Cnot { c, t } => sim.cnot(*c, *t),
                BatchOp::Cz { a, b } => sim.cz(*a, *b),
                BatchOp::Swap { a, b } => sim.swap(*a, *b),
                BatchOp::Fused1q { q, m } => sim.apply_fused_1q(*q, m),
                BatchOp::PhaseSweep { qubits, diags, czs } => {
                    sim.apply_phase_sweep(qubits, diags, czs)
                }
            }
            .unwrap();
        }
        sim.state_vector(&qs).unwrap()
    }

    /// Optimizes `ops`, checks the result never grew and applies the same
    /// unitary to 1e-12, and returns it.
    fn optimize_checked(n: usize, ops: Vec<BatchOp>) -> Vec<BatchOp> {
        let out = optimize_ops(ops.clone());
        assert!(out.len() <= ops.len(), "optimizer grew the stream: {out:?}");
        let (want, got) = (run(n, &ops), run(n, &out));
        for (i, (w, g)) in want.amplitudes().iter().zip(got.amplitudes()).enumerate() {
            assert!(
                w.approx_eq(*g, 1e-12),
                "amp[{i}]: {w:?} vs {g:?} for {out:?}"
            );
        }
        out
    }

    #[test]
    fn append_preserves_per_segment_fusion_boundaries() {
        // Two ranks each end their (optimized) flush with an H run on
        // their own qubit; naive re-optimization of the concatenation
        // would be a no-op here, but on a *shared-order* stream ending in
        // H,H on the same qubit it would cancel the pair. Build exactly
        // that hazard: flush A ends with H(0), flush B begins with H(0) —
        // legal only because the coalesce window never interleaves a qubit
        // across ranks in practice, but the join must not fuse across the
        // seam regardless.
        let mut a = GateBatch::new();
        a.push(gate(Gate::H, 0));
        let mut b = GateBatch::new();
        b.push(gate(Gate::H, 0));
        b.push(gate(Gate::T, 1));
        let mut merged = a.clone();
        merged.append(b.clone());
        // Pure concatenation: both H ops survive verbatim, in order.
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.ops()[0], gate(Gate::H, 0));
        assert_eq!(merged.ops()[1], gate(Gate::H, 0));
        assert_eq!(merged.ops()[2], gate(Gate::T, 1));
        // Contrast: optimizing the same stream as one batch drops the pair.
        let fused = optimize(merged.clone());
        assert!(fused.len() < merged.len());
        assert_eq!(
            merged.approx_bytes(),
            a.approx_bytes() + b.approx_bytes(),
            "byte accounting must survive concatenation"
        );
    }

    #[test]
    fn adjacent_1q_gates_fuse_into_one_kernel() {
        let out = optimize_ops(vec![
            gate(Gate::H, 0),
            gate(Gate::Ry(0.3), 0),
            gate(Gate::H, 0),
        ]);
        assert_eq!(out.len(), 1);
        let BatchOp::Fused1q { q: tq, m } = &out[0] else {
            panic!("expected a fused kernel, got {out:?}");
        };
        assert_eq!(*tq, q(0));
        let want = matmul2(
            &Gate::H.matrix(),
            &matmul2(&Gate::Ry(0.3).matrix(), &Gate::H.matrix()),
        );
        assert_eq!(*m, want);
    }

    #[test]
    fn singleton_runs_re_emit_the_original_op() {
        let out = optimize_ops(vec![gate(Gate::H, 0), gate(Gate::H, 1)]);
        assert_eq!(
            out,
            vec![gate(Gate::H, 0), gate(Gate::H, 1)],
            "lone gates must pass through verbatim"
        );
    }

    #[test]
    fn non_diagonal_run_flushes_at_a_touching_cnot() {
        let out = optimize_ops(vec![
            gate(Gate::H, 0),
            gate(Gate::Ry(0.3), 0),
            BatchOp::Cnot { c: q(0), t: q(1) },
            gate(Gate::H, 0),
        ]);
        // Ry·H is not diagonal, so the run flushes (fused) before the
        // CNOT that reads qubit 0; the trailing H stays a lone verbatim
        // gate.
        assert!(matches!(out[0], BatchOp::Fused1q { .. }));
        assert!(matches!(out[1], BatchOp::Cnot { .. }));
        assert_eq!(out[2], gate(Gate::H, 0));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn diagonal_run_commutes_past_cnot_control_and_keeps_fusing() {
        let out = optimize_checked(2, vec![gate(Gate::T, 0), cnot(0, 1), gate(Gate::T, 0)]);
        // T commutes past the control, meets the second T, and the fused
        // T·T (diagonal) is the one item of a sweep that had absorbed the
        // CNOT: the control's parity is untouched, so the sweep re-emits the
        // run verbatim, in front of the CNOT it holds.
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], BatchOp::Fused1q { .. }));
        assert_eq!(out[1], cnot(0, 1));
    }

    #[test]
    fn diagonal_gates_and_czs_merge_into_one_sweep() {
        let out = optimize_ops(vec![
            gate(Gate::T, 0),
            BatchOp::Cz { a: q(1), b: q(2) },
            gate(Gate::Rz(0.7), 3),
            gate(Gate::S, 4),
        ]);
        assert_eq!(out.len(), 1);
        let (sets, czs) = sweep_at(&out, 0);
        assert_eq!(sets, vec![vec![0], vec![3], vec![4]]);
        assert_eq!(czs, vec![(q(1), q(2))]);
    }

    #[test]
    fn repeated_cz_pairs_cancel_in_parity() {
        let out = optimize_ops(vec![
            BatchOp::Cz { a: q(0), b: q(1) },
            gate(Gate::T, 2),
            BatchOp::Cz { a: q(1), b: q(0) },
        ]);
        // The two CZs cancel exactly; only the T survives, re-emitted
        // verbatim (single absorbed op)... except the sweep absorbed three
        // ops, so it stays a sweep with the lone factor.
        assert_eq!(out.len(), 1);
        let (sets, czs) = sweep_at(&out, 0);
        assert_eq!(sets, vec![vec![2]]);
        assert!(czs.is_empty());
    }

    #[test]
    fn lone_diagonal_gate_passes_through_verbatim() {
        // Disjoint qubits so stage 1 leaves two singleton runs; the H
        // (non-diagonal, disjoint) commutes past the open T sweep, which
        // closes at batch end and re-emits its single op verbatim.
        let out = optimize_ops(vec![gate(Gate::T, 0), gate(Gate::H, 1)]);
        assert_eq!(out, vec![gate(Gate::H, 1), gate(Gate::T, 0)]);
    }

    #[test]
    fn sweep_reads_a_factor_through_an_unmatched_cnot() {
        let out = optimize_checked(
            3,
            vec![
                gate(Gate::T, 0),
                gate(Gate::T, 1),
                cnot(2, 0),
                gate(Gate::T, 0),
            ],
        );
        // The CNOT does not close the sweep: the trailing T reads the
        // parity of {0, 2} in front of it, so all three factors are one
        // sweep and the CNOT follows. 2 ops where there were 3.
        assert_eq!(out.len(), 2);
        let (sets, czs) = sweep_at(&out, 0);
        assert_eq!(sets, vec![vec![0], vec![1], vec![0, 2]]);
        assert!(czs.is_empty());
        assert_eq!(out[1], cnot(2, 0));
    }

    /// One rank's share of a TFIM Trotter step (§7.2, Listing 1): the ZZ
    /// ladder over `sites` qubits, then the transverse-field layer.
    fn tfim_step(sites: u64) -> Vec<BatchOp> {
        let mut ops = Vec::new();
        for s in 0..sites - 1 {
            ops.extend([cnot(s, s + 1), gate(Gate::Rz(0.31), s + 1), cnot(s, s + 1)]);
        }
        ops.extend((0..sites).map(|s| gate(Gate::Rx(-0.47), s)));
        ops
    }

    #[test]
    fn tfim_ladder_is_one_sweep_with_no_cnot_left() {
        let out = optimize_checked(8, tfim_step(8));
        assert_eq!(out.len(), 1 + 8);
        let (sets, _) = sweep_at(&out, 0);
        let bonds: Vec<Vec<u64>> = (0..7).map(|s| vec![s, s + 1]).collect();
        assert_eq!(sets, bonds);
        assert!(out[1..].iter().all(|op| matches!(op, BatchOp::Gate { .. })));
        // Two steps: the Rx layer closes each ladder's sweep.
        let two = [tfim_step(8), tfim_step(8)].concat();
        assert_eq!(optimize_checked(8, two).len(), 2 * (1 + 8));
    }

    #[test]
    fn jordan_wigner_ladder_is_one_factor_on_four_qubits() {
        let ladder = [cnot(0, 1), cnot(1, 2), cnot(2, 3)];
        let mut ops = ladder.to_vec();
        ops.push(gate(Gate::Rz(0.83), 3));
        ops.extend(ladder.iter().rev().cloned());
        let out = optimize_checked(4, ops);
        assert_eq!(out.len(), 1);
        assert_eq!(sweep_at(&out, 0).0, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn cnot_then_rz_with_no_partner_is_sweep_then_cnot() {
        let out = optimize_checked(2, vec![cnot(0, 1), gate(Gate::Rz(0.83), 1)]);
        assert_eq!(out.len(), 2);
        assert_eq!(sweep_at(&out, 0).0, vec![vec![0, 1]]);
        assert_eq!(out[1], cnot(0, 1));
    }

    #[test]
    fn non_diagonal_gate_on_a_moved_qubit_closes_the_sweep_before_it() {
        // (The second CNOT keeps stage 1 from fusing the H into the Rz.)
        let ops = vec![
            cnot(0, 1),
            gate(Gate::Rz(0.83), 1),
            cnot(2, 1),
            gate(Gate::H, 1),
        ];
        let out = optimize_checked(3, ops);
        assert_eq!(out.len(), 4);
        assert_eq!(sweep_at(&out, 0).0, vec![vec![0, 1]]);
        assert_eq!(out[1..], [cnot(0, 1), cnot(2, 1), gate(Gate::H, 1)]);
        // So does one on a qubit a held CNOT only reads; an H elsewhere
        // passes in front of sweep and CNOT alike.
        let out = optimize_checked(
            3,
            vec![
                cnot(0, 1),
                gate(Gate::T, 1),
                gate(Gate::H, 2),
                gate(Gate::H, 0),
            ],
        );
        assert_eq!(out[0], gate(Gate::H, 2));
        assert_eq!(out[2..], [cnot(0, 1), gate(Gate::H, 0)]);
        // A CZ of a moved qubit closes the sweep too (here an empty one,
        // holding the CNOT) and opens the next.
        let cz = BatchOp::Cz { a: q(1), b: q(2) };
        let out = optimize_checked(3, vec![cnot(0, 1), cz, gate(Gate::T, 1)]);
        assert_eq!(out[0], cnot(0, 1));
        assert_eq!(sweep_at(&out, 1), (vec![vec![1]], vec![(q(1), q(2))]));
    }

    #[test]
    fn a_sweep_past_the_table_width_closes_and_reopens() {
        let layer: Vec<BatchOp> = (0..70).map(|i| gate(Gate::T, i)).collect();
        let out = optimize_ops(layer);
        assert_eq!(out.len(), 2);
        let named = |at| sweep_at(&out, at).0.concat();
        assert_eq!([named(0), named(1)].concat(), (0..70).collect::<Vec<_>>());
        assert!(out.iter().all(|op| op.validate().is_ok()));
    }

    #[test]
    fn fused_identity_runs_vanish() {
        let out = optimize_ops(vec![
            gate(Gate::Z, 0),
            gate(Gate::Z, 0),
            gate(Gate::X, 1),
            gate(Gate::X, 1),
        ]);
        // Z·Z = I and X·X = I exactly (0/±1 entries): both runs fuse to
        // exact identities. The diagonal one drops in stage 2; the X·X
        // identity is not diagonal-classified... it is: the product has
        // exact zeros off-diagonal, so it drops too.
        assert!(
            out.is_empty(),
            "exact identity runs must vanish, got {out:?}"
        );
    }

    #[test]
    fn disjoint_non_diagonal_ops_pass_an_open_sweep() {
        let out = optimize_ops(vec![gate(Gate::T, 0), gate(Gate::H, 1), gate(Gate::T, 2)]);
        // H on qubit 1 commutes with the diagonal sweep on {0,2}; the
        // sweep closes at batch end, after the H.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], gate(Gate::H, 1));
        assert!(matches!(out[1], BatchOp::PhaseSweep { .. }));
    }

    #[test]
    fn swap_flushes_runs_on_both_operands() {
        let out = optimize_ops(vec![
            gate(Gate::T, 0),
            gate(Gate::T, 0),
            BatchOp::Swap { a: q(0), b: q(1) },
        ]);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], BatchOp::Fused1q { .. }));
        assert!(matches!(out[1], BatchOp::Swap { .. }));
    }

    #[test]
    fn optimized_stream_never_has_more_ops_than_the_input() {
        let circuits: Vec<Vec<BatchOp>> = vec![
            vec![
                gate(Gate::H, 0),
                BatchOp::Cnot { c: q(0), t: q(1) },
                gate(Gate::T, 1),
                gate(Gate::Tdg, 1),
                BatchOp::Cz { a: q(0), b: q(1) },
            ],
            vec![
                BatchOp::Controlled {
                    controls: vec![q(0), q(1)],
                    gate: Gate::X,
                    target: q(2),
                },
                gate(Gate::Rz(0.2), 0),
                BatchOp::Swap { a: q(1), b: q(2) },
            ],
            vec![BatchOp::PhaseSweep {
                qubits: vec![q(0)],
                diags: vec![(0b1, C_ONE, C_ONE)],
                czs: vec![(q(1), q(2))],
            }],
        ];
        for ops in circuits {
            optimize_checked(3, ops);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn random_cnot_diagonal_streams_keep_their_unitary_and_never_grow(
            stream in proptest::collection::vec(
                (0usize..5, 0u64..5, 1u64..5, -3.2f64..3.2),
                0..40,
            ),
        ) {
            // `b` is an offset, so pairs are always distinct; most streams
            // leave CNOTs uncancelled (a linear map that is not the identity).
            let ops = stream.into_iter().map(|(kind, a, by, angle)| {
                let b = (a + by) % 5;
                match kind {
                    0 | 1 => cnot(a, b),
                    2 => gate(Gate::Rz(angle), a),
                    3 => gate(Gate::H, a),
                    _ => BatchOp::Cz { a: q(a), b: q(b) },
                }
            });
            optimize_checked(5, ops.collect());
        }
    }
}
