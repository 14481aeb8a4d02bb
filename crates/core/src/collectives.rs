//! Quantum collective operations (Section 4.5, Table 3) and their inverses.
//!
//! Every collective is expressed in terms of the four basic primitives of
//! Table 1 — entangled copy, move, reduce, scan — and inherits their
//! resource costs:
//!
//! | primitive | EPR pairs | classical bits | inverse EPR | inverse bits |
//! |-----------|-----------|----------------|-------------|--------------|
//! | copy      | 1         | 1              | 0           | 1            |
//! | move      | 1         | 2              | 1           | 2            |
//! | reduce    | N−1       | N−1            | 0           | N−1          |
//! | scan      | N−1       | N−1            | 0           | N−1          |
//!
//! Reductions use the linear communication schedule of Section 4.6 (one
//! output register per node, N−1 EPR pairs, classical-only uncomputation);
//! broadcast offers both the binomial-tree algorithm (`E⌈log₂N⌉` quantum
//! time, S=1) and the constant-depth cat-state algorithm of Section 7.1
//! (`2E + D_M + D_F`, S≥2).

use crate::context::{QTag, QmpiRank};
use crate::error::{QmpiError, Result};
use crate::qubit::Qubit;
use crate::reduce_ops::QuantumReduceOp;

/// Which broadcast algorithm to use (Section 7.1 trade-off).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BcastAlgorithm {
    /// Binomial tree of `QMPI_Send`/`Recv`: runtime `E⌈log₂N⌉`, needs S=1.
    #[default]
    BinomialTree,
    /// Cat-state fanout (Fig. 4): runtime `2E + D_M + D_F`, needs S≥2.
    CatState,
}

/// Handle carrying the scratch state of a chain reduction, needed by
/// `QMPI_Unreduce` ("these must be stored and managed by the implementation
/// until the inverse of the reduction is applied", Section 3).
#[derive(Debug)]
#[must_use = "an un-reduced handle leaks scratch qubits; call unreduce"]
pub struct ReduceHandle {
    tag: QTag,
    root: usize,
    /// Partial-result qubit held by chain-intermediate ranks.
    scratch: Option<Qubit>,
}

/// Handle for `QMPI_Unscan`.
#[derive(Debug)]
#[must_use = "an un-scanned handle leaks scratch qubits; call unscan"]
pub struct ScanHandle {
    tag: QTag,
}

/// Handle for `QMPI_Unexscan`.
#[derive(Debug)]
#[must_use = "call unexscan to release scratch qubits"]
pub struct ExscanHandle {
    tag: QTag,
    /// Forwarding qubit holding the inclusive prefix (ranks 0..n-1 except the last).
    scratch: Option<Qubit>,
}

/// Handle for `QMPI_Unallreduce`.
#[derive(Debug)]
#[must_use = "call unallreduce to release scratch qubits"]
pub struct AllreduceHandle {
    reduce: ReduceHandle,
    bcast_tag: QTag,
}

/// Handle for `QMPI_Unreduce_scatter_block`.
#[derive(Debug)]
#[must_use = "call unreduce_scatter_block to release scratch qubits"]
pub struct ReduceScatterHandle {
    handles: Vec<ReduceHandle>,
}

impl QmpiRank {
    // ==================================================================
    // Broadcast
    // ==================================================================

    /// QMPI_Bcast with the default (binomial tree) algorithm: fans the
    /// root's qubit value out to every rank. The root passes `Some(&qubit)`
    /// and receives `None`; every other rank receives `Some(copy)`.
    pub fn bcast(&self, qubit: Option<&Qubit>, root: usize) -> Result<Option<Qubit>> {
        self.bcast_with(BcastAlgorithm::BinomialTree, qubit, root)
    }

    /// QMPI_Bcast with an explicit algorithm choice.
    pub fn bcast_with(
        &self,
        algo: BcastAlgorithm,
        qubit: Option<&Qubit>,
        root: usize,
    ) -> Result<Option<Qubit>> {
        let n = self.size();
        if root >= n {
            return Err(QmpiError::InvalidArgument(format!(
                "bcast root {root} out of range"
            )));
        }
        if self.rank() == root && qubit.is_none() {
            return Err(QmpiError::InvalidArgument(
                "bcast root must supply the qubit".into(),
            ));
        }
        let tag = self.next_qcoll_tag();
        if n == 1 {
            return Ok(None);
        }
        match algo {
            BcastAlgorithm::BinomialTree => self.bcast_tree(qubit, root, tag),
            BcastAlgorithm::CatState => self.bcast_cat(qubit, root),
        }
    }

    fn bcast_tree(&self, qubit: Option<&Qubit>, root: usize, tag: QTag) -> Result<Option<Qubit>> {
        let n = self.size();
        let vrank = (self.rank() + n - root) % n;
        if vrank == 0 {
            // ⌈log₂ n⌉ sequential EPR rounds (each node in ≤1 establishment
            // per round).
            let mut rounds = 0usize;
            let mut s = 1usize;
            while s < n {
                rounds += 1;
                s *= 2;
            }
            for _ in 0..rounds {
                self.ledger().record_epr_round();
            }
        }
        let mut copy: Option<Qubit> = None;
        let mut step = 1usize;
        while step < n {
            if vrank < step {
                let dst_v = vrank + step;
                if dst_v < n {
                    let dst = (dst_v + root) % n;
                    let payload = if vrank == 0 {
                        qubit.expect("root qubit checked above")
                    } else {
                        copy.as_ref().expect("copy received in an earlier round")
                    };
                    self.send(payload, dst, tag)?;
                }
            } else if vrank < 2 * step && copy.is_none() {
                let src = ((vrank - step) + root) % n;
                copy = Some(self.recv(src, tag)?);
            }
            step *= 2;
        }
        if vrank == 0 {
            Ok(None)
        } else {
            Ok(Some(copy.expect("non-root rank received its copy")))
        }
    }

    fn bcast_cat(&self, qubit: Option<&Qubit>, root: usize) -> Result<Option<Qubit>> {
        let share = self.cat_establish()?;
        if self.rank() == root {
            let data = qubit.expect("root qubit checked above");
            self.cnot(data, &share)?;
            let m = self.measure_and_free(share)?;
            // The outcome bit is broadcast to every other node regardless
            // of its value: N-1 protocol bits.
            self.ledger.record_classical(self.size() as u64 - 1);
            self.proto.bcast(Some(m), root);
            Ok(None)
        } else {
            let m: bool = self.proto.bcast(None, root);
            if m {
                self.x(&share)?;
            }
            Ok(Some(share))
        }
    }

    /// QMPI_Unbcast: uncomputes the entangled copies produced by
    /// [`QmpiRank::bcast`] (either algorithm). The root passes its original
    /// qubit; every other rank passes its copy. Costs no EPR pairs — one
    /// classical bit per copy (Fig. 1b), XOR-reduced to the root.
    pub fn unbcast(
        &self,
        original: Option<&Qubit>,
        copy: Option<Qubit>,
        root: usize,
    ) -> Result<()> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let my_bit = if self.rank() == root {
            if copy.is_some() {
                return Err(QmpiError::InvalidArgument(
                    "root passes no copy to unbcast".into(),
                ));
            }
            false
        } else {
            let q = copy.ok_or_else(|| {
                QmpiError::InvalidArgument("non-root rank must pass its copy to unbcast".into())
            })?;
            self.h(&q)?;
            let m = self.measure_and_free(q)?;
            // The outcome crosses the network whatever its value.
            self.ledger.record_classical(1);
            m
        };
        let parity = self.proto.reduce(my_bit as u8, &cmpi::ops::bxor, root);
        if self.rank() == root && parity.expect("root obtains the reduction") & 1 != 0 {
            let orig = original.ok_or_else(|| {
                QmpiError::InvalidArgument("root must pass its original qubit".into())
            })?;
            self.z(orig)?;
        }
        Ok(())
    }

    // ==================================================================
    // Gather / Scatter (entangled-copy and move semantics)
    // ==================================================================

    /// QMPI_Gather: the root collects entangled copies of every rank's
    /// qubit, in rank order (the root's own slot is a local fanout).
    pub fn gather(&self, qubit: &Qubit, root: usize) -> Result<Option<Vec<Qubit>>> {
        let tag = self.next_qcoll_tag();
        if self.rank() == root {
            let mut out = Vec::with_capacity(self.size());
            for r in 0..self.size() {
                if r == root {
                    out.push(self.fanout_local(qubit)?);
                } else {
                    out.push(self.recv(r, tag)?);
                }
            }
            Ok(Some(out))
        } else {
            self.send(qubit, root, tag)?;
            Ok(None)
        }
    }

    /// QMPI_Ungather: inverse of [`QmpiRank::gather`].
    pub fn ungather(&self, qubit: &Qubit, copies: Option<Vec<Qubit>>, root: usize) -> Result<()> {
        let tag = self.next_qcoll_tag();
        if self.rank() == root {
            let copies = copies.ok_or_else(|| {
                QmpiError::InvalidArgument("root must pass the gathered copies".into())
            })?;
            if copies.len() != self.size() {
                return Err(QmpiError::InvalidArgument(
                    "gathered copy count mismatch".into(),
                ));
            }
            for (r, c) in copies.into_iter().enumerate() {
                if r == root {
                    self.unfanout_local(qubit, c)?;
                } else {
                    self.unrecv(c, r, tag)?;
                }
            }
            Ok(())
        } else {
            self.unsend(qubit, root, tag)
        }
    }

    /// QMPI_Gather_move: the root collects the actual qubits
    /// (teleportation); senders lose theirs.
    pub fn gather_move(&self, qubit: Qubit, root: usize) -> Result<Option<Vec<Qubit>>> {
        let tag = self.next_qcoll_tag();
        if self.rank() == root {
            let mut out = Vec::with_capacity(self.size());
            for r in 0..self.size() {
                if r == root {
                    // Moving to oneself is the identity.
                    out.push(Qubit::new(qubit.id()));
                } else {
                    out.push(self.recv_move(r, tag)?);
                }
            }
            // Ownership transferred into `out[root]`; the original handle
            // has no drop glue, so discarding it is a no-op.
            let _ = qubit;
            Ok(Some(out))
        } else {
            self.send_move(qubit, root, tag)?;
            Ok(None)
        }
    }

    /// QMPI_Ungather_move: returns gathered qubits to their origin ranks.
    pub fn ungather_move(&self, qubits: Option<Vec<Qubit>>, root: usize) -> Result<Qubit> {
        let tag = self.next_qcoll_tag();
        if self.rank() == root {
            let qubits = qubits.ok_or_else(|| {
                QmpiError::InvalidArgument("root must pass the gathered qubits".into())
            })?;
            if qubits.len() != self.size() {
                return Err(QmpiError::InvalidArgument(
                    "gathered qubit count mismatch".into(),
                ));
            }
            let mut own = None;
            for (r, q) in qubits.into_iter().enumerate() {
                if r == root {
                    own = Some(q);
                } else {
                    self.send_move(q, r, tag)?;
                }
            }
            Ok(own.expect("root slot"))
        } else {
            self.recv_move(root, tag)
        }
    }

    /// QMPI_Scatter: the root fans out one qubit per rank (entangled
    /// copies); the originals stay on the root.
    pub fn scatter(&self, qubits: Option<&[Qubit]>, root: usize) -> Result<Qubit> {
        let tag = self.next_qcoll_tag();
        self.scatter_tagged(qubits, root, tag)
    }

    fn scatter_tagged(&self, qubits: Option<&[Qubit]>, root: usize, tag: QTag) -> Result<Qubit> {
        if self.rank() == root {
            let qs = qubits.ok_or_else(|| {
                QmpiError::InvalidArgument("scatter root must supply the qubits".into())
            })?;
            if qs.len() != self.size() {
                return Err(QmpiError::InvalidArgument(format!(
                    "scatter needs one qubit per rank ({} != {})",
                    qs.len(),
                    self.size()
                )));
            }
            for (r, q) in qs.iter().enumerate() {
                if r != root {
                    self.send(q, r, tag)?;
                }
            }
            self.fanout_local(&qs[root])
        } else {
            self.recv(root, tag)
        }
    }

    /// QMPI_Unscatter: inverse of [`QmpiRank::scatter`].
    pub fn unscatter(&self, qubits: Option<&[Qubit]>, piece: Qubit, root: usize) -> Result<()> {
        let tag = self.next_qcoll_tag();
        self.unscatter_tagged(qubits, piece, root, tag)
    }

    fn unscatter_tagged(
        &self,
        qubits: Option<&[Qubit]>,
        piece: Qubit,
        root: usize,
        tag: QTag,
    ) -> Result<()> {
        if self.rank() == root {
            let qs = qubits.ok_or_else(|| {
                QmpiError::InvalidArgument("unscatter root must supply the qubits".into())
            })?;
            for (r, q) in qs.iter().enumerate() {
                if r != root {
                    self.unsend(q, r, tag)?;
                }
            }
            self.unfanout_local(&qs[root], piece)
        } else {
            self.unrecv(piece, root, tag)
        }
    }

    /// QMPI_Scatter_move: the root teleports one qubit to each rank,
    /// losing the originals.
    pub fn scatter_move(&self, qubits: Option<Vec<Qubit>>, root: usize) -> Result<Qubit> {
        let tag = self.next_qcoll_tag();
        self.scatter_move_tagged(qubits, root, tag)
    }

    fn scatter_move_tagged(
        &self,
        qubits: Option<Vec<Qubit>>,
        root: usize,
        tag: QTag,
    ) -> Result<Qubit> {
        if self.rank() == root {
            let qs = qubits.ok_or_else(|| {
                QmpiError::InvalidArgument("scatter_move root must supply the qubits".into())
            })?;
            if qs.len() != self.size() {
                return Err(QmpiError::InvalidArgument(
                    "scatter_move count mismatch".into(),
                ));
            }
            let mut own = None;
            for (r, q) in qs.into_iter().enumerate() {
                if r == root {
                    own = Some(q);
                } else {
                    self.send_move(q, r, tag)?;
                }
            }
            Ok(own.expect("root slot"))
        } else {
            self.recv_move(root, tag)
        }
    }

    /// QMPI_Unscatter_move: gathers the scattered qubits back to the root.
    pub fn unscatter_move(&self, piece: Qubit, root: usize) -> Result<Option<Vec<Qubit>>> {
        let tag = self.next_qcoll_tag();
        if self.rank() == root {
            let mut out = Vec::with_capacity(self.size());
            for r in 0..self.size() {
                if r == root {
                    out.push(Qubit::new(piece.id()));
                } else {
                    out.push(self.recv_move(r, tag)?);
                }
            }
            // Ownership transferred into `out[root]` (no drop glue).
            let _ = piece;
            Ok(Some(out))
        } else {
            self.send_move(piece, root, tag)?;
            Ok(None)
        }
    }

    // ==================================================================
    // Allgather / Alltoall
    // ==================================================================

    /// QMPI_Allgather: every rank ends with entangled copies of every
    /// rank's qubit (its own slot is a local fanout). Implemented as N
    /// broadcasts.
    pub fn allgather(&self, qubit: &Qubit) -> Result<Vec<Qubit>> {
        let n = self.size();
        let mut out = Vec::with_capacity(n);
        for root in 0..n {
            if self.rank() == root {
                self.bcast(Some(qubit), root)?;
                out.push(self.fanout_local(qubit)?);
            } else {
                out.push(self.bcast(None, root)?.expect("non-root copy"));
            }
        }
        Ok(out)
    }

    /// QMPI_Unallgather: inverse of [`QmpiRank::allgather`].
    pub fn unallgather(&self, qubit: &Qubit, copies: Vec<Qubit>) -> Result<()> {
        let n = self.size();
        if copies.len() != n {
            return Err(QmpiError::InvalidArgument(
                "unallgather copy count mismatch".into(),
            ));
        }
        let mut copies: Vec<Option<Qubit>> = copies.into_iter().map(Some).collect();
        for root in (0..n).rev() {
            let c = copies[root].take().expect("copy present");
            if self.rank() == root {
                self.unfanout_local(qubit, c)?;
                self.unbcast(Some(qubit), None, root)?;
            } else {
                self.unbcast(None, Some(c), root)?;
            }
        }
        Ok(())
    }

    /// QMPI_Alltoall: personalized exchange of entangled copies —
    /// `qubits[r]` is copied to rank `r`; slot `r` of the result came from
    /// rank `r`. Implemented as N scatters.
    pub fn alltoall(&self, qubits: &[Qubit]) -> Result<Vec<Qubit>> {
        let n = self.size();
        if qubits.len() != n {
            return Err(QmpiError::InvalidArgument(
                "alltoall needs one qubit per rank".into(),
            ));
        }
        let mut out = Vec::with_capacity(n);
        for root in 0..n {
            let tag = self.next_qcoll_tag();
            let arg = if self.rank() == root {
                Some(qubits)
            } else {
                None
            };
            out.push(self.scatter_tagged(arg, root, tag)?);
        }
        Ok(out)
    }

    /// QMPI_Unalltoall: inverse of [`QmpiRank::alltoall`].
    pub fn unalltoall(&self, qubits: &[Qubit], pieces: Vec<Qubit>) -> Result<()> {
        let n = self.size();
        if pieces.len() != n {
            return Err(QmpiError::InvalidArgument(
                "unalltoall piece count mismatch".into(),
            ));
        }
        let mut pieces: Vec<Option<Qubit>> = pieces.into_iter().map(Some).collect();
        for root in (0..n).rev() {
            let tag = self.next_qcoll_tag();
            let piece = pieces[root].take().expect("piece present");
            let arg = if self.rank() == root {
                Some(qubits)
            } else {
                None
            };
            self.unscatter_tagged(arg, piece, root, tag)?;
        }
        Ok(())
    }

    /// QMPI_Alltoall_move: personalized exchange with move semantics
    /// (Table 3 note (a): in-place variants use move resources).
    pub fn alltoall_move(&self, qubits: Vec<Qubit>) -> Result<Vec<Qubit>> {
        let n = self.size();
        if qubits.len() != n {
            return Err(QmpiError::InvalidArgument(
                "alltoall_move needs one qubit per rank".into(),
            ));
        }
        let mut mine = Some(qubits);
        let mut out = Vec::with_capacity(n);
        for root in 0..n {
            let tag = self.next_qcoll_tag();
            let arg = if self.rank() == root {
                mine.take()
            } else {
                None
            };
            out.push(self.scatter_move_tagged(arg, root, tag)?);
        }
        Ok(out)
    }

    // ==================================================================
    // Reduce / Scan (reversible, Section 4.6 linear schedule)
    // ==================================================================

    /// QMPI_Reduce: folds every rank's qubit into a fresh accumulator that
    /// ends on `root`, using the linear chain schedule (N−1 EPR pairs, one
    /// scratch register per intermediate node). Returns the result qubit on
    /// the root plus a [`ReduceHandle`] used by [`QmpiRank::unreduce`].
    pub fn reduce<O: QuantumReduceOp>(
        &self,
        qubit: &Qubit,
        op: &O,
        root: usize,
    ) -> Result<(Option<Qubit>, ReduceHandle)> {
        let tag = self.next_qcoll_tag();
        let n = self.size();
        if root >= n {
            return Err(QmpiError::InvalidArgument(format!(
                "reduce root {root} out of range"
            )));
        }
        if n == 1 {
            let acc = self.alloc_one();
            op.apply(self, qubit, &acc)?;
            return Ok((
                Some(acc),
                ReduceHandle {
                    tag,
                    root,
                    scratch: None,
                },
            ));
        }
        // Chain order: (root+1)%n, (root+2)%n, ..., root.
        let k = (self.rank() + n - root + n - 1) % n; // chain index
        let next = (self.rank() + 1) % n;
        let prev = (self.rank() + n - 1) % n;
        if k == 0 {
            let acc = self.alloc_one();
            op.apply(self, qubit, &acc)?;
            self.send(&acc, next, tag)?;
            Ok((
                None,
                ReduceHandle {
                    tag,
                    root,
                    scratch: Some(acc),
                },
            ))
        } else if k < n - 1 {
            let partial = self.recv(prev, tag)?;
            op.apply(self, qubit, &partial)?;
            self.send(&partial, next, tag)?;
            Ok((
                None,
                ReduceHandle {
                    tag,
                    root,
                    scratch: Some(partial),
                },
            ))
        } else {
            // This rank is the root (chain end).
            let partial = self.recv(prev, tag)?;
            op.apply(self, qubit, &partial)?;
            Ok((
                Some(partial),
                ReduceHandle {
                    tag,
                    root,
                    scratch: None,
                },
            ))
        }
    }

    /// QMPI_Unreduce: uncomputes a reduction — classical communication
    /// only (N−1 bits, zero EPR pairs). The root passes the result qubit
    /// back in; scratch registers are verified to return to |0> and freed.
    pub fn unreduce<O: QuantumReduceOp>(
        &self,
        qubit: &Qubit,
        result: Option<Qubit>,
        handle: ReduceHandle,
        op: &O,
    ) -> Result<()> {
        let ReduceHandle { tag, root, scratch } = handle;
        let n = self.size();
        if n == 1 {
            let acc = result.ok_or_else(|| {
                QmpiError::InvalidArgument("unreduce needs the result qubit".into())
            })?;
            op.unapply(self, qubit, &acc)?;
            self.free_qmem(acc)?;
            return Ok(());
        }
        let k = (self.rank() + n - root + n - 1) % n;
        let next = (self.rank() + 1) % n;
        let prev = (self.rank() + n - 1) % n;
        if k == n - 1 {
            let res = result.ok_or_else(|| {
                QmpiError::InvalidArgument("root must pass the reduce result to unreduce".into())
            })?;
            op.unapply(self, qubit, &res)?;
            self.unrecv(res, prev, tag)?;
        } else if k > 0 {
            let acc = scratch
                .ok_or_else(|| QmpiError::Protocol("intermediate rank lost its scratch".into()))?;
            self.unsend(&acc, next, tag)?;
            op.unapply(self, qubit, &acc)?;
            self.unrecv(acc, prev, tag)?;
        } else {
            let acc = scratch
                .ok_or_else(|| QmpiError::Protocol("chain-start rank lost its scratch".into()))?;
            self.unsend(&acc, next, tag)?;
            op.unapply(self, qubit, &acc)?;
            // The accumulator must have returned exactly to |0>; free_qmem
            // verifies this, making unreduce a distributed self-check.
            self.free_qmem(acc)?;
        }
        Ok(())
    }

    /// QMPI_Allreduce: reduce to rank 0 then broadcast — "reduce + copy"
    /// resources (Table 3). Every rank obtains a qubit carrying the
    /// reduction value (the root holds the accumulator itself).
    pub fn allreduce<O: QuantumReduceOp>(
        &self,
        qubit: &Qubit,
        op: &O,
    ) -> Result<(Qubit, AllreduceHandle)> {
        let (result, reduce) = self.reduce(qubit, op, 0)?;
        let bcast_tag = self.next_qcoll_tag();
        let value = if self.rank() == 0 {
            let res = result.expect("root result");
            if self.size() > 1 {
                self.bcast_tree(Some(&res), 0, bcast_tag)?;
            }
            res
        } else {
            self.bcast_tree(None, 0, bcast_tag)?.expect("copy")
        };
        Ok((value, AllreduceHandle { reduce, bcast_tag }))
    }

    /// QMPI_Unallreduce: inverse of [`QmpiRank::allreduce`].
    pub fn unallreduce<O: QuantumReduceOp>(
        &self,
        qubit: &Qubit,
        value: Qubit,
        handle: AllreduceHandle,
        op: &O,
    ) -> Result<()> {
        let AllreduceHandle { reduce, bcast_tag } = handle;
        let _ = bcast_tag;
        // First uncompute the broadcast copies, then the reduction.
        let result = if self.rank() == 0 {
            self.unbcast(Some(&value), None, 0)?;
            Some(value)
        } else {
            self.unbcast(None, Some(value), 0)?;
            None
        };
        self.unreduce(qubit, result, reduce, op)
    }

    /// QMPI_Reduce_scatter_block (one qubit per destination): destination
    /// `r` obtains the reduction of every rank's `qubits[r]`.
    pub fn reduce_scatter_block<O: QuantumReduceOp>(
        &self,
        qubits: &[Qubit],
        op: &O,
    ) -> Result<(Qubit, ReduceScatterHandle)> {
        let n = self.size();
        if qubits.len() != n {
            return Err(QmpiError::InvalidArgument(
                "reduce_scatter_block needs one qubit per rank".into(),
            ));
        }
        let mut handles = Vec::with_capacity(n);
        let mut mine = None;
        #[allow(clippy::needless_range_loop)] // dest is also the reduce root
        for dest in 0..n {
            let (res, h) = self.reduce(&qubits[dest], op, dest)?;
            handles.push(h);
            if self.rank() == dest {
                mine = Some(res.expect("destination result"));
            }
        }
        Ok((mine.expect("own block"), ReduceScatterHandle { handles }))
    }

    /// Inverse of [`QmpiRank::reduce_scatter_block`].
    pub fn unreduce_scatter_block<O: QuantumReduceOp>(
        &self,
        qubits: &[Qubit],
        result: Qubit,
        handle: ReduceScatterHandle,
        op: &O,
    ) -> Result<()> {
        let n = self.size();
        let mut result = Some(result);
        let mut handles: Vec<Option<ReduceHandle>> = handle.handles.into_iter().map(Some).collect();
        for dest in (0..n).rev() {
            let h = handles[dest].take().expect("handle present");
            let res = if self.rank() == dest {
                result.take()
            } else {
                None
            };
            self.unreduce(&qubits[dest], res, h, op)?;
        }
        Ok(())
    }

    /// QMPI_Scan: inclusive prefix reduction along the rank chain; rank r
    /// obtains a qubit carrying `op(q_0, ..., q_r)` (N−1 EPR pairs).
    pub fn scan<O: QuantumReduceOp>(&self, qubit: &Qubit, op: &O) -> Result<(Qubit, ScanHandle)> {
        let tag = self.next_qcoll_tag();
        let n = self.size();
        let r = self.rank();
        let result = if r == 0 {
            let acc = self.alloc_one();
            op.apply(self, qubit, &acc)?;
            if n > 1 {
                self.send(&acc, 1, tag)?;
            }
            acc
        } else {
            let partial = self.recv(r - 1, tag)?;
            op.apply(self, qubit, &partial)?;
            if r < n - 1 {
                self.send(&partial, r + 1, tag)?;
            }
            partial
        };
        Ok((result, ScanHandle { tag }))
    }

    /// QMPI_Unscan: inverse of [`QmpiRank::scan`] (classical-only).
    pub fn unscan<O: QuantumReduceOp>(
        &self,
        qubit: &Qubit,
        result: Qubit,
        handle: ScanHandle,
        op: &O,
    ) -> Result<()> {
        let ScanHandle { tag } = handle;
        let n = self.size();
        let r = self.rank();
        if r < n - 1 {
            self.unsend(&result, r + 1, tag)?;
        }
        op.unapply(self, qubit, &result)?;
        if r > 0 {
            self.unrecv(result, r - 1, tag)?;
        } else {
            self.free_qmem(result)?;
        }
        Ok(())
    }

    /// QMPI_Exscan: exclusive prefix reduction; rank r > 0 obtains a qubit
    /// carrying `op(q_0, ..., q_{r-1})`, rank 0 obtains `None`.
    pub fn exscan<O: QuantumReduceOp>(
        &self,
        qubit: &Qubit,
        op: &O,
    ) -> Result<(Option<Qubit>, ExscanHandle)> {
        let tag = self.next_qcoll_tag();
        let n = self.size();
        let r = self.rank();
        if n == 1 {
            return Ok((None, ExscanHandle { tag, scratch: None }));
        }
        if r == 0 {
            let fwd = self.alloc_one();
            op.apply(self, qubit, &fwd)?;
            self.send(&fwd, 1, tag)?;
            Ok((
                None,
                ExscanHandle {
                    tag,
                    scratch: Some(fwd),
                },
            ))
        } else {
            let partial = self.recv(r - 1, tag)?; // exclusive prefix — the result
            let scratch = if r < n - 1 {
                let fwd = self.alloc_one();
                // Basis-copy the prefix, then fold our own value in.
                self.cnot(&partial, &fwd)?;
                op.apply(self, qubit, &fwd)?;
                self.send(&fwd, r + 1, tag)?;
                Some(fwd)
            } else {
                None
            };
            Ok((Some(partial), ExscanHandle { tag, scratch }))
        }
    }

    /// QMPI_Unexscan: inverse of [`QmpiRank::exscan`].
    pub fn unexscan<O: QuantumReduceOp>(
        &self,
        qubit: &Qubit,
        result: Option<Qubit>,
        handle: ExscanHandle,
        op: &O,
    ) -> Result<()> {
        let ExscanHandle { tag, scratch } = handle;
        let n = self.size();
        let r = self.rank();
        if n == 1 {
            return Ok(());
        }
        if r == 0 {
            let fwd =
                scratch.ok_or_else(|| QmpiError::Protocol("rank 0 lost its scratch".into()))?;
            self.unsend(&fwd, 1, tag)?;
            op.unapply(self, qubit, &fwd)?;
            self.free_qmem(fwd)?;
            Ok(())
        } else {
            let partial = result.ok_or_else(|| {
                QmpiError::InvalidArgument("rank > 0 must pass its exscan result".into())
            })?;
            if let Some(fwd) = scratch {
                self.unsend(&fwd, r + 1, tag)?;
                op.unapply(self, qubit, &fwd)?;
                self.cnot(&partial, &fwd)?;
                self.free_qmem(fwd)?;
            }
            self.unrecv(partial, r - 1, tag)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BcastAlgorithm;
    use crate::context::run;
    use crate::reduce_ops::Parity;
    use qsim::Pauli;

    const TOL: f64 = 1e-9;

    #[test]
    fn bcast_tree_copies_basis_value() {
        for n in [2usize, 3, 5] {
            let out = run(n, move |ctx| {
                if ctx.rank() == 0 {
                    let q = ctx.alloc_one();
                    ctx.x(&q).unwrap();
                    ctx.bcast(Some(&q), 0).unwrap();
                    ctx.barrier();
                    ctx.measure_and_free(q).unwrap()
                } else {
                    let c = ctx.bcast(None, 0).unwrap().unwrap();
                    ctx.barrier();
                    ctx.measure_and_free(c).unwrap()
                }
            });
            assert!(out.iter().all(|&m| m), "n={n}: all ranks see |1>");
        }
    }

    #[test]
    fn bcast_cat_copies_basis_value() {
        for n in [2usize, 3, 4, 6] {
            let out = run(n, move |ctx| {
                if ctx.rank() == 1 {
                    let q = ctx.alloc_one();
                    ctx.x(&q).unwrap();
                    ctx.bcast_with(BcastAlgorithm::CatState, Some(&q), 1)
                        .unwrap();
                    ctx.barrier();
                    ctx.measure_and_free(q).unwrap()
                } else {
                    let c = ctx
                        .bcast_with(BcastAlgorithm::CatState, None, 1)
                        .unwrap()
                        .unwrap();
                    ctx.barrier();
                    ctx.measure_and_free(c).unwrap()
                }
            });
            assert!(out.iter().all(|&m| m), "n={n}");
        }
    }

    #[test]
    fn bcast_superposition_then_unbcast_restores() {
        for algo in [BcastAlgorithm::BinomialTree, BcastAlgorithm::CatState] {
            let out = run(3, move |ctx| {
                if ctx.rank() == 0 {
                    let q = ctx.alloc_one();
                    ctx.ry(&q, 0.8).unwrap();
                    ctx.rz(&q, 0.3).unwrap();
                    ctx.bcast_with(algo, Some(&q), 0).unwrap();
                    ctx.unbcast(Some(&q), None, 0).unwrap();
                    let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
                    let z = ctx.expectation(&[(&q, Pauli::Z)]).unwrap();
                    ctx.measure_and_free(q).unwrap();
                    (x, z)
                } else {
                    let c = ctx.bcast_with(algo, None, 0).unwrap().unwrap();
                    ctx.unbcast(None, Some(c), 0).unwrap();
                    (0.0, 0.0)
                }
            });
            let theta: f64 = 0.8;
            let phi: f64 = 0.3;
            assert!((out[0].1 - theta.cos()).abs() < TOL, "{algo:?}");
            assert!((out[0].0 - theta.sin() * phi.cos()).abs() < TOL, "{algo:?}");
        }
    }

    #[test]
    fn bcast_resource_counts_match_table() {
        // Tree bcast: N-1 copies => N-1 EPR pairs, N-1 bits.
        for n in [2usize, 4, 5] {
            let out = run(n, move |ctx| {
                let (d, q) = ctx.measure_resources(|| {
                    if ctx.rank() == 0 {
                        let q = ctx.alloc_one();
                        ctx.bcast(Some(&q), 0).unwrap();
                        q
                    } else {
                        ctx.bcast(None, 0).unwrap().unwrap()
                    }
                });
                ctx.measure_and_free(q).unwrap();
                d
            });
            assert_eq!(out[0].epr_pairs as usize, n - 1, "n={n}");
            assert_eq!(out[0].classical_bits as usize, n - 1, "n={n}");
        }
    }

    #[test]
    fn cat_bcast_uses_constant_rounds() {
        for n in [4usize, 8] {
            let out = run(n, move |ctx| {
                let (d, q) = ctx.measure_resources(|| {
                    if ctx.rank() == 0 {
                        let q = ctx.alloc_one();
                        ctx.bcast_with(BcastAlgorithm::CatState, Some(&q), 0)
                            .unwrap();
                        q
                    } else {
                        ctx.bcast_with(BcastAlgorithm::CatState, None, 0)
                            .unwrap()
                            .unwrap()
                    }
                });
                ctx.measure_and_free(q).unwrap();
                d
            });
            assert_eq!(
                out[0].epr_pairs as usize,
                n - 1,
                "n={n}: spanning-tree pairs"
            );
            assert_eq!(out[0].epr_rounds, 2, "n={n}: 2E quantum time (Fig. 4)");
        }
    }

    #[test]
    fn gather_then_ungather() {
        let out = run(3, |ctx| {
            let q = ctx.alloc_one();
            if ctx.rank() == 2 {
                ctx.x(&q).unwrap();
            }
            let copies = ctx.gather(&q, 0).unwrap();
            let ms = if ctx.rank() == 0 {
                let copies = copies.unwrap();
                let ms: Vec<bool> = copies.iter().map(|c| ctx.measure(c).unwrap()).collect();
                ctx.ungather(&q, Some(copies), 0).unwrap();
                ms
            } else {
                ctx.ungather(&q, None, 0).unwrap();
                vec![]
            };
            // Original must be intact.
            let p = ctx.prob_one(&q).unwrap();
            ctx.measure_and_free(q).unwrap();
            (ms, p)
        });
        assert_eq!(out[0].0, vec![false, false, true]);
        assert!(out[0].1 < TOL);
        assert!((out[2].1 - 1.0).abs() < TOL);
    }

    #[test]
    fn gather_move_and_back() {
        let out = run(3, |ctx| {
            let q = ctx.alloc_one();
            ctx.ry(&q, 0.5 + ctx.rank() as f64).unwrap();
            let gathered = ctx.gather_move(q, 1).unwrap();
            if ctx.rank() == 1 {
                let gathered = gathered.unwrap();
                assert_eq!(gathered.len(), 3);
                // All three qubits now live on rank 1; a local gate on each
                // must succeed (ownership moved).
                for g in &gathered {
                    ctx.z(g).unwrap();
                    ctx.z(g).unwrap();
                }
                let back = ctx.ungather_move(Some(gathered), 1).unwrap();
                let z = ctx.expectation(&[(&back, Pauli::Z)]).unwrap();
                ctx.measure_and_free(back).unwrap();
                z
            } else {
                let back = ctx.ungather_move(None, 1).unwrap();
                let z = ctx.expectation(&[(&back, Pauli::Z)]).unwrap();
                ctx.measure_and_free(back).unwrap();
                z
            }
        });
        for (r, z) in out.iter().enumerate() {
            let theta = 0.5 + r as f64;
            assert!((z - theta.cos()).abs() < TOL, "rank {r}");
        }
    }

    #[test]
    fn scatter_and_unscatter() {
        let out = run(3, |ctx| {
            if ctx.rank() == 0 {
                let qs = ctx.alloc_qmem(3);
                ctx.x(&qs[1]).unwrap();
                ctx.x(&qs[2]).unwrap();
                let piece = ctx.scatter(Some(&qs), 0).unwrap();
                let m = ctx.measure(&piece).unwrap();
                ctx.unscatter(Some(&qs), piece, 0).unwrap();
                for q in qs {
                    ctx.measure_and_free(q).unwrap();
                }
                m
            } else {
                let piece = ctx.scatter(None, 0).unwrap();
                let m = ctx.measure(&piece).unwrap();
                ctx.unscatter(None, piece, 0).unwrap();
                m
            }
        });
        assert_eq!(out, vec![false, true, true]);
    }

    #[test]
    fn scatter_move_transfers_ownership() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let qs = ctx.alloc_qmem(2);
                ctx.ry(&qs[1], 1.1).unwrap();
                let own = ctx.scatter_move(Some(qs), 0).unwrap();
                let z = ctx.expectation(&[(&own, Pauli::Z)]).unwrap();
                ctx.measure_and_free(own).unwrap();
                z
            } else {
                let piece = ctx.scatter_move(None, 0).unwrap();
                // Rotation qubit now local: apply a local rotation (the
                // Section 4.5 use case: scatter-move for parallel rotations).
                ctx.rz(&piece, 0.4).unwrap();
                let z = ctx.expectation(&[(&piece, Pauli::Z)]).unwrap();
                ctx.measure_and_free(piece).unwrap();
                z
            }
        });
        assert!((out[0] - 1.0).abs() < TOL);
        assert!((out[1] - (1.1f64).cos()).abs() < TOL);
    }

    #[test]
    fn allgather_all_ranks_see_all_values() {
        let out = run(3, |ctx| {
            let q = ctx.alloc_one();
            if ctx.rank() == 1 {
                ctx.x(&q).unwrap();
            }
            let copies = ctx.allgather(&q).unwrap();
            let ms: Vec<bool> = copies.iter().map(|c| ctx.measure(c).unwrap()).collect();
            ctx.unallgather(&q, copies).unwrap();
            ctx.measure_and_free(q).unwrap();
            ms
        });
        for ms in out {
            assert_eq!(ms, vec![false, true, false]);
        }
    }

    #[test]
    fn alltoall_exchanges_values() {
        let out = run(3, |ctx| {
            // qubits[r] encodes bit (rank == r+... ): set q[r] = 1 iff r == my rank.
            let qs = ctx.alloc_qmem(3);
            ctx.x(&qs[ctx.rank()]).unwrap();
            let pieces = ctx.alltoall(&qs).unwrap();
            let ms: Vec<bool> = pieces.iter().map(|p| ctx.measure(p).unwrap()).collect();
            ctx.unalltoall(&qs, pieces).unwrap();
            for q in qs {
                ctx.measure_and_free(q).unwrap();
            }
            ms
        });
        // pieces[s] on rank r came from rank s's qubit index r; it is 1 iff r == s...
        // rank r receives from s the qubit qs[r] of s, which is 1 iff s == r.
        for (r, ms) in out.iter().enumerate() {
            for (s, &m) in ms.iter().enumerate() {
                assert_eq!(m, s == r, "rank {r} slot {s}");
            }
        }
    }

    #[test]
    fn alltoall_move_permutes_qubits() {
        let out = run(2, |ctx| {
            let qs = ctx.alloc_qmem(2);
            // Encode (rank, dest) in a rotation angle on each qubit.
            for (dest, q) in qs.iter().enumerate() {
                ctx.ry(q, (ctx.rank() * 2 + dest) as f64 * 0.3).unwrap();
            }
            let received = ctx.alltoall_move(qs).unwrap();
            let zs: Vec<f64> = received
                .iter()
                .map(|q| ctx.expectation(&[(q, Pauli::Z)]).unwrap())
                .collect();
            for q in received {
                ctx.measure_and_free(q).unwrap();
            }
            zs
        });
        // Rank r slot s holds the qubit prepared by rank s for dest r:
        // angle = (s*2 + r) * 0.3.
        for (r, zs) in out.iter().enumerate() {
            for (s, &z) in zs.iter().enumerate() {
                let angle = (s * 2 + r) as f64 * 0.3;
                assert!((z - angle.cos()).abs() < TOL, "rank {r} slot {s}");
            }
        }
    }

    #[test]
    fn reduce_parity_of_basis_states() {
        for n in [2usize, 3, 4, 5] {
            for root in 0..n {
                let out = run(n, move |ctx| {
                    let q = ctx.alloc_one();
                    // Odd ranks contribute a 1.
                    if ctx.rank() % 2 == 1 {
                        ctx.x(&q).unwrap();
                    }
                    let (result, handle) = ctx.reduce(&q, &Parity, root).unwrap();
                    let m = result.as_ref().map(|res| {
                        let z = ctx.expectation(&[(res, Pauli::Z)]).unwrap();
                        z < 0.0 // <Z> = -1 means parity 1
                    });
                    ctx.unreduce(&q, result, handle, &Parity).unwrap();
                    ctx.measure_and_free(q).unwrap();
                    m
                });
                let expect = (1..n).step_by(2).count() % 2 == 1;
                for (r, m) in out.into_iter().enumerate() {
                    if r == root {
                        assert_eq!(m, Some(expect), "n={n} root={root}");
                    } else {
                        assert_eq!(m, None);
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_costs_match_table1() {
        // reduce: N-1 EPR pairs, N-1 bits; unreduce: 0 EPR, N-1 bits.
        for n in [3usize, 5] {
            let out = run(n, move |ctx| {
                let q = ctx.alloc_one();
                let (after_reduce, (result, handle)) =
                    ctx.measure_resources(|| ctx.reduce(&q, &Parity, 0).unwrap());
                let (after_unreduce, ()) = ctx.measure_resources(|| {
                    ctx.unreduce(&q, result, handle, &Parity).unwrap();
                });
                ctx.free_qmem(q).unwrap();
                (after_reduce, after_unreduce)
            });
            let (red, unred) = out[0];
            assert_eq!(red.epr_pairs as usize, n - 1, "reduce EPR, n={n}");
            assert_eq!(red.classical_bits as usize, n - 1, "reduce bits, n={n}");
            assert_eq!(unred.epr_pairs, 0, "unreduce EPR, n={n}");
            assert_eq!(unred.classical_bits as usize, n - 1, "unreduce bits, n={n}");
        }
    }

    #[test]
    fn reduce_on_superpositions_is_coherent() {
        // Reduce of |+>|+> must stay coherent: after unreduce the plus
        // states are restored exactly.
        let out = run(2, |ctx| {
            let q = ctx.alloc_one();
            ctx.h(&q).unwrap();
            let (result, handle) = ctx.reduce(&q, &Parity, 0).unwrap();
            ctx.unreduce(&q, result, handle, &Parity).unwrap();
            let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
            ctx.measure_and_free(q).unwrap();
            x
        });
        assert!((out[0] - 1.0).abs() < TOL);
        assert!((out[1] - 1.0).abs() < TOL);
    }

    #[test]
    fn allreduce_parity_visible_everywhere() {
        let out = run(4, |ctx| {
            let q = ctx.alloc_one();
            if ctx.rank() == 1 || ctx.rank() == 2 {
                ctx.x(&q).unwrap();
            }
            let (value, handle) = ctx.allreduce(&q, &Parity).unwrap();
            let z = ctx.expectation(&[(&value, Pauli::Z)]).unwrap();
            ctx.unallreduce(&q, value, handle, &Parity).unwrap();
            ctx.measure_and_free(q).unwrap();
            z
        });
        // Parity of {0,1,1,0} = 0 => <Z> = +1 on every rank.
        for z in out {
            assert!((z - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn scan_computes_prefix_parities() {
        let out = run(4, |ctx| {
            let q = ctx.alloc_one();
            // Input bits: 1, 0, 1, 1 by rank.
            if ctx.rank() != 1 {
                ctx.x(&q).unwrap();
            }
            let (result, handle) = ctx.scan(&q, &Parity).unwrap();
            let z = ctx.expectation(&[(&result, Pauli::Z)]).unwrap();
            ctx.unscan(&q, result, handle, &Parity).unwrap();
            ctx.measure_and_free(q).unwrap();
            z < 0.0
        });
        // Prefix parities of 1,0,1,1: 1, 1, 0, 1.
        assert_eq!(out, vec![true, true, false, true]);
    }

    #[test]
    fn exscan_computes_exclusive_prefixes() {
        let out = run(4, |ctx| {
            let q = ctx.alloc_one();
            if ctx.rank() != 1 {
                ctx.x(&q).unwrap();
            }
            let (result, handle) = ctx.exscan(&q, &Parity).unwrap();
            let bit = result
                .as_ref()
                .map(|res| ctx.expectation(&[(res, Pauli::Z)]).unwrap() < 0.0);
            ctx.unexscan(&q, result, handle, &Parity).unwrap();
            ctx.measure_and_free(q).unwrap();
            bit
        });
        // Exclusive prefix parities of 1,0,1,1: -, 1, 1, 0.
        assert_eq!(out, vec![None, Some(true), Some(true), Some(false)]);
    }

    #[test]
    fn reduce_scatter_block_parities() {
        let out = run(3, |ctx| {
            let qs = ctx.alloc_qmem(3);
            // Rank r sets qubit d iff (r + d) is even.
            for (d, q) in qs.iter().enumerate() {
                if (ctx.rank() + d) % 2 == 0 {
                    ctx.x(q).unwrap();
                }
            }
            let (mine, handle) = ctx.reduce_scatter_block(&qs, &Parity).unwrap();
            let bit = ctx.expectation(&[(&mine, Pauli::Z)]).unwrap() < 0.0;
            ctx.unreduce_scatter_block(&qs, mine, handle, &Parity)
                .unwrap();
            for q in qs {
                ctx.measure_and_free(q).unwrap();
            }
            bit
        });
        // Destination d receives parity over r of (r+d mod 2 == 0): bits per
        // dest: d=0: ranks {0,2} -> parity 0; d=1: rank {1} -> 1; d=2: {0,2} -> 0.
        assert_eq!(out, vec![false, true, false]);
    }
}
