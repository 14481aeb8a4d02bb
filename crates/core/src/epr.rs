//! EPR-pair establishment — `QMPI_Prepare_EPR` / `QMPI_Iprepare_EPR`
//! (Section 4.3): "The basic building block and most time consuming part for
//! all quantum communication is the creation of EPR pairs."
//!
//! Protocol (per pair), two control messages: the higher world rank names
//! its fresh |0> qubit to the lower one on the control channel; the lower
//! rank asks the backend (modeling the quantum-coherent interconnect) to
//! entangle that qubit with its own, then acknowledges. The id and the ack
//! are substrate metadata — they are tallied as control messages, not
//! protocol bits (DESIGN.md §5).

use crate::context::{ptag_role, EprRole, ProtoOp, QTag, QmpiRank};
use crate::error::{QmpiError, Result};
use crate::qubit::Qubit;

impl QmpiRank {
    /// Establishes an EPR pair between `qubit` (fresh, |0>) on this rank and
    /// a partner qubit on rank `dest`, which must make the matching call.
    /// Upon return the joint state is (|00> + |11>)/sqrt(2).
    pub fn prepare_epr(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.iprepare_epr(qubit, dest, tag)?.wait()
    }

    /// Non-blocking EPR establishment (QMPI_Iprepare_EPR): posts the request
    /// immediately so pairs can be prepared ahead of when they are needed
    /// (the key optimization behind Section 4.7's persistent requests).
    /// Complete with [`EprRequest::wait`].
    pub fn iprepare_epr(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<EprRequest<'_>> {
        self.iprepare_epr_role(qubit, dest, tag, EprRole::Symmetric)
    }

    /// Role-directed variant used by the directed p2p protocols so that
    /// crossing traffic between the same pair and tag cannot mis-pair.
    pub(crate) fn iprepare_epr_role(
        &self,
        qubit: &Qubit,
        dest: usize,
        tag: QTag,
        role: EprRole,
    ) -> Result<EprRequest<'_>> {
        if dest >= self.size() {
            return Err(QmpiError::InvalidArgument(format!(
                "EPR partner rank {dest} out of range (size {})",
                self.size()
            )));
        }
        if dest == self.rank() {
            return Err(QmpiError::InvalidArgument(
                "cannot establish an EPR pair with oneself".into(),
            ));
        }
        // The higher rank posts its qubit id to the peer on this side's role
        // stream; the lower rank, which entangles, names nothing.
        if self.rank() > dest {
            self.proto
                .send(&qubit.id().0, dest, ptag_role(ProtoOp::EprId, role, tag));
            self.ledger.record_control();
        }
        Ok(EprRequest {
            ctx: self,
            local: qubit.id().0,
            dest,
            tag,
            role,
            pending: true,
        })
    }

    pub(crate) fn prepare_epr_role(
        &self,
        qubit: &Qubit,
        dest: usize,
        tag: QTag,
        role: EprRole,
    ) -> Result<()> {
        self.iprepare_epr_role(qubit, dest, tag, role)?.wait()
    }
}

/// Pending EPR establishment returned by [`QmpiRank::iprepare_epr`].
///
/// Dropped before [`EprRequest::wait`] has run the protocol (never called,
/// or left early on an error), the request is abandoned: on the lower rank
/// — the one that entangles — the drop acknowledges a failure, so the
/// peer's `wait` returns [`QmpiError::Protocol`] instead of blocking. The
/// lower rank needs nothing from the higher one past the qubit id posted
/// at its request, so it establishes the pair whatever the higher rank
/// does next. The peer's message for the abandoned request (on the lower
/// rank the qubit id, on the higher the acknowledgement) is discarded by
/// this rank's next `wait` with the same peer, tag and role, so that
/// request pairs as if none were dropped.
#[must_use = "an EPR request must be waited on: dropped, it fails the pair"]
pub struct EprRequest<'a> {
    ctx: &'a QmpiRank,
    local: u64,
    dest: usize,
    tag: QTag,
    role: EprRole,
    /// Whether the protocol is still to run (cleared once `wait` starts it).
    pending: bool,
}

impl std::fmt::Debug for EprRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EprRequest")
            .field("rank", &self.ctx.rank())
            .field("dest", &self.dest)
            .field("tag", &self.tag)
            .field("pending", &self.pending)
            .finish()
    }
}

impl EprRequest<'_> {
    /// The partner rank.
    pub fn partner(&self) -> usize {
        self.dest
    }

    /// Completes the establishment. The lower world rank performs the
    /// entangling operation; the higher rank waits for the acknowledgement.
    pub fn wait(mut self) -> Result<()> {
        let ctx = self.ctx;
        // Flush point: the entangling operation both reads the pair's
        // freshness and changes shared backend state, so this rank's
        // recorded gates must land first — in the same order the eager
        // path would apply them (which is also what keeps the noise-stream
        // draws aligned between batched and unbatched runs). A failed flush
        // drops the request, which abandons it.
        ctx.flush()?;
        self.pending = false;
        let my_rank = ctx.rank();
        // The peer's messages for requests abandoned on this stream come
        // first: discard them, an id on the lower rank and an ack on the
        // higher.
        let abandoned = {
            let mut list = ctx.abandoned_epr.borrow_mut();
            let before = list.len();
            list.retain(|&k| k != (self.dest, self.tag, self.role));
            before - list.len()
        };
        let id_tag = ptag_role(ProtoOp::EprId, self.role.opposite(), self.tag);
        let ack_tag = ptag_role(ProtoOp::EprAck, self.role, self.tag);
        for _ in 0..abandoned {
            if my_rank < self.dest {
                ctx.proto.recv::<u64>(self.dest, id_tag);
            } else {
                ctx.proto.recv::<bool>(self.dest, ack_tag);
            }
        }
        if my_rank < self.dest {
            // The peer posted its id on the opposite role stream.
            let (their_id, _) = ctx.proto.recv::<u64>(self.dest, id_tag);
            let pair = (qsim::QubitId(self.local), qsim::QubitId(their_id));
            let result = ctx.backend.entangle_epr_batch(&[pair]);
            // Always acknowledge — even on failure — so the peer never
            // blocks forever on a one-sided error.
            let ok = result.is_ok();
            ctx.proto.send(
                &ok,
                self.dest,
                ptag_role(ProtoOp::EprAck, self.role.opposite(), self.tag),
            );
            ctx.ledger.record_control();
            result?;
            ctx.ledger.record_epr_pair();
        } else {
            let (ok, _): (bool, _) = ctx.proto.recv(self.dest, ack_tag);
            if !ok {
                return Err(QmpiError::Protocol(format!(
                    "EPR establishment with rank {} failed on the peer side \
                     (the entangling operation failed, or the request was dropped)",
                    self.dest
                )));
            }
        }
        let level = ctx.ledger.buffer_inc(my_rank);
        ctx.check_buffer(level)?;
        Ok(())
    }
}

impl Drop for EprRequest<'_> {
    fn drop(&mut self) {
        if !self.pending {
            return;
        }
        let ctx = self.ctx;
        ctx.abandoned_epr
            .borrow_mut()
            .push((self.dest, self.tag, self.role));
        if ctx.rank() < self.dest {
            ctx.proto.send(
                &false,
                self.dest,
                ptag_role(ProtoOp::EprAck, self.role.opposite(), self.tag),
            );
            ctx.ledger.record_control();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::context::{run, run_with_config, QmpiConfig};
    use crate::error::QmpiError;

    #[test]
    fn prepare_epr_gives_correlated_measurements() {
        // The paper's Section 6 example program.
        let out = run(2, |ctx| {
            let q = ctx.alloc_one();
            let dest = 1 - ctx.rank();
            ctx.prepare_epr(&q, dest, 0).unwrap();

            ctx.measure_and_free(q).unwrap()
        });
        assert_eq!(out[0], out[1], "both ranks observe the same value");
    }

    #[test]
    fn epr_counts_one_pair() {
        let out = run(2, |ctx| {
            let (delta, q) = ctx.measure_resources(|| {
                let q = ctx.alloc_one();
                ctx.prepare_epr(&q, 1 - ctx.rank(), 0).unwrap();
                q
            });
            ctx.measure_and_free(q).unwrap();
            delta
        });
        assert_eq!(out[0].epr_pairs, 1, "pair counted once, not per endpoint");
        assert_eq!(out[0].classical_bits, 0, "EPR setup costs no protocol bits");
    }

    /// One pair costs two control messages: the higher rank's qubit id and
    /// the lower rank's acknowledgement.
    #[test]
    fn one_pair_sends_two_control_messages() {
        let out = run(2, |ctx| {
            let (delta, q) = ctx.measure_resources(|| {
                let q = ctx.alloc_one();
                ctx.prepare_epr(&q, 1 - ctx.rank(), 0).unwrap();
                q
            });
            ctx.measure_and_free(q).unwrap();
            delta
        });
        for delta in out {
            assert_eq!((delta.epr_pairs, delta.control_messages), (1, 2));
        }
    }

    #[test]
    fn multiple_pairs_with_distinct_tags() {
        let out = run(2, |ctx| {
            let q1 = ctx.alloc_one();
            let q2 = ctx.alloc_one();
            let dest = 1 - ctx.rank();
            // Issue both asynchronously, then complete.
            let r1 = ctx.iprepare_epr(&q1, dest, 1).unwrap();
            let r2 = ctx.iprepare_epr(&q2, dest, 2).unwrap();
            r1.wait().unwrap();
            r2.wait().unwrap();
            let m1 = ctx.measure_and_free(q1).unwrap();
            let m2 = ctx.measure_and_free(q2).unwrap();
            (m1, m2)
        });
        assert_eq!(out[0].0, out[1].0);
        assert_eq!(out[0].1, out[1].1);
    }

    #[test]
    fn self_epr_rejected() {
        let out = run(1, |ctx| {
            let q = ctx.alloc_one();
            let err = ctx.prepare_epr(&q, 0, 0).unwrap_err();
            ctx.free_qmem(q).unwrap();
            matches!(err, QmpiError::InvalidArgument(_))
        });
        assert!(out[0]);
    }

    #[test]
    fn non_fresh_qubit_rejected() {
        let out = run(2, |ctx| {
            let q = ctx.alloc_one();
            if ctx.rank() == 0 {
                ctx.x(&q).unwrap();
            }
            let r = ctx.prepare_epr(&q, 1 - ctx.rank(), 0);
            ctx.barrier();
            if ctx.rank() == 0 {
                ctx.measure_and_free(q).unwrap();
            } else {
                // Rank 1 may or may not see the error depending on which
                // side entangles; its qubit may be left untouched.
                ctx.measure_and_free(q).unwrap();
            }
            r.is_err()
        });
        // Rank 0 is the entangler (lower rank) and must fail.
        assert!(out[0]);
    }

    #[test]
    fn s_limit_enforced() {
        let cfg = QmpiConfig::new().seed(1).s_limit(1);
        let out = run_with_config(2, cfg, |ctx| {
            let dest = 1 - ctx.rank();
            let q1 = ctx.alloc_one();
            let q2 = ctx.alloc_one();
            let ok1 = ctx.prepare_epr(&q1, dest, 1).is_ok();
            // Second buffered pair exceeds S = 1.
            let ok2 = ctx.prepare_epr(&q2, dest, 2).is_ok();
            ctx.barrier();
            ctx.measure_and_free(q1).unwrap();
            ctx.measure_and_free(q2).unwrap();
            (ok1, ok2)
        });
        assert_eq!(out[0], (true, false));
        assert_eq!(out[1], (true, false));
    }

    #[test]
    fn buffer_gauge_returns_to_zero_after_consumption() {
        let out = run(2, |ctx| {
            let dest = 1 - ctx.rank();
            let q = ctx.alloc_one();
            ctx.prepare_epr(&q, dest, 0).unwrap();
            let during = ctx.ledger().buffer_level(ctx.rank());
            // Consuming the half: measure it away and release the buffer.
            ctx.measure_and_free(q).unwrap();
            ctx.ledger().buffer_dec(ctx.rank());
            ctx.barrier();
            (during, ctx.ledger().buffer_level(ctx.rank()))
        });
        for (during, after) in out {
            assert_eq!(during, 1);
            assert_eq!(after, 0);
        }
    }
}
