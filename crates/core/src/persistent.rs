//! Persistent communication requests (Section 4.7, future extension).
//!
//! "All required EPR pairs can be prepared before starting communication
//! and, in particular, before the data to be sent is available.
//! Point-to-point [...] communication can then be performed with purely
//! classical communication." — this module implements exactly that: `init`
//! pre-establishes a pool of EPR pairs (bounded by the SENDQ `S` budget);
//! each `start` consumes one pooled pair and crosses the network with a
//! single classical bit, i.e. **zero quantum communication depth**.

use crate::context::{ptag, EprRole, ProtoOp, QTag, QmpiRank};
use crate::error::{QmpiError, Result};
use crate::qubit::Qubit;
use std::collections::VecDeque;

/// Sender side of a persistent entangled-copy channel.
#[derive(Debug)]
pub struct PersistentSend {
    dest: usize,
    tag: QTag,
    pool: VecDeque<Qubit>,
}

/// Receiver side of a persistent entangled-copy channel.
#[derive(Debug)]
pub struct PersistentRecv {
    src: usize,
    tag: QTag,
    pool: VecDeque<Qubit>,
}

impl QmpiRank {
    /// QMPI_Send_init: pre-establishes `count` EPR pairs toward `dest`.
    /// The matching call is [`QmpiRank::recv_init`] on `dest`.
    pub fn send_init(&self, dest: usize, tag: QTag, count: usize) -> Result<PersistentSend> {
        let mut requests = Vec::with_capacity(count);
        let mut pool = VecDeque::with_capacity(count);
        for _ in 0..count {
            let q = self.alloc_one();
            requests.push(self.iprepare_epr_role(&q, dest, tag, EprRole::Origin)?);
            pool.push_back(q);
        }
        for req in requests {
            req.wait()?;
        }
        Ok(PersistentSend { dest, tag, pool })
    }

    /// QMPI_Recv_init: pre-establishes `count` EPR pairs from `src`.
    pub fn recv_init(&self, src: usize, tag: QTag, count: usize) -> Result<PersistentRecv> {
        let mut requests = Vec::with_capacity(count);
        let mut pool = VecDeque::with_capacity(count);
        for _ in 0..count {
            let q = self.alloc_one();
            requests.push(self.iprepare_epr_role(&q, src, tag, EprRole::Target)?);
            pool.push_back(q);
        }
        for req in requests {
            req.wait()?;
        }
        Ok(PersistentRecv { src, tag, pool })
    }
}

impl PersistentSend {
    /// Remaining pre-established pairs.
    pub fn remaining(&self) -> usize {
        self.pool.len()
    }

    /// QMPI_Start (send side): fans `qubit` out to the peer using a pooled
    /// pair — classical communication only (one bit).
    pub fn start(&mut self, ctx: &QmpiRank, qubit: &Qubit) -> Result<()> {
        let epr = self
            .pool
            .pop_front()
            .ok_or_else(|| QmpiError::Protocol("persistent send pool exhausted".into()))?;
        ctx.cnot(qubit, &epr)?;
        let m = ctx.measure_and_free(epr)?;
        ctx.ledger().buffer_dec(ctx.rank());
        ctx.proto
            .send(&m, self.dest, ptag(ProtoOp::CopyFix, self.tag));
        ctx.ledger().record_classical(1);
        Ok(())
    }

    /// Releases unused pooled pairs (measures them away).
    pub fn free(mut self, ctx: &QmpiRank) -> Result<()> {
        while let Some(q) = self.pool.pop_front() {
            ctx.measure_and_free(q)?;
            ctx.ledger().buffer_dec(ctx.rank());
        }
        Ok(())
    }
}

impl PersistentRecv {
    /// Remaining pre-established pairs.
    pub fn remaining(&self) -> usize {
        self.pool.len()
    }

    /// QMPI_Start (receive side): completes the entangled copy, returning
    /// the data qubit — classical communication only.
    pub fn start(&mut self, ctx: &QmpiRank) -> Result<Qubit> {
        let q = self
            .pool
            .pop_front()
            .ok_or_else(|| QmpiError::Protocol("persistent recv pool exhausted".into()))?;
        let (m, _) = ctx
            .proto
            .recv::<bool>(self.src, ptag(ProtoOp::CopyFix, self.tag));
        if m {
            ctx.x(&q)?;
        }
        ctx.ledger().buffer_dec(ctx.rank());
        Ok(q)
    }

    /// Releases unused pooled pairs.
    pub fn free(mut self, ctx: &QmpiRank) -> Result<()> {
        while let Some(q) = self.pool.pop_front() {
            ctx.measure_and_free(q)?;
            ctx.ledger().buffer_dec(ctx.rank());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::context::run;

    #[test]
    fn persistent_start_is_classical_only() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let mut chan = ctx.send_init(1, 5, 3).unwrap();
                assert_eq!(chan.remaining(), 3);
                // Three data qubits become available *after* the pairs exist.
                let (delta, ()) = ctx.measure_resources(|| {
                    for i in 0..3 {
                        let q = ctx.alloc_one();
                        if i % 2 == 0 {
                            ctx.x(&q).unwrap();
                        }
                        chan.start(ctx, &q).unwrap();
                        ctx.measure_and_free(q).unwrap();
                    }
                });
                chan.free(ctx).unwrap();
                (delta, vec![])
            } else {
                let mut chan = ctx.recv_init(0, 5, 3).unwrap();
                let (delta, ms) = ctx.measure_resources(|| {
                    let mut ms = Vec::new();
                    for _ in 0..3 {
                        let q = chan.start(ctx).unwrap();
                        ms.push(ctx.measure_and_free(q).unwrap());
                    }
                    ms
                });
                chan.free(ctx).unwrap();
                (delta, ms)
            }
        });
        // Zero EPR pairs during the start phase; one bit per message.
        assert_eq!(
            out[0].0.epr_pairs, 0,
            "starts must be classical-only (Section 4.7)"
        );
        assert_eq!(out[0].0.classical_bits, 3);
        assert_eq!(out[1].1, vec![true, false, true]);
    }

    #[test]
    fn pool_exhaustion_errors() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let mut chan = ctx.send_init(1, 1, 1).unwrap();
                let q = ctx.alloc_one();
                chan.start(ctx, &q).unwrap();
                let err = chan.start(ctx, &q).is_err();
                ctx.measure_and_free(q).unwrap();
                chan.free(ctx).unwrap();
                err
            } else {
                let mut chan = ctx.recv_init(0, 1, 1).unwrap();
                let q = chan.start(ctx).unwrap();
                ctx.measure_and_free(q).unwrap();
                chan.free(ctx).unwrap();
                true
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn pool_respects_s_limit() {
        use crate::context::{run_with_config, QmpiConfig};
        let cfg = QmpiConfig::new().seed(3).s_limit(2);
        let out = run_with_config(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                // 3 pre-established pairs exceed S = 2.
                ctx.send_init(1, 0, 3).is_err()
            } else {
                ctx.recv_init(0, 0, 3).is_err()
            }
        });
        assert!(out[0] && out[1]);
    }
}
