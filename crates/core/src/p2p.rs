//! Point-to-point quantum communication (Section 4.4, Table 2).
//!
//! Two modes, both built on EPR pairs:
//!
//! * **Entangled copy** (`send`/`recv`, Fig. 3a): the qubit's value is fanned
//!   out to the receiver; both nodes then hold entangled copies. Inverse:
//!   `unsend`/`unrecv` (Fig. 1b / 3b) — one X-basis measurement plus a single
//!   classical bit, **no EPR pair**.
//! * **Move** (`send_move`/`recv_move`, Appendix A.1): full quantum
//!   teleportation; the sender's qubit is consumed. Inverse: a move in the
//!   opposite direction.
//!
//! Resources per qubit (Table 1): copy 1 EPR + 1 bit [uncopy 0 EPR + 1 bit];
//! move 1 EPR + 2 bits [unmove 1 EPR + 2 bits].

use crate::context::{ptag, EprRole, ProtoOp, QTag, QmpiRank};
use crate::error::Result;
use crate::qubit::Qubit;

impl QmpiRank {
    // ------------------------------------------------------------------
    // Entangled copy (fanout)
    // ------------------------------------------------------------------

    /// QMPI_Send: fans `qubit`'s value out to rank `dest` (entangled copy).
    /// The local qubit remains; `dest` must call [`QmpiRank::recv`].
    pub fn send(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        let epr = self.alloc_one();
        self.prepare_epr_role(&epr, dest, tag, EprRole::Origin)?;
        // Parity measurement between the data qubit and the local EPR half.
        self.cnot(qubit, &epr)?;
        let m = self.measure_and_free(epr)?;
        self.ledger.buffer_dec(self.rank());
        self.proto.send(&m, dest, ptag(ProtoOp::CopyFix, tag));
        self.ledger.record_classical(1);
        Ok(())
    }

    /// QMPI_Recv: receives an entangled copy from rank `src`, returning the
    /// new local qubit holding the sender's value.
    pub fn recv(&self, src: usize, tag: QTag) -> Result<Qubit> {
        let q = self.alloc_one();
        self.prepare_epr_role(&q, src, tag, EprRole::Target)?;
        let (m, _) = self.proto.recv::<bool>(src, ptag(ProtoOp::CopyFix, tag));
        if m {
            self.x(&q)?;
        }
        // The EPR half is now a data qubit; release its buffer slot.
        self.ledger.buffer_dec(self.rank());
        Ok(q)
    }

    /// QMPI_Unsend: inverse of [`QmpiRank::send`], called by the original
    /// sender (which keeps its qubit). The peer calls [`QmpiRank::unrecv`].
    /// Costs no EPR pair — only one classical bit from the peer (Fig. 1b).
    pub fn unsend(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        let (m, _) = self.proto.recv::<bool>(dest, ptag(ProtoOp::UncopyFix, tag));
        if m {
            self.z(qubit)?;
        }
        Ok(())
    }

    /// QMPI_Unrecv: inverse of [`QmpiRank::recv`], called by the copy
    /// holder; consumes the copy via an X-basis measurement and sends the
    /// fixup bit back.
    pub fn unrecv(&self, qubit: Qubit, src: usize, tag: QTag) -> Result<()> {
        self.h(&qubit)?;
        let m = self.measure_and_free(qubit)?;
        self.proto.send(&m, src, ptag(ProtoOp::UncopyFix, tag));
        self.ledger.record_classical(1);
        Ok(())
    }

    /// Buffered-mode send (QMPI_Bsend). On this substrate all sends complete
    /// via the EPR rendezvous, so the buffered/synchronous/ready modes share
    /// one protocol; the aliases exist for API completeness (Table 2).
    pub fn bsend(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.send(qubit, dest, tag)
    }

    /// Synchronous-mode send (QMPI_Ssend).
    pub fn ssend(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.send(qubit, dest, tag)
    }

    /// Ready-mode send (QMPI_Rsend).
    pub fn rsend(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.send(qubit, dest, tag)
    }

    /// Inverse of [`QmpiRank::bsend`] (QMPI_Bunsend).
    pub fn bunsend(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.unsend(qubit, dest, tag)
    }

    /// Inverse of [`QmpiRank::ssend`] (QMPI_Sunsend).
    pub fn sunsend(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.unsend(qubit, dest, tag)
    }

    /// Inverse of [`QmpiRank::rsend`] (QMPI_Runsend).
    pub fn runsend(&self, qubit: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.unsend(qubit, dest, tag)
    }

    /// Matched receive (QMPI_Mrecv): identical delivery semantics to `recv`
    /// on this substrate (messages are pre-matched by the EPR rendezvous).
    pub fn mrecv(&self, src: usize, tag: QTag) -> Result<Qubit> {
        self.recv(src, tag)
    }

    /// Inverse of [`QmpiRank::mrecv`] (QMPI_Munrecv).
    pub fn munrecv(&self, qubit: Qubit, src: usize, tag: QTag) -> Result<()> {
        self.unrecv(qubit, src, tag)
    }

    /// QMPI_Sendrecv: sends a copy of `qubit` to `dest` while receiving a
    /// copy from `src`. Both EPR channels are posted before either is
    /// completed, so rings and crossing exchanges cannot deadlock (the
    /// guarantee MPI_Sendrecv exists to provide).
    pub fn sendrecv(&self, qubit: &Qubit, dest: usize, src: usize, tag: QTag) -> Result<Qubit> {
        let epr_s = self.alloc_one();
        let req_s = self.iprepare_epr_role(&epr_s, dest, tag, EprRole::Origin)?;
        let q_r = self.alloc_one();
        let req_r = self.iprepare_epr_role(&q_r, src, tag, EprRole::Target)?;
        // Complete the send side.
        req_s.wait()?;
        self.cnot(qubit, &epr_s)?;
        let m = self.measure_and_free(epr_s)?;
        self.ledger.buffer_dec(self.rank());
        self.proto.send(&m, dest, ptag(ProtoOp::CopyFix, tag));
        self.ledger.record_classical(1);
        // Complete the receive side.
        req_r.wait()?;
        let (m, _) = self.proto.recv::<bool>(src, ptag(ProtoOp::CopyFix, tag));
        if m {
            self.x(&q_r)?;
        }
        self.ledger.buffer_dec(self.rank());
        Ok(q_r)
    }

    /// QMPI_Unsendrecv: inverse of [`QmpiRank::sendrecv`].
    pub fn unsendrecv(
        &self,
        kept: &Qubit,
        received: Qubit,
        dest: usize,
        src: usize,
        tag: QTag,
    ) -> Result<()> {
        self.unrecv(received, src, tag)?;
        self.unsend(kept, dest, tag)
    }

    /// QMPI_Sendrecv_replace: exchanges qubits with move semantics (Table 2
    /// note (a)) — the own qubit is teleported out while another is
    /// teleported in. Both EPR channels are posted before either completes,
    /// so the symmetric exchange cannot deadlock.
    pub fn sendrecv_replace(
        &self,
        qubit: Qubit,
        dest: usize,
        src: usize,
        tag: QTag,
    ) -> Result<Qubit> {
        let epr_s = self.alloc_one();
        let req_s = self.iprepare_epr_role(&epr_s, dest, tag, EprRole::Origin)?;
        let q_r = self.alloc_one();
        let req_r = self.iprepare_epr_role(&q_r, src, tag, EprRole::Target)?;
        // Teleport our qubit out.
        req_s.wait()?;
        self.cnot(&qubit, &epr_s)?;
        let mut r = 0u8;
        if self.measure_and_free(epr_s)? {
            r |= 1;
        }
        self.ledger.buffer_dec(self.rank());
        self.h(&qubit)?;
        if self.measure_and_free(qubit)? {
            r |= 2;
        }
        self.proto.send(&r, dest, ptag(ProtoOp::MoveFix, tag));
        self.ledger.record_classical(2);
        // Receive the incoming teleport.
        req_r.wait()?;
        let (r, _) = self.proto.recv::<u8>(src, ptag(ProtoOp::MoveFix, tag));
        if r & 1 != 0 {
            self.x(&q_r)?;
        }
        if r & 2 != 0 {
            self.z(&q_r)?;
        }
        self.ledger.buffer_dec(self.rank());
        Ok(q_r)
    }

    /// QMPI_Unsendrecv_replace: inverse of [`QmpiRank::sendrecv_replace`] —
    /// simply the exchange in the opposite direction.
    pub fn unsendrecv_replace(
        &self,
        qubit: Qubit,
        dest: usize,
        src: usize,
        tag: QTag,
    ) -> Result<Qubit> {
        self.sendrecv_replace(qubit, dest, src, tag)
    }

    // ------------------------------------------------------------------
    // Move (teleportation)
    // ------------------------------------------------------------------

    /// QMPI_Send_move: teleports `qubit` to rank `dest`, consuming it
    /// (Appendix A.1). Costs 1 EPR pair and one 2-bit classical message.
    pub fn send_move(&self, qubit: Qubit, dest: usize, tag: QTag) -> Result<()> {
        let epr = self.alloc_one();
        self.prepare_epr_role(&epr, dest, tag, EprRole::Origin)?;
        self.cnot(&qubit, &epr)?;
        let mut r = 0u8;
        if self.measure_and_free(epr)? {
            r |= 1;
        }
        self.ledger.buffer_dec(self.rank());
        self.h(&qubit)?;
        if self.measure_and_free(qubit)? {
            r |= 2;
        }
        self.proto.send(&r, dest, ptag(ProtoOp::MoveFix, tag));
        self.ledger.record_classical(2);
        Ok(())
    }

    /// QMPI_Recv_move: receives a teleported qubit from rank `src`.
    pub fn recv_move(&self, src: usize, tag: QTag) -> Result<Qubit> {
        let q = self.alloc_one();
        self.prepare_epr_role(&q, src, tag, EprRole::Target)?;
        let (r, _) = self.proto.recv::<u8>(src, ptag(ProtoOp::MoveFix, tag));
        if r & 1 != 0 {
            self.x(&q)?;
        }
        if r & 2 != 0 {
            self.z(&q)?;
        }
        self.ledger.buffer_dec(self.rank());
        Ok(q)
    }

    /// QMPI_Unsend_move: inverse of a move — the qubit is teleported back;
    /// the original sender recovers it.
    pub fn unsend_move(&self, src_of_move: usize, tag: QTag) -> Result<Qubit> {
        self.recv_move(src_of_move, tag)
    }

    /// QMPI_Unrecv_move: inverse of a move from the receiver's side —
    /// teleports the qubit back to the original sender.
    pub fn unrecv_move(&self, qubit: Qubit, dest_of_move: usize, tag: QTag) -> Result<()> {
        self.send_move(qubit, dest_of_move, tag)
    }

    /// Buffered-mode move (QMPI_Bsend_move).
    pub fn bsend_move(&self, qubit: Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.send_move(qubit, dest, tag)
    }

    /// Synchronous-mode move (QMPI_Ssend_move).
    pub fn ssend_move(&self, qubit: Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.send_move(qubit, dest, tag)
    }

    /// Ready-mode move (QMPI_Rsend_move).
    pub fn rsend_move(&self, qubit: Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.send_move(qubit, dest, tag)
    }

    /// Matched move receive (QMPI_Mrecv_move).
    pub fn mrecv_move(&self, src: usize, tag: QTag) -> Result<Qubit> {
        self.recv_move(src, tag)
    }
}

#[cfg(test)]
mod tests {
    use crate::context::run;
    use qsim::Pauli;

    const TOL: f64 = 1e-9;

    #[test]
    fn send_recv_creates_entangled_copy() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                ctx.ry(&q, 1.234).unwrap();
                ctx.send(&q, 1, 0).unwrap();
                ctx.barrier();
                // After the copy, <Z0 Z1> = 1 regardless of the state.
                let m = ctx.measure(&q).unwrap();
                ctx.classical().send(&m, 1, 9);
                ctx.measure_and_free(q).unwrap();
                true
            } else {
                let copy = ctx.recv(0, 0).unwrap();
                ctx.barrier();
                let m = ctx.measure(&copy).unwrap();
                let (m0, _) = ctx.classical().recv::<bool>(0, 9);
                ctx.measure_and_free(copy).unwrap();
                m == m0
            }
        });
        assert!(out[1], "copies must be perfectly correlated in Z");
    }

    #[test]
    fn send_costs_one_epr_one_bit() {
        let out = run(2, |ctx| {
            let (d, q) = ctx.measure_resources(|| {
                if ctx.rank() == 0 {
                    let q = ctx.alloc_one();
                    ctx.h(&q).unwrap();
                    ctx.send(&q, 1, 0).unwrap();
                    q
                } else {
                    ctx.recv(0, 0).unwrap()
                }
            });
            ctx.measure_and_free(q).unwrap();
            d
        });
        assert_eq!(out[0].epr_pairs, 1);
        assert_eq!(out[0].classical_bits, 1);
    }

    #[test]
    fn unsend_unrecv_restores_original_state() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                ctx.ry(&q, 0.77).unwrap();
                ctx.rz(&q, -0.4).unwrap();
                ctx.send(&q, 1, 0).unwrap();
                // ... peer does work on the copy's value ...
                ctx.unsend(&q, 1, 0).unwrap();
                // Verify we recovered the pure single-qubit state: since
                // the copy is uncomputed, <X>, <Y>, <Z> must match a fresh
                // preparation.
                let z = ctx.expectation(&[(&q, Pauli::Z)]).unwrap();
                let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
                ctx.measure_and_free(q).unwrap();
                (z, x)
            } else {
                let copy = ctx.recv(0, 0).unwrap();
                ctx.unrecv(copy, 0, 0).unwrap();
                (0.0, 0.0)
            }
        });
        // Reference values for Rz(-0.4) Ry(0.77) |0>.
        let theta: f64 = 0.77;
        let phi: f64 = -0.4;
        let z_ref = theta.cos();
        let x_ref = theta.sin() * phi.cos();
        assert!((out[0].0 - z_ref).abs() < TOL);
        assert!((out[0].1 - x_ref).abs() < TOL);
    }

    #[test]
    fn uncopy_costs_zero_epr_one_bit() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                ctx.h(&q).unwrap();
                ctx.send(&q, 1, 0).unwrap();
                let (d, ()) = ctx.measure_resources(|| {
                    ctx.unsend(&q, 1, 0).unwrap();
                });
                ctx.measure_and_free(q).unwrap();
                d
            } else {
                let copy = ctx.recv(0, 0).unwrap();
                let (d, ()) = ctx.measure_resources(|| {
                    ctx.unrecv(copy, 0, 0).unwrap();
                });
                d
            }
        });
        assert_eq!(out[0].epr_pairs, 0, "uncopy must not consume EPR pairs");
        assert_eq!(out[0].classical_bits, 1);
    }

    #[test]
    fn move_teleports_state() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                ctx.ry(&q, 0.9).unwrap();
                ctx.rz(&q, 1.7).unwrap();
                ctx.send_move(q, 1, 0).unwrap();
                (0.0, 0.0)
            } else {
                let q = ctx.recv_move(0, 0).unwrap();
                let z = ctx.expectation(&[(&q, Pauli::Z)]).unwrap();
                let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
                ctx.measure_and_free(q).unwrap();
                (z, x)
            }
        });
        let theta: f64 = 0.9;
        let phi: f64 = 1.7;
        assert!((out[1].0 - theta.cos()).abs() < TOL);
        assert!((out[1].1 - theta.sin() * phi.cos()).abs() < TOL);
    }

    #[test]
    fn move_costs_one_epr_two_bits() {
        let out = run(2, |ctx| {
            let (d, ()) = ctx.measure_resources(|| {
                if ctx.rank() == 0 {
                    let q = ctx.alloc_one();
                    ctx.send_move(q, 1, 0).unwrap();
                } else {
                    let q = ctx.recv_move(0, 0).unwrap();
                    ctx.measure_and_free(q).unwrap();
                }
            });
            d
        });
        assert_eq!(out[0].epr_pairs, 1);
        assert_eq!(out[0].classical_bits, 2);
        assert_eq!(
            out[0].classical_messages, 1,
            "one two-bit message, not two one-bit ones"
        );
    }

    #[test]
    fn unmove_returns_qubit() {
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let q = ctx.alloc_one();
                ctx.ry(&q, 2.2).unwrap();
                ctx.send_move(q, 1, 3).unwrap();
                let back = ctx.unsend_move(1, 3).unwrap();
                let z = ctx.expectation(&[(&back, Pauli::Z)]).unwrap();
                ctx.measure_and_free(back).unwrap();
                z
            } else {
                let q = ctx.recv_move(0, 3).unwrap();
                ctx.unrecv_move(q, 0, 3).unwrap();
                0.0
            }
        });
        assert!((out[0] - (2.2f64).cos()).abs() < TOL);
    }

    #[test]
    fn sendrecv_ring_exchange() {
        let out = run(3, |ctx| {
            let n = ctx.size();
            let q = ctx.alloc_one();
            if ctx.rank() == 1 {
                ctx.x(&q).unwrap();
            }
            let dest = (ctx.rank() + 1) % n;
            let src = (ctx.rank() + n - 1) % n;
            let incoming = ctx.sendrecv(&q, dest, src, 0).unwrap();
            let m = ctx.measure(&incoming).unwrap();
            // Uncompute the ring of copies so states stay clean.
            ctx.unsendrecv(&q, incoming, dest, src, 0).unwrap();
            ctx.measure_and_free(q).unwrap();
            m
        });
        // Rank 2 received rank 1's |1>.
        assert_eq!(out, vec![false, false, true]);
    }

    #[test]
    fn sendrecv_replace_swaps_states() {
        let out = run(2, |ctx| {
            let q = ctx.alloc_one();
            if ctx.rank() == 0 {
                ctx.x(&q).unwrap();
            }
            let peer = 1 - ctx.rank();
            let swapped = ctx.sendrecv_replace(q, peer, peer, 0).unwrap();
            let m = ctx.measure(&swapped).unwrap();
            ctx.measure_and_free(swapped).unwrap();
            m
        });
        assert_eq!(out, vec![false, true], "rank 1 now holds the |1>");
    }

    #[test]
    fn entangled_copy_enables_remote_controlled_gate() {
        // The Fig. 2 motivation: fan a control out, apply controlled gates
        // on two nodes in parallel, unfanout.
        let out = run(2, |ctx| {
            if ctx.rank() == 0 {
                let ctrl = ctx.alloc_one();
                ctx.h(&ctrl).unwrap();
                let t0 = ctx.alloc_one();
                ctx.send(&ctrl, 1, 0).unwrap();
                ctx.controlled(&[&ctrl], qsim::Gate::X, &t0).unwrap();
                ctx.unsend(&ctrl, 1, 0).unwrap();
                ctx.barrier();
                // <Z ctrl Z t0> = 1: perfectly correlated.
                let zz = ctx
                    .expectation(&[(&ctrl, qsim::Pauli::Z), (&t0, qsim::Pauli::Z)])
                    .unwrap();
                ctx.measure_and_free(t0).unwrap();
                ctx.measure_and_free(ctrl).unwrap();
                zz
            } else {
                let ctrl_copy = ctx.recv(0, 0).unwrap();
                let t1 = ctx.alloc_one();
                ctx.controlled(&[&ctrl_copy], qsim::Gate::X, &t1).unwrap();
                // Must undo the controlled op before unrecv? No: the copy
                // carries the control *value*; uncopying it is valid while
                // t1 stays correlated with the original control.
                ctx.unrecv(ctrl_copy, 0, 0).unwrap();
                ctx.barrier();
                ctx.measure_and_free(t1).unwrap();
                0.0
            }
        });
        assert!((out[0] - 1.0).abs() < TOL);
    }
}
