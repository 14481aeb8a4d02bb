//! Cat-state establishment in constant quantum depth (Fig. 4, Section 7.1).
//!
//! `|cat(n)> = (|0...0> + |1...1>)/sqrt(2)` spanning one qubit per rank is
//! built by (1) creating EPR pairs along the edges of a chain spanning tree
//! — two parallel rounds (even edges, then odd edges), i.e. `2E` quantum
//! time; (2) a local parity measurement merging the two halves at every
//! interior rank; (3) a classical `MPI_Exscan` of the outcomes that tells
//! each rank whether to apply a Pauli-X fixup. Quantum depth is constant in
//! `n`; only the classical fixup is logarithmic.
//!
//! The establishment phase is backend-aware: instead of `n - 1` separate
//! rendezvous (each taking the backend lock once), the edge qubit ids are
//! gathered at rank 0, which entangles the whole spanning tree through
//! [`crate::QuantumBackend::entangle_epr_batch`] — a *single* backend
//! acquisition. The *modeled* quantum schedule is unchanged (still two
//! parallel establishment rounds, still `n - 1` pairs — the ledger records
//! the same bill); what the batching removes is the simulator-side lock
//! traffic that dominated 64-rank broadcast latency.

use crate::context::QmpiRank;
use crate::error::Result;
use crate::qubit::Qubit;

impl QmpiRank {
    /// Establishes `|cat(n)>` over all ranks; each rank gets its share.
    ///
    /// Collective: every rank must call it. Costs `n-1` EPR pairs in 2
    /// parallel establishment rounds (1 round for n = 2).
    pub fn cat_establish(&self) -> Result<Qubit> {
        let n = self.size();
        let r = self.rank();
        if n == 1 {
            // Single node: the "cat" is a local |+>.
            let q = self.alloc_one();
            self.h(&q)?;
            return Ok(q);
        }
        // Chain edges e_k = (k, k+1). On hardware even-k edges establish in
        // round 0 and odd-k edges in round 1 — each node touches at most one
        // edge per round, satisfying the SENDQ one-EPR-establishment-at-a-
        // time rule — and that is what the ledger records. In the simulator
        // the whole spanning tree is entangled in ONE batched backend
        // acquisition: every rank reports its edge qubit ids to rank 0
        // (substrate control traffic, not protocol bits), rank 0 drives
        // `entangle_epr_batch`, and a broadcast acknowledges completion.
        let left: Option<Qubit> = if r > 0 { Some(self.alloc_one()) } else { None };
        let right: Option<Qubit> = if r + 1 < n {
            Some(self.alloc_one())
        } else {
            None
        };
        if r == 0 {
            // One round when only even edges exist (n == 2).
            let rounds = if n > 2 { 2 } else { 1 };
            for _ in 0..rounds {
                self.ledger().record_epr_round();
            }
        }
        const NO_QUBIT: u64 = u64::MAX;
        let edge_ids = vec![
            left.as_ref().map(|q| q.id().0).unwrap_or(NO_QUBIT),
            right.as_ref().map(|q| q.id().0).unwrap_or(NO_QUBIT),
        ];
        if r != 0 {
            self.ledger.record_control();
        }
        let gathered = self.proto.gather(&edge_ids, 0);
        let ok = if r == 0 {
            let ids = gathered.expect("root gathers edge ids");
            let mut pairs = Vec::with_capacity(n - 1);
            for k in 0..n - 1 {
                let right_of_k = ids[k][1];
                let left_of_next = ids[k + 1][0];
                debug_assert!(right_of_k != NO_QUBIT && left_of_next != NO_QUBIT);
                pairs.push((qsim::QubitId(right_of_k), qsim::QubitId(left_of_next)));
            }
            // Flush point: every rank flushed at its edge-qubit allocation,
            // and no gates can be recorded between that and the gather, so
            // this is a no-op backstop keeping the invariant local.
            self.flush()?;
            let result = self.backend.entangle_epr_batch(&pairs);
            if result.is_ok() {
                for _ in 0..pairs.len() {
                    self.ledger.record_epr_pair();
                }
            }
            self.ledger.record_control();
            self.proto.bcast(Some(result.is_ok()), 0)
        } else {
            self.proto.bcast::<bool>(None, 0)
        };
        if !ok {
            return Err(crate::error::QmpiError::Protocol(
                "batched cat-state EPR establishment failed at rank 0".into(),
            ));
        }
        // Each rank buffers the halves it holds, subject to the S budget.
        for held in [&left, &right] {
            if held.is_some() {
                let level = self.ledger.buffer_inc(r);
                self.check_buffer(level)?;
            }
        }
        // Merge at interior ranks: CNOT(left -> right), measure right.
        let (keep, outcome) = match (left, right) {
            (Some(l), Some(rq)) => {
                self.cnot(&l, &rq)?;
                let m = self.measure_and_free(rq)?;
                self.ledger.buffer_dec(self.rank());
                // The surviving half is promoted to a data qubit.
                self.ledger.buffer_dec(self.rank());
                (l, m)
            }
            (None, Some(rq)) => {
                self.ledger.buffer_dec(self.rank());
                (rq, false)
            }
            (Some(l), None) => {
                self.ledger.buffer_dec(self.rank());
                (l, false)
            }
            (None, None) => unreachable!("n >= 2 gives every rank at least one edge"),
        };
        // Classical exscan of merge outcomes; rank k applies X^(r_1 ^ ... ^ r_{k-1}).
        // Interior ranks contribute their outcome bit to the exscan
        // regardless of its value.
        if r > 0 && r + 1 < n {
            self.ledger.record_classical(1);
        }
        let fix = self
            .proto
            .exscan(outcome as u8, &cmpi::ops::bxor)
            .unwrap_or(0);
        if fix != 0 {
            self.x(&keep)?;
        }
        Ok(keep)
    }

    /// Disbands a cat state previously built by [`QmpiRank::cat_establish`]:
    /// every rank measures its share in the X basis; for a pure `|cat(n)>`
    /// the parity of all outcomes is always even, which this function
    /// asserts — a distributed integrity check of the state.
    pub fn cat_disband(&self, share: Qubit) -> Result<()> {
        self.h(&share)?;
        let m = self.measure_and_free(share)?;
        let parity = self.proto.allreduce(m as u8, &cmpi::ops::bxor);
        if parity != 0 {
            return Err(crate::error::QmpiError::Protocol(
                "cat-state X-parity check failed: state was not a pure cat state".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::context::run;
    use qsim::Pauli;

    #[test]
    fn cat_state_is_ghz() {
        for n in [2usize, 3, 4, 5] {
            let out = run(n, move |ctx| {
                let share = ctx.cat_establish().unwrap();
                ctx.barrier();
                // All shares agree under Z measurement.
                let m = ctx.measure(&share).unwrap();
                ctx.measure_and_free(share).unwrap();
                m
            });
            assert!(
                out.iter().all(|&m| m == out[0]),
                "n={n}: GHZ shares must agree"
            );
        }
    }

    #[test]
    fn cat_state_has_full_xx_correlations() {
        // <X...X> = +1 for |cat(n)>; verified via the collective disband check.
        for n in [2usize, 3, 4, 6] {
            let out = run(n, move |ctx| {
                let share = ctx.cat_establish().unwrap();
                ctx.cat_disband(share).is_ok()
            });
            assert!(out.iter().all(|&ok| ok), "n={n}");
        }
    }

    #[test]
    fn cat_uses_n_minus_1_pairs_in_two_rounds() {
        for n in [2usize, 3, 5, 8] {
            let out = run(n, move |ctx| {
                let (d, share) = ctx.measure_resources(|| ctx.cat_establish().unwrap());
                ctx.measure_and_free(share).unwrap();
                d
            });
            assert_eq!(out[0].epr_pairs as usize, n - 1, "n={n}");
            let expected_rounds = if n > 2 { 2 } else { 1 };
            assert_eq!(
                out[0].epr_rounds, expected_rounds,
                "n={n}: constant quantum depth (Fig. 4)"
            );
        }
    }

    #[test]
    fn cat_zz_expectation_is_one() {
        let out = run(3, |ctx| {
            let share = ctx.cat_establish().unwrap();
            ctx.barrier();
            let z = if ctx.rank() == 0 {
                // Global diagnostic from one rank: <Z_i Z_j> = 1 for any pair
                // — validated locally per rank against its own share instead.
                ctx.expectation(&[(&share, Pauli::Z)]).unwrap()
            } else {
                ctx.expectation(&[(&share, Pauli::Z)]).unwrap()
            };
            ctx.barrier();
            ctx.measure_and_free(share).unwrap();
            z
        });
        // Each single-qubit <Z> of a GHZ state is 0.
        for z in out {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn single_rank_cat_is_plus() {
        let out = run(1, |ctx| {
            let share = ctx.cat_establish().unwrap();
            let x = ctx.expectation(&[(&share, Pauli::X)]).unwrap();
            ctx.measure_and_free(share).unwrap();
            x
        });
        assert!((out[0] - 1.0).abs() < 1e-9);
    }
}
