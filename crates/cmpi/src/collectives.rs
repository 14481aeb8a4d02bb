//! Classical collective operations (the MPI collectives QMPI builds on).
//!
//! Algorithms follow standard MPI implementations: dissemination barrier,
//! binomial-tree broadcast and reduce, direct gather/scatter, and a
//! Hillis-Steele style logarithmic exscan (after Sanders & Träff, the
//! reference the paper cites for the classical `MPI_Exscan` used by the
//! cat-state fixup in Section 7.1).

use crate::comm::Communicator;
use crate::encode::{Decode, Encode};

/// A binary reduction operator. Must be associative (like MPI ops);
/// commutativity is *not* required — all algorithms combine in rank order.
pub trait ReduceOp<T> {
    /// Combines two partial results, `lo` covering lower ranks than `hi`.
    fn combine(&self, lo: &T, hi: &T) -> T;
}

impl<T, F: Fn(&T, &T) -> T> ReduceOp<T> for F {
    fn combine(&self, lo: &T, hi: &T) -> T {
        self(lo, hi)
    }
}

/// Ready-made reduction operators.
pub mod ops {
    /// Bitwise XOR — the classical analogue of QMPI_PARITY.
    pub fn bxor<T: std::ops::BitXor<Output = T> + Copy>(a: &T, b: &T) -> T {
        *a ^ *b
    }
}

impl Communicator {
    /// Synchronizes all ranks (MPI_Barrier), dissemination algorithm:
    /// ⌈log₂ n⌉ rounds of shifted token exchange.
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        let n = self.size();
        if n == 1 {
            return;
        }
        let mut dist = 1;
        while dist < n {
            let to = (self.rank() + dist) % n;
            let from = (self.rank() + n - dist) % n;
            self.coll_send(&(), to, tag);
            let _: () = self.coll_recv(from, tag);
            dist *= 2;
        }
    }

    /// Broadcasts `value` from `root` to all ranks (MPI_Bcast),
    /// binomial tree: ⌈log₂ n⌉ rounds.
    pub fn bcast<T: Encode + Decode + Clone>(&self, value: Option<T>, root: usize) -> T {
        let tag = self.next_coll_tag();
        let n = self.size();
        let vrank = (self.rank() + n - root) % n; // virtual rank, root -> 0
        let mut current: Option<T> = if self.rank() == root {
            Some(value.expect("root must supply the broadcast value"))
        } else {
            None
        };
        // Round k: ranks with vrank < 2^k send to vrank + 2^k.
        let mut step = 1;
        while step < n {
            if vrank < step {
                let dst_v = vrank + step;
                if dst_v < n {
                    let dst = (dst_v + root) % n;
                    self.coll_send(current.as_ref().expect("value present"), dst, tag);
                }
            } else if vrank < 2 * step && current.is_none() {
                let src = (vrank - step + root) % n;
                current = Some(self.coll_recv(src, tag));
            }
            step *= 2;
        }
        current.expect("broadcast value delivered")
    }

    /// Gathers one value per rank at `root` (MPI_Gather). Returns
    /// `Some(values_in_rank_order)` at the root, `None` elsewhere.
    pub fn gather<T: Encode + Decode>(&self, value: &T, root: usize) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            #[allow(clippy::needless_range_loop)] // skip-one fill of out[r]
            for r in 0..self.size() {
                if r == root {
                    continue;
                }
                out[r] = Some(self.coll_recv(r, tag));
            }
            let mut result = Vec::with_capacity(self.size());
            for (r, slot) in out.into_iter().enumerate() {
                if r == root {
                    result.push(
                        crate::encode::from_bytes(&crate::encode::to_bytes(value))
                            .expect("self roundtrip"),
                    );
                } else {
                    result.push(slot.expect("gathered"));
                }
            }
            Some(result)
        } else {
            self.coll_send(value, root, tag);
            None
        }
    }

    /// Scatters one value per rank from `root` (MPI_Scatter). The root
    /// passes `Some(values)` with exactly `size()` entries.
    pub fn scatter<T: Encode + Decode>(&self, values: Option<Vec<T>>, root: usize) -> T {
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let values = values.expect("root must supply scatter values");
            assert_eq!(
                values.len(),
                self.size(),
                "scatter needs one value per rank"
            );
            let mut own: Option<T> = None;
            for (r, v) in values.into_iter().enumerate() {
                if r == root {
                    own = Some(v);
                } else {
                    self.coll_send(&v, r, tag);
                }
            }
            own.expect("own scatter element")
        } else {
            self.coll_recv(root, tag)
        }
    }

    /// Reduces all ranks' values to the root in rank order (MPI_Reduce),
    /// binomial tree: combine(lo_ranks, hi_ranks) at every merge, so
    /// non-commutative (but associative) operators are safe.
    pub fn reduce<T, O>(&self, value: T, op: &O, root: usize) -> Option<T>
    where
        T: Encode + Decode,
        O: ReduceOp<T>,
    {
        let tag = self.next_coll_tag();
        let n = self.size();
        let vrank = (self.rank() + n - root) % n;
        let mut acc = value;
        let mut step = 1;
        while step < n {
            if vrank.is_multiple_of(2 * step) {
                let src_v = vrank + step;
                if src_v < n {
                    let src = (src_v + root) % n;
                    let theirs: T = self.coll_recv(src, tag);
                    acc = op.combine(&acc, &theirs);
                }
            } else if vrank % (2 * step) == step {
                let dst = ((vrank - step) + root) % n;
                self.coll_send(&acc, dst, tag);
                // This rank's participation ends; drain remaining rounds.
                return None;
            }
            step *= 2;
        }
        if self.rank() == root {
            Some(acc)
        } else {
            None
        }
    }

    /// Reduce + broadcast (MPI_Allreduce).
    pub fn allreduce<T, O>(&self, value: T, op: &O) -> T
    where
        T: Encode + Decode + Clone,
        O: ReduceOp<T>,
    {
        let reduced = self.reduce(value, op, 0);
        self.bcast(reduced, 0)
    }

    /// Exclusive prefix reduction (MPI_Exscan): rank r obtains
    /// `op(v_0, ..., v_{r-1})`; rank 0 obtains `None`.
    /// This is the classical collective used to compute the cat-state
    /// fix-ups in Section 7.1.
    pub fn exscan<T, O>(&self, value: T, op: &O) -> Option<T>
    where
        T: Encode + Decode + Clone,
        O: ReduceOp<T>,
    {
        let tag = self.next_coll_tag();
        let n = self.size();
        let r = self.rank();
        // Shift-by-one then inclusive scan: rank r scans over v_{r-1}.
        if r + 1 < n {
            self.coll_send(&value, r + 1, tag);
        }
        let shifted: Option<T> = if r > 0 {
            Some(self.coll_recv(r - 1, tag))
        } else {
            None
        };
        // Inclusive scan over the shifted values on ranks 1..n.
        let tag2 = self.next_coll_tag();
        let mut prefix = shifted;
        let mut dist = 1usize;
        while dist < n {
            if r + dist < n {
                // Rank 0 has nothing to contribute; send a marker.
                self.coll_send(&prefix, r + dist, tag2);
            }
            if r >= dist {
                let theirs: Option<T> = self.coll_recv(r - dist, tag2);
                prefix = match (theirs, prefix) {
                    (Some(t), Some(p)) => Some(op.combine(&t, &p)),
                    (None, p) => p,
                    (t, None) => t,
                };
            }
            dist *= 2;
        }
        prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn sum(a: &u64, b: &u64) -> u64 {
        a + b
    }

    #[test]
    fn barrier_completes() {
        for n in [1, 2, 3, 5, 8] {
            let out = Universe::run(n, |comm| {
                comm.barrier();
                comm.barrier();
                comm.rank()
            });
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1, 2, 3, 4, 7] {
            for root in 0..n {
                let out = Universe::run(n, move |comm| {
                    let v = if comm.rank() == root {
                        Some(99u32 + root as u32)
                    } else {
                        None
                    };
                    comm.bcast(v, root)
                });
                assert!(
                    out.iter().all(|&v| v == 99 + root as u32),
                    "n={n} root={root}"
                );
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Universe::run(5, |comm| comm.gather(&(comm.rank() * 10), 2));
        for (r, res) in out.iter().enumerate() {
            if r == 2 {
                assert_eq!(res.as_ref().unwrap(), &vec![0, 10, 20, 30, 40]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes() {
        let out = Universe::run(4, |comm| {
            let v = if comm.rank() == 0 {
                Some(vec![100usize, 101, 102, 103])
            } else {
                None
            };
            comm.scatter(v, 0)
        });
        assert_eq!(out, vec![100, 101, 102, 103]);
    }

    #[test]
    fn reduce_sum_and_roots() {
        for root in 0..4 {
            let out = Universe::run(4, move |comm| comm.reduce(comm.rank() as u64, &sum, root));
            for (r, res) in out.iter().enumerate() {
                if r == root {
                    assert_eq!(*res, Some(6));
                } else {
                    assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn reduce_respects_rank_order_for_noncommutative_op() {
        // String concatenation is associative but not commutative.
        let concat = |a: &String, b: &String| format!("{a}{b}");
        let out = Universe::run(5, move |comm| {
            comm.reduce(comm.rank().to_string(), &concat, 0)
        });
        assert_eq!(out[0].as_deref(), Some("01234"));
    }

    #[test]
    fn allreduce_xor() {
        let out = Universe::run(6, |comm| comm.allreduce(1u8 << comm.rank(), &ops::bxor));
        for v in out {
            assert_eq!(v, 0b111111);
        }
    }

    #[test]
    fn allreduce_max() {
        let out = Universe::run(5, |comm| {
            comm.allreduce(comm.rank() as i64 * 3 - 4, &|a: &i64, b: &i64| *a.max(b))
        });
        for v in out {
            assert_eq!(v, 8);
        }
    }

    #[test]
    fn exscan_respects_rank_order() {
        let concat = |a: &String, b: &String| format!("{a}{b}");
        let out = Universe::run(5, move |comm| comm.exscan(comm.rank().to_string(), &concat));
        let want = [None, Some("0"), Some("01"), Some("012"), Some("0123")];
        assert_eq!(out.iter().map(Option::as_deref).collect::<Vec<_>>(), want);
    }

    #[test]
    fn exscan_prefix_xor_matches_paper_usage() {
        // The Section 7.1 fixup: node k applies X^(r_1 xor ... xor r_{k-1}).
        for n in [2, 3, 5, 8] {
            let out = Universe::run(n, |comm| {
                let r = (comm.rank() % 2) as u8; // pretend parity outcomes
                comm.exscan(r, &ops::bxor)
            });
            let mut expect = Vec::new();
            let mut acc: Option<u8> = None;
            for r in 0..n {
                expect.push(acc);
                let v = (r % 2) as u8;
                acc = Some(acc.map_or(v, |a| a ^ v));
            }
            assert_eq!(out, expect, "n={n}");
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Interleave several collectives to exercise tag sequencing.
        let out = Universe::run(4, |comm| {
            let s = comm.allreduce(comm.rank() as u64, &sum);
            comm.barrier();
            let g = comm.bcast(comm.gather(&s, 0), 0);
            let x = comm.exscan(1u64, &sum);
            (s, g, x)
        });
        for (r, (s, g, x)) in out.into_iter().enumerate() {
            assert_eq!(s, 6);
            assert_eq!(g, vec![6, 6, 6, 6]);
            assert_eq!(x, (r > 0).then_some(r as u64));
        }
    }
}
