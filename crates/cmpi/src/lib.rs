//! # cmpi — classical message-passing substrate
//!
//! An in-process MPI: ranks are threads, mailboxes replace the network, and
//! the MPI semantics QMPI depends on (Section 4.1 of the paper: "QMPI
//! leverages MPI for classical communication") are implemented faithfully —
//! `(source, tag)` matching with wildcards, non-overtaking delivery,
//! non-blocking requests, communicator contexts (`dup`/`split`), and the
//! full set of collectives including the `MPI_Exscan` the cat-state
//! protocol of Section 7.1 relies on.
//!
//! See DESIGN.md substitution #1 for why an in-process transport preserves
//! everything the paper's prototype needs from MPI.

#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod encode;
pub mod mailbox;
pub mod transport;
pub mod universe;

pub use collectives::{ops, ReduceOp};
pub use comm::{Communicator, RecvRequest, SendRequest, Status, World};
pub use encode::{from_bytes, to_bytes, Decode, Encode};
pub use mailbox::{Envelope, Mailbox, SourceSel, Tag, TagSel};
pub use transport::{FrameHeader, TransportKind, WireListener, WireStream};
pub use universe::{Universe, WorkerGroup};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn allreduce_sum_matches_serial(values in proptest::collection::vec(0u32..1000, 2..6)) {
            let n = values.len();
            let vals = std::sync::Arc::new(values.clone());
            let out = Universe::run(n, move |comm| {
                comm.allreduce(vals[comm.rank()] as u64, &ops::sum)
            });
            let expect: u64 = values.iter().map(|&v| v as u64).sum();
            prop_assert!(out.into_iter().all(|v| v == expect));
        }

        #[test]
        fn scan_matches_serial_prefices(values in proptest::collection::vec(0u64..1000, 2..6)) {
            let n = values.len();
            let vals = std::sync::Arc::new(values.clone());
            let out = Universe::run(n, move |comm| comm.scan(vals[comm.rank()], &ops::sum));
            let mut acc = 0u64;
            for (r, v) in out.into_iter().enumerate() {
                acc += values[r];
                prop_assert_eq!(v, acc);
            }
        }

        #[test]
        fn bcast_delivers_payload(n in 2usize..6, root_sel in 0usize..6, payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            let root = root_sel % n;
            let p = std::sync::Arc::new(payload.clone());
            let out = Universe::run(n, move |comm| {
                let v = if comm.rank() == root { Some(p.as_ref().clone()) } else { None };
                comm.bcast(v, root)
            });
            prop_assert!(out.into_iter().all(|v| v == payload));
        }

        #[test]
        fn alltoall_is_transpose(n in 2usize..5) {
            let out = Universe::run(n, move |comm| {
                let row: Vec<u64> = (0..n).map(|c| (comm.rank() * n + c) as u64).collect();
                comm.alltoall(row)
            });
            for (r, row) in out.iter().enumerate() {
                for (s, &v) in row.iter().enumerate() {
                    prop_assert_eq!(v, (s * n + r) as u64);
                }
            }
        }
    }
}
