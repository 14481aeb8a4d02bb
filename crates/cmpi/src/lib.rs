//! # cmpi — classical message-passing substrate
//!
//! An in-process MPI: ranks are threads, mailboxes replace the network, and
//! the MPI semantics QMPI depends on (Section 4.1 of the paper: "QMPI
//! leverages MPI for classical communication") are implemented faithfully —
//! `(source, tag)` matching with wildcards, non-overtaking delivery,
//! non-blocking receives, communicator contexts (`dup`), and the
//! collectives QMPI calls, including the `MPI_Exscan` the cat-state
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
pub use comm::{Communicator, RecvRequest, Status, World};
pub use encode::{from_bytes, to_bytes, Decode, Encode};
pub use mailbox::{Envelope, Mailbox, SourceSel, Tag, TagSel};
pub use transport::{FrameHeader, TransportKind, WireListener, WireStream};
pub use universe::Universe;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::time::Duration;

    /// Delay class 0 waits not at all, 1 a few microseconds (inside a
    /// receiver's spin), 2 and 3 long enough for a receiver to park.
    fn pause(class: u64) {
        match class {
            0 => {}
            1 => {
                let t = std::time::Instant::now();
                while t.elapsed() < Duration::from_micros(3) {
                    std::hint::spin_loop();
                }
            }
            2 => std::thread::sleep(Duration::from_micros(60)),
            _ => std::thread::sleep(Duration::from_micros(300)),
        }
    }

    /// splitmix64: the per-rank stream of receive choices.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn allreduce_sum_matches_serial(values in proptest::collection::vec(0u32..1000, 2..6)) {
            let n = values.len();
            let vals = std::sync::Arc::new(values.clone());
            let out = Universe::run(n, move |comm| {
                comm.allreduce(vals[comm.rank()] as u64, &|a: &u64, b: &u64| a + b)
            });
            let expect: u64 = values.iter().map(|&v| v as u64).sum();
            prop_assert!(out.into_iter().all(|v| v == expect));
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

        /// Exactly-once, per-class FIFO delivery under random selectors.
        /// Random delays before sends and receives put receives on both
        /// the spin path and the park path; every receive has a deadline,
        /// so a lost wakeup fails the case instead of hanging it.
        #[test]
        fn handoffs_are_exactly_once_and_fifo(
            n in 2usize..7,
            // (source, destination, context, tag, delay class)
            sends in proptest::collection::vec(
                (0usize..6, 0usize..6, 0usize..2, 0u32..3, 0u64..4),
                1..40,
            ),
            seed in any::<u64>(),
        ) {
            let plan: Vec<_> = sends
                .iter()
                .map(|&(s, d, c, t, w)| (s % n, d % n, c, t, w))
                .collect();
            let plan = std::sync::Arc::new(plan);
            let out = Universe::run(n, move |world| {
                let dup = world.dup();
                let comms = [&world, &dup];
                let me = world.rank();
                let mut seq = HashMap::new();
                for &(_, dest, ctx, tag, delay) in plan.iter().filter(|m| m.0 == me) {
                    pause(delay);
                    let next_seq = seq.entry((ctx, dest, tag)).or_insert(0u64);
                    comms[ctx].send(next_seq, dest, tag);
                    *next_seq += 1;
                }
                // Each selector generalises a message still outstanding, so
                // it always has something to match.
                let mut outstanding: Vec<(usize, usize, Tag)> = plan
                    .iter()
                    .filter(|m| m.1 == me)
                    .map(|&(source, _, ctx, tag, _)| (ctx, source, tag))
                    .collect();
                let mut rng = seed ^ (me as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                let mut got = Vec::new();
                while !outstanding.is_empty() {
                    let pick = next(&mut rng) as usize % outstanding.len();
                    let (ctx, source, tag) = outstanding[pick];
                    let r = next(&mut rng);
                    let source_sel = if r & 1 == 0 {
                        SourceSel::Rank(source)
                    } else {
                        SourceSel::Any
                    };
                    let tag_sel = if r & 2 == 0 { TagSel::Tag(tag) } else { TagSel::Any };
                    pause((r >> 2) % 4);
                    let (s, status) = comms[ctx]
                        .recv_timeout::<u64>(source_sel, tag_sel, Duration::from_secs(30))
                        .expect("a receive timed out: lost wakeup");
                    let class = (ctx, status.source, status.tag);
                    let i = outstanding
                        .iter()
                        .position(|&m| m == class)
                        .expect("a message arrived that was never sent or was already taken");
                    outstanding.swap_remove(i);
                    got.push((class, s));
                }
                world.barrier();
                let leftover = comms
                    .iter()
                    .any(|c| c.irecv::<u64>(SourceSel::Any, TagSel::Any).test().is_some());
                (got, leftover)
            });
            for (got, leftover) in out {
                prop_assert!(!leftover, "a message was delivered twice");
                let mut expect = HashMap::new();
                for (class, s) in got {
                    let e = expect.entry(class).or_insert(0u64);
                    prop_assert_eq!(s, *e, "out of order in class {:?}", class);
                    *e += 1;
                }
            }
        }
    }
}
