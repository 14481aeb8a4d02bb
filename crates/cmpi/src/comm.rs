//! Communicators and point-to-point operations.
//!
//! A [`Communicator`] names the world's ranks plus a private context id, so
//! traffic in different communicators (the world one and its `dup`s) can
//! never match (as required by MPI semantics). `QMPI_COMM_WORLD` from the
//! paper corresponds to the world communicator handed to each rank by
//! [`crate::universe::Universe::run`].

use crate::encode::{from_bytes, to_bytes, Decode, Encode};
use crate::mailbox::{Envelope, Mailbox, SourceSel, Tag, TagSel};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared per-world state: one mailbox per world rank.
pub struct World {
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
    next_context: AtomicU64,
    /// The first rank whose panic aborted the world.
    aborted_by: OnceLock<usize>,
}

impl World {
    /// Creates the shared state for `n` ranks.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(World {
            mailboxes: (0..n).map(|_| Arc::new(Mailbox::new())).collect(),
            // Context 0/1 are reserved for the world communicator (p2p/coll).
            next_context: AtomicU64::new(2),
            aborted_by: OnceLock::new(),
        })
    }

    /// Marks the world failed by world rank `rank` and wakes every
    /// receiver; a blocking receive that then finds no match panics naming
    /// the first rank to abort.
    pub(crate) fn abort(&self, rank: usize) {
        if self.aborted_by.set(rank).is_ok() {
            for mailbox in &self.mailboxes {
                mailbox.abort(rank);
            }
        }
    }

    /// The first rank whose panic aborted the world, if any.
    pub(crate) fn aborted_by(&self) -> Option<usize> {
        self.aborted_by.get().copied()
    }

    fn alloc_context_pair(&self) -> u64 {
        self.next_context.fetch_add(2, Ordering::Relaxed)
    }
}

/// Completion status of a receive (MPI_Status analogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    /// Rank (within the communicator) that sent the message.
    pub source: usize,
    /// Tag the message was sent with.
    pub tag: Tag,
}

/// The world's ranks under a private matching context.
pub struct Communicator {
    world: Arc<World>,
    /// Context id for point-to-point traffic.
    context: u64,
    /// Context id for collective traffic (context + 1).
    coll_context: u64,
    /// This rank's index in the world.
    rank: usize,
    /// Per-rank collective sequence number; identical across ranks because
    /// MPI requires collectives to be invoked in the same order on every rank.
    coll_seq: Cell<u32>,
}

impl Communicator {
    /// Builds the world communicator for `rank` over `world`.
    pub fn world(world: Arc<World>, rank: usize) -> Self {
        Communicator {
            world,
            context: 0,
            coll_context: 1,
            rank,
            coll_seq: Cell::new(0),
        }
    }

    /// This rank's id within the communicator (MPI_Comm_rank).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator (MPI_Comm_size).
    #[inline]
    pub fn size(&self) -> usize {
        self.world.mailboxes.len()
    }

    fn mailbox_of(&self, comm_rank: usize) -> &Mailbox {
        &self.world.mailboxes[comm_rank]
    }

    fn deliver(&self, dest: usize, context: u64, tag: Tag, payload: bytes::Bytes) {
        assert!(
            dest < self.size(),
            "destination rank {dest} out of range (size {})",
            self.size()
        );
        self.mailbox_of(dest).push(Envelope {
            context,
            source: self.rank,
            tag,
            payload,
        });
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Blocking send (buffered semantics; never deadlocks on its own).
    pub fn send<T: Encode + ?Sized>(&self, value: &T, dest: usize, tag: Tag) {
        self.deliver(dest, self.context, tag, to_bytes(value));
    }

    /// Blocking receive with wildcards; returns the value and its status.
    pub fn recv<T: Decode>(
        &self,
        source: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> (T, Status) {
        let env = self
            .mailbox_of(self.rank)
            .pop_matching(self.context, source.into(), tag.into());
        let status = Status {
            source: env.source,
            tag: env.tag,
        };
        let value = from_bytes(&env.payload)
            .expect("message payload failed to decode: type mismatch between send and recv");
        (value, status)
    }

    /// Non-blocking receive; completes on a successful
    /// [`RecvRequest::test`].
    pub fn irecv<T: Decode>(
        &self,
        source: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> RecvRequest<'_, T> {
        RecvRequest {
            comm: self,
            source: source.into(),
            tag: tag.into(),
            _marker: std::marker::PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Collective plumbing (used by collectives.rs)
    // ------------------------------------------------------------------

    /// Starts a collective operation, returning its private tag.
    pub(crate) fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        seq
    }

    /// Sends on the collective context.
    pub(crate) fn coll_send<T: Encode + ?Sized>(&self, value: &T, dest: usize, tag: Tag) {
        self.deliver(dest, self.coll_context, tag, to_bytes(value));
    }

    /// Receives on the collective context.
    pub(crate) fn coll_recv<T: Decode>(&self, source: usize, tag: Tag) -> T {
        let env = self.mailbox_of(self.rank).pop_matching(
            self.coll_context,
            SourceSel::Rank(source),
            TagSel::Tag(tag),
        );
        from_bytes(&env.payload).expect("collective payload failed to decode")
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Duplicates the communicator with a fresh context (MPI_Comm_dup).
    /// Collective over all ranks.
    pub fn dup(&self) -> Communicator {
        let tag = self.next_coll_tag();
        let ctx = if self.rank == 0 {
            let ctx = self.world.alloc_context_pair();
            for r in 1..self.size() {
                self.coll_send(&ctx, r, tag);
            }
            ctx
        } else {
            self.coll_recv::<u64>(0, tag)
        };
        Communicator {
            world: Arc::clone(&self.world),
            context: ctx,
            coll_context: ctx + 1,
            rank: self.rank,
            coll_seq: Cell::new(0),
        }
    }
}

/// Handle for a non-blocking receive.
pub struct RecvRequest<'a, T: Decode> {
    comm: &'a Communicator,
    source: SourceSel,
    tag: TagSel,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Decode> RecvRequest<'_, T> {
    /// Completes the receive if a matching message has already arrived.
    pub fn test(&self) -> Option<(T, Status)> {
        let env = self.comm.mailbox_of(self.comm.rank).try_pop_matching(
            self.comm.context,
            self.source,
            self.tag,
        )?;
        let status = Status {
            source: env.source,
            tag: env.tag,
        };
        let value = from_bytes(&env.payload).expect("message payload failed to decode");
        Some((value, status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    impl Communicator {
        /// Blocking receive with a deadline; `None` when no matching message
        /// arrives within `timeout`, so a test whose message is lost fails
        /// instead of hanging.
        pub(crate) fn recv_timeout<T: Decode>(
            &self,
            source: impl Into<SourceSel>,
            tag: impl Into<TagSel>,
            timeout: std::time::Duration,
        ) -> Option<(T, Status)> {
            let env = self.mailbox_of(self.rank).pop_matching_timeout(
                self.context,
                source.into(),
                tag.into(),
                timeout,
            )?;
            let status = Status {
                source: env.source,
                tag: env.tag,
            };
            let value = from_bytes(&env.payload)
                .expect("message payload failed to decode: type mismatch between send and recv");
            Some((value, status))
        }
    }

    #[test]
    fn rank_and_size() {
        let out = Universe::run(4, |comm| (comm.rank(), comm.size()));
        for (r, (rank, size)) in out.into_iter().enumerate() {
            assert_eq!(rank, r);
            assert_eq!(size, 4);
        }
    }

    #[test]
    fn ping_pong() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&41u32, 1, 0);
                let (v, st) = comm.recv::<u32>(1, 0);
                assert_eq!(st.source, 1);
                v
            } else {
                let (v, _) = comm.recv::<u32>(0, 0);
                comm.send(&(v + 1), 0, 0);
                v
            }
        });
        assert_eq!(out, vec![42, 41]);
    }

    #[test]
    fn wildcard_receive() {
        let out = Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let (v, st) = comm.recv::<usize>(SourceSel::Any, TagSel::Any);
                    assert_eq!(v, st.source);
                    seen.push(st.source);
                }
                seen.sort_unstable();
                seen
            } else {
                comm.send(&comm.rank(), 0, comm.rank() as Tag);
                vec![]
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    #[test]
    fn tagged_messages_do_not_overtake() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u32 {
                    comm.send(&i, 1, 7);
                }
                0
            } else {
                let mut last = None;
                for _ in 0..10 {
                    let (v, _) = comm.recv::<u32>(0, 7);
                    if let Some(prev) = last {
                        assert_eq!(v, prev + 1, "FIFO violated");
                    }
                    last = Some(v);
                }
                last.unwrap()
            }
        });
        assert_eq!(out[1], 9);
    }

    #[test]
    fn recv_timeout_delivers_or_expires() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&9u32, 1, 4);
                comm.recv::<()>(1, 5);
                0
            } else {
                // Wrong tag first: must expire without consuming the message.
                let miss = comm.recv_timeout::<u32>(0, 3, std::time::Duration::from_millis(20));
                assert!(miss.is_none());
                let (v, st) = comm
                    .recv_timeout::<u32>(0, 4, std::time::Duration::from_secs(5))
                    .expect("matching message pending");
                assert_eq!(st.source, 0);
                comm.send(&(), 0, 5);
                v
            }
        });
        assert_eq!(out[1], 9);
    }

    #[test]
    fn irecv_test_completes_once_the_message_arrives() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                comm.send(&123u32, 1, 0);
                0
            } else {
                let req = comm.irecv::<u32>(0, 0);
                // May or may not be there yet; test() takes it once it is.
                loop {
                    if let Some((v, st)) = req.test() {
                        assert_eq!(st.source, 0);
                        break v;
                    }
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(out[1], 123);
    }

    #[test]
    fn dup_segregates_traffic() {
        let out = Universe::run(2, |comm| {
            let dup = comm.dup();
            if comm.rank() == 0 {
                comm.send(&1u8, 1, 0);
                dup.send(&2u8, 1, 0);
                0
            } else {
                // Receive from the dup first: must get 2, not 1.
                let (v_dup, _) = dup.recv::<u8>(0, 0);
                let (v_orig, _) = comm.recv::<u8>(0, 0);
                assert_eq!(v_dup, 2);
                assert_eq!(v_orig, 1);
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }
}
