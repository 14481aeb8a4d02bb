//! Communicators and point-to-point operations.
//!
//! A [`Communicator`] names an ordered group of ranks plus a private context
//! id, so traffic in different communicators can never match (as required by
//! MPI semantics). `QMPI_COMM_WORLD` from the paper corresponds to the world
//! communicator handed to each rank by [`crate::universe::Universe::run`].

use crate::encode::{from_bytes, to_bytes, Decode, Encode};
use crate::mailbox::{Envelope, Mailbox, SourceSel, Tag, TagSel};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared per-world state: one mailbox per world rank plus traffic counters.
pub struct World {
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
    next_context: AtomicU64,
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
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
            messages_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            aborted_by: OnceLock::new(),
        })
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// Total messages sent so far (all communicators).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent so far (all communicators).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
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
    /// Payload size in bytes.
    pub bytes: usize,
}

/// An ordered group of ranks with a private matching context.
pub struct Communicator {
    world: Arc<World>,
    /// Context id for point-to-point traffic.
    context: u64,
    /// Context id for collective traffic (context + 1).
    coll_context: u64,
    /// comm rank -> world rank.
    members: Arc<Vec<usize>>,
    /// This rank's position within `members`.
    rank: usize,
    /// Per-rank collective sequence number; identical across ranks because
    /// MPI requires collectives to be invoked in the same order on every rank.
    coll_seq: Cell<u32>,
}

impl Communicator {
    /// Builds the world communicator for `rank` over `world`.
    pub fn world(world: Arc<World>, rank: usize) -> Self {
        let n = world.size();
        Communicator {
            world,
            context: 0,
            coll_context: 1,
            members: Arc::new((0..n).collect()),
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
        self.members.len()
    }

    /// The underlying shared world (for traffic statistics).
    pub fn world_handle(&self) -> &Arc<World> {
        &self.world
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    fn mailbox_of(&self, comm_rank: usize) -> &Mailbox {
        &self.world.mailboxes[self.members[comm_rank]]
    }

    fn deliver(&self, dest: usize, context: u64, tag: Tag, payload: bytes::Bytes) {
        assert!(
            dest < self.size(),
            "destination rank {dest} out of range (size {})",
            self.size()
        );
        self.world.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.world
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
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
        let env = self.world.mailboxes[self.members[self.rank]].pop_matching(
            self.context,
            source.into(),
            tag.into(),
        );
        let status = Status {
            source: env.source,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        let value = from_bytes(&env.payload)
            .expect("message payload failed to decode: type mismatch between send and recv");
        (value, status)
    }

    /// Blocking receive with a deadline; `None` when no matching message
    /// arrives within `timeout`. This is the watchdog primitive used by
    /// long-lived shard workers and their controller: a peer that died or
    /// deadlocked turns into a diagnosable timeout instead of a CI hang.
    pub fn recv_timeout<T: Decode>(
        &self,
        source: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
        timeout: std::time::Duration,
    ) -> Option<(T, Status)> {
        let env = self.world.mailboxes[self.members[self.rank]].pop_matching_timeout(
            self.context,
            source.into(),
            tag.into(),
            timeout,
        )?;
        let status = Status {
            source: env.source,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        let value = from_bytes(&env.payload)
            .expect("message payload failed to decode: type mismatch between send and recv");
        Some((value, status))
    }

    /// Combined send+receive (MPI_Sendrecv): posts the send, then receives.
    pub fn sendrecv<S: Encode, R: Decode>(
        &self,
        send_value: &S,
        dest: usize,
        send_tag: Tag,
        source: impl Into<SourceSel>,
        recv_tag: impl Into<TagSel>,
    ) -> (R, Status) {
        self.send(send_value, dest, send_tag);
        self.recv(source, recv_tag)
    }

    /// Non-blocking send. With buffered delivery the operation completes
    /// immediately; a request is returned for symmetry with MPI.
    pub fn isend<T: Encode + ?Sized>(&self, value: &T, dest: usize, tag: Tag) -> SendRequest {
        self.send(value, dest, tag);
        SendRequest { _done: true }
    }

    /// Non-blocking receive; completes on [`RecvRequest::wait`] or a
    /// successful [`RecvRequest::test`].
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

    /// Non-destructively checks for a matching incoming message
    /// (MPI_Iprobe). Returns `(source, tag, bytes)`.
    pub fn iprobe(
        &self,
        source: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Option<(usize, Tag, usize)> {
        self.world.mailboxes[self.members[self.rank]].probe(self.context, source.into(), tag.into())
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
        let env = self.world.mailboxes[self.members[self.rank]].pop_matching(
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
            members: Arc::clone(&self.members),
            rank: self.rank,
            coll_seq: Cell::new(0),
        }
    }

    /// Splits the communicator by `color`, ordering ranks by `(key, rank)`
    /// (MPI_Comm_split). Collective over all ranks. Returns `None` for
    /// ranks passing `color == None` (MPI_UNDEFINED).
    pub fn split(&self, color: Option<u64>, key: i64) -> Option<Communicator> {
        let tag = self.next_coll_tag();
        // Gather (color, key) from everyone at rank 0, which assigns contexts.
        let my_entry = (color.is_some(), color.unwrap_or(0), key);
        let assignments: Vec<(bool, u64, i64)> = if self.rank == 0 {
            let mut all = vec![my_entry];
            for r in 1..self.size() {
                let env = self.world.mailboxes[self.members[self.rank]].pop_matching(
                    self.coll_context,
                    SourceSel::Rank(r),
                    TagSel::Tag(tag),
                );
                all.push(from_bytes(&env.payload).expect("split payload"));
            }
            for r in 1..self.size() {
                self.coll_send(&all, r, tag);
            }
            all
        } else {
            self.coll_send(&my_entry, 0, tag);
            self.coll_recv(0, tag)
        };
        // Contexts per color: rank 0 allocates one pair per distinct color and
        // broadcasts the mapping.
        let mut colors: Vec<u64> = assignments
            .iter()
            .filter(|(some, _, _)| *some)
            .map(|(_, c, _)| *c)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        let tag2 = self.next_coll_tag();
        let contexts: Vec<u64> = if self.rank == 0 {
            let ctxs: Vec<u64> = colors
                .iter()
                .map(|_| self.world.alloc_context_pair())
                .collect();
            for r in 1..self.size() {
                self.coll_send(&ctxs, r, tag2);
            }
            ctxs
        } else {
            self.coll_recv(0, tag2)
        };
        let my_color = color?;
        let color_idx = colors.binary_search(&my_color).expect("own color present");
        let ctx = contexts[color_idx];
        // Build the new member list ordered by (key, old rank).
        let mut group: Vec<(i64, usize)> = assignments
            .iter()
            .enumerate()
            .filter(|(_, (some, c, _))| *some && *c == my_color)
            .map(|(r, (_, _, k))| (*k, r))
            .collect();
        group.sort_unstable();
        let members: Vec<usize> = group.iter().map(|&(_, r)| self.members[r]).collect();
        let new_rank = group
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("own rank in group");
        Some(Communicator {
            world: Arc::clone(&self.world),
            context: ctx,
            coll_context: ctx + 1,
            members: Arc::new(members),
            rank: new_rank,
            coll_seq: Cell::new(0),
        })
    }
}

/// Handle for a non-blocking send (always complete under buffered delivery).
#[derive(Debug)]
pub struct SendRequest {
    _done: bool,
}

impl SendRequest {
    /// Blocks until the send completes (immediately).
    pub fn wait(self) {}

    /// Tests for completion (always true).
    pub fn test(&self) -> bool {
        true
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
    /// Blocks until a matching message arrives.
    pub fn wait(self) -> (T, Status) {
        self.comm.recv(self.source, self.tag)
    }

    /// Completes the receive if a matching message has already arrived.
    pub fn test(&self) -> Option<(T, Status)> {
        let env = self.comm.world.mailboxes[self.comm.members[self.comm.rank]].try_pop_matching(
            self.comm.context,
            self.source,
            self.tag,
        )?;
        let status = Status {
            source: env.source,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        let value = from_bytes(&env.payload).expect("message payload failed to decode");
        Some((value, status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

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
    fn sendrecv_exchanges() {
        let out = Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            let (theirs, _) = comm.sendrecv::<usize, usize>(&comm.rank(), peer, 3, peer, 3);
            theirs
        });
        assert_eq!(out, vec![1, 0]);
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
    fn irecv_test_and_wait() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                comm.send(&123u32, 1, 0);
                0
            } else {
                let req = comm.irecv::<u32>(0, 0);
                // May or may not be there yet; wait() must return it regardless.
                let (v, _) = req.wait();
                v
            }
        });
        assert_eq!(out[1], 123);
    }

    #[test]
    fn iprobe_sees_pending_message() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&5u8, 1, 9);
                comm.recv::<()>(1, 1);
                true
            } else {
                // Wait for the probe to succeed.
                loop {
                    if let Some((src, tag, len)) = comm.iprobe(SourceSel::Any, TagSel::Any) {
                        assert_eq!((src, tag, len), (0, 9, 1));
                        break;
                    }
                    std::thread::yield_now();
                }
                let (v, _) = comm.recv::<u8>(0, 9);
                comm.send(&(), 0, 1);
                v == 5
            }
        });
        assert!(out[0] && out[1]);
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

    #[test]
    fn split_into_even_odd() {
        let out = Universe::run(6, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(Some(color), comm.rank() as i64).unwrap();
            // Even ranks 0,2,4 -> subranks 0,1,2; odd 1,3,5 -> 0,1,2.
            (sub.rank(), sub.size())
        });
        assert_eq!(out[0], (0, 3));
        assert_eq!(out[2], (1, 3));
        assert_eq!(out[4], (2, 3));
        assert_eq!(out[1], (0, 3));
        assert_eq!(out[3], (1, 3));
        assert_eq!(out[5], (2, 3));
    }

    #[test]
    fn split_subcomm_communicates() {
        let out = Universe::run(4, |comm| {
            let color = (comm.rank() / 2) as u64;
            let sub = comm.split(Some(color), 0).unwrap();
            if sub.rank() == 0 {
                sub.send(&(comm.rank() * 10), 1, 0);
                comm.rank() * 10
            } else {
                sub.recv::<usize>(0, 0).0
            }
        });
        assert_eq!(out, vec![0, 0, 20, 20]);
    }

    #[test]
    fn split_with_undefined_color() {
        let out = Universe::run(3, |comm| {
            let color = if comm.rank() == 2 { None } else { Some(0) };
            match comm.split(color, 0) {
                Some(sub) => sub.size(),
                None => 0,
            }
        });
        assert_eq!(out, vec![2, 2, 0]);
    }

    #[test]
    fn traffic_counters_increase() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&vec![0u8; 100], 1, 0);
            } else {
                comm.recv::<Vec<u8>>(0, 0);
            }
            (
                comm.world_handle().messages_sent(),
                comm.world_handle().bytes_sent(),
            )
        });
        assert!(out[1].0 >= 1);
        assert!(out[1].1 >= 100);
    }
}
