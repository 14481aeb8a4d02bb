//! Per-rank mailboxes with MPI-style `(context, source, tag)` matching.
//!
//! Every rank owns one mailbox; senders push envelopes into the receiver's
//! mailbox and receivers wait until a matching envelope arrives. Matching
//! supports `MPI_ANY_SOURCE` / `MPI_ANY_TAG` wildcards and is FIFO per
//! (context, source, tag) triple, which gives the non-overtaking guarantee
//! of the MPI standard.
//!
//! ## Spin, then park
//!
//! A blocking receive that finds no match spins before it sleeps. It does
//! not hold the queue lock while it spins: it watches the mailbox's change
//! counter, which every push bumps, and re-scans the queue only when that
//! counter has moved. Ranks are threads and usually outnumber the cores,
//! so the spin yields the core every `YIELD_EVERY` (16) iterations. It
//! ends after the mailbox's budget of iterations or `SPIN_CAP` (20 µs) of
//! wall time, whichever comes first, and the receiver then parks on a
//! condition variable.
//!
//! The budget follows how soon this mailbox's messages arrive. A receive
//! its spin satisfied doubles it, up to `SPIN_CEILING` (4 096); a receive
//! that had to park halves it, down to `SPIN_FLOOR` (64). A rank that
//! waits behind a long kernel sweep or a socket round on another rank
//! therefore parks almost at once and leaves the core to the thread it
//! waits for.
//!
//! ## Parked-only wake
//!
//! `push` signals the condition variable only when a receiver is parked.
//! No wakeup is lost, because the parked count lives under the queue lock
//! beside the queue. A receiver re-checks the change counter (re-scanning
//! if it moved) and counts itself parked in one critical section, and
//! `wait` releases the lock atomically; `push` appends and reads the count
//! in one critical section. A push therefore either lands before the
//! receiver's last scan, which sees it, or finds the receiver counted, and
//! wakes it. `push` wakes every parked receiver, not one: receivers with
//! different selectors may be parked on one mailbox, and the one a message
//! matches need not be the one a single wake would pick.
//!
//! ## Aborted worlds
//!
//! When a rank of a [`crate::Universe::run`] world panics, the world marks
//! each of its mailboxes aborted and wakes their receivers. A blocking
//! receive on an aborted mailbox that finds no match panics, naming the
//! dead rank, instead of waiting for a message that will never come.

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Message tag type (non-negative, like MPI tags).
pub type Tag = u32;

/// Source selector for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceSel {
    /// Match messages from one specific rank.
    Rank(usize),
    /// Match messages from any rank (MPI_ANY_SOURCE).
    Any,
}

impl From<usize> for SourceSel {
    fn from(r: usize) -> Self {
        SourceSel::Rank(r)
    }
}

/// Tag selector for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagSel {
    /// Match one specific tag.
    Tag(Tag),
    /// Match any tag (MPI_ANY_TAG).
    Any,
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Tag(t)
    }
}

/// A queued message.
#[derive(Clone, Debug, Default)]
pub struct Envelope {
    /// Communicator context id (segregates traffic between communicators).
    pub context: u64,
    /// Sending rank *within that communicator*.
    pub source: usize,
    /// Message tag.
    pub tag: Tag,
    /// Serialized payload.
    pub payload: Bytes,
}

impl Envelope {
    fn matches(&self, context: u64, source: SourceSel, tag: TagSel) -> bool {
        if self.context != context {
            return false;
        }
        if let SourceSel::Rank(r) = source {
            if self.source != r {
                return false;
            }
        }
        if let TagSel::Tag(t) = tag {
            if self.tag != t {
                return false;
            }
        }
        true
    }
}

// The four constants come from sweeps on the ping-pong probe and on
// qperf's protocol and TFIM workloads, in-process and over sockets: of
// the cap (no spin, 5, 10, 20, 40 and 80 µs) and of the yield period (8,
// 16, 32 and 64). A longer cap buys little more on pure handoffs and
// starts to take cores from the socket-bound workloads' worker
// processes; yielding more often than every 64 iterations helped the
// in-process handoffs and cost the socket-bound workloads nothing. One
// iteration is ~20 ns, so the ceiling is ~90 µs and the time cap is what
// binds.

/// Fewest spin iterations a receive makes before it parks.
const SPIN_FLOOR: u32 = 64;
/// Most spin iterations a receive makes before it parks.
const SPIN_CEILING: u32 = 4096;
/// A spinning receive yields the core once every this many iterations.
const YIELD_EVERY: u32 = 16;
/// Longest a receive spins, whatever its budget.
const SPIN_CAP: Duration = Duration::from_micros(20);

/// What the queue lock guards.
#[derive(Default)]
struct Inbox {
    queue: VecDeque<Envelope>,
    /// Receivers waiting on [`Mailbox::arrived`].
    parked: usize,
    /// The world rank whose panic aborted this mailbox's world.
    aborted_by: Option<usize>,
}

impl Inbox {
    fn take(&mut self, context: u64, source: SourceSel, tag: TagSel) -> Option<Envelope> {
        let idx = self
            .queue
            .iter()
            .position(|e| e.matches(context, source, tag))?;
        self.queue.remove(idx)
    }

    /// A blocking receive's scan: the first match, or a panic if the world
    /// is aborted and nothing matches.
    fn scan(&mut self, context: u64, source: SourceSel, tag: TagSel) -> Option<Envelope> {
        let env = self.take(context, source, tag);
        if let (None, Some(dead)) = (&env, self.aborted_by) {
            panic!(
                "rank {dead} of this world panicked; no message for \
                 (context {context}, source {source:?}, tag {tag:?}) will arrive"
            );
        }
        env
    }
}

/// A rank's incoming-message queue.
pub struct Mailbox {
    inbox: Mutex<Inbox>,
    arrived: Condvar,
    /// Bumped under the lock by every push and by an abort; stored with
    /// `Release` so a spinning receiver sees it move without the lock.
    changes: AtomicU64,
    /// Spin budget in iterations, within `[SPIN_FLOOR, SPIN_CEILING]`.
    budget: AtomicU32,
    /// Receives that parked (read by the tests, which pin when a receive
    /// spins and when it sleeps).
    parks: AtomicU64,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox {
            inbox: Mutex::default(),
            arrived: Condvar::new(),
            changes: AtomicU64::new(0),
            budget: AtomicU32::new(SPIN_CEILING),
            parks: AtomicU64::new(0),
        }
    }
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivers an envelope (called by the *sender*).
    pub fn push(&self, env: Envelope) {
        let mut inbox = self.inbox.lock();
        inbox.queue.push_back(env);
        self.changes.fetch_add(1, Ordering::Release);
        let wake = inbox.parked > 0;
        drop(inbox);
        if wake {
            self.arrived.notify_all();
        }
    }

    /// Marks this mailbox's world as failed by world rank `rank` and wakes
    /// every receiver. The first abort's rank is kept.
    pub(crate) fn abort(&self, rank: usize) {
        let mut inbox = self.inbox.lock();
        inbox.aborted_by.get_or_insert(rank);
        self.changes.fetch_add(1, Ordering::Release);
        drop(inbox);
        self.arrived.notify_all();
    }

    /// Removes and returns the first matching envelope, blocking until one
    /// arrives.
    ///
    /// Panics, naming the dead rank, if the mailbox's world is aborted and
    /// no matching envelope is queued.
    pub fn pop_matching(&self, context: u64, source: SourceSel, tag: TagSel) -> Envelope {
        loop {
            // Without a deadline `receive` returns only with an envelope.
            if let Some(env) = self.receive(context, source, tag, None, SPIN_CAP) {
                return env;
            }
        }
    }

    /// Non-blocking variant of [`Mailbox::pop_matching`].
    pub fn try_pop_matching(
        &self,
        context: u64,
        source: SourceSel,
        tag: TagSel,
    ) -> Option<Envelope> {
        self.inbox.lock().take(context, source, tag)
    }

    /// Blocking pop with a timeout; `None` on expiry. A pipe read with a
    /// deadline is one.
    ///
    /// Panics like [`Mailbox::pop_matching`] on an aborted world.
    pub fn pop_matching_timeout(
        &self,
        context: u64,
        source: SourceSel,
        tag: TagSel,
        timeout: Duration,
    ) -> Option<Envelope> {
        let deadline = Some(Instant::now() + timeout);
        self.receive(context, source, tag, deadline, SPIN_CAP)
    }

    /// The blocking receive: scan, spin for at most `spin_cap`, then park
    /// until a match arrives or `deadline` passes. See the
    /// [module docs](self).
    fn receive(
        &self,
        context: u64,
        source: SourceSel,
        tag: TagSel,
        deadline: Option<Instant>,
        spin_cap: Duration,
    ) -> Option<Envelope> {
        // `seen` is the change count at the last scan.
        let mut seen;
        {
            let mut inbox = self.inbox.lock();
            seen = self.changes.load(Ordering::Relaxed);
            if let Some(env) = inbox.scan(context, source, tag) {
                return Some(env);
            }
        }

        let budget = self.budget.load(Ordering::Relaxed);
        let spin_end = Instant::now() + spin_cap;
        let spin_end = deadline.map_or(spin_end, |d| d.min(spin_end));
        for i in 1..=budget {
            if i % YIELD_EVERY == 0 {
                if Instant::now() >= spin_end {
                    break;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            if self.changes.load(Ordering::Acquire) != seen {
                let mut inbox = self.inbox.lock();
                seen = self.changes.load(Ordering::Relaxed);
                if let Some(env) = inbox.scan(context, source, tag) {
                    self.budget
                        .store((budget * 2).min(SPIN_CEILING), Ordering::Relaxed);
                    return Some(env);
                }
            }
        }

        let mut inbox = self.inbox.lock();
        let mut parked = false;
        loop {
            let now_seen = self.changes.load(Ordering::Relaxed);
            if now_seen != seen {
                seen = now_seen;
                if let Some(env) = inbox.scan(context, source, tag) {
                    return Some(env);
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            if !parked {
                parked = true;
                self.parks.fetch_add(1, Ordering::Relaxed);
                self.budget
                    .store((budget / 2).max(SPIN_FLOOR), Ordering::Relaxed);
            }
            inbox.parked += 1;
            match deadline {
                Some(d) => {
                    self.arrived.wait_until(&mut inbox, d);
                }
                None => self.arrived.wait(&mut inbox),
            }
            inbox.parked -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Number of queued messages.
    fn queued(mb: &Mailbox) -> usize {
        mb.inbox.lock().queue.len()
    }

    /// Number of receives so far that found no match within their spin and
    /// parked.
    fn parks(mb: &Mailbox) -> u64 {
        mb.parks.load(Ordering::Relaxed)
    }

    fn env(context: u64, source: usize, tag: Tag, byte: u8) -> Envelope {
        Envelope {
            context,
            source,
            tag,
            payload: Bytes::copy_from_slice(&[byte]),
        }
    }

    #[test]
    fn fifo_within_matching_class() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5, 10));
        mb.push(env(0, 1, 5, 20));
        let a = mb.pop_matching(0, SourceSel::Rank(1), TagSel::Tag(5));
        let b = mb.pop_matching(0, SourceSel::Rank(1), TagSel::Tag(5));
        assert_eq!(a.payload[0], 10);
        assert_eq!(b.payload[0], 20);
    }

    #[test]
    fn tag_matching_skips_non_matching() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5, 10));
        mb.push(env(0, 1, 6, 20));
        let b = mb.pop_matching(0, SourceSel::Rank(1), TagSel::Tag(6));
        assert_eq!(b.payload[0], 20);
        assert_eq!(queued(&mb), 1);
    }

    #[test]
    fn any_source_any_tag() {
        let mb = Mailbox::new();
        mb.push(env(0, 3, 9, 42));
        let e = mb.pop_matching(0, SourceSel::Any, TagSel::Any);
        assert_eq!(e.source, 3);
        assert_eq!(e.tag, 9);
    }

    #[test]
    fn context_segregation() {
        let mb = Mailbox::new();
        mb.push(env(7, 0, 0, 1));
        assert!(mb
            .try_pop_matching(8, SourceSel::Any, TagSel::Any)
            .is_none());
        assert!(mb
            .try_pop_matching(7, SourceSel::Any, TagSel::Any)
            .is_some());
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            mb2.pop_matching(0, SourceSel::Rank(0), TagSel::Tag(1))
                .payload[0]
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.push(env(0, 0, 1, 77));
        assert_eq!(handle.join().unwrap(), 77);
    }

    #[test]
    fn timeout_expires_when_no_match() {
        let mb = Mailbox::new();
        mb.push(env(0, 0, 1, 1));
        let r = mb.pop_matching_timeout(
            0,
            SourceSel::Rank(0),
            TagSel::Tag(2),
            Duration::from_millis(30),
        );
        assert!(r.is_none());
        assert_eq!(queued(&mb), 1);
    }

    /// Waits until `mb` has counted `n` parked receives. A receiver bumps
    /// the count under the queue lock and holds it until `wait` releases
    /// it, so a push made after this returns finds the receiver parked.
    fn await_parks(mb: &Mailbox, n: u64) {
        while parks(mb) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn every_parked_receiver_wakes_on_a_push() {
        // Two receivers with different selectors park on one mailbox. The
        // push for the receiver that parked second must reach it, although
        // a single wake would pick the one that parked first.
        let mb = Mailbox::new();
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                mb.pop_matching_timeout(0, SourceSel::Any, TagSel::Tag(1), Duration::from_secs(30))
            });
            await_parks(&mb, 1);
            let second = s.spawn(|| {
                mb.pop_matching_timeout(0, SourceSel::Any, TagSel::Tag(2), Duration::from_secs(30))
            });
            await_parks(&mb, 2);
            mb.push(env(0, 0, 2, 20));
            let got = second.join().unwrap().expect("second receiver woke");
            assert_eq!(got.payload[0], 20);
            mb.push(env(0, 0, 1, 10));
            let got = first.join().unwrap().expect("first receiver woke");
            assert_eq!(got.payload[0], 10);
        });
    }

    #[test]
    fn a_deadline_inside_the_spin_returns_none_without_parking() {
        let mb = Mailbox::new();
        let timeout = SPIN_CAP / 4;
        let start = Instant::now();
        let r = mb.pop_matching_timeout(0, SourceSel::Any, TagSel::Any, timeout);
        let overrun = start.elapsed().saturating_sub(timeout);
        assert!(r.is_none());
        assert_eq!(
            parks(&mb),
            0,
            "the receive parked although its deadline had passed"
        );
        assert!(
            overrun < Duration::from_millis(50),
            "overran the deadline by {overrun:?}"
        );
    }

    #[test]
    fn a_message_pushed_during_the_spin_is_taken_without_parking() {
        let mb = Mailbox::new();
        let go = std::sync::Barrier::new(2);
        // A spin of a minute and 2^30 iterations outlasts a push 1 ms after
        // the barrier however the threads are scheduled. Only a receiver
        // descheduled for that whole millisecond before its first scan
        // takes the message without spinning (leaving the budget as it
        // was), so that case retries; a spin-satisfied receive doubles the
        // budget, to the ceiling.
        let budget = 1 << 30;
        for _ in 0..100 {
            mb.budget.store(budget, Ordering::Relaxed);
            let got = std::thread::scope(|s| {
                let rx = s.spawn(|| {
                    go.wait();
                    let (rank, tag) = (SourceSel::Rank(0), TagSel::Tag(1));
                    mb.receive(0, rank, tag, None, Duration::from_secs(60))
                });
                go.wait();
                std::thread::sleep(Duration::from_millis(1));
                mb.push(env(0, 0, 1, 7));
                rx.join().unwrap()
            });
            assert_eq!(got.expect("a receive without deadline").payload[0], 7);
            assert_eq!(parks(&mb), 0, "the receive parked");
            if mb.budget.load(Ordering::Relaxed) != budget {
                assert_eq!(mb.budget.load(Ordering::Relaxed), SPIN_CEILING);
                return;
            }
        }
        panic!("in 100 handoffs the receiver never reached its spin");
    }

    #[test]
    fn a_park_halves_the_budget_down_to_the_floor() {
        let mb = Mailbox::new();
        assert_eq!(mb.budget.load(Ordering::Relaxed), SPIN_CEILING);
        std::thread::scope(|s| {
            let rx = s.spawn(|| mb.pop_matching(0, SourceSel::Any, TagSel::Any));
            await_parks(&mb, 1);
            mb.push(env(0, 0, 0, 1));
            rx.join().unwrap();
        });
        assert_eq!(mb.budget.load(Ordering::Relaxed), SPIN_CEILING / 2);
        mb.budget.store(SPIN_FLOOR, Ordering::Relaxed);
        std::thread::scope(|s| {
            let rx = s.spawn(|| mb.pop_matching(0, SourceSel::Any, TagSel::Any));
            await_parks(&mb, 2);
            mb.push(env(0, 0, 0, 1));
            rx.join().unwrap();
        });
        assert_eq!(
            mb.budget.load(Ordering::Relaxed),
            SPIN_FLOOR,
            "the floor holds"
        );
    }

    #[test]
    #[should_panic(expected = "rank 3 of this world panicked")]
    fn an_aborted_mailbox_fails_a_parked_receive() {
        let mb = Mailbox::new();
        std::thread::scope(|s| {
            let rx = s.spawn(|| mb.pop_matching(0, SourceSel::Rank(3), TagSel::Any));
            await_parks(&mb, 1);
            mb.abort(3);
            if let Err(payload) = rx.join() {
                std::panic::resume_unwind(payload);
            }
        });
    }

    #[test]
    fn an_aborted_mailbox_still_delivers_queued_matches() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 0, 5));
        mb.abort(3);
        assert_eq!(
            mb.pop_matching(0, SourceSel::Any, TagSel::Any).payload[0],
            5
        );
    }
}
