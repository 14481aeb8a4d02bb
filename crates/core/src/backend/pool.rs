//! The shard-worker lifecycle, written once: spawn → lease → reset →
//! home-or-shutdown.
//!
//! A *worker world* is `2^k` shard workers running [`super::remote`]'s
//! event loop plus the controller's connection to them. `WorkerLink` is
//! that connection and has exactly two shapes — threads over [`cmpi`]
//! mailboxes, `qworker` processes over framed sockets — so nothing above
//! it knows which one executes the qubits. A [`ShardLease`] is exclusive
//! use of one world; it either has a home ([`ShardWorkerPool`], to which
//! it returns the world still running) or none (a world spawned for one
//! engine, shut down when the lease drops). [`RemoteShardedEngine::from_lease`]
//! is the only consumer.
//!
//! [`RemoteShardedEngine::from_lease`]: super::RemoteShardedEngine::from_lease

use super::remote::{
    normalize_shards, rank_of, shard_worker, DeadWorker, ShardCmd, ShardReply, DEFAULT_WATCHDOG_MS,
    TAG_CMD, TAG_REPLY,
};
use super::remote_transport::ProcessLink;
use cmpi::{Communicator, SourceSel, TransportKind, Universe, WorkerGroup};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The controller's connection to one worker world (shard `s` is world rank
/// [`rank_of`]`(s)`).
pub(crate) enum WorkerLink {
    /// Worker threads in a private [`cmpi`] world.
    Threads {
        comm: Communicator,
        group: Option<WorkerGroup>,
        /// Milliseconds, shared with every worker's exchange waits.
        watchdog: Arc<AtomicU64>,
    },
    /// `qworker` child processes behind a socket transport. Boxed: the
    /// process link dwarfs the thread variant.
    Processes(Box<ProcessLink>),
}

impl WorkerLink {
    /// Spawns a world of `shards` workers (rounded by [`normalize_shards`])
    /// over `kind`, with the default watchdog ([`DEFAULT_WATCHDOG_MS`]).
    /// Only the multi-process kinds can fail.
    fn spawn(kind: TransportKind, shards: usize) -> io::Result<WorkerLink> {
        let shards = normalize_shards(shards);
        let watchdog = Arc::new(AtomicU64::new(DEFAULT_WATCHDOG_MS));
        if kind.is_multiprocess() {
            let link = ProcessLink::spawn(kind, shards, watchdog)?;
            return Ok(WorkerLink::Processes(Box::new(link)));
        }
        let worker_watchdog = Arc::clone(&watchdog);
        let (comm, group) = Universe::spawn_workers(shards, move |c| {
            shard_worker(c, Arc::clone(&worker_watchdog))
        });
        Ok(WorkerLink::Threads {
            comm,
            group: Some(group),
            watchdog,
        })
    }

    fn shards(&self) -> usize {
        match self {
            WorkerLink::Threads { comm, .. } => comm.size() - 1,
            WorkerLink::Processes(p) => p.shards(),
        }
    }

    /// The watchdog (milliseconds) bounding every blocking protocol wait
    /// on both sides of this link.
    pub(crate) fn watchdog(&self) -> &AtomicU64 {
        match self {
            WorkerLink::Threads { watchdog, .. } => watchdog,
            WorkerLink::Processes(p) => p.watchdog(),
        }
    }

    fn watchdog_now(&self) -> Duration {
        Duration::from_millis(self.watchdog().load(Ordering::Relaxed))
    }

    /// Sends one protocol command to shard `shard`'s worker.
    pub(crate) fn send_cmd(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        match self {
            WorkerLink::Threads { comm, .. } => {
                comm.send(cmd, rank_of(shard), TAG_CMD);
                Ok(())
            }
            WorkerLink::Processes(p) => p.send_cmd(shard, cmd),
        }
    }

    /// Awaits shard `shard`'s next reply, up to the watchdog. Thread links
    /// keep the historical contract: expiry panics with a diagnostic.
    /// Process links report a dead worker instead, and failover handles it.
    pub(crate) fn reply_from(
        &mut self,
        shard: usize,
        what: &str,
    ) -> Result<ShardReply, DeadWorker> {
        let wd = self.watchdog_now();
        match self {
            WorkerLink::Threads { comm, .. } => {
                match comm.recv_timeout::<ShardReply>(rank_of(shard), TAG_REPLY, wd) {
                    Some((r, _)) => Ok(r),
                    None => panic!(
                        "remote-shard watchdog: no {what} reply from shard {shard}'s worker \
                         within {wd:?}; the worker is presumed dead or deadlocked"
                    ),
                }
            }
            WorkerLink::Processes(p) => p.reply_from(shard, wd),
        }
    }

    /// Clears whatever protocol the link's last user left dangling, so the
    /// next scatter starts from a quiet world: thread links drain unread
    /// replies; process links replace a worker generation that failed or
    /// still owes replies.
    pub(crate) fn reset(&mut self) {
        match self {
            WorkerLink::Threads { comm, .. } => {
                while comm
                    .irecv::<ShardReply>(SourceSel::Any, TAG_REPLY)
                    .test()
                    .is_some()
                {}
            }
            WorkerLink::Processes(p) => p.reset(),
        }
    }

    /// Whether a worker of this link can die without taking the
    /// controller with it — i.e. whether checkpoint + replay is worth its
    /// bookkeeping.
    pub(crate) fn arms_failover(&self) -> bool {
        matches!(self, WorkerLink::Processes(_))
    }

    /// Bytes moved so far: mailbox payloads, or every frame once on the
    /// socket it crossed.
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            WorkerLink::Threads { comm, .. } => comm.world_handle().bytes_sent(),
            WorkerLink::Processes(p) => p.wire_bytes(),
        }
    }

    /// Worker processes replaced by failover so far (always 0 for threads).
    pub(crate) fn respawns(&self) -> u64 {
        match self {
            WorkerLink::Threads { .. } => 0,
            WorkerLink::Processes(p) => p.respawns(),
        }
    }

    /// SIGKILLs shard `shard`'s worker process (test hook for failover).
    pub(crate) fn kill_process(&mut self, shard: usize) {
        match self {
            WorkerLink::Threads { .. } => {
                panic!("debug_kill_worker_process requires a multi-process transport")
            }
            WorkerLink::Processes(p) => p.kill_child(shard),
        }
    }
}

impl Drop for WorkerLink {
    fn drop(&mut self) {
        // A process link shuts down and reaps its own children.
        let WorkerLink::Threads { comm, group, .. } = self else {
            return;
        };
        for w in 1..comm.size() {
            comm.send(&ShardCmd::Shutdown, w, TAG_CMD);
        }
        // Never propagate from a destructor (unwinding here would abort),
        // but a worker that panicked mid-run may have silently dropped
        // reply-free commands — say so.
        let panicked = group.take().map_or(0, WorkerGroup::join);
        if panicked > 0 {
            eprintln!(
                "remote-shard engine: {panicked} shard worker(s) panicked during the run; \
                 results involving their stripes are suspect"
            );
        }
    }
}

struct PoolState {
    free: Vec<WorkerLink>,
    /// Set when the pool handle drops: returning worlds shut down instead.
    closing: bool,
}

/// What the pool handle and every outstanding lease share.
struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// A long-lived pool of shard-worker worlds for
/// [`super::RemoteShardedEngine`]s.
///
/// Each of the pool's `slots` is an independent world of `shards` workers
/// (isolation is structural: leaseholders cannot observe each other's
/// traffic however their operations interleave). [`ShardWorkerPool::lease`]
/// grants one engine exclusive use of a slot
/// ([`super::RemoteShardedEngine::from_lease`]); dropping that engine
/// returns the slot — workers still running — for the next one, shedding
/// the per-engine spawn/join. Dropping the pool shuts the free slots down
/// at once and each leased slot when its lease drops.
pub struct ShardWorkerPool {
    shared: Arc<PoolShared>,
    slots: usize,
    shards: usize,
}

impl ShardWorkerPool {
    /// Spawns `slots` in-process worlds of `shards` worker threads each.
    pub fn new(slots: usize, shards: usize) -> Self {
        Self::over_transport(slots, shards, TransportKind::InProcess)
            .expect("spawning worker threads performs no I/O")
    }

    /// Spawns `slots` worlds of `shards` workers each over `kind`: worker
    /// threads in-process, `qworker` child processes otherwise. `shards`
    /// is rounded and clamped as in [`super::RemoteShardedEngine::new`].
    pub fn over_transport(slots: usize, shards: usize, kind: TransportKind) -> io::Result<Self> {
        assert!(slots > 0, "need at least one pool slot");
        let free = (0..slots)
            .map(|_| WorkerLink::spawn(kind, shards))
            .collect::<io::Result<Vec<_>>>()?;
        let shards = free[0].shards();
        Ok(ShardWorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    free,
                    closing: false,
                }),
                cv: Condvar::new(),
            }),
            slots,
            shards,
        })
    }

    /// Worker (shard) count per slot, after normalization.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total slot count.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots currently free (racy by nature; a scheduling heuristic).
    pub fn available(&self) -> usize {
        self.shared.state.lock().free.len()
    }

    /// Leases a slot, blocking until one frees.
    pub fn lease(&self) -> ShardLease {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(link) = st.free.pop() {
                return self.wrap(link);
            }
            self.shared.cv.wait(&mut st);
        }
    }

    /// Leases a slot if one is free right now.
    pub fn try_lease(&self) -> Option<ShardLease> {
        let link = self.shared.state.lock().free.pop()?;
        Some(self.wrap(link))
    }

    fn wrap(&self, link: WorkerLink) -> ShardLease {
        ShardLease {
            link: Some(link),
            home: Some(Arc::clone(&self.shared)),
        }
    }
}

impl Drop for ShardWorkerPool {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.closing = true;
        let free = std::mem::take(&mut st.free);
        drop(st);
        // Leased slots shut down when their lease drops (it observes
        // `closing`); the free ones shut down here.
        drop(free);
    }
}

/// Exclusive use of one worker world, consumed by
/// [`super::RemoteShardedEngine::from_lease`]. Dropped, the world goes
/// home to its pool still running, or shuts down when it has no home (it
/// was spawned for one engine) or the pool is closing.
pub struct ShardLease {
    /// `Some` until drop.
    link: Option<WorkerLink>,
    home: Option<Arc<PoolShared>>,
}

impl ShardLease {
    /// A freshly spawned world with no pool behind it.
    pub(crate) fn spawn(kind: TransportKind, shards: usize) -> io::Result<ShardLease> {
        Ok(ShardLease {
            link: Some(WorkerLink::spawn(kind, shards)?),
            home: None,
        })
    }

    /// Worker (shard) count of the leased world.
    pub fn shards(&self) -> usize {
        self.link().shards()
    }

    pub(crate) fn link(&self) -> &WorkerLink {
        self.link.as_ref().expect("link present until drop")
    }

    pub(crate) fn link_mut(&mut self) -> &mut WorkerLink {
        self.link.as_mut().expect("link present until drop")
    }

    /// Readies a pooled world for a fresh engine: a previous (possibly
    /// panicked) lessee may have left replies unread, a protocol dangling
    /// or workers dead. A world nobody has used yet is already quiet.
    pub(crate) fn reset(&mut self) {
        if self.home.is_some() {
            self.link_mut().reset();
        }
    }
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        let Some(link) = self.link.take() else { return };
        if let Some(home) = &self.home {
            let mut st = home.state.lock();
            if !st.closing {
                st.free.push(link);
                drop(st);
                home.cv.notify_one();
                return;
            }
        }
        // No home, or the pool is closing: shut the world down.
        drop(link);
    }
}
