//! The shard-worker lifecycle, written once: spawn → lease → reset →
//! home-or-shutdown.
//!
//! A *worker world* is `2^k` shard workers running [`super::remote`]'s
//! event loop plus the controller's connection to them, a `WorkerLink`:
//! framed links to worker threads or to `qworker` processes, which differ
//! only in how a worker is started, killed and reaped, so nothing above it
//! knows which one executes the qubits. A [`ShardLease`] is exclusive use
//! of one world; it either has a home ([`ShardWorkerPool`], to which it
//! returns the world still running) or none (a world spawned for one
//! engine, shut down when the lease drops).
//! [`RemoteShardedEngine::from_lease`] is the only consumer.
//!
//! [`RemoteShardedEngine::from_lease`]: super::RemoteShardedEngine::from_lease

use super::remote_transport::WorkerLink;
use cmpi::TransportKind;
use parking_lot::{Condvar, Mutex};
use std::io;
use std::sync::Arc;

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
            .expect("the system refused to start a worker thread")
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
