//! Thread-per-rank launcher — the substitute for `mpirun`.
//!
//! The paper's prototype runs QMPI ranks as MPI processes on one machine;
//! here each rank is an OS thread and the "network" is the shared set of
//! mailboxes in [`crate::comm::World`]. Message-passing semantics (matching,
//! ordering, collectives) are identical; only the transport differs, which
//! DESIGN.md documents as substitution #1.

use crate::comm::{Communicator, World};
use std::sync::Arc;

/// Launches rank closures and collects their results.
pub struct Universe;

impl Universe {
    /// Runs `f` on `n` ranks (threads), each receiving its world
    /// communicator. Returns the per-rank results in rank order.
    ///
    /// Panics if any rank panics, so test failures inside ranks surface as
    /// test failures. A rank that panics aborts the world: peers blocked on
    /// a message that can no longer arrive panic too instead of hanging,
    /// and the payload re-raised here is the first failing rank's.
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Communicator) -> T + Send + Sync + 'static,
    {
        assert!(n > 0, "need at least one rank");
        let world = World::new(n);
        let f = Arc::new(f);
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let world = Arc::clone(&world);
            let f = Arc::clone(&f);
            let builder = std::thread::Builder::new()
                .name(format!("cmpi-rank-{rank}"))
                // Dense chemistry payloads and deep recursion in tests need
                // more than the default stack on some platforms.
                .stack_size(8 << 20);
            handles.push(
                builder
                    .spawn(move || {
                        let _abort = AbortOnUnwind {
                            world: Arc::clone(&world),
                            rank,
                        };
                        f(Communicator::world(world, rank))
                    })
                    .expect("failed to spawn rank thread"),
            );
        }
        let mut results = Vec::with_capacity(n);
        let mut panics = Vec::new();
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(v) => results.push(v),
                Err(payload) => panics.push((rank, payload)),
            }
        }
        if !panics.is_empty() {
            let first = world.aborted_by();
            let i = panics
                .iter()
                .position(|(rank, _)| Some(*rank) == first)
                .unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(i).1);
        }
        results
    }
}

/// Aborts the rank's world if the rank unwinds.
struct AbortOnUnwind {
    world: Arc<World>,
    rank: usize,
}

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.world.abort(self.rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let out = Universe::run(5, |comm| comm.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn single_rank_world() {
        let out = Universe::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            comm.rank()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic(expected = "rank 2 exploded")]
    fn rank_panic_propagates() {
        Universe::run(4, |comm| {
            if comm.rank() == 2 {
                panic!("rank 2 exploded");
            }
            comm.rank()
        });
    }

    #[test]
    fn a_rank_panic_fails_its_world_instead_of_hanging_it() {
        // Ranks 0 and 2 block on a message rank 1 never sends; the world
        // must fail with rank 1's payload, not hang or report a bystander.
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                Universe::run(3, |comm| {
                    if comm.rank() == 1 {
                        panic!("rank 1 exploded before its send");
                    }
                    comm.recv::<u64>(1, 0).0
                })
            });
            let payload = outcome.expect_err("the world succeeded");
            let _ = tx.send(payload.downcast_ref::<&str>().map(|s| s.to_string()));
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the world hung on its dead rank");
        assert_eq!(msg.as_deref(), Some("rank 1 exploded before its send"));
        runner.join().unwrap();
    }
}
