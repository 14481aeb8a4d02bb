//! Failover: the log a dead worker's world is rebuilt from, and the retry
//! loop around every controller round. Every worker world has it, whether
//! its workers are threads or processes.

use super::controller::Controller;
use super::ShardReply;
use bytes::Bytes;
use qsim::Complex;

/// A worker is gone: its link reached EOF, a write to it failed, or a
/// reply wait outlasted the watchdog. `shard` is the first shard the
/// controller found so. Reaching [`Controller::run`] with this triggers
/// failover: respawn, checkpoint re-scatter, log replay.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeadWorker {
    pub(crate) shard: usize,
}

/// One entry of the failover log: a command frame's body as it was sent
/// (sharing its bytes) and the replies it provokes, or a reply drained.
enum Logged {
    Sent(usize, Bytes, usize),
    Drained(usize),
}

/// Controller-side failover state. Invariant: *checkpoint + log + queue ≡
/// the state*: recovery reloads the checkpoint and replays the log, which
/// erases a failed unit's partial effects, and the unit is retried whole
/// with the queue, which stays until its unit commits.
pub(super) struct FailoverState {
    /// Last checkpointed dense state: the scalar state of a fresh engine,
    /// then every whole-state gather (snapshot reads and the periodic
    /// forced checkpoint).
    checkpoint: Vec<Complex>,
    /// Qubit count the checkpoint was taken at.
    ckpt_qubits: usize,
    /// The frames sent and replies drained by the units since the checkpoint
    /// that carried queued work, in order, then the open unit's.
    log: Vec<Logged>,
    /// Where the open unit starts in `log`; `log.len()` between units.
    open: usize,
    /// Whether a frame of the open unit carried queued work.
    mutates: bool,
    /// Mutating units in the log.
    units: usize,
    /// Forced-checkpoint threshold: once the log holds this many units,
    /// a commit gathers a fresh checkpoint and clears it as soon as the
    /// register is no wider than at the last one ([`checkpoint_due`]), so
    /// replay after a crash is bounded by twice this many units.
    /// [`CHECKPOINT_UNITS`] unless a test lowers it.
    pub(super) limit: usize,
    /// Gathers that replaced the checkpoint, and the bytes of their
    /// command and reply frames.
    pub(super) checkpoints: u64,
    pub(super) checkpoint_bytes: u64,
}

/// The forced-checkpoint threshold of every engine, in logged units.
const CHECKPOINT_UNITS: usize = 32;

/// Whether a commit with `log` units logged takes the forced checkpoint:
/// at `limit` units once the register (`n_qubits` wide) is no wider than at
/// the last checkpoint (`ckpt_qubits`), and at `2 * limit` whatever its
/// width. A free ends no unit, so reads while EPR halves are live would
/// otherwise land the gather, and the checkpoint it leaves, at the widest
/// register.
fn checkpoint_due(log: usize, limit: usize, n_qubits: usize, ckpt_qubits: usize) -> bool {
    log >= 2 * limit || (log >= limit && n_qubits <= ckpt_qubits)
}

impl FailoverState {
    pub(super) fn new() -> Self {
        FailoverState {
            checkpoint: vec![Complex::real(1.0)],
            ckpt_qubits: 0,
            log: Vec::new(),
            open: 0,
            mutates: false,
            units: 0,
            limit: CHECKPOINT_UNITS,
            checkpoints: 0,
            checkpoint_bytes: 0,
        }
    }

    /// Closes the open unit: a mutating one stays in the log, any other
    /// leaves it.
    fn commit(&mut self) {
        if std::mem::take(&mut self.mutates) {
            self.units += 1;
        } else {
            self.log.truncate(self.open);
        }
        self.open = self.log.len();
    }

    /// Drops the open unit's entries: a failed unit is retried whole.
    fn abandon(&mut self) {
        self.mutates = false;
        self.log.truncate(self.open);
    }
}

/// Generations one retry may go through: a unit, a checkpoint gather or a
/// recovery that fails this many times running fails for good.
const RESPAWN_BUDGET: usize = 16;

impl Controller {
    /// Sends shard `shard` the command frame `body`, which provokes
    /// `replies` replies and `mutates` when it carries queued work, and
    /// logs it into the open retry unit so a crash can replay it.
    pub(super) fn send_to(
        &mut self,
        shard: usize,
        body: Bytes,
        replies: usize,
        mutates: bool,
    ) -> Result<(), DeadWorker> {
        self.lease
            .link_mut()
            .send_frame(shard, body.clone(), replies)?;
        self.failover.mutates |= mutates;
        self.failover.log.push(Logged::Sent(shard, body, replies));
        Ok(())
    }

    /// Receives shard `s`'s reply, logging the drain into the open retry
    /// unit (replay must consume replayed replies in the same pattern).
    pub(super) fn reply_from(&mut self, shard: usize) -> Result<ShardReply, DeadWorker> {
        let reply = self.lease.link_mut().reply_from(shard)?;
        self.failover.log.push(Logged::Drained(shard));
        Ok(reply)
    }

    /// Gathers the dense state for a reader, surviving worker death. The
    /// gather IS a checkpoint, the freshest one possible, so the reader
    /// gets a copy of it.
    pub(super) fn run_gather(&mut self) -> Vec<Complex> {
        self.cmd_rounds += 1;
        self.checkpoint_now();
        self.failover.checkpoint.clone()
    }

    /// Runs one retry unit to completion. The unit's frames are logged; on
    /// worker death the generation is restarted (respawn + checkpoint
    /// reload + log replay) and the unit retried from scratch with the
    /// queue it shipped, up to `RESPAWN_BUDGET` times. The closure must
    /// therefore be free of external side effects — in particular it must
    /// not draw RNG, which the engine keeps outside units precisely so
    /// trajectories stay bit-identical across failovers.
    pub(super) fn run<T>(&mut self, f: impl FnMut(&mut Controller) -> Result<T, DeadWorker>) -> T {
        let v = self.retry(f, Controller::recover);
        self.commit_unit();
        v
    }

    /// Calls `attempt` until it succeeds, and `repair` after each failure,
    /// rolling the round counters back to where the first attempt started.
    /// A shard whose worker fails `RESPAWN_BUDGET` attempts running ends
    /// the engine, naming the shard.
    fn retry<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Controller) -> Result<T, DeadWorker>,
        repair: fn(&mut Controller),
    ) -> T {
        let mut lost = 0;
        // A retried attempt counts its rounds once: recovery traffic is
        // not the logical protocol's.
        let rounds = (self.cmd_rounds, self.xchg_rounds);
        for _ in 0..RESPAWN_BUDGET {
            match attempt(self) {
                Ok(v) => return v,
                Err(DeadWorker { shard }) => lost = shard,
            }
            (self.cmd_rounds, self.xchg_rounds) = rounds;
            repair(self);
        }
        panic!(
            "remote-shard failover: respawn budget exhausted — shard {lost}'s worker died \
             {RESPAWN_BUDGET} generations running (its link closed, or its reply outlasted \
             the watchdog)"
        )
    }

    /// Commits the open unit and clears the queue it shipped, which keeps
    /// its capacity. A log at its limit is compacted into a fresh
    /// checkpoint so replay cost stays bounded.
    fn commit_unit(&mut self) {
        self.queue.cmds.iter_mut().for_each(Vec::clear);
        self.queue.len = 0;
        let f = &mut self.failover;
        f.commit();
        if checkpoint_due(f.units, f.limit, self.n_qubits, f.ckpt_qubits) {
            self.checkpoint_now();
        }
    }

    /// Forces a checkpoint: gathers the dense state (a checkpoint, not a
    /// command round) and clears the log, retrying through failover.
    fn checkpoint_now(&mut self) {
        let gather = |c: &mut Controller| {
            let before = c.lease.link().frame_bytes();
            let flat = c.gather_raw()?;
            Ok((flat, c.lease.link().frame_bytes() - before))
        };
        let (flat, bytes) = self.retry(gather, Controller::recover);
        let f = &mut self.failover;
        f.checkpoint = flat;
        f.ckpt_qubits = self.n_qubits;
        f.log.clear();
        (f.open, f.units) = (0, 0);
        f.checkpoints += 1;
        f.checkpoint_bytes += bytes;
    }

    /// Failover: drop the failed unit's entries, then replace the worker
    /// generation, reload the checkpoint and replay the committed log until
    /// a generation survives the whole sequence.
    fn recover(&mut self) {
        self.failover.abandon();
        self.retry(Controller::replay, |_| {});
    }

    /// Starts a fresh generation, reloads the checkpoint into it and
    /// replays every committed unit: re-send the logged frames in order,
    /// drain (and discard) the replies they provoke.
    fn replay(&mut self) -> Result<(), DeadWorker> {
        self.lease.link_mut().reset();
        let flat = self.failover.checkpoint.clone();
        // The scatter rewinds the layout to the checkpoint's; logged
        // reshapes carry their own layouts, so the controller's goes back
        // to the live one whether or not this attempt survives.
        let live = (self.n_qubits, self.shard_bits);
        let result = self.scatter_raw(flat, self.failover.ckpt_qubits);
        (self.n_qubits, self.shard_bits) = live;
        result?;
        let link = self.lease.link_mut();
        for entry in &self.failover.log {
            match entry {
                Logged::Sent(s, body, replies) => link.send_frame(*s, body.clone(), *replies)?,
                Logged::Drained(s) => {
                    link.reply_from(*s)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ops, RemoteShardedEngine};
    use qsim::Gate;

    /// A worker that dies in every generation (here a logged frame no
    /// worker can decode, so every replay ends it again, as a worker-thread
    /// bug would) ends the engine once the respawn budget is spent, naming
    /// the shard, after one generation per attempt.
    #[test]
    fn a_worker_dying_every_generation_exhausts_the_budget_naming_its_shard() {
        let mut e = RemoteShardedEngine::new(1, 2);
        let q = e.alloc();
        e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        e.prob_one(q).unwrap();
        {
            let mut ctl = e.raw_state().ctl.lock();
            let f = &mut ctl.failover;
            f.log.push(Logged::Sent(1, Bytes::from_static(&[0xff]), 0));
            f.open = f.log.len();
            ctl.lease.link_mut().kill(1);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.prob_one(q)))
            .expect_err("a worker that always dies must end the engine");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        let want = format!("shard 1's worker died {RESPAWN_BUDGET} generations running");
        assert!(msg.contains(&want), "{msg}");
        let respawns = e.raw_state().ctl.lock().lease.link().respawns();
        assert_eq!(respawns, 2 * RESPAWN_BUDGET as u64);
    }

    #[test]
    fn forced_checkpoints_wait_for_a_register_no_wider_than_the_last() {
        let limit = 32;
        // Under the limit, never, however narrow the register.
        assert!(!checkpoint_due(limit - 1, limit, 0, 16));
        // At the limit: as soon as the register is no wider than at the
        // last checkpoint, and not while it is wider.
        assert!(checkpoint_due(limit, limit, 14, 14));
        assert!(checkpoint_due(limit, limit, 13, 14));
        assert!(!checkpoint_due(limit, limit, 15, 14));
        assert!(!checkpoint_due(2 * limit - 1, limit, 16, 14));
        // At twice the limit, whatever the width.
        assert!(checkpoint_due(2 * limit, limit, 16, 14));
        assert!(checkpoint_due(2 * limit, limit, 16, 0));
        // The lowest limit, as `debug_checkpoint_limit(1)` sets it.
        assert!(checkpoint_due(1, 1, 3, 3));
        assert!(!checkpoint_due(1, 1, 4, 3));
        assert!(checkpoint_due(2, 1, 4, 3));
    }
}
