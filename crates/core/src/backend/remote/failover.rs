//! Failover for process workers: the log a dead worker's world is rebuilt
//! from, and the retry loop around every controller round.

use super::controller::Controller;
use super::{ShardCmd, ShardReply};
use qsim::Complex;

/// Marker error: a worker's OS process died (connection EOF, write
/// failure, or reply timeout) under a multi-process link. In-process links
/// never produce it — their failures keep the historical
/// panic-with-diagnostic behavior. Reaching [`Controller::run`] with this
/// triggers failover: respawn, checkpoint re-scatter, log replay.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeadWorker;

/// One committed retry unit in the failover log: the mutating commands it
/// sent (by shard) and the per-shard replies it drained, in order. Replay
/// re-sends the former and discards the latter.
#[derive(Clone, Default)]
struct LoggedUnit {
    sends: Vec<(usize, ShardCmd)>,
    drains: Vec<usize>,
}

impl LoggedUnit {
    /// Whether any recorded command mutates worker state (and therefore
    /// must be replayed after a checkpoint reload). Read-only fan-outs
    /// (probes, gathers, expectations) re-derive nothing and are dropped.
    fn is_mutating(&self) -> bool {
        self.sends.iter().any(|(_, cmd)| cmd.mutates())
    }
}

impl ShardCmd {
    /// Whether executing the command changes the worker's stripe.
    fn mutates(&self) -> bool {
        match self {
            ShardCmd::Seq(cmds) => cmds.iter().any(ShardCmd::mutates),
            ShardCmd::Batch { .. }
            | ShardCmd::Load { .. }
            | ShardCmd::CollapseScale { .. }
            | ShardCmd::Reshape { .. } => true,
            _ => false,
        }
    }
}

/// Controller-side failover state, present only on multi-process links (an
/// in-process engine pays zero overhead for it). Invariant: *checkpoint +
/// log + queue ≡ the state*, so recovery is always "reload checkpoint,
/// replay log" and the queue ships with the retried unit — a failed unit's
/// partial effects are erased by the reload, the queue it consumed is
/// restored, and the unit is retried whole.
pub(super) struct FailoverState {
    /// Last checkpointed dense state: the scalar state of a fresh engine,
    /// then every whole-state gather (snapshot reads and the periodic
    /// forced checkpoint).
    checkpoint: Vec<Complex>,
    /// Qubit count the checkpoint was taken at.
    ckpt_qubits: usize,
    /// Mutating units committed since the checkpoint, in order.
    log: Vec<LoggedUnit>,
    /// The currently open (uncommitted) unit, if any.
    unit: Option<LoggedUnit>,
    /// Forced-checkpoint threshold: once the log holds this many units,
    /// a commit gathers a fresh checkpoint and clears it as soon as the
    /// register is no wider than at the last one ([`checkpoint_due`]), so
    /// replay after a crash is bounded by twice this many units.
    /// [`CHECKPOINT_UNITS`] unless a test lowers it.
    pub(super) limit: usize,
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
            unit: None,
            limit: CHECKPOINT_UNITS,
        }
    }
}

/// Generations one retry may go through: a unit, a checkpoint gather or a
/// recovery that fails this many times running fails for good.
const RESPAWN_BUDGET: usize = 16;

fn budget_exhausted() -> ! {
    panic!("remote-shard failover: respawn budget exhausted — workers keep dying")
}

impl Controller {
    /// Sends one command to shard `shard`, recording it into the open
    /// retry unit (if failover is armed) so a crash can replay it.
    pub(super) fn send_to(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        if let Some(unit) = self.failover.as_mut().and_then(|f| f.unit.as_mut()) {
            unit.sends.push((shard, cmd.clone()));
        }
        self.send_raw(shard, cmd)
    }

    /// Receives shard `s`'s reply, recording the drain into the open retry
    /// unit (replay must consume replayed replies in the same pattern).
    pub(super) fn reply_from(
        &mut self,
        shard: usize,
        what: &str,
    ) -> Result<ShardReply, DeadWorker> {
        let reply = self.reply_raw(shard, what)?;
        if let Some(unit) = self.failover.as_mut().and_then(|f| f.unit.as_mut()) {
            unit.drains.push(shard);
        }
        Ok(reply)
    }

    /// Gathers the dense state for a reader, surviving worker death. With
    /// failover armed the gather IS a checkpoint — the freshest one
    /// possible — so the reader gets a copy of it.
    pub(super) fn run_gather(&mut self) -> Vec<Complex> {
        self.cmd_rounds += 1;
        if self.failover.is_some() {
            self.checkpoint_now();
            let f = self.failover.as_ref().expect("checked above");
            return f.checkpoint.clone();
        }
        self.gather_raw()
            .unwrap_or_else(|_| unreachable!("in-process links never report dead workers"))
    }

    /// Runs one retry unit to completion. For in-process links this is a
    /// plain call (failures panic inside, never return `Err`). For process
    /// links the unit body is recorded; on worker death the generation is
    /// restarted (respawn + checkpoint reload + log replay), the queue the
    /// unit consumed is restored, and the unit retried from scratch, up to
    /// `RESPAWN_BUDGET` times. The
    /// closure must therefore be free of external side effects — in
    /// particular it must not draw RNG, which the engine keeps outside units
    /// precisely so trajectories stay bit-identical across failovers.
    pub(super) fn run<T>(
        &mut self,
        mut f: impl FnMut(&mut Controller) -> Result<T, DeadWorker>,
    ) -> T {
        if self.failover.is_none() {
            return f(self)
                .unwrap_or_else(|_| unreachable!("in-process links never report dead workers"));
        }
        let queue = self.queue.clone();
        for _ in 0..RESPAWN_BUDGET {
            if let Some(fo) = self.failover.as_mut() {
                fo.unit = Some(LoggedUnit::default());
            }
            if let Ok(v) = f(self) {
                self.commit_unit();
                return v;
            }
            if let Some(fo) = self.failover.as_mut() {
                fo.unit = None;
            }
            self.queue = queue.clone();
            self.recover();
        }
        budget_exhausted()
    }

    /// Commits the open unit: mutating units enter the replay log;
    /// read-only ones vanish. A log at its limit is compacted into a fresh
    /// checkpoint so replay cost stays bounded.
    fn commit_unit(&mut self) {
        let Some(f) = self.failover.as_mut() else {
            return;
        };
        if let Some(unit) = f.unit.take() {
            if unit.is_mutating() {
                f.log.push(unit);
            }
        }
        if checkpoint_due(f.log.len(), f.limit, self.n_qubits, f.ckpt_qubits) {
            self.checkpoint_now();
        }
    }

    /// Forces a checkpoint: gathers the dense state (uncounted — this is
    /// bookkeeping, not protocol traffic the round counters should see)
    /// and clears the log, retrying through failover as needed.
    fn checkpoint_now(&mut self) {
        for _ in 0..RESPAWN_BUDGET {
            if let Ok(flat) = self.gather_raw() {
                let n = self.n_qubits;
                let f = self
                    .failover
                    .as_mut()
                    .expect("checkpointing requires failover state");
                f.checkpoint = flat;
                f.ckpt_qubits = n;
                f.log.clear();
                return;
            }
            self.recover();
        }
        budget_exhausted()
    }

    /// Failover: replace the worker generation, reload the checkpoint,
    /// replay the committed log. Loops until a generation survives the
    /// whole sequence; panics if workers keep dying past the respawn budget.
    fn recover(&mut self) {
        for _ in 0..RESPAWN_BUDGET {
            self.lease.link_mut().reset();
            if self.replay().is_ok() {
                return;
            }
        }
        budget_exhausted()
    }

    /// Reloads the checkpoint and replays every committed unit against the
    /// fresh generation: re-send the logged commands in order, drain (and
    /// discard) the replies they provoke.
    fn replay(&mut self) -> Result<(), DeadWorker> {
        let (flat, n, log) = {
            let f = self
                .failover
                .as_ref()
                .expect("recovery requires failover state");
            (f.checkpoint.clone(), f.ckpt_qubits, f.log.clone())
        };
        // The scatter rewinds the layout to the checkpoint's; logged
        // reshapes carry their own layouts, so the controller's goes back
        // to the live one whether or not this attempt survives.
        let live = (self.n_qubits, self.shard_bits);
        let result = self.scatter_raw(flat, n).and_then(|()| {
            for unit in &log {
                for (s, cmd) in &unit.sends {
                    self.send_raw(*s, cmd)?;
                }
                for &s in &unit.drains {
                    self.reply_raw(s, "replayed reply")?;
                }
            }
            Ok(())
        });
        (self.n_qubits, self.shard_bits) = live;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
