//! The shard worker: what it does with each command, over either transport.

use super::{rank_of, ExpectRole, ShardCmd, ShardReply, WireAmps, WorkerOp, CONTROLLER};
use cmpi::Communicator;
use qsim::stripe::{self, ExactSum};
use qsim::Complex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Command channel: controller → worker.
pub(crate) const TAG_CMD: cmpi::Tag = 0;
/// Reply channel: worker → controller.
pub(crate) const TAG_REPLY: cmpi::Tag = 1;
/// Stripe-exchange channel: worker ↔ worker (cross-shard pairing, reshape
/// parts).
const TAG_XCHG: cmpi::Tag = 2;

/// Why a worker's event loop (or one blocking wait inside it) ends early.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum WorkerHalt {
    /// The session is over: the controller hung up, a peer is unreachable,
    /// or a watchdog expired. The worker exits its loop.
    Exit,
    /// A failover abort: the controller declared a new epoch mid-protocol.
    /// The worker abandons the rest of the in-flight frame and returns to
    /// the command loop; its (possibly half-updated) stripe is overwritten
    /// by the recovery `Load`.
    Aborted,
}

/// The transport a shard worker's event loop runs over. The in-process
/// implementation is a cmpi mailbox ([`ThreadChannel`]); the multi-process
/// one is a framed socket to the controller, with worker↔worker exchanges
/// relayed through the controller's router threads
/// (`backend::remote_transport::SockChannel`). [`worker_loop`] is generic
/// over this trait, so both transports execute the identical stripe
/// kernels in the identical order — the substance of the bit-identity
/// guarantee across `TransportKind`s.
pub(crate) trait ShardChannel {
    /// Next command from the controller; `None` means the controller hung
    /// up and the worker should exit.
    fn recv_cmd(&mut self) -> Option<ShardCmd>;
    /// Ship a reply to the controller.
    fn send_reply(&mut self, reply: &ShardReply) -> Result<(), WorkerHalt>;
    /// Ship stripe amplitudes to the exchange partner (a world rank).
    fn send_xchg(&mut self, partner: usize, amps: Vec<Complex>) -> Result<(), WorkerHalt>;
    /// Await stripe amplitudes from the exchange partner, bounded by the
    /// watchdog. `what` names the awaited payload for diagnostics.
    fn recv_xchg(&mut self, partner: usize, what: &str) -> Result<Vec<Complex>, WorkerHalt>;
}

/// Executes one gate-stream op against the owned stripe. Ops arrive inside
/// `ShardCmd::Batch` frames; every worker walks its frame in the same
/// global gate order, so cross-shard exchanges pair up without any further
/// coordination.
fn run_op<C: ShardChannel>(
    chan: &mut C,
    amps: &mut Vec<Complex>,
    op: WorkerOp,
) -> Result<(), WorkerHalt> {
    match op {
        WorkerOp::PairWithin { c_lo, tbit, kernel } => {
            kernel.apply_within(amps, c_lo, tbit);
        }
        WorkerOp::CrossLow {
            partner,
            c_lo,
            kernel,
        } => {
            let mut b = chan.recv_xchg(partner, "its stripe half")?;
            kernel.apply_across(amps, &mut b, c_lo);
            chan.send_xchg(partner, b)?;
        }
        WorkerOp::CrossHigh { partner } => {
            let own = std::mem::take(amps);
            chan.send_xchg(partner, own)?;
            *amps = chan.recv_xchg(partner, "a stripe")?;
        }
        WorkerOp::Phase { lo_mask } => stripe::phase_flip(amps, lo_mask),
        WorkerOp::SwapWithin { abit, bbit } => stripe::swap_within(amps, abit, bbit),
        WorkerOp::SwapCrossLow { partner, abit } => {
            let mut b = chan.recv_xchg(partner, "its stripe half")?;
            stripe::swap_across_mixed(amps, &mut b, abit);
            chan.send_xchg(partner, b)?;
        }
        WorkerOp::PhaseSweep { diags, flips } => {
            // Masks arrive pre-localized (shard-constant factors as
            // `(0, c, c)`), so base 0 runs the dense engine's exact
            // per-amplitude sequence on the local offsets.
            stripe::phase_sweep(amps, 0, &diags, &flips);
        }
    }
    Ok(())
}

/// Executes a [`ShardCmd::Reshape`]'s layout change against the owned
/// stripe (`me` is this worker's world rank). Every part is sent before any
/// is awaited.
fn reshape<C: ShardChannel>(
    chan: &mut C,
    amps: &mut Vec<Complex>,
    me: usize,
    compact: Option<(usize, bool)>,
    sends: &[usize],
    recvs: &[usize],
    len: usize,
) -> Result<(), WorkerHalt> {
    let mut old = std::mem::take(amps);
    if let Some((pos, outcome)) = compact {
        stripe::remove_qubit_in_place(&mut old, pos, outcome);
    }
    let part = old.len() / sends.len().max(1);
    let mut kept = Vec::new();
    for &to in sends {
        let rest = old.split_off(part);
        let chunk = std::mem::replace(&mut old, rest);
        if to == me {
            kept = chunk;
        } else {
            chan.send_xchg(to, chunk)?;
        }
    }
    let mut new = Vec::new();
    for &from in recvs {
        let chunk = if from == me {
            std::mem::take(&mut kept)
        } else {
            chan.recv_xchg(from, "its stripe part")?
        };
        if new.is_empty() {
            new = chunk;
        } else {
            new.extend(chunk);
        }
    }
    new.resize(len, Complex::default());
    *amps = new;
    Ok(())
}

/// The event loop each shard worker runs, generic over its transport:
/// receive one [`ShardCmd`], execute it against the owned stripe, loop
/// until shutdown. Commands arrive in the controller's global send order
/// (FIFO per sender on both transports), so the stripe observes one
/// consistent history.
pub(crate) fn worker_loop<C: ShardChannel>(chan: &mut C) {
    let mut amps: Vec<Complex> = Vec::new();
    let mut base: usize = 0;
    while let Some(cmd) = chan.recv_cmd() {
        // An abort abandons the rest of the frame, leaving the stripe half
        // updated; the recovery Load overwrites it before any further
        // command can observe it.
        if exec(chan, &mut amps, &mut base, cmd) == Err(WorkerHalt::Exit) {
            return;
        }
    }
}

/// Executes one command against the owned stripe, whose global base index
/// is `base`; a [`ShardCmd::Seq`] frame runs its commands in order and
/// stops at the first halt.
fn exec<C: ShardChannel>(
    chan: &mut C,
    amps: &mut Vec<Complex>,
    base: &mut usize,
    cmd: ShardCmd,
) -> Result<(), WorkerHalt> {
    match cmd {
        ShardCmd::Load {
            shard_index,
            local_bits,
            amps: stripe_amps,
        } => {
            *base = shard_index << local_bits;
            *amps = stripe_amps;
        }
        ShardCmd::Gather => chan.send_reply(&ShardReply::Amps(amps.clone()))?,
        ShardCmd::Batch { ops } => {
            for op in ops {
                run_op(chan, amps, op)?;
            }
        }
        ShardCmd::Expect {
            x_lo,
            x_hi,
            z_mask,
            role,
        } => {
            let mut acc = [ExactSum::ZERO; 2];
            match role {
                // x never leaves the stripe: the partner of offset `i` sits
                // at `i ^ x_lo` locally.
                ExpectRole::Solo => {
                    stripe::expectation_partial(amps, amps, *base, x_lo, z_mask, &mut acc)
                }
                // Ship the stripe; the low member accumulates for both.
                ExpectRole::High { partner } => return chan.send_xchg(partner, amps.clone()),
                // Each stripe's terms against the other (x_hi flips exactly
                // the partner's shard bits), own stripe first.
                ExpectRole::Low { partner } => {
                    let b = chan.recv_xchg(partner, "its stripe for the expectation")?;
                    stripe::expectation_partial(amps, &b, *base, x_lo, z_mask, &mut acc);
                    stripe::expectation_partial(&b, amps, *base ^ x_hi, x_lo, z_mask, &mut acc);
                }
            }
            let [re, im] = acc;
            chan.send_reply(&ShardReply::Expect { re, im })?;
        }
        ShardCmd::Branches { mask } => {
            let [even, odd] = stripe::branch_masses(amps, *base, mask);
            chan.send_reply(&ShardReply::Branches { even, odd })?;
        }
        ShardCmd::CollapseScale { mask, odd, factor } => {
            stripe::collapse_parity(amps, *base, mask, odd);
            stripe::scale(amps, factor);
        }
        ShardCmd::Seq(cmds) => {
            for cmd in cmds {
                exec(chan, amps, base, cmd)?;
            }
        }
        ShardCmd::Reshape {
            compact,
            sends,
            recvs,
            shard_index,
            local_bits,
            len,
        } => {
            *base = shard_index << local_bits;
            let me = rank_of(shard_index);
            reshape(chan, amps, me, compact, &sends, &recvs, len)?;
        }
        ShardCmd::Shutdown | ShardCmd::Die => return Err(WorkerHalt::Exit),
    }
    Ok(())
}

/// The in-process transport: a cmpi mailbox endpoint inside the engine's
/// private worker world. Exchange waits are bounded by the shared watchdog
/// and *panic* on expiry (the historical diagnose-don't-hang contract for
/// thread workers, asserted by the watchdog tests).
pub(crate) struct ThreadChannel {
    comm: Communicator,
    watchdog: Arc<AtomicU64>,
}

impl ShardChannel for ThreadChannel {
    fn recv_cmd(&mut self) -> Option<ShardCmd> {
        let (cmd, _) = self.comm.recv::<ShardCmd>(CONTROLLER, TAG_CMD);
        Some(cmd)
    }

    fn send_reply(&mut self, reply: &ShardReply) -> Result<(), WorkerHalt> {
        self.comm.send(reply, CONTROLLER, TAG_REPLY);
        Ok(())
    }

    fn send_xchg(&mut self, partner: usize, amps: Vec<Complex>) -> Result<(), WorkerHalt> {
        self.comm.send(&WireAmps(amps), partner, TAG_XCHG);
        Ok(())
    }

    fn recv_xchg(&mut self, partner: usize, what: &str) -> Result<Vec<Complex>, WorkerHalt> {
        let wd = Duration::from_millis(self.watchdog.load(Ordering::Relaxed));
        match self.comm.recv_timeout::<WireAmps>(partner, TAG_XCHG, wd) {
            Some((w, _)) => Ok(w.0),
            None => panic!(
                "remote-shard watchdog: worker {} waited {wd:?} for {what} from \
                 partner {partner}; the partner is presumed dead or deadlocked",
                self.comm.rank()
            ),
        }
    }
}

/// The mailbox-driven shard worker: [`worker_loop`] over a
/// [`ThreadChannel`] (the in-process transport).
pub(crate) fn shard_worker(comm: Communicator, watchdog: Arc<AtomicU64>) {
    let mut chan = ThreadChannel { comm, watchdog };
    worker_loop(&mut chan);
}
