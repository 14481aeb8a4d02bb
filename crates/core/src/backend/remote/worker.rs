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

/// A worker's event loop ends early: the controller hung up, a peer is
/// unreachable, or a watchdog expired.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct WorkerHalt;

/// The transport a shard worker's event loop runs over. The in-process
/// implementation is a cmpi mailbox ([`ThreadChannel`]); the multi-process
/// one is a framed socket to the controller plus one direct socket to each
/// peer worker (`backend::remote_transport::SockChannel`). A send may block
/// until its receiver reads, so every exchange orders its writes (see
/// [`reshape`]). [`worker_loop`] is generic
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
/// stripe (`me` is this worker's world rank; a rank appears at most once in
/// `sends` and once in `recvs`). The peers are visited in rank order, and
/// with each the lower rank writes its part first and then reads, the
/// higher reads first. Every worker thus meets the transfers of a reshape
/// in one global order (by rank pair, lower writer first), so the earliest
/// unfinished transfer always has both of its ends at it, and a send that
/// blocks on a full socket never waits on a cycle.
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
    let mut out = Vec::with_capacity(sends.len());
    for &to in sends {
        let rest = old.split_off(part);
        out.push((to, std::mem::replace(&mut old, rest)));
    }
    let mut got = vec![Vec::new(); recvs.len()];
    let mut peers: Vec<usize> = sends.iter().chain(recvs).copied().collect();
    peers.sort_unstable();
    peers.dedup();
    for peer in peers {
        let bound = out.iter_mut().find(|(to, _)| *to == peer);
        let mut outgoing = bound.map(|(_, p)| std::mem::take(p));
        let incoming = recvs.iter().position(|&from| from == peer);
        if peer == me {
            // A part that stays is moved, not sent.
            if let (Some(p), Some(slot)) = (outgoing, incoming) {
                got[slot] = p;
            }
            continue;
        }
        if me < peer {
            if let Some(p) = outgoing.take() {
                chan.send_xchg(peer, p)?;
            }
        }
        if let Some(slot) = incoming {
            got[slot] = chan.recv_xchg(peer, "its stripe part")?;
        }
        if let Some(p) = outgoing {
            chan.send_xchg(peer, p)?;
        }
    }
    let mut parts = got.into_iter();
    let mut new = parts.next().unwrap_or_default();
    for p in parts {
        new.extend(p);
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
        if exec(chan, &mut amps, &mut base, cmd).is_err() {
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
        ShardCmd::Shutdown | ShardCmd::Die => return Err(WorkerHalt),
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
