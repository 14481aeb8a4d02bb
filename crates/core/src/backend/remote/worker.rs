//! The shard worker: what it does with each command, over either transport.

use super::wire::decode_stripe_into;
use super::{rank_of, ExpectRole, ShardCmd, ShardReply, WireAmps, WorkerOp, CONTROLLER};
use bytes::Bytes;
use cmpi::{Communicator, Decode};
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
/// [`Shard::reshape`]). [`worker_loop`] is generic
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
    fn send_xchg(&mut self, partner: usize, amps: &[Complex]) -> Result<(), WorkerHalt>;
    /// Await stripe amplitudes from the exchange partner, bounded by the
    /// watchdog, and decode them into `into`, which keeps its capacity.
    /// `what` names the awaited payload for diagnostics.
    fn recv_xchg(
        &mut self,
        partner: usize,
        what: &str,
        into: &mut Vec<Complex>,
    ) -> Result<(), WorkerHalt>;
}

/// What a worker holds between commands: its stripe, the stripe's global
/// base index, and a spare buffer received stripes are decoded into. Both
/// keep their capacity, so exchanges and frees allocate nothing once grown.
#[derive(Default)]
struct Shard {
    amps: Vec<Complex>,
    spare: Vec<Complex>,
    base: usize,
}

impl Shard {
    /// Executes one gate-stream op against the stripe. Ops arrive inside
    /// `ShardCmd::Batch` frames; every worker walks its frame in the same
    /// global gate order, so cross-shard exchanges pair up without any
    /// further coordination.
    fn run_op<C: ShardChannel>(&mut self, chan: &mut C, op: WorkerOp) -> Result<(), WorkerHalt> {
        let (amps, spare) = (&mut self.amps, &mut self.spare);
        match op {
            WorkerOp::PairWithin { c_lo, tbit, kernel } => {
                kernel.apply_within(amps, c_lo, tbit);
            }
            WorkerOp::CrossLow {
                partner,
                c_lo,
                kernel,
            } => {
                chan.recv_xchg(partner, "its stripe half", spare)?;
                kernel.apply_across(amps, spare, c_lo);
                chan.send_xchg(partner, spare)?;
            }
            WorkerOp::CrossHigh { partner } => {
                chan.send_xchg(partner, amps)?;
                chan.recv_xchg(partner, "a stripe", amps)?;
            }
            WorkerOp::Phase { lo_mask } => stripe::phase_flip(amps, lo_mask),
            WorkerOp::SwapWithin { abit, bbit } => stripe::swap_within(amps, abit, bbit),
            WorkerOp::SwapCrossLow { partner, abit } => {
                chan.recv_xchg(partner, "its stripe half", spare)?;
                stripe::swap_across_mixed(amps, spare, abit);
                chan.send_xchg(partner, spare)?;
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

    /// Executes one command against the stripe; a [`ShardCmd::Seq`] frame
    /// runs its commands in order and stops at the first halt.
    fn exec<C: ShardChannel>(&mut self, chan: &mut C, cmd: ShardCmd) -> Result<(), WorkerHalt> {
        match cmd {
            ShardCmd::Load {
                shard_index,
                local_bits,
                amps,
            } => {
                self.base = shard_index << local_bits;
                self.amps = amps;
            }
            ShardCmd::Gather => {
                // The stripe is lent to the reply while it is encoded.
                let reply = ShardReply::Amps(std::mem::take(&mut self.amps));
                let sent = chan.send_reply(&reply);
                if let ShardReply::Amps(amps) = reply {
                    self.amps = amps;
                }
                sent?;
            }
            ShardCmd::Batch { ops } => {
                for op in ops {
                    self.run_op(chan, op)?;
                }
            }
            ShardCmd::Expect {
                x_lo,
                x_hi,
                z_mask,
                role,
            } => {
                let (amps, base) = (&self.amps, self.base);
                let mut acc = [ExactSum::ZERO; 2];
                match role {
                    // x never leaves the stripe: the partner of offset `i`
                    // sits at `i ^ x_lo` locally.
                    ExpectRole::Solo => {
                        stripe::expectation_partial(amps, amps, base, x_lo, z_mask, &mut acc)
                    }
                    // Ship the stripe; the low member accumulates for both.
                    ExpectRole::High { partner } => return chan.send_xchg(partner, amps),
                    // Each stripe's terms against the other (x_hi flips
                    // exactly the partner's shard bits), own stripe first.
                    ExpectRole::Low { partner } => {
                        let b = &mut self.spare;
                        chan.recv_xchg(partner, "its stripe for the expectation", b)?;
                        stripe::expectation_partial(amps, b, base, x_lo, z_mask, &mut acc);
                        stripe::expectation_partial(b, amps, base ^ x_hi, x_lo, z_mask, &mut acc);
                    }
                }
                let [re, im] = acc;
                chan.send_reply(&ShardReply::Expect { re, im })?;
            }
            ShardCmd::Branches { mask } => {
                let [even, odd] = stripe::branch_masses(&self.amps, self.base, mask);
                chan.send_reply(&ShardReply::Branches { even, odd })?;
            }
            ShardCmd::CollapseScale { mask, odd, factor } => {
                stripe::collapse_scale(&mut self.amps, self.base, mask, odd, factor);
            }
            ShardCmd::Seq(cmds) => {
                for cmd in cmds {
                    self.exec(chan, cmd)?;
                }
            }
            ShardCmd::Reshape {
                compact,
                factor,
                sends,
                recv,
                shard_index,
                local_bits,
                len,
            } => {
                self.base = shard_index << local_bits;
                if let Some((pos, outcome)) = compact {
                    stripe::collapse_remove_in_place(&mut self.amps, pos, outcome, factor);
                } else if factor != 1.0 && !sends.is_empty() {
                    // A stripe that goes nowhere is discarded unscaled.
                    stripe::scale(&mut self.amps, factor);
                }
                self.reshape(chan, rank_of(shard_index), &sends, recv)?;
                self.amps.resize(len, Complex::default());
            }
            ShardCmd::Shutdown | ShardCmd::Die => return Err(WorkerHalt),
        }
        Ok(())
    }

    /// The moves of a [`ShardCmd::Reshape`] (`me` is this worker's world
    /// rank; a rank appears at most once in `sends`): the stripe's equal
    /// parts go out, borrowed, and the part from `recv` becomes the new
    /// stripe. The peers are visited in rank order, and with each the lower
    /// rank writes its part first and then reads, the higher reads first.
    /// Every worker thus meets the transfers of a reshape in one global
    /// order (by rank pair, lower writer first), so the earliest unfinished
    /// transfer always has both of its ends at it, and a send that blocks
    /// on a full socket never waits on a cycle.
    fn reshape<C: ShardChannel>(
        &mut self,
        chan: &mut C,
        me: usize,
        sends: &[usize],
        recv: Option<usize>,
    ) -> Result<(), WorkerHalt> {
        let part = self.amps.len() / sends.len().max(1);
        let part_to = |peer| {
            let at = sends.iter().position(|&to| to == peer)? * part;
            Some(at..at + part)
        };
        let mut peers: Vec<usize> = sends.iter().copied().chain(recv).collect();
        peers.sort_unstable();
        peers.dedup();
        for peer in peers.into_iter().filter(|&peer| peer != me) {
            let mut outgoing = part_to(peer);
            if me < peer {
                if let Some(range) = outgoing.take() {
                    chan.send_xchg(peer, &self.amps[range])?;
                }
            }
            if recv == Some(peer) {
                chan.recv_xchg(peer, "its stripe part", &mut self.spare)?;
            }
            if let Some(range) = outgoing {
                chan.send_xchg(peer, &self.amps[range])?;
            }
        }
        if recv.is_some_and(|from| from != me) {
            std::mem::swap(&mut self.amps, &mut self.spare);
        } else if let Some(stays) = part_to(me).filter(|_| recv == Some(me)) {
            // The part that stays moves to the front.
            self.amps.copy_within(stays, 0);
            self.amps.truncate(part);
        } else {
            self.amps.clear();
        }
        Ok(())
    }
}

/// The event loop each shard worker runs, generic over its transport:
/// receive one [`ShardCmd`], execute it against the owned stripe, loop
/// until shutdown. Commands arrive in the controller's global send order
/// (FIFO per sender on both transports), so the stripe observes one
/// consistent history.
pub(crate) fn worker_loop<C: ShardChannel>(chan: &mut C) {
    let mut shard = Shard::default();
    while let Some(cmd) = chan.recv_cmd() {
        if shard.exec(chan, cmd).is_err() {
            return;
        }
    }
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

    fn send_xchg(&mut self, partner: usize, amps: &[Complex]) -> Result<(), WorkerHalt> {
        self.comm.send(&WireAmps(amps), partner, TAG_XCHG);
        Ok(())
    }

    fn recv_xchg(
        &mut self,
        partner: usize,
        what: &str,
        into: &mut Vec<Complex>,
    ) -> Result<(), WorkerHalt> {
        let wd = Duration::from_millis(self.watchdog.load(Ordering::Relaxed));
        match self.comm.recv_timeout::<Body>(partner, TAG_XCHG, wd) {
            Some((Body(body), _)) => decode_stripe_into(body, into).ok_or(WorkerHalt),
            None => panic!(
                "remote-shard watchdog: worker {} waited {wd:?} for {what} from \
                 partner {partner}; the partner is presumed dead or deadlocked",
                self.comm.rank()
            ),
        }
    }
}

/// An exchange message's body taken whole, for [`decode_stripe_into`].
struct Body(Bytes);

impl Decode for Body {
    fn decode(buf: &mut Bytes) -> Option<Self> {
        Some(Body(std::mem::take(buf)))
    }
}

/// The mailbox-driven shard worker: [`worker_loop`] over a
/// [`ThreadChannel`] (the in-process transport).
pub(crate) fn shard_worker(comm: Communicator, watchdog: Arc<AtomicU64>) {
    let mut chan = ThreadChannel { comm, watchdog };
    worker_loop(&mut chan);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::stripe::PairKernel;

    /// Two workers over the in-process channel, each holding a 4-amplitude
    /// stripe in a buffer of 8 (a free halved it): a `CrossLow` /
    /// `CrossHigh` trade of whole stripes and the alloc after it leave each
    /// stripe in its own buffer, the low member decoding into its spare and
    /// the high member into its stripe, and the alloc grows it in place.
    #[test]
    fn an_exchange_and_the_alloc_after_it_keep_each_stripes_buffer() {
        let world = cmpi::World::new(3);
        let workers: Vec<_> = [1usize, 2]
            .map(|rank| {
                let comm = Communicator::world(world.clone(), rank);
                std::thread::spawn(move || {
                    let watchdog = Arc::new(AtomicU64::new(10_000));
                    let mut chan = ThreadChannel { comm, watchdog };
                    let mut shard = Shard::default();
                    let s = rank - 1;
                    let reshape = |compact, local_bits| ShardCmd::Reshape {
                        compact,
                        factor: 1.0,
                        sends: vec![rank],
                        recv: Some(rank),
                        shard_index: s,
                        local_bits,
                        len: 1 << local_bits,
                    };
                    let amps = (0..8).map(|i| Complex::new(i as f64, s as f64)).collect();
                    let load = ShardCmd::Load {
                        shard_index: s,
                        local_bits: 3,
                        amps,
                    };
                    for cmd in [load, reshape(Some((2, false)), 2)] {
                        shard.exec(&mut chan, cmd).unwrap();
                    }
                    let before = (shard.amps.capacity(), shard.amps.as_ptr() as usize);
                    let op = match s {
                        0 => WorkerOp::CrossLow {
                            partner: 2,
                            c_lo: 0,
                            kernel: PairKernel::Swap,
                        },
                        _ => WorkerOp::CrossHigh { partner: 1 },
                    };
                    shard
                        .exec(&mut chan, ShardCmd::Batch { ops: vec![op] })
                        .unwrap();
                    let traded = (shard.amps.capacity(), shard.amps.as_ptr() as usize);
                    let ims: Vec<f64> = shard.amps.iter().map(|a| a.im).collect();
                    shard.exec(&mut chan, reshape(None, 3)).unwrap();
                    let grown = (shard.amps.capacity(), shard.amps.as_ptr() as usize);
                    (before, traded, grown, ims)
                })
            })
            .into_iter()
            .map(|worker| worker.join().unwrap())
            .collect();
        for (s, (before, traded, grown, ims)) in workers.into_iter().enumerate() {
            assert_eq!(before.0, 8, "shard {s}: the free keeps the capacity");
            assert_eq!(traded, before, "shard {s}: the exchange reallocates");
            assert_eq!(grown, before, "shard {s}: the alloc reallocates");
            // The stripes traded whole: each holds the other's amplitudes.
            assert_eq!(ims, [(1 - s) as f64; 4], "shard {s}");
        }
    }
}
