//! The shard worker: what it does with each command.

use super::{rank_of, ExpectRole, ShardCmd, ShardReply, WorkerOp};
use crate::backend::remote_transport::SockChannel;
use qsim::stripe::{self, ExactSum};
use qsim::Complex;

/// A worker's event loop ends early: the controller hung up, a peer is
/// unreachable, or a watchdog expired.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct WorkerHalt;

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
    fn run_op(&mut self, chan: &mut SockChannel, op: WorkerOp) -> Result<(), WorkerHalt> {
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
    fn exec(&mut self, chan: &mut SockChannel, cmd: ShardCmd) -> Result<(), WorkerHalt> {
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
    fn reshape(
        &mut self,
        chan: &mut SockChannel,
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

/// The event loop each shard worker runs, thread or process: receive one
/// [`ShardCmd`], execute it against the owned stripe, loop until the
/// controller link ends (EOF: the world ends, or the thread is killed) or
/// carries a frame that does not decode, or a peer is lost. Commands
/// arrive in the controller's global send order (FIFO on the link), so the
/// stripe observes one consistent history, and both kinds of world execute
/// the identical stripe kernels in the identical order — the substance of
/// the bit-identity guarantee across `TransportKind`s.
pub(crate) fn worker_loop(chan: &mut SockChannel) {
    let mut shard = Shard::default();
    while let Some(cmd) = chan.recv_cmd() {
        if shard.exec(chan, cmd).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi::WireStream;
    use qsim::stripe::PairKernel;
    use std::time::Duration;

    /// Two workers over in-process pipes, each holding a 4-amplitude
    /// stripe in a buffer of 8 (a free halved it): a `CrossLow` /
    /// `CrossHigh` trade of whole stripes and the alloc after it leave each
    /// stripe in its own buffer, the low member decoding into its spare and
    /// the high member into its stripe, and the alloc grows it in place.
    #[test]
    fn an_exchange_and_the_alloc_after_it_keep_each_stripes_buffer() {
        let (low, high) = WireStream::pair();
        let mut links = [Some(low), Some(high)];
        let workers: Vec<_> = [1usize, 2]
            .map(|rank| {
                let mut peers = vec![None, None, None];
                peers[3 - rank] = links[rank - 1].take();
                std::thread::spawn(move || {
                    // No commands come from the controller's end.
                    let (ctl, _controller) = WireStream::pair();
                    let watchdog = Duration::from_secs(10);
                    let mut chan = SockChannel::new(ctl, peers, rank, watchdog).unwrap();
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
