//! The controller: which commands each store call becomes (the planners),
//! the per-worker queue of reply-free work, and the command round that
//! ships it with a read.

use super::failover::{DeadWorker, FailoverState};
use super::{rank_of, ExpectRole, PairKernel, ShardCmd, ShardReply, WorkerOp};
use crate::backend::pool::ShardLease;
use crate::context::BatchPolicy;
use qsim::stripe;
use qsim::{Complex, SweepFactor};

/// The controller half of the shard protocol: the worker link, the shard
/// layout bookkeeping and the queue of reply-free work. All sends for one
/// logical operation happen while the engine holds the controller lock, so
/// every worker sees commands in the same global order.
pub(super) struct Controller {
    /// The worker world this controller drives, for as long as it lives;
    /// dropping it sends the world home to its pool or shuts it down.
    pub(super) lease: ShardLease,
    /// Live qubit positions (mirrors the registry length).
    pub(super) n_qubits: usize,
    /// Active shard-index bits: `min(max_shard_bits, n_qubits)`.
    pub(super) shard_bits: u32,
    /// Configured shard-count exponent.
    pub(super) max_shard_bits: u32,
    /// Controller→worker command rounds issued: one per fan-out, which
    /// carries a read, a snapshot's queue, or a queue at its bound. The
    /// round-cost acceptance tests read this.
    pub(super) cmd_rounds: u64,
    /// Worker↔worker exchange rounds planned: one per cross-shard op or
    /// moved reshape part (the irreducible data motion), and one per
    /// free's norm all-gather among two or more shards.
    pub(super) xchg_rounds: u64,
    /// Checkpoint + replay state; `Some` exactly for multi-process links.
    pub(super) failover: Option<FailoverState>,
    /// Reply-free work not yet shipped.
    pub(super) queue: Queue,
}

/// The reply-free commands each worker has yet to receive, in global order:
/// planned gate streams, alloc and free reshapes, and measurement collapses.
/// They travel in the frame of the next command round.
#[derive(Clone)]
pub(super) struct Queue {
    pub(super) cmds: Vec<Vec<ShardCmd>>,
    /// Commands and gate-stream ops held, over every worker.
    pub(super) len: usize,
}

impl Controller {
    /// The controller of `lease`'s world, holding no qubits; failover is
    /// armed when a worker of the link can die alone.
    pub(super) fn new(lease: ShardLease) -> Self {
        let workers = lease.shards();
        Controller {
            n_qubits: 0,
            shard_bits: 0,
            max_shard_bits: workers.trailing_zeros(),
            failover: lease.link().arms_failover().then(FailoverState::new),
            lease,
            cmd_rounds: 0,
            xchg_rounds: 0,
            queue: Queue {
                cmds: vec![Vec::new(); workers],
                len: 0,
            },
        }
    }

    /// Total worker count (`2^k`).
    pub(super) fn workers(&self) -> usize {
        1 << self.max_shard_bits
    }

    /// Currently active shard count (`2^min(k, n)`).
    fn active(&self) -> usize {
        1 << self.shard_bits
    }

    /// Index bits addressing within a stripe.
    fn local_bits(&self) -> usize {
        self.n_qubits - self.shard_bits as usize
    }

    /// Raw command send: straight to the wire/mailbox, no unit recording.
    /// Recovery and checkpoint traffic uses this directly.
    pub(super) fn send_raw(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        self.lease.link_mut().send_cmd(shard, cmd)
    }

    /// Raw reply receive, no unit recording.
    pub(super) fn reply_raw(&mut self, shard: usize, what: &str) -> Result<ShardReply, DeadWorker> {
        self.lease.link_mut().reply_from(shard, what)
    }

    /// Unwraps the reply shape the protocol calls for at this point; a
    /// worker answering with any other shape is a protocol bug, diagnosed
    /// here for every caller.
    fn shaped<T>(
        shard: usize,
        label: &str,
        reply: ShardReply,
        extract: impl FnOnce(ShardReply) -> Result<T, ShardReply>,
    ) -> T {
        extract(reply).unwrap_or_else(|other| {
            panic!("shard {shard} sent {other:?} where {label} was expected")
        })
    }

    /// Appends a reply-free command to shard `s`'s queue.
    fn enqueue(&mut self, s: usize, cmd: ShardCmd) {
        self.queue.len += 1;
        self.queue.cmds[s].push(cmd);
    }

    /// Appends a gate-stream op to shard `s`'s queue, joining the batch at
    /// its tail or opening one.
    fn push_op(&mut self, s: usize, op: WorkerOp) {
        self.queue.len += 1;
        match self.queue.cmds[s].last_mut() {
            Some(ShardCmd::Batch { ops }) => ops.push(op),
            _ => self.queue.cmds[s].push(ShardCmd::Batch { ops: vec![op] }),
        }
    }

    /// Queues reply-free work with `f`; a queue that has reached
    /// `BatchPolicy::default().max_ops` entries then ships on its own.
    pub(super) fn defer(&mut self, f: impl FnOnce(&mut Controller)) {
        f(self);
        if self.queue.len >= BatchPolicy::default().max_ops {
            self.flush();
        }
    }

    /// Ships the queue in a round of its own, if it holds anything.
    pub(super) fn flush(&mut self) {
        if self.queue.len > 0 {
            self.run(|c| c.round(|_| None));
        }
    }

    /// One command round: every worker gets its queue followed by `read(s)`
    /// (asked once per worker, in shard order) in one frame, and a worker
    /// with neither gets nothing. The caller collects the replies.
    fn round(&mut self, mut read: impl FnMut(usize) -> Option<ShardCmd>) -> Result<(), DeadWorker> {
        self.cmd_rounds += 1;
        self.queue.len = 0;
        for s in 0..self.workers() {
            let mut frame = std::mem::take(&mut self.queue.cmds[s]);
            frame.extend(read(s));
            let cmd = match frame.len() {
                0 => continue,
                1 => frame.remove(0),
                _ => ShardCmd::Seq(frame),
            };
            self.send_to(s, &cmd)?;
        }
        Ok(())
    }

    /// The (even, odd) masses under the parity of `mask`, each summed over
    /// the active shards in shard order from `0.0`: one read.
    pub(super) fn branches(&mut self, mask: usize) -> (f64, f64) {
        self.run(|c| {
            let active = c.active();
            c.round(|s| (s < active).then_some(ShardCmd::Branches { mask }))?;
            let (mut even, mut odd) = (0.0, 0.0);
            for s in 0..active {
                let reply = c.reply_from(s, "branch masses")?;
                let (e, o) = Self::shaped(s, "branch masses", reply, |r| match r {
                    ShardReply::Branches { even, odd } => Ok((even, odd)),
                    other => Err(other),
                });
                even += e;
                odd += o;
            }
            Ok((even, odd))
        })
    }

    /// Projects onto the parity of `mask` that `pick` chooses from the odd
    /// mass of one [`Controller::branches`] read, and queues the collapse;
    /// returns the pick.
    pub(super) fn project(&mut self, mask: usize, pick: impl FnOnce(f64) -> bool) -> bool {
        let (even_mass, odd_mass) = self.branches(mask);
        let odd = pick(odd_mass);
        let kept = if odd { odd_mass } else { even_mass };
        assert!(kept > 1e-12, "collapsing onto probability-zero outcome");
        let factor = 1.0 / kept.sqrt();
        for s in 0..self.active() {
            self.enqueue(s, ShardCmd::CollapseScale { mask, odd, factor });
        }
        odd
    }

    /// Uncounted, unrecorded whole-state gather (shards are contiguous
    /// global index ranges, so this is an append in shard order).
    /// Non-destructive: workers keep their stripes.
    pub(super) fn gather_raw(&mut self) -> Result<Vec<Complex>, DeadWorker> {
        for s in 0..self.active() {
            self.send_raw(s, &ShardCmd::Gather)?;
        }
        let mut flat = Vec::with_capacity(1usize << self.n_qubits);
        for s in 0..self.active() {
            let reply = self.reply_raw(s, "gather")?;
            flat.extend(Self::shaped(s, "a stripe", reply, |r| match r {
                ShardReply::Amps(a) => Ok(a),
                other => Err(other),
            }));
        }
        Ok(flat)
    }

    /// Uncounted, unrecorded scatter: recomputes the shard layout for
    /// `n_qubits` and distributes `flat` across the workers (inactive
    /// workers get an empty stripe).
    pub(super) fn scatter_raw(
        &mut self,
        mut flat: Vec<Complex>,
        n_qubits: usize,
    ) -> Result<(), DeadWorker> {
        debug_assert_eq!(flat.len(), 1usize << n_qubits);
        self.set_layout(n_qubits);
        let local_bits = self.local_bits();
        let len = flat.len() >> self.shard_bits;
        for s in 0..self.workers() {
            let amps = if s < self.active() {
                let rest = flat.split_off(len);
                std::mem::replace(&mut flat, rest)
            } else {
                Vec::new()
            };
            self.send_raw(
                s,
                &ShardCmd::Load {
                    shard_index: s,
                    local_bits,
                    amps,
                },
            )?;
        }
        Ok(())
    }

    /// Splits a set of global qubit positions into (within-stripe,
    /// shard-index) masks.
    fn split_masks(&self, positions: &[usize]) -> (usize, usize) {
        let l = self.local_bits();
        let mut lo = 0usize;
        let mut hi = 0usize;
        for &p in positions {
            assert!(p < self.n_qubits, "position {p} out of range");
            if p < l {
                lo |= 1 << p;
            } else {
                hi |= 1 << (p - l);
            }
        }
        (lo, hi)
    }

    /// Plans one pair gate: within-shard targets get a local pass,
    /// cross-shard targets get the stripe-pair exchange ops.
    pub(super) fn plan_pair(&mut self, controls: &[usize], target: usize, kernel: PairKernel) {
        let (c_lo, c_hi) = self.split_masks(controls);
        let l = self.local_bits();
        if target < l {
            let tbit = 1usize << target;
            for s in 0..self.active() {
                if s & c_hi == c_hi {
                    self.push_op(s, WorkerOp::PairWithin { c_lo, tbit, kernel });
                }
            }
        } else {
            let tbit = 1usize << (target - l);
            for s0 in (0..self.active()).filter(|s| s & tbit == 0 && s & c_hi == c_hi) {
                self.pair_up(s0, s0 | tbit, |partner| WorkerOp::CrossLow {
                    partner,
                    c_lo,
                    kernel,
                });
            }
        }
    }

    /// Plans one stripe exchange: shard `low` runs `op(partner)` against
    /// the stripe shard `high` ships it with a [`WorkerOp::CrossHigh`].
    fn pair_up(&mut self, low: usize, high: usize, op: impl FnOnce(usize) -> WorkerOp) {
        self.push_op(low, op(rank_of(high)));
        let partner = rank_of(low);
        self.push_op(high, WorkerOp::CrossHigh { partner });
        self.xchg_rounds += 1;
    }

    /// Plans a diagonal phase pass (CZ) for the matching shards.
    pub(super) fn plan_phase(&mut self, a: usize, b: usize) {
        let (lo_mask, hi_mask) = self.split_masks(&[a, b]);
        for s in 0..self.active() {
            if s & hi_mask == hi_mask {
                self.push_op(s, WorkerOp::Phase { lo_mask });
            }
        }
    }

    /// Plans one merged diagonal sweep for every shard. All sweeps are
    /// shard-local (no exchange): every worker receives the *full* factor
    /// list in plan order, each factor's position mask cut down to the
    /// within-stripe bits. The shard-index bits a mask reads are settled by
    /// the shard itself — odd parity there swaps `(d0, d1)` — and a factor
    /// left reading no stripe bit arrives as the constant `(0, c, c)`, so
    /// each worker multiplies by the product the dense engine forms for the
    /// same global index. A CZ flip mask is shipped only to the shards whose
    /// index bits satisfy its high half (`0` = negate the whole stripe,
    /// which is exact).
    pub(super) fn plan_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    ) {
        let l = self.local_bits();
        let low = (1usize << l) - 1;
        let (factors, flips) = stripe::sweep_masks(positions, diags, czs);
        for s in 0..self.active() {
            let diags: Vec<_> = factors
                .iter()
                .map(|&(mask, d0, d1)| {
                    let (d0, d1) = match (s & mask >> l).count_ones() % 2 {
                        0 => (d0, d1),
                        _ => (d1, d0),
                    };
                    match mask & low {
                        0 => (0, d0, d0),
                        lo_mask => (lo_mask, d0, d1),
                    }
                })
                .collect();
            let on_shard = flips.iter().filter(|&&flip| s & flip >> l == flip >> l);
            let lo_flips: Vec<_> = on_shard.map(|flip| flip & low).collect();
            if !diags.is_empty() || !lo_flips.is_empty() {
                let op = WorkerOp::PhaseSweep {
                    diags,
                    flips: lo_flips,
                };
                self.push_op(s, op);
            }
        }
    }

    /// Plans a one-round SWAP of positions `a` and `b` (the stripe-exchange
    /// realization — one exchange per shard pair instead of the three CNOT
    /// passes, 6 transfers, of the naive form).
    pub(super) fn plan_swap(&mut self, a: usize, b: usize) {
        debug_assert_ne!(a, b);
        let l = self.local_bits();
        let (lo, hi) = (a.min(b), a.max(b));
        if hi < l {
            let (abit, bbit) = (1usize << lo, 1usize << hi);
            for s in 0..self.active() {
                self.push_op(s, WorkerOp::SwapWithin { abit, bbit });
            }
        } else if lo < l {
            let abit = 1usize << lo;
            let hbit = 1usize << (hi - l);
            for s0 in (0..self.active()).filter(|s| s & hbit == 0) {
                self.pair_up(s0, s0 | hbit, |partner| WorkerOp::SwapCrossLow {
                    partner,
                    abit,
                });
            }
        } else {
            let abit = 1usize << (lo - l);
            let bbit = 1usize << (hi - l);
            // Both members trade whole stripes.
            for s in (0..self.active()).filter(|s| s & abit != 0 && s & bbit == 0) {
                self.pair_up(s, s ^ abit ^ bbit, |partner| WorkerOp::CrossHigh {
                    partner,
                });
            }
        }
    }

    /// Distributed (gather-free) Pauli expectation: one read of
    /// [`ShardCmd::Expect`] with the pairing roles implied by the
    /// shard-crossing half of the X mask, then the complex partials summed
    /// in shard order.
    pub(super) fn expect(&mut self, x_mask: usize, z_mask: usize) -> Result<Complex, DeadWorker> {
        let l = self.local_bits();
        let x_lo = x_mask & ((1usize << l) - 1);
        let x_hi = x_mask & !((1usize << l) - 1);
        let flip = x_hi >> l;
        let (mut reporters, mut cmds) = (Vec::new(), Vec::new());
        for s in 0..self.active() {
            let role = match s ^ flip {
                p if p == s => ExpectRole::Solo,
                p if s < p => {
                    self.xchg_rounds += 1;
                    ExpectRole::Low {
                        partner: rank_of(p),
                    }
                }
                p => ExpectRole::High {
                    partner: rank_of(p),
                },
            };
            if !matches!(role, ExpectRole::High { .. }) {
                reporters.push(s);
            }
            cmds.push(ShardCmd::Expect {
                x_lo,
                x_hi,
                z_mask,
                role,
            });
        }
        let mut cmds = cmds.into_iter();
        self.round(|_| cmds.next())?;
        let mut acc = Complex::default();
        for s in reporters {
            let reply = self.reply_from(s, "expectation partial")?;
            acc += Self::shaped(s, "a complex partial", reply, |r| match r {
                ShardReply::PartialC(c) => Ok(c),
                other => Err(other),
            });
        }
        Ok(acc)
    }

    /// The layout change of an alloc (`remove` is `None`: the new qubit
    /// takes the top position) or a free (`Some((pos, outcome))`, the qubit
    /// already collapsed) where the amplitudes live: one queued
    /// [`ShardCmd::Reshape`] per involved worker, and the layout switches at
    /// once. Nothing comes back; a free's workers renormalise among
    /// themselves. The shard stays the top `k` bits of the global index, so
    /// every old stripe splits into equal parts with one destination each,
    /// and each command tells its worker where its parts go and whose parts
    /// it assembles.
    pub(super) fn reshape(&mut self, remove: Option<(usize, bool)>) {
        let (l, bits) = (self.local_bits(), self.shard_bits);
        let new_n = if remove.is_some() {
            self.n_qubits - 1
        } else {
            self.n_qubits + 1
        };
        let new_bits = self.max_shard_bits.min(new_n as u32);
        let new_l = new_n - new_bits as usize;
        // Destination shards of old shard `s`'s equal parts, in offset
        // order; none when the stripe lies on the discarded branch.
        let dest = |s: usize| match remove {
            // The shard count doubles: single amplitudes stay put.
            None if new_bits > bits => vec![s],
            // New shard `s'` is old shards `2s'` and `2s' + 1` end to end.
            None => vec![s >> 1],
            Some((pos, _)) if pos < l => vec![s],
            Some((pos, outcome)) => {
                let j = pos - l;
                if (s >> j) & 1 != outcome as usize {
                    return Vec::new();
                }
                let s_r = (s & ((1 << j) - 1)) | ((s >> (j + 1)) << j);
                if new_bits < bits {
                    vec![s_r]
                } else {
                    vec![s_r << 1, (s_r << 1) | 1]
                }
            }
        };
        let involved = self.active().max(1 << new_bits);
        let mut sends = vec![Vec::new(); involved];
        let mut recvs = vec![Vec::new(); involved];
        for (s, sends) in sends.iter_mut().enumerate().take(self.active()) {
            for d in dest(s) {
                sends.push(rank_of(d));
                recvs[d].push(rank_of(s));
                self.xchg_rounds += (d != s) as u64;
            }
        }
        // A free's norm all-gather is one more exchange round.
        let renorm = if remove.is_some() { 1 << new_bits } else { 0 };
        self.xchg_rounds += u64::from(renorm > 1);
        for (s, (sends, recvs)) in sends.into_iter().zip(recvs).enumerate() {
            let cmd = ShardCmd::Reshape {
                compact: remove.filter(|&(pos, _)| pos < l),
                sends,
                recvs,
                shard_index: s,
                local_bits: new_l,
                len: if s >> new_bits == 0 { 1 << new_l } else { 0 },
                renorm,
            };
            self.enqueue(s, cmd);
        }
        self.set_layout(new_n);
    }

    /// Switches the layout bookkeeping to `n_qubits` live qubits.
    fn set_layout(&mut self, n_qubits: usize) {
        self.n_qubits = n_qubits;
        self.shard_bits = self.max_shard_bits.min(n_qubits as u32);
    }
}
