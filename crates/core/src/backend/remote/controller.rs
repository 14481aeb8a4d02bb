//! The controller: which commands each store call becomes (the planners),
//! the per-worker queue of reply-free work, and the command round that
//! ships it with a read.

use super::failover::{DeadWorker, FailoverState};
use super::wire::encode_frame;
use super::{rank_of, ExpectRole, PairKernel, ShardCmd, ShardReply, WorkerOp};
use crate::backend::pool::ShardLease;
use crate::context::BatchPolicy;
use qsim::stripe::{self, ExactSum};
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
    /// The physical index bit of each live position. Bits below
    /// `local_bits` address within a stripe and the `shard_bits` above them
    /// select it; a position keeps its bit while it lives, unless a free
    /// moves it (see [`Controller::reshape`]).
    phys: Vec<usize>,
    /// Active shard-index bits: `min(max_shard_bits, n_qubits)`.
    pub(super) shard_bits: u32,
    /// Configured shard-count exponent.
    pub(super) max_shard_bits: u32,
    /// Controller→worker command rounds issued: one per fan-out, which
    /// carries a read, a snapshot's queue, or a queue at its bound. The
    /// round-cost acceptance tests read this.
    pub(super) cmd_rounds: u64,
    /// Worker↔worker exchange rounds planned: one per cross-shard op or
    /// moved reshape part (the irreducible data motion).
    pub(super) xchg_rounds: u64,
    /// Checkpoint + replay state.
    pub(super) failover: FailoverState,
    /// Reply-free work not yet shipped.
    pub(super) queue: Queue,
    /// The branch masses of the last [`Controller::masses`] read and its
    /// mask, for as long as no work is queued after it: a free takes the
    /// mass it rescales by from the read that decided its outcome.
    read: Option<(usize, [ExactSum; 2])>,
}

/// The world ranks a worker's stripe parts go to, and the one whose part
/// becomes its new stripe ([`ShardCmd::Reshape`]'s `sends` and `recv`).
type Moves = (Vec<usize>, Option<usize>);

/// The reply-free commands each worker has yet to receive, in global order:
/// planned gate streams, alloc and free reshapes, and measurement collapses.
/// They travel in the frame of the next command round, and stay here until
/// its retry unit commits.
pub(super) struct Queue {
    pub(super) cmds: Vec<Vec<ShardCmd>>,
    /// Commands and gate-stream ops held, over every worker.
    pub(super) len: usize,
}

impl Controller {
    /// The controller of `lease`'s world, holding no qubits.
    pub(super) fn new(lease: ShardLease) -> Self {
        let workers = lease.shards();
        Controller {
            n_qubits: 0,
            phys: Vec::new(),
            shard_bits: 0,
            max_shard_bits: workers.trailing_zeros(),
            failover: FailoverState::new(),
            lease,
            cmd_rounds: 0,
            xchg_rounds: 0,
            queue: Queue {
                cmds: vec![Vec::new(); workers],
                len: 0,
            },
            read: None,
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

    /// Appends a reply-free command to shard `s`'s queue.
    fn enqueue(&mut self, s: usize, cmd: ShardCmd) {
        self.read = None;
        self.queue.len += 1;
        self.queue.cmds[s].push(cmd);
    }

    /// Appends a gate-stream op to shard `s`'s queue, joining the batch at
    /// its tail or opening one.
    fn push_op(&mut self, s: usize, op: WorkerOp) {
        self.read = None;
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
    /// (asked once per worker, in shard order) in one frame, encoded from
    /// the queue where it stays, and a worker with neither gets nothing.
    /// The caller collects the replies.
    fn round(&mut self, mut read: impl FnMut(usize) -> Option<ShardCmd>) -> Result<(), DeadWorker> {
        self.cmd_rounds += 1;
        for s in 0..self.workers() {
            let read = read(s);
            let queued = &self.queue.cmds[s];
            let Some(frame) = encode_frame(queued, read.as_ref()) else {
                continue;
            };
            let replies = read.as_ref().map_or(0, ShardCmd::replies);
            self.send_to(s, frame, replies, !queued.is_empty())?;
        }
        Ok(())
    }

    /// The (even, odd) masses under the parity of `mask`: each worker's
    /// exact partials, merged. One read.
    pub(super) fn masses(&mut self, mask: usize) -> [ExactSum; 2] {
        let masses = self.run(|c| c.branches(mask));
        self.read = Some((mask, masses));
        masses
    }

    /// The read behind [`Controller::masses`].
    fn branches(&mut self, mask: usize) -> Result<[ExactSum; 2], DeadWorker> {
        let active = self.active();
        self.round(|s| (s < active).then_some(ShardCmd::Branches { mask }))?;
        let mut masses = [ExactSum::ZERO; 2];
        for s in 0..active {
            let ShardReply::Branches { even, odd } = self.reply_from(s)? else {
                return self.lease.link_mut().fail(s);
            };
            masses[0].merge(even);
            masses[1].merge(odd);
        }
        Ok(masses)
    }

    /// Projects onto the parity of `mask` that `pick` chooses from the odd
    /// mass of one read, and queues the collapse with its rescale by the
    /// kept mass; returns the pick.
    pub(super) fn project(&mut self, mask: usize, pick: impl FnOnce(f64) -> bool) -> bool {
        let masses = self.masses(mask);
        let odd = pick(masses[1].finish());
        let factor = stripe::renormalizer(masses[usize::from(odd)].finish());
        for s in 0..self.active() {
            self.enqueue(s, ShardCmd::CollapseScale { mask, odd, factor });
        }
        odd
    }

    /// Removes position `pos`, keeping its `outcome` branch rescaled by
    /// one over the square root of its mass, as one queued reshape. The
    /// mass is the last read's when that read was of this qubit and nothing
    /// has been queued since (the read that decided a free), else one read
    /// now.
    pub(super) fn remove_branch(&mut self, pos: usize, outcome: bool) {
        let mask = 1 << self.bit(pos);
        let masses = match self.read {
            Some((read, masses)) if read == mask => masses,
            _ => self.masses(mask),
        };
        let factor = stripe::renormalizer(masses[usize::from(outcome)].finish());
        self.reshape(Some((pos, outcome, factor)));
    }

    /// Uncounted, unrecorded whole-state gather (shards are contiguous
    /// global index ranges, so this is an append in shard order).
    /// Non-destructive: workers keep their stripes.
    pub(super) fn gather_raw(&mut self) -> Result<Vec<Complex>, DeadWorker> {
        for s in 0..self.active() {
            self.lease.link_mut().send_cmd(s, &ShardCmd::Gather)?;
        }
        let mut flat = Vec::with_capacity(1usize << self.n_qubits);
        for s in 0..self.active() {
            let ShardReply::Amps(stripe) = self.lease.link_mut().reply_from(s)? else {
                return self.lease.link_mut().fail(s);
            };
            flat.extend(stripe);
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
            self.lease.link_mut().send_cmd(
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

    /// The physical index bit of position `pos`.
    pub(super) fn bit(&self, pos: usize) -> usize {
        self.phys[pos]
    }

    /// The physical index mask of the listed positions.
    pub(super) fn mask(&self, positions: &[usize]) -> usize {
        positions.iter().fold(0, |mask, &p| mask | 1 << self.bit(p))
    }

    /// Splits a set of positions into (within-stripe, shard-index) masks.
    fn split_masks(&self, positions: &[usize]) -> (usize, usize) {
        let (mask, l) = (self.mask(positions), self.local_bits());
        (mask & ((1 << l) - 1), mask >> l)
    }

    /// Plans one pair gate: within-shard targets get a local pass,
    /// cross-shard targets get the stripe-pair exchange ops.
    pub(super) fn plan_pair(&mut self, controls: &[usize], target: usize, kernel: PairKernel) {
        let (c_lo, c_hi) = self.split_masks(controls);
        let (l, target) = (self.local_bits(), self.bit(target));
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
        let positions: Vec<usize> = positions.iter().map(|&p| self.bit(p)).collect();
        let czs: Vec<(usize, usize)> = czs
            .iter()
            .map(|&(a, b)| (self.bit(a), self.bit(b)))
            .collect();
        let (factors, flips) = stripe::sweep_masks(&positions, diags, &czs);
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
        let (l, a, b) = (self.local_bits(), self.bit(a), self.bit(b));
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
            // The members trade whole stripes: the lower one swaps its
            // stripe with the one its partner ships (a pure permutation) and
            // ships the old one back, so neither writes while the other does.
            for s in (0..self.active()).filter(|s| s & abit != 0 && s & bbit == 0) {
                self.pair_up(s, s ^ abit ^ bbit, |partner| WorkerOp::CrossLow {
                    partner,
                    c_lo: 0,
                    kernel: PairKernel::Swap,
                });
            }
        }
    }

    /// Distributed (gather-free) Pauli expectation: one read of
    /// [`ShardCmd::Expect`] with the pairing roles implied by the
    /// shard-crossing half of the X mask, then the workers' exact partials
    /// merged.
    pub(super) fn expect(
        &mut self,
        x_mask: usize,
        z_mask: usize,
    ) -> Result<[ExactSum; 2], DeadWorker> {
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
        let mut acc = [ExactSum::ZERO; 2];
        for s in reporters {
            let ShardReply::Expect { re, im } = self.reply_from(s)? else {
                return self.lease.link_mut().fail(s);
            };
            acc[0].merge(re);
            acc[1].merge(im);
        }
        Ok(acc)
    }

    /// The layout change of an alloc (`remove` is `None`) or a free
    /// (`Some((pos, outcome, factor))`, keeping the `outcome` branch scaled
    /// by `factor`), as one queued [`ShardCmd::Reshape`] per involved
    /// worker; the layout switches at once and nothing comes back.
    ///
    /// The shard axes stay on the qubits that hold them. While there are
    /// fewer qubits than shard bits, a new qubit is a new shard axis and
    /// the new shards start from zero; after that, a new qubit is the
    /// highest local bit, so each stripe doubles in place. Freeing a local
    /// qubit compacts and rescales each stripe in one pass where it lives.
    /// Only freeing a shard axis moves amplitudes: the highest local qubit
    /// takes the axis over, and the kept side of each shard pair rescales
    /// and sends one half of its stripe to the other (with no local qubit
    /// left, the shard count halves instead); the dropped side discards its
    /// stripe untouched.
    pub(super) fn reshape(&mut self, remove: Option<(usize, bool, f64)>) {
        let (n, l, active) = (self.n_qubits, self.local_bits(), self.active());
        // Per worker: the world ranks its stripe's equal parts go to, and
        // the one whose part becomes its new stripe.
        let mut moves: Vec<Moves> = (0..active)
            .map(|s| (vec![rank_of(s)], Some(rank_of(s))))
            .collect();
        let (mut compact, mut factor) = (None, 1.0);
        let (new_n, new_l) = match remove {
            None if self.shard_bits < self.max_shard_bits => {
                // The new shards start empty: zero-filled to one amplitude.
                moves.resize(2 * active, Moves::default());
                self.phys.push(n);
                (n + 1, 0)
            }
            None => {
                for p in &mut self.phys {
                    *p += usize::from(*p >= l);
                }
                self.phys.push(l);
                (n + 1, l + 1)
            }
            Some((pos, outcome, kept_factor)) => {
                factor = kept_factor;
                let b = self.phys.remove(pos);
                let into = match b.checked_sub(l) {
                    None => {
                        compact = Some((b, outcome));
                        b
                    }
                    Some(j) if l > 0 => {
                        self.promote(j, outcome, &mut moves);
                        // The top local qubit moves onto the freed axis and
                        // its bit is the one vacated.
                        let top = self.phys.iter().position(|&p| p == l - 1);
                        self.phys[top.expect("a local qubit is live")] = b;
                        l - 1
                    }
                    Some(j) => {
                        self.halve(j, outcome, &mut moves);
                        b
                    }
                };
                for p in &mut self.phys {
                    *p -= usize::from(*p > into);
                }
                (n - 1, l.saturating_sub(1))
            }
        };
        self.set_layout(new_n);
        for (s, (sends, recv)) in moves.into_iter().enumerate() {
            let cmd = ShardCmd::Reshape {
                compact,
                factor,
                sends,
                recv,
                shard_index: s,
                local_bits: new_l,
                len: if s < self.active() { 1 << new_l } else { 0 },
            };
            self.enqueue(s, cmd);
        }
    }

    /// The moves of freeing shard axis `j` onto `outcome` while local
    /// qubits live: the kept side of each shard pair sends the half of its
    /// stripe the top local bit selects to that side of the pair.
    fn promote(&mut self, j: usize, outcome: bool, moves: &mut [Moves]) {
        let jbit = 1usize << j;
        for low in (0..moves.len()).filter(|s| s & jbit == 0) {
            let high = low | jbit;
            let (kept, gone) = if outcome { (high, low) } else { (low, high) };
            moves[kept].0 = vec![rank_of(low), rank_of(high)];
            moves[gone] = (Vec::new(), Some(rank_of(kept)));
            self.xchg_rounds += 1;
        }
    }

    /// The moves of freeing shard axis `j` onto `outcome` when every qubit
    /// is a shard axis: the shards on the outcome's side keep their one
    /// amplitude and renumber without bit `j`, and the others go inactive.
    fn halve(&mut self, j: usize, outcome: bool, moves: &mut [Moves]) {
        moves.fill(Moves::default());
        for s in (0..moves.len()).filter(|s| (s >> j) & 1 == usize::from(outcome)) {
            let d = (s & ((1 << j) - 1)) | ((s >> (j + 1)) << j);
            moves[s].0.push(rank_of(d));
            moves[d].1 = Some(rank_of(s));
            self.xchg_rounds += u64::from(d != s);
        }
    }

    /// Switches the layout bookkeeping to `n_qubits` live qubits.
    fn set_layout(&mut self, n_qubits: usize) {
        self.n_qubits = n_qubits;
        self.shard_bits = self.max_shard_bits.min(n_qubits as u32);
    }
}
