//! Process-separated shard workers: the remote sharded state-vector engine.
//!
//! [`super::ShardedStateVector`] cuts the amplitude vector into stripes in
//! one address space. This module removes that last assumption:
//! [`RemoteShardedEngine`] places each of the `2^k` amplitude shards in a
//! dedicated *worker rank* — its own thread of control with its own mailbox,
//! spawned via [`cmpi::Universe::spawn_workers`] — and turns every shard
//! interaction into a [`cmpi`] message protocol. Nothing but messages
//! crosses the shard boundary, which is the paper's actual deployment model
//! (Section 4: shards live in separate QMPI nodes) and the shape NetQMPI
//! gives its MPI simulation workers.
//!
//! ## Roles and message flow
//!
//! The engine is the *controller* (rank 0 of a private worker world); shard
//! `s` is owned by worker rank `s + 1`. Three tag channels exist:
//!
//! | tag | direction | carries |
//! |---|---|---|
//! | `TAG_CMD` | controller → worker | [`ShardCmd`] (gates, queries, lifecycle) |
//! | `TAG_REPLY` | worker → controller | [`ShardReply`] (partial sums, stripes) |
//! | `TAG_XCHG` | worker ↔ worker | stripe amplitudes (cross-shard pairing, reshape parts, a free's squared norms) |
//!
//! Every command broadcast happens under one controller lock, so all
//! workers observe the *same global command order*; each worker applies its
//! commands sequentially from its mailbox (FIFO per sender under cmpi's
//! non-overtaking guarantee). Together those two facts give every stripe a
//! single consistent history — the property the striped store gets from
//! `&mut self` — without any shared memory.
//!
//! * **Ship on a read.** Work that needs no reply waits in a per-worker
//!   queue on the controller, in global order: planned gate streams, alloc
//!   and free reshapes, measurement collapses. A command
//!   that needs a reply takes the worker's queue with it in one
//!   [`ShardCmd::Seq`] frame (queue first, then the read), and a worker the
//!   read does not address gets its queue in the same fan-out. So a command
//!   round is a read, which is the QMPI paper's aggregation argument (and
//!   the NetQASM SDK's, on which NetQMPI builds) applied to the simulator's
//!   own transport. A queue that reaches `BatchPolicy::default().max_ops`
//!   entries ships in a round of its own.
//! * **Gate streams** are *planned*: the controller decomposes each gate
//!   into per-stripe moves ([`WorkerOp`]) and appends them to the
//!   [`ShardCmd::Batch`] at the tail of each worker's queue. Batched, eager
//!   and coalesced gate streams therefore become the same frames, execute
//!   the same kernels in the same order and stay bit-identical per seed.
//! * **Within-shard gates** become [`WorkerOp::PairWithin`] entries;
//!   workers run the identical [`qsim::stripe`] kernels the in-process
//!   striped store runs, in parallel.
//! * **Cross-shard gates** pair shard `s0` with `s0 | tbit`: the high
//!   member ships its stripe to the low member ([`WorkerOp::CrossHigh`] /
//!   [`WorkerOp::CrossLow`]), which zips the pair kernel across both
//!   stripes and ships the updated half back. Every worker walks its
//!   batch frame in the same global gate order, so exchanges inside a
//!   batch pair up deadlock-free.
//! * **SWAP** is a dedicated one-round stripe exchange
//!   ([`WorkerOp::SwapWithin`], or [`WorkerOp::SwapCrossLow`] against a
//!   [`WorkerOp::CrossHigh`] partner, or two shard-selecting qubits'
//!   stripes traded whole by a [`WorkerOp::CrossHigh`] on each member): a
//!   pure amplitude permutation costing at most one exchange per shard
//!   pair, where the three-CNOT realization pays three (6 cross-shard
//!   stripe transfers).
//! * **Measurement** is one read: [`ShardCmd::Branches`] brings back each
//!   stripe's (even, odd) mass under a parity mask (a single qubit is a
//!   one-bit parity, the only form the store is asked for), the controller
//!   compares the front's uniform draw with the odd total, and the
//!   projection onto the outcome is queued as a reply-free
//!   [`ShardCmd::CollapseScale`].
//! * **Expectation values** are gather-free: [`ShardCmd::Expect`] pairs
//!   each shard with its `x_mask`-partner ([`ExpectRole`]), the partners
//!   exchange stripes worker↔worker, and only complex partial sums flow
//!   to the controller — never the amplitude vector.
//! * **Noise** is sampled on the controller by the one simulator front
//!   ([`qsim::sim::AmpSim`], the dense engine's, so trajectories are
//!   identical draw for draw) and injected as uncounted single-qubit
//!   gates — planned into the same batch frame as the gates they ride on.
//!   An amplitude-damping draw reads the qubit's one-bit parity mass, which
//!   ships the queue first.
//! * **Allocating and freeing qubits** reshapes the stripes where they
//!   live ([`ShardCmd::Reshape`]): the shard stays the top `k` bits of the
//!   global index and a new qubit takes the top position, so the
//!   controller can tell each worker which equal parts of its stripe go to
//!   which workers and whose parts make up its new stripe. Parts move
//!   worker↔worker on `TAG_XCHG`; a fresh top qubit's all-zero |1⟩ half
//!   travels as a length. Neither needs anything back, so both queue. After
//!   a free the workers of the new layout renormalise among themselves:
//!   each sends its squared norm to the others on `TAG_XCHG`, and all add
//!   them in shard order and scale by the same `1/√sum`.
//! * **Snapshots** (`state_vector`), failover checkpoints and recovery are
//!   the only users of the dense state: [`ShardCmd::Gather`] and
//!   [`ShardCmd::Load`]. A snapshot ships the queue in a round of its own
//!   before it gathers.
//!
//! ## Deadlock watchdog
//!
//! A dead or deadlocked worker must fail CI with a diagnostic, not hang it.
//! Every blocking receive the controller (and a worker awaiting its
//! exchange partner) performs goes through [`cmpi::Communicator::recv_timeout`]
//! with the engine's watchdog duration (default 30 s, overridable via a
//! positive `QMPI_REMOTE_WATCHDOG_MS` at engine construction or
//! [`RemoteShardedEngine::with_watchdog`]); expiry panics with the shard and
//! operation that timed out.
//!
//! ## The engine is a store under the one front
//!
//! [`RemoteShardedEngine`] is [`AmplitudeEngine`] over [`RemoteStore`], the
//! same generic engine as the dense, sparse and striped ones: handles,
//! operand checks, counters, noise and the measurement draw order come from
//! [`qsim::sim::AmpSim`]. The store's gate methods and `add_qubit` only
//! *queue*, and so does `remove_qubit`; its reads (probabilities,
//! measurements, expectations, snapshots) ship the queue. A measurement is one read because the front
//! draws its uniform before calling the store. Select the engine with
//! [`super::BackendKind::RemoteSharded`].

use super::amplitude::{AmplitudeEngine, EngineStore};
use super::pool::ShardLease;
use super::{BackendKind, TransportStats};
use crate::context::{env_positive, BatchPolicy};
use bytes::{BufMut, Bytes, BytesMut};
use cmpi::{Communicator, Decode, Encode, TransportKind};
use parking_lot::Mutex;
use qsim::gates::Mat2;
use qsim::measure::PauliTerm;
use qsim::noise::NoiseModel;
use qsim::state::MAX_DENSE_QUBITS;
use qsim::stripe;
use qsim::{AmpStore, Complex, SimError, State, SweepFactor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Command channel: controller → worker.
pub(super) const TAG_CMD: cmpi::Tag = 0;
/// Reply channel: worker → controller.
pub(super) const TAG_REPLY: cmpi::Tag = 1;
/// Stripe-exchange channel: worker ↔ worker (cross-shard pairing).
const TAG_XCHG: cmpi::Tag = 2;

/// The controller's rank in the private worker world.
const CONTROLLER: usize = 0;

/// Hard cap on the worker count (`2^6` = 64 worker ranks); each shard is a
/// real thread with a mailbox, so this is deliberately tighter than the
/// in-process stripe cap.
pub const MAX_REMOTE_SHARD_BITS: u32 = 6;

/// Default watchdog for blocking protocol receives, in milliseconds.
const DEFAULT_WATCHDOG_MS: usize = 30_000;

pub(crate) fn watchdog_from_env() -> Duration {
    let ms = env_positive("QMPI_REMOTE_WATCHDOG_MS", DEFAULT_WATCHDOG_MS);
    Duration::from_millis(ms as u64)
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

fn encode_complex(c: &Complex, buf: &mut BytesMut) {
    c.re.encode(buf);
    c.im.encode(buf);
}

fn decode_complex(buf: &mut Bytes) -> Option<Complex> {
    let re = f64::decode(buf)?;
    let im = f64::decode(buf)?;
    Some(Complex::new(re, im))
}

/// Shortest run of zero amplitudes a stripe payload sends as a length:
/// below it, the 16-byte segment header would save less than it costs.
const MIN_ZERO_RUN: usize = 4;

/// Exactly `+0.0 + 0.0i`; `-0.0`, subnormals and NaNs are literals.
fn is_zero(a: &Complex) -> bool {
    a.re.to_bits() | a.im.to_bits() == 0
}

/// A stripe payload: the amplitude count, then segments of `(zero_run,
/// literal_count, literals…)` until it is reached. Zero runs are at least
/// `MIN_ZERO_RUN` long, so a stripe costs at most one 16 B header more.
fn encode_amps(amps: &[Complex], buf: &mut BytesMut) {
    buf.reserve(24 + 16 * amps.len());
    amps.len().encode(buf);
    let mut rest = amps;
    while !rest.is_empty() {
        let zeros = rest.iter().take_while(|a| is_zero(a)).count();
        let zeros = if zeros >= MIN_ZERO_RUN { zeros } else { 0 };
        let lits = rest[zeros..]
            .windows(MIN_ZERO_RUN)
            .position(|w| w.iter().all(is_zero))
            .unwrap_or(rest.len() - zeros);
        zeros.encode(buf);
        lits.encode(buf);
        // Through a stack block, 64 literals at a time: the copy then
        // vectorizes, where one put per amplitude ran at a third the speed.
        for span in rest[zeros..zeros + lits].chunks(64) {
            let mut block = [[0u8; 16]; 64];
            for (out, a) in block.iter_mut().zip(span) {
                let bits = (u128::from(a.im.to_bits()) << 64) | u128::from(a.re.to_bits());
                *out = bits.to_le_bytes();
            }
            buf.put_slice(block[..span.len()].as_flattened());
        }
        rest = &rest[zeros + lits..];
    }
}

/// Hands each segment's zero run and literal bytes to `each`; `None` if a
/// count overruns `len` or the payload, or the segments stop short of `len`.
fn decode_segments(buf: &mut Bytes, len: usize, mut each: impl FnMut(usize, Bytes)) -> Option<()> {
    let mut left = len;
    while left > 0 {
        let zeros = usize::decode(buf)?;
        let lits = usize::decode(buf)?;
        if zeros > left || lits > left - zeros || lits > buf.len() / 16 {
            return None;
        }
        each(zeros, buf.split_to(16 * lits));
        left -= zeros + lits;
    }
    Some(())
}

fn decode_amps(buf: &mut Bytes) -> Option<Vec<Complex>> {
    let len = usize::decode(buf)?;
    if len > 1 << MAX_DENSE_QUBITS {
        return None;
    }
    // Zero runs cost no payload: check every segment before allocating.
    decode_segments(&mut buf.clone(), len, |_, _| {})?;
    let mut out = Vec::with_capacity(len);
    decode_segments(buf, len, |zeros, lits| {
        out.resize(out.len() + zeros, Complex::default());
        out.extend(lits.as_chunks::<16>().0.iter().map(|c| {
            let bits = u128::from_le_bytes(*c);
            let [re, im] = [bits as u64, (bits >> 64) as u64].map(f64::from_bits);
            Complex::new(re, im)
        }));
    })?;
    Some(out)
}

fn encode_mat(m: &Mat2, buf: &mut BytesMut) {
    for row in m {
        for c in row {
            encode_complex(c, buf);
        }
    }
}

fn decode_mat(buf: &mut Bytes) -> Option<Mat2> {
    let mut m = [[Complex::default(); 2]; 2];
    for row in &mut m {
        for c in row.iter_mut() {
            *c = decode_complex(buf)?;
        }
    }
    Some(m)
}

/// Stripe payload exchanged between cross-shard pairing partners.
#[derive(Clone, Debug, PartialEq)]
pub struct WireAmps(pub Vec<Complex>);

impl Encode for WireAmps {
    fn encode(&self, buf: &mut BytesMut) {
        encode_amps(&self.0, buf);
    }
}

impl Decode for WireAmps {
    fn decode(buf: &mut Bytes) -> Option<Self> {
        decode_amps(buf).map(WireAmps)
    }
}

pub use qsim::stripe::PairKernel;

fn encode_kernel(kernel: &PairKernel, buf: &mut BytesMut) {
    match kernel {
        PairKernel::Swap => 0u8.encode(buf),
        PairKernel::Mat(m) => {
            1u8.encode(buf);
            encode_mat(m, buf);
        }
    }
}

fn decode_kernel(buf: &mut Bytes) -> Option<PairKernel> {
    match u8::decode(buf)? {
        0 => Some(PairKernel::Swap),
        1 => decode_mat(buf).map(PairKernel::Mat),
        _ => None,
    }
}

/// One gate-stream operation inside a [`ShardCmd::Batch`] frame. These are
/// the per-stripe moves a unitary gate decomposes into once the shard
/// layout is known; the controller plans a whole [`qsim::GateBatch`] into
/// one `Vec<WorkerOp>` per participating worker, so N gates cost one
/// framed command message per worker instead of N.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerOp {
    /// Apply a pair kernel to within-stripe pairs.
    PairWithin {
        /// Within-stripe control mask.
        c_lo: usize,
        /// Target bit (within-stripe).
        tbit: usize,
        /// Kernel to apply.
        kernel: PairKernel,
    },
    /// Cross-shard pairing, low member: await the partner's stripe on
    /// `TAG_XCHG`, zip the kernel across both, ship the partner's half back.
    CrossLow {
        /// World rank of the high partner.
        partner: usize,
        /// Within-stripe control mask.
        c_lo: usize,
        /// Kernel to apply.
        kernel: PairKernel,
    },
    /// Ship the stripe to `partner`, then take the stripe that comes back as
    /// this one. The high member of a pair-gate or mixed-SWAP exchange runs
    /// it, and both members of a SWAP of two shard-selecting qubits run it to
    /// trade whole stripes (sends are buffered, so both send first and then
    /// receive).
    CrossHigh {
        /// World rank of the partner.
        partner: usize,
    },
    /// Diagonal phase pass (CZ): negate amplitudes matching the mask.
    Phase {
        /// Within-stripe mask selecting negated amplitudes.
        lo_mask: usize,
    },
    /// One-pass SWAP of two within-stripe qubits.
    SwapWithin {
        /// Bit of the first qubit (within-stripe).
        abit: usize,
        /// Bit of the second qubit (within-stripe).
        bbit: usize,
    },
    /// Mixed SWAP (one qubit within-stripe, one shard-selecting), low
    /// member: await the partner's stripe, run
    /// [`stripe::swap_across_mixed`], ship the partner's half back. One
    /// exchange round instead of the three CNOT passes (6 transfers) of
    /// the naive realization.
    SwapCrossLow {
        /// World rank of the high partner.
        partner: usize,
        /// Within-stripe bit of the local qubit.
        abit: usize,
    },
    /// One-pass merged diagonal sweep ([`qsim::BatchOp::PhaseSweep`]
    /// planned onto this shard): every factor multiplies sequentially in
    /// vec order against the within-stripe offset, then odd flip-parity
    /// negates. Shard-local (no exchange); the whole merged run of
    /// diagonal gates rides as one op in the batch frame.
    PhaseSweep {
        /// `(lo_mask, d0, d1)` factors in plan order. A factor whose
        /// qubit selects the shard arrives with `lo_mask = 0` and both
        /// entries set to the branch this shard lives on, so the worker's
        /// sequential multiply reproduces the dense engine's
        /// floating-point sequence exactly.
        diags: Vec<(usize, Complex, Complex)>,
        /// Within-stripe CZ masks (negate where fully set); pairs whose
        /// shard-selecting bits this shard does not satisfy are omitted
        /// at plan time, and a pair of two shard-selecting qubits that
        /// this shard satisfies arrives as `0` (negate the whole stripe).
        flips: Vec<usize>,
    },
}

impl Encode for WorkerOp {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            WorkerOp::PairWithin { c_lo, tbit, kernel } => {
                0u8.encode(buf);
                c_lo.encode(buf);
                tbit.encode(buf);
                encode_kernel(kernel, buf);
            }
            WorkerOp::CrossLow {
                partner,
                c_lo,
                kernel,
            } => {
                1u8.encode(buf);
                partner.encode(buf);
                c_lo.encode(buf);
                encode_kernel(kernel, buf);
            }
            WorkerOp::CrossHigh { partner } => {
                2u8.encode(buf);
                partner.encode(buf);
            }
            WorkerOp::Phase { lo_mask } => {
                3u8.encode(buf);
                lo_mask.encode(buf);
            }
            WorkerOp::SwapWithin { abit, bbit } => {
                4u8.encode(buf);
                abit.encode(buf);
                bbit.encode(buf);
            }
            WorkerOp::SwapCrossLow { partner, abit } => {
                5u8.encode(buf);
                partner.encode(buf);
                abit.encode(buf);
            }
            WorkerOp::PhaseSweep { diags, flips } => {
                7u8.encode(buf);
                diags.len().encode(buf);
                for (mask, d0, d1) in diags {
                    mask.encode(buf);
                    encode_complex(d0, buf);
                    encode_complex(d1, buf);
                }
                flips.encode(buf);
            }
        }
    }
}

impl Decode for WorkerOp {
    fn decode(buf: &mut Bytes) -> Option<Self> {
        Some(match u8::decode(buf)? {
            0 => WorkerOp::PairWithin {
                c_lo: usize::decode(buf)?,
                tbit: usize::decode(buf)?,
                kernel: decode_kernel(buf)?,
            },
            1 => WorkerOp::CrossLow {
                partner: usize::decode(buf)?,
                c_lo: usize::decode(buf)?,
                kernel: decode_kernel(buf)?,
            },
            2 => WorkerOp::CrossHigh {
                partner: usize::decode(buf)?,
            },
            3 => WorkerOp::Phase {
                lo_mask: usize::decode(buf)?,
            },
            4 => WorkerOp::SwapWithin {
                abit: usize::decode(buf)?,
                bbit: usize::decode(buf)?,
            },
            5 => WorkerOp::SwapCrossLow {
                partner: usize::decode(buf)?,
                abit: usize::decode(buf)?,
            },
            7 => {
                let n = usize::decode(buf)?;
                // 40 wire bytes per factor (mask + two complex); reject
                // corrupted lengths before allocating.
                if n > buf.len() / 40 {
                    return None;
                }
                let mut diags = Vec::with_capacity(n);
                for _ in 0..n {
                    let mask = usize::decode(buf)?;
                    let d0 = decode_complex(buf)?;
                    let d1 = decode_complex(buf)?;
                    diags.push((mask, d0, d1));
                }
                let flips = Vec::<usize>::decode(buf)?;
                WorkerOp::PhaseSweep { diags, flips }
            }
            _ => return None,
        })
    }
}

/// Which role a worker plays in a distributed (gather-free) Pauli
/// expectation evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExpectRole {
    /// No shard-crossing X mask: evaluate over the local stripe alone.
    Solo,
    /// Paired evaluation, low shard index: receive the partner's stripe,
    /// accumulate both stripes' contributions, reply with the partial.
    Low {
        /// World rank of the high partner.
        partner: usize,
    },
    /// Paired evaluation, high shard index: ship the stripe to the low
    /// partner; no reply (the low member reports for both).
    High {
        /// World rank of the low partner.
        partner: usize,
    },
}

impl Encode for ExpectRole {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ExpectRole::Solo => 0u8.encode(buf),
            ExpectRole::Low { partner } => {
                1u8.encode(buf);
                partner.encode(buf);
            }
            ExpectRole::High { partner } => {
                2u8.encode(buf);
                partner.encode(buf);
            }
        }
    }
}

impl Decode for ExpectRole {
    fn decode(buf: &mut Bytes) -> Option<Self> {
        Some(match u8::decode(buf)? {
            0 => ExpectRole::Solo,
            1 => ExpectRole::Low {
                partner: usize::decode(buf)?,
            },
            2 => ExpectRole::High {
                partner: usize::decode(buf)?,
            },
            _ => return None,
        })
    }
}

/// One command from the controller to a shard worker. See the module docs
/// for the protocol each variant participates in.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardCmd {
    /// Replace the worker's stripe: shard index, within-stripe bit count,
    /// and the amplitudes (empty for inactive workers).
    Load {
        /// This worker's shard index among the active shards.
        shard_index: usize,
        /// Number of index bits addressing within the stripe.
        local_bits: usize,
        /// The stripe's amplitudes.
        amps: Vec<Complex>,
    },
    /// Reply with the current stripe ([`ShardReply::Amps`]).
    Gather,
    /// A framed gate stream: execute the ops front to back. Every gate
    /// planned between two other queued commands joins one of these, so one
    /// command carries every move this worker makes for them.
    Batch {
        /// The worker's share of the planned gate stream, in global gate
        /// order.
        ops: Vec<WorkerOp>,
    },
    /// Distributed Pauli expectation: accumulate this stripe's
    /// contribution (see [`ExpectRole`] for the pairing protocol) against
    /// the global X/Z masks. Replies [`ShardReply::PartialC`] (except for
    /// the `High` role, which only ships its stripe to its partner).
    Expect {
        /// Within-stripe X mask (bit positions `< local_bits`).
        x_lo: usize,
        /// Shard-selecting X mask in *global* bit positions.
        x_hi: usize,
        /// Global Z mask.
        z_mask: usize,
        /// This worker's role in the evaluation.
        role: ExpectRole,
    },
    /// Reply with the stripe's even- and odd-parity probability masses
    /// under `mask` ([`ShardReply::Branches`]): a probability read, and the
    /// read half of a measurement.
    Branches {
        /// Global parity mask; one bit for a single qubit.
        mask: usize,
    },
    /// Keep the `odd` (or even) parity subspace under `mask`, zero the rest,
    /// and rescale every amplitude by `factor`: the reply-free half of a
    /// measurement.
    CollapseScale {
        /// Global parity mask.
        mask: usize,
        /// Which parity survives.
        odd: bool,
        /// `1/√(kept mass)`, reduced from the [`ShardCmd::Branches`] read.
        factor: f64,
    },
    /// Execute the commands in order: a worker's queue followed by the
    /// command that needs its reply. Holds no `Seq`; a failover abort
    /// abandons the rest of the frame.
    Seq(Vec<ShardCmd>),
    /// In-place layout change for an alloc or a free: compact the stripe
    /// locally, ship its equal parts worker↔worker on `TAG_XCHG`, and
    /// assemble the new stripe from the parts received (zero-padded to
    /// `len`). A rank equal to the worker's own (`shard_index + 1`) names a
    /// part that stays where it is. Everyone sends before receiving and
    /// sends are buffered, so no cycle of workers can wait on each other.
    Reshape {
        /// Drop this within-stripe qubit first, keeping the `bool` branch
        /// ([`stripe::remove_qubit_in_place`] on the worker's own stripe).
        compact: Option<(usize, bool)>,
        /// World ranks the stripe's `sends.len()` equal parts go to, in
        /// offset order; empty discards the stripe.
        sends: Vec<usize>,
        /// World ranks whose parts make up the new stripe, in offset order.
        recvs: Vec<usize>,
        /// This worker's shard index under the new layout.
        shard_index: usize,
        /// Within-stripe bit count under the new layout.
        local_bits: usize,
        /// New stripe length: `2^local_bits`, or 0 for an inactive worker.
        len: usize,
        /// After a free, the count of shards active in the new layout,
        /// which renormalise among themselves: each sends its squared norm
        /// to the others on `TAG_XCHG`, and all scale by `1/√sum`, the sum
        /// taken from `+0.0` in shard order. 0 for an alloc, which keeps
        /// the norm.
        renorm: usize,
    },
    /// Exit the event loop cleanly (sent by the engine's destructor).
    Shutdown,
    /// Exit the event loop *without* completing the protocol — a test hook
    /// for exercising the deadlock watchdog (a worker that dies mid-run).
    Die,
}

impl Encode for ShardCmd {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ShardCmd::Load {
                shard_index,
                local_bits,
                amps,
            } => {
                0u8.encode(buf);
                shard_index.encode(buf);
                local_bits.encode(buf);
                encode_amps(amps, buf);
            }
            ShardCmd::Gather => 1u8.encode(buf),
            ShardCmd::Batch { ops } => {
                2u8.encode(buf);
                ops.encode(buf);
            }
            ShardCmd::Expect {
                x_lo,
                x_hi,
                z_mask,
                role,
            } => {
                3u8.encode(buf);
                x_lo.encode(buf);
                x_hi.encode(buf);
                z_mask.encode(buf);
                role.encode(buf);
            }
            ShardCmd::Branches { mask } => {
                13u8.encode(buf);
                mask.encode(buf);
            }
            ShardCmd::CollapseScale { mask, odd, factor } => {
                14u8.encode(buf);
                mask.encode(buf);
                odd.encode(buf);
                factor.encode(buf);
            }
            ShardCmd::Seq(cmds) => {
                SEQ.encode(buf);
                cmds.encode(buf);
            }
            ShardCmd::Shutdown => 9u8.encode(buf),
            ShardCmd::Die => 10u8.encode(buf),
            ShardCmd::Reshape {
                compact,
                sends,
                recvs,
                shard_index,
                local_bits,
                len,
                renorm,
            } => {
                12u8.encode(buf);
                compact.encode(buf);
                sends.encode(buf);
                recvs.encode(buf);
                shard_index.encode(buf);
                local_bits.encode(buf);
                len.encode(buf);
                renorm.encode(buf);
            }
        }
    }
}

/// Wire discriminant of [`ShardCmd::Seq`].
const SEQ: u8 = 15;

impl Decode for ShardCmd {
    fn decode(buf: &mut Bytes) -> Option<Self> {
        match u8::decode(buf)? {
            SEQ => {
                let n = usize::decode(buf)?;
                if n > buf.len() {
                    return None;
                }
                // One level deep: an element is decoded as a plain command,
                // so a nested `Seq` is unknown and cannot recurse.
                (0..n)
                    .map(|_| decode_plain(u8::decode(buf)?, buf))
                    .collect::<Option<_>>()
                    .map(ShardCmd::Seq)
            }
            tag => decode_plain(tag, buf),
        }
    }
}

/// Whether a decoded stripe header names a layout the engine can reach: a
/// worker computes `shard_index << local_bits` from it, and a stripe of
/// `len` amplitudes is empty or covers the `local_bits` within-stripe bits.
fn reachable_layout(shard_index: usize, local_bits: usize, len: usize) -> bool {
    local_bits <= MAX_DENSE_QUBITS
        && shard_index < 1 << MAX_REMOTE_SHARD_BITS
        && (len == 0 || len == 1 << local_bits)
}

/// Decodes the body of every command but [`ShardCmd::Seq`] after its
/// discriminant `tag`.
fn decode_plain(tag: u8, buf: &mut Bytes) -> Option<ShardCmd> {
    Some(match tag {
        0 => {
            let shard_index = usize::decode(buf)?;
            let local_bits = usize::decode(buf)?;
            let amps = decode_amps(buf)?;
            if !reachable_layout(shard_index, local_bits, amps.len()) {
                return None;
            }
            ShardCmd::Load {
                shard_index,
                local_bits,
                amps,
            }
        }
        1 => ShardCmd::Gather,
        2 => ShardCmd::Batch {
            ops: Vec::<WorkerOp>::decode(buf)?,
        },
        3 => ShardCmd::Expect {
            x_lo: usize::decode(buf)?,
            x_hi: usize::decode(buf)?,
            z_mask: usize::decode(buf)?,
            role: ExpectRole::decode(buf)?,
        },
        // 4–7 were per-branch probability and collapse commands, 8 a free's
        // rescale and 11 a multi-segment frame; retired, they decode as
        // unknown.
        9 => ShardCmd::Shutdown,
        10 => ShardCmd::Die,
        12 => {
            // The generic decoders reject an unknown compaction tag and
            // a rank count beyond the bytes that remain.
            let compact = Option::<(usize, bool)>::decode(buf)?;
            let sends = Vec::<usize>::decode(buf)?;
            let recvs = Vec::<usize>::decode(buf)?;
            let shard_index = usize::decode(buf)?;
            let local_bits = usize::decode(buf)?;
            let len = usize::decode(buf)?;
            let renorm = usize::decode(buf)?;
            // No payload bytes back the stripe length or the shard counts;
            // they must agree with a layout the engine can reach, or a
            // worker would wait on ranks that do not exist.
            if !reachable_layout(shard_index, local_bits, len)
                || renorm > 1 << MAX_REMOTE_SHARD_BITS
            {
                return None;
            }
            ShardCmd::Reshape {
                compact,
                sends,
                recvs,
                shard_index,
                local_bits,
                len,
                renorm,
            }
        }
        13 => ShardCmd::Branches {
            mask: usize::decode(buf)?,
        },
        14 => ShardCmd::CollapseScale {
            mask: usize::decode(buf)?,
            odd: bool::decode(buf)?,
            factor: f64::decode(buf)?,
        },
        _ => return None,
    })
}

/// One reply from a shard worker to the controller.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardReply {
    /// The stripe's even- and odd-parity masses ([`ShardCmd::Branches`]).
    Branches {
        /// Mass of the even-parity basis states.
        even: f64,
        /// Mass of the odd-parity basis states.
        odd: f64,
    },
    /// The worker's stripe (gather).
    Amps(Vec<Complex>),
    /// A complex partial accumulator (distributed Pauli expectations).
    PartialC(Complex),
}

impl Encode for ShardReply {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ShardReply::Branches { even, odd } => {
                4u8.encode(buf);
                even.encode(buf);
                odd.encode(buf);
            }
            ShardReply::Amps(amps) => {
                1u8.encode(buf);
                encode_amps(amps, buf);
            }
            ShardReply::PartialC(c) => {
                2u8.encode(buf);
                encode_complex(c, buf);
            }
        }
    }
}

impl Decode for ShardReply {
    fn decode(buf: &mut Bytes) -> Option<Self> {
        match u8::decode(buf)? {
            // 0 was a single partial sum and 3 a free's reshape report;
            // retired, they decode as unknown.
            1 => decode_amps(buf).map(ShardReply::Amps),
            2 => decode_complex(buf).map(ShardReply::PartialC),
            4 => Some(ShardReply::Branches {
                even: f64::decode(buf)?,
                odd: f64::decode(buf)?,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker event loop
// ---------------------------------------------------------------------------

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
/// (`super::remote_transport::SockChannel`). [`worker_loop`] is generic
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

/// Renormalises a free's new stripe among the `active` workers of the new
/// layout (world ranks `1..=active`, `me` among them): each sends its
/// squared norm to every other on `TAG_XCHG`, and each adds all of them
/// from `+0.0` in shard order, so every worker scales by the same
/// `1/√sum`. With one active shard nothing moves.
fn renormalise<C: ShardChannel>(
    chan: &mut C,
    amps: &mut [Complex],
    me: usize,
    active: usize,
) -> Result<(), WorkerHalt> {
    let own = stripe::norm_sqr(amps);
    for peer in (1..=active).filter(|&r| r != me) {
        chan.send_xchg(peer, vec![Complex::real(own)])?;
    }
    let mut sum = 0.0;
    for peer in 1..=active {
        sum += if peer == me {
            own
        } else {
            match chan.recv_xchg(peer, "its squared norm")?[..] {
                [part] => part.re,
                _ => return Err(WorkerHalt::Exit),
            }
        };
    }
    // The front frees only a qubit the state is collapsed onto.
    debug_assert!(sum > 0.0, "cannot renormalize the zero vector");
    stripe::scale(amps, 1.0 / sum.sqrt());
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
            let base = *base;
            match role {
                ExpectRole::Solo => {
                    // x never leaves the stripe: the partner amplitude of
                    // offset `i` sits at `i ^ x_lo` locally.
                    let at = |g: usize| amps[g & (amps.len() - 1)];
                    let mut acc = Complex::default();
                    for i in 0..amps.len() {
                        if let Some(t) =
                            stripe::expectation_term(&|o| at(o), base | i, x_lo, z_mask)
                        {
                            acc += t;
                        }
                    }
                    chan.send_reply(&ShardReply::PartialC(acc))?;
                }
                // Ship the stripe; the low member accumulates for both.
                ExpectRole::High { partner } => chan.send_xchg(partner, amps.clone())?,
                ExpectRole::Low { partner } => {
                    let b = chan.recv_xchg(partner, "its stripe for the expectation")?;
                    let partner_base = base ^ x_hi;
                    let mut acc = Complex::default();
                    // Own-stripe terms: partner amplitude lives in `b` at
                    // offset `i ^ x_lo` (x_hi flips exactly the partner's
                    // shard bits).
                    for (i, &a) in amps.iter().enumerate() {
                        let own = a;
                        let at = |g: usize| {
                            if g == (base | i) {
                                own
                            } else {
                                b[i ^ x_lo]
                            }
                        };
                        if let Some(t) =
                            stripe::expectation_term(&at, base | i, x_lo | x_hi, z_mask)
                        {
                            acc += t;
                        }
                    }
                    // Partner-stripe terms: its partner amplitudes live
                    // here.
                    for (i, &a) in b.iter().enumerate() {
                        let their = a;
                        let at = |g: usize| {
                            if g == (partner_base | i) {
                                their
                            } else {
                                amps[i ^ x_lo]
                            }
                        };
                        if let Some(t) =
                            stripe::expectation_term(&at, partner_base | i, x_lo | x_hi, z_mask)
                        {
                            acc += t;
                        }
                    }
                    chan.send_reply(&ShardReply::PartialC(acc))?;
                }
            }
        }
        ShardCmd::Branches { mask } => {
            let (even, odd) = stripe::branch_masses(amps, *base, mask);
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
            renorm,
        } => {
            *base = shard_index << local_bits;
            let me = shard_index + 1;
            reshape(chan, amps, me, compact, &sends, &recvs, len)?;
            if shard_index < renorm {
                renormalise(chan, amps, me, renorm)?;
            }
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
pub(super) fn shard_worker(comm: Communicator, watchdog: Arc<AtomicU64>) {
    let mut chan = ThreadChannel { comm, watchdog };
    worker_loop(&mut chan);
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

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
struct FailoverState {
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
    limit: usize,
}

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
    fn new() -> Self {
        FailoverState {
            checkpoint: vec![Complex::real(1.0)],
            ckpt_qubits: 0,
            log: Vec::new(),
            unit: None,
            limit: env_positive("QMPI_CHECKPOINT_ROUNDS", 32),
        }
    }
}

/// The controller half of the shard protocol: the worker link, the shard
/// layout bookkeeping and the queue of reply-free work. All sends for one
/// logical operation happen while the engine holds the controller lock, so
/// every worker sees commands in the same global order.
struct Controller {
    /// The worker world this controller drives, for as long as it lives;
    /// dropping it sends the world home to its pool or shuts it down.
    lease: ShardLease,
    /// Live qubit positions (mirrors the registry length).
    n_qubits: usize,
    /// Active shard-index bits: `min(max_shard_bits, n_qubits)`.
    shard_bits: u32,
    /// Configured shard-count exponent.
    max_shard_bits: u32,
    /// Controller→worker command rounds issued: one per fan-out, which
    /// carries a read, a snapshot's queue, or a queue at its bound. The
    /// round-cost acceptance tests read this.
    cmd_rounds: u64,
    /// Worker↔worker exchange rounds planned: one per cross-shard op or
    /// moved reshape part (the irreducible data motion), and one per
    /// free's norm all-gather among two or more shards.
    xchg_rounds: u64,
    /// Checkpoint + replay state; `Some` exactly for multi-process links.
    failover: Option<FailoverState>,
    /// Reply-free work not yet shipped.
    queue: Queue,
}

/// The reply-free commands each worker has yet to receive, in global order:
/// planned gate streams, alloc and free reshapes, and measurement collapses.
/// They travel in the frame of the next command round.
#[derive(Clone)]
struct Queue {
    cmds: Vec<Vec<ShardCmd>>,
    /// Commands and gate-stream ops held, over every worker.
    len: usize,
}

impl Controller {
    /// Total worker count (`2^k`).
    fn workers(&self) -> usize {
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

    /// World rank of shard `s`'s worker.
    fn rank_of(&self, shard: usize) -> usize {
        shard + 1
    }

    /// Raw command send: straight to the wire/mailbox, no unit recording.
    /// Recovery and checkpoint traffic uses this directly.
    fn send_raw(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        self.lease.link_mut().send_cmd(shard, cmd)
    }

    /// Sends one command to shard `shard`, recording it into the open
    /// retry unit (if failover is armed) so a crash can replay it.
    fn send_to(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        if let Some(unit) = self.failover.as_mut().and_then(|f| f.unit.as_mut()) {
            unit.sends.push((shard, cmd.clone()));
        }
        self.send_raw(shard, cmd)
    }

    /// Raw reply receive, no unit recording.
    fn reply_raw(&mut self, shard: usize, what: &str) -> Result<ShardReply, DeadWorker> {
        self.lease.link_mut().reply_from(shard, what)
    }

    /// Receives shard `s`'s reply, recording the drain into the open retry
    /// unit (replay must consume replayed replies in the same pattern).
    fn reply_from(&mut self, shard: usize, what: &str) -> Result<ShardReply, DeadWorker> {
        let reply = self.reply_raw(shard, what)?;
        if let Some(unit) = self.failover.as_mut().and_then(|f| f.unit.as_mut()) {
            unit.drains.push(shard);
        }
        Ok(reply)
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
    fn defer(&mut self, f: impl FnOnce(&mut Controller)) {
        f(self);
        if self.queue.len >= BatchPolicy::default().max_ops {
            self.flush();
        }
    }

    /// Ships the queue in a round of its own, if it holds anything.
    fn flush(&mut self) {
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
    fn branches(&mut self, mask: usize) -> (f64, f64) {
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
    fn project(&mut self, mask: usize, pick: impl FnOnce(f64) -> bool) -> bool {
        let (even, odd) = self.branches(mask);
        let odd_kept = pick(odd);
        let kept = if odd_kept { odd } else { even };
        assert!(kept > 1e-12, "collapsing onto probability-zero outcome");
        let factor = 1.0 / kept.sqrt();
        for s in 0..self.active() {
            let cmd = ShardCmd::CollapseScale {
                mask,
                odd: odd_kept,
                factor,
            };
            self.enqueue(s, cmd);
        }
        odd_kept
    }

    /// Uncounted, unrecorded whole-state gather (shards are contiguous
    /// global index ranges, so this is an append in shard order).
    /// Non-destructive: workers keep their stripes.
    fn gather_raw(&mut self) -> Result<Vec<Complex>, DeadWorker> {
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

    /// Gathers the dense state for a reader, surviving worker death. With
    /// failover armed the gather IS a checkpoint — the freshest one
    /// possible — so the reader gets a copy of it.
    fn run_gather(&mut self) -> Vec<Complex> {
        self.cmd_rounds += 1;
        if self.failover.is_some() {
            self.checkpoint_now();
            let f = self.failover.as_ref().expect("checked above");
            return f.checkpoint.clone();
        }
        self.gather_raw()
            .unwrap_or_else(|_| unreachable!("in-process links never report dead workers"))
    }

    /// Uncounted, unrecorded scatter: recomputes the shard layout for
    /// `n_qubits` and distributes `flat` across the workers (inactive
    /// workers get an empty stripe).
    fn scatter_raw(&mut self, mut flat: Vec<Complex>, n_qubits: usize) -> Result<(), DeadWorker> {
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

    /// Runs one retry unit to completion. For in-process links this is a
    /// plain call (failures panic inside, never return `Err`). For process
    /// links the unit body is recorded; on worker death the generation is
    /// restarted (respawn + checkpoint reload + log replay), the queue the
    /// unit consumed is restored, and the unit retried from scratch. The
    /// closure must therefore be free of external side effects — in
    /// particular it must not draw RNG, which the engine keeps outside units
    /// precisely so trajectories stay bit-identical across failovers.
    fn run<T>(&mut self, mut f: impl FnMut(&mut Controller) -> Result<T, DeadWorker>) -> T {
        if self.failover.is_none() {
            return f(self)
                .unwrap_or_else(|_| unreachable!("in-process links never report dead workers"));
        }
        let queue = self.queue.clone();
        loop {
            if let Some(fo) = self.failover.as_mut() {
                fo.unit = Some(LoggedUnit::default());
            }
            match f(self) {
                Ok(v) => {
                    self.commit_unit();
                    return v;
                }
                Err(DeadWorker) => {
                    if let Some(fo) = self.failover.as_mut() {
                        fo.unit = None;
                    }
                    self.queue = queue.clone();
                    self.recover();
                }
            }
        }
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
        loop {
            match self.gather_raw() {
                Ok(flat) => {
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
                Err(DeadWorker) => self.recover(),
            }
        }
    }

    /// Failover: restart the worker generation (respawn the dead, abort
    /// the live into the new epoch), reload the checkpoint, replay the
    /// committed log. Loops until a full generation survives the whole
    /// sequence; panics if workers keep dying past the respawn budget.
    fn recover(&mut self) {
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            assert!(
                attempts <= 16,
                "remote-shard failover: respawn budget exhausted — workers keep dying during \
                 recovery"
            );
            if self.lease.link_mut().reset().is_ok() && self.replay().is_ok() {
                return;
            }
        }
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
    fn plan_pair(&mut self, controls: &[usize], target: usize, kernel: PairKernel) {
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
            for s0 in 0..self.active() {
                if s0 & tbit != 0 || s0 & c_hi != c_hi {
                    continue;
                }
                let s1 = s0 | tbit;
                let partner = self.rank_of(s1);
                self.push_op(
                    s0,
                    WorkerOp::CrossLow {
                        partner,
                        c_lo,
                        kernel,
                    },
                );
                let partner = self.rank_of(s0);
                self.push_op(s1, WorkerOp::CrossHigh { partner });
                self.xchg_rounds += 1;
            }
        }
    }

    /// Plans a diagonal phase pass (CZ) for the matching shards.
    fn plan_phase(&mut self, a: usize, b: usize) {
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
    fn plan_phase_sweep(
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
    fn plan_swap(&mut self, a: usize, b: usize) {
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
            for s0 in 0..self.active() {
                if s0 & hbit != 0 {
                    continue;
                }
                let s1 = s0 | hbit;
                let partner = self.rank_of(s1);
                self.push_op(s0, WorkerOp::SwapCrossLow { partner, abit });
                let partner = self.rank_of(s0);
                self.push_op(s1, WorkerOp::CrossHigh { partner });
                self.xchg_rounds += 1;
            }
        } else {
            let abit = 1usize << (lo - l);
            let bbit = 1usize << (hi - l);
            for s in 0..self.active() {
                if s & abit == 0 || s & bbit != 0 {
                    continue;
                }
                // Both members trade whole stripes.
                let p = s ^ abit ^ bbit;
                let partner = self.rank_of(p);
                self.push_op(s, WorkerOp::CrossHigh { partner });
                let partner = self.rank_of(s);
                self.push_op(p, WorkerOp::CrossHigh { partner });
                self.xchg_rounds += 1;
            }
        }
    }

    /// Distributed (gather-free) Pauli expectation: one read of
    /// [`ShardCmd::Expect`] with the pairing roles implied by the
    /// shard-crossing half of the X mask, then the complex partials summed
    /// in shard order.
    fn expect(&mut self, x_mask: usize, z_mask: usize) -> Result<Complex, DeadWorker> {
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
                        partner: self.rank_of(p),
                    }
                }
                p => ExpectRole::High {
                    partner: self.rank_of(p),
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
    fn reshape(&mut self, remove: Option<(usize, bool)>) {
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
                sends.push(self.rank_of(d));
                recvs[d].push(self.rank_of(s));
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

// ---------------------------------------------------------------------------
// The store and the engine
// ---------------------------------------------------------------------------

/// The amplitude store of [`RemoteShardedEngine`]: the controller of one
/// worker world, driven by the simulator front like any other
/// [`AmpStore`]. Gate methods, `add_qubit` and `remove_qubit` queue their
/// work; every other method is a read, which ships the queue in the frame
/// of its own command (one retry unit per read).
pub struct RemoteStore {
    ctl: Mutex<Controller>,
}

/// The mask of the listed positions.
fn mask_of(positions: &[usize]) -> usize {
    positions.iter().fold(0, |mask, &p| mask | 1 << p)
}

impl RemoteStore {
    /// The store over `lease`'s world (reset first), holding the 0-qubit
    /// scalar state.
    fn from_lease(mut lease: ShardLease) -> Self {
        lease.reset();
        let failover = lease.link().arms_failover().then(FailoverState::new);
        let workers = lease.shards();
        let mut ctl = Controller {
            n_qubits: 0,
            shard_bits: 0,
            max_shard_bits: workers.trailing_zeros(),
            lease,
            cmd_rounds: 0,
            xchg_rounds: 0,
            failover,
            queue: Queue {
                cmds: vec![Vec::new(); workers],
                len: 0,
            },
        };
        // The 0-qubit scalar state |> with amplitude 1 — the checkpoint a
        // fresh `FailoverState` holds, so a death during this scatter
        // recovers into the same state.
        ctl.cmd_rounds += 1;
        ctl.run(|c| c.scatter_raw(vec![Complex::real(1.0)], 0));
        RemoteStore {
            ctl: Mutex::new(ctl),
        }
    }

    /// The dense state: the queue in a round of its own, then a gather (a
    /// checkpoint, with failover armed).
    fn gather(&self) -> Vec<Complex> {
        let mut ctl = self.ctl.lock();
        ctl.flush();
        ctl.run_gather()
    }

    /// Command rounds (one per fan-out of command frames, which is one per
    /// read: gates, allocs, frees and collapses wait for the next one),
    /// worker↔worker exchange rounds (data motion no framing can remove),
    /// wire bytes (see [`TransportStats::wire_bytes`]) and worker respawns
    /// (failover events; always 0 in-process).
    fn stats(&self) -> TransportStats {
        let ctl = self.ctl.lock();
        TransportStats {
            command_rounds: ctl.cmd_rounds,
            exchange_rounds: ctl.xchg_rounds,
            wire_bytes: ctl.lease.link().wire_bytes(),
            respawns: ctl.lease.link().respawns(),
            // Coalescing happens in the locality wrapper above the engine,
            // which adds its own window counter on top of these.
            coalesced_flushes: 0,
        }
    }
}

impl AmpStore for RemoteStore {
    fn add_qubit(&mut self) -> usize {
        let ctl = self.ctl.get_mut();
        assert!(
            ctl.n_qubits < MAX_DENSE_QUBITS,
            "qubit budget exhausted (MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS})"
        );
        let pos = ctl.n_qubits;
        ctl.defer(|c| c.reshape(None));
        pos
    }

    fn remove_qubit(&mut self, target: usize, outcome: bool) {
        self.ctl
            .get_mut()
            .defer(|c| c.reshape(Some((target, outcome))));
    }

    fn apply_1q(&mut self, controls: &[usize], target: usize, m: &Mat2) {
        let kernel = PairKernel::Mat(*m);
        self.ctl
            .get_mut()
            .defer(|c| c.plan_pair(controls, target, kernel));
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        self.ctl
            .get_mut()
            .defer(|c| c.plan_pair(&[control], target, PairKernel::Swap));
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        self.ctl.get_mut().defer(|c| c.plan_phase(a, b));
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        self.ctl.get_mut().defer(|c| c.plan_swap(a, b));
    }

    fn apply_phase_sweep(
        &mut self,
        positions: &[usize],
        diags: &[SweepFactor],
        czs: &[(usize, usize)],
    ) {
        self.ctl
            .get_mut()
            .defer(|c| c.plan_phase_sweep(positions, diags, czs));
    }

    fn parity_prob_odd(&self, qubits: &[usize]) -> f64 {
        self.ctl.lock().branches(mask_of(qubits)).1
    }

    fn collapse_parity(&mut self, qubits: &[usize], odd: bool) {
        self.ctl.get_mut().project(mask_of(qubits), |_| odd);
    }

    /// One read, the measurement's: the collapse and the free's reshape
    /// queue behind it, and the workers renormalise among themselves.
    fn measure_and_remove(&mut self, target: usize, u: f64) -> bool {
        let outcome = self.measure_parity(&[target], u);
        self.remove_qubit(target, outcome);
        outcome
    }

    /// One read: both branch masses come back with the probability, and the
    /// collapse onto the outcome is queued.
    fn measure_parity(&mut self, qubits: &[usize], u: f64) -> bool {
        self.ctl
            .get_mut()
            .project(mask_of(qubits), |p_odd| u < p_odd)
    }

    /// Gather-free: the X mask's shard-crossing half pairs workers up
    /// directly (worker↔worker stripe exchange) and each pair reports one
    /// complex partial, instead of every stripe flowing to the controller.
    /// A pair sums two stripes into one partial, so values match the striped
    /// store's per-stripe sums to re-association (last ulp), not bit for
    /// bit; expectations never write state.
    fn expectation_pauli(&self, terms: &[PauliTerm]) -> f64 {
        let mut ctl = self.ctl.lock();
        let (x_mask, z_mask, i_pow) = stripe::pauli_masks(ctl.n_qubits, terms);
        stripe::hermitian_value(i_pow, ctl.run(|c| c.expect(x_mask, z_mask)))
    }

    fn snapshot(&self, perm: &[usize]) -> Result<State, SimError> {
        Ok(State::from_amplitudes(self.gather()).permuted(perm))
    }

    /// Gather, then index: a diagnostic probe, one gather on this store.
    fn amplitude_of(&self, ones: &[usize]) -> Result<Complex, SimError> {
        Ok(self.gather()[mask_of(ones)])
    }
}

impl EngineStore for RemoteStore {
    fn kind(&self) -> BackendKind {
        BackendKind::RemoteSharded {
            shards: self.ctl.lock().workers(),
        }
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        Some(self.stats())
    }
}

/// Full state-vector engine whose `2^k` amplitude shards live in dedicated
/// worker ranks and exchange nothing but [`cmpi`] messages: the one
/// [`AmplitudeEngine`] over a [`RemoteStore`]. See the module docs for the
/// protocol; see [`super::ShardedStateVector`] for the same stripe layout in
/// one address space, this engine's layout reference.
pub type RemoteShardedEngine = AmplitudeEngine<RemoteStore>;

impl RemoteShardedEngine {
    /// Spawns in-process worker ranks for a noiseless engine. `shards` is
    /// rounded up to a power of two and clamped to
    /// `[1, 2^MAX_REMOTE_SHARD_BITS]`.
    pub fn new(seed: u64, shards: usize) -> Self {
        RemoteShardedEngine::with_noise(seed, shards, NoiseModel::ideal())
    }

    /// Spawns in-process worker ranks for an engine applying `noise` as
    /// controller-sampled trajectory insertions.
    pub fn with_noise(seed: u64, shards: usize, noise: NoiseModel) -> Self {
        Self::over_transport(seed, shards, noise, TransportKind::InProcess)
            .expect("spawning worker threads performs no I/O")
    }

    /// Spawns a worker world for this engine alone behind the given
    /// transport: threads for [`TransportKind::InProcess`], child
    /// processes speaking framed sockets otherwise — with
    /// checkpoint/replay failover armed. Per-seed trajectories are
    /// bit-identical across transports: both run the same planner, the
    /// same kernels, in the same global order. Fails when the worker
    /// processes cannot be started (no `qworker` binary, no socket).
    pub fn over_transport(
        seed: u64,
        shards: usize,
        noise: NoiseModel,
        kind: TransportKind,
    ) -> std::io::Result<Self> {
        Ok(Self::from_lease(
            seed,
            ShardLease::spawn(kind, shards)?,
            noise,
        ))
    }

    /// Builds an engine over an already-running worker world — the seam
    /// between engine semantics and worker lifecycle. A lease from a
    /// [`super::ShardWorkerPool`] returns its workers, still running, to
    /// the pool when the engine drops.
    ///
    /// Construction resets a pooled world (see [`ShardLease`]) and the
    /// scatter of the fresh scalar state overwrites every worker's stripe,
    /// so per-seed trajectories are bit-identical to an engine over
    /// freshly spawned workers.
    pub fn from_lease(seed: u64, lease: ShardLease, noise: NoiseModel) -> Self {
        Self::over(RemoteStore::from_lease(lease), seed, noise)
    }

    /// Overrides the watchdog for every blocking protocol receive —
    /// controller reply waits and worker exchange waits alike (the duration
    /// is shared atomically with the workers). Tests use a short one to
    /// prove timeouts diagnose instead of hang.
    pub fn with_watchdog(self, watchdog: Duration) -> Self {
        self.raw_state()
            .ctl
            .lock()
            .lease
            .link()
            .watchdog()
            .store(watchdog.as_millis() as u64, Ordering::Relaxed);
        self
    }

    /// The configured worker/shard count.
    pub fn max_shards(&self) -> usize {
        self.raw_state().ctl.lock().workers()
    }

    /// The engine's transport accounting (see [`TransportStats`]).
    pub fn transport_stats(&self) -> TransportStats {
        self.raw_state().stats()
    }

    /// Test/diagnostic hook: makes shard `shard`'s worker exit its event
    /// loop *without* completing the protocol, simulating a crashed shard
    /// node. In-process, subsequent operations touching that shard trip
    /// the deadlock watchdog instead of hanging; over a socket transport
    /// the worker process exits and failover respawns it.
    pub fn debug_kill_worker(&self, shard: usize) {
        let mut ctl = self.raw_state().ctl.lock();
        assert!(shard < ctl.workers(), "shard {shard} out of range");
        let _ = ctl.send_raw(shard, &ShardCmd::Die);
    }

    /// Test/diagnostic hook for the socket transports: SIGKILLs shard
    /// `shard`'s worker *process* outright — no protocol, no cleanup, the
    /// hardest death a shard node can die. The next operation touching the
    /// shard observes EOF and runs failover.
    pub fn debug_kill_worker_process(&self, shard: usize) {
        let mut ctl = self.raw_state().ctl.lock();
        assert!(shard < ctl.workers(), "shard {shard} out of range");
        ctl.lease.link_mut().kill_process(shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        ops, AmplitudeEngine, EngineStore, QuantumBackend, ShardedStateVector, StateVectorEngine,
    };
    use qsim::{Gate, Pauli, QubitId};

    #[test]
    fn shard_cmd_roundtrips_every_variant() {
        let mat = Gate::Ry(0.37).matrix();
        let amps = vec![Complex::new(0.25, -1.5), Complex::new(0.0, 3.0)];
        let cmds = [
            ShardCmd::Load {
                shard_index: 3,
                local_bits: 1,
                amps: amps.clone(),
            },
            ShardCmd::Load {
                shard_index: 5,
                local_bits: 0,
                amps: vec![],
            },
            ShardCmd::Gather,
            ShardCmd::Batch { ops: vec![] },
            ShardCmd::Batch {
                ops: vec![
                    WorkerOp::PairWithin {
                        c_lo: 0b101,
                        tbit: 1 << 4,
                        kernel: PairKernel::Mat(mat),
                    },
                    WorkerOp::PairWithin {
                        c_lo: 0,
                        tbit: 1,
                        kernel: PairKernel::Swap,
                    },
                    WorkerOp::CrossLow {
                        partner: 9,
                        c_lo: 0b11,
                        kernel: PairKernel::Mat(mat),
                    },
                    WorkerOp::CrossHigh { partner: 2 },
                    WorkerOp::Phase { lo_mask: 0b1001 },
                    WorkerOp::SwapWithin {
                        abit: 1 << 2,
                        bbit: 1 << 5,
                    },
                    WorkerOp::SwapCrossLow {
                        partner: 4,
                        abit: 1,
                    },
                    WorkerOp::PhaseSweep {
                        diags: vec![
                            (1 << 2, Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)),
                            // Shard-constant factor: mask 0, both entries
                            // the branch this shard lives on.
                            (0, Complex::new(0.5, -0.5), Complex::new(0.5, -0.5)),
                        ],
                        flips: vec![0b110, 0],
                    },
                    WorkerOp::PhaseSweep {
                        diags: vec![],
                        flips: vec![1],
                    },
                ],
            },
            ShardCmd::Expect {
                x_lo: 0b10,
                x_hi: 0b1000,
                z_mask: 0b101,
                role: ExpectRole::Solo,
            },
            ShardCmd::Expect {
                x_lo: 0,
                x_hi: 1 << 6,
                z_mask: 0,
                role: ExpectRole::Low { partner: 3 },
            },
            ShardCmd::Expect {
                x_lo: 0,
                x_hi: 1 << 6,
                z_mask: 0,
                role: ExpectRole::High { partner: 1 },
            },
            ShardCmd::Branches { mask: 0b100 },
            ShardCmd::Branches { mask: 0b111 },
            ShardCmd::CollapseScale {
                mask: 0b11,
                odd: true,
                factor: 1.5,
            },
            ShardCmd::Seq(vec![]),
            // A worker's queue ahead of the read that ships it.
            ShardCmd::Seq(vec![
                ShardCmd::Batch {
                    ops: vec![WorkerOp::Phase { lo_mask: 0b1 }],
                },
                ShardCmd::CollapseScale {
                    mask: 0b10,
                    odd: false,
                    factor: 2.0,
                },
                ShardCmd::Branches { mask: 0b10 },
            ]),
            ShardCmd::Shutdown,
            ShardCmd::Die,
            // A free that compacts locally, keeps the stripe and
            // renormalises among the eight shards of the new layout...
            ShardCmd::Reshape {
                compact: Some((2, true)),
                sends: vec![4],
                recvs: vec![4],
                shard_index: 3,
                local_bits: 5,
                len: 32,
                renorm: 8,
            },
            // ...the largest world's last shard, renormalising among all...
            ShardCmd::Reshape {
                compact: None,
                sends: vec![],
                recvs: vec![64],
                shard_index: 63,
                local_bits: 1,
                len: 2,
                renorm: 1 << MAX_REMOTE_SHARD_BITS,
            },
            // ...an alloc assembling two neighbours' stripes...
            ShardCmd::Reshape {
                compact: None,
                sends: vec![1],
                recvs: vec![1, 2],
                shard_index: 0,
                local_bits: 3,
                len: 8,
                renorm: 0,
            },
            // ...and a worker that discards its stripe and goes inactive.
            ShardCmd::Reshape {
                compact: None,
                sends: vec![],
                recvs: vec![],
                shard_index: 6,
                local_bits: 0,
                len: 0,
                renorm: 4,
            },
        ];
        for cmd in cmds {
            let bytes = cmpi::to_bytes(&cmd);
            let back: ShardCmd = cmpi::from_bytes(&bytes).expect("decode");
            assert_eq!(back, cmd);
        }
    }

    #[test]
    fn shard_reply_roundtrips() {
        for reply in [
            ShardReply::Branches {
                even: 0.625,
                odd: f64::MIN_POSITIVE,
            },
            ShardReply::Amps(vec![Complex::new(1.0, -2.0); 5]),
            ShardReply::Amps(vec![]),
            ShardReply::PartialC(Complex::new(-0.75, 2.5)),
        ] {
            let bytes = cmpi::to_bytes(&reply);
            let back: ShardReply = cmpi::from_bytes(&bytes).expect("decode");
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn stripe_payload_sizes_are_bounded() {
        let size = |amps: Vec<Complex>| cmpi::to_bytes(&WireAmps(amps)).len();
        // An all-zero stripe is one segment, however long.
        for k in 2..=16 {
            assert_eq!(size(vec![Complex::default(); 1 << k]), 24, "2^{k} zeros");
        }
        // A stripe without a zero run costs one header over its literals,
        // and a run one short of `MIN_ZERO_RUN` stays literal.
        let one = Complex::new(1.0, 0.0);
        let mut dense: Vec<Complex> = (0..1024).map(|i| Complex::new(i as f64, -1.0)).collect();
        dense[100..100 + MIN_ZERO_RUN - 1].fill(Complex::default());
        assert_eq!(size(dense), 8 + 16 * 1024 + 16);
        // A run of exactly `MIN_ZERO_RUN` is a length: two segments.
        let mut run = vec![Complex::default(); MIN_ZERO_RUN + 2];
        run[0] = one;
        run[MIN_ZERO_RUN + 1] = one;
        assert_eq!(size(run), 8 + 2 * (16 + 16));
        assert_eq!(size(vec![]), 8);
    }

    #[test]
    fn corrupt_payloads_rejected() {
        // Unknown discriminant.
        let bad = Bytes::from_static(&[99]);
        assert!(cmpi::from_bytes::<ShardCmd>(&bad).is_none());
        // Batch frame whose op list claims more entries than the payload
        // holds.
        let mut buf = BytesMut::new();
        2u8.encode(&mut buf); // ShardCmd::Batch
        3usize.encode(&mut buf); // three ops...
        3u8.encode(&mut buf); // ...but only one Phase follows
        0b1usize.encode(&mut buf);
        assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        // Batch carrying an op with an unknown discriminant: 42, and 6, the
        // retired whole-stripe trade, with what was once its partner field.
        for tag in [42u8, 6] {
            let mut buf = BytesMut::new();
            2u8.encode(&mut buf);
            1usize.encode(&mut buf);
            tag.encode(&mut buf);
            7usize.encode(&mut buf);
            assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        }
        // Truncated matrix inside a batched within-stripe pair op.
        let mut buf = BytesMut::new();
        2u8.encode(&mut buf);
        1usize.encode(&mut buf);
        0u8.encode(&mut buf); // WorkerOp::PairWithin
        0usize.encode(&mut buf);
        1usize.encode(&mut buf);
        1u8.encode(&mut buf); // Mat kernel, but no matrix bytes follow
        assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        // Phase sweep claiming more diagonal factors than the payload holds.
        let mut buf = BytesMut::new();
        2u8.encode(&mut buf);
        1usize.encode(&mut buf);
        7u8.encode(&mut buf); // WorkerOp::PhaseSweep
        usize::MAX.encode(&mut buf); // absurd factor count
        assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        // Phase sweep whose flip-mask count overruns the payload.
        let mut buf = BytesMut::new();
        2u8.encode(&mut buf);
        1usize.encode(&mut buf);
        7u8.encode(&mut buf); // WorkerOp::PhaseSweep
        0usize.encode(&mut buf); // no factors...
        4usize.encode(&mut buf); // ...four flips claimed
        1usize.encode(&mut buf); // but only one follows
        assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        // Discriminant 11 (a retired multi-segment frame) is unknown, even
        // followed by what was once a well-formed empty frame.
        let mut buf = BytesMut::new();
        11u8.encode(&mut buf);
        0u32.encode(&mut buf);
        assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        // So are 4–7, the retired per-branch probability and collapse
        // commands, with what were once their fields.
        for tag in 4u8..=7 {
            let mut buf = BytesMut::new();
            tag.encode(&mut buf);
            0b1usize.encode(&mut buf);
            0b1usize.encode(&mut buf);
            assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        }
        // A frame nests one level: a `Seq` inside a `Seq` is unknown, and a
        // command count beyond the bytes that remain is refused.
        let seq = |inner: ShardCmd, count: usize| {
            let mut buf = BytesMut::new();
            SEQ.encode(&mut buf);
            count.encode(&mut buf);
            inner.encode(&mut buf);
            buf.freeze()
        };
        let plain = ShardCmd::Branches { mask: 1 };
        assert!(cmpi::from_bytes::<ShardCmd>(&seq(plain.clone(), 1)).is_some());
        assert!(cmpi::from_bytes::<ShardCmd>(&seq(plain.clone(), usize::MAX)).is_none());
        let nested = ShardCmd::Seq(vec![plain]);
        assert!(cmpi::from_bytes::<ShardCmd>(&seq(nested, 1)).is_none());
        // Discriminant 8, a free's retired rescale, is unknown with what was
        // once its factor.
        let mut buf = BytesMut::new();
        8u8.encode(&mut buf);
        0.5f64.encode(&mut buf);
        assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        // Reply discriminants 0, a retired single partial sum, and 3, a
        // free's retired reshape report, are unknown.
        for (tag, floats) in [(0u8, 1), (3, 2)] {
            let mut buf = BytesMut::new();
            tag.encode(&mut buf);
            for _ in 0..floats {
                0.5f64.encode(&mut buf);
            }
            assert!(cmpi::from_bytes::<ShardReply>(&buf.freeze()).is_none());
        }
        // Reshape frames: an unknown compaction tag, a rank list longer
        // than the payload (either list), a frame cut short, a stripe
        // length that disagrees with the layout, and a shard index or an
        // active-shard count no world reaches.
        // `ranks` are the two rank-list counts (no ranks follow), `shard`
        // the shard index and the active-shard count.
        let reshape =
            |compact_tag: u8, ranks: (usize, usize), len: usize, shard: (usize, usize)| {
                let mut buf = BytesMut::new();
                12u8.encode(&mut buf); // ShardCmd::Reshape
                compact_tag.encode(&mut buf);
                ranks.0.encode(&mut buf);
                ranks.1.encode(&mut buf);
                shard.0.encode(&mut buf);
                4usize.encode(&mut buf); // local_bits
                len.encode(&mut buf);
                shard.1.encode(&mut buf);
                buf.freeze()
            };
        let decodes = |frame: &Bytes| cmpi::from_bytes::<ShardCmd>(frame).is_some();
        assert!(decodes(&reshape(0, (0, 0), 16, (1, 2))));
        assert!(!decodes(&reshape(7, (0, 0), 16, (1, 2))));
        assert!(!decodes(&reshape(0, (usize::MAX, 0), 16, (1, 2))));
        assert!(!decodes(&reshape(0, (0, usize::MAX), 16, (1, 2))));
        assert!(!decodes(&reshape(0, (0, 0), 17, (1, 2))));
        let mut whole = reshape(0, (0, 0), 16, (1, 2));
        let cut = whole.split_to(whole.len() - 1);
        assert!(!decodes(&cut));
        let shards = 1usize << MAX_REMOTE_SHARD_BITS;
        assert!(decodes(&reshape(0, (0, 0), 16, (shards - 1, shards))));
        assert!(!decodes(&reshape(0, (0, 0), 16, (shards, shards))));
        assert!(!decodes(&reshape(0, (0, 0), 16, (1, shards + 1))));
        assert!(!decodes(&reshape(0, (0, 0), 16, (usize::MAX, 2))));
        // Load frames take the same header bounds: within-stripe bits a
        // worker can shift by, a shard index no world exceeds, and a stripe
        // that is empty or exactly covers those bits.
        let load = |shard_index: usize, local_bits: usize, len: usize| {
            let mut buf = BytesMut::new();
            ShardCmd::Load {
                shard_index,
                local_bits,
                amps: vec![Complex::new(0.5, 0.0); len],
            }
            .encode(&mut buf);
            buf.freeze()
        };
        assert!(decodes(&load(shards - 1, 4, 16)));
        assert!(decodes(&load(shards - 1, MAX_DENSE_QUBITS, 0)));
        assert!(!decodes(&load(0, 64, 0)));
        assert!(!decodes(&load(0, MAX_DENSE_QUBITS + 1, 0)));
        assert!(!decodes(&load(shards, 4, 16)));
        assert!(!decodes(&load(usize::MAX, 4, 0)));
        assert!(!decodes(&load(0, 4, 15)));
        assert!(!decodes(&load(0, 4, 32)));
        // Expect with an unknown role.
        let mut buf = BytesMut::new();
        3u8.encode(&mut buf); // ShardCmd::Expect
        0usize.encode(&mut buf);
        0usize.encode(&mut buf);
        0usize.encode(&mut buf);
        9u8.encode(&mut buf);
        assert!(cmpi::from_bytes::<ShardCmd>(&buf.freeze()).is_none());
        // Amplitude count larger than the payload.
        let mut buf = BytesMut::new();
        1u8.encode(&mut buf); // ShardReply::Amps
        usize::MAX.encode(&mut buf);
        assert!(cmpi::from_bytes::<ShardReply>(&buf.freeze()).is_none());
        // Stripe payloads: `len`, then `(zero_run, literal_count)` headers
        // each followed by `literals` literal amplitudes.
        let amps = |len: usize, segments: &[(usize, usize, usize)]| {
            let mut buf = BytesMut::new();
            1u8.encode(&mut buf); // ShardReply::Amps
            len.encode(&mut buf);
            for &(zeros, count, literals) in segments {
                zeros.encode(&mut buf);
                count.encode(&mut buf);
                for _ in 0..literals {
                    encode_complex(&Complex::new(0.5, 0.5), &mut buf);
                }
            }
            buf.freeze()
        };
        let decodes = |frame: &Bytes| cmpi::from_bytes::<ShardReply>(frame).is_some();
        assert!(decodes(&amps(6, &[(4, 1, 1), (0, 1, 1)])));
        // A zero run past `len`, and literal counts past `len` or the
        // payload.
        assert!(!decodes(&amps(4, &[(5, 0, 0)])));
        assert!(!decodes(&amps(2, &[(0, 3, 3)])));
        assert!(!decodes(&amps(4, &[(0, 4, 1)])));
        assert!(!decodes(&amps(4, &[(0, usize::MAX, 1)])));
        // A count above the qubit budget, refused before anything is
        // allocated however little payload claims it.
        let over = (1 << MAX_DENSE_QUBITS) + 1;
        assert!(!decodes(&amps(over, &[(over, 0, 0)])));
        // Segments that stop short of `len`.
        assert!(!decodes(&amps(8, &[(4, 0, 0)])));
        assert!(!decodes(&amps(8, &[(4, 2, 2)])));
        // Trailing bytes: a segment after `len` is reached, or one byte.
        assert!(!decodes(&amps(4, &[(4, 0, 0), (0, 0, 0)])));
        let mut buf = BytesMut::new();
        buf.put_slice(&amps(4, &[(4, 0, 0)]));
        0u8.encode(&mut buf);
        assert!(!decodes(&buf.freeze()));
    }

    #[test]
    fn reshape_frames_are_bounded_by_the_shared_qubit_budget() {
        // An empty stripe (`len = 0`) is legal at any reachable layout, so
        // only the budget check can refuse `local_bits = MAX + 1`.
        let reshape = |local_bits: usize| {
            let mut buf = BytesMut::new();
            12u8.encode(&mut buf); // ShardCmd::Reshape
            0u8.encode(&mut buf); // no compaction
            0usize.encode(&mut buf); // sends
            0usize.encode(&mut buf); // recvs
            0usize.encode(&mut buf); // shard_index
            local_bits.encode(&mut buf);
            0usize.encode(&mut buf); // len
            0usize.encode(&mut buf); // renorm
            buf.freeze()
        };
        assert!(cmpi::from_bytes::<ShardCmd>(&reshape(MAX_DENSE_QUBITS)).is_some());
        assert!(cmpi::from_bytes::<ShardCmd>(&reshape(MAX_DENSE_QUBITS + 1)).is_none());
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
        // The lowest limit, as `QMPI_CHECKPOINT_ROUNDS=1` sets it.
        assert!(checkpoint_due(1, 1, 3, 3));
        assert!(!checkpoint_due(1, 1, 4, 3));
        assert!(checkpoint_due(2, 1, 4, 3));
    }

    /// Applies the same circuit to the dense engine and a remote engine and
    /// asserts the amplitudes agree bit-for-bit (the kernels perform the
    /// identical arithmetic in the identical order).
    fn assert_remote_matches_dense_bitwise(shards: usize, noise: NoiseModel, n_qubits: usize) {
        let mut dense = StateVectorEngine::with_noise(1, noise);
        let mut remote = RemoteShardedEngine::with_noise(1, shards, noise);
        let dq: Vec<QubitId> = (0..n_qubits).map(|_| dense.alloc()).collect();
        let rq: Vec<QubitId> = (0..n_qubits).map(|_| remote.alloc()).collect();
        use qsim::BatchOp;
        let circuit = |q: &[QubitId]| {
            let last = q[q.len() - 1];
            let gate = |gate, q| BatchOp::Gate { gate, q };
            [
                gate(Gate::H, q[0]),
                gate(Gate::H, last),
                gate(Gate::T, last),
                BatchOp::Cnot { c: q[0], t: last },
                BatchOp::Cnot { c: last, t: q[0] },
                BatchOp::Cz {
                    a: q[1],
                    b: q[q.len() - 2],
                },
                gate(Gate::S, q[2]),
                BatchOp::Swap { a: q[1], b: last },
                BatchOp::Controlled {
                    controls: vec![q[0], last],
                    gate: Gate::Ry(0.7),
                    target: q[2],
                },
            ]
        };
        // Op by op: one batch (and one noise draw point) per gate.
        for (d, r) in circuit(&dq).into_iter().zip(circuit(&rq)) {
            dense.apply_batch(&ops::batch([d])).unwrap();
            remote.apply_batch(&ops::batch([r])).unwrap();
        }
        let want = dense.state_vector(&dq).unwrap();
        let got = remote.state_vector(&rq).unwrap();
        assert_eq!(want.len(), got.len());
        for i in 0..want.len() {
            let (w, g) = (want.amplitude(i), got.amplitude(i));
            assert!(
                w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                "shards={shards} amp[{i}] differs: {w:?} vs {g:?}"
            );
        }
    }

    /// A free's workers add their squared norms from `+0.0` in shard order,
    /// as the striped store adds its stripes' norms, so eight shards land on
    /// the striped store's bits through frees at every position of
    /// generic-angle states.
    #[test]
    fn frees_renormalise_to_the_striped_stores_bits() {
        fn run<S: EngineStore>(
            e: &mut AmplitudeEngine<S>,
            seed: u64,
        ) -> (Vec<bool>, Vec<(u64, u64)>) {
            let angle = |i: usize| 0.31 + 0.57 * (i as f64 + seed as f64).sin().abs();
            let mut qs: Vec<QubitId> = (0..7).map(|_| e.alloc()).collect();
            let mut outcomes = Vec::new();
            for round in 0..10 {
                for (i, &q) in qs.iter().enumerate() {
                    e.apply_batch(&ops::gate(Gate::Ry(angle(round * 7 + i)), q))
                        .unwrap();
                }
                for w in qs.windows(2) {
                    e.apply_batch(&ops::cnot(w[0], w[1])).unwrap();
                }
                let gone = qs.remove(round % qs.len());
                outcomes.push(e.measure_and_free(gone).unwrap());
                qs.push(e.alloc());
            }
            let st = e.state_vector(&qs).unwrap();
            let bits = st.amplitudes().iter();
            (
                outcomes,
                bits.map(|a| (a.re.to_bits(), a.im.to_bits())).collect(),
            )
        }
        for seed in 0..4 {
            let want = run(&mut ShardedStateVector::new(seed, 8), seed);
            let got = run(&mut RemoteShardedEngine::new(seed, 8), seed);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn remote_matches_dense_bitwise_on_fixed_circuit() {
        for shards in [1usize, 2, 8] {
            assert_remote_matches_dense_bitwise(shards, NoiseModel::ideal(), 6);
        }
    }

    #[test]
    fn remote_matches_dense_bitwise_under_pauli_noise() {
        let noise = NoiseModel::depolarizing(0.25)
            .with_measurement(qsim::NoiseChannel::Dephasing { p: 0.3 });
        for shards in [1usize, 2, 4] {
            assert_remote_matches_dense_bitwise(shards, noise, 5);
        }
    }

    #[test]
    fn remote_measurement_and_free_roundtrip() {
        let mut e = RemoteShardedEngine::new(7, 4);
        let a = e.alloc();
        let b = e.alloc();
        let c = e.alloc();
        e.apply_batch(&ops::gate(Gate::X, c)).unwrap();
        assert!((e.prob_one(c).unwrap() - 1.0).abs() < 1e-12);
        assert!(e.prob_one(a).unwrap() < 1e-12);
        // Removing the middle qubit shifts c down; it must still read |1>.
        assert!(!e.free(b).unwrap());
        assert!(e.measure_and_free(c).unwrap());
        assert!(!e.measure_z_parity(&[a]).unwrap());
        assert_eq!(e.n_qubits(), 1);
        assert_eq!(e.measurement_count(), 2);
    }

    #[test]
    fn remote_epr_pair_correlates() {
        for seed in 0..6u64 {
            let mut e = RemoteShardedEngine::new(seed, 2);
            let a = e.alloc();
            let b = e.alloc();
            e.entangle_epr(a, b).unwrap();
            let zz = e.expectation(&[(a, Pauli::Z), (b, Pauli::Z)]).unwrap();
            assert!((zz - 1.0).abs() < 1e-10, "seed {seed}: <ZZ> = {zz}");
            let ma = e.measure_z_parity(&[a]).unwrap();
            let mb = e.measure_z_parity(&[b]).unwrap();
            assert_eq!(ma, mb, "seed {seed}: EPR halves must agree");
        }
    }

    #[test]
    fn remote_parity_measurement_projects() {
        let mut e = RemoteShardedEngine::new(11, 4);
        let a = e.alloc();
        let b = e.alloc();
        e.apply_batch(&ops::gate(Gate::H, a)).unwrap();
        e.apply_batch(&ops::cnot(a, b)).unwrap();
        // EPR pair lives entirely in the even-parity subspace.
        assert!(!e.measure_z_parity(&[a, b]).unwrap());
        let st = e.state_vector(&[a, b]).unwrap();
        assert!((st.probability(0b00) - 0.5).abs() < 1e-10);
        assert!((st.probability(0b11) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn remote_amplitude_damping_tracks_dense_on_fixed_circuit() {
        // The jump decision reads prob_one, whose reduction order differs
        // between engines; a fixed seed and circuit keeps both on the same
        // trajectory branch, and the Kraus maps must then agree closely.
        let noise = NoiseModel::amplitude_damping(0.2);
        let mut dense = StateVectorEngine::with_noise(1, noise);
        let mut remote = RemoteShardedEngine::with_noise(1, 4, noise);
        let dq: Vec<QubitId> = (0..4).map(|_| dense.alloc()).collect();
        let rq: Vec<QubitId> = (0..4).map(|_| remote.alloc()).collect();
        for (d, r) in [(0, 0), (1, 1)] {
            dense.apply_batch(&ops::gate(Gate::H, dq[d])).unwrap();
            remote.apply_batch(&ops::gate(Gate::H, rq[r])).unwrap();
        }
        dense.apply_batch(&ops::cnot(dq[0], dq[2])).unwrap();
        remote.apply_batch(&ops::cnot(rq[0], rq[2])).unwrap();
        dense.apply_batch(&ops::gate(Gate::Ry(0.9), dq[1])).unwrap();
        remote
            .apply_batch(&ops::gate(Gate::Ry(0.9), rq[1]))
            .unwrap();
        let want = dense.state_vector(&dq).unwrap();
        let got = remote.state_vector(&rq).unwrap();
        for i in 0..want.len() {
            assert!(
                want.amplitude(i).approx_eq(got.amplitude(i), 1e-12),
                "amp[{i}]: {:?} vs {:?}",
                want.amplitude(i),
                got.amplitude(i)
            );
        }
    }

    /// What a gate stream costs in command rounds: nothing, eager or
    /// batched, within-shard or cross-shard — it waits in the queue — and
    /// the read that follows ships all of it in its one round. Cross-shard
    /// pairings still pay their irreducible stripe exchanges.
    #[test]
    fn gate_streams_cost_no_rounds_and_ship_with_the_next_read() {
        use qsim::BatchOp;
        let mut e = RemoteShardedEngine::new(5, 4);
        let qs: Vec<QubitId> = (0..4).map(|_| e.alloc()).collect();
        let rounds = |e: &RemoteShardedEngine| e.transport_stats().command_rounds;
        // Eager and batched: the same four gates, no round either way.
        let before = rounds(&e);
        for &q in &qs {
            e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        }
        let batch = ops::batch(qs.iter().map(|&q| BatchOp::Gate { gate: Gate::H, q }));
        e.apply_batch(&batch).unwrap();
        assert_eq!(rounds(&e), before, "gates wait for a read");

        // A batch with cross-shard ops: still no command round; each
        // cross-shard pairing adds only its irreducible stripe exchange.
        // Qubits 2 and 3 are shard-selecting at 4 shards with 4 qubits
        // (2 local bits).
        let xchg_before = e.transport_stats().exchange_rounds;
        let batch = ops::batch(vec![
            BatchOp::Gate {
                gate: Gate::T,
                q: qs[0],
            },
            BatchOp::Cnot { c: qs[0], t: qs[3] },
            BatchOp::Swap { a: qs[1], b: qs[2] },
            BatchOp::Cz { a: qs[2], b: qs[3] },
        ]);
        e.apply_batch(&batch).unwrap();
        let xchg_delta = e.transport_stats().exchange_rounds - xchg_before;
        assert_eq!(rounds(&e), before, "no round regardless of batch content");
        assert!(
            (2..=2 * 4).contains(&xchg_delta),
            "cross-shard ops pay their exchanges and no more, got {xchg_delta}"
        );
        // One read ships the allocs and every gate above.
        e.prob_one(qs[0]).unwrap();
        assert_eq!(rounds(&e), before + 1, "the read is the one round");
        // The state must still be exact: undo everything and check |0..0>
        // parity against the dense engine instead of trusting counters.
        let got = e.state_vector(&qs).unwrap();
        let mut dense = StateVectorEngine::new(5);
        let dq: Vec<QubitId> = (0..4).map(|_| dense.alloc()).collect();
        for &q in &dq {
            dense.apply_batch(&ops::gate(Gate::H, q)).unwrap();
            dense.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        }
        dense.apply_batch(&ops::gate(Gate::T, dq[0])).unwrap();
        dense.apply_batch(&ops::cnot(dq[0], dq[3])).unwrap();
        dense.apply_batch(&ops::swap(dq[1], dq[2])).unwrap();
        dense.apply_batch(&ops::cz(dq[2], dq[3])).unwrap();
        let want = dense.state_vector(&dq).unwrap();
        for i in 0..want.len() {
            let (w, g) = (want.amplitude(i), got.amplitude(i));
            assert!(
                w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                "amp[{i}]: {w:?} vs {g:?}"
            );
        }
    }

    /// A long gate stream with no read never lets the queue reach its bound:
    /// at `BatchPolicy::default().max_ops` entries it ships in a round of
    /// its own.
    #[test]
    fn a_long_gate_stream_without_a_read_stays_under_the_queue_bound() {
        let bound = BatchPolicy::default().max_ops;
        let mut e = RemoteShardedEngine::new(1, 2);
        let qs: Vec<QubitId> = (0..3).map(|_| e.alloc()).collect();
        let before = e.transport_stats().command_rounds;
        for i in 0..2 * bound {
            let gate = Gate::Rz(1e-3 * i as f64);
            e.apply_batch(&ops::gate(gate, qs[i % 3])).unwrap();
            assert!(e.raw_state().ctl.lock().queue.len < bound, "gate {i}");
        }
        // Every gate queues one op on each of the two stripes, within a
        // stripe or across the pair.
        assert_eq!(e.transport_stats().command_rounds - before, 4);
    }

    /// Optimizer-emitted ops are first-class wire ops: a fused 1q kernel
    /// plus a merged phase sweep queue with zero stripe exchanges (sweeps
    /// are shard-local by construction) and ship in the snapshot's queue
    /// round, apply fewer kernel sweeps than the primitive stream they
    /// replace, and reproduce the dense engine's amplitudes bit-for-bit.
    #[test]
    fn fused_ops_ship_with_the_next_read_and_match_dense_bitwise() {
        use qsim::BatchOp;
        // 5 qubits over 4 shards: positions 3 and 4 are shard-selecting,
        // so the sweep exercises local factors, shard-constant factors,
        // and all three CZ localizations (lo/lo+hi/hi+hi).
        let stream = |qs: &[QubitId]| {
            ops::batch(vec![
                BatchOp::Gate {
                    gate: Gate::H,
                    q: qs[0],
                },
                BatchOp::Gate {
                    gate: Gate::Ry(0.3),
                    q: qs[0],
                },
                BatchOp::Gate {
                    gate: Gate::T,
                    q: qs[3],
                },
                BatchOp::Gate {
                    gate: Gate::T,
                    q: qs[4],
                },
                BatchOp::Gate {
                    gate: Gate::Z,
                    q: qs[1],
                },
                BatchOp::Cz { a: qs[1], b: qs[3] },
                BatchOp::Cz { a: qs[0], b: qs[4] },
                BatchOp::Cz { a: qs[3], b: qs[4] },
            ])
        };
        let mut dense = StateVectorEngine::new(2);
        let mut remote = RemoteShardedEngine::new(2, 4);
        let dq: Vec<QubitId> = (0..5).map(|_| dense.alloc()).collect();
        let rq: Vec<QubitId> = (0..5).map(|_| remote.alloc()).collect();
        for i in 0..5 {
            dense.apply_batch(&ops::gate(Gate::H, dq[i])).unwrap();
            remote.apply_batch(&ops::gate(Gate::H, rq[i])).unwrap();
        }
        let d_opt = qsim::optimize(stream(&dq));
        let r_opt = qsim::optimize(stream(&rq));
        assert!(
            d_opt
                .ops()
                .iter()
                .any(|op| matches!(op, BatchOp::Fused1q { .. }))
                && d_opt
                    .ops()
                    .iter()
                    .any(|op| matches!(op, BatchOp::PhaseSweep { .. })),
            "the optimizer must emit both fused op kinds here: {:?}",
            d_opt.ops()
        );
        assert!(d_opt.len() < stream(&dq).len(), "fewer kernel sweeps");
        let before = remote.transport_stats();
        dense.apply_batch(&d_opt).unwrap();
        remote.apply_batch(&r_opt).unwrap();
        let after = remote.transport_stats();
        assert_eq!(
            after.command_rounds, before.command_rounds,
            "a batch, fused or not, waits for a read"
        );
        assert_eq!(
            after.exchange_rounds, before.exchange_rounds,
            "fused 1q kernels and phase sweeps are shard-local"
        );
        assert_eq!(dense.gate_count(), remote.gate_count());
        let want = dense.state_vector(&dq).unwrap();
        let got = remote.state_vector(&rq).unwrap();
        assert_eq!(
            remote.transport_stats().command_rounds - after.command_rounds,
            2,
            "the snapshot ships the queue in a round of its own, then gathers"
        );
        for i in 0..want.len() {
            let (w, g) = (want.amplitude(i), got.amplitude(i));
            assert!(
                w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                "amp[{i}]: {w:?} vs {g:?}"
            );
        }
    }

    /// Batched and eager application must stay bit-identical per seed —
    /// including under Pauli noise, where the controller samples the shared
    /// stream per op while planning.
    #[test]
    fn batched_stream_is_bit_identical_to_eager_under_noise() {
        use qsim::BatchOp;
        let noise = NoiseModel::depolarizing(0.3);
        for shards in [1usize, 2, 4] {
            let mut eager = RemoteShardedEngine::with_noise(9, shards, noise);
            let mut batched = RemoteShardedEngine::with_noise(9, shards, noise);
            let eq: Vec<QubitId> = (0..5).map(|_| eager.alloc()).collect();
            let bq: Vec<QubitId> = (0..5).map(|_| batched.alloc()).collect();
            let stream = |qs: &[QubitId]| {
                vec![
                    BatchOp::Gate {
                        gate: Gate::H,
                        q: qs[0],
                    },
                    BatchOp::Gate {
                        gate: Gate::T,
                        q: qs[4],
                    },
                    BatchOp::Cnot { c: qs[0], t: qs[4] },
                    BatchOp::Swap { a: qs[1], b: qs[4] },
                    BatchOp::Cz { a: qs[2], b: qs[3] },
                    BatchOp::Controlled {
                        controls: vec![qs[0]],
                        gate: Gate::Ry(0.4),
                        target: qs[2],
                    },
                ]
            };
            for op in stream(&eq) {
                eager.apply_batch(&ops::batch([op])).unwrap();
            }
            batched.apply_batch(&ops::batch(stream(&bq))).unwrap();
            assert_eq!(eager.gate_count(), batched.gate_count(), "shards={shards}");
            let want = eager.state_vector(&eq).unwrap();
            let got = batched.state_vector(&bq).unwrap();
            for i in 0..want.len() {
                let (w, g) = (want.amplitude(i), got.amplitude(i));
                assert!(
                    w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                    "shards={shards} amp[{i}]: {w:?} vs {g:?}"
                );
            }
        }
    }

    /// The gather-free expectation protocol: cross-shard X/Y strings pair
    /// workers directly; values must match the dense engine on a
    /// non-trivial entangled state, and no stripe may flow to the
    /// controller (asserted via the command pattern: expectation issues no
    /// Gather, so byte traffic stays far below a stripe gather's).
    #[test]
    fn expectation_is_gather_free_and_matches_dense() {
        // 6 qubits over 4 shards: positions 4 and 5 are shard-selecting,
        // so X/Y strings touching them exercise the worker↔worker pairing.
        let mut e = RemoteShardedEngine::new(3, 4);
        let mut dense = StateVectorEngine::new(3);
        let rq: Vec<QubitId> = (0..6).map(|_| e.alloc()).collect();
        let dq: Vec<QubitId> = (0..6).map(|_| dense.alloc()).collect();
        for (engine_q, dense_q) in rq.iter().zip(&dq) {
            e.apply_batch(&ops::gate(Gate::H, *engine_q)).unwrap();
            dense.apply_batch(&ops::gate(Gate::H, *dense_q)).unwrap();
        }
        e.apply_batch(&ops::cnot(rq[0], rq[5])).unwrap();
        dense.apply_batch(&ops::cnot(dq[0], dq[5])).unwrap();
        e.apply_batch(&ops::gate(Gate::T, rq[2])).unwrap();
        dense.apply_batch(&ops::gate(Gate::T, dq[2])).unwrap();
        let pick = |qs: &[QubitId]| -> Vec<Vec<(QubitId, Pauli)>> {
            vec![
                vec![(qs[0], Pauli::Z), (qs[5], Pauli::Z)],
                vec![(qs[0], Pauli::X), (qs[5], Pauli::X)], // shard-crossing X
                vec![(qs[4], Pauli::Y), (qs[5], Pauli::X)], // both shard bits
                vec![(qs[2], Pauli::Y)],
                vec![(qs[1], Pauli::X), (qs[2], Pauli::Z), (qs[5], Pauli::Y)],
            ]
        };
        for (rs, ds) in pick(&rq).iter().zip(&pick(&dq)) {
            let got = e.expectation(rs).unwrap();
            let want = dense.expectation(ds).unwrap();
            assert!(
                (got - want).abs() < 1e-12,
                "expectation {rs:?}: {got} vs {want}"
            );
        }
        // Traffic check: a shard-crossing expectation moves the paired
        // stripes worker↔worker (half the amplitudes), never the full
        // gather to the controller.
        let bytes_before = e.transport_stats().wire_bytes;
        e.expectation(&[(rq[0], Pauli::X), (rq[5], Pauli::X)])
            .unwrap();
        let xchg_traffic = e.transport_stats().wire_bytes - bytes_before;
        let bytes_before = e.transport_stats().wire_bytes;
        let _ = e.state_vector(&rq).unwrap(); // a real gather, for scale
        let gather_traffic = e.transport_stats().wire_bytes - bytes_before;
        assert!(
            xchg_traffic < gather_traffic,
            "gather-free expectation ({xchg_traffic} B) must move less than a gather \
             ({gather_traffic} B)"
        );
    }

    #[test]
    fn watchdog_diagnoses_dead_worker_instead_of_hanging() {
        let start = std::time::Instant::now();
        let e = RemoteShardedEngine::new(3, 2).with_watchdog(Duration::from_millis(200));
        let mut e = e;
        let a = e.alloc();
        let b = e.alloc();
        e.apply_batch(&ops::gate(Gate::H, a)).unwrap();
        // Kill shard 1's worker, then run a reduction that needs it.
        e.debug_kill_worker(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.prob_one(b).unwrap();
        }))
        .expect_err("query against a dead worker must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("watchdog"),
            "panic must carry the watchdog diagnostic, got: {msg}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "watchdog must fire promptly, not hang"
        );
        drop(e); // shutdown must still reap the surviving workers
    }

    /// A worker dying *mid-batch* — with a framed gate stream already in
    /// its mailbox and a cross-shard exchange pending against it — must
    /// surface as a watchdog diagnostic on the next protocol round, not a
    /// hang. (The surviving exchange partner panics with its own watchdog
    /// message; the controller's next reduction then times out loudly.)
    #[test]
    fn watchdog_diagnoses_worker_dying_mid_batch() {
        use qsim::BatchOp;
        let start = std::time::Instant::now();
        let mut e = RemoteShardedEngine::new(7, 4).with_watchdog(Duration::from_millis(200));
        let qs: Vec<QubitId> = (0..4).map(|_| e.alloc()).collect();
        e.apply_batch(&ops::gate(Gate::H, qs[0])).unwrap();
        // Kill shard 2's worker, then queue a batch whose cross-shard CNOT
        // pairs a live worker with the dead one. The next reduction ships
        // it, and the failure must surface there.
        e.debug_kill_worker(2);
        let batch = ops::batch(vec![
            BatchOp::Gate {
                gate: Gate::H,
                q: qs[1],
            },
            // Qubit 3 is shard-selecting (2 local bits at 4 shards), so
            // this pairs shards across the dead worker.
            BatchOp::Cnot { c: qs[0], t: qs[3] },
        ]);
        e.apply_batch(&batch).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.prob_one(qs[3]).unwrap();
        }))
        .expect_err("reduction against a dead worker must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("watchdog"),
            "panic must carry the watchdog diagnostic, got: {msg}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "watchdog must fire promptly, not hang"
        );
        drop(e); // shutdown must still reap the surviving workers
    }

    #[test]
    fn remote_backend_kind_builds_under_sharded_shared() {
        let backend = crate::backend::build_backend(
            BackendKind::RemoteSharded { shards: 4 },
            cmpi::TransportKind::InProcess,
            5,
            NoiseModel::ideal(),
        )
        .unwrap();
        assert_eq!(backend.kind(), BackendKind::RemoteSharded { shards: 4 });
        let qa = backend.alloc(0, 1)[0];
        let qb = backend.alloc(1, 1)[0];
        backend.entangle_epr_batch(&[(qa, qb)]).unwrap();
        let ma = backend.measure_z_parity(0, &[qa]).unwrap();
        let mb = backend.measure_z_parity(1, &[qb]).unwrap();
        assert_eq!(ma, mb);
        assert_eq!(backend.counts().epr_entanglements, 1);
    }

    #[test]
    fn wrapper_runs_concurrent_rank_gates_against_workers() {
        use std::sync::Arc;
        let backend: Arc<dyn QuantumBackend> = crate::backend::build_backend(
            BackendKind::RemoteSharded { shards: 4 },
            cmpi::TransportKind::InProcess,
            3,
            NoiseModel::ideal(),
        )
        .unwrap();
        let mut qubits = Vec::new();
        for rank in 0..4usize {
            qubits.push((rank, backend.alloc(rank, 2)));
        }
        std::thread::scope(|s| {
            for (rank, qs) in &qubits {
                let backend = Arc::clone(&backend);
                s.spawn(move || {
                    for _ in 0..10 {
                        backend
                            .apply_batch(*rank, &ops::gate(Gate::H, qs[0]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::cnot(qs[0], qs[1]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::cnot(qs[0], qs[1]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::gate(Gate::H, qs[0]))
                            .unwrap();
                    }
                });
            }
        });
        // Every rank's round was self-inverse: all qubits must read |0>.
        for (rank, qs) in &qubits {
            for &q in qs {
                assert!(backend.prob_one(*rank, q).unwrap() < 1e-9);
                backend.measure_and_free(*rank, q).unwrap();
            }
        }
        assert_eq!(backend.counts().live_qubits, 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A piece of a stripe: a run of `+0.0` as long as `n`, or one
        /// amplitude that must stay a literal or a nonzero value.
        fn arb_piece() -> impl Strategy<Value = Vec<Complex>> {
            (0usize..8, 0..2 * MIN_ZERO_RUN + 2, any::<u64>()).prop_map(|(kind, n, bits)| {
                let nan = f64::from_bits(0x7ff0_0000_0000_0001 | (bits & 0x800f_ffff_ffff_ffff));
                let subnormal = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 1);
                match kind {
                    0..=2 => vec![Complex::default(); n],
                    3 => vec![Complex::new(-0.0, 0.0), Complex::new(0.0, -0.0)],
                    4 => vec![Complex::new(subnormal, 0.0), Complex::new(0.0, -subnormal)],
                    5 => vec![Complex::new(nan, 0.0), Complex::new(0.0, nan)],
                    6 => vec![Complex::new(f64::from_bits(bits), f64::from_bits(!bits))],
                    _ => vec![Complex::new(0.5, -0.25)],
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Zero runs at the start, middle and end, next to every value
            /// that only looks zero, come back bit for bit, in at most one
            /// segment header more than the amplitudes themselves.
            #[test]
            fn stripe_payloads_round_trip_bit_for_bit(
                pieces in proptest::collection::vec(arb_piece(), 0..24),
            ) {
                let amps: Vec<Complex> = pieces.concat();
                let bytes = cmpi::to_bytes(&WireAmps(amps.clone()));
                prop_assert!(bytes.len() <= 8 + 16 * amps.len() + 16);
                let back = cmpi::from_bytes::<WireAmps>(&bytes).expect("decode").0;
                let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
                    v.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
                };
                prop_assert_eq!(bits(&back), bits(&amps));
            }
        }
    }
}
