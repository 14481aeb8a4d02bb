//! The byte layout of every shard frame: commands, replies and stripe
//! payloads, and the version a worker's `HELLO` names.

use super::MAX_REMOTE_SHARD_BITS;
use bytes::{BufMut, Bytes, BytesMut};
use cmpi::{Decode, Encode};
use qsim::gates::Mat2;
use qsim::state::MAX_DENSE_QUBITS;
use qsim::stripe::{ExactSum, PairKernel};
use qsim::Complex;

/// Version of the byte layout of every command, reply and exchange frame,
/// sent at the head of the `HELLO` body; bump it with any change to that
/// layout.
pub(crate) const WIRE_VERSION: u32 = 6;

fn encode_complex(c: &Complex, buf: &mut BytesMut) {
    c.re.encode(buf);
    c.im.encode(buf);
}

fn decode_complex(buf: &mut Bytes) -> Option<Complex> {
    let re = f64::decode(buf)?;
    let im = f64::decode(buf)?;
    Some(Complex::new(re, im))
}

/// A partial sum as its `i128` of grid units ([`ExactSum::units`]): the
/// low 64 bits, then the high.
fn encode_sum(sum: &ExactSum, buf: &mut BytesMut) {
    let units = sum.units();
    (units as u64).encode(buf);
    ((units >> 64) as u64).encode(buf);
}

fn decode_sum(buf: &mut Bytes) -> Option<ExactSum> {
    let low = u64::decode(buf)?;
    let high = u64::decode(buf)?;
    Some(ExactSum::from_units(
        (i128::from(high as i64) << 64) | i128::from(low),
    ))
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

/// Decodes a stripe payload into `out`, replacing what it held; `out` keeps
/// its capacity, and grows only if the stripe does not fit.
fn decode_amps_into(buf: &mut Bytes, out: &mut Vec<Complex>) -> Option<()> {
    let len = usize::decode(buf)?;
    if len > 1 << MAX_DENSE_QUBITS {
        return None;
    }
    // Zero runs cost no payload: check every segment before allocating.
    decode_segments(&mut buf.clone(), len, |_, _| {})?;
    out.clear();
    out.reserve(len);
    decode_segments(buf, len, |zeros, lits| {
        out.resize(out.len() + zeros, Complex::default());
        out.extend(lits.as_chunks::<16>().0.iter().map(|c| {
            let bits = u128::from_le_bytes(*c);
            let [re, im] = [bits as u64, (bits >> 64) as u64].map(f64::from_bits);
            Complex::new(re, im)
        }));
    })
}

fn decode_amps(buf: &mut Bytes) -> Option<Vec<Complex>> {
    let mut out = Vec::new();
    decode_amps_into(buf, &mut out)?;
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

/// Stripe payload exchanged between workers, encoded from the stripe it
/// borrows; [`decode_stripe_into`] reads one back.
pub(crate) struct WireAmps<'a>(pub(crate) &'a [Complex]);

impl Encode for WireAmps<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        encode_amps(self.0, buf);
    }
}

/// Decodes a whole [`WireAmps`] body into `out`, which keeps its capacity;
/// `None` on a malformed body or bytes left over.
pub(crate) fn decode_stripe_into(mut body: Bytes, out: &mut Vec<Complex>) -> Option<()> {
    decode_amps_into(&mut body, out)?;
    body.is_empty().then_some(())
}

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
    /// this one: the high member of every stripe exchange, whose low member
    /// ([`WorkerOp::CrossLow`] or [`WorkerOp::SwapCrossLow`]) receives
    /// first, so the two never write at once. A SWAP of two shard-selecting
    /// qubits pairs it with a `CrossLow` of [`PairKernel::Swap`] over the
    /// whole stripe.
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
    /// [`qsim::stripe::swap_across_mixed`], ship the partner's half back. One
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
    /// the global X/Z masks. Replies [`ShardReply::Expect`] (except for
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
    /// Keep the `odd` (or even) parity subspace under `mask` rescaled by
    /// `factor`, and zero the rest: the reply-free half of a measurement
    /// that keeps its qubits ([`qsim::stripe::collapse_scale`]).
    CollapseScale {
        /// Global parity mask.
        mask: usize,
        /// Which parity survives.
        odd: bool,
        /// `1/√(kept mass)`, reduced from the [`ShardCmd::Branches`] read.
        factor: f64,
    },
    /// Execute the commands in order: a worker's queue followed by the
    /// command that needs its reply. Holds no `Seq`.
    Seq(Vec<ShardCmd>),
    /// In-place layout change for an alloc or a free: rescale a free's
    /// kept amplitudes (dropping a within-stripe qubit in the same pass),
    /// ship the stripe's equal parts worker↔worker on `TAG_XCHG`, and take
    /// the part received as the new stripe (zero-padded to `len`). A rank
    /// equal to the worker's own (`shard_index + 1`) names a part that
    /// stays. A worker trades with its peers in rank order, the lower rank
    /// of each pair writing first, so no cycle of workers can wait on each
    /// other.
    Reshape {
        /// A free of this within-stripe qubit, keeping the `bool` branch
        /// ([`qsim::stripe::collapse_remove_in_place`] by `factor`).
        compact: Option<(usize, bool)>,
        /// A free's rescale of the kept amplitudes, `1/√(kept mass)` from
        /// the read that decided it; 1 for an alloc.
        factor: f64,
        /// World ranks the stripe's `sends.len()` equal parts go to, in
        /// offset order; empty discards the stripe.
        sends: Vec<usize>,
        /// World rank whose part becomes the new stripe; `None` starts it
        /// from zeros.
        recv: Option<usize>,
        /// This worker's shard index under the new layout.
        shard_index: usize,
        /// Within-stripe bit count under the new layout.
        local_bits: usize,
        /// New stripe length: `2^local_bits`, or 0 for an inactive worker.
        len: usize,
    },
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
            ShardCmd::Reshape {
                compact,
                factor,
                sends,
                recv,
                shard_index,
                local_bits,
                len,
            } => {
                12u8.encode(buf);
                compact.encode(buf);
                factor.encode(buf);
                sends.encode(buf);
                recv.encode(buf);
                shard_index.encode(buf);
                local_bits.encode(buf);
                len.encode(buf);
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
        // rescale, 9 and 10 a worker's clean and unclean exit (EOF on its
        // link ends it) and 11 a multi-segment frame; retired, they decode
        // as unknown.
        12 => {
            // The generic decoders reject an unknown option tag and a rank
            // count beyond the bytes that remain.
            let compact = Option::<(usize, bool)>::decode(buf)?;
            let factor = f64::decode(buf)?;
            let sends = Vec::<usize>::decode(buf)?;
            let recv = Option::<usize>::decode(buf)?;
            let shard_index = usize::decode(buf)?;
            let local_bits = usize::decode(buf)?;
            let len = usize::decode(buf)?;
            // No payload bytes back the stripe length; it must agree with a
            // layout the engine can reach.
            if !reachable_layout(shard_index, local_bits, len) {
                return None;
            }
            ShardCmd::Reshape {
                compact,
                factor,
                sends,
                recv,
                shard_index,
                local_bits,
                len,
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
    /// The stripe's even- and odd-parity masses ([`ShardCmd::Branches`]),
    /// as exact partial sums.
    Branches {
        /// Mass of the even-parity basis states.
        even: ExactSum,
        /// Mass of the odd-parity basis states.
        odd: ExactSum,
    },
    /// The worker's stripe (gather).
    Amps(Vec<Complex>),
    /// A stripe's (or stripe pair's) share of a Pauli expectation
    /// ([`ShardCmd::Expect`]), as exact partial sums.
    Expect {
        /// Sum of the terms' real parts.
        re: ExactSum,
        /// Sum of the terms' imaginary parts.
        im: ExactSum,
    },
}

impl Encode for ShardReply {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ShardReply::Branches { even, odd } => {
                4u8.encode(buf);
                encode_sum(even, buf);
                encode_sum(odd, buf);
            }
            ShardReply::Amps(amps) => {
                1u8.encode(buf);
                encode_amps(amps, buf);
            }
            ShardReply::Expect { re, im } => {
                2u8.encode(buf);
                encode_sum(re, buf);
                encode_sum(im, buf);
            }
        }
    }
}

impl ShardCmd {
    /// How many replies executing the command sends back.
    pub(crate) fn replies(&self) -> usize {
        match self {
            ShardCmd::Seq(cmds) => cmds.iter().map(ShardCmd::replies).sum(),
            ShardCmd::Gather | ShardCmd::Branches { .. } => 1,
            ShardCmd::Expect { role, .. } => usize::from(!matches!(role, ExpectRole::High { .. })),
            _ => 0,
        }
    }
}

/// The command frame of a worker's `queue` followed by `read`, encoded
/// from the borrowed commands: one command alone, several as the bytes of
/// a [`ShardCmd::Seq`] of them, and `None` for nothing.
pub(crate) fn encode_frame(queue: &[ShardCmd], read: Option<&ShardCmd>) -> Option<Bytes> {
    let mut buf = BytesMut::new();
    match (queue, read) {
        ([], None) => return None,
        ([one], None) | ([], Some(one)) => one.encode(&mut buf),
        _ => {
            SEQ.encode(&mut buf);
            (queue.len() + usize::from(read.is_some())).encode(&mut buf);
            for cmd in queue.iter().chain(read) {
                cmd.encode(&mut buf);
            }
        }
    }
    Some(buf.freeze())
}

/// A reply as a socket worker frames it: the bytes of the exchange frames
/// it wrote since its last reply, headers included (they cross no socket
/// the controller reads), then the reply itself.
pub(crate) fn encode_reply_frame(xchg_bytes: u64, reply: &ShardReply) -> Bytes {
    let mut buf = BytesMut::new();
    xchg_bytes.encode(&mut buf);
    reply.encode(&mut buf);
    buf.freeze()
}

/// The exchange byte count and reply of a [`encode_reply_frame`] body.
pub(crate) fn decode_reply_frame(body: &Bytes) -> Option<(u64, ShardReply)> {
    cmpi::from_bytes(body)
}

impl Decode for ShardReply {
    fn decode(buf: &mut Bytes) -> Option<Self> {
        match u8::decode(buf)? {
            // 0 was a single partial sum and 3 a free's reshape report;
            // retired, they decode as unknown.
            1 => decode_amps(buf).map(ShardReply::Amps),
            2 => Some(ShardReply::Expect {
                re: decode_sum(buf)?,
                im: decode_sum(buf)?,
            }),
            4 => Some(ShardReply::Branches {
                even: decode_sum(buf)?,
                odd: decode_sum(buf)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Gate;

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
            // A free that compacts locally and keeps the stripe...
            ShardCmd::Reshape {
                compact: Some((2, true)),
                factor: 1.25,
                sends: vec![4],
                recv: Some(4),
                shard_index: 3,
                local_bits: 5,
                len: 32,
            },
            // ...the largest world's last shard...
            ShardCmd::Reshape {
                compact: None,
                factor: 1.0,
                sends: vec![],
                recv: Some(64),
                shard_index: (1 << MAX_REMOTE_SHARD_BITS) - 1,
                local_bits: 1,
                len: 2,
            },
            // ...a stripe that rescales and ships a half of itself...
            ShardCmd::Reshape {
                compact: None,
                factor: 2.0f64.sqrt(),
                sends: vec![1, 2],
                recv: Some(1),
                shard_index: 0,
                local_bits: 3,
                len: 8,
            },
            // ...and a worker that discards its stripe and goes inactive.
            ShardCmd::Reshape {
                compact: None,
                factor: 1.0,
                sends: vec![],
                recv: None,
                shard_index: 6,
                local_bits: 0,
                len: 0,
            },
        ];
        for cmd in cmds {
            let bytes = cmpi::to_bytes(&cmd);
            let back: ShardCmd = cmpi::from_bytes(&bytes).expect("decode");
            assert_eq!(back, cmd);
        }
    }

    /// Every frame the protocol can carry, one encoding each, in the order
    /// of [`every_frame_keeps_its_golden_bytes`]'s table.
    fn golden_cases() -> Vec<Bytes> {
        let c = Complex::new;
        let sum = |t| {
            let mut sum = ExactSum::ZERO;
            sum.add(t);
            sum
        };
        let mat = [[c(0.5, 0.0), c(0.0, -0.5)], [c(-1.0, 0.0), c(0.25, 2.0)]];
        // Literal, a zero run, literal: the second segment is a length.
        let z = Complex::default();
        let stripe = vec![c(1.0, 0.0), z, z, z, z, c(-0.5, 0.25)];
        let ops = [
            WorkerOp::PairWithin {
                c_lo: 0b101,
                tbit: 1 << 4,
                kernel: PairKernel::Mat(mat),
            },
            WorkerOp::PairWithin {
                c_lo: 0,
                tbit: 2,
                kernel: PairKernel::Swap,
            },
            WorkerOp::CrossLow {
                partner: 3,
                c_lo: 0b11,
                kernel: PairKernel::Swap,
            },
            WorkerOp::CrossHigh { partner: 2 },
            WorkerOp::Phase { lo_mask: 0b1001 },
            WorkerOp::SwapWithin { abit: 4, bbit: 32 },
            WorkerOp::SwapCrossLow {
                partner: 5,
                abit: 1,
            },
            WorkerOp::PhaseSweep {
                diags: vec![(0b100, c(1.0, 0.0), c(0.0, 1.0))],
                flips: vec![0b110],
            },
        ];
        let expect = |role| ShardCmd::Expect {
            x_lo: 0b10,
            x_hi: 1 << 6,
            z_mask: 0b101,
            role,
        };
        let cmds = [
            ShardCmd::Load {
                shard_index: 3,
                local_bits: 2,
                amps: stripe.clone(),
            },
            ShardCmd::Gather,
            ShardCmd::Batch {
                ops: ops[..2].to_vec(),
            },
            expect(ExpectRole::Solo),
            expect(ExpectRole::Low { partner: 2 }),
            expect(ExpectRole::High { partner: 1 }),
            ShardCmd::Branches { mask: 0b110 },
            ShardCmd::CollapseScale {
                mask: 0b11,
                odd: true,
                factor: 2.0,
            },
            ShardCmd::Seq(vec![ShardCmd::Gather, ShardCmd::Branches { mask: 1 }]),
            ShardCmd::Reshape {
                compact: Some((2, true)),
                factor: 2.0,
                sends: vec![1, 4],
                recv: Some(4),
                shard_index: 3,
                local_bits: 5,
                len: 32,
            },
        ];
        let replies = [
            ShardReply::Branches {
                even: sum(0.75),
                odd: sum(0.25),
            },
            ShardReply::Amps(stripe),
            ShardReply::Expect {
                re: sum(-0.75),
                im: sum(0.625),
            },
        ];
        let framed = encode_reply_frame(0x0102_0304, &replies[0]);
        let ops = ops.iter().map(cmpi::to_bytes);
        let cmds = cmds.iter().map(cmpi::to_bytes);
        ops.chain(cmds)
            .chain(replies.iter().map(cmpi::to_bytes))
            .chain([framed])
            .collect()
    }

    /// One encoding of every [`WorkerOp`], [`ShardCmd`] (each [`ExpectRole`]
    /// inside an `Expect`) and [`ShardReply`] variant, and of a socket
    /// worker's reply frame, as literal bytes: a
    /// round trip cannot see a re-layout both ends share. The stripe payloads
    /// hold a zero run. A `usize` is a little-endian `u64`, an `f64` its
    /// little-endian bits, a `Vec` its length first, and an exact partial
    /// sum its `i128` of 2^-102 units, low 64 bits first: 0.75 is `3 << 100`.
    #[test]
    fn every_frame_keeps_its_golden_bytes() {
        let golden = [
            (
                "PairWithin Mat",
                "000500000000000000100000000000000001000000000000e03f000000000000\
                 00000000000000000000000000000000e0bf000000000000f0bf000000000000\
                 0000000000000000d03f0000000000000040",
            ),
            ("PairWithin Swap", "000000000000000000020000000000000000"),
            ("CrossLow", "010300000000000000030000000000000000"),
            ("CrossHigh", "020200000000000000"),
            ("Phase", "030900000000000000"),
            ("SwapWithin", "0404000000000000002000000000000000"),
            ("SwapCrossLow", "0505000000000000000100000000000000"),
            (
                "PhaseSweep",
                "0701000000000000000400000000000000000000000000f03f00000000000000\
                 000000000000000000000000000000f03f010000000000000006000000000000\
                 00",
            ),
            (
                "Load",
                "0003000000000000000200000000000000060000000000000000000000000000\
                 000100000000000000000000000000f03f000000000000000004000000000000\
                 000100000000000000000000000000e0bf000000000000d03f",
            ),
            ("Gather", "01"),
            (
                "Batch",
                "0202000000000000000005000000000000001000000000000000010000000000\
                 00e03f00000000000000000000000000000000000000000000e0bf0000000000\
                 00f0bf0000000000000000000000000000d03f00000000000000400000000000\
                 00000000020000000000000000",
            ),
            (
                "Expect Solo",
                "0302000000000000004000000000000000050000000000000000",
            ),
            (
                "Expect Low",
                "0302000000000000004000000000000000050000000000000001020000000000\
                 0000",
            ),
            (
                "Expect High",
                "0302000000000000004000000000000000050000000000000002010000000000\
                 0000",
            ),
            ("Branches", "0d0600000000000000"),
            ("CollapseScale", "0e0300000000000000010000000000000040"),
            ("Seq", "0f0200000000000000010d0100000000000000"),
            (
                "Reshape",
                "0c01020000000000000001000000000000004002000000000000000100000000\
                 0000000400000000000000010400000000000000030000000000000005000000\
                 000000002000000000000000",
            ),
            (
                "reply Branches",
                "0400000000000000000000000030000000000000000000000000000000100000\
                 00",
            ),
            (
                "reply Amps",
                "01060000000000000000000000000000000100000000000000000000000000f0\
                 3f000000000000000004000000000000000100000000000000000000000000e0\
                 bf000000000000d03f",
            ),
            (
                "reply Expect",
                "02000000000000000000000000d0ffffff000000000000000000000000280000\
                 00",
            ),
            (
                "reply frame",
                "0403020100000000040000000000000000000000003000000000000000000000\
                 000000000010000000",
            ),
        ];
        let cases = golden_cases();
        assert_eq!(cases.len(), golden.len());
        for (bytes, (what, want)) in cases.iter().zip(golden) {
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{what}");
        }
    }

    #[test]
    fn shard_reply_roundtrips() {
        for reply in [
            ShardReply::Branches {
                even: ExactSum::from_units(5 << 99),
                odd: ExactSum::from_units(-1),
            },
            ShardReply::Amps(vec![Complex::new(1.0, -2.0); 5]),
            ShardReply::Amps(vec![]),
            ShardReply::Expect {
                re: ExactSum::from_units(i128::MIN),
                im: ExactSum::from_units(i128::MAX),
            },
        ] {
            let bytes = cmpi::to_bytes(&reply);
            let back: ShardReply = cmpi::from_bytes(&bytes).expect("decode");
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn stripe_payload_sizes_are_bounded() {
        let size = |amps: Vec<Complex>| cmpi::to_bytes(&WireAmps(&amps)).len();
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
        // Discriminants 9 and 10, a worker's retired clean and unclean exit,
        // are unknown: EOF on its link is what ends a worker.
        for tag in [9u8, 10] {
            assert!(cmpi::from_bytes::<ShardCmd>(&Bytes::from(vec![tag])).is_none());
        }
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
        // Reshape frames: an unknown compaction or receive tag, a send list
        // longer than the payload, a frame cut short, a stripe length that
        // disagrees with the layout, and a shard index no world reaches.
        // `tags` are the compaction's and the receive's option tags (no
        // value follows) and `sends` the send count (no ranks follow).
        let reshape = |tags: (u8, u8), sends: usize, len: usize, shard: usize| {
            let mut buf = BytesMut::new();
            12u8.encode(&mut buf); // ShardCmd::Reshape
            tags.0.encode(&mut buf);
            1.0f64.encode(&mut buf); // factor
            sends.encode(&mut buf);
            tags.1.encode(&mut buf);
            shard.encode(&mut buf);
            4usize.encode(&mut buf); // local_bits
            len.encode(&mut buf);
            buf.freeze()
        };
        let decodes = |frame: &Bytes| cmpi::from_bytes::<ShardCmd>(frame).is_some();
        assert!(decodes(&reshape((0, 0), 0, 16, 1)));
        assert!(!decodes(&reshape((7, 0), 0, 16, 1)));
        assert!(!decodes(&reshape((0, 7), 0, 16, 1)));
        assert!(!decodes(&reshape((0, 0), usize::MAX, 16, 1)));
        assert!(!decodes(&reshape((0, 0), 0, 17, 1)));
        let mut whole = reshape((0, 0), 0, 16, 1);
        let cut = whole.split_to(whole.len() - 1);
        assert!(!decodes(&cut));
        let shards = 1usize << MAX_REMOTE_SHARD_BITS;
        assert!(decodes(&reshape((0, 0), 0, 16, shards - 1)));
        assert!(!decodes(&reshape((0, 0), 0, 16, shards)));
        assert!(!decodes(&reshape((0, 0), 0, 16, usize::MAX)));
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
            1.0f64.encode(&mut buf); // factor
            0usize.encode(&mut buf); // sends
            0u8.encode(&mut buf); // no receive
            0usize.encode(&mut buf); // shard_index
            local_bits.encode(&mut buf);
            0usize.encode(&mut buf); // len
            buf.freeze()
        };
        assert!(cmpi::from_bytes::<ShardCmd>(&reshape(MAX_DENSE_QUBITS)).is_some());
        assert!(cmpi::from_bytes::<ShardCmd>(&reshape(MAX_DENSE_QUBITS + 1)).is_none());
    }

    /// The head of the `HELLO` body as literal bytes: wire format 6,
    /// little-endian.
    #[test]
    fn hello_body_keeps_its_golden_bytes() {
        assert_eq!(WIRE_VERSION.to_le_bytes(), [6, 0, 0, 0]);
    }

    #[test]
    fn replies_count_what_a_worker_answers() {
        let expect = |role| ShardCmd::Expect {
            x_lo: 0,
            x_hi: 0,
            z_mask: 0,
            role,
        };
        assert_eq!(ShardCmd::Gather.replies(), 1);
        assert_eq!(ShardCmd::Branches { mask: 1 }.replies(), 1);
        assert_eq!(expect(ExpectRole::Solo).replies(), 1);
        assert_eq!(expect(ExpectRole::Low { partner: 2 }).replies(), 1);
        assert_eq!(expect(ExpectRole::High { partner: 1 }).replies(), 0);
        assert_eq!(ShardCmd::Batch { ops: vec![] }.replies(), 0);
        let seq = ShardCmd::Seq(vec![ShardCmd::Batch { ops: vec![] }, ShardCmd::Gather]);
        assert_eq!(seq.replies(), 1);
    }

    /// A frame encoded from a borrowed queue and read is the bytes of the
    /// command, or the `Seq`, that the owned commands would make.
    #[test]
    fn a_borrowed_frame_encodes_as_the_owned_command() {
        let batch = ShardCmd::Batch {
            ops: vec![WorkerOp::Phase { lo_mask: 0b10 }],
        };
        let collapse = ShardCmd::CollapseScale {
            mask: 1,
            odd: false,
            factor: 2.0,
        };
        let read = ShardCmd::Branches { mask: 0b100 };
        assert_eq!(encode_frame(&[], None), None);
        assert_eq!(encode_frame(&[], Some(&read)), Some(cmpi::to_bytes(&read)));
        let queue = [batch, collapse];
        assert_eq!(
            encode_frame(&queue[..1], None),
            Some(cmpi::to_bytes(&queue[0]))
        );
        assert_eq!(
            encode_frame(&queue, None),
            Some(cmpi::to_bytes(&ShardCmd::Seq(queue.to_vec())))
        );
        let mut owned = queue.to_vec();
        owned.push(read.clone());
        assert_eq!(
            encode_frame(&queue, Some(&read)),
            Some(cmpi::to_bytes(&ShardCmd::Seq(owned)))
        );
    }

    #[test]
    fn reply_frames_roundtrip_and_refuse_a_cut_count() {
        let reply = ShardReply::Amps(vec![Complex::new(0.5, -0.5); 3]);
        let bytes = encode_reply_frame(u64::MAX, &reply);
        assert_eq!(decode_reply_frame(&bytes), Some((u64::MAX, reply)));
        let cut = bytes.clone().split_to(7);
        assert_eq!(decode_reply_frame(&cut), None);
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
                let bytes = cmpi::to_bytes(&WireAmps(&amps));
                prop_assert!(bytes.len() <= 8 + 16 * amps.len() + 16);
                let mut back = vec![Complex::new(9.0, 9.0); 3];
                decode_stripe_into(bytes.clone(), &mut back).expect("decode");
                let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
                    v.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
                };
                prop_assert_eq!(bits(&back), bits(&amps));
            }
        }
    }
}
