//! `qmpi.remote.codec`: encode/decode of the two command frames that
//! dominate the socket engine's traffic — a `Batch` of 256 planned worker
//! ops (the latency regime) and a `Load` of 2^16 amplitudes, 1 MiB (the
//! bandwidth regime).

use super::{median_ns, Metrics};
use cmpi::{from_bytes, to_bytes};
use qmpi::backend::remote::{PairKernel, ShardCmd, WorkerOp};
use qsim::{Complex, Gate};

const BATCH_OPS: usize = 256;
const LOAD_BITS: usize = 16;

fn batch_cmd() -> ShardCmd {
    let ops = (0..BATCH_OPS)
        .map(|i| match i % 4 {
            0 => WorkerOp::PairWithin {
                c_lo: 0,
                tbit: 1 << (i % 12),
                kernel: PairKernel::Mat(Gate::Ry(0.01 * i as f64).matrix()),
            },
            1 => WorkerOp::PairWithin {
                c_lo: 1 << (i % 7),
                tbit: 1 << 9,
                kernel: PairKernel::Swap,
            },
            2 => WorkerOp::Phase {
                lo_mask: (1 << 3) | (1 << 8),
            },
            _ => WorkerOp::PhaseSweep {
                diags: vec![
                    (1 << 2, Complex::cis(-0.1), Complex::cis(0.1)),
                    (1 << 6, Complex::cis(-0.2), Complex::cis(0.2)),
                ],
                flips: vec![(1 << 1) | (1 << 4)],
            },
        })
        .collect();
    ShardCmd::Batch { ops }
}

fn load_cmd() -> ShardCmd {
    ShardCmd::Load {
        shard_index: 1,
        local_bits: LOAD_BITS,
        amps: (0..1usize << LOAD_BITS)
            .map(|i| Complex::new(i as f64 * 1e-6, -(i as f64) * 1e-6))
            .collect(),
    }
}

pub fn probe(samples: usize, m: &mut Metrics) {
    let batch = batch_cmd();
    let wire = to_bytes(&batch);
    assert_eq!(
        from_bytes::<ShardCmd>(&wire),
        Some(batch.clone()),
        "codec round trip"
    );
    m.push(
        "qmpi.remote.codec.batch_encode_ns_per_op",
        median_ns(samples, || to_bytes(&batch)) / BATCH_OPS as f64,
        "ns",
    );
    m.push(
        "qmpi.remote.codec.batch_decode_ns_per_op",
        median_ns(samples, || from_bytes::<ShardCmd>(&wire)) / BATCH_OPS as f64,
        "ns",
    );
    m.push(
        "qmpi.remote.codec.batch_bytes_per_op",
        wire.len() as f64 / BATCH_OPS as f64,
        "B",
    );

    let load = load_cmd();
    let wire = to_bytes(&load);
    let mib = wire.len() as f64 / (1u64 << 20) as f64;
    let mib_per_s = |ns: f64| mib / (ns * 1e-9);
    m.push(
        "qmpi.remote.codec.amps_encode_mib_per_s",
        mib_per_s(median_ns(samples, || to_bytes(&load))),
        "MiB/s",
    );
    m.push(
        "qmpi.remote.codec.amps_decode_mib_per_s",
        mib_per_s(median_ns(samples, || from_bytes::<ShardCmd>(&wire))),
        "MiB/s",
    );
}
