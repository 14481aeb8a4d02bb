//! `qmpi.context`: the rank layer itself — recording gates into the
//! pending batch, flushing 256 of them, and spinning a four-rank world up
//! and down — on the counting-only `Trace` engine, so engine cost ≈ 0.

use super::{median_ns, time_ns_with, Metrics};
use crate::stats::median;
use qmpi::{run_with_config, BackendKind, BatchPolicy, QmpiConfig};

const GATES: usize = 256;

fn trace_config() -> QmpiConfig {
    QmpiConfig::new()
        .seed(1)
        .backend(BackendKind::Trace)
        .batch(BatchPolicy::default())
}

pub fn probe(samples: usize, m: &mut Metrics) {
    let (record, flush) = run_with_config(1, trace_config(), move |ctx| {
        let q = ctx.alloc_qmem(4);
        let record = time_ns_with(
            samples,
            &mut (),
            |_| ctx.flush().expect("flush"),
            |_| {
                for i in 0..GATES / 4 {
                    ctx.rz(&q[i % 4], 0.1).expect("rz");
                    ctx.cnot(&q[i % 4], &q[(i + 1) % 4]).expect("cnot");
                    ctx.rx(&q[(i + 1) % 4], 0.2).expect("rx");
                    ctx.h(&q[(i + 2) % 4]).expect("h");
                }
            },
        );
        ctx.flush().expect("flush");
        let flush = time_ns_with(
            samples,
            &mut (),
            |_| {
                for i in 0..GATES {
                    ctx.rz(&q[i % 4], 0.1).expect("rz");
                }
            },
            |_| ctx.flush().expect("flush"),
        );
        for q in q {
            ctx.measure_and_free(q).expect("free");
        }
        (record, flush)
    })
    .swap_remove(0);
    m.push(
        "qmpi.context.record_ns_per_gate",
        median(&record) / GATES as f64,
        "ns",
    );
    m.push("qmpi.context.flush_us.256", median(&flush) / 1e3, "us");
    m.push(
        "qmpi.context.world_us.4",
        median_ns(samples, || run_with_config(4, trace_config(), |_| ())) / 1e3,
        "us",
    );
}
