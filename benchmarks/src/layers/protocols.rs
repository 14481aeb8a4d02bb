//! `qmpi.p2p` / `qmpi.cat` / `qmpi.collectives`: protocol logic plus its
//! classical messaging, net of any engine — four ranks on the
//! counting-only `Trace` engine. Each sample is one operation, barrier to
//! barrier, timed on rank 0.

use super::Metrics;
use crate::stats::median;
use qmpi::{run_with_config, BackendKind, BatchPolicy, Parity, QmpiConfig, QmpiRank, Result};
use std::time::Instant;

const RANKS: usize = 4;

/// Times `op` (run by every rank) `samples` times on rank 0.
fn timed(ctx: &QmpiRank, samples: usize, op: impl Fn(&QmpiRank) -> Result<()>) -> Vec<f64> {
    let warmup = (samples / 10).max(2);
    let mut out = Vec::with_capacity(samples);
    for i in 0..warmup + samples {
        ctx.barrier();
        let t0 = Instant::now();
        op(ctx).expect("protocol probe op");
        ctx.barrier();
        if i >= warmup {
            out.push(t0.elapsed().as_nanos() as f64);
        }
    }
    out
}

fn teleport(ctx: &QmpiRank) -> Result<()> {
    match ctx.rank() {
        0 => {
            let q = ctx.alloc_one();
            ctx.send_move(q, 1, 0)
        }
        1 => {
            let q = ctx.recv_move(0, 0)?;
            ctx.measure_and_free(q).map(drop)
        }
        _ => Ok(()),
    }
}

fn send_unsend(ctx: &QmpiRank) -> Result<()> {
    match ctx.rank() {
        0 => {
            let q = ctx.alloc_one();
            ctx.send(&q, 1, 0)?;
            ctx.unsend(&q, 1, 0)?;
            ctx.measure_and_free(q).map(drop)
        }
        1 => {
            let copy = ctx.recv(0, 0)?;
            ctx.unrecv(copy, 0, 0)
        }
        _ => Ok(()),
    }
}

fn cat(ctx: &QmpiRank) -> Result<()> {
    let share = ctx.cat_establish()?;
    ctx.measure_and_free(share).map(drop)
}

fn reduce_unreduce(ctx: &QmpiRank) -> Result<()> {
    let q = ctx.alloc_one();
    let (acc, handle) = ctx.reduce(&q, &Parity, 0)?;
    ctx.unreduce(&q, acc, handle, &Parity)?;
    ctx.measure_and_free(q).map(drop)
}

pub fn probe(samples: usize, m: &mut Metrics) {
    let cfg = QmpiConfig::new()
        .seed(1)
        .backend(BackendKind::Trace)
        .batch(BatchPolicy::default());
    let rank0 = run_with_config(RANKS, cfg, move |ctx| {
        [
            timed(ctx, samples, teleport),
            timed(ctx, samples, send_unsend),
            timed(ctx, samples, cat),
            timed(ctx, samples, reduce_unreduce),
        ]
    })
    .swap_remove(0);
    for (name, ns) in [
        "qmpi.p2p.teleport_us",
        "qmpi.p2p.send_unsend_us",
        "qmpi.cat.establish_us.4",
        "qmpi.collectives.reduce_unreduce_us.4",
    ]
    .into_iter()
    .zip(rank0)
    {
        m.push(name, median(&ns) / 1e3, "us");
    }
}
