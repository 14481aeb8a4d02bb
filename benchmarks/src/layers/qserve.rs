//! `qserve`: queue, admission, lease and world spin-up as a short storm
//! sees them (the `serve_storm` program at a fixed burst count, so the
//! numbers come from real `JobReport`s), plus a bare pool lease.

use super::{median_ns, Metrics};
use crate::stats::{median, percentile};
use crate::workloads::{serve, RunOpts};
use qmpi::ShardWorkerPool;

pub fn probe(samples: usize, seed: u64, m: &mut Metrics) {
    // `samples` job reports: 2 clients × 8 jobs per burst.
    let bursts = samples.div_ceil(serve::CLIENTS * serve::BURST);
    let (_, detail) = serve::storm(&RunOpts {
        seed,
        seconds: 0.0,
        iters: Some(bursts),
        traced: false,
        repeat_setup: false,
    });
    m.push("qserve.submit_us_p50", median(&detail.submit_us), "us");
    m.push("qserve.queued_ms_p50", median(&detail.queued_ms), "ms");
    m.push(
        "qserve.queued_ms_p90",
        percentile(&detail.queued_ms, 90.0),
        "ms",
    );
    m.push("qserve.wall_ms_p50", median(&detail.wall_ms), "ms");
    m.push("qserve.rejected", detail.rejected as f64, "count");

    let pool = ShardWorkerPool::new(2, 2);
    m.push(
        "qserve.pool_lease_us_p50",
        median_ns(samples, || drop(pool.lease())) / 1e3,
        "us",
    );
}
