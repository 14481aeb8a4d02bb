//! `cmpi.mailbox` / `cmpi.universe`: the in-process substrate every world
//! (and every in-process shard pool) stands on — a two-rank ping-pong of
//! an 8-byte payload, and spawning + joining a four-rank universe.

use super::{median_ns, time_ns, Metrics};
use crate::stats::median;
use cmpi::Universe;

pub fn probe(samples: usize, m: &mut Metrics) {
    let per_rank = Universe::run(2, move |comm| {
        if comm.rank() == 0 {
            time_ns(samples, || {
                comm.send(&0x5eed_u64, 1, 0);
                comm.recv::<u64>(1, 0).0
            })
        } else {
            // Mirror rank 0's warm-up + sample count exactly.
            time_ns(samples, || {
                let ping = comm.recv::<u64>(0, 0).0;
                comm.send(&ping, 0, 0);
            })
        }
    });
    m.push(
        "cmpi.mailbox.pingpong_us_p50",
        median(&per_rank[0]) / 1e3,
        "us",
    );
    m.push(
        "cmpi.universe.spawn_join_us_p50.4",
        median_ns(samples, || Universe::run(4, |comm| comm.rank())) / 1e3,
        "us",
    );
}
