//! The engine census: every amplitude engine that holds a dense `2^n`
//! vector, on the five programs ROADMAP.md ranks them by. An engine-level
//! claim (one is faster, one can go) is checked against this table.
//!
//! Rows are whole worlds through `run_with_config`, thread start-up
//! included. Each repeat times every cell once, walking the engines in
//! alternating direction so drift on a shared machine lands on every
//! column; a cell reports the median and the quartiles of its repeats, in
//! milliseconds.
//!
//!   cargo run --release -p qmpi-bench --bin engine_census [-- --repeats N]

use qmpi::{run_with_config, BackendKind, QmpiConfig, QmpiRank, TransportKind};
use qmpi_bench::{arg_usize, local_gates, parity_reduce, teleport_chain, tfim};
use std::time::Instant;

const ENGINES: [(&str, BackendKind); 2] = [
    ("dense", BackendKind::StateVector),
    (
        "in-process remote{2}",
        BackendKind::RemoteSharded { shards: 2 },
    ),
];

type Program = fn(&QmpiRank);

const ROWS: [(&str, usize, Program); 5] = [
    ("TFIM 2 ranks × 8 sites, 3 steps", 2, |ctx| tfim(ctx, 8, 3)),
    ("TFIM 2 ranks × 9 sites, 3 steps", 2, |ctx| tfim(ctx, 9, 3)),
    ("parity reduce, 8 ranks", 8, parity_reduce),
    ("teleport chain, 8 ranks", 8, teleport_chain),
    ("local gates, 8 ranks × 2 qubits × 48 rounds", 8, |ctx| {
        local_gates(ctx, 48)
    }),
];

fn time_ms(ranks: usize, kind: BackendKind, program: Program) -> f64 {
    let cfg = QmpiConfig::new()
        .seed(1)
        .backend(kind)
        .transport(TransportKind::InProcess);
    let start = Instant::now();
    run_with_config(ranks, cfg, program);
    start.elapsed().as_secs_f64() * 1e3
}

/// Lower quartile, median and upper quartile of `samples` (nearest rank,
/// the quartiles rounded outward).
fn quartiles(samples: &mut [f64]) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let last = samples.len() - 1;
    [last / 4, last / 2, (3 * last).div_ceil(4)].map(|i| samples[i])
}

fn main() {
    let repeats = arg_usize("--repeats", 5).max(1);
    println!(
        "engine census: {repeats} alternated repeat(s), ms, median (q1–q3), {} hardware thread(s), {} kernels on {} thread(s)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        qsim::stripe::kernel_level(),
        qsim::stripe::kernel_threads()
    );
    let names = ENGINES.map(|(name, _)| name).join(" | ");
    println!("| program | {names} |");
    println!("|---|{}", "---|".repeat(ENGINES.len()));
    for (label, ranks, program) in ROWS {
        let mut samples = vec![Vec::with_capacity(repeats); ENGINES.len()];
        for repeat in 0..repeats {
            let mut order: Vec<usize> = (0..ENGINES.len()).collect();
            if repeat % 2 == 1 {
                order.reverse();
            }
            for e in order {
                samples[e].push(time_ms(ranks, ENGINES[e].1, program));
            }
        }
        let cells: Vec<String> = samples
            .iter_mut()
            .map(|s| {
                let [q1, median, q3] = quartiles(s);
                format!("{median:.2} ({q1:.2}–{q3:.2})")
            })
            .collect();
        println!("| {label} | {} |", cells.join(" | "));
    }
}
