//! Job-server storm — the facility view of QMPI: many tenants, one
//! long-lived worker pool, S-budget admission control, per-job accounting.
//!
//! Fires a mixed storm of small jobs (teleportation, cat-state broadcast,
//! parity reduction) across backends — pooled shard workers alongside
//! spawn-per-job state-vector, stabilizer, and trace engines — then prints
//! the accounting table every tenant would be billed from: EPR pairs,
//! correction bits, rounds, buffer peaks, transport rounds and wire bytes,
//! fidelity, and wall/queue time.
//!
//! Run: `cargo run --release --example job_server`

use qmpi::{BackendKind, Parity, QmpiRank};
use qserve::{JobBackend, JobReport, JobServer, JobSpec, ServerConfig};
use qsim::Pauli;

/// Rank 0 teleports |-> = HX|0> to rank 1, which checks it arrived.
/// (Clifford-only on purpose: the storm also lands on the stabilizer
/// backend, which rejects arbitrary rotations.)
fn teleport(ctx: &QmpiRank) -> bool {
    if ctx.rank() == 0 {
        let q = ctx.alloc_one();
        ctx.x(&q).unwrap();
        ctx.h(&q).unwrap();
        ctx.send_move(q, 1, 0).unwrap();
        true
    } else {
        let q = ctx.recv_move(0, 0).unwrap();
        let x = ctx.expectation(&[(&q, Pauli::X)]).unwrap();
        ctx.measure_and_free(q).unwrap();
        (x + 1.0).abs() < 1e-9
    }
}

/// Constant-depth GHZ across the whole world; every rank reports its
/// measured share (all shares must agree — checked over the job results).
fn cat_broadcast(ctx: &QmpiRank) -> bool {
    let share = ctx.cat_establish().unwrap();
    ctx.measure_and_free(share).unwrap()
}

/// Reversible parity reduction: odd ranks contribute |1>, the root reads
/// the XOR, then the reduction is undone.
fn parity(ctx: &QmpiRank) -> bool {
    let q = ctx.alloc_one();
    if ctx.rank() % 2 == 1 {
        ctx.x(&q).unwrap();
    }
    let (result, handle) = ctx.reduce(&q, &Parity, 0).unwrap();
    let read = result
        .as_ref()
        .map(|r| ctx.expectation(&[(r, Pauli::Z)]).unwrap() < 0.0);
    ctx.unreduce(&q, result, handle, &Parity).unwrap();
    ctx.measure_and_free(q).unwrap();
    // Only the root reads the parity; everyone else vacuously passes.
    read.is_none_or(|odd_count| odd_count == (ctx.size() / 2 % 2 == 1))
}

fn main() {
    // `QSERVE_TRANSPORT=unix-socket` pools real `qworker` child processes
    // instead of worker threads (requires the qworker binary: build with
    // `cargo build --release` first, or set QMPI_QWORKER_BIN).
    let transport = std::env::var("QSERVE_TRANSPORT")
        .ok()
        .map(|v| qmpi::TransportKind::parse(&v).expect("unknown QSERVE_TRANSPORT"))
        .unwrap_or_default();
    let server = JobServer::new(ServerConfig {
        s_capacity: 64,
        max_concurrent: 8,
        pool_slots: 4,
        pool_shards: 2,
        transport,
    });
    println!("shard-worker transport: {transport}");

    // Four tenants cycle through three protocols and four capacity
    // sources. Every job declares its S-budget through its s_limit.
    let tenants = ["alice", "bob", "carol", "dave"];
    let backends = [
        JobBackend::Pooled,
        JobBackend::Spawn(BackendKind::StateVector),
        JobBackend::Spawn(BackendKind::Stabilizer),
        JobBackend::Spawn(BackendKind::Trace),
    ];
    type Program = (&'static str, usize, fn(&QmpiRank) -> bool);
    let programs: [Program; 3] = [
        ("teleport", 2, teleport),
        ("cat-bcast", 4, cat_broadcast),
        ("parity", 3, parity),
    ];

    let mut handles = Vec::new();
    for i in 0..24 {
        let tenant = tenants[i % tenants.len()];
        let backend = backends[i % backends.len()];
        let (name, ranks, body) = programs[i % programs.len()];
        let spec = JobSpec::new(tenant, ranks)
            .seed(1000 + i as u64)
            .s_limit(2)
            .backend(backend);
        let handle = server.submit(spec, body).expect("storm jobs fit capacity");
        handles.push((name, handle));
    }
    println!(
        "submitted {} jobs from {} tenants over one {}-slot pool\n",
        handles.len(),
        tenants.len(),
        4
    );

    let mut reports: Vec<(&str, bool, JobReport)> = handles
        .into_iter()
        .map(|(name, handle)| {
            let out = handle.wait().expect("storm job must succeed");
            // Trace jobs only count; every stateful job also verifies:
            // the cat job's shares must agree, the others' checks pass.
            let ok = out.report.backend == BackendKind::Trace
                || match name {
                    "cat-bcast" => out.results.iter().all(|&m| m == out.results[0]),
                    _ => out.results.iter().all(|&rank_ok| rank_ok),
                };
            (name, ok, out.report)
        })
        .collect();
    reports.sort_by_key(|(_, _, r)| r.dispatch_seq);

    println!("{:<10} ok {}", "program", JobReport::table_header());
    for (name, ok, report) in &reports {
        println!(
            "{name:<10} {} {}",
            if *ok { " ✓" } else { " ✗" },
            report.table_row()
        );
    }
    assert!(reports.iter().all(|(_, ok, _)| *ok));

    server.drain();
    let stats = server.stats();
    println!(
        "\n{} jobs finished; S-budget back to {}/{}; pool slots free: {}",
        stats.finished, stats.used_s_budget, 64, stats.pool_available
    );
}
