//! Job-service behavior: pooled-vs-solo bit identity under real
//! concurrency, S-budget admission control, round-robin fairness across
//! tenants, and failure isolation.

use qmpi::{run_with_config, BackendKind, QmpiConfig, QmpiRank};
use qserve::{JobBackend, JobError, JobServer, JobSpec, ServerConfig, SubmitError};
use qsim::Pauli;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The reference workload: rank 0 prepares `Ry(theta)|0>` and teleports it
/// to rank 1, which reports the exact Z expectation (as raw bits, so
/// comparisons are bit-for-bit) and its measurement outcome.
fn teleport(theta: f64) -> impl Fn(&QmpiRank) -> (u64, bool) + Send + Sync + Clone + 'static {
    move |ctx| {
        if ctx.rank() == 0 {
            let q = ctx.alloc_one();
            ctx.ry(&q, theta).unwrap();
            ctx.send_move(q, 1, 0).unwrap();
            (0, false)
        } else {
            let q = ctx.recv_move(0, 0).unwrap();
            let z = ctx.expectation(&[(&q, Pauli::Z)]).unwrap();
            let m = ctx.measure_and_free(q).unwrap();
            (z.to_bits(), m)
        }
    }
}

/// A gate jobs can block on, to pin the scheduler in a known state.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Polls `stats()` until `pred` holds (the scheduler runs in job threads,
/// so state transitions are asynchronous but fast).
fn wait_for(server: &JobServer, pred: impl Fn(&qserve::ServerStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.stats();
        if pred(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "scheduler never reached the expected state; last stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The acceptance headline: eight tenants submit from eight threads, all
/// eight jobs provably run *concurrently* over one worker pool (a shared
/// barrier inside the jobs cannot release otherwise), and every job's
/// trajectory is bit-identical to a solo spawn-per-run execution of the
/// same seed. Eight spawn-per-job submissions of the same seeds run in the
/// same barrier, each provisioning its own remote worker set under the
/// scheduler, and must match the same solo runs.
#[test]
fn eight_concurrent_pooled_jobs_match_solo_runs_bit_for_bit() {
    const JOBS: usize = 8;
    let server = Arc::new(JobServer::new(ServerConfig {
        s_capacity: 64,
        max_concurrent: 2 * JOBS,
        pool_slots: JOBS,
        pool_shards: 2,
        ..ServerConfig::default()
    }));
    let all_running = Arc::new(Barrier::new(2 * JOBS));

    let threads: Vec<_> = (0..2 * JOBS)
        .map(|i| {
            let server = Arc::clone(&server);
            let all_running = Arc::clone(&all_running);
            std::thread::spawn(move || {
                let seed = 100 + (i % JOBS) as u64;
                let theta = 0.2 + 0.3 * (i % JOBS) as f64;
                let body = teleport(theta);
                let backend = if i < JOBS {
                    JobBackend::Pooled
                } else {
                    JobBackend::Spawn(BackendKind::RemoteSharded { shards: 2 })
                };
                let spec = JobSpec::new(format!("tenant-{i}"), 2)
                    .seed(seed)
                    .s_limit(2)
                    .backend(backend);
                let handle = server
                    .submit(spec, move |ctx| {
                        if ctx.rank() == 0 {
                            // Released only once all sixteen jobs are live.
                            all_running.wait();
                        }
                        body(ctx)
                    })
                    .expect("within capacity");
                handle.wait().expect("job must succeed")
            })
        })
        .collect();
    let served: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    for (i, out) in served.iter().enumerate() {
        let seed = 100 + (i % JOBS) as u64;
        let theta = 0.2 + 0.3 * (i % JOBS) as f64;
        let cfg = QmpiConfig::new()
            .seed(seed)
            .s_limit(2)
            .backend(BackendKind::RemoteSharded { shards: 2 });
        let solo = run_with_config(2, cfg, teleport(theta));
        let how = if i < JOBS { "pooled" } else { "spawn-per-job" };
        assert_eq!(
            out.results, solo,
            "job {i}: {how} concurrent trajectory diverged from solo run"
        );
        assert!(out.report.resources.epr_pairs >= 1);
        assert_eq!(out.report.ranks, 2);
        let transport = out
            .report
            .transport
            .expect("remote backend has a transport");
        assert!(
            transport.command_rounds > 0,
            "remote backend must report transport rounds"
        );
        assert!(
            transport.wire_bytes > 0,
            "commands serialize through the mailbox even in-process"
        );
        assert_eq!(
            transport.respawns, 0,
            "the in-process transport has no failover"
        );
    }
    // Stats update in the job threads after the result is delivered, so
    // quiesce before reading them.
    server.drain();
    assert_eq!(server.stats().finished, 2 * JOBS as u64);
    assert_eq!(server.stats().pool_available, JOBS);
}

/// Dropping a server shuts its pool down before `drop` returns, so the
/// `job_server` example over a `qworker` pool leaves no controller socket
/// file behind when it exits. Each run gets a private `TMPDIR`, where the
/// sockets live. Runs the example binary this build made (any `cargo test`
/// without a target filter builds it; so does
/// `cargo build --example job_server`).
#[test]
fn job_server_example_leaves_no_socket_files() {
    let profile_dir = std::env::current_exe()
        .unwrap()
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binaries live in <target>/<profile>/deps")
        .to_path_buf();
    let example = profile_dir.join("examples").join("job_server");
    assert!(
        example.exists(),
        "{} is missing: build it with `cargo build --example job_server`",
        example.display()
    );
    for run in 0..8 {
        let tmp = std::env::temp_dir().join(format!("qserve-sockets-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let out = std::process::Command::new(&example)
            .env("QSERVE_TRANSPORT", "unix-socket")
            .env("QMPI_QWORKER_BIN", env!("CARGO_BIN_EXE_qworker"))
            .env("TMPDIR", &tmp)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "run {run}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let left: Vec<_> = std::fs::read_dir(&tmp)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("cmpi-") && name.ends_with(".sock"))
            .collect();
        std::fs::remove_dir_all(&tmp).unwrap();
        assert!(left.is_empty(), "run {run} left {left:?}");
    }
}

/// The same server, but pooling real `qworker` child processes over the
/// unix-socket transport: leased process workers produce trajectories
/// bit-identical to solo in-process runs of the same seed, and the report
/// carries real wire-byte accounting.
#[test]
fn socket_pooled_jobs_match_in_process_solo_runs_bit_for_bit() {
    if std::env::var_os("QMPI_QWORKER_BIN").is_none() {
        std::env::set_var("QMPI_QWORKER_BIN", env!("CARGO_BIN_EXE_qworker"));
    }
    const JOBS: usize = 4;
    let server = JobServer::new(ServerConfig {
        s_capacity: 64,
        max_concurrent: JOBS,
        pool_slots: 2,
        pool_shards: 2,
        transport: qmpi::TransportKind::UnixSocket,
    });
    let handles: Vec<_> = (0..JOBS)
        .map(|i| {
            let spec = JobSpec::new(format!("tenant-{i}"), 2)
                .seed(300 + i as u64)
                .s_limit(2);
            server.submit(spec, teleport(0.4 + 0.2 * i as f64)).unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let out = handle.wait().expect("socket-pooled job must succeed");
        let cfg = QmpiConfig::new()
            .seed(300 + i as u64)
            .s_limit(2)
            .backend(BackendKind::RemoteSharded { shards: 2 });
        let solo = run_with_config(2, cfg, teleport(0.4 + 0.2 * i as f64));
        assert_eq!(
            out.results, solo,
            "job {i}: socket-pooled trajectory diverged from in-process solo run"
        );
        let transport = out
            .report
            .transport
            .expect("remote backend has a transport");
        assert!(transport.command_rounds > 0);
        assert!(
            transport.wire_bytes > 0,
            "socket workers must account real wire bytes"
        );
    }
    server.drain();
    assert_eq!(server.stats().finished, JOBS as u64);
    assert_eq!(server.stats().pool_available, 2);
}

/// More jobs than pool slots: the surplus queues on slot availability and
/// every job still completes correctly.
#[test]
fn pooled_storm_queues_on_slot_availability() {
    let server = JobServer::new(ServerConfig {
        s_capacity: 64,
        max_concurrent: 6,
        pool_slots: 2,
        pool_shards: 2,
        ..ServerConfig::default()
    });
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let spec = JobSpec::new(format!("tenant-{}", i % 3), 2)
                .seed(7 + i as u64)
                .s_limit(2);
            server
                .submit(spec, move |ctx| {
                    if ctx.rank() == 0 {
                        let q = ctx.alloc_one();
                        ctx.x(&q).unwrap();
                        ctx.send_move(q, 1, 0).unwrap();
                        true
                    } else {
                        let q = ctx.recv_move(0, 0).unwrap();
                        ctx.measure_and_free(q).unwrap()
                    }
                })
                .unwrap()
        })
        .collect();
    for handle in handles {
        let out = handle.wait().unwrap();
        assert!(out.results[1], "teleported |1> must arrive intact");
    }
    server.drain();
    assert_eq!(server.stats().finished, 12);
    assert_eq!(server.stats().pool_available, 2);
}

/// Admission control: a job whose declared S-budget does not fit the free
/// capacity waits in its queue while smaller jobs from other tenants flow
/// past it; it runs once the budget is released.
#[test]
fn over_budget_jobs_queue_until_capacity_frees() {
    let server = JobServer::new(ServerConfig {
        s_capacity: 10,
        max_concurrent: 8,
        pool_slots: 0,
        pool_shards: 0,
        ..ServerConfig::default()
    });
    let spawn = JobBackend::Spawn(BackendKind::Trace);
    let gate = Arc::new(Gate::default());

    let g = Arc::clone(&gate);
    let a = server
        .submit(
            JobSpec::new("alice", 1).s_budget(8).backend(spawn),
            move |_ctx| g.wait(),
        )
        .unwrap();
    wait_for(&server, |s| s.running == 1 && s.used_s_budget == 8);

    // Bob declares 8 more: 8 + 8 > 10, so he must wait.
    let b_started = Arc::new(AtomicBool::new(false));
    let b_flag = Arc::clone(&b_started);
    let b = server
        .submit(
            JobSpec::new("bob", 1).s_budget(8).backend(spawn),
            move |_ctx| b_flag.store(true, Ordering::SeqCst),
        )
        .unwrap();
    wait_for(&server, |s| s.queued == 1);

    // Carol's small job fits beside Alice and is not stuck behind Bob.
    let c = server
        .submit(
            JobSpec::new("carol", 1).s_budget(2).backend(spawn),
            |_ctx| (),
        )
        .unwrap();
    c.wait().unwrap();
    assert!(
        !b_started.load(Ordering::SeqCst),
        "bob must still be queued while alice holds the budget"
    );
    assert_eq!(server.stats().queued, 1);

    gate.open();
    let a_report = a.wait().unwrap().report;
    let b_report = b.wait().unwrap().report;
    assert!(b_started.load(Ordering::SeqCst));
    assert!(a_report.dispatch_seq < b_report.dispatch_seq);
    assert!(
        b_report.queued > Duration::ZERO,
        "bob must have measurably waited"
    );
    server.drain();
    let stats = server.stats();
    assert_eq!((stats.queued, stats.running), (0, 0));
    assert_eq!(stats.used_s_budget, 0);
    assert_eq!(stats.finished, 3);
}

/// Round-robin across tenant queues: a backlog from one tenant cannot
/// starve another tenant's single job — at most one backlog job is
/// dispatched before the other tenant's queue gets its turn.
#[test]
fn round_robin_prevents_tenant_starvation() {
    let server = JobServer::new(ServerConfig {
        s_capacity: 64,
        max_concurrent: 1,
        pool_slots: 0,
        pool_shards: 0,
        ..ServerConfig::default()
    });
    let spawn = JobBackend::Spawn(BackendKind::Trace);
    let gate = Arc::new(Gate::default());

    // Alice's first job occupies the single run slot...
    let g = Arc::clone(&gate);
    let a0 = server
        .submit(JobSpec::new("alice", 1).backend(spawn), move |_ctx| {
            g.wait()
        })
        .unwrap();
    wait_for(&server, |s| s.running == 1);

    // ...then she piles up a backlog, and bob submits one job after it.
    let backlog: Vec<_> = (0..3)
        .map(|_| {
            server
                .submit(JobSpec::new("alice", 1).backend(spawn), |_ctx| ())
                .unwrap()
        })
        .collect();
    let bob = server
        .submit(JobSpec::new("bob", 1).backend(spawn), |_ctx| ())
        .unwrap();
    wait_for(&server, |s| s.queued == 4);

    gate.open();
    a0.wait().unwrap();
    let bob_seq = bob.wait().unwrap().report.dispatch_seq;
    let backlog_seqs: Vec<u64> = backlog
        .into_iter()
        .map(|h| h.wait().unwrap().report.dispatch_seq)
        .collect();
    let jumped_ahead_of_bob = backlog_seqs.iter().filter(|&&s| s < bob_seq).count();
    assert!(
        jumped_ahead_of_bob <= 1,
        "round-robin must bound bob's wait to one alice backlog job, \
         got alice seqs {backlog_seqs:?} vs bob {bob_seq}"
    );
}

/// A panicking job is reported as failed; the server (and its accounting)
/// keeps serving other tenants.
#[test]
fn panicking_job_is_isolated_and_reported() {
    let server = JobServer::new(ServerConfig {
        s_capacity: 16,
        max_concurrent: 2,
        pool_slots: 0,
        pool_shards: 0,
        ..ServerConfig::default()
    });
    let spawn = JobBackend::Spawn(BackendKind::Trace);

    let bad = server
        .submit::<(), _>(JobSpec::new("mallory", 1).backend(spawn), |_ctx| {
            panic!("tenant bug")
        })
        .unwrap();
    match bad.wait() {
        Err(JobError::Panicked(msg)) => assert!(msg.contains("tenant bug"), "{msg}"),
        Err(other) => panic!("expected a panic report, got {other}"),
        Ok(_) => panic!("expected a panic report, job succeeded"),
    }

    let ok = server
        .submit(JobSpec::new("alice", 1).backend(spawn), |_ctx| 42u8)
        .unwrap();
    assert_eq!(ok.wait().unwrap().results, vec![42]);
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.finished, 2);
    assert_eq!(stats.used_s_budget, 0);
}

/// Submissions that could never run are rejected up front, not queued
/// forever.
#[test]
fn impossible_submissions_are_rejected() {
    let server = JobServer::new(ServerConfig {
        s_capacity: 10,
        max_concurrent: 2,
        pool_slots: 0,
        pool_shards: 0,
        ..ServerConfig::default()
    });
    let err = server
        .submit(JobSpec::new("alice", 1).s_budget(11), |_ctx| ())
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::BudgetExceedsCapacity {
            declared: 11,
            capacity: 10
        }
    );
    // This server has no pool, and Pooled is the default backend.
    let err = server
        .submit(JobSpec::new("alice", 1).s_budget(4), |_ctx| ())
        .unwrap_err();
    assert_eq!(err, SubmitError::NoPool);
    let err = server
        .submit(
            JobSpec::new("alice", 0).backend(JobBackend::Spawn(BackendKind::Trace)),
            |_ctx| (),
        )
        .unwrap_err();
    assert_eq!(err, SubmitError::NoRanks);
    assert_eq!(server.stats().finished, 0);
}
