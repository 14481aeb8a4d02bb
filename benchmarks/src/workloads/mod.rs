//! The six workloads. Each file holds one program family: its seeded
//! inputs, the program (written once against [`crate::ops::Ops`]), its
//! output verifier and its measurement loop.

pub mod protocol;
pub mod readout;
pub mod serve;
pub mod tfim;

use crate::json::Json;
use crate::ops::{Direct, Ops, Traced};
use crate::span::Span;
use qmpi::{
    build_backend_with_policy, run_on_backend, BackendKind, BatchPolicy, NoiseModel, OpCounts,
    QmpiConfig, QmpiRank, QuantumBackend, ResourceSnapshot, TransportKind, TransportStats,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name, one-line reason (mirrors `BENCHMARK.json`).
pub const WORKLOADS: [&str; 6] = [
    "tfim_sv",
    "tfim_remote_unix",
    "protocol_sv",
    "protocol_remote_unix",
    "readout_sv",
    "serve_storm",
];

/// Engine + transport a rank-program workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The default dense engine.
    StateVector,
    /// Two shard workers as real `qworker` processes over Unix sockets.
    RemoteUnix,
}

impl Engine {
    pub fn kind(self) -> BackendKind {
        match self {
            Engine::StateVector => BackendKind::StateVector,
            Engine::RemoteUnix => BackendKind::RemoteSharded { shards: 2 },
        }
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Engine::StateVector => TransportKind::InProcess,
            Engine::RemoteUnix => TransportKind::UnixSocket,
        }
    }

    /// Everything passed explicitly: the scrubbed environment contributes
    /// nothing (the watchdog has no explicit parameter on this surface, so
    /// it is the library's 30 s default).
    pub fn build(self, seed: u64) -> Arc<dyn QuantumBackend> {
        build_backend_with_policy(
            self.kind(),
            self.transport(),
            seed,
            NoiseModel::ideal(),
            BatchPolicy::default(),
        )
        .unwrap_or_else(|e| fatal(&format!("cannot build the {} backend: {e}", self.kind())))
    }

    pub fn config(self, seed: u64) -> QmpiConfig {
        QmpiConfig::new()
            .seed(seed)
            .backend(self.kind())
            .transport(self.transport())
            .batch(BatchPolicy::default())
    }

    pub fn describe(self) -> Json {
        let p = BatchPolicy::default();
        Json::obj()
            .with("backend", self.kind().name())
            .with("shards", self.kind().effective_shards().unwrap_or(0))
            .with("transport", self.transport().name())
            .with(
                "batch_policy",
                Json::obj()
                    .with("max_ops", p.max_ops)
                    .with("max_bytes", p.max_bytes)
                    .with("fuse", p.fuse)
                    .with("coalesce", p.coalesce)
                    .with("max_age_ms", p.max_age_ms),
            )
            .with("noise", "ideal")
            .with("watchdog", "library default (30 s); environment scrubbed")
    }
}

/// How long one measurement runs.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Time box for the timed loop.
    pub seconds: f64,
    /// Fixed iteration count instead of the time box (`--smoke`).
    pub iters: Option<usize>,
    pub traced: bool,
    /// Whether set-up runs several times (the median is reported).
    pub repeat_setup: bool,
}

/// Whether to set up once more after `done` set-ups that took `spent`
/// together. A cheap set-up is a noisy one, so: at least three, and up to
/// fifteen while they stay under a second in total.
pub fn another_setup(opts: &RunOpts, done: usize, spent: Duration) -> bool {
    if !opts.repeat_setup {
        return done == 0;
    }
    done < 3 || (done < 15 && spent < Duration::from_secs(1))
}

/// Loop control shared by every workload: run at least `min_iters`, then
/// until the time box closes — or exactly `iters` when fixed.
#[derive(Clone, Copy, Debug)]
pub struct LoopPlan {
    fixed: Option<usize>,
    min_iters: usize,
    budget: Duration,
}

impl LoopPlan {
    pub fn new(opts: &RunOpts, min_iters: usize) -> LoopPlan {
        LoopPlan {
            fixed: opts.iters,
            min_iters,
            budget: Duration::from_secs_f64(opts.seconds),
        }
    }

    /// Exactly `n` iterations.
    pub fn fixed(n: usize) -> LoopPlan {
        LoopPlan {
            fixed: Some(n),
            min_iters: n,
            budget: Duration::ZERO,
        }
    }

    pub fn go(&self, done: usize, started: Instant) -> bool {
        match self.fixed {
            Some(n) => done < n,
            None => done < self.min_iters || started.elapsed() < self.budget,
        }
    }

    /// Iterations certain to run, for checks scheduled ahead of time.
    pub fn at_least(&self) -> usize {
        self.fixed.unwrap_or(self.min_iters)
    }
}

/// The paper's cost units and the backend's own counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub resources: ResourceSnapshot,
    pub ops: OpCounts,
    pub transport: TransportStats,
}

impl Counters {
    pub fn read(resources: ResourceSnapshot, backend: &dyn QuantumBackend) -> Counters {
        Counters {
            resources,
            ops: backend.counts(),
            transport: backend.transport_stats().unwrap_or_default(),
        }
    }

    /// `self - earlier`, field by field, as per-iteration totals.
    pub fn since(&self, earlier: &Counters) -> CountTotals {
        let t = self.transport;
        let e = earlier.transport;
        let r = self.resources - earlier.resources;
        CountTotals {
            gates: self.ops.gates - earlier.ops.gates,
            measurements: self.ops.measurements - earlier.ops.measurements,
            classical_bits: r.classical_bits,
            epr_pairs: r.epr_pairs,
            epr_rounds: r.epr_rounds,
            command_rounds: t.command_rounds - e.command_rounds,
            exchange_rounds: t.exchange_rounds - e.exchange_rounds,
            wire_bytes: t.wire_bytes - e.wire_bytes,
            coalesced_flushes: t.coalesced_flushes - e.coalesced_flushes,
        }
    }
}

/// Counter totals over the timed iterations (checks excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CountTotals {
    pub gates: u64,
    pub measurements: u64,
    pub classical_bits: u64,
    pub epr_pairs: u64,
    pub epr_rounds: u64,
    pub command_rounds: u64,
    pub exchange_rounds: u64,
    pub wire_bytes: u64,
    pub coalesced_flushes: u64,
}

impl std::ops::Sub for CountTotals {
    type Output = CountTotals;
    fn sub(self, o: CountTotals) -> CountTotals {
        CountTotals {
            gates: self.gates - o.gates,
            measurements: self.measurements - o.measurements,
            classical_bits: self.classical_bits - o.classical_bits,
            epr_pairs: self.epr_pairs - o.epr_pairs,
            epr_rounds: self.epr_rounds - o.epr_rounds,
            command_rounds: self.command_rounds - o.command_rounds,
            exchange_rounds: self.exchange_rounds - o.exchange_rounds,
            wire_bytes: self.wire_bytes - o.wire_bytes,
            coalesced_flushes: self.coalesced_flushes - o.coalesced_flushes,
        }
    }
}

/// What rank 0 saw of a timed loop run inside a world.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub samples_ms: Vec<f64>,
    pub totals: CountTotals,
}

/// The world's counters with every rank parked: the counters are global,
/// so a rank running ahead (or lagging) would leak its next (or last)
/// operations into the reading. Collective.
fn counters(ctx: &QmpiRank) -> Counters {
    ctx.barrier();
    let now = Counters::read(ctx.resources(), &**ctx.backend());
    ctx.barrier();
    now
}

/// The timed loop of a workload whose iterations run inside one long-lived
/// world; every rank calls it. Rank 0 owns the clock and the stop
/// decision, broadcast before each iteration. One sample spans `step`
/// plus its closing barrier, fenced by a flush + barrier before it.
/// `check`, given as `(after_iteration, f)`, runs once between two
/// iterations; its counter deltas are kept out of the result.
pub fn world_loop(
    ops: &impl Ops,
    plan: LoopPlan,
    mut step: impl FnMut(usize) -> qmpi::Result<()>,
    mut check: Option<(usize, &mut dyn FnMut() -> qmpi::Result<()>)>,
) -> qmpi::Result<LoopOut> {
    let ctx = ops.ctx();
    let root = ctx.rank() == 0;
    let mut out = LoopOut::default();
    let mut excluded = CountTotals::default();
    let before = counters(ctx);
    let started = Instant::now();
    let mut done = 0usize;
    while ctx
        .classical()
        .bcast(root.then(|| plan.go(done, started)), 0)
    {
        ops.flush()?;
        ops.barrier();
        let t0 = Instant::now();
        ops.iteration(done as u32, || -> qmpi::Result<()> {
            step(done)?;
            ops.barrier();
            Ok(())
        })?;
        out.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        ops.take_fault()?;
        done += 1;
        if let Some((_, f)) = check.as_mut().filter(|(at, _)| *at == done) {
            let c = counters(ctx);
            f()?;
            excluded = counters(ctx).since(&c);
        }
    }
    out.totals = counters(ctx).since(&before) - excluded;
    Ok(out)
}

/// One rank's whole program in a long-lived world, runnable under either
/// [`Ops`] implementation.
pub trait RankProgram: Send + Sync + 'static {
    type Out: Send + 'static;
    fn run(&self, ops: &impl Ops) -> qmpi::Result<Self::Out>;
}

/// Builds a fresh backend and runs `program` on every rank of one world.
/// Returns the per-rank results, every rank's spans (traced runs), and
/// the world's EPR-buffer peak.
pub fn long_world<P: RankProgram>(
    engine: Engine,
    seed: u64,
    ranks: usize,
    traced: bool,
    program: P,
) -> (Vec<P::Out>, Vec<Span>, i64) {
    let run = run_on_backend(ranks, engine.config(seed), engine.build(seed), move |ctx| {
        if traced {
            let ops = Traced::new(ctx);
            let out = must(program.run(&ops), "rank program");
            (out, ops.into_spans())
        } else {
            (must(program.run(&Direct(ctx)), "rank program"), Vec::new())
        }
    });
    let mut spans = Vec::new();
    let mut outs = Vec::with_capacity(ranks);
    for (out, s) in run.results {
        crate::span::append(&mut spans, s, None);
        outs.push(out);
    }
    (outs, spans, run.max_buffer_peak)
}

/// Sets a long-world workload up as often as [`another_setup`] says; only
/// the last set-up's world goes on to the timed loop. `program` builds one
/// world's program (given the plan, or `None` for a set-up-only world) and
/// names its backend seed; `ready` reads from rank 0's report the instant
/// its set-up was complete. Returns the set-up times and the last world.
pub fn repeated_long_world<P: RankProgram>(
    engine: Engine,
    opts: &RunOpts,
    ranks: usize,
    plan: LoopPlan,
    mut program: impl FnMut(Option<LoopPlan>) -> (u64, P),
    ready: impl Fn(&P::Out) -> Option<Instant>,
) -> (Vec<f64>, Vec<P::Out>, Vec<Span>, i64) {
    let mut setup_s = Vec::new();
    let began = Instant::now();
    loop {
        let t0 = Instant::now();
        let last = !another_setup(opts, setup_s.len() + 1, began.elapsed());
        let (seed, program) = program(last.then_some(plan));
        let (outs, spans, s_peak) = long_world(engine, seed, ranks, opts.traced, program);
        let ready = ready(&outs[0]).expect("every rank reports when it was ready");
        setup_s.push((ready - t0).as_secs_f64());
        if last {
            return (setup_s, outs, spans, s_peak);
        }
    }
}

/// Whether every measured value is within `tol` of its reference.
pub fn all_within(measured: &[f64], reference: &[f64], tol: f64) -> bool {
    measured.len() == reference.len()
        && measured
            .iter()
            .zip(reference)
            .all(|(m, r)| (m - r).abs() <= tol)
}

/// What one measurement of one workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each set-up repeat, seconds.
    pub setup_s: Vec<f64>,
    /// One sample per timed iteration, milliseconds; concurrent streams
    /// (the storm's clients) one after the other.
    pub samples_ms: Vec<f64>,
    /// How many streams of iterations ran side by side, when more than one.
    pub streams: usize,
    /// Work units completed over the samples (steps, rounds, ops, jobs).
    pub units: u64,
    /// Iterations (jobs on `serve_storm`) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Counter totals over the timed iterations.
    pub totals: CountTotals,
    /// Largest per-rank EPR-buffer peak seen (the S the run needed).
    pub s_peak: i64,
    /// Spans of a traced measurement (empty otherwise).
    pub spans: Vec<Span>,
    /// The resolved configuration and generated-input summary.
    pub config: Json,
}

impl Measured {
    /// The fields a timed loop inside a long-lived world fills in: one
    /// work unit per iteration.
    pub fn from_world_loop(
        setup_s: Vec<f64>,
        timed: LoopOut,
        s_peak: i64,
        spans: Vec<Span>,
    ) -> Self {
        let n = timed.samples_ms.len() as u64;
        Measured {
            setup_s,
            samples_ms: timed.samples_ms,
            totals: timed.totals,
            attempted: n,
            units: n,
            s_peak,
            spans,
            ..Measured::default()
        }
    }

    /// Process exit code for this measurement: non-zero when any output
    /// check failed or nothing was attempted.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.failed > 0 || self.attempted == 0)
    }
}

/// A library error inside a multi-rank world cannot be counted and
/// survived: the failing rank's peers are blocked in a collective. Report
/// and leave with a non-zero code and no result line.
pub fn fatal(what: &str) -> ! {
    eprintln!("qperf: fatal: {what}");
    std::process::exit(3);
}

pub fn must<T>(r: qmpi::Result<T>, what: &str) -> T {
    r.unwrap_or_else(|e| fatal(&format!("{what}: {e}")))
}

/// Runs `name` once under `opts`.
pub fn run(name: &str, opts: &RunOpts) -> Option<Measured> {
    Some(match name {
        "tfim_sv" => tfim::run(Engine::StateVector, opts),
        "tfim_remote_unix" => tfim::run(Engine::RemoteUnix, opts),
        "protocol_sv" => protocol::run(Engine::StateVector, opts),
        "protocol_remote_unix" => protocol::run(Engine::RemoteUnix, opts),
        "readout_sv" => readout::run(opts),
        "serve_storm" => serve::run(opts),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_plan_honours_fixed_counts_and_minimums() {
        let opts = |iters| RunOpts {
            seed: 1,
            seconds: 0.0,
            iters,
            traced: false,
            repeat_setup: false,
        };
        let fixed = LoopPlan::new(&opts(Some(3)), 24);
        let t = Instant::now();
        assert!(fixed.go(2, t) && !fixed.go(3, t));
        assert_eq!(fixed.at_least(), 3);
        // A closed time box still runs the minimum.
        let boxed = LoopPlan::new(&opts(None), 24);
        assert!(boxed.go(23, t) && !boxed.go(24, t));
        assert_eq!(boxed.at_least(), 24);
    }

    #[test]
    fn a_failed_check_means_a_non_zero_exit() {
        let clean = Measured {
            attempted: 10,
            ..Measured::default()
        };
        assert_eq!(clean.exit_code(), 0);
        let dirty = Measured {
            attempted: 10,
            failed: 1,
            ..Measured::default()
        };
        assert_ne!(dirty.exit_code(), 0);
        assert_ne!(Measured::default().exit_code(), 0);
    }
}
