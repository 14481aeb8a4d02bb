//! `serve_storm`: the `qserve` job service under a closed-loop storm. Two
//! client threads each submit a burst of eight small seeded jobs, wait for
//! all eight, and repeat — sixteen jobs outstanding against two pool
//! slots. One iteration is one burst, first submit to last `wait`.

use super::protocol::{cat_measure, parity_reduce, teleport_chain};
use super::{LoopPlan, Measured, RunOpts};
use crate::json::Json;
use crate::ops::{Direct, Ops};
use crate::rng::Rng;
use crate::span::{self, Class, Span, SpanLog};
use qmpi::{QmpiRank, ResourceSnapshot, TransportKind};
use qserve::{JobBackend, JobOutput, JobServer, JobSpec, ServerConfig};
use std::time::Instant;

pub const CLIENTS: usize = 2;
pub const BURST: usize = 8;
const TENANTS: usize = 4;
const WARMUP_BURSTS: usize = 8;
const MIN_BURSTS: usize = 6;
/// Seeded burst orders generated; each client cycles through them.
const BURST_TABLE: usize = 32;

fn server_config() -> ServerConfig {
    ServerConfig {
        // Below two maximal jobs' declared budgets (2 × 3 ranks × S 4), so
        // S-budget admission — not only the slot count — gates dispatch.
        s_capacity: 16,
        max_concurrent: 2,
        pool_slots: 2,
        pool_shards: 2,
        transport: TransportKind::InProcess,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Teleport,
    Cat,
    Parity,
}

/// One kind of job the storm submits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    pub kind: Kind,
    pub ranks: usize,
    pub seed: u64,
    pub tenant: usize,
    pub s_limit: u32,
    /// Parity jobs: each rank's input bit.
    pub bits: [bool; 3],
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// Every kind at 2 and at 3 ranks: the work in a burst is the same for
    /// every seed; seeds move tenants, S limits, bits, outcomes and order.
    pub templates: Vec<Template>,
    /// Template indices of each burst, in submission order.
    pub bursts: Vec<[usize; BURST]>,
}

pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "serve");
    let templates: Vec<Template> = [Kind::Teleport, Kind::Cat, Kind::Parity]
        .into_iter()
        .flat_map(|kind| [2usize, 3].map(|ranks| (kind, ranks)))
        .map(|(kind, ranks)| Template {
            kind,
            ranks,
            seed: rng.next_u64(),
            tenant: rng.below(TENANTS),
            s_limit: 2 + rng.below(3) as u32,
            bits: std::array::from_fn(|_| rng.bool()),
        })
        .collect();
    let bursts = (0..BURST_TABLE)
        .map(|_| {
            // All six templates, plus one more 2-rank and one more 3-rank.
            let mut burst = [0, 1, 2, 3, 4, 5, 0, 3];
            rng.shuffle(&mut burst);
            burst
        })
        .collect();
    Inputs { templates, bursts }
}

/// The job body: what each rank observed (`None` where it observes
/// nothing).
fn job_program(ctx: &QmpiRank, t: &Template) -> qmpi::Result<Option<bool>> {
    let ops = Direct(ctx);
    match t.kind {
        Kind::Teleport => teleport_chain(&ops),
        Kind::Cat => cat_measure(&ops).map(Some),
        Kind::Parity => parity_reduce(&ops, t.bits[ops.rank()], 0),
    }
}

/// A job's own result check.
pub fn results_ok(t: &Template, results: &[Option<bool>]) -> bool {
    if results.len() != t.ranks {
        return false;
    }
    match t.kind {
        Kind::Teleport => results[t.ranks - 1] == Some(true),
        Kind::Cat => results[0].is_some() && results.iter().all(|m| *m == results[0]),
        Kind::Parity => {
            let xor = t.bits[..t.ranks].iter().fold(false, |a, &b| a ^ b);
            results[0] == Some(xor)
        }
    }
}

/// The full verdict on one finished job: right results, and the resource
/// bill its template produced when run alone.
pub fn job_passes(
    t: &Template,
    results: &[Option<bool>],
    bill: ResourceSnapshot,
    solo: ResourceSnapshot,
) -> bool {
    results_ok(t, results) && bill == solo
}

type Handle = qserve::JobHandle<Option<bool>>;

fn submit(server: &JobServer, t: &Template) -> Result<Handle, qserve::SubmitError> {
    let spec = JobSpec::new(format!("tenant-{}", t.tenant), t.ranks)
        .seed(t.seed)
        .s_limit(t.s_limit)
        .backend(JobBackend::Pooled);
    let t = t.clone();
    server.submit(spec, move |ctx| {
        job_program(ctx, &t).unwrap_or_else(|e| panic!("{:?} job: {e}", t.kind))
    })
}

/// Service-side timings the `qserve` layer metrics are made of.
#[derive(Debug, Default)]
pub struct ServeDetail {
    pub submit_us: Vec<f64>,
    pub queued_ms: Vec<f64>,
    pub wall_ms: Vec<f64>,
    pub rejected: u64,
}

#[derive(Default)]
struct ClientOut {
    samples_ms: Vec<f64>,
    jobs: u64,
    failed: u64,
    epr_pairs: u64,
    epr_rounds: u64,
    classical_bits: u64,
    gates: u64,
    measurements: u64,
    s_peak: i64,
    detail: ServeDetail,
    spans: Vec<Span>,
}

fn open(log: &mut Option<SpanLog>, name: &'static str, class: Class) -> Option<u32> {
    log.as_mut().map(|l| l.open(name, class))
}

fn close(log: &mut Option<SpanLog>, id: Option<u32>) {
    if let (Some(l), Some(id)) = (log.as_mut(), id) {
        l.close(id);
    }
}

/// One client's closed loop: burst after burst until the plan says stop.
fn client(
    id: usize,
    server: &JobServer,
    inp: &Inputs,
    solo: &[ResourceSnapshot],
    plan: LoopPlan,
    traced: bool,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut log = traced.then(|| SpanLog::new(id));
    let started = Instant::now();
    let mut done = 0usize;
    while plan.go(done, started) {
        // Offset the clients so they do not walk the table in lock step.
        let burst = inp.bursts[(done + id * BURST_TABLE / CLIENTS) % inp.bursts.len()];
        if let Some(l) = log.as_mut() {
            l.set_iter(done as u32);
        }
        let t0 = Instant::now();
        let root = open(&mut log, "burst", Class::Root);
        let handles: Vec<_> = burst
            .iter()
            .map(|&ti| {
                let s = open(&mut log, "submit", Class::Comm);
                let t = Instant::now();
                let h = submit(server, &inp.templates[ti]);
                out.detail.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                close(&mut log, s);
                (ti, h)
            })
            .collect();
        let finished: Vec<_> = handles
            .into_iter()
            .map(|(ti, h)| {
                let s = open(&mut log, "wait", Class::Sync);
                let output = h.map(Handle::wait);
                close(&mut log, s);
                (ti, output)
            })
            .collect();
        close(&mut log, root);
        out.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        done += 1;
        for (ti, output) in finished {
            out.jobs += 1;
            match output {
                Ok(Ok(JobOutput { results, report })) => {
                    let t = &inp.templates[ti];
                    if !job_passes(t, &results, report.resources, solo[ti]) {
                        out.failed += 1;
                    }
                    out.epr_pairs += report.resources.epr_pairs;
                    out.epr_rounds += report.resources.epr_rounds;
                    out.classical_bits += report.resources.classical_bits;
                    out.gates += report.counts.gates;
                    out.measurements += report.counts.measurements;
                    out.s_peak = out.s_peak.max(report.max_buffer_peak);
                    out.detail.queued_ms.push(report.queued.as_secs_f64() * 1e3);
                    out.detail.wall_ms.push(report.wall.as_secs_f64() * 1e3);
                }
                Ok(Err(_)) => out.failed += 1,
                Err(_) => {
                    out.failed += 1;
                    out.detail.rejected += 1;
                }
            }
        }
    }
    out.spans = log.map_or_else(Vec::new, SpanLog::into_spans);
    out
}

/// Runs a storm: set-up (server, solo reference runs, warm-up bursts) as
/// many times as asked, then the timed closed loop.
pub fn storm(opts: &RunOpts) -> (Measured, ServeDetail) {
    let plan = LoopPlan::new(opts, MIN_BURSTS);
    let mut m = Measured::default();
    let mut ready = None;
    let began = Instant::now();
    while super::another_setup(opts, m.setup_s.len(), began.elapsed()) {
        let t0 = Instant::now();
        let inp = generate(opts.seed);
        let server = JobServer::new(server_config());
        // Each template alone: its results must check out and its bill
        // becomes the reference for every later copy.
        let solo: Vec<ResourceSnapshot> = inp
            .templates
            .iter()
            .map(|t| {
                let out = submit(&server, t)
                    .unwrap_or_else(|e| super::fatal(&format!("solo submit: {e}")))
                    .wait()
                    .unwrap_or_else(|e| super::fatal(&format!("solo job: {e}")));
                if !results_ok(t, &out.results) {
                    super::fatal(&format!("solo {t:?} returned {:?}", out.results));
                }
                out.report.resources
            })
            .collect();
        client(
            0,
            &server,
            &inp,
            &solo,
            LoopPlan::fixed(WARMUP_BURSTS),
            false,
        );
        m.setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some((inp, server, solo));
    }
    let (inp, server, solo) = ready.expect("at least one repeat");

    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (server, inp, solo) = (&server, &inp, &solo);
                s.spawn(move || client(id, server, inp, solo, plan, opts.traced))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| super::fatal("a storm client panicked"))
            })
            .collect()
    });
    let mut detail = ServeDetail::default();
    for out in outs {
        m.samples_ms.extend(out.samples_ms);
        m.attempted += out.jobs;
        m.failed += out.failed;
        m.totals.epr_pairs += out.epr_pairs;
        m.totals.epr_rounds += out.epr_rounds;
        m.totals.classical_bits += out.classical_bits;
        m.totals.gates += out.gates;
        m.totals.measurements += out.measurements;
        m.s_peak = m.s_peak.max(out.s_peak);
        span::append(&mut m.spans, out.spans, None);
        detail.submit_us.extend(out.detail.submit_us);
        detail.queued_ms.extend(out.detail.queued_ms);
        detail.wall_ms.extend(out.detail.wall_ms);
        detail.rejected += out.detail.rejected;
    }
    m.units = m.attempted;
    m.streams = CLIENTS;
    let cfg = server_config();
    m.config = Json::obj()
        .with(
            "server",
            Json::obj()
                .with("s_capacity", cfg.s_capacity)
                .with("max_concurrent", cfg.max_concurrent)
                .with("pool_slots", cfg.pool_slots)
                .with("pool_shards", cfg.pool_shards)
                .with("transport", cfg.transport.name()),
        )
        .with("clients", CLIENTS)
        .with("burst", BURST)
        .with("tenants", TENANTS)
        .with("warmup_bursts", WARMUP_BURSTS)
        .with(
            "inputs",
            Json::Arr(
                inp.templates
                    .iter()
                    .map(|t| Json::Str(format!("{t:?}")))
                    .collect(),
            ),
        );
    (m, detail)
}

pub fn run(opts: &RunOpts) -> Measured {
    storm(opts).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        assert_eq!(generate(5), generate(5));
        assert_ne!(generate(5), generate(6));
        let inp = generate(5);
        assert_eq!(inp.templates.len(), 6);
        for burst in &inp.bursts {
            let mut sorted = *burst;
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 0, 1, 2, 3, 3, 4, 5], "same work in every burst");
        }
    }

    #[test]
    fn verifier_rejects_wrong_results_and_altered_bills() {
        let inp = generate(4);
        let teleport = &inp.templates[1];
        assert_eq!((teleport.kind, teleport.ranks), (Kind::Teleport, 3));
        let bill = ResourceSnapshot {
            epr_pairs: 2,
            ..ResourceSnapshot::default()
        };
        assert!(job_passes(teleport, &[None, None, Some(true)], bill, bill));
        // Flipped teleport bit.
        assert!(!job_passes(
            teleport,
            &[None, None, Some(false)],
            bill,
            bill
        ));
        // Altered bill.
        let altered = ResourceSnapshot {
            epr_pairs: 3,
            ..bill
        };
        assert!(!job_passes(
            teleport,
            &[None, None, Some(true)],
            altered,
            bill
        ));
        let cat = &inp.templates[2];
        assert!(results_ok(cat, &[Some(true), Some(true)]));
        assert!(!results_ok(cat, &[Some(true), Some(false)]));
        let parity = &inp.templates[5];
        let xor = parity.bits.iter().fold(false, |a, &b| a ^ b);
        assert!(results_ok(parity, &[Some(xor), None, None]));
        assert!(!results_ok(parity, &[Some(!xor), None, None]));
        let m = Measured {
            attempted: 16,
            failed: u64::from(!job_passes(
                teleport,
                &[None, None, Some(false)],
                bill,
                bill,
            )),
            ..Measured::default()
        };
        assert_ne!(m.exit_code(), 0);
    }
}
