//! `protocol_sv` / `protocol_remote_unix`: four ranks running rounds of the
//! paper's communication primitives — a teleport chain 0→1→2→3, a cat
//! state established and measured, a parity reduce/unreduce — in a seeded
//! order. One iteration is one whole world on a persistent backend, rank
//! threads included, because that is what a user pays per run.

use super::{another_setup, must, CountTotals, Counters, Engine, LoopPlan, Measured, RunOpts};
use crate::json::Json;
use crate::ops::{Direct, Ops, Traced};
use crate::rng::Rng;
use crate::span::{self, Class, Span};
use qmpi::{run_on_backend, ResourceSnapshot, Result};
use std::sync::Arc;
use std::time::Instant;

pub const RANKS: usize = 4;
const WARMUP_WORLDS: usize = 3;
const MIN_WORLDS: usize = 12;

/// Rounds per world: the socket engine pays a command round trip per
/// structural op, so it gets fewer rounds for a comparable iteration.
pub fn rounds(engine: Engine) -> usize {
    match engine {
        Engine::StateVector => 64,
        Engine::RemoteUnix => 8,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Teleport,
    Cat,
    Parity,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Round {
    pub order: [Op; 3],
    /// Root of the parity reduction.
    pub root: usize,
    /// Each rank's input bit to the parity reduction.
    pub bits: [bool; RANKS],
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub rounds: Vec<Round>,
    pub backend_seed: u64,
}

pub fn generate(seed: u64, rounds: usize) -> Inputs {
    let mut rng = Rng::new(seed, "protocol");
    let backend_seed = rng.next_u64();
    let rounds = (0..rounds)
        .map(|_| {
            let mut order = [Op::Teleport, Op::Cat, Op::Parity];
            rng.shuffle(&mut order);
            Round {
                order,
                root: rng.below(RANKS),
                bits: std::array::from_fn(|_| rng.bool()),
            }
        })
        .collect();
    Inputs {
        rounds,
        backend_seed,
    }
}

/// What one rank observed over a world, one entry per round where the
/// rank had something to observe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankOut {
    /// Chain end only: the teleported qubit's measured value.
    pub teleported: Vec<bool>,
    /// This rank's cat-share measurement.
    pub cat: Vec<bool>,
    /// Reduction root only: the accumulated parity.
    pub parity: Vec<Option<bool>>,
}

/// Teleports |1⟩ down the chain 0 → 1 → … → n−1; the last rank measures it.
pub fn teleport_chain(ops: &impl Ops) -> Result<Option<bool>> {
    let (r, n) = (ops.rank(), ops.size());
    let q = if r == 0 {
        let q = ops.alloc_one();
        ops.x(&q)?;
        q
    } else {
        ops.recv_move(r - 1, 0)?
    };
    if r + 1 < n {
        ops.send_move(q, r + 1, 0)?;
        Ok(None)
    } else {
        ops.measure_and_free(q).map(Some)
    }
}

/// Establishes a cat state over all ranks and measures this rank's share.
pub fn cat_measure(ops: &impl Ops) -> Result<bool> {
    let share = ops.cat_establish()?;
    ops.measure_and_free(share)
}

/// Reduces every rank's `bit` by parity onto `root`, which reads the
/// result; then uncomputes.
pub fn parity_reduce(ops: &impl Ops, bit: bool, root: usize) -> Result<Option<bool>> {
    let q = ops.alloc_one();
    if bit {
        ops.x(&q)?;
    }
    let (acc, handle) = ops.reduce_parity(&q, root)?;
    let seen = match &acc {
        Some(acc) => Some(ops.prob_one(acc)? > 0.5),
        None => None,
    };
    ops.unreduce_parity(&q, acc, handle)?;
    ops.measure_and_free(q)?;
    Ok(seen)
}

pub fn world_program(ops: &impl Ops, inp: &Inputs) -> Result<RankOut> {
    let mut out = RankOut::default();
    for round in &inp.rounds {
        for op in round.order {
            match op {
                Op::Teleport => out.teleported.extend(teleport_chain(ops)?),
                Op::Cat => out.cat.push(cat_measure(ops)?),
                Op::Parity => {
                    out.parity
                        .push(parity_reduce(ops, round.bits[ops.rank()], round.root)?)
                }
            }
        }
    }
    Ok(out)
}

/// The output check for one world: every teleported |1⟩ arrived as 1,
/// every round's cat shares agree, every root read the classical xor.
pub fn verify(outs: &[RankOut], inp: &Inputs) -> bool {
    let n = inp.rounds.len();
    let Some(last) = outs.last() else {
        return false;
    };
    if outs.len() != RANKS || last.teleported.len() != n || !last.teleported.iter().all(|&m| m) {
        return false;
    }
    inp.rounds.iter().enumerate().all(|(i, round)| {
        let cat_agrees = outs
            .iter()
            .all(|o| o.cat.get(i).is_some_and(|m| Some(m) == outs[0].cat.get(i)));
        let xor = round.bits.iter().fold(false, |a, &b| a ^ b);
        cat_agrees && outs[round.root].parity.get(i) == Some(&Some(xor))
    })
}

/// The verdict on one iteration: right outputs, and a resource bill equal
/// to the first world's (the same program must cost the same every time).
pub fn world_passes(
    outs: &[RankOut],
    inp: &Inputs,
    bill: ResourceSnapshot,
    first_bill: &mut Option<ResourceSnapshot>,
) -> bool {
    *first_bill.get_or_insert(bill) == bill && verify(outs, inp)
}

/// Runs one world; with tracing, returns its spans under one root span
/// that covers the whole iteration (rank threads' spawn and join are the
/// root's self time).
fn one_world(
    engine: Engine,
    backend: &Arc<dyn qmpi::QuantumBackend>,
    inp: &Arc<Inputs>,
    traced: Option<u32>,
) -> (Vec<RankOut>, ResourceSnapshot, i64, Vec<Span>) {
    let start_ns = span::now_ns();
    let program = Arc::clone(inp);
    let run = run_on_backend(
        RANKS,
        engine.config(inp.backend_seed),
        Arc::clone(backend),
        move |ctx| match traced {
            Some(iter) => {
                let ops = Traced::new(ctx);
                let out = ops.iteration(iter, || world_program(&ops, &program));
                must(ops.take_fault(), "protocol flush");
                (must(out, "protocol world"), ops.into_spans())
            }
            None => (
                must(world_program(&Direct(ctx), &program), "protocol world"),
                Vec::new(),
            ),
        },
    );
    let mut spans = Vec::new();
    if let Some(iter) = traced {
        spans.push(Span {
            name: "world",
            class: Class::Root,
            rank: 0,
            iter,
            start_ns,
            end_ns: span::now_ns(),
            parent: None,
        });
    }
    let mut outs = Vec::with_capacity(RANKS);
    for (r, (out, s)) in run.results.into_iter().enumerate() {
        span::append(&mut spans, s, (r == 0 && traced.is_some()).then_some(0));
        outs.push(out);
    }
    (outs, run.resources, run.max_buffer_peak, spans)
}

pub fn run(engine: Engine, opts: &RunOpts) -> Measured {
    let n_rounds = rounds(engine);
    let plan = LoopPlan::new(opts, MIN_WORLDS);
    let mut m = Measured::default();
    let mut ready = None;
    let began = Instant::now();
    while another_setup(opts, m.setup_s.len(), began.elapsed()) {
        let t0 = Instant::now();
        let inp = Arc::new(generate(opts.seed, n_rounds));
        let backend = engine.build(inp.backend_seed);
        for _ in 0..WARMUP_WORLDS {
            one_world(engine, &backend, &inp, None);
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
        // Dropping the previous repeat's backend here (workers shut down
        // and reaped) keeps tear-down out of every set-up sample.
        ready = Some((inp, backend));
    }
    let (inp, backend) = ready.expect("at least one repeat");

    let mut first: Option<ResourceSnapshot> = None;
    let before = Counters::read(ResourceSnapshot::default(), &*backend);
    let started = Instant::now();
    let mut done = 0usize;
    while plan.go(done, started) {
        let t0 = Instant::now();
        let (outs, resources, peak, spans) =
            one_world(engine, &backend, &inp, opts.traced.then_some(done as u32));
        m.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        done += 1;
        if !world_passes(&outs, &inp, resources, &mut first) {
            m.failed += 1;
        }
        m.totals.epr_pairs += resources.epr_pairs;
        m.totals.epr_rounds += resources.epr_rounds;
        m.totals.classical_bits += resources.classical_bits;
        m.s_peak = m.s_peak.max(peak);
        span::append(&mut m.spans, spans, None);
    }
    let engine_side = Counters::read(ResourceSnapshot::default(), &*backend).since(&before);
    m.totals = CountTotals {
        epr_pairs: m.totals.epr_pairs,
        epr_rounds: m.totals.epr_rounds,
        classical_bits: m.totals.classical_bits,
        ..engine_side
    };
    m.attempted = done as u64;
    m.units = (done * 3 * n_rounds) as u64;
    m.config = Json::obj()
        .with("engine", engine.describe())
        .with("ranks", RANKS)
        .with("rounds_per_world", n_rounds)
        .with("ops_per_world", 3 * n_rounds)
        .with("warmup_worlds", WARMUP_WORLDS)
        .with(
            "inputs",
            Json::obj().with(
                "first_round",
                format!("{:?}", inp.rounds.first().expect("at least one round")),
            ),
        );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        assert_eq!(generate(5, 16), generate(5, 16));
        assert_ne!(generate(5, 16), generate(6, 16));
    }

    fn good_outputs(inp: &Inputs) -> Vec<RankOut> {
        let out = qmpi::run_with_config(RANKS, Engine::StateVector.config(inp.backend_seed), {
            let inp = inp.clone();
            move |ctx| world_program(&Direct(ctx), &inp).unwrap()
        });
        assert!(verify(&out, inp));
        out
    }

    #[test]
    fn verifier_rejects_each_kind_of_wrong_result() {
        let inp = generate(3, 4);
        let good = good_outputs(&inp);

        let mut flipped_teleport = good.clone();
        flipped_teleport[RANKS - 1].teleported[2] = false;
        assert!(!verify(&flipped_teleport, &inp));

        let mut split_cat = good.clone();
        split_cat[1].cat[0] = !split_cat[1].cat[0];
        assert!(!verify(&split_cat, &inp));

        let mut wrong_parity = good.clone();
        let root = inp.rounds[1].root;
        wrong_parity[root].parity[1] = wrong_parity[root].parity[1].map(|p| !p);
        assert!(!verify(&wrong_parity, &inp));

        assert!(!verify(&good[..RANKS - 1], &inp));
    }

    #[test]
    fn an_altered_resource_bill_fails_the_iteration() {
        let inp = generate(3, 2);
        let good = good_outputs(&inp);
        let bill = ResourceSnapshot {
            epr_pairs: 9,
            ..ResourceSnapshot::default()
        };
        let altered = ResourceSnapshot {
            epr_pairs: 10,
            ..bill
        };
        let mut first = None;
        let mut m = Measured::default();
        for seen in [bill, bill, altered] {
            m.attempted += 1;
            m.failed += u64::from(!world_passes(&good, &inp, seen, &mut first));
        }
        assert_eq!(m.failed, 1);
        assert_ne!(m.exit_code(), 0);
    }
}
