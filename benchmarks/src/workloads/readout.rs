//! `readout_sv`: the dense engine used the other way round — reads, norms,
//! collapse and state rebuild instead of unitary sweeps. Two ranks hold an
//! entangled 18-qubit chain; one iteration is one readout round.

use super::{
    all_within, repeated_long_world, world_loop, Engine, LoopOut, LoopPlan, Measured, RankProgram,
    RunOpts,
};
use crate::json::Json;
use crate::ops::Ops;
use crate::rng::Rng;
use qmpi::{Qubit, Result};
use qsim::{Gate, Pauli, Simulator};
use std::time::Instant;

pub const RANKS: usize = 2;
pub const LOCAL: usize = 9;
const WARMUP_ROUNDS: usize = 8;
const MIN_ROUNDS: usize = 24;
/// Seeded rounds generated; the loop cycles through them.
const ROUND_TABLE: usize = 64;
const EXPECT_TOL: f64 = 1e-9;
const COLLAPSE_TOL: f64 = 1e-12;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Round {
    /// The 2-site Pauli string read each round (local site, operator).
    pub pair: [(usize, Pauli); 2],
    /// Site whose `prob_one` is read.
    pub prob_site: usize,
    /// Site copied onto the ancilla that is then measured and freed.
    pub source: usize,
    /// Ry angle that re-spreads the collapsed source afterwards, so every
    /// round reads a state with full support (the expectation kernel skips
    /// zero amplitudes; a progressively collapsed state would get cheaper
    /// round by round).
    pub respread: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Ry preparation angle per global site.
    pub prep: Vec<f64>,
    pub rounds: Vec<Round>,
    pub backend_seed: u64,
}

pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "readout");
    let backend_seed = rng.next_u64();
    let prep = (0..RANKS * LOCAL)
        .map(|_| rng.range_f64(0.3, 2.8))
        .collect();
    let paulis = [Pauli::X, Pauli::Y, Pauli::Z];
    let rounds = (0..ROUND_TABLE)
        .map(|_| {
            let a = rng.below(LOCAL);
            let b = (a + 1 + rng.below(LOCAL - 1)) % LOCAL;
            Round {
                pair: [(a, paulis[rng.below(3)]), (b, paulis[rng.below(3)])],
                prob_site: rng.below(LOCAL),
                source: rng.below(LOCAL),
                respread: rng.range_f64(0.3, 2.8),
            }
        })
        .collect();
    Inputs {
        prep,
        rounds,
        backend_seed,
    }
}

/// Prepares the entangled chain: seeded Ry on every site, a CNOT ladder
/// down each rank's sites, then one remote CNOT from rank 0's last site
/// onto rank 1's first (entangled copy, local CNOT, uncopy).
fn prepare(ops: &impl Ops, qubits: &[Qubit], inp: &Inputs) -> Result<()> {
    let r = ops.rank();
    for (i, q) in qubits.iter().enumerate() {
        ops.ry(q, inp.prep[r * LOCAL + i])?;
    }
    for pair in qubits.windows(2) {
        ops.cnot(&pair[0], &pair[1])?;
    }
    ops.barrier();
    if r == 0 {
        ops.send(&qubits[LOCAL - 1], 1, 0)?;
        ops.unsend(&qubits[LOCAL - 1], 1, 0)?;
    } else {
        let copy = ops.recv(0, 0)?;
        ops.cnot(&copy, &qubits[0])?;
        ops.unrecv(copy, 0, 0)?;
    }
    ops.barrier();
    Ok(())
}

/// What the first reads must return: per rank, ⟨Z_i⟩ over its sites then
/// the first round's 2-site string, from a dense single-process copy of
/// [`prepare`].
pub fn reference(inp: &Inputs) -> Vec<f64> {
    let mut sim = Simulator::new(1);
    let q = sim.alloc_n(RANKS * LOCAL);
    for (i, &site) in q.iter().enumerate() {
        sim.apply(Gate::Ry(inp.prep[i]), site)
            .expect("reference Ry");
    }
    for r in 0..RANKS {
        for i in 0..LOCAL - 1 {
            sim.cnot(q[r * LOCAL + i], q[r * LOCAL + i + 1])
                .expect("reference CNOT");
        }
    }
    sim.cnot(q[LOCAL - 1], q[LOCAL]).expect("reference CNOT");
    let first = inp.rounds[0];
    (0..RANKS)
        .flat_map(|r| {
            let site = |i: usize| q[r * LOCAL + i];
            let mut vals: Vec<f64> = (0..LOCAL)
                .map(|i| {
                    sim.expectation(&[(site(i), Pauli::Z)])
                        .expect("reference Z")
                })
                .collect();
            let pair = first.pair.map(|(i, p)| (site(i), p));
            vals.push(sim.expectation(&pair).expect("reference pair"));
            vals
        })
        .collect()
}

pub fn verify_expectations(measured: &[f64], reference: &[f64]) -> bool {
    all_within(measured, reference, EXPECT_TOL)
}

/// After the ancilla copy of a site measured `m`, the site itself must
/// read `m` with certainty.
pub fn verify_collapse(m: bool, source_prob_one: f64) -> bool {
    (source_prob_one - f64::from(u8::from(m))).abs() <= COLLAPSE_TOL
}

/// The reads of one round, in the order the check compares them.
fn reads(ops: &impl Ops, qubits: &[Qubit], round: &Round) -> Result<Vec<f64>> {
    let z: Vec<_> = qubits.iter().map(|q| vec![(q, Pauli::Z)]).collect();
    let mut vals = ops.expectation_each(&z)?;
    let pair = round.pair.map(|(i, p)| (&qubits[i], p));
    vals.push(ops.expectation(&pair)?);
    Ok(vals)
}

/// One readout round; returns whether its own output check held.
fn readout_round(ops: &impl Ops, qubits: &[Qubit], round: &Round) -> Result<bool> {
    let vals = reads(ops, qubits, round)?;
    let p = ops.prob_one(&qubits[round.prob_site])?;
    let sane = vals.iter().chain([&p]).all(|v| v.abs() <= 1.0 + EXPECT_TOL);
    let source = &qubits[round.source];
    let ancilla = ops.alloc_one();
    ops.cnot(source, &ancilla)?;
    let m = ops.measure_and_free(ancilla)?;
    let collapsed = verify_collapse(m, ops.prob_one(source)?);
    ops.ry(source, round.respread)?;
    Ok(sane && collapsed)
}

#[derive(Default)]
struct RankReport {
    ready: Option<Instant>,
    timed: LoopOut,
    /// Rank 0: verdict of the pre-collapse expectation check.
    prepared_ok: Option<bool>,
    /// Per timed round: this rank's own check.
    round_ok: Vec<bool>,
}

struct Program {
    inp: Inputs,
    plan: Option<LoopPlan>,
    reference: Vec<f64>,
}

impl RankProgram for Program {
    type Out = RankReport;

    fn run(&self, ops: &impl Ops) -> Result<RankReport> {
        let ctx = ops.ctx();
        let rounds = &self.inp.rounds;
        let mut out = RankReport::default();

        let qubits = ops.alloc_qmem(LOCAL);
        prepare(ops, &qubits, &self.inp)?;
        let mine = reads(ops, &qubits, &rounds[0])?;
        if let Some(all) = ctx.classical().gather(&mine, 0) {
            let measured: Vec<f64> = all.into_iter().flatten().collect();
            out.prepared_ok = Some(verify_expectations(&measured, &self.reference));
        }
        for i in 0..WARMUP_ROUNDS {
            readout_round(ops, &qubits, &rounds[i % rounds.len()])?;
            ops.barrier();
        }
        out.ready = Some(Instant::now());

        if let Some(plan) = self.plan {
            let mut round_ok = Vec::new();
            out.timed = world_loop(
                ops,
                plan,
                |i| {
                    round_ok.push(readout_round(ops, &qubits, &rounds[i % rounds.len()])?);
                    Ok(())
                },
                None,
            )?;
            out.round_ok = round_ok;
        }
        for q in qubits {
            ops.measure_and_free(q)?;
        }
        Ok(out)
    }
}

pub fn run(opts: &RunOpts) -> Measured {
    let engine = Engine::StateVector;
    let plan = LoopPlan::new(opts, MIN_ROUNDS);
    let (setup_s, mut outs, spans, s_peak) = repeated_long_world(
        engine,
        opts,
        RANKS,
        plan,
        |plan| {
            let inp = generate(opts.seed);
            let seed = inp.backend_seed;
            let program = Program {
                reference: reference(&inp),
                inp,
                plan,
            };
            (seed, program)
        },
        |rank0| rank0.ready,
    );
    let rank0 = outs.swap_remove(0);
    let mut m = Measured::from_world_loop(setup_s, rank0.timed, s_peak, spans);
    // A round fails when either rank's check failed; a wrong prepared state
    // fails every round read from it.
    m.failed = if rank0.prepared_ok == Some(true) {
        (0..rank0.round_ok.len())
            .filter(|&i| !(rank0.round_ok[i] && outs.iter().all(|o| o.round_ok[i])))
            .count() as u64
    } else {
        m.attempted
    };
    m.config = Json::obj()
        .with("engine", engine.describe())
        .with("ranks", RANKS)
        .with("qubits_per_rank", LOCAL)
        .with("warmup_rounds", WARMUP_ROUNDS)
        .with("round_table", ROUND_TABLE);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Direct;

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        assert_eq!(generate(5), generate(5));
        assert_ne!(generate(5), generate(6));
        for round in generate(5).rounds {
            assert_ne!(round.pair[0].0, round.pair[1].0, "a 2-site string");
        }
    }

    #[test]
    fn verifiers_reject_wrong_results() {
        let inp = generate(2);
        let good = reference(&inp);
        assert!(verify_expectations(&good, &good));
        let mut off = inp.clone();
        off.prep[4] += 1e-3;
        assert!(!verify_expectations(&reference(&off), &good));
        assert!(verify_collapse(true, 1.0) && verify_collapse(false, 0.0));
        assert!(!verify_collapse(true, 0.0));
        assert!(!verify_collapse(false, 1e-9));
    }

    /// The distributed preparation is the state the reference describes
    /// (small instance of the run's own set-up check).
    #[test]
    fn prepared_chain_matches_the_dense_reference() {
        let inp = generate(7);
        let want = reference(&inp);
        let program = inp.clone();
        let got = qmpi::run_with_config(
            RANKS,
            Engine::StateVector.config(inp.backend_seed),
            move |ctx| {
                let ops = Direct(ctx);
                let qubits = ops.alloc_qmem(LOCAL);
                prepare(&ops, &qubits, &program).unwrap();
                let vals = reads(&ops, &qubits, &program.rounds[0]).unwrap();
                ctx.barrier();
                for q in qubits {
                    ops.measure_and_free(q).unwrap();
                }
                vals
            },
        );
        let measured: Vec<f64> = got.into_iter().flatten().collect();
        assert!(verify_expectations(&measured, &want));
    }
}
