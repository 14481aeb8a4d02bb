//! `tfim_sv` / `tfim_remote_unix`: the paper's §7.2 / Listing 1 Trotter
//! evolution of a transverse-field Ising ring, block-distributed over two
//! ranks, inside one long-lived world. One iteration is one Trotter step.

use super::{
    all_within, repeated_long_world, world_loop, Engine, LoopOut, LoopPlan, Measured, RankProgram,
    RunOpts,
};
use crate::json::Json;
use crate::ops::{Direct, Ops};
use crate::rng::Rng;
use qmpi::{Qubit, Result};
use qsim::{Gate, Pauli, Simulator};
use std::time::Instant;

pub const RANKS: usize = 2;
/// Untimed steps at the end of set-up.
const WARMUP_STEPS: usize = 8;
/// Timed steps after which the state is checked against the dense
/// reference; also the least number of timed steps a run takes.
const CHECK_AFTER: usize = 24;
const TOL: f64 = 1e-9;

/// Spins per rank. The socket engine runs a smaller ring so one step stays
/// near 50 ms and a run still collects well over 120 samples; both sizes
/// ship whole stripes per cross-shard gate, which is the regime wanted.
pub fn local_spins(engine: Engine) -> usize {
    match engine {
        Engine::StateVector => 8,
        Engine::RemoteUnix => 7,
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Inputs {
    pub j: f64,
    pub g: f64,
    pub dt: f64,
    /// Measurement-RNG seed handed to the backend.
    pub backend_seed: u64,
}

pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "tfim");
    Inputs {
        j: rng.range_f64(0.5, 1.5),
        g: rng.range_f64(0.5, 1.5),
        dt: rng.range_f64(0.02, 0.1),
        backend_seed: rng.next_u64(),
    }
}

/// Ring edge colouring of `qalgo::tfim` (two phases on an even ring,
/// three on an odd one), keyed by the edge's sending rank.
fn edge_color(r: usize, n: usize) -> usize {
    match (r, n % 2) {
        (0, 0) => 1,
        (0, _) => 2,
        _ => (r - 1) % 2,
    }
}

/// One first-order Trotter step, call for call the body of
/// `qalgo::tfim::trotter_step` (a test pins the two bit-identical), written
/// against [`Ops`] so the traced run can see each call.
pub fn trotter_step(ops: &impl Ops, qubits: &[Qubit], j: f64, g: f64, dt: f64) -> Result<()> {
    let (size, rank, local) = (ops.size(), ops.rank(), qubits.len());
    for site in 0..local.saturating_sub(1) {
        ops.cnot(&qubits[site], &qubits[site + 1])?;
        ops.rz(&qubits[site + 1], 2.0 * j * dt)?;
        ops.cnot(&qubits[site], &qubits[site + 1])?;
    }
    if size == 1 {
        if local > 1 {
            ops.cnot(&qubits[local - 1], &qubits[0])?;
            ops.rz(&qubits[0], 2.0 * j * dt)?;
            ops.cnot(&qubits[local - 1], &qubits[0])?;
        }
    } else {
        let colors = if size % 2 == 0 { 2 } else { 3 };
        for color in 0..colors {
            if edge_color(rank, size) == color {
                let dest = (rank + size - 1) % size;
                ops.send(&qubits[0], dest, 0)?;
                ops.unsend(&qubits[0], dest, 0)?;
            }
            let right = (rank + 1) % size;
            if edge_color(right, size) == color {
                let tmp = ops.recv(right, 0)?;
                ops.cnot(&qubits[local - 1], &tmp)?;
                ops.rz(&tmp, 2.0 * j * dt)?;
                ops.cnot(&qubits[local - 1], &tmp)?;
                ops.unrecv(tmp, right, 0)?;
            }
        }
    }
    for q in qubits {
        ops.rx(q, -2.0 * g * dt)?;
    }
    Ok(())
}

/// Per-site ⟨Z⟩ then ⟨X⟩ of the dense single-process evolution after
/// `steps` steps from |+…+⟩, sites in ring order.
pub fn reference(inp: &Inputs, n_spins: usize, steps: usize) -> Vec<f64> {
    let mut sim = Simulator::new(1);
    let spins = sim.alloc_n(n_spins);
    for &q in &spins {
        sim.apply(Gate::H, q).expect("reference H");
    }
    for _ in 0..steps {
        qalgo::tfim::reference_trotter_step(&mut sim, &spins, inp.j, inp.g, inp.dt);
    }
    [Pauli::Z, Pauli::X]
        .iter()
        .flat_map(|&p| {
            spins
                .iter()
                .map(|&q| sim.expectation(&[(q, p)]).expect("reference expectation"))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The output check: every measured expectation within [`TOL`] of the
/// reference.
pub fn verify(measured: &[f64], reference: &[f64]) -> bool {
    all_within(measured, reference, TOL)
}

/// This rank's ⟨Z_i⟩ then ⟨X_i⟩ over its sites.
fn local_expectations(ops: &impl Ops, qubits: &[Qubit]) -> Result<(Vec<f64>, Vec<f64>)> {
    let strings = |p: Pauli| qubits.iter().map(|q| vec![(q, p)]).collect::<Vec<_>>();
    Ok((
        ops.expectation_each(&strings(Pauli::Z))?,
        ops.expectation_each(&strings(Pauli::X))?,
    ))
}

/// Rank 0's report from the world (other ranks report nothing).
#[derive(Default)]
struct RankReport {
    ready: Option<Instant>,
    timed: LoopOut,
    check_ok: Option<bool>,
}

struct Program {
    inp: Inputs,
    local: usize,
    /// `None` for a set-up-only repeat.
    plan: Option<LoopPlan>,
    reference: Vec<f64>,
}

impl RankProgram for Program {
    type Out = RankReport;

    fn run(&self, ops: &impl Ops) -> Result<RankReport> {
        let Inputs { j, g, dt, .. } = self.inp;
        let ctx = ops.ctx();
        let mut out = RankReport::default();

        let qubits = ops.alloc_qmem(self.local);
        for q in &qubits {
            ops.h(q)?;
        }
        for _ in 0..WARMUP_STEPS {
            trotter_step(ops, &qubits, j, g, dt)?;
            ops.barrier();
        }
        out.ready = Some(Instant::now());

        if let Some(plan) = self.plan {
            let mut check_ok = None;
            let mut check = || -> Result<()> {
                let (z, x) = local_expectations(&Direct(ctx), &qubits)?;
                let zs = ctx.classical().gather(&z, 0);
                let xs = ctx.classical().gather(&x, 0);
                if let (Some(zs), Some(xs)) = (zs, xs) {
                    let measured: Vec<f64> = zs.into_iter().chain(xs).flatten().collect();
                    check_ok = Some(verify(&measured, &self.reference));
                }
                Ok(())
            };
            out.timed = world_loop(
                ops,
                plan,
                |_| trotter_step(ops, &qubits, j, g, dt),
                Some((CHECK_AFTER.min(plan.at_least()), &mut check)),
            )?;
            out.check_ok = check_ok;
        }
        for q in qubits {
            ops.measure_and_free(q)?;
        }
        Ok(out)
    }
}

pub fn run(engine: Engine, opts: &RunOpts) -> Measured {
    let local = local_spins(engine);
    let plan = LoopPlan::new(opts, CHECK_AFTER);
    let check_step = WARMUP_STEPS + CHECK_AFTER.min(plan.at_least());
    let inp = generate(opts.seed);
    let (setup_s, mut outs, spans, s_peak) = repeated_long_world(
        engine,
        opts,
        RANKS,
        plan,
        |plan| {
            let inp = generate(opts.seed);
            let program = Program {
                inp,
                local,
                plan,
                reference: reference(&inp, RANKS * local, check_step),
            };
            (inp.backend_seed, program)
        },
        |rank0| rank0.ready,
    );
    let rank0 = outs.swap_remove(0);
    let mut m = Measured::from_world_loop(setup_s, rank0.timed, s_peak, spans);
    // The one numeric check vouches for the run: the loop always reaches
    // it, so a missing verdict is a failure too.
    m.failed = u64::from(rank0.check_ok != Some(true));
    m.config = Json::obj()
        .with("engine", engine.describe())
        .with("ranks", RANKS)
        .with("spins_per_rank", local)
        .with("warmup_steps", WARMUP_STEPS)
        .with("check_after_step", check_step)
        .with(
            "inputs",
            Json::obj()
                .with("j", inp.j)
                .with("g", inp.g)
                .with("dt", inp.dt),
        );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Traced;
    use qmpi::{run_with_config, BatchPolicy, QmpiConfig, QmpiRank};

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        assert_eq!(generate(5), generate(5));
        assert_ne!(generate(5), generate(6));
    }

    type Step = fn(&QmpiRank, &[Qubit]);
    const J: f64 = 0.9;
    const G: f64 = 0.7;
    const DT: f64 = 0.05;

    fn library_step(ctx: &QmpiRank, qs: &[Qubit]) {
        qalgo::tfim::trotter_step(ctx, qs, J, G, DT).unwrap();
    }
    fn direct_step(ctx: &QmpiRank, qs: &[Qubit]) {
        trotter_step(&Direct(ctx), qs, J, G, DT).unwrap();
    }
    fn traced_step(ctx: &QmpiRank, qs: &[Qubit]) {
        let ops = Traced::new(ctx);
        ops.iteration(0, || trotter_step(&ops, qs, J, G, DT).unwrap());
        ops.take_fault().unwrap();
        assert!(ops.into_spans().len() > 10);
    }

    /// The ring's amplitudes after three steps, plus the resources and gate
    /// count the evolution cost.
    fn evolve(ranks: usize, step: Step) -> (Vec<qsim::Complex>, qmpi::ResourceSnapshot, u64) {
        let cfg = QmpiConfig::new().seed(3).batch(BatchPolicy::default());
        let out = run_with_config(ranks, cfg, move |ctx| {
            let qubits = ctx.alloc_qmem(3);
            for q in &qubits {
                ctx.h(q).unwrap();
            }
            for _ in 0..3 {
                step(ctx, &qubits);
                ctx.barrier();
            }
            let ids: Vec<u64> = qubits.iter().map(|q| q.id().0).collect();
            let all = ctx.classical().gather(&ids, 0);
            let seen = all.map(|all| {
                let order: Vec<_> = all.into_iter().flatten().map(qsim::QubitId).collect();
                let state = ctx.backend().state_vector(&order).unwrap();
                (
                    state.amplitudes().to_vec(),
                    ctx.resources(),
                    ctx.backend().counts().gates,
                )
            });
            ctx.barrier();
            for q in qubits {
                ctx.measure_and_free(q).unwrap();
            }
            seen
        });
        out.into_iter().next().unwrap().unwrap()
    }

    fn bits(amps: &[qsim::Complex]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// One rank is deterministic, so the pin is bitwise. (With two ranks the
    /// order in which the ranks' batches reach the engine is a race, and
    /// floating-point products on disjoint qubits do not commute bitwise.)
    #[test]
    fn direct_and_traced_steps_are_bit_identical_to_qalgo_on_one_rank() {
        let library = evolve(1, library_step);
        for ours in [evolve(1, direct_step), evolve(1, traced_step)] {
            assert_eq!(bits(&ours.0), bits(&library.0));
            assert_eq!((ours.1, ours.2), (library.1, library.2));
        }
    }

    /// Two ranks exercise the boundary exchange: same amplitudes to 1e-12,
    /// same EPR pairs and classical bits exactly. (The gate count is left
    /// out: uncopy fix-ups fire on measurement outcomes, which race.)
    #[test]
    fn direct_and_traced_steps_match_qalgo_across_ranks() {
        let library = evolve(RANKS, library_step);
        assert!(library.1.epr_pairs > 0);
        for ours in [evolve(RANKS, direct_step), evolve(RANKS, traced_step)] {
            assert_eq!(ours.1, library.1);
            for (a, b) in ours.0.iter().zip(&library.0) {
                assert!(a.approx_eq(*b, 1e-12), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn verifier_rejects_a_perturbed_angle() {
        let inp = generate(1);
        let good = reference(&inp, 6, 4);
        assert!(verify(&good, &good));
        let off = reference(
            &Inputs {
                j: inp.j + 1e-3,
                ..inp
            },
            6,
            4,
        );
        assert!(!verify(&off, &good));
        assert!(!verify(&good[1..], &good));
        // ...and a failed check is what turns into a non-zero exit.
        let m = Measured {
            attempted: 24,
            failed: u64::from(!verify(&off, &good)),
            ..Measured::default()
        };
        assert_ne!(m.exit_code(), 0);
    }
}
