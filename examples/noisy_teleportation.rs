//! Fidelity-vs-noise (and vs-`S`-budget) study over an imperfect
//! interconnect.
//!
//! Relays |1> along an 8-rank teleport chain under a depolarizing EPR
//! channel ([`qmpi::QmpiConfig::noise`]) and compares the empirical
//! fidelity with the closed-form prediction on three backends from the
//! same configuration call: state-vector, remote-sharded (worker threads),
//! and stabilizer. A second section pairs noise with [`qmpi::QmpiConfig::s_limit`]
//! to show the SENDQ trade the paper reasons about, and the trace backend's
//! modeled fidelity for the identical protocol.
//!
//! Run: `cargo run --example noisy_teleportation`

use qalgo::fidelity::{analytic_teleport_fidelity, teleport_fidelity_sweep};
use qmpi::{run_with_config, BackendKind, NoiseChannel, NoiseModel, QmpiConfig};

const RANKS: usize = 8;
const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.1];

fn main() {
    println!("--- teleport |1> along {RANKS} ranks, depolarizing EPR noise ---");
    for kind in [
        BackendKind::StateVector,
        BackendKind::RemoteSharded { shards: 4 },
        BackendKind::Stabilizer,
    ] {
        // The stabilizer tableau is polynomial-cost, so give it more trials.
        let trials = if kind == BackendKind::Stabilizer {
            400
        } else {
            60
        };
        println!("backend: {kind} ({trials} trials/rate)");
        for pt in teleport_fidelity_sweep(kind, &RATES, RANKS, trials, 42) {
            println!(
                "  p = {:>5.3}   fidelity = {:.3}   analytic = {:.3}",
                pt.rate, pt.fidelity, pt.analytic
            );
        }
    }

    println!("\n--- modeled fidelity at paper scale (trace backend) ---");
    let noise = NoiseModel::epr_only(NoiseChannel::Depolarizing { p: 0.02 });
    for ranks in [8usize, 64, 256] {
        let cfg = QmpiConfig::new()
            .seed(1)
            .backend(BackendKind::Trace)
            .noise(noise);
        let out = run_with_config(ranks, cfg, move |ctx| {
            let r = ctx.rank();
            if r == 0 {
                let q = ctx.alloc_one();
                ctx.x(&q).unwrap();
                ctx.send_move(q, 1, 0).unwrap();
            } else {
                let q = ctx.recv_move(r - 1, (r - 1) as u16).unwrap();
                if r + 1 < ctx.size() {
                    ctx.send_move(q, r + 1, r as u16).unwrap();
                } else {
                    ctx.measure_and_free(q).unwrap();
                }
            }
            // The modeled fidelity is a property of the whole world; wait
            // for every hop before reading it.
            ctx.barrier();
            ctx.backend().modeled_fidelity()
        });
        println!(
            "  {ranks:>4} ranks: error-free probability = {:.4}  (analytic Z-fidelity = {:.4})",
            out[0].expect("the trace backend models fidelity"),
            analytic_teleport_fidelity(&noise, ranks - 1),
        );
    }

    println!("\n--- fidelity vs S budget: buffered pairs decohere too ---");
    // A rank that pre-establishes S pairs pays the EPR channel on every
    // buffered half up front. Model: prepare S pairs ahead, then consume
    // one — the delivered correlation degrades with everything the channel
    // already did, while S = 1 only ever exposes one pair.
    for s in [1u32, 2, 4] {
        let cfg = QmpiConfig::new()
            .seed(7)
            .s_limit(s)
            .backend(BackendKind::Stabilizer)
            .noise(NoiseModel::epr_only(NoiseChannel::Depolarizing { p: 0.05 }));
        let trials = 300u32;
        let out = run_with_config(2, cfg, move |ctx| {
            let dest = 1 - ctx.rank();
            let mut agree = 0u32;
            for _ in 0..trials {
                // Fill the whole S budget, then consume every pair.
                let qs: Vec<_> = (0..s).map(|_| ctx.alloc_one()).collect();
                for (i, q) in qs.iter().enumerate() {
                    ctx.prepare_epr(q, dest, i as u16).unwrap();
                }
                let mut bits = Vec::new();
                for q in qs {
                    bits.push(ctx.measure_and_free(q).unwrap());
                    ctx.ledger().buffer_dec(ctx.rank());
                }
                ctx.barrier();
                // Compare this rank's bits with the peer's.
                if ctx.rank() == 0 {
                    ctx.classical().send(&bits, dest, 9);
                } else {
                    let (peer, _) = ctx.classical().recv::<Vec<bool>>(dest, 9);
                    agree += u32::from(peer == bits);
                }
            }
            agree
        });
        println!(
            "  S = {s}: all-{s}-pairs-correlated rate = {:.3}  (per-pair analytic = {:.3})",
            f64::from(out[1]) / f64::from(trials),
            analytic_teleport_fidelity(
                &NoiseModel::epr_only(NoiseChannel::Depolarizing { p: 0.05 }),
                1
            ),
        );
    }
    println!("\nLarger S buffers more pairs in flight -> more exposure to the");
    println!("interconnect channel per delivered payload; the budget is a");
    println!("throughput/fidelity trade, not a free parameter.");
}
