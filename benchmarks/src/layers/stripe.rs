//! `qsim.stripe`: the shard-local amplitude kernels the remote workers
//! run. A 2^20-amplitude stripe is 16 MiB (> L2); the `.l1` variant uses
//! a 2^12 stripe (64 KiB) to split compute from memory bandwidth. Bytes
//! moved are *computed*: 32 B per amplitude for a read-modify-write sweep.

use super::{median_ns, Metrics};
use crate::rng::Rng;
use qsim::measure::PauliTerm;
use qsim::stripe;
use qsim::{Complex, Gate, Pauli};
use std::hint::black_box;

const BIG_BITS: usize = 20;
const L1_BITS: usize = 12;

fn amplitudes(bits: usize) -> Vec<Complex> {
    let mut rng = Rng::new(1, "stripe");
    let n = 1usize << bits;
    let scale = (0.5 / n as f64).sqrt();
    (0..n)
        .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)).scale(scale))
        .collect()
}

pub fn probe(samples: usize, m: &mut Metrics) {
    let n = (1usize << BIG_BITS) as f64;
    let unitary = Gate::Ry(0.37).matrix();
    let mut amps = amplitudes(BIG_BITS);
    let per_amp = |ns: f64| ns / n;

    m.push(
        "qsim.stripe.pair_unitary_ns_per_amp",
        per_amp(median_ns(samples, || {
            stripe::pair_unitary(&mut amps, 0, 1 << 10, &unitary)
        })),
        "ns",
    );

    let mut small = amplitudes(L1_BITS);
    const SWEEPS: usize = 32;
    m.push(
        "qsim.stripe.pair_unitary_ns_per_amp.l1",
        median_ns(samples, || {
            for _ in 0..SWEEPS {
                stripe::pair_unitary(&mut small, 0, 1 << 6, &unitary);
            }
        }) / (SWEEPS << L1_BITS) as f64,
        "ns",
    );

    let factors: Vec<(usize, Complex, Complex)> = [3usize, 7, 11, 15]
        .iter()
        .map(|&bit| {
            (
                1 << bit,
                Complex::cis(-0.1 * bit as f64),
                Complex::cis(0.1 * bit as f64),
            )
        })
        .collect();
    m.push(
        "qsim.stripe.phase_sweep_ns_per_amp",
        per_amp(median_ns(samples, || {
            stripe::phase_sweep(&mut amps, 0, &factors, &[(1 << 5) | (1 << 9)])
        })),
        "ns",
    );

    {
        let (low, high) = amps.split_at_mut(1 << (BIG_BITS - 1));
        m.push(
            "qsim.stripe.pair_across_ns_per_amp",
            per_amp(median_ns(samples, || {
                stripe::pair_across(low, high, 0, |a0, a1| {
                    let (x0, x1) = (*a0, *a1);
                    *a0 = unitary[0][0] * x0 + unitary[0][1] * x1;
                    *a1 = unitary[1][0] * x0 + unitary[1][1] * x1;
                })
            })),
            "ns",
        );
    }

    m.push(
        "qsim.stripe.masked_norm_ns_per_amp",
        per_amp(median_ns(samples, || {
            stripe::masked_norm(&amps, 0, 1 << 10, 1 << 10)
        })),
        "ns",
    );

    let terms = [
        PauliTerm {
            qubit: 3,
            op: Pauli::X,
        },
        PauliTerm {
            qubit: 7,
            op: Pauli::Z,
        },
    ];
    m.push(
        "qsim.stripe.expectation_pauli_ns_per_amp",
        per_amp(median_ns(samples, || {
            stripe::expectation_pauli(BIG_BITS, |g| amps[g], &terms)
        })),
        "ns",
    );

    m.push(
        "qsim.stripe.remove_qubit_flat_ns_per_amp",
        per_amp(median_ns(samples, || {
            stripe::remove_qubit_flat(&amps, 10, false)
        })),
        "ns",
    );

    // Last: it zeroes half the stripe. The sweep's cost does not depend on
    // the values, so repeating it on the collapsed stripe is the same work.
    m.push(
        "qsim.stripe.collapse_keep_ns_per_amp",
        per_amp(median_ns(samples, || {
            stripe::collapse_keep(&mut amps, 0, 1 << 10, 1 << 10)
        })),
        "ns",
    );
    black_box(&amps);
}
