//! `qsim.sim`: the dense `Simulator` the default engine wraps, at 18
//! qubits (2^18 amplitudes, 4 MiB) — the state size `tfim_sv` and
//! `readout_sv` work at. (20 qubits would make one alloc/free sample 30 ms
//! and the probe 6 s.) Costs are per amplitude of that state.

use super::{median_ns, time_ns_with, Metrics};
use crate::stats::median;
use qsim::{Gate, Pauli, Simulator};

const QUBITS: usize = 18;

pub fn probe(samples: usize, m: &mut Metrics) {
    let n = (1usize << QUBITS) as f64;
    let mut sim = Simulator::new(1);
    let q = sim.alloc_n(QUBITS);
    for (i, &site) in q.iter().enumerate() {
        sim.apply(Gate::Ry(0.4 + 0.05 * i as f64), site)
            .expect("prepare");
    }

    m.push(
        "qsim.sim.gate1q_ns_per_amp",
        median_ns(samples, || sim.apply(Gate::Ry(0.1), q[10]).expect("gate")) / n,
        "ns",
    );
    m.push(
        "qsim.sim.cnot_ns_per_amp",
        median_ns(samples, || sim.cnot(q[3], q[12]).expect("cnot")) / n,
        "ns",
    );
    m.push(
        "qsim.sim.expectation_ns_per_amp",
        median_ns(samples, || {
            sim.expectation(&[(q[3], Pauli::X), (q[7], Pauli::Z)])
                .expect("expectation")
        }) / n,
        "ns",
    );
    // Alloc doubles the state, free (of the still-|0> qubit) halves it.
    m.push(
        "qsim.sim.alloc_free_ns_per_amp",
        median_ns(samples, || {
            let a = sim.alloc();
            sim.free(a).expect("free a |0> qubit")
        }) / n,
        "ns",
    );
    // Re-spread the qubit (untimed) so every measurement collapses a
    // superposition rather than re-reading a classical bit.
    let measure = time_ns_with(
        samples,
        &mut sim,
        |sim| sim.apply(Gate::Ry(1.1), q[9]).expect("re-spread"),
        |sim| sim.measure(q[9]).expect("measure"),
    );
    m.push("qsim.sim.measure_ns_per_amp", median(&measure) / n, "ns");
}
