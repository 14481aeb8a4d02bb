//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures. Each binary prints the paper's expected values next
//! to the values measured from this implementation, so EXPERIMENTS.md can
//! be audited by running them.
//!
//! Also the engine-census programs: the per-rank bodies the
//! `engine_census` binary times.

#![forbid(unsafe_code)]

use qchem::{molecular_hamiltonian, Encoding, Molecule, PauliSum};
use qmpi::QmpiRank;

/// Reads a `--atoms N` style argument (defaults provided per binary). A
/// flag given without a value, or with one that is not a count, exits
/// with a message naming the flag.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_arg_usize(&args, name, default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// [`arg_usize`] over an explicit argument list.
fn parse_arg_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args.get(i + 1).ok_or(format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{name} expects a non-negative integer, got {value:?}"))
}

/// Builds the paper's hydrogen-ring Hamiltonian (Fig. 5/7 workload):
/// `n_atoms` hydrogens, 1.0 angstrom spacing, STO-3G.
pub fn hydrogen_ring_hamiltonian(n_atoms: usize, encoding: Encoding) -> PauliSum {
    let mol = Molecule::hydrogen_ring(n_atoms, 1.0);
    molecular_hamiltonian(&mol, encoding)
}

/// Renders a text bar for ASCII histograms, logarithmic in `count`.
pub fn log_bar(count: usize, max_count: usize) -> String {
    if count == 0 {
        return String::new();
    }
    let width = 50.0 * (count as f64).ln_1p() / (max_count as f64).ln_1p();
    "#".repeat(width.max(1.0) as usize)
}

/// Pretty-prints a rule line for the report tables.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Census row: relays one qubit in |1> along the whole chain of ranks.
pub fn teleport_chain(ctx: &QmpiRank) {
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
}

/// Census row: one parity reduce to rank 0 and its uncomputation.
pub fn parity_reduce(ctx: &QmpiRank) {
    let q = ctx.alloc_one();
    if ctx.rank() % 2 == 1 {
        ctx.x(&q).unwrap();
    }
    let (result, handle) = ctx.reduce(&q, &qmpi::Parity, 0).unwrap();
    ctx.unreduce(&q, result, handle, &qmpi::Parity).unwrap();
    ctx.measure_and_free(q).unwrap();
}

/// Census row: every rank streams `gates` rounds of local gates on its own
/// two qubits at once, then the inverse stream so the qubits free cleanly.
/// No communication: with 8 ranks this is pure gate traffic from 8 threads
/// against one 16-qubit register. Rotations are non-Clifford, so only the
/// amplitude engines run it.
pub fn local_gates(ctx: &QmpiRank, gates: usize) {
    let qs = ctx.alloc_qmem(2);
    // Ranks allocate in racing order; sync so every gate below runs
    // against the full register.
    ctx.barrier();
    for i in 0..gates {
        let q = &qs[i % 2];
        ctx.ry(q, 0.1 + i as f64 * 0.01).unwrap();
        ctx.cnot(&qs[0], &qs[1]).unwrap();
        ctx.cnot(&qs[1], &qs[0]).unwrap();
        ctx.cz(&qs[0], &qs[1]).unwrap();
        ctx.rz(q, -0.05).unwrap();
    }
    for i in (0..gates).rev() {
        let q = &qs[i % 2];
        ctx.rz(q, 0.05).unwrap();
        ctx.cz(&qs[0], &qs[1]).unwrap();
        ctx.cnot(&qs[1], &qs[0]).unwrap();
        ctx.cnot(&qs[0], &qs[1]).unwrap();
        ctx.ry(q, -(0.1 + i as f64 * 0.01)).unwrap();
    }
    ctx.barrier();
    for q in qs {
        ctx.free_qmem(q).unwrap();
    }
}

/// Census row: `steps` Trotter steps of the TFIM ring with `sites` spins on
/// every rank, from |+…+>, then every spin measured.
pub fn tfim(ctx: &QmpiRank, sites: usize, steps: usize) {
    let spins = ctx.alloc_qmem(sites);
    for q in &spins {
        ctx.h(q).unwrap();
    }
    for _ in 0..steps {
        qalgo::tfim::trotter_step(ctx, &spins, 1.0, 0.5, 0.1).unwrap();
    }
    for q in spins {
        ctx.measure_and_free(q).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_usize_rejects_a_missing_or_bad_value_by_flag_name() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_arg_usize(&args(&[]), "--repeats", 5), Ok(5));
        assert_eq!(
            parse_arg_usize(&args(&["--atoms", "8", "--repeats", "3"]), "--repeats", 5),
            Ok(3)
        );
        for bad in [
            &["--repeats", "x"][..],
            &["--repeats", "-1"],
            &["--repeats"],
        ] {
            let err = parse_arg_usize(&args(bad), "--repeats", 5).unwrap_err();
            assert!(err.contains("--repeats"), "{err}");
        }
    }

    #[test]
    fn log_bar_monotone() {
        assert!(log_bar(0, 100).is_empty());
        assert!(log_bar(1, 100).len() <= log_bar(50, 100).len());
        assert!(log_bar(50, 100).len() <= log_bar(100, 100).len());
    }

    #[test]
    fn small_ring_hamiltonian_builds() {
        let h = hydrogen_ring_hamiltonian(3, Encoding::JordanWigner);
        assert!(h.len() > 10);
    }
}
