//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures. Each binary prints the paper's expected values next
//! to the values measured from this implementation, so EXPERIMENTS.md can
//! be audited by running them.

#![forbid(unsafe_code)]

use qchem::{molecular_hamiltonian, Encoding, Molecule, PauliSum};

/// Parses a `--atoms N` style argument (defaults provided per binary).
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

#[cfg(test)]
mod tests {
    use super::*;

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
