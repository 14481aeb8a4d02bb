//! # sendq — the SENDQ performance model for distributed quantum computing
//!
//! Implements the machine-independent performance model of Section 5 of
//! *Distributed Quantum Computing with QMPI* (SC 2021), inspired by the
//! classical LogP model: parameters `S` (EPR buffer), `E` (EPR
//! establishment time), `N` (nodes), `D` (local delays, refined into
//! `D_R`/`D_M`/`D_F`), `Q` (compute qubits per node).
//!
//! Besides the closed forms the paper derives for broadcast (§7.1), TFIM
//! Trotter steps (§7.2) and the chemistry parity-rotation circuits (§7.3),
//! this crate ships a discrete-event scheduler ([`event_sim::EventSim`])
//! that enforces the model's resource constraints, so every closed form is
//! *checked* rather than merely restated.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod event_sim;
pub mod model;

pub use analysis::chemistry::ParityMethod;
pub use event_sim::{EventSim, Schedule, TaskId};
pub use model::{ceil_log2, SendqParams};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tree_bcast_sim_equals_closed_form(n in 2usize..200) {
            let p = SendqParams { s: 1, e: 10.0, n, q: 8, d_r: 1.0, d_m: 1.0, d_f: 1.0 };
            let sched = analysis::bcast::tree_bcast_schedule(&p);
            let closed = analysis::bcast::tree_bcast_time(&p);
            prop_assert!((sched.makespan - closed).abs() < 1e-9);
        }

        #[test]
        fn cat_bcast_sim_equals_closed_form(n in 2usize..200) {
            let p = SendqParams { s: 2, e: 10.0, n, q: 8, d_r: 1.0, d_m: 3.0, d_f: 2.0 };
            let sched = analysis::bcast::cat_bcast_schedule(&p);
            let closed = analysis::bcast::cat_bcast_time(&p);
            prop_assert!((sched.makespan - closed).abs() < 1e-9);
        }

        #[test]
        fn chemistry_schedules_match_closed_forms(k in 2usize..40, e in 1.0f64..100.0, d_r in 1.0f64..1000.0) {
            let p = SendqParams { s: 2, e, n: k, q: 8, d_r, d_m: 0.0, d_f: 0.0 };
            for m in [ParityMethod::InPlace, ParityMethod::OutOfPlace, ParityMethod::ConstantDepth] {
                let sched = analysis::chemistry::schedule(m, k, &p);
                let closed = analysis::chemistry::delay(m, k, &p);
                prop_assert!((sched.makespan - closed).abs() < 1e-6,
                    "{m:?} k={k}: sim {} vs closed {}", sched.makespan, closed);
            }
        }

        #[test]
        fn tfim_delays_bracket_compute_and_comm(nodes in 1usize..16, e in 1.0f64..500.0, d_r in 1.0f64..500.0) {
            let n_spins = 64usize;
            prop_assume!(n_spins.is_multiple_of(nodes) && n_spins / nodes >= 1);
            let p = SendqParams { s: 2, e, n: nodes, q: 8, d_r, d_m: 1.0, d_f: 1.0 };
            let d_t = analysis::tfim::d_trotter(&p, n_spins);
            let s2 = analysis::tfim::step_delay_s2(&p, n_spins);
            let s1 = analysis::tfim::step_delay_s1(&p, n_spins);
            prop_assert!(s2 >= d_t && s2 >= 2.0 * e);
            prop_assert!(s1 >= s2, "S=1 is never faster than S>=2");
        }
    }
}
