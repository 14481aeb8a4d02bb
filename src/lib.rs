//! Umbrella crate for the QMPI reproduction: re-exports every workspace
//! crate so examples and integration tests have a single import surface.
//!
//! See `README.md` for the repository tour and `DESIGN.md` / `EXPERIMENTS.md`
//! for the paper-reproduction inventory.

#![forbid(unsafe_code)]

pub use cmpi;
pub use qalgo;
pub use qchem;
pub use qmpi;
pub use qserve;
pub use qsim;
pub use sendq;
