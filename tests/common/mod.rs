//! Helpers shared across the integration-test targets. Each target that
//! wants them declares `mod common;` — cargo compiles the module into that
//! target, so items unused by one suite are normal (hence the allow).
#![allow(dead_code)]

pub mod conformance;
pub mod ops;
