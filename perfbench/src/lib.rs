//! The repository's benchmark: four workloads over the Jacob & Mudge
//! (ASPLOS 1998) reproduction, end-to-end metrics with fingerprinted
//! results, and a traced run that attributes host time to each crate.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod daemon;
pub mod env;
pub mod fleet;
pub mod fp;
pub mod metrics;
pub mod paper;
pub mod probes;
pub mod serve;
pub mod spans;
pub mod sweep;
