//! Experiment drivers regenerating every table and figure of Jacob &
//! Mudge (ASPLOS 1998), plus the ablations the paper sketches in
//! Section 4.2.
//!
//! Each experiment module exposes
//!
//! * a `Config` describing the swept parameter space (defaulting to the
//!   paper's Table 1 values, scaled per [`RunScale`]),
//! * a `run` function that executes the sweep and returns a typed result,
//! * a rendering of the result as the paper's rows/series
//!   ([`TextTable`]), and
//! * [`Claim`]s — machine-checked statements of the paper's qualitative
//!   findings ("INTEL has the lowest VMCPI", "NOTLB is hypersensitive to
//!   L2 organization", ...), each reporting whether this run reproduced
//!   it.
//!
//! The `repro` binary (`cargo run -p vm-experiments --bin repro --release`)
//! drives everything from the command line; EXPERIMENTS.md in the
//! repository root records a full paper-vs-measured comparison.
//!
//! | Experiment | Paper artefact | Module |
//! |------------|----------------|--------|
//! | `tables`   | Tables 1–4     | [`tables`] |
//! | `fig6`/`fig7` | VMCPI vs cache organization (gcc / vortex) | [`fig6`] |
//! | `fig8`/`fig9` | VMCPI component breakdowns | [`fig8`] |
//! | `fig10`*   | interrupt-cost sensitivity | [`interrupts`] |
//! | `fig11`*   | TLB-size sensitivity | [`tlbsize`] |
//! | `fig12`*   | MCPI inflicted on the application | [`mcpi`] |
//! | `fig13`*   | total VM overhead | [`total`] |
//! | `abl-*`    | Section 4.2 interpolations | [`ablations`] |
//! | `suite`    | six-workload overview with seed replication | [`suite`] |
//! | `abl-mp`   | multiprogramming: ASID-tagged vs untagged TLBs | [`multiprog`] |
//!
//! \* the supplied paper text truncates after Section 4.2; these
//! reconstruct the remaining evaluation from the abstract's quantitative
//! claims (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod chart;
pub mod explore;
pub mod fig6;
pub mod fig8;
pub mod interrupts;
pub mod mcpi;
pub mod multiprog;
pub mod registry;
pub mod suite;
pub mod tables;
pub mod telemetry;
pub mod tlbsize;
pub mod total;

mod claim;
mod runner;
mod table;

pub use claim::Claim;
// The reporter moved to `vm-obs` so lower layers (the `vm-explore` sweep
// executor) can heartbeat through it; re-exported here for continuity.
pub use runner::{run_jobs, run_jobs_checked, Job, Outcome, RunScale};
pub use table::TextTable;
pub use vm_obs::{set_global_verbosity, Reporter, Verbosity};
