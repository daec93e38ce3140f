//! Declarative system specs and parallel design-space exploration.
//!
//! The hard-coded `SystemKind` presets reproduce the paper's six systems;
//! this crate makes the space *around* them explorable:
//!
//! * [`SystemSpec`] — a small declarative description (parsed from a TOML
//!   subset, no external dependencies) of one simulated machine: MMU
//!   class × page-table organization × TLB geometry × cache hierarchy ×
//!   handler costs. A minimal spec (`[mmu] kind/table` only) lowers to
//!   exactly the paper-default [`vm_core::SimConfig`] for that system,
//!   so the shipped `specs/*.toml` reproduce the paper bit-for-bit.
//! * [`SweepPlan`] — grid expansion of dotted-key axes
//!   (`tlb.entries=32,64,128`) over a base spec, with invalid grid
//!   corners recorded (not silently dropped) alongside the validator's
//!   reason.
//! * [`run_sweep`] / [`run_sweep_hardened`] — a multi-threaded executor
//!   on [`run_items`], the scheduling core the experiment drivers share,
//!   whose merged results are bit-identical at any `--jobs` count,
//!   reporting progress through the `vm-obs`
//!   [`vm_obs::Reporter`] and emitting `SweepStarted`/`SweepPointDone`
//!   events. The hardened variant isolates per-point faults into
//!   [`SweepPointOutcome`]s, enforces walk-cycle budgets, streams
//!   finished points into a `vm-harden` run journal, and resumes from
//!   one ([`seeded_from_journal`]).
//! * [`pareto_frontier`] / [`sensitivity`] — which configurations are
//!   worth building, and which knobs matter.
//!
//! The `repro explore` subcommand is the front end; this crate holds
//! everything reusable behind it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attest;
pub mod exec;
pub mod journal;
pub mod process;
pub mod progress;
pub mod spec;
pub mod stream;
pub mod sweep;

pub use analysis::{pareto_frontier, sensitivity, AxisSensitivity};
pub use attest::{context_for, point_context, verify_in_context, verify_sealed};
pub use exec::{
    run_batches, run_items, run_sweep, run_sweep_hardened, tlb_area_bytes, ExecConfig,
    HardenPolicy, PointResult, RunScale, SweepOutcome, SweepPointOutcome,
};
pub use journal::{
    plan_fingerprint, result_from_value, result_to_value, run_header, seeded_from_journal,
};
pub use process::{handle_request, request_line, serve_worker};
pub use progress::{PointCheckpoint, ProgressConfig, SweepObserver};
pub use spec::{SpecError, SystemSpec, ValidateError, PAGE_BYTES};
pub use stream::StreamTable;
pub use sweep::{Axis, PlannedPoint, SkippedPoint, SweepPlan};
