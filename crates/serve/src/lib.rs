//! `vm-serve` — a fault-tolerant simulation service for the Jacob &
//! Mudge (ASPLOS 1998) reproduction.
//!
//! `repro serve` turns the hardened sweep executor into a long-lived
//! daemon: clients submit [`vm_explore::SystemSpec`] sweeps over a
//! newline-delimited JSON protocol (`std::net` only — no frameworks,
//! no external dependencies), a bounded worker pool runs them through
//! [`vm_explore::run_sweep_hardened`], and the service stays correct
//! and responsive under abuse:
//!
//! * **Admission control** — the job queue is bounded; overload answers
//!   an explicit `503` + `"shed":true` instead of buffering without
//!   bound or silently dropping work.
//! * **Degraded fidelity** — past a queue-depth watermark, new jobs are
//!   clamped to quick run lengths, and the clamp is reported in every
//!   response and persisted with the job (never silent, and stable
//!   across restarts so results stay bit-identical).
//! * **Deadlines** — per-request walk-cycle budgets propagate into the
//!   executor's [`vm_harden::DeadlineSink`]; per-connection I/O
//!   timeouts and a max-request-size guard bound what one client can
//!   cost.
//! * **Isolation** — every job runs under `catch_unwind` on top of
//!   per-point isolation; a poisoned spec or a panicking handler costs
//!   one response, never the daemon.
//! * **Graceful drain** — SIGTERM and the `drain` request stop
//!   admission, cancel running sweeps cooperatively, finish journals,
//!   flush telemetry, and exit cleanly. Every job's progress lives in a
//!   `vm-harden` run journal, so a killed daemon restarted with
//!   `--resume` rebuilds its queue and produces bit-identical results.
//!
//! The crate splits along those lines: [`proto`] (wire format),
//! [`conn`] (the accept loop, bounded request reader and watch-frame
//! loop every listener shares, the fleet's included), [`job`] (the
//! persisted unit of work), [`server`] (workers, drain), [`ingest`]
//! (chunked trace uploads: checksums, quotas, crash-safe staging),
//! [`client`] (a minimal client for tests and tools), and [`report`]
//! (the `serve-stats` telemetry report).
//! Throughput is measured outside the crate, by the repository
//! benchmark's `serve-closed` workload (`perfbench/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod dashboard;
pub mod ingest;
pub mod job;
pub mod proto;
pub mod report;
pub mod server;
pub mod watch;

pub use client::Client;
pub use dashboard::Dashboard;
pub use ingest::{ConnQuota, Ingest, IngestSettings};
pub use job::{JobOutcome, JobSpec, JobState};
pub use proto::{
    error_response, hex64, ok_response, parse_hex64, parse_request, ProtoError, Request, Scale,
    SubmitRequest, PROTO_VERSION,
};
pub use report::EventReport;
pub use server::{ServeConfig, ServeStats, ServeSummary, Server};
pub use watch::{SubNext, WatchHub, WatchSub};
