//! vm-supervise: process-level fault isolation for sweep execution.
//!
//! Every other isolation boundary in this workspace is `catch_unwind`,
//! which cannot survive the failure modes that actually end long
//! campaigns: `abort()`, SIGSEGV, stack overflow, the kernel OOM
//! killer, `panic = "abort"` builds. This crate supplies the boundary
//! that can — a supervision tree one level deep:
//!
//! * [`WorkerPool`] — the supervisor. Owns N sandboxed worker
//!   *processes*, leases them to callers one request at a time, and
//!   owns the whole failure policy: heartbeat liveness deadlines
//!   ([`Limits`]), kill-and-restart with capped exponential jittered
//!   backoff ([`vm_harden::RetryPolicy`]), a crash-loop circuit breaker
//!   ([`vm_harden::Breaker`]), and orphan reaping on drop.
//! * [`worker_loop`] — the worker runtime. One request line in, one
//!   reply line out, `{"j":"hb"}` heartbeats in between, clean exit at
//!   stdin EOF (the supervisor's death closes the pipe, so workers
//!   never orphan).
//! * [`WorkerCommand`] — how workers launch; production pools re-invoke
//!   the current executable (`repro worker`), tests substitute anything
//!   that speaks the protocol.
//!
//! The pool is *payload-agnostic*: requests and replies are opaque
//! lines. `vm-explore` layers the sweep-point protocol on top and keeps
//! its bit-exact result codec, so process-isolated sweeps merge
//! bit-identically to in-process ones.
//!
//! Supervision telemetry (`worker_spawned` / `worker_crashed` /
//! `worker_restarted` / `breaker_tripped`) is buffered as typed
//! [`vm_obs::Event`]s — drain with [`WorkerPool::take_events`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
mod proc;
pub mod worker;

pub use pool::{Limits, PoolConfig, PoolError, PoolStats, WorkerPool};
pub use proc::{describe_exit, WorkerCommand};
pub use worker::{
    maybe_kill_for_test, worker_loop, DEFAULT_HEARTBEAT_INTERVAL, HEARTBEAT_LINE, HEARTBEAT_PREFIX,
};
