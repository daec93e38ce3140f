//! `vm-fleet` — shard one sweep across many `repro serve` daemons.
//!
//! A single hardened daemon (vm-serve) is one process on one box; the
//! north star is campaign-scale sweeps. This crate adds the scale-out
//! coordinator behind `repro fleet`: it partitions a sweep grid across
//! N backends speaking the existing NDJSON job protocol as a plain
//! client, and merges the shards back into artifacts that are
//! *byte-identical* to a single-node run — sharding is an operational
//! choice, never a scientific one.
//!
//! The moving parts, one module each:
//!
//! * [`shard`] — deterministic FNV-1a hash-sharding of points by label,
//!   so the same grid lands on the same backends run after run.
//! * [`plan`] — the global fleet plan: the merged sweep grid plus the
//!   per-point base-spec text each single-point job re-expands from.
//! * [`backend`] — one fleet slot: spawn-or-connect, health checks with
//!   `vm_harden` backoff, and eviction by the same failures-in-window
//!   [`vm_harden::Breaker`] the supervise crash-loop breaker counts with.
//! * [`coordinator`] — the dispatch loop: one driver thread per
//!   backend, home-shard affinity with work stealing, hedged re-dispatch
//!   of stragglers (first result wins), and point re-queue when a
//!   backend dies mid-job.
//! * [`membership`] — elastic membership: the slot lifecycle
//!   (active → probation → rejoin, or dead/left) and the coordinator's
//!   `join`/`leave`/`roster` control channel, served on its own thread.
//! * [`mod@merge`] — first-result-wins dedup and the bit-exact merge: shard
//!   payloads round-trip through the `vm_explore` result codec into a
//!   journal byte-identical to a clean single-node `--jobs 1` run.
//! * [`watch`] — fan-in of every backend's `watch` stream into one
//!   [`vm_serve::WatchHub`], plus a proxy listener so `repro watch`
//!   points at a fleet exactly like it points at a daemon.
//!
//! Both listeners are thin handlers on vm-serve's connection code
//! ([`vm_serve::conn`]): the daemon's accept loop, bounded request
//! reader (`413` past the line limit) and watch-frame loop.
//!
//! Throughput is measured outside the crate, by the repository
//! benchmark's `fleet-sweep` workload (`perfbench/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod coordinator;
pub mod membership;
pub mod merge;
pub mod plan;
pub mod shard;
pub mod watch;

pub use backend::{Backend, ShutdownOutcome};
pub use coordinator::{run_fleet, FleetOptions, FleetOutcome, FleetSession, SlotReport};
pub use membership::{ControlChannel, ControlCmd, Slot, SlotState};
pub use merge::{merge, rebind_payload, MergeSet, MergedRun, Offer};
pub use plan::{fleet_plan, FleetPlan};
pub use shard::{partition, shard_of};
/// When the fleet evicts a backend: more than `max_failures` transport
/// or job failures inside the sliding `window`.
pub use vm_harden::BreakerPolicy as EvictPolicy;
pub use watch::{fan_in_backend, WatchProxy};
