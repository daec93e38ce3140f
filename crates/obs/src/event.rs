//! Typed simulation events.
//!
//! Events describe *what happened* in the simulated memory system; sinks
//! decide what to do with them (count, histogram, serialize, drop). The
//! enum is deliberately small and `Copy` so emitting into a recording
//! sink is cheap and the no-op path can discard events for free.

use vm_types::{AccessKind, HandlerLevel, MissClass, Vpn};

use crate::json::Value;

/// Which simulated cache an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheId {
    /// Level-1 instruction cache.
    L1I,
    /// Level-1 data cache.
    L1D,
    /// Level-2 instruction cache (or the unified L2 on I-side fills).
    L2I,
    /// Level-2 data cache (or the unified L2 on D-side fills).
    L2D,
}

impl CacheId {
    /// Short lower-case label (`l1i`, `l1d`, `l2i`, `l2d`).
    pub fn label(self) -> &'static str {
        match self {
            CacheId::L1I => "l1i",
            CacheId::L1D => "l1d",
            CacheId::L2I => "l2i",
            CacheId::L2D => "l2d",
        }
    }
}

/// Why a fleet backend was removed from rotation.
///
/// Carried on [`Event::BackendEvicted`] so serve-stats can break
/// evictions down by cause instead of reporting one opaque count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictReason {
    /// The startup health gate (or an idle keepalive probe) failed.
    Health,
    /// Transport errors talking to the daemon (connect/read/write).
    Transport,
    /// The backend kept failing the points it was given.
    PointFault,
    /// An operator drained the slot via the control channel's `leave`.
    Left,
    /// The backend returned a result that failed an integrity check
    /// (divergent duplicate, failed audit, or quorum minority) and was
    /// quarantined. Re-admission requires passing an audit, not just a
    /// health probe.
    Integrity,
}

impl EvictReason {
    /// Stable lower-case label (the `reason` field in JSONL).
    pub fn label(self) -> &'static str {
        match self {
            EvictReason::Health => "health",
            EvictReason::Transport => "transport",
            EvictReason::PointFault => "point_fault",
            EvictReason::Left => "left",
            EvictReason::Integrity => "integrity",
        }
    }

    /// Parses a label back into a reason (`None` for unknown labels, so
    /// readers can count rather than drop reasons newer than they are).
    pub fn from_label(s: &str) -> Option<EvictReason> {
        match s {
            "health" => Some(EvictReason::Health),
            "transport" => Some(EvictReason::Transport),
            "point_fault" => Some(EvictReason::PointFault),
            "left" => Some(EvictReason::Left),
            "integrity" => Some(EvictReason::Integrity),
            _ => None,
        }
    }
}

/// A single observable occurrence inside the simulator.
///
/// The `now` timestamp (user instructions retired so far) is passed
/// alongside the event by [`crate::Sink::emit`] rather than stored here,
/// so events stay `Copy` and timestamp handling lives in one place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A TLB lookup missed and a refill was started.
    TlbMiss {
        /// Which reference class took the miss.
        class: AccessKind,
        /// Handler nesting level the miss was taken at.
        level: HandlerLevel,
        /// The virtual page that missed.
        vpn: Vpn,
        /// Address-space identifier of the missing page.
        asid: u16,
    },
    /// A page-table walk (one TLB refill) finished.
    WalkComplete {
        /// Handler nesting level of the walk.
        level: HandlerLevel,
        /// Estimated machine cycles the walk cost (handler instructions
        /// plus memory-hierarchy penalties at Table 2/3 prices).
        cycles: u64,
        /// Memory references the walk itself issued (PTE loads plus
        /// handler instruction fetches).
        memrefs: u64,
    },
    /// A miss-handler code fetch evicted a line from a cache.
    HandlerEviction {
        /// The cache the victim line lived in.
        which_cache: CacheId,
    },
    /// The TLB was flushed on a simulated context switch.
    ContextSwitchFlush {
        /// Entries that were valid (and lost) at flush time.
        entries_lost: u32,
    },
    /// A precise interrupt was charged (e.g. for a hardware-walker miss
    /// or a protection fault into the OS).
    Interrupt {
        /// Handler nesting level the interrupt was charged at.
        level: HandlerLevel,
    },
    /// A memory reference was satisfied somewhere in the hierarchy.
    /// Only emitted for references that missed the L1 (hit volume would
    /// swamp any stream; L1 hits are reconstructable from counters).
    CacheMiss {
        /// Which reference class missed.
        class: AccessKind,
        /// Where the reference was finally satisfied.
        filled_from: MissClass,
    },
    /// A TLB insertion displaced a live entry.
    TlbEviction {
        /// Which reference class's TLB (Fetch = I-TLB, Load/Store = D-TLB).
        class: AccessKind,
        /// The virtual page that was displaced.
        victim: Vpn,
    },
    /// A design-space sweep (`vm-explore`) started executing.
    SweepStarted {
        /// Number of valid points the sweep will simulate.
        points: u64,
        /// Number of swept axes (0 for a plain spec run).
        axes: u32,
        /// Worker threads the executor was given.
        jobs: u32,
    },
    /// One sweep point finished simulating. Emitted in point order after
    /// the order-independent merge, so event streams are deterministic
    /// regardless of worker count.
    SweepPointDone {
        /// The point's index in sweep order.
        index: u64,
        /// User instructions measured at this point.
        instrs: u64,
        /// The point's VM overhead (VMCPI + interrupt CPI), in millionths
        /// of a cycle per instruction (events carry integers only).
        vm_total_micro: u64,
    },
    /// One sweep point failed (or timed out) and was isolated to a
    /// failure outcome instead of killing the run.
    PointFailed {
        /// The point's index in sweep order.
        index: u64,
        /// Attempts consumed: 1, or a crash-looping worker point's
        /// restarts plus one.
        attempts: u32,
        /// Whether the failure was a budget timeout (vs an error/panic).
        timed_out: bool,
    },
    /// A sweep resumed from a run journal instead of starting cold.
    RunResumed {
        /// Points restored from the journal (not re-simulated).
        completed: u64,
        /// Points left to simulate (including journaled failures).
        remaining: u64,
    },
    /// A `vm-serve` job passed admission control and entered the queue.
    JobAdmitted {
        /// The job's daemon-assigned id.
        job: u64,
        /// Jobs waiting in the queue at admission (this one included).
        queue_depth: u64,
        /// Whether the watermark downgraded the job to quick fidelity.
        degraded: bool,
    },
    /// A `vm-serve` submission was shed (queue full or daemon draining).
    JobShed {
        /// Jobs waiting in the queue when the submission was refused.
        queue_depth: u64,
    },
    /// A `vm-serve` job finished running (its points may have failed).
    JobDone {
        /// The job's daemon-assigned id.
        job: u64,
        /// Sweep points that completed.
        points: u64,
        /// Sweep points that failed, timed out, or were cancelled.
        failed: u64,
        /// Wall-clock milliseconds from admission to completion.
        wall_ms: u64,
    },
    /// A `vm-serve` daemon began draining (stopped admitting work).
    DrainStarted {
        /// Jobs still queued or running when the drain began.
        pending: u64,
    },
    /// A `vm-supervise` worker process was spawned into a pool slot.
    WorkerSpawned {
        /// The pool slot the worker occupies.
        worker: u64,
        /// The worker's OS process id.
        pid: u64,
    },
    /// A supervised worker died or was killed (abort, signal, OOM kill,
    /// missed heartbeat) while holding a request.
    WorkerCrashed {
        /// The pool slot whose worker died.
        worker: u64,
        /// The request tag (sweep-point index) the worker was running.
        point: u64,
        /// Restarts already consumed by this request before the crash.
        restarts: u32,
    },
    /// A supervised worker was respawned after a crash, with backoff.
    WorkerRestarted {
        /// The pool slot that was restarted.
        worker: u64,
        /// The restarted worker's OS process id.
        pid: u64,
        /// Restart number for the in-flight request (1 = first restart).
        restarts: u32,
    },
    /// The crash-loop breaker gave up on a request: too many restarts
    /// inside the window, so the point is marked `crash` and the sweep
    /// moves on.
    BreakerTripped {
        /// The pool slot whose worker kept dying.
        worker: u64,
        /// The request tag (sweep-point index) being abandoned.
        point: u64,
        /// Restarts consumed before the breaker opened.
        restarts: u32,
    },
    /// A `vm-fleet` coordinator dispatched one sweep point to a backend
    /// as a single-point serve job.
    ShardDispatched {
        /// The point's index in global sweep order.
        point: u64,
        /// The point's home shard (hash of its label mod fleet size).
        shard: u64,
        /// The backend the job actually went to (differs from `shard`
        /// when the home backend was evicted and the point re-homed).
        backend: u64,
    },
    /// A straggling in-flight point was hedged: duplicated onto an idle
    /// healthy backend, first result wins.
    ShardHedged {
        /// The point's index in global sweep order.
        point: u64,
        /// The backend the original dispatch is still running on.
        from: u64,
        /// The idle backend the duplicate was dispatched to.
        to: u64,
    },
    /// A fleet backend tripped its eviction breaker (too many transport
    /// or job failures inside the window) and was removed from rotation;
    /// its in-flight points return to the pending pool.
    BackendEvicted {
        /// The evicted backend's fleet slot.
        backend: u64,
        /// Failures inside the breaker window when it tripped.
        failures: u32,
        /// Why the slot was removed from rotation.
        reason: EvictReason,
    },
    /// A backend joined the fleet mid-run via the control channel. It
    /// receives only still-pending points — completed points are never
    /// reassigned, preserving first-result-wins dedup.
    BackendJoined {
        /// The fleet slot assigned to the new backend.
        backend: u64,
        /// Points still pending when the backend joined.
        pending: u64,
    },
    /// An evicted backend entered probation: it will be re-probed after
    /// the probation interval instead of staying dead forever.
    BackendProbation {
        /// The slot placed on probation.
        backend: u64,
        /// Milliseconds until the next health probe.
        retry_ms: u64,
    },
    /// A probationary backend passed its health probe and was re-admitted
    /// with a fresh breaker but a reduced dispatch budget (no hedging)
    /// until it completes a point cleanly.
    BackendRejoined {
        /// The slot that rejoined.
        backend: u64,
        /// Health probes spent before one passed.
        probes: u32,
    },
    /// A rejoined backend completed a point cleanly and left its reduced
    /// dispatch budget — it is back to full rotation.
    BackendRecovered {
        /// The slot that recovered.
        backend: u64,
        /// The point whose clean completion cleared probation.
        point: u64,
    },
    /// Two copies of the same point (hedge winner and loser) disagreed
    /// bit-for-bit — one of the two backends computed a wrong answer.
    /// Both sources are marked suspect and the point is arbitrated by a
    /// third backend (2-of-3 quorum).
    ResultDiverged {
        /// The point whose copies disagreed.
        point: u64,
        /// The backend whose copy arrived first (the candidate winner).
        first: u64,
        /// The backend whose later copy disagreed.
        second: u64,
    },
    /// An audit re-execution reproduced the accepted result bit-for-bit
    /// on a different backend.
    AuditPassed {
        /// The audited point.
        point: u64,
        /// The backend whose accepted result was confirmed.
        backend: u64,
    },
    /// An audit re-execution disagreed with the accepted result — the
    /// original backend or the auditor is lying; the point goes to
    /// quorum and both backends are suspect until it resolves.
    AuditFailed {
        /// The audited point.
        point: u64,
        /// The backend whose accepted result failed confirmation.
        backend: u64,
        /// The backend that ran the audit.
        auditor: u64,
    },
    /// A backend was quarantined for an integrity violation: its
    /// unconfirmed results are invalidated and re-run elsewhere, and it
    /// only rejoins by passing an audit, not just a health probe.
    BackendQuarantined {
        /// The quarantined backend's fleet slot.
        backend: u64,
        /// The point whose arbitration convicted it.
        point: u64,
    },
    /// A fleet run merged its shard results into the final journal and
    /// CSV (bit-identical to a single-node run of the same grid).
    FleetMerged {
        /// Points in the merged run (completed plus failed).
        points: u64,
        /// Backends still healthy at merge time.
        backends: u64,
        /// Hedge dispatches issued over the whole run.
        hedged: u64,
        /// Duplicate results that matched their winner bit-for-bit
        /// (the determinism contract holding under hedging).
        duplicates_identical: u64,
        /// Duplicate results that disagreed with their winner (each one
        /// an integrity incident that went to quorum).
        duplicates_divergent: u64,
    },
    /// A `vm-serve` trace upload was admitted and a staging file opened
    /// (`resumed` when it reattached to an existing partial).
    UploadStarted {
        /// The daemon-assigned upload id.
        upload: u64,
        /// Bytes the client declared it will send.
        declared_bytes: u64,
        /// Bytes already staged (0 for a fresh upload, more on resume).
        staged_bytes: u64,
    },
    /// One upload chunk passed its checksum and was staged durably.
    ChunkReceived {
        /// The upload the chunk belongs to.
        upload: u64,
        /// The chunk's sequence number.
        seq: u64,
        /// Decoded payload bytes in the chunk.
        bytes: u64,
    },
    /// An upload committed: fingerprint verified, trace decoded end to
    /// end, file installed into the library.
    UploadCommitted {
        /// The committed upload's id.
        upload: u64,
        /// Total bytes in the committed trace.
        bytes: u64,
        /// Instruction records the trace decodes to.
        records: u64,
    },
    /// An upload (or one of its chunks) was rejected; `code` is the
    /// HTTP-flavored response code (400 checksum/decode, 409 conflict,
    /// 413 quota, 429 backpressure, 499 client abort).
    UploadRejected {
        /// The rejected upload's id (0 when rejected before admission).
        upload: u64,
        /// The response code the client saw.
        code: u64,
    },
    /// An orphaned staged upload passed its TTL and was garbage-collected.
    UploadGc {
        /// The collected upload's id.
        upload: u64,
        /// Staged bytes reclaimed.
        bytes: u64,
    },
}

impl Event {
    /// Stable machine-readable event name (the `ev` field in JSONL).
    pub fn name(&self) -> &'static str {
        match self {
            Event::TlbMiss { .. } => "tlb_miss",
            Event::WalkComplete { .. } => "walk_complete",
            Event::HandlerEviction { .. } => "handler_eviction",
            Event::ContextSwitchFlush { .. } => "context_switch_flush",
            Event::Interrupt { .. } => "interrupt",
            Event::CacheMiss { .. } => "cache_miss",
            Event::TlbEviction { .. } => "tlb_eviction",
            Event::SweepStarted { .. } => "sweep_started",
            Event::SweepPointDone { .. } => "sweep_point_done",
            Event::PointFailed { .. } => "point_failed",
            Event::RunResumed { .. } => "run_resumed",
            Event::JobAdmitted { .. } => "job_admitted",
            Event::JobShed { .. } => "job_shed",
            Event::JobDone { .. } => "job_done",
            Event::DrainStarted { .. } => "drain_started",
            Event::WorkerSpawned { .. } => "worker_spawned",
            Event::WorkerCrashed { .. } => "worker_crashed",
            Event::WorkerRestarted { .. } => "worker_restarted",
            Event::BreakerTripped { .. } => "breaker_tripped",
            Event::ShardDispatched { .. } => "shard_dispatched",
            Event::ShardHedged { .. } => "shard_hedged",
            Event::BackendEvicted { .. } => "backend_evicted",
            Event::BackendJoined { .. } => "backend_joined",
            Event::BackendProbation { .. } => "backend_probation",
            Event::BackendRejoined { .. } => "backend_rejoined",
            Event::BackendRecovered { .. } => "backend_recovered",
            Event::ResultDiverged { .. } => "result_diverged",
            Event::AuditPassed { .. } => "audit_passed",
            Event::AuditFailed { .. } => "audit_failed",
            Event::BackendQuarantined { .. } => "backend_quarantined",
            Event::FleetMerged { .. } => "fleet_merged",
            Event::UploadStarted { .. } => "upload_started",
            Event::ChunkReceived { .. } => "chunk_received",
            Event::UploadCommitted { .. } => "upload_committed",
            Event::UploadRejected { .. } => "upload_rejected",
            Event::UploadGc { .. } => "upload_gc",
        }
    }

    /// Serializes the event (with its timestamp) to the stable JSONL
    /// object schema: `{"t":…,"ev":…, …payload}`.
    pub fn to_json(&self, now: u64) -> Value {
        let mut pairs: Vec<(String, Value)> =
            vec![("t".to_owned(), now.into()), ("ev".to_owned(), self.name().into())];
        let mut put = |k: &str, v: Value| pairs.push((k.to_owned(), v));
        match *self {
            Event::TlbMiss { class, level, vpn, asid } => {
                put("class", class.to_string().into());
                put("level", level.to_string().into());
                put("vpn", vpn.raw().into());
                put("asid", asid.into());
            }
            Event::WalkComplete { level, cycles, memrefs } => {
                put("level", level.to_string().into());
                put("cycles", cycles.into());
                put("memrefs", memrefs.into());
            }
            Event::HandlerEviction { which_cache } => {
                put("cache", which_cache.label().into());
            }
            Event::ContextSwitchFlush { entries_lost } => {
                put("entries_lost", entries_lost.into());
            }
            Event::Interrupt { level } => {
                put("level", level.to_string().into());
            }
            Event::CacheMiss { class, filled_from } => {
                put("class", class.to_string().into());
                put("filled_from", filled_from.to_string().into());
            }
            Event::TlbEviction { class, victim } => {
                put("class", class.to_string().into());
                put("victim", victim.raw().into());
            }
            Event::SweepStarted { points, axes, jobs } => {
                put("points", points.into());
                put("axes", axes.into());
                put("jobs", jobs.into());
            }
            Event::SweepPointDone { index, instrs, vm_total_micro } => {
                put("index", index.into());
                put("instrs", instrs.into());
                put("vm_total_micro", vm_total_micro.into());
            }
            Event::PointFailed { index, attempts, timed_out } => {
                put("index", index.into());
                put("attempts", attempts.into());
                put("timed_out", Value::Bool(timed_out));
            }
            Event::RunResumed { completed, remaining } => {
                put("completed", completed.into());
                put("remaining", remaining.into());
            }
            Event::JobAdmitted { job, queue_depth, degraded } => {
                put("job", job.into());
                put("queue_depth", queue_depth.into());
                put("degraded", Value::Bool(degraded));
            }
            Event::JobShed { queue_depth } => {
                put("queue_depth", queue_depth.into());
            }
            Event::JobDone { job, points, failed, wall_ms } => {
                put("job", job.into());
                put("points", points.into());
                put("failed", failed.into());
                put("wall_ms", wall_ms.into());
            }
            Event::DrainStarted { pending } => {
                put("pending", pending.into());
            }
            Event::WorkerSpawned { worker, pid } => {
                put("worker", worker.into());
                put("pid", pid.into());
            }
            Event::WorkerCrashed { worker, point, restarts } => {
                put("worker", worker.into());
                put("point", point.into());
                put("restarts", restarts.into());
            }
            Event::WorkerRestarted { worker, pid, restarts } => {
                put("worker", worker.into());
                put("pid", pid.into());
                put("restarts", restarts.into());
            }
            Event::BreakerTripped { worker, point, restarts } => {
                put("worker", worker.into());
                put("point", point.into());
                put("restarts", restarts.into());
            }
            Event::ShardDispatched { point, shard, backend } => {
                put("point", point.into());
                put("shard", shard.into());
                put("backend", backend.into());
            }
            Event::ShardHedged { point, from, to } => {
                put("point", point.into());
                put("from", from.into());
                put("to", to.into());
            }
            Event::BackendEvicted { backend, failures, reason } => {
                put("backend", backend.into());
                put("failures", failures.into());
                put("reason", reason.label().into());
            }
            Event::BackendJoined { backend, pending } => {
                put("backend", backend.into());
                put("pending", pending.into());
            }
            Event::BackendProbation { backend, retry_ms } => {
                put("backend", backend.into());
                put("retry_ms", retry_ms.into());
            }
            Event::BackendRejoined { backend, probes } => {
                put("backend", backend.into());
                put("probes", probes.into());
            }
            Event::BackendRecovered { backend, point } => {
                put("backend", backend.into());
                put("point", point.into());
            }
            Event::ResultDiverged { point, first, second } => {
                put("point", point.into());
                put("first", first.into());
                put("second", second.into());
            }
            Event::AuditPassed { point, backend } => {
                put("point", point.into());
                put("backend", backend.into());
            }
            Event::AuditFailed { point, backend, auditor } => {
                put("point", point.into());
                put("backend", backend.into());
                put("auditor", auditor.into());
            }
            Event::BackendQuarantined { backend, point } => {
                put("backend", backend.into());
                put("point", point.into());
            }
            Event::FleetMerged {
                points,
                backends,
                hedged,
                duplicates_identical,
                duplicates_divergent,
            } => {
                put("points", points.into());
                put("backends", backends.into());
                put("hedged", hedged.into());
                put("duplicates_identical", duplicates_identical.into());
                put("duplicates_divergent", duplicates_divergent.into());
            }
            Event::UploadStarted { upload, declared_bytes, staged_bytes } => {
                put("upload", upload.into());
                put("declared_bytes", declared_bytes.into());
                put("staged_bytes", staged_bytes.into());
            }
            Event::ChunkReceived { upload, seq, bytes } => {
                put("upload", upload.into());
                put("seq", seq.into());
                put("bytes", bytes.into());
            }
            Event::UploadCommitted { upload, bytes, records } => {
                put("upload", upload.into());
                put("bytes", bytes.into());
                put("records", records.into());
            }
            Event::UploadRejected { upload, code } => {
                put("upload", upload.into());
                put("code", code.into());
            }
            Event::UploadGc { upload, bytes } => {
                put("upload", upload.into());
                put("bytes", bytes.into());
            }
        }
        Value::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use vm_types::AddressSpace;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::TlbMiss {
                class: AccessKind::Load,
                level: HandlerLevel::User,
                vpn: Vpn::new(AddressSpace::User, 0x1234),
                asid: 3,
            },
            Event::WalkComplete { level: HandlerLevel::User, cycles: 42, memrefs: 3 },
            Event::HandlerEviction { which_cache: CacheId::L1I },
            Event::ContextSwitchFlush { entries_lost: 17 },
            Event::Interrupt { level: HandlerLevel::Kernel },
            Event::CacheMiss { class: AccessKind::Fetch, filled_from: MissClass::Memory },
            Event::TlbEviction {
                class: AccessKind::Store,
                victim: Vpn::new(AddressSpace::User, 9),
            },
            Event::SweepStarted { points: 24, axes: 2, jobs: 4 },
            Event::SweepPointDone { index: 3, instrs: 500_000, vm_total_micro: 81_230 },
            Event::PointFailed { index: 5, attempts: 3, timed_out: false },
            Event::RunResumed { completed: 19, remaining: 5 },
            Event::JobAdmitted { job: 7, queue_depth: 3, degraded: true },
            Event::JobShed { queue_depth: 8 },
            Event::JobDone { job: 7, points: 4, failed: 1, wall_ms: 1250 },
            Event::DrainStarted { pending: 2 },
            Event::WorkerSpawned { worker: 0, pid: 4242 },
            Event::WorkerCrashed { worker: 0, point: 5, restarts: 0 },
            Event::WorkerRestarted { worker: 0, pid: 4243, restarts: 1 },
            Event::BreakerTripped { worker: 0, point: 5, restarts: 3 },
            Event::ShardDispatched { point: 11, shard: 2, backend: 1 },
            Event::ShardHedged { point: 11, from: 1, to: 3 },
            Event::BackendEvicted { backend: 1, failures: 4, reason: EvictReason::Transport },
            Event::BackendJoined { backend: 3, pending: 9 },
            Event::BackendProbation { backend: 1, retry_ms: 5000 },
            Event::BackendRejoined { backend: 1, probes: 2 },
            Event::BackendRecovered { backend: 1, point: 17 },
            Event::ResultDiverged { point: 11, first: 1, second: 3 },
            Event::AuditPassed { point: 7, backend: 2 },
            Event::AuditFailed { point: 9, backend: 0, auditor: 2 },
            Event::BackendQuarantined { backend: 0, point: 9 },
            Event::FleetMerged {
                points: 24,
                backends: 3,
                hedged: 1,
                duplicates_identical: 1,
                duplicates_divergent: 0,
            },
            Event::UploadStarted { upload: 2, declared_bytes: 8_388_608, staged_bytes: 0 },
            Event::ChunkReceived { upload: 2, seq: 4, bytes: 262_144 },
            Event::UploadCommitted { upload: 2, bytes: 8_388_608, records: 491_520 },
            Event::UploadRejected { upload: 3, code: 413 },
            Event::UploadGc { upload: 1, bytes: 524_288 },
        ]
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let names: Vec<_> = sample_events().iter().map(|e| e.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{n}");
        }
    }

    #[test]
    fn evict_reason_labels_round_trip() {
        for r in [
            EvictReason::Health,
            EvictReason::Transport,
            EvictReason::PointFault,
            EvictReason::Left,
            EvictReason::Integrity,
        ] {
            assert_eq!(EvictReason::from_label(r.label()), Some(r));
        }
        assert_eq!(EvictReason::from_label("cosmic_rays"), None);
    }

    #[test]
    fn json_always_has_t_and_ev() {
        for (i, ev) in sample_events().into_iter().enumerate() {
            let v = ev.to_json(i as u64);
            assert_eq!(v.get("t").unwrap().as_u64(), Some(i as u64));
            assert_eq!(v.get("ev").unwrap().as_str(), Some(ev.name()));
            // Every line the simulator writes must be parseable.
            assert_eq!(json::parse(&v.to_string()).unwrap(), v);
        }
    }
}
