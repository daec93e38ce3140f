//! The `serve-stats` report: daemon lifecycle telemetry from an obs
//! JSONL event stream.
//!
//! The daemon appends one JSON line per `job_admitted` / `job_shed` /
//! `job_done` / `drain_started` event (`--events FILE`). This module
//! folds such a stream back into counters and [`LogHist`] distributions
//! of queue depth and job latency — the offline twin of the live
//! `stats` request, and it survives the daemon: streams from several
//! daemon lifetimes concatenate naturally.

use vm_obs::json::{self, Value};
use vm_obs::LogHist;

/// Event kinds this report deliberately ignores: simulation-level
/// telemetry with nothing to fold into daemon lifecycle counters.
/// Anything not here and not matched explicitly is *unknown* and gets
/// counted and reported, never silently dropped.
const KNOWN_SIM_EVENTS: &[&str] = &[
    "tlb_miss",
    "walk_complete",
    "handler_eviction",
    "context_switch_flush",
    "interrupt",
    "cache_miss",
    "tlb_eviction",
    "sweep_started",
    "sweep_point_done",
    "point_failed",
    // No longer emitted (points run once), but streams written by
    // older builds still carry it.
    "point_retried",
    "run_resumed",
];

/// Aggregated lifecycle telemetry from one or more event streams.
#[derive(Debug, Clone, Default)]
pub struct EventReport {
    /// Event lines consumed (all kinds, including non-serve events).
    pub lines: u64,
    /// `job_admitted` events.
    pub admitted: u64,
    /// ... of which were admitted at degraded fidelity.
    pub degraded: u64,
    /// `job_shed` events.
    pub shed: u64,
    /// `job_done` events.
    pub done: u64,
    /// ... of which reported at least one failed point.
    pub with_failures: u64,
    /// Total points completed across finished jobs.
    pub points: u64,
    /// Total failed points across finished jobs.
    pub failed_points: u64,
    /// `drain_started` events.
    pub drains: u64,
    /// Jobs pending at the most recent drain.
    pub last_drain_pending: u64,
    /// `worker_spawned` events (worker subprocesses started).
    pub worker_spawns: u64,
    /// `worker_crashed` events (a worker subprocess died on a point).
    pub worker_crashes: u64,
    /// `worker_restarted` events (supervisor replaced a dead worker).
    pub worker_restarts: u64,
    /// `breaker_tripped` events (a point exhausted its restart budget).
    pub breaker_trips: u64,
    /// `shard_dispatched` events (fleet point-jobs sent to backends).
    pub shard_dispatches: u64,
    /// `shard_hedged` events (straggler points duplicated to an idle
    /// backend).
    pub shard_hedges: u64,
    /// `backend_evicted` events (fleet backends removed from rotation).
    pub backend_evictions: u64,
    /// Eviction counts by `reason` label (`health`, `transport`,
    /// `point_fault`, `left`, …). Reasons newer than this binary are
    /// counted under their label, never dropped; a missing field is
    /// `(unspecified)`.
    pub evict_reasons: std::collections::BTreeMap<String, u64>,
    /// `backend_joined` events (backends added mid-run via the control
    /// channel).
    pub backend_joins: u64,
    /// `backend_probation` events (evicted backends scheduled for a
    /// rejoin probe).
    pub backend_probations: u64,
    /// `backend_rejoined` events (probationary backends re-admitted).
    pub backend_rejoins: u64,
    /// `backend_recovered` events (rejoined backends back to a full
    /// dispatch budget after a clean point).
    pub backend_recoveries: u64,
    /// `fleet_merged` events (fleet runs that reached the merge).
    pub fleet_merges: u64,
    /// Duplicate results that matched their winner bit-for-bit across
    /// merged fleet runs (legacy streams with an unsplit `duplicates`
    /// field count here — a pre-split merge never kept a divergent
    /// duplicate alive).
    pub fleet_duplicates_identical: u64,
    /// Duplicate results that disagreed with their winner — each one an
    /// integrity incident that went to quorum.
    pub fleet_duplicates_divergent: u64,
    /// `result_diverged` events (hedge duplicates that disagreed
    /// bit-for-bit with the first result).
    pub result_divergences: u64,
    /// `audit_passed` events (sampled re-executions that matched).
    pub audits_passed: u64,
    /// `audit_failed` events (sampled re-executions that disagreed).
    pub audits_failed: u64,
    /// `backend_quarantined` events (backends pulled from rotation for
    /// returning wrong bits).
    pub backend_quarantines: u64,
    /// `upload_started` events (new uploads plus resumes).
    pub uploads_started: u64,
    /// ... of which resumed an existing partial (`staged_bytes > 0`).
    pub uploads_resumed: u64,
    /// Raw trace bytes staged across `chunk_received` events.
    pub bytes_staged: u64,
    /// `upload_committed` events.
    pub uploads_committed: u64,
    /// Total records across committed uploads.
    pub records_committed: u64,
    /// `upload_rejected` events, by status code label (`400`, `413`,
    /// `429`, `499`, …). Codes newer than this binary are counted
    /// under their label, never dropped.
    pub upload_rejects: std::collections::BTreeMap<String, u64>,
    /// `upload_gc` events (orphaned partials swept on TTL).
    pub uploads_gcd: u64,
    /// Staged bytes reclaimed by those sweeps.
    pub bytes_gcd: u64,
    /// Event kinds outside the known vocabulary, with occurrence
    /// counts. Unknown kinds are *reported*, not silently skipped: a
    /// typo'd or newer-than-this-binary event should be visible.
    pub unknown: std::collections::BTreeMap<String, u64>,
    /// Queue depth at each admission and shed decision.
    pub queue_depth: LogHist,
    /// Job wall time, milliseconds.
    pub latency_ms: LogHist,
    /// End-to-end job latency: `job_admitted` → `job_done` wall-clock
    /// delta, milliseconds (includes queue wait, unlike `latency_ms`).
    pub admit_to_done_ms: LogHist,
}

impl EventReport {
    /// Folds a JSONL event stream (possibly spanning several daemon
    /// lifetimes) into a report. Non-serve events are counted in
    /// `lines` and otherwise ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed non-empty line.
    pub fn from_jsonl(text: &str) -> Result<EventReport, String> {
        let mut report = EventReport::default();
        // Admission timestamps by job id, for the end-to-end latency
        // distribution. `t` is milliseconds since daemon start, so the
        // delta is only meaningful within one lifetime; a job that was
        // admitted in an earlier lifetime (resume) simply isn't paired.
        let mut admitted_at = std::collections::BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("event line {}: {e}", i + 1))?;
            report.lines += 1;
            let int = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
            match v.get("ev").and_then(Value::as_str) {
                Some("job_admitted") => {
                    report.admitted += 1;
                    if matches!(v.get("degraded"), Some(Value::Bool(true))) {
                        report.degraded += 1;
                    }
                    report.queue_depth.record(int("queue_depth"));
                    admitted_at.insert(int("job"), int("t"));
                }
                Some("job_shed") => {
                    report.shed += 1;
                    report.queue_depth.record(int("queue_depth"));
                }
                Some("job_done") => {
                    report.done += 1;
                    report.points += int("points");
                    let failed = int("failed");
                    report.failed_points += failed;
                    if failed > 0 {
                        report.with_failures += 1;
                    }
                    report.latency_ms.record(int("wall_ms").max(1));
                    // Pair with the admission within this lifetime only:
                    // across a restart `t` resets, so the delta would go
                    // negative and is dropped instead of recorded as 0.
                    if let Some(t0) = admitted_at.remove(&int("job")) {
                        let t = int("t");
                        if t >= t0 {
                            report.admit_to_done_ms.record((t - t0).max(1));
                        }
                    }
                }
                Some("drain_started") => {
                    report.drains += 1;
                    report.last_drain_pending = int("pending");
                }
                Some("worker_spawned") => report.worker_spawns += 1,
                Some("worker_crashed") => report.worker_crashes += 1,
                Some("worker_restarted") => report.worker_restarts += 1,
                Some("breaker_tripped") => report.breaker_trips += 1,
                Some("shard_dispatched") => report.shard_dispatches += 1,
                Some("shard_hedged") => report.shard_hedges += 1,
                Some("backend_evicted") => {
                    report.backend_evictions += 1;
                    // Count unknown reason labels too: a reason newer
                    // than this binary should surface, not vanish.
                    let reason = v
                        .get("reason")
                        .and_then(Value::as_str)
                        .unwrap_or("(unspecified)")
                        .to_owned();
                    *report.evict_reasons.entry(reason).or_insert(0) += 1;
                }
                Some("backend_joined") => report.backend_joins += 1,
                Some("backend_probation") => report.backend_probations += 1,
                Some("backend_rejoined") => report.backend_rejoins += 1,
                Some("backend_recovered") => report.backend_recoveries += 1,
                Some("fleet_merged") => {
                    report.fleet_merges += 1;
                    // Streams older than the identical/divergent split
                    // carry one `duplicates` field; those merges only
                    // ever kept identical duplicates.
                    report.fleet_duplicates_identical +=
                        int("duplicates_identical") + int("duplicates");
                    report.fleet_duplicates_divergent += int("duplicates_divergent");
                }
                Some("result_diverged") => report.result_divergences += 1,
                Some("audit_passed") => report.audits_passed += 1,
                Some("audit_failed") => report.audits_failed += 1,
                Some("backend_quarantined") => report.backend_quarantines += 1,
                Some("upload_started") => {
                    report.uploads_started += 1;
                    if int("staged_bytes") > 0 {
                        report.uploads_resumed += 1;
                    }
                }
                Some("chunk_received") => report.bytes_staged += int("bytes"),
                Some("upload_committed") => {
                    report.uploads_committed += 1;
                    report.records_committed += int("records");
                }
                Some("upload_rejected") => {
                    let code = v
                        .get("code")
                        .and_then(Value::as_u64)
                        .map_or_else(|| "(unspecified)".to_owned(), |c| c.to_string());
                    *report.upload_rejects.entry(code).or_insert(0) += 1;
                }
                Some("upload_gc") => {
                    report.uploads_gcd += 1;
                    report.bytes_gcd += int("bytes");
                }
                // Simulation-level events are known but carry nothing
                // this report aggregates.
                Some(kind) if KNOWN_SIM_EVENTS.contains(&kind) => {}
                Some(kind) => *report.unknown.entry(kind.to_owned()).or_insert(0) += 1,
                None => *report.unknown.entry("(no ev field)".to_owned()).or_insert(0) += 1,
            }
        }
        Ok(report)
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("vm-serve event report — {} event line(s)\n", self.lines));
        out.push_str(&format!(
            "  jobs     admitted {} ({} degraded), done {} ({} with failed points), shed {}\n",
            self.admitted, self.degraded, self.done, self.with_failures, self.shed
        ));
        out.push_str(&format!(
            "  points   {} completed, {} failed\n",
            self.points, self.failed_points
        ));
        match self.queue_depth.count() {
            0 => out.push_str("  queue    (no admission decisions recorded)\n"),
            _ => out.push_str(&format!(
                "  queue    {}   (depth at admission/shed)\n",
                self.queue_depth.summary()
            )),
        }
        match self.latency_ms.count() {
            0 => out.push_str("  latency  (no finished jobs recorded)\n"),
            _ => {
                out.push_str(&format!("  latency  {}   (job wall ms)\n", self.latency_ms.summary()))
            }
        }
        if self.admit_to_done_ms.count() > 0 {
            out.push_str(&format!(
                "  e2e      {}   (admission-to-done ms)\n",
                self.admit_to_done_ms.summary()
            ));
        }
        if self.worker_spawns + self.worker_crashes + self.breaker_trips > 0 {
            out.push_str(&format!(
                "  workers  {} spawned, {} crashed, {} restarted, {} breaker trip(s)\n",
                self.worker_spawns, self.worker_crashes, self.worker_restarts, self.breaker_trips
            ));
        }
        if self.shard_dispatches + self.shard_hedges + self.backend_evictions + self.fleet_merges
            > 0
        {
            let reasons = if self.evict_reasons.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> =
                    self.evict_reasons.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
                format!(" [{}]", parts.join(", "))
            };
            out.push_str(&format!(
                "  fleet    {} dispatched, {} hedged, {} backend eviction(s){}, {} merge(s) ({} identical / {} divergent duplicate(s))\n",
                self.shard_dispatches,
                self.shard_hedges,
                self.backend_evictions,
                reasons,
                self.fleet_merges,
                self.fleet_duplicates_identical,
                self.fleet_duplicates_divergent
            ));
        }
        if self.result_divergences
            + self.audits_passed
            + self.audits_failed
            + self.backend_quarantines
            > 0
        {
            out.push_str(&format!(
                "  integrity {} divergence(s), {} audit(s) passed, {} failed, {} quarantine(s)\n",
                self.result_divergences,
                self.audits_passed,
                self.audits_failed,
                self.backend_quarantines
            ));
        }
        if self.backend_joins
            + self.backend_probations
            + self.backend_rejoins
            + self.backend_recoveries
            > 0
        {
            out.push_str(&format!(
                "  elastic  {} joined, {} probation(s), {} rejoined, {} recovered\n",
                self.backend_joins,
                self.backend_probations,
                self.backend_rejoins,
                self.backend_recoveries
            ));
        }
        let rejects: u64 = self.upload_rejects.values().sum();
        if self.uploads_started + rejects + self.uploads_gcd > 0 {
            let reject_detail = if self.upload_rejects.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> =
                    self.upload_rejects.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
                format!(" [{}]", parts.join(", "))
            };
            out.push_str(&format!(
                "  ingest   {} upload(s) ({} resumed), {} byte(s) staged, {} committed ({} record(s)), {} rejection(s){}, {} GC'd ({} byte(s))\n",
                self.uploads_started,
                self.uploads_resumed,
                self.bytes_staged,
                self.uploads_committed,
                self.records_committed,
                rejects,
                reject_detail,
                self.uploads_gcd,
                self.bytes_gcd
            ));
        }
        match self.drains {
            0 => out.push_str("  drains   none\n"),
            n => out.push_str(&format!(
                "  drains   {n}, last with {} job(s) pending\n",
                self.last_drain_pending
            )),
        }
        if !self.unknown.is_empty() {
            let kinds: Vec<String> =
                self.unknown.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
            out.push_str(&format!("  unknown  {}\n", kinds.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_obs::{Event, EvictReason, JsonlSink, Sink};

    fn sample_stream() -> String {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [
            Event::JobAdmitted { job: 1, queue_depth: 1, degraded: false },
            Event::JobAdmitted { job: 2, queue_depth: 2, degraded: true },
            Event::JobShed { queue_depth: 2 },
            Event::JobDone { job: 1, points: 4, failed: 0, wall_ms: 120 },
            Event::JobDone { job: 2, points: 3, failed: 1, wall_ms: 80 },
            Event::WorkerSpawned { worker: 0, pid: 4242 },
            Event::WorkerCrashed { worker: 0, point: 5, restarts: 0 },
            Event::WorkerRestarted { worker: 0, pid: 4243, restarts: 1 },
            Event::BreakerTripped { worker: 0, point: 5, restarts: 3 },
            Event::DrainStarted { pending: 1 },
        ];
        for (t, ev) in events.iter().enumerate() {
            sink.emit(t as u64, ev);
        }
        String::from_utf8(sink.finish().unwrap()).unwrap()
    }

    #[test]
    fn folds_the_lifecycle_counters_and_histograms() {
        let r = EventReport::from_jsonl(&sample_stream()).unwrap();
        assert_eq!((r.lines, r.admitted, r.degraded, r.shed), (10, 2, 1, 1));
        assert_eq!((r.done, r.with_failures), (2, 1));
        assert_eq!((r.points, r.failed_points), (7, 1));
        assert_eq!((r.drains, r.last_drain_pending), (1, 1));
        assert_eq!(
            (r.worker_spawns, r.worker_crashes, r.worker_restarts, r.breaker_trips),
            (1, 1, 1, 1)
        );
        assert_eq!(r.queue_depth.count(), 3); // two admissions + one shed
        assert_eq!(r.latency_ms.count(), 2);
        // job 1: admitted t=0, done t=3; job 2: admitted t=1, done t=4.
        assert_eq!(r.admit_to_done_ms.count(), 2);
        assert_eq!(r.admit_to_done_ms.sum(), 6);
    }

    #[test]
    fn admit_to_done_pairs_within_one_lifetime_only() {
        // A resumed daemon restarts `t` at 0: job 9 is admitted late in
        // lifetime A and finishes early in lifetime B, so its delta
        // would be negative and must be dropped, not recorded as zero.
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(5_000, &Event::JobAdmitted { job: 9, queue_depth: 1, degraded: false });
        sink.emit(100, &Event::JobDone { job: 9, points: 4, failed: 0, wall_ms: 90 });
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let r = EventReport::from_jsonl(&text).unwrap();
        assert_eq!(r.latency_ms.count(), 1, "wall time still counts");
        assert_eq!(r.admit_to_done_ms.count(), 0, "cross-lifetime pair dropped");
        // An unmatched done (admission line lost entirely) is also fine.
        let r = EventReport::from_jsonl(
            "{\"t\":7,\"ev\":\"job_done\",\"job\":1,\"points\":1,\"failed\":0,\"wall_ms\":5}\n",
        )
        .unwrap();
        assert_eq!(r.admit_to_done_ms.count(), 0);
    }

    #[test]
    fn foreign_events_are_tolerated_and_garbage_is_not() {
        let mut text = sample_stream();
        text.push_str("{\"t\":9,\"ev\":\"sweep_started\",\"points\":4,\"axes\":1,\"jobs\":2}\n");
        text.push('\n'); // blank lines are fine
        let r = EventReport::from_jsonl(&text).unwrap();
        assert_eq!(r.lines, 11);
        assert_eq!(r.admitted, 2);
        assert!(r.unknown.is_empty(), "simulation events are known, not unknown");
        assert!(EventReport::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn fleet_events_are_folded_into_their_own_section() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [
            Event::ShardDispatched { point: 0, shard: 1, backend: 1 },
            Event::ShardDispatched { point: 1, shard: 0, backend: 0 },
            Event::ShardHedged { point: 1, from: 0, to: 1 },
            Event::BackendEvicted { backend: 0, failures: 4, reason: EvictReason::Transport },
            Event::FleetMerged {
                points: 2,
                backends: 1,
                hedged: 1,
                duplicates_identical: 1,
                duplicates_divergent: 0,
            },
        ];
        for (t, ev) in events.iter().enumerate() {
            sink.emit(t as u64, ev);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let r = EventReport::from_jsonl(&text).unwrap();
        assert_eq!((r.shard_dispatches, r.shard_hedges), (2, 1));
        assert_eq!((r.backend_evictions, r.fleet_merges, r.fleet_duplicates_identical), (1, 1, 1));
        assert_eq!(r.fleet_duplicates_divergent, 0);
        assert_eq!(r.evict_reasons.get("transport"), Some(&1));
        let rendered = r.render();
        assert!(rendered.contains("fleet    2 dispatched, 1 hedged"), "{rendered}");
        assert!(rendered.contains("(1 identical / 0 divergent duplicate(s))"), "{rendered}");
        assert!(rendered.contains("1 backend eviction(s) [transport ×1]"), "{rendered}");
        // A stream with no fleet activity elides the section entirely.
        let plain = EventReport::from_jsonl(&sample_stream()).unwrap();
        assert!(!plain.render().contains("fleet"), "fleet line must be elided when idle");
    }

    #[test]
    fn elastic_membership_events_get_their_own_line() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [
            Event::BackendJoined { backend: 2, pending: 7 },
            Event::BackendEvicted { backend: 0, failures: 3, reason: EvictReason::Health },
            Event::BackendProbation { backend: 0, retry_ms: 250 },
            Event::BackendRejoined { backend: 0, probes: 2 },
            Event::BackendRecovered { backend: 0, point: 5 },
            Event::BackendEvicted { backend: 1, failures: 0, reason: EvictReason::Left },
        ];
        for (t, ev) in events.iter().enumerate() {
            sink.emit(t as u64, ev);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let r = EventReport::from_jsonl(&text).unwrap();
        assert_eq!(
            (r.backend_joins, r.backend_probations, r.backend_rejoins, r.backend_recoveries),
            (1, 1, 1, 1)
        );
        assert_eq!(r.evict_reasons.get("health"), Some(&1));
        assert_eq!(r.evict_reasons.get("left"), Some(&1));
        assert!(r.unknown.is_empty(), "membership events are known: {:?}", r.unknown);
        let rendered = r.render();
        assert!(
            rendered.contains("elastic  1 joined, 1 probation(s), 1 rejoined, 1 recovered"),
            "{rendered}"
        );
        assert!(rendered.contains("[health ×1, left ×1]"), "{rendered}");
        // No elastic activity → no elastic line.
        let plain = EventReport::from_jsonl(&sample_stream()).unwrap();
        assert!(!plain.render().contains("elastic"), "elastic line must be elided when idle");
    }

    #[test]
    fn ingest_events_fold_into_their_own_section() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [
            Event::UploadStarted { upload: 1, declared_bytes: 4096, staged_bytes: 0 },
            Event::ChunkReceived { upload: 1, seq: 0, bytes: 2048 },
            Event::UploadStarted { upload: 1, declared_bytes: 4096, staged_bytes: 2048 },
            Event::ChunkReceived { upload: 1, seq: 1, bytes: 2048 },
            Event::UploadCommitted { upload: 1, bytes: 4096, records: 250 },
            Event::UploadRejected { upload: 0, code: 429 },
            Event::UploadRejected { upload: 2, code: 400 },
            Event::UploadRejected { upload: 2, code: 400 },
            Event::UploadGc { upload: 3, bytes: 777 },
        ];
        for (t, ev) in events.iter().enumerate() {
            sink.emit(t as u64, ev);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let r = EventReport::from_jsonl(&text).unwrap();
        assert_eq!((r.uploads_started, r.uploads_resumed), (2, 1));
        assert_eq!(r.bytes_staged, 4096);
        assert_eq!((r.uploads_committed, r.records_committed), (1, 250));
        assert_eq!(r.upload_rejects.get("429"), Some(&1));
        assert_eq!(r.upload_rejects.get("400"), Some(&2));
        assert_eq!((r.uploads_gcd, r.bytes_gcd), (1, 777));
        assert!(r.unknown.is_empty(), "ingest events are known: {:?}", r.unknown);
        let rendered = r.render();
        assert!(
            rendered.contains("ingest   2 upload(s) (1 resumed), 4096 byte(s) staged"),
            "{rendered}"
        );
        assert!(rendered.contains("3 rejection(s) [400 ×2, 429 ×1]"), "{rendered}");
        assert!(rendered.contains("1 GC'd (777 byte(s))"), "{rendered}");
        // No ingest activity → no ingest line.
        let plain = EventReport::from_jsonl(&sample_stream()).unwrap();
        assert!(!plain.render().contains("ingest"), "ingest line must be elided when idle");
    }

    #[test]
    fn integrity_events_fold_into_their_own_section() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [
            Event::ResultDiverged { point: 4, first: 1, second: 2 },
            Event::AuditFailed { point: 4, backend: 2, auditor: 0 },
            Event::BackendQuarantined { backend: 2, point: 4 },
            Event::AuditPassed { point: 6, backend: 1 },
            Event::BackendEvicted { backend: 2, failures: 1, reason: EvictReason::Integrity },
        ];
        for (t, ev) in events.iter().enumerate() {
            sink.emit(t as u64, ev);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let r = EventReport::from_jsonl(&text).unwrap();
        assert_eq!(
            (r.result_divergences, r.audits_passed, r.audits_failed, r.backend_quarantines),
            (1, 1, 1, 1)
        );
        assert_eq!(r.evict_reasons.get("integrity"), Some(&1));
        assert!(r.unknown.is_empty(), "integrity events are known: {:?}", r.unknown);
        let rendered = r.render();
        assert!(
            rendered.contains(
                "integrity 1 divergence(s), 1 audit(s) passed, 1 failed, 1 quarantine(s)"
            ),
            "{rendered}"
        );
        // No integrity incidents → no integrity line.
        let plain = EventReport::from_jsonl(&sample_stream()).unwrap();
        assert!(!plain.render().contains("integrity"), "integrity line must be elided when idle");
    }

    #[test]
    fn legacy_unsplit_duplicates_count_as_identical() {
        let text = "{\"t\":1,\"ev\":\"fleet_merged\",\"points\":4,\"backends\":2,\"hedged\":3,\"duplicates\":2}\n";
        let r = EventReport::from_jsonl(text).unwrap();
        assert_eq!(r.fleet_merges, 1);
        assert_eq!(r.fleet_duplicates_identical, 2, "pre-split merges never kept divergent copies");
        assert_eq!(r.fleet_duplicates_divergent, 0);
    }

    #[test]
    fn an_unknown_evict_reason_is_counted_not_dropped() {
        let text = "{\"t\":1,\"ev\":\"backend_evicted\",\"backend\":0,\"failures\":2,\"reason\":\"cosmic_rays\"}\n\
                    {\"t\":2,\"ev\":\"backend_evicted\",\"backend\":1,\"failures\":2}\n";
        let r = EventReport::from_jsonl(text).unwrap();
        assert_eq!(r.backend_evictions, 2);
        assert_eq!(r.evict_reasons.get("cosmic_rays"), Some(&1));
        assert_eq!(r.evict_reasons.get("(unspecified)"), Some(&1));
        let rendered = r.render();
        assert!(rendered.contains("cosmic_rays ×1"), "{rendered}");
    }

    #[test]
    fn unknown_kinds_are_counted_and_reported_once() {
        let mut text = sample_stream();
        text.push_str("{\"t\":1,\"ev\":\"mystery_event\"}\n");
        text.push_str("{\"t\":2,\"ev\":\"mystery_event\"}\n");
        text.push_str("{\"t\":3,\"ev\":\"other_thing\",\"x\":1}\n");
        text.push_str("{\"t\":4,\"x\":1}\n"); // no ev field at all
        let r = EventReport::from_jsonl(&text).unwrap();
        assert_eq!(r.unknown.get("mystery_event"), Some(&2));
        assert_eq!(r.unknown.get("other_thing"), Some(&1));
        assert_eq!(r.unknown.get("(no ev field)"), Some(&1));
        let rendered = r.render();
        assert_eq!(rendered.matches("mystery_event").count(), 1, "reported once: {rendered}");
        assert!(rendered.contains("mystery_event ×2"), "{rendered}");
    }

    #[test]
    fn render_mentions_every_section() {
        let r = EventReport::from_jsonl(&sample_stream()).unwrap();
        let text = r.render();
        for needle in [
            "jobs",
            "points",
            "queue",
            "latency",
            "e2e",
            "drains   1",
            "1 spawned",
            "1 breaker trip",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let empty = EventReport::from_jsonl("").unwrap();
        assert!(empty.render().contains("no admission decisions"));
        assert!(!empty.render().contains("spawned"), "workers line must be elided when idle");
    }
}
