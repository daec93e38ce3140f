//! The process-isolation wire protocol for sweep points.
//!
//! With `--isolation process` every sweep point crosses a process
//! boundary: the executor serializes the point as one request line,
//! a sandboxed `repro worker` (see [`serve_worker`]) deserializes it,
//! runs the *same* measurement path the in-process executor would —
//! chaos injection and walk-cycle budgets included — and replies
//! with the journal entry the executor would have written. Because the
//! reply reuses the journal's bit-exact `f64::to_bits` codec
//! ([`result_to_value`]/[`result_from_value`]) and the spec crosses as
//! its canonical TOML (`parse(to_toml(s)) == s`), a process-isolated
//! sweep merges bit-identically to an in-process one at any `--jobs`
//! count.
//!
//! What the boundary buys: a point that calls `abort()`, segfaults, is
//! SIGKILLed, or is OOM-killed costs one worker process. The supervisor
//! ([`vm_supervise::WorkerPool`]) restarts the worker and re-sends the
//! request; if the point keeps killing workers the crash-loop breaker
//! trips and the point fails as [`FailureKind::Crash`] while the sweep
//! carries on.
//!
//! Wire forms (one JSON object per line):
//!
//! * request — `{"j":"run","index":…,"label":…,"settings":[[k,v]…],
//!   "spec":"<canonical TOML>","warmup":…,"measure":…,"budget":…,
//!   "chaos":"panic@2,abort@5","chaos_seed":…,"library":…}`. The chaos
//!   plan crosses because in-stream faults must fire inside the worker.
//!   The seed is a 16-hex-digit string (an arbitrary `u64` does not
//!   survive a JSON `f64` number). Fields a worker does not read, such
//!   as the retry fields older coordinators sent, are ignored.
//! * reply — the `{"j":"point",…}` journal line
//!   ([`JournalEntry::to_line`]), or `{"j":"err","detail":…}` when the
//!   request itself is malformed (mapped to [`FailureKind::Build`]).

use vm_harden::{ChaosPlan, FailureKind, JournalEntry, PointOutcome};
use vm_obs::json::{self, Value};
use vm_supervise::DEFAULT_HEARTBEAT_INTERVAL;
use vm_supervise::{maybe_kill_for_test, worker_loop, PoolError, WorkerPool};
use vm_trace::wire::{hex64, parse_hex64};

use crate::exec::SweepPointOutcome;
use crate::exec::{measure_point_isolated, point_error, ExecConfig, HardenPolicy};
use crate::journal::{result_from_value, result_to_value};
use crate::spec::SystemSpec;
use crate::stream::StreamTable;
use crate::sweep::PlannedPoint;

/// Encodes an arbitrary `u64` (the chaos seed) as a 16-hex-digit
/// string; a JSON number is an `f64` and would drop bits past 2^53.
fn u64_hex(v: u64) -> Value {
    Value::Str(hex64(v))
}

/// Decodes [`u64_hex`] (canonical lowercase hex64 only — the encoder
/// never emits anything else, so anything else is corruption).
fn u64_from_hex(v: &Value) -> Option<u64> {
    parse_hex64(v.as_str()?)
}

/// Serializes one sweep point plus everything its measurement depends
/// on as a single request line.
pub fn request_line(point: &PlannedPoint, exec: &ExecConfig, policy: &HardenPolicy) -> String {
    let settings = point
        .settings
        .iter()
        .map(|(k, v)| Value::Arr(vec![k.clone().into(), v.clone().into()]))
        .collect();
    Value::obj([
        ("j", "run".into()),
        ("index", (point.index as u64).into()),
        ("label", point.label.clone().into()),
        ("settings", Value::Arr(settings)),
        ("spec", point.spec.to_toml().into()),
        ("warmup", exec.warmup.into()),
        ("measure", exec.measure.into()),
        ("budget", policy.point_budget.map_or(Value::Null, Value::from)),
        ("chaos", policy.chaos.render().into()),
        ("chaos_seed", u64_hex(policy.chaos.seed)),
        (
            "library",
            policy.trace_library.as_ref().map_or(Value::Null, |p| p.display().to_string().into()),
        ),
    ])
    .to_string()
}

/// A request decoded back into everything [`measure_point_isolated`]
/// needs. `policy.process` and `policy.cancel` are always `None` — the
/// worker is the inside of the boundary.
struct WireRequest {
    point: PlannedPoint,
    exec: ExecConfig,
    policy: HardenPolicy,
}

/// Decodes [`request_line`], re-validating the spec (the lowered
/// `SimConfig` is derived, not shipped).
fn parse_request(line: &str) -> Result<WireRequest, String> {
    let v = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    if v.get("j").and_then(Value::as_str) != Some("run") {
        return Err("not a run request".to_owned());
    }
    let int =
        |k: &str| v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("request missing `{k}`"));
    let text = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("request missing `{k}`"))
    };
    let settings = v
        .get("settings")
        .and_then(Value::as_array)
        .ok_or("request missing `settings`")?
        .iter()
        .map(|pair| {
            let kv = pair.as_array().filter(|a| a.len() == 2);
            match kv.map(|a| (a[0].as_str(), a[1].as_str())) {
                Some((Some(k), Some(val))) => Ok((k.to_owned(), val.to_owned())),
                _ => Err("request `settings` entries must be [key, value] string pairs".to_owned()),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let spec = SystemSpec::parse(&text("spec")?).map_err(|e| format!("request spec: {e}"))?;
    let config = spec.validate().map_err(|e| format!("request spec: {e}"))?;
    let budget = match v.get("budget").ok_or("request missing `budget`")? {
        Value::Null => None,
        other => Some(other.as_u64().ok_or("request `budget` not an integer")?),
    };
    let chaos_seed = u64_from_hex(v.get("chaos_seed").ok_or("request missing `chaos_seed`")?)
        .ok_or("request `chaos_seed` not a u64 hex string")?;
    let chaos_text = text("chaos")?;
    let chaos = if chaos_text.is_empty() {
        ChaosPlan::new(chaos_seed)
    } else {
        ChaosPlan::parse(&chaos_text, chaos_seed).map_err(|e| format!("request chaos: {e}"))?
    };
    Ok(WireRequest {
        point: PlannedPoint {
            index: int("index")? as usize,
            label: text("label")?,
            settings,
            spec,
            config,
        },
        exec: ExecConfig { warmup: int("warmup")?, measure: int("measure")?, jobs: 1 },
        policy: HardenPolicy {
            point_budget: budget,
            chaos,
            cancel: None,
            process: None,
            // Checkpoints do not cross the worker wire: a supervised
            // point reports progress at point granularity only.
            progress: None,
            // Optional so requests from older coordinators still parse;
            // the worker then falls back to VM_TRACE_LIBRARY (inherited
            // from the daemon that spawned it).
            trace_library: v.get("library").and_then(Value::as_str).map(std::path::PathBuf::from),
        },
    })
}

/// Handles one request line, returning the reply line. This is the
/// worker's whole job: parse, measure exactly as the in-process
/// executor would, encode. A malformed request replies `{"j":"err"}`
/// instead of killing the worker — the request is the problem, not the
/// process.
pub fn handle_request(line: &str) -> String {
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(detail) => {
            return Value::obj([("j", "err".into()), ("detail", detail.into())]).to_string()
        }
    };
    maybe_kill_for_test(req.point.index as u64);
    let streams = StreamTable::new(req.policy.library(), []);
    let (outcome, attempts) = measure_point_isolated(&req.point, &req.exec, &req.policy, &streams);
    JournalEntry::from_outcome(
        req.point.index as u64,
        &req.point.label,
        &outcome,
        attempts,
        result_to_value,
    )
    .to_line()
}

/// Runs the worker side of the protocol over stdin/stdout until EOF —
/// the body of the (hidden) `repro worker` subcommand. Heartbeats flow
/// while a point simulates, so the supervisor can tell slow from
/// wedged.
///
/// # Errors
///
/// Propagates stdin/stdout failures; a closed pipe means the supervisor
/// is gone, and exiting is the correct response.
pub fn serve_worker() -> std::io::Result<()> {
    let input = std::io::stdin().lock();
    let output = std::io::stdout().lock();
    worker_loop(input, output, DEFAULT_HEARTBEAT_INTERVAL, handle_request)
}

/// Measures one point across the process boundary: one request line to
/// a leased worker, one journal-entry line back, crashes supervised in
/// between. Failure mapping: a tripped crash-loop breaker is
/// [`FailureKind::Crash`] (restarts + 1 attempts), and an unintelligible
/// reply is [`FailureKind::Build`] (a protocol bug, not a simulation
/// result).
pub(crate) fn measure_point_process(
    pool: &WorkerPool,
    point: &PlannedPoint,
    exec: &ExecConfig,
    policy: &HardenPolicy,
) -> (SweepPointOutcome, u32) {
    let request = request_line(point, exec, policy);
    match pool.execute(point.index as u64, &request) {
        Ok(reply) => decode_reply(point, exec, &reply),
        Err(PoolError::CrashLoop { restarts, detail }) => {
            let mut e = point_error(
                point,
                FailureKind::Crash,
                format!("worker crash loop ({restarts} restart(s)): {detail}"),
            );
            e.attempts = restarts + 1;
            (PointOutcome::Failed(e), restarts + 1)
        }
    }
}

/// Decodes a worker reply back into the outcome the in-process path
/// would have produced. The supervisor trusts nothing across the wire:
/// a completed payload must verify against the attestation the worker
/// signed AND the context this side expected — a mismatch (stale worker
/// binary, corrupted pipe, lying subprocess) fails the point as
/// [`FailureKind::Integrity`] instead of merging a wrong number.
fn decode_reply(point: &PlannedPoint, exec: &ExecConfig, reply: &str) -> (SweepPointOutcome, u32) {
    let entry = match JournalEntry::parse_line(reply) {
        Ok(entry) => entry,
        Err(_) => {
            return (
                PointOutcome::Failed(point_error(point, FailureKind::Build, err_detail(reply))),
                1,
            )
        }
    };
    let attempts = entry.attempts.max(1);
    if entry.is_done() {
        let payload = entry.payload.as_ref().expect("is_done implies payload");
        return match result_from_value(payload) {
            Ok(r) => {
                let expect = crate::attest::context_for(point, exec);
                match crate::attest::verify_in_context(&r, expect) {
                    Ok(()) => (PointOutcome::Completed(r), attempts),
                    Err(e) => (
                        PointOutcome::Failed(point_error(
                            point,
                            FailureKind::Integrity,
                            format!("worker reply: {e}"),
                        )),
                        attempts,
                    ),
                }
            }
            Err(e) => (
                PointOutcome::Failed(point_error(
                    point,
                    FailureKind::Build,
                    format!("worker reply payload: {e}"),
                )),
                attempts,
            ),
        };
    }
    let mut e = entry.to_error().expect("non-done entry carries an error");
    e.settings = point.settings.clone();
    if entry.status == "timeout" {
        (PointOutcome::TimedOut(e), attempts)
    } else {
        (PointOutcome::Failed(e), attempts)
    }
}

/// The failure detail for a reply that is not a journal line: the
/// worker's own `{"j":"err"}` explanation when there is one, else the
/// raw line.
fn err_detail(reply: &str) -> String {
    if let Ok(v) = json::parse(reply) {
        if v.get("j").and_then(Value::as_str) == Some("err") {
            if let Some(detail) = v.get("detail").and_then(Value::as_str) {
                return format!("worker rejected the request: {detail}");
            }
        }
    }
    format!("unintelligible worker reply: {reply}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Axis, SweepPlan};
    use vm_core::SystemKind;

    fn tiny_plan() -> SweepPlan {
        let base = SystemSpec::for_kind(SystemKind::Ultrix);
        let axes = [Axis::parse("tlb.entries=32,64").unwrap()];
        SweepPlan::expand(&base, &axes).unwrap()
    }

    fn tiny_exec() -> ExecConfig {
        ExecConfig { warmup: 2_000, measure: 10_000, jobs: 1 }
    }

    #[test]
    fn requests_round_trip_points_and_policy() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            point_budget: Some(1_000_000),
            chaos: ChaosPlan::parse("io@1,abort@3", u64::MAX - 5).unwrap(),
            ..HardenPolicy::default()
        };
        let line = request_line(&plan.points[1], &tiny_exec(), &policy);
        let back = parse_request(&line).unwrap();
        assert_eq!(back.point.index, 1);
        assert_eq!(back.point.label, plan.points[1].label);
        assert_eq!(back.point.settings, plan.points[1].settings);
        assert_eq!(back.point.spec, plan.points[1].spec);
        assert_eq!(back.exec.warmup, 2_000);
        assert_eq!(back.exec.measure, 10_000);
        assert_eq!(back.policy.point_budget, Some(1_000_000));
        assert_eq!(back.policy.chaos, policy.chaos);
        assert!(back.policy.process.is_none());
    }

    #[test]
    fn handled_requests_reply_the_exact_in_process_journal_line() {
        let plan = tiny_plan();
        let exec = tiny_exec();
        let policy = HardenPolicy::default();
        let reply = handle_request(&request_line(&plan.points[0], &exec, &policy));
        let entry = JournalEntry::parse_line(&reply).unwrap();
        assert!(entry.is_done());
        let got = result_from_value(entry.payload.as_ref().unwrap()).unwrap();
        let (expect, _) =
            measure_point_isolated(&plan.points[0], &exec, &policy, &StreamTable::new(None, []));
        assert_eq!(Some(&got), expect.completed());
        assert_eq!(got.vm_total.to_bits(), expect.completed().unwrap().vm_total.to_bits());
    }

    #[test]
    fn worker_side_failures_cross_the_wire_classified() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("panic@0", 42).unwrap(),
            ..HardenPolicy::default()
        };
        let reply = handle_request(&request_line(&plan.points[0], &tiny_exec(), &policy));
        let (outcome, _) = decode_reply(&plan.points[0], &tiny_exec(), &reply);
        let e = outcome.error().expect("point 0 panics");
        assert_eq!(e.kind, FailureKind::Panic);
        assert!(e.detail.contains("injected panic"), "{e}");
        assert_eq!(e.settings, plan.points[0].settings);
    }

    #[test]
    fn the_wire_carries_no_retry_field_and_an_io_point_fails_on_its_one_attempt() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("io@1", 42).unwrap(),
            ..HardenPolicy::default()
        };
        let line = request_line(&plan.points[1], &tiny_exec(), &policy);
        let request = json::parse(&line).unwrap();
        for field in ["retries", "backoff_base_ms", "backoff_cap_ms", "jitter"] {
            assert!(request.get(field).is_none(), "`{field}` in {line}");
        }
        let reply = JournalEntry::parse_line(&handle_request(&line)).unwrap();
        assert_eq!(reply.status, "failed");
        assert_eq!((reply.kind, reply.attempts), (Some(FailureKind::Io), 1));
    }

    #[test]
    fn malformed_requests_become_err_replies_not_dead_workers() {
        let reply = handle_request("{\"j\":\"run\"}");
        let (outcome, attempts) = decode_reply(&tiny_plan().points[0], &tiny_exec(), &reply);
        assert_eq!(attempts, 1);
        let e = outcome.error().expect("malformed request fails");
        assert_eq!(e.kind, FailureKind::Build);
        assert!(e.detail.contains("worker rejected"), "{e}");

        let (outcome, _) = decode_reply(&tiny_plan().points[0], &tiny_exec(), "garbage");
        assert!(outcome.error().unwrap().detail.contains("unintelligible"));
    }

    #[test]
    fn tampered_reply_payloads_fail_closed_as_integrity() {
        let plan = tiny_plan();
        let exec = tiny_exec();
        let reply = handle_request(&request_line(&plan.points[0], &exec, &HardenPolicy::default()));

        // Flip one hex digit of the signed vmcpi bit pattern in transit:
        // the payload still decodes, but the attestation no longer holds.
        let pos = reply.find("\"vmcpi\":\"").expect("reply carries vmcpi") + "\"vmcpi\":\"".len();
        let mut bytes = reply.clone().into_bytes();
        let last = pos + 15;
        bytes[last] = if bytes[last] == b'0' { b'1' } else { b'0' };
        let tampered = String::from_utf8(bytes).unwrap();
        let (outcome, _) = decode_reply(&plan.points[0], &exec, &tampered);
        let e = outcome.error().expect("tampered payload must not complete");
        assert_eq!(e.kind, FailureKind::Integrity);
        assert!(e.detail.contains("attestation mismatch"), "{e}");

        // A well-formed reply signed for a different scale (stale worker
        // binary) is a context mismatch, not a silent merge.
        let other = ExecConfig { measure: exec.measure + 1, ..exec };
        let (outcome, _) = decode_reply(&plan.points[0], &other, &reply);
        let e = outcome.error().expect("wrong-context payload must not complete");
        assert_eq!(e.kind, FailureKind::Integrity);
        assert!(e.detail.contains("context mismatch"), "{e}");
    }

    #[test]
    fn seeds_survive_the_wire_at_full_width() {
        let v = u64_hex(u64::MAX - 3);
        assert_eq!(u64_from_hex(&v), Some(u64::MAX - 3));
        assert_eq!(u64_from_hex(&Value::Str("abc".to_owned())), None);
    }
}
