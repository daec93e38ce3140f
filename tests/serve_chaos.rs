//! vm-serve end-to-end: chaos faults stay isolated in worker jobs while
//! the listener keeps accepting, overload sheds explicitly, telemetry
//! reconciles with the drain summary, a drained daemon restarted with
//! resume produces bit-identical results, and the finished-job table
//! stays bounded, across restarts too.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use vm_harden::ChaosPlan;
use vm_obs::json::{self, Value};
use vm_serve::{Client, EventReport, ServeConfig, Server};

const SPEC: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vm-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submit_req(sweep: &[&str], warmup: u64, measure: u64) -> Value {
    Value::obj([
        ("req", "submit".into()),
        ("spec", SPEC.into()),
        ("sweep", Value::Arr(sweep.iter().map(|s| Value::from(*s)).collect())),
        ("warmup", warmup.into()),
        ("measure", measure.into()),
    ])
}

fn req(kind: &'static str, job: u64) -> Value {
    Value::obj([("req", kind.into()), ("job", job.into())])
}

fn status(client: &mut Client, job: u64) -> Value {
    client.request(&req("status", job)).unwrap()
}

/// Polls a job until `pred(state)` holds (10s cap).
fn wait_state(client: &mut Client, job: u64, pred: impl Fn(&str) -> bool) -> String {
    for _ in 0..2_000 {
        let r = status(client, job);
        let s = r.get("state").and_then(Value::as_str).unwrap().to_owned();
        if pred(&s) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("job {job} never reached the wanted state");
}

fn code(v: &Value) -> u64 {
    v.get("code").and_then(Value::as_u64).unwrap()
}

#[test]
fn chaos_faults_stay_isolated_and_telemetry_reconciles() {
    let dir = temp_dir("chaos");
    let events = dir.join("events.jsonl");
    let config = ServeConfig {
        workers: 1,
        queue_cap: 2,
        degrade_depth: 1,
        max_request_bytes: 512,
        // Point index 0 of *every* job's sweep panics: each job loses one
        // point, never the daemon.
        chaos: ChaosPlan::parse("panic@0", 7).unwrap(),
        events: Some(events.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());
    let mut c = Client::connect(addr).unwrap();

    // Malformed and unknown requests are classified, not fatal.
    assert_eq!(code(&c.request_line("this is not json").unwrap()), 400);
    assert_eq!(code(&c.request(&req("status", 99)).unwrap()), 404);

    // Job A: 12 points of 102k instructions each, long enough to hold
    // the single worker busy while the dozen requests of admission
    // scenarios below play out (about a second unoptimized; the window
    // is run length, so it shrinks only with simulation speed).
    let a = c
        .request(&submit_req(&["tlb.entries=16,32,64,128", "cache.l1=8K,16K,32K"], 2_000, 100_000))
        .unwrap();
    assert_eq!(code(&a), 200);
    let a_id = a.get("job").and_then(Value::as_u64).unwrap();
    wait_state(&mut c, a_id, |s| s == "running");

    // Listener stays live mid-chaos: a *fresh* connection gets served.
    let mut c2 = Client::connect(addr).unwrap();
    let health = c2.request(&Value::obj([("req", "health".into())])).unwrap();
    assert_eq!(health.get("state").and_then(Value::as_str), Some("serving"));

    // A result poll on an unfinished job is an explicit 202.
    assert_eq!(code(&c.request(&req("result", a_id)).unwrap()), 202);

    // B queues below the degrade watermark at full fidelity.
    let b = c.request(&submit_req(&["tlb.entries=16,32"], 2_000, 10_000)).unwrap();
    assert_eq!(b.get("degraded"), Some(&Value::Bool(false)));
    let b_id = b.get("job").and_then(Value::as_u64).unwrap();

    // C asks for more than quick scale while past the watermark: it is
    // admitted, but clamped to quick lengths and flagged.
    let d = c.request(&submit_req(&["tlb.entries=16,32"], 300_000, 600_000)).unwrap();
    assert_eq!(code(&d), 200);
    assert_eq!(d.get("degraded"), Some(&Value::Bool(true)));
    let c_id = d.get("job").and_then(Value::as_u64).unwrap();

    // D overflows the bounded queue: explicit shed, never a silent drop.
    let shed = c.request(&submit_req(&["tlb.entries=16,32"], 2_000, 10_000)).unwrap();
    assert_eq!(code(&shed), 503);
    assert_eq!(shed.get("shed"), Some(&Value::Bool(true)));

    // Cancelling the queued jobs frees their slots and is acknowledged
    // (C would otherwise run a real quick-scale sweep — seconds of debug
    // simulation that proves nothing the admission flag did not).
    for id in [b_id, c_id] {
        let cancel = c.request(&req("cancel", id)).unwrap();
        assert_eq!(cancel.get("state").and_then(Value::as_str), Some("cancelled"));
    }
    // The clamp stays reported on a cancelled job, too.
    let c_status = status(&mut c, c_id);
    assert_eq!(c_status.get("degraded"), Some(&Value::Bool(true)));

    // An oversized request answers 413 and costs only its connection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&[b'x'; 600]).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert_eq!(code(&json::parse(reply.trim()).unwrap()), 413);
    drop(raw);

    // A finishes despite the injected panic: the chaos point is a
    // classified failure, the other eleven complete.
    assert_eq!(wait_state(&mut c, a_id, |s| s == "done"), "done");
    let result = c.request(&req("result", a_id)).unwrap();
    assert_eq!(result.get("results").unwrap().as_array().unwrap().len(), 11);
    assert_eq!(result.get("failures").unwrap().as_array().unwrap().len(), 1);
    assert_eq!(result.get("degraded"), Some(&Value::Bool(false)));
    let degraded_result = c.request(&req("result", c_id)).unwrap();
    assert_eq!(degraded_result.get("degraded"), Some(&Value::Bool(true)));
    assert_eq!(degraded_result.get("state").and_then(Value::as_str), Some("cancelled"));

    // Live stats agree before the drain...
    let stats = c.request(&Value::obj([("req", "stats".into())])).unwrap();
    assert_eq!(stats.get("admitted").and_then(Value::as_u64), Some(3));
    assert_eq!(stats.get("shed").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("degraded").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("cancelled").and_then(Value::as_u64), Some(2));

    // ...and the drain exits cleanly with a matching summary.
    let drain = c.request(&Value::obj([("req", "drain".into())])).unwrap();
    assert_eq!(drain.get("draining"), Some(&Value::Bool(true)));
    let summary = serve.join().unwrap().expect("drain must exit cleanly");
    assert_eq!(
        (summary.admitted, summary.shed, summary.done, summary.cancelled, summary.pending),
        (3, 1, 1, 2, 0)
    );

    // The obs event stream reconciles with the summary exactly.
    let report = EventReport::from_jsonl(&std::fs::read_to_string(&events).unwrap()).unwrap();
    assert_eq!(report.admitted, summary.admitted);
    assert_eq!(report.degraded, 1);
    assert_eq!(report.shed, summary.shed);
    assert_eq!(report.done, summary.done);
    assert_eq!((report.with_failures, report.failed_points), (1, 1));
    assert_eq!(report.points, 11);
    assert_eq!((report.drains, report.last_drain_pending), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_sheds_new_submissions() {
    let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());
    let mut c = Client::connect(addr).unwrap();

    let a = c.request(&submit_req(&["tlb.entries=16,32,64,128"], 2_000, 20_000)).unwrap();
    let a_id = a.get("job").and_then(Value::as_u64).unwrap();
    wait_state(&mut c, a_id, |s| s == "running");

    // Drain with a job in flight: the connection outlives the listener,
    // and a late submit is shed with the draining reason.
    c.request(&Value::obj([("req", "drain".into())])).unwrap();
    let late = c.request(&submit_req(&["tlb.entries=16"], 2_000, 10_000)).unwrap();
    assert_eq!(code(&late), 503);
    assert_eq!(late.get("shed"), Some(&Value::Bool(true)));
    assert!(late.get("error").and_then(Value::as_str).unwrap().contains("draining"), "{late}");

    let summary = serve.join().unwrap().expect("drain must exit cleanly");
    assert_eq!(summary.shed, 1);
    assert_eq!(summary.admitted, 1);
}

#[test]
fn a_spec_past_the_host_memory_limit_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());
    let mut c = Client::connect(addr).unwrap();

    // Two 16 TiB L2 tag arrays: validating the spec used to allocate
    // them and abort the daemon.
    let spec = format!("{}\n[cache]\nl2 = \"16777216M\"\n", include_str!("../specs/ultrix.toml"));
    let submit = Value::obj([
        ("req", "submit".into()),
        ("spec", spec.into()),
        ("sweep", Value::Arr(Vec::new())),
        ("warmup", 2_000u64.into()),
        ("measure", 10_000u64.into()),
    ]);
    let refused = c.request(&submit).unwrap();
    assert!((400..500).contains(&code(&refused)), "{refused}");

    let health = c.request(&Value::obj([("req", "health".into())])).unwrap();
    assert_eq!(health.get("state").and_then(Value::as_str), Some("serving"), "{health}");
    c.request(&Value::obj([("req", "drain".into())])).unwrap();
    let summary = serve.join().unwrap().expect("drain must exit cleanly");
    assert_eq!(summary.admitted, 0);
}

#[test]
fn drain_then_resume_is_bit_identical() {
    let run = |state_dir: Option<PathBuf>, resume: bool, interrupt: bool| -> Value {
        let config = ServeConfig { workers: 1, state_dir, resume, ..ServeConfig::default() };
        let server = Server::start(config).unwrap();
        let addr = server.local_addr().unwrap();
        let serve = std::thread::spawn(move || server.serve());
        let mut c = Client::connect(addr).unwrap();
        if !resume {
            let r = c.request(&submit_req(&["tlb.entries=16,32,64,128"], 2_000, 20_000)).unwrap();
            assert_eq!(r.get("job").and_then(Value::as_u64), Some(1));
        }
        let result = if interrupt {
            // Drain as soon as the first point lands in the journal; the
            // in-flight point finishes, the rest are cut off.
            for _ in 0..2_000 {
                let done = status(&mut c, 1).get("done").and_then(Value::as_u64).unwrap();
                if done >= 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Value::Null
        } else {
            wait_state(&mut c, 1, |s| s == "done" || s == "failed");
            c.request(&req("result", 1)).unwrap()
        };
        c.request(&Value::obj([("req", "drain".into())])).unwrap();
        serve.join().unwrap().expect("drain must exit cleanly");
        result
    };
    let field = |v: &Value, k: &str| v.get(k).map(Value::to_string).unwrap_or_default();

    // Reference: the same job in a single uninterrupted lifetime.
    let reference = run(None, false, false);

    // Interrupted lifetime, then a resumed lifetime over the same state:
    // with the journal as the drain left it, with a torn final line (a
    // kill mid-append), and emptied (a kill before the header landed).
    for damage in ["none", "torn", "empty"] {
        let dir = temp_dir(&format!("resume-{damage}"));
        run(Some(dir.clone()), false, true);
        let journal = dir.join("job-000001.journal");
        match damage {
            "torn" => {
                let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
                f.write_all(b"{\"j\":\"point\",\"index\":3,\"lab").unwrap();
            }
            "empty" => std::fs::write(&journal, "").unwrap(),
            _ => {}
        }
        let resumed = run(Some(dir.clone()), true, false);
        assert_eq!(resumed.get("state").and_then(Value::as_str), Some("done"), "{damage}");
        let seeded = resumed.get("resumed").and_then(Value::as_u64).unwrap();
        assert!(
            (seeded >= 1) == (damage != "empty"),
            "{damage}: only a journal with a header seeds the second lifetime: {resumed}"
        );
        assert_eq!(
            field(&resumed, "results"),
            field(&reference, "results"),
            "{damage}: drain + resume must be bit-identical to an uninterrupted run"
        );
        assert_eq!(field(&resumed, "failures"), "[]", "{damage}");

        // A third lifetime restores the finished job from its journal.
        let restored = run(Some(dir.clone()), true, false);
        assert_eq!(restored.get("state").and_then(Value::as_str), Some("done"), "{damage}");
        assert_eq!(field(&restored, "results"), field(&reference, "results"), "{damage}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Runs `n` single-point jobs back to back, checking after each that
/// the job table holds at most `bound` finished jobs plus those in
/// flight. Returns the job ids, oldest first.
fn run_tiny_jobs(c: &mut Client, n: u64, bound: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let r = c.request(&submit_req(&[], 100, 1_000)).unwrap();
            let id = r.get("job").and_then(Value::as_u64).unwrap();
            wait_state(c, id, |s| s == "done");
            let health = c.request(&Value::obj([("req", "health".into())])).unwrap();
            let field = |k: &str| health.get(k).and_then(Value::as_u64).unwrap();
            assert!(field("jobs") <= bound + field("queued") + field("running"), "{health}");
            id
        })
        .collect()
}

/// Asserts `id` answers `404 "job N expired"` to `kind`.
fn assert_expired(reply: &Value, id: u64, kind: &str) {
    assert_eq!(code(reply), 404, "{kind} {id}: {reply}");
    let error = reply.get("error").and_then(Value::as_str).unwrap();
    assert_eq!(error, format!("job {id} expired"), "{kind} {id}");
}

#[test]
fn finished_jobs_past_the_retention_bound_expire_oldest_first() {
    let config = ServeConfig { workers: 1, ..ServeConfig::default() };
    let bound = config.retained_jobs() as u64;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());
    let mut c = Client::connect(addr).unwrap();

    let ids = run_tiny_jobs(&mut c, bound + 8, bound);
    let (expired, kept) = ids.split_at(8);
    for &id in expired {
        for kind in ["status", "result", "cancel"] {
            assert_expired(&c.request(&req(kind, id)).unwrap(), id, kind);
        }
        let mut w = Client::connect(addr).unwrap();
        w.send(&req("watch", id)).unwrap();
        assert_expired(&w.next_line().unwrap(), id, "watch");
    }
    for &id in kept {
        let result = c.request(&req("result", id)).unwrap();
        assert_eq!(code(&result), 200, "{result}");
        assert_eq!(result.get("results").unwrap().as_array().unwrap().len(), 1);
    }
    // An id never handed out is unknown, not expired.
    let unknown = status(&mut c, bound + 100);
    assert_eq!(
        unknown.get("error").and_then(Value::as_str),
        Some(&*format!("no job {}", bound + 100))
    );

    c.request(&Value::obj([("req", "drain".into())])).unwrap();
    serve.join().unwrap().expect("drain must exit cleanly");
}

#[test]
fn a_job_file_that_still_carries_retries_resumes_and_finishes() {
    let dir = temp_dir("retries");
    // A queued job's state file as builds with point retries wrote it.
    let job = Value::obj([
        ("v", 1u64.into()),
        ("id", 1u64.into()),
        ("tag", Value::Null),
        ("spec", SPEC.into()),
        ("sweep", Value::Arr(vec!["tlb.entries=16,32".into()])),
        ("warmup", 2_000u64.into()),
        ("measure", 10_000u64.into()),
        ("degraded", Value::Bool(false)),
        ("point_budget", Value::Null),
        ("retries", 2u64.into()),
    ]);
    std::fs::write(dir.join("job-000001.json"), format!("{job}\n")).unwrap();
    let config = ServeConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        resume: true,
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap();
    let serve = std::thread::spawn(move || server.serve());
    let mut c = Client::connect(addr).unwrap();
    wait_state(&mut c, 1, |s| s == "done" || s == "failed");
    let result = c.request(&req("result", 1)).unwrap();
    assert_eq!(result.get("state").and_then(Value::as_str), Some("done"), "{result}");
    assert_eq!(result.get("results").and_then(Value::as_array).map(<[Value]>::len), Some(2));
    assert_eq!(result.get("failures").and_then(Value::as_array).map(<[Value]>::len), Some(0));
    c.request(&Value::obj([("req", "drain".into())])).unwrap();
    serve.join().unwrap().expect("drain must exit cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_reloads_only_the_newest_finished_jobs() {
    let dir = temp_dir("retain");
    let lifetime = |resume: bool| {
        let config = ServeConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            resume,
            ..ServeConfig::default()
        };
        let bound = config.retained_jobs() as u64;
        let server = Server::start(config).unwrap();
        let addr = server.local_addr().unwrap();
        (bound, std::thread::spawn(move || server.serve()), Client::connect(addr).unwrap())
    };

    let (bound, serve, mut c) = lifetime(false);
    let ids = run_tiny_jobs(&mut c, bound + 8, bound);
    c.request(&Value::obj([("req", "drain".into())])).unwrap();
    serve.join().unwrap().expect("drain must exit cleanly");
    // Eviction forgets jobs in memory only; every job file survives.
    let files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".json"))
        .count();
    assert_eq!(files as u64, bound + 8);

    let (_, serve, mut c) = lifetime(true);
    let health = c.request(&Value::obj([("req", "health".into())])).unwrap();
    assert_eq!(health.get("jobs").and_then(Value::as_u64), Some(bound), "{health}");
    for &id in &ids[..8] {
        assert_expired(&status(&mut c, id), id, "status");
    }
    for &id in &ids[8..] {
        let result = c.request(&req("result", id)).unwrap();
        assert_eq!(result.get("state").and_then(Value::as_str), Some("done"), "{result}");
        assert_eq!(result.get("resumed").and_then(Value::as_u64), Some(1), "{result}");
    }
    // Ids stay unique across lifetimes: the next job follows the newest.
    let next = c.request(&submit_req(&[], 100, 1_000)).unwrap();
    assert_eq!(next.get("job").and_then(Value::as_u64), Some(bound + 9));
    c.request(&Value::obj([("req", "drain".into())])).unwrap();
    serve.join().unwrap().expect("drain must exit cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
