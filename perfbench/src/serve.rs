//! The `serve-closed` loop: two client connections, each submitting one
//! single-point job, waiting for its result, then submitting the next.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vm_core::SystemKind;
use vm_explore::SystemSpec;
use vm_obs::json::Value;
use vm_serve::Client;

use crate::fp;
use crate::metrics::{Admission, Tally};
use crate::spans::Tracer;

/// Client connections.
pub const CLIENTS: usize = 2;
/// Jobs each client runs per round.
pub const JOBS_PER_ROUND: usize = 12;
/// Warm-up instructions per job (the `serve-bench` length).
pub const WARMUP: u64 = 2_000;
/// Measured instructions per job.
pub const MEASURE: u64 = 10_000;
/// Pause between status polls.
const POLL: Duration = Duration::from_micros(500);

/// The six paper systems' specs at the variant's trace seed, as TOML.
pub fn specs(variant: u64) -> Vec<String> {
    SystemKind::PAPER
        .into_iter()
        .map(|k| {
            let mut s = SystemSpec::for_kind(k);
            s.trace_seed = fp::input_seed(variant);
            s.to_toml()
        })
        .collect()
}

/// One job as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct JobTiming {
    /// Submit round trip, ms.
    pub submit_ms: f64,
    /// Submit acknowledged until first seen not queued, ms.
    pub queue_wait_ms: f64,
    /// Submit acknowledged until seen finished, ms.
    pub wait_ms: f64,
    /// Result fetch round trip, ms.
    pub result_ms: f64,
    /// Submit sent until result received, ms.
    pub latency_ms: f64,
}

/// Everything one closed-loop run produced.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Wall time per round.
    pub rounds: Vec<Duration>,
    /// Every completed job's timing.
    pub jobs: Vec<JobTiming>,
    /// Attempted / failed / shed / refused jobs.
    pub tally: Tally,
    /// The first result row seen per system index.
    pub rows: BTreeMap<usize, String>,
    /// Problems found checking results (row mismatches, bad payloads).
    pub errors: Vec<String>,
}

impl ServeRun {
    /// The results fingerprint: rows of the six systems in order.
    pub fn fingerprint(&self) -> u64 {
        fp::of_rows(self.rows.values())
    }

    /// Merges another run's jobs, counts and rows into this one; a
    /// system whose rows differ between runs is an error.
    pub fn absorb(&mut self, mut other: ServeRun) {
        self.jobs.append(&mut other.jobs);
        self.tally.add(other.tally);
        self.errors.append(&mut other.errors);
        for (k, row) in other.rows {
            match self.rows.get(&k) {
                Some(have) if *have != row => {
                    self.errors.push(format!("system {k}: results differ between jobs"));
                }
                Some(_) => {}
                None => {
                    self.rows.insert(k, row);
                }
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one job: submit, poll status until terminal, fetch the result.
fn one_job(
    client: &mut Client,
    spec: &str,
    key: usize,
    tracer: &Tracer,
    trace: u64,
    run: &mut ServeRun,
) -> Result<(), String> {
    let submit = Value::obj([
        ("req", "submit".into()),
        ("spec", spec.into()),
        ("warmup", WARMUP.into()),
        ("measure", MEASURE.into()),
    ]);
    let t0 = Instant::now();
    let resp = client.request(&submit)?;
    let acked = Instant::now();
    let admission = Admission::of(&resp);
    admission.count(&mut run.tally);
    let Admission::Admitted(id) = admission else { return Ok(()) };
    let mut first_run = None;
    loop {
        let status = client.request(&Value::obj([("req", "status".into()), ("job", id.into())]))?;
        let state = status.get("state").and_then(Value::as_str).unwrap_or("");
        if state != "queued" && first_run.is_none() {
            first_run = Some(Instant::now());
        }
        if matches!(state, "done" | "failed" | "cancelled") {
            break;
        }
        if state.is_empty() {
            return Err(format!("status for job {id}: {status}"));
        }
        std::thread::sleep(POLL);
    }
    let done = Instant::now();
    let resp = client.request(&Value::obj([("req", "result".into()), ("job", id.into())]))?;
    let end = Instant::now();
    let job_span = tracer.record("serve.job", 0, trace, t0, end);
    tracer.record("serve.submit", job_span, trace, t0, acked);
    tracer.record("serve.wait", job_span, trace, acked, done);
    tracer.record("serve.result", job_span, trace, done, end);
    let results = resp.get("results").and_then(Value::as_array).unwrap_or(&[]);
    let failures = resp.get("failures").and_then(Value::as_array).map_or(0, <[Value]>::len);
    if resp.get("code").and_then(Value::as_u64) != Some(200) || failures > 0 || results.len() != 1 {
        run.tally.failed += 1;
        return Ok(());
    }
    let result = vm_explore::result_from_value(&results[0])?;
    if let Err(e) = vm_explore::verify_sealed(&result) {
        run.errors.push(format!("job {id}: {e}"));
        run.tally.failed += 1;
        return Ok(());
    }
    let row = fp::row(&result);
    match run.rows.get(&key) {
        Some(have) if *have != row => {
            run.errors.push(format!("system {key}: results differ between jobs"))
        }
        Some(_) => {}
        None => {
            run.rows.insert(key, row);
        }
    }
    run.jobs.push(JobTiming {
        submit_ms: ms(acked - t0),
        queue_wait_ms: ms(first_run.unwrap_or(done) - acked),
        wait_ms: ms(done - acked),
        result_ms: ms(end - done),
        latency_ms: ms(end - t0),
    });
    Ok(())
}

/// Runs rounds against the daemon at `addr` until `duration` has passed
/// (at least `min_rounds`). In a round each client runs
/// [`JOBS_PER_ROUND`] jobs, rotating through the six systems from its
/// own offset.
///
/// # Errors
///
/// Returns a message when a connection or request fails outright.
pub fn closed_loop(
    addr: &str,
    specs: &[String],
    duration: Duration,
    min_rounds: usize,
    tracer: &Tracer,
) -> Result<ServeRun, String> {
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let mut run = ServeRun::default();
    let started = Instant::now();
    let mut round = 0usize;
    while round < min_rounds || started.elapsed() < duration {
        let t = Instant::now();
        let parts: Vec<Result<ServeRun, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut part = ServeRun::default();
                        for j in 0..JOBS_PER_ROUND {
                            let key = (c * 3 + j) % specs.len();
                            let trace = ((round * CLIENTS + c) * JOBS_PER_ROUND + j) as u64;
                            one_job(client, &specs[key], key, tracer, trace, &mut part)?;
                        }
                        Ok(part)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        run.rounds.push(t.elapsed());
        for part in parts {
            run.absorb(part?);
        }
        round += 1;
    }
    Ok(run)
}

/// Runs one job against the daemon at `addr` and checks it completed:
/// the set-up step that lets a fresh daemon (and any worker process it
/// starts lazily) finish initializing before timing starts.
///
/// # Errors
///
/// Returns a message when the job cannot be run or does not complete.
pub fn warm_up(addr: &str, spec: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut run = ServeRun::default();
    one_job(&mut client, spec, 0, &Tracer::new(false), 0, &mut run)?;
    if run.jobs.len() == 1 {
        Ok(())
    } else {
        Err(format!("warm-up job on {addr} did not complete"))
    }
}

/// Mean `wall_ms` of the `job_done` events in a daemon's `--events`
/// file (the daemon's own admission-to-done job wall).
pub fn mean_job_wall_ms(events: &str) -> Option<f64> {
    let walls: Vec<f64> = events
        .lines()
        .filter_map(|l| vm_obs::json::parse(l).ok())
        .filter(|v| v.get("ev").and_then(Value::as_str) == Some("job_done"))
        .filter_map(|v| v.get("wall_ms").and_then(Value::as_f64))
        .collect();
    (!walls.is_empty()).then(|| walls.iter().sum::<f64>() / walls.len() as f64)
}
