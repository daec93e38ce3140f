//! The daemon: listener, admission control, worker pool, graceful drain.
//!
//! Structure: one accept loop ([`crate::conn::accept_until`], blocked
//! in `accept` until a connection arrives or the drain or
//! external-shutdown flag is set), detached connection threads
//! speaking the [`crate::proto`] line protocol, and a fixed pool of
//! worker threads draining a bounded job queue. All mutable state lives
//! under a single mutex (queue + job registry + id counter), so
//! admission checks and queue pushes are atomic and lock ordering is
//! trivial.
//!
//! Robustness invariants:
//!
//! * **Admission control** — the queue is bounded; a submission past the
//!   cap (or while draining) is rejected with an explicit `503` +
//!   `"shed":true`, never silently dropped or unboundedly buffered.
//! * **Degraded fidelity** — past the degrade watermark, new jobs are
//!   clamped to quick run lengths; the clamp is recorded in the job, in
//!   the submit response, and in the persisted state file (so a resumed
//!   job reruns at the *same* fidelity, keeping bit-identity).
//! * **Isolation** — each job runs under `catch_unwind` on top of the
//!   per-point isolation `run_sweep_hardened` already provides; a
//!   connection handler panic answers `500` and the daemon lives on.
//!   With `worker_processes > 0`, points execute in supervised worker
//!   subprocesses (`vm-supervise`), so even a SIGSEGV, `abort()`, or
//!   OOM kill costs the affected job a `500` — never the daemon.
//! * **Drain** — SIGTERM (via the external flag) and the `drain` request
//!   take the same path: stop admitting, cancel running sweeps
//!   cooperatively (the in-flight point finishes and is journaled),
//!   join workers, flush telemetry, and report a summary. Queued and
//!   interrupted jobs are re-queued from the state directory on restart
//!   (`resume`), and their merged results are bit-identical to an
//!   uninterrupted run.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vm_explore::{
    run_header, run_sweep_hardened, seeded_from_journal, ExecConfig, HardenPolicy, PointResult,
    SweepPlan,
};
use vm_harden::{
    classify_panic, quiet_panics, ChaosPlan, FailureKind, Journal, JournalWriter, SimError,
};
use vm_obs::json::Value;
use vm_obs::{Event, JsonlSink, LogHist, NopSink, Reporter, Sink};
use vm_supervise::{PoolConfig, WorkerCommand, WorkerPool};

use crate::conn::{accept_until, Conn, MAX_REQUEST_BYTES};
use crate::ingest::{ConnQuota, Ingest, IngestSettings};
use crate::job::{JobOutcome, JobSpec, JobState};
use crate::watch::{self, SubNext, WatchHub, WATCH_BUFFER};

use crate::proto::{
    self, ok_response, parse_request, ProtoError, Request, Scale, SubmitRequest, PROTO_VERSION,
    RESULT_WAIT,
};

/// Tuning and policy for one daemon instance.
#[derive(Debug)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads running jobs (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions past this shed.
    pub queue_cap: usize,
    /// Queue depth at or past which new jobs degrade to quick scale.
    pub degrade_depth: usize,
    /// State directory for job specs and journals; `None` disables
    /// persistence (and therefore restart/resume).
    pub state_dir: Option<PathBuf>,
    /// Reload persisted jobs from `state_dir` at startup.
    pub resume: bool,
    /// Largest accepted request line, in bytes; longer requests answer
    /// `413` and the connection closes.
    pub max_request_bytes: usize,
    /// Worker *subprocesses* for point execution (`0` = in-process).
    /// With processes, a point that SIGSEGVs or aborts costs that job a
    /// `500`, never the daemon: the supervisor restarts the worker and
    /// the crash-loop breaker fails the job instead of wedging it.
    pub worker_processes: usize,
    /// Command line for worker subprocesses; `None` re-invokes the
    /// current executable with the hidden `worker` argument.
    pub worker_command: Option<WorkerCommand>,
    /// Fault injection applied to every job's sweep (chaos testing).
    pub chaos: ChaosPlan,
    /// Path for the vm-obs JSONL event stream (appended).
    pub events: Option<PathBuf>,
    /// External shutdown flag: the binary's SIGTERM handler sets it and
    /// the accept loop treats it exactly like a `drain` request.
    pub shutdown: Option<&'static AtomicBool>,
    /// Progress-checkpoint interval in retired instructions for running
    /// jobs (the `watch` stream's `progress` frame cadence). The
    /// schedule rides the simulation's instruction clock, so watching a
    /// job cannot perturb its results.
    pub checkpoint_interval: u64,
    /// Trace-ingestion quotas, watermarks, and the partial-upload TTL.
    /// Uploads also require `state_dir` (staging must be durable).
    pub ingest: IngestSettings,
}

impl ServeConfig {
    /// How many finished jobs stay queryable: the newest
    /// `max(64, queue_cap + workers)`, so a client that filled the queue
    /// and every worker can still collect all of its results.
    pub fn retained_jobs(&self) -> usize {
        MIN_RETAINED_JOBS.max(self.queue_cap + self.workers.max(1))
    }
}

/// The floor of [`ServeConfig::retained_jobs`].
const MIN_RETAINED_JOBS: usize = 64;

/// Per-connection read and write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 8,
            degrade_depth: 4,
            state_dir: None,
            resume: false,
            max_request_bytes: MAX_REQUEST_BYTES,
            worker_processes: 0,
            worker_command: None,
            chaos: ChaosPlan::default(),
            events: None,
            shutdown: None,
            checkpoint_interval: 100_000,
            ingest: IngestSettings::default(),
        }
    }
}

/// Lifetime counters and distributions — the `stats` response body.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Submissions shed (queue full or draining).
    pub shed: u64,
    /// Jobs admitted at degraded fidelity.
    pub degraded: u64,
    /// Jobs that finished running.
    pub done: u64,
    /// Jobs that died at the job level.
    pub failed_jobs: u64,
    /// Jobs cancelled (by request or drain).
    pub cancelled: u64,
    /// Queue depth observed at each admission and shed decision.
    pub queue_depth: LogHist,
    /// Job wall time, milliseconds, admission to completion.
    pub latency_ms: LogHist,
}

impl ServeStats {
    /// Serializes for the `stats` response.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("admitted", self.admitted.into()),
            ("shed", self.shed.into()),
            ("degraded", self.degraded.into()),
            ("done", self.done.into()),
            ("failed_jobs", self.failed_jobs.into()),
            ("cancelled", self.cancelled.into()),
            ("queue_depth", self.queue_depth.to_json()),
            ("latency_ms", self.latency_ms.to_json()),
        ])
    }
}

/// What a drained daemon did over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Jobs admitted.
    pub admitted: u64,
    /// Submissions shed.
    pub shed: u64,
    /// Jobs finished.
    pub done: u64,
    /// Jobs failed at the job level.
    pub failed_jobs: u64,
    /// Jobs cancelled (request or drain).
    pub cancelled: u64,
    /// Jobs still queued at exit (resumable from the state directory).
    pub pending: u64,
}

/// One admitted job and its live bookkeeping.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    state: JobState,
    /// Cooperative cancel flag, shared with the running sweep.
    cancel: Arc<AtomicBool>,
    total_points: usize,
    /// Points finished so far (journal lines observed), for status.
    done_points: Arc<AtomicU64>,
    outcome: Option<JobOutcome>,
    /// Job-level failure detail, when `state == Failed`.
    error: Option<String>,
    wall_ms: Option<u64>,
}

/// All mutable registry state, under one lock.
struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    /// Terminal jobs still in `jobs`, in the order they finished: the
    /// eviction order. Finish order, not id order, so a long job that
    /// finishes after many newer ones is not evicted on arrival.
    finished: VecDeque<u64>,
    next_id: u64,
}

impl State {
    /// Files `id` as terminal and evicts the oldest terminal jobs past
    /// `retain`. Queued and running jobs are never evicted.
    fn retire(&mut self, id: u64, retain: usize) {
        self.finished.push_back(id);
        let excess = self.finished.len().saturating_sub(retain);
        for oldest in self.finished.drain(..excess) {
            self.jobs.remove(&oldest);
        }
    }

    /// The job under `id`, or the `404` saying why there is none.
    fn job(&self, id: u64) -> Result<&Job, ProtoError> {
        self.jobs.get(&id).ok_or_else(|| missing(id, self.next_id))
    }
}

/// The `404` for an id with no table entry: ids below `next_id` were
/// admitted and have since been evicted from the finished-job table.
fn missing(id: u64, next_id: u64) -> ProtoError {
    if (1..next_id).contains(&id) {
        ProtoError::new(404, format!("job {id} expired"))
    } else {
        ProtoError::new(404, format!("no job {id}"))
    }
}

struct Shared {
    config: ServeConfig,
    state: Mutex<State>,
    wake: Condvar,
    draining: AtomicBool,
    sink: Mutex<Option<JsonlSink<File>>>,
    stats: Mutex<ServeStats>,
    /// Supervised worker-process pool, when `worker_processes > 0`.
    /// Shared across jobs: workers are reused, and the crash-loop
    /// breaker state spans job boundaries.
    pool: Option<Arc<WorkerPool>>,
    /// Fan-out for `watch` subscribers.
    hub: WatchHub,
    /// Trace ingestion (staging, quotas, the committed library), when
    /// a state directory exists to stage into.
    ingest: Option<Ingest>,
    /// Daemon start instant: the `t` (milliseconds) of lifecycle events
    /// and watch frames.
    started: Instant,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> MutexGuard<'_, ServeStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Milliseconds since the daemon started — the `t` of lifecycle
    /// events and watch frames (monotonic within one daemon lifetime,
    /// so `serve-stats` can derive admission→done latencies).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Appends one lifecycle event to the JSONL stream (when configured).
    fn emit(&self, ev: Event) {
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let now = self.now_ms();
        if let Some(sink) = guard.as_mut() {
            sink.emit(now, &ev);
        }
    }

    fn job_file(&self, id: u64) -> Option<PathBuf> {
        self.config.state_dir.as_ref().map(|d| d.join(format!("job-{id:06}.json")))
    }

    fn journal_file(&self, id: u64) -> Option<PathBuf> {
        self.config.state_dir.as_ref().map(|d| d.join(format!("job-{id:06}.journal")))
    }

    fn cancel_marker(&self, id: u64) -> Option<PathBuf> {
        self.config.state_dir.as_ref().map(|d| d.join(format!("job-{id:06}.cancel")))
    }
}

/// A bound daemon, ready to [`Server::serve`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, opens the event stream, and (with
    /// `config.resume`) reloads persisted jobs from the state directory.
    ///
    /// # Errors
    ///
    /// Propagates bind, state-directory, and event-file failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        if let Some(dir) = &config.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        let sink = match &config.events {
            Some(path) => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                Some(JsonlSink::new(file))
            }
            None => None,
        };
        let resume = config.resume;
        let ingest = match &config.state_dir {
            Some(dir) => Some(Ingest::open(dir, config.ingest.clone())?),
            None => None,
        };
        let pool = match config.worker_processes {
            0 => None,
            n => {
                let mut command = match &config.worker_command {
                    Some(command) => command.clone(),
                    None => WorkerCommand::current_exe(&["worker"])?,
                };
                if let Some(ingest) = &ingest {
                    // Workers resolve `trace:NAME` workloads from the
                    // same library commits land in; the request line
                    // carries the path too, this is the fallback.
                    command.envs.push((
                        vm_trace::TRACE_LIBRARY_ENV.to_owned(),
                        ingest.library_dir().display().to_string(),
                    ));
                }
                let mut pool = PoolConfig::new(command);
                pool.workers = n;
                Some(Arc::new(WorkerPool::new(pool)))
            }
        };
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                finished: VecDeque::new(),
                next_id: 1,
            }),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            sink: Mutex::new(sink),
            stats: Mutex::new(ServeStats::default()),
            pool,
            hub: WatchHub::new(),
            ingest,
            started: Instant::now(),
        });
        if resume {
            resume_jobs(&shared)?;
        }
        if let Some(ingest) = &shared.ingest {
            // Sweep orphaned partials left by previous lifetimes.
            ingest.gc(&|ev| shared.emit(ev));
        }
        Ok(Server { listener, shared })
    }

    /// The bound socket address (read it before [`Server::serve`] when
    /// binding to an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until drained (by a `drain` request or the
    /// external shutdown flag), then joins workers, flushes telemetry,
    /// and returns the lifetime summary.
    ///
    /// # Errors
    ///
    /// Propagates listener setup failures; per-connection and per-job
    /// failures never surface here.
    pub fn serve(self) -> io::Result<ServeSummary> {
        let Server { listener, shared } = self;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let stopped = || {
            shared.draining.load(Ordering::Relaxed)
                || shared.config.shutdown.is_some_and(|f| f.load(Ordering::Relaxed))
        };
        accept_until(&listener, stopped, |stream| {
            let shared = Arc::clone(&shared);
            // Detached: a slow or stuck client costs one thread bounded
            // by the I/O timeout, never the accept loop.
            let _ = std::thread::Builder::new()
                .name("serve-conn".to_owned())
                .spawn(move || handle_connection(&shared, stream));
        });
        initiate_drain(&shared);
        drop(listener);
        for handle in workers {
            let _ = handle.join();
        }
        if let Some(pool) = &shared.pool {
            // Reap worker subprocesses before reporting: a drained daemon
            // must not leave orphans behind.
            pool.shutdown();
            for ev in pool.take_events() {
                shared.emit(ev);
            }
        }
        if let Some(sink) = shared.sink.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = sink.finish();
        }
        // End every watch stream: subscribers see Closed (after any
        // queued frames, including the drain frame) and disconnect.
        shared.hub.close();
        let pending = shared.lock_state().queue.len() as u64;
        let stats = shared.lock_stats();
        Ok(ServeSummary {
            admitted: stats.admitted,
            shed: stats.shed,
            done: stats.done,
            failed_jobs: stats.failed_jobs,
            cancelled: stats.cancelled,
            pending,
        })
    }
}

/// Flips the daemon into draining mode exactly once: stop admitting,
/// cancel running sweeps cooperatively, wake idle workers.
fn initiate_drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    let pending = {
        let mut st = shared.lock_state();
        let mut pending = st.queue.len() as u64;
        for job in st.jobs.values_mut() {
            if job.state == JobState::Running {
                job.cancel.store(true, Ordering::Relaxed);
                pending += 1;
            }
        }
        pending
    };
    shared.emit(Event::DrainStarted { pending });
    shared.hub.publish(None, &watch::drain_frame(shared.now_ms(), pending));
    shared.wake.notify_all();
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    // Expected unwinds (chaos, deadlines) are caught and classified;
    // keep the hook from spraying a backtrace banner per isolated fault.
    let _quiet = quiet_panics();
    loop {
        let id = {
            let mut st = shared.lock_state();
            loop {
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        };
        run_job(shared, id);
    }
}

/// Runs one job end to end: state transitions, journal, isolation,
/// terminal event, and stats.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let (spec, cancel, done_points) = {
        let mut st = shared.lock_state();
        let Some(job) = st.jobs.get_mut(&id) else { return };
        if job.state != JobState::Queued {
            return; // cancelled while queued
        }
        job.state = JobState::Running;
        (job.spec.clone(), Arc::clone(&job.cancel), Arc::clone(&job.done_points))
    };
    let started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| execute_job(shared, &spec, &cancel, &done_points)));
    let wall_ms = started.elapsed().as_millis() as u64;
    if let Some(pool) = &shared.pool {
        // Supervision events (spawns, crashes, breaker trips) join the
        // daemon's lifecycle stream under its sequence counter.
        for ev in pool.take_events() {
            shared.emit(ev);
        }
    }

    let (state, points, failed) = {
        let mut st = shared.lock_state();
        let job = st.jobs.get_mut(&id).expect("running job stays registered");
        let state = match ran {
            Ok(Ok(outcome)) => {
                let was_cancelled = cancel.load(Ordering::Relaxed)
                    && outcome.failures.iter().any(|e| e.kind == FailureKind::Cancelled);
                // A crashed worker process (SIGSEGV, abort, OOM kill —
                // breaker-tripped after restarts) fails the *job*: the
                // client gets a 500, the daemon keeps serving.
                let crash = outcome
                    .failures
                    .iter()
                    .find(|e| e.kind == FailureKind::Crash)
                    .map(|e| format!("point `{}`: {}", e.label, e.detail));
                let state = if was_cancelled {
                    JobState::Cancelled
                } else if let Some(detail) = crash {
                    job.error = Some(detail);
                    JobState::Failed
                } else {
                    JobState::Done
                };
                job.done_points.store(outcome.results.len() as u64, Ordering::Relaxed);
                job.outcome = Some(outcome);
                state
            }
            Ok(Err(detail)) => {
                job.error = Some(detail);
                JobState::Failed
            }
            Err(payload) => {
                let (_, detail) = classify_panic(payload);
                job.error = Some(format!("job panicked outside point isolation: {detail}"));
                JobState::Failed
            }
        };
        job.state = state;
        job.wall_ms = Some(wall_ms);
        let (points, failed) = match &job.outcome {
            Some(out) => (out.results.len() as u64, out.failures.len() as u64),
            None => (0, spec_points(&job.spec) as u64),
        };
        st.retire(id, shared.config.retained_jobs());
        (state, points, failed)
    };
    shared.emit(Event::JobDone { job: id, points, failed, wall_ms });
    // Terminal frame last, after the state transition is visible: a
    // watcher that acts on `done` can immediately fetch the result.
    shared.hub.publish(
        Some(id),
        &watch::done_frame(shared.now_ms(), id, state.label(), points, failed, wall_ms),
    );
    let mut stats = shared.lock_stats();
    stats.latency_ms.record(wall_ms.max(1));
    match state {
        JobState::Done => stats.done += 1,
        JobState::Cancelled => stats.cancelled += 1,
        _ => stats.failed_jobs += 1,
    }
}

/// Point count for a job whose outcome is unavailable (best effort).
fn spec_points(spec: &JobSpec) -> usize {
    spec.plan().map(|p| p.points.len()).unwrap_or(0)
}

/// Bridges executor progress callbacks onto the daemon: checkpoints
/// and point completions become watch frames, and supervised-pool
/// lifecycle events reach the event stream *live* (mid-job) instead of
/// only at job teardown.
struct JobObserver {
    shared: Arc<Shared>,
    job: u64,
    degraded: bool,
    points: u64,
    done_points: Arc<AtomicU64>,
}

impl vm_explore::SweepObserver for JobObserver {
    fn checkpoint(&self, cp: &vm_explore::PointCheckpoint) {
        let queue_depth = self.shared.lock_state().queue.len() as u64;
        let frame = watch::progress_frame(
            self.shared.now_ms(),
            self.job,
            cp,
            self.done_points.load(Ordering::Relaxed),
            self.points,
            queue_depth,
            self.degraded,
        );
        self.shared.hub.publish(Some(self.job), &frame);
    }

    /// Counts the point toward `status`'s `done`: the executor calls
    /// this once per point that ran, after its journal line is written.
    fn point_finished(&self, index: usize, ok: bool) {
        let done = self.done_points.fetch_add(1, Ordering::Relaxed) + 1;
        let frame =
            watch::point_frame(self.shared.now_ms(), self.job, index as u64, ok, done, self.points);
        self.shared.hub.publish(Some(self.job), &frame);
    }

    fn pool_event(&self, ev: &Event) {
        // Into the JSONL event stream immediately (previously these
        // buffered until the job finished)...
        self.shared.emit(*ev);
        // ...and to every subscriber: with concurrent jobs a worker
        // event cannot be attributed to one job, so it is daemon-scoped.
        self.shared.hub.publish(None, &watch::worker_frame(self.shared.now_ms(), ev));
    }
}

/// The fallible body of a job: plan, seed from any existing journal,
/// run the hardened sweep, finish the journal. A daemon without a state
/// directory keeps no journal.
fn execute_job(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    cancel: &Arc<AtomicBool>,
    done_points: &Arc<AtomicU64>,
) -> Result<JobOutcome, String> {
    let plan = spec.plan()?;
    let exec = spec.exec();
    let (seeded, journal) = match shared.journal_file(spec.id) {
        Some(path) => {
            let (journal, file) = Journal::reopen(&path)?;
            let seeded = seed_job(&journal, &plan, &exec)?;
            let mut writer = JournalWriter::boxed(file);
            if journal.header.is_none() {
                writer.header(&run_header(&plan, &exec));
            }
            (seeded, Some(Mutex::new(writer)))
        }
        None => (BTreeMap::new(), None),
    };
    done_points.store(seeded.len() as u64, Ordering::Relaxed);

    let policy = HardenPolicy {
        point_budget: spec.point_budget,
        chaos: shared.config.chaos.clone(),
        cancel: Some(Arc::clone(cancel)),
        // `trace:NAME` workloads resolve against the ingestion library
        // (the directory committed uploads land in).
        trace_library: shared.ingest.as_ref().map(Ingest::library_dir),
        process: shared.pool.clone(),
        // Always-on: publishing to a hub with no subscribers is a few
        // mutex grabs per checkpoint, and the snapshot schedule rides
        // the instruction clock, so results are identical either way.
        progress: Some(vm_explore::ProgressConfig::new(
            shared.config.checkpoint_interval,
            Arc::new(JobObserver {
                shared: Arc::clone(shared),
                job: spec.id,
                degraded: spec.degraded,
                points: plan.points.len() as u64,
                done_points: Arc::clone(done_points),
            }),
        )),
    };
    let outcome = run_sweep_hardened(
        &plan,
        &exec,
        &policy,
        seeded,
        &Reporter::silent(),
        &mut NopSink,
        journal.as_ref(),
    );
    // A broken journal must not fail the job (results are still valid);
    // it only costs resume coverage, and the writer already went inert.
    if let Some(journal) = journal {
        let _ = journal.into_inner().unwrap_or_else(|e| e.into_inner()).finish();
    }
    let resumed = outcome.resumed;
    let (results, failures) = outcome.into_parts();
    Ok(JobOutcome { results, failures, resumed })
}

/// The completed points a job's journal seeds. A journal with no header
/// (the job never ran, or was killed before its header landed) seeds
/// nothing, and the job runs from the start.
fn seed_job(
    journal: &Journal,
    plan: &SweepPlan,
    exec: &ExecConfig,
) -> Result<BTreeMap<usize, PointResult>, String> {
    match journal.header {
        Some(_) => seeded_from_journal(journal, plan, exec),
        None => Ok(BTreeMap::new()),
    }
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

/// Reloads persisted jobs: the newest finished jobs (up to
/// [`ServeConfig::retained_jobs`]) become queryable again, cancelled jobs
/// stay cancelled, everything else re-queues (seeding from its journal
/// at run time, so completed points never re-simulate).
fn resume_jobs(shared: &Arc<Shared>) -> io::Result<()> {
    let Some(dir) = shared.config.state_dir.clone() else { return Ok(()) };
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name.strip_prefix("job-").and_then(|s| s.strip_suffix(".json")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    // Newest first, so the retention bound keeps the newest finished.
    ids.sort_unstable_by(|a, b| b.cmp(a));
    let retain = shared.config.retained_jobs();
    let (mut queued, mut finished) = (Vec::new(), Vec::new());
    let mut st = shared.lock_state();
    for id in ids {
        st.next_id = st.next_id.max(id + 1);
        let path = dir.join(format!("job-{id:06}.json"));
        let job = match load_persisted_job(shared, &path, id) {
            Ok(job) => job,
            Err(detail) => Job {
                spec: JobSpec {
                    id,
                    tag: None,
                    spec_toml: String::new(),
                    sweep: Vec::new(),
                    warmup: 0,
                    measure: 0,
                    degraded: false,
                    point_budget: None,
                },
                state: JobState::Failed,
                cancel: Arc::new(AtomicBool::new(false)),
                total_points: 0,
                done_points: Arc::new(AtomicU64::new(0)),
                outcome: None,
                error: Some(detail),
                wall_ms: None,
            },
        };
        if job.state == JobState::Queued {
            queued.push(id);
        } else if finished.len() < retain {
            finished.push(id);
        } else {
            continue;
        }
        st.jobs.insert(id, job);
    }
    st.queue.extend(queued.into_iter().rev());
    st.finished.extend(finished.into_iter().rev());
    Ok(())
}

/// Rebuilds one job from its state files and classifies it.
fn load_persisted_job(shared: &Shared, path: &Path, id: u64) -> Result<Job, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read job file {}: {e}", path.display()))?;
    let value = vm_obs::json::parse(text.trim())
        .map_err(|e| format!("corrupt job file {}: {e}", path.display()))?;
    let spec = JobSpec::from_json(&value)?;
    if spec.id != id {
        return Err(format!("job file {} claims id {}", path.display(), spec.id));
    }
    let plan = spec.plan()?;
    let exec = spec.exec();
    let total = plan.points.len();

    let seeded = match shared.journal_file(id) {
        Some(journal_path) if journal_path.exists() => {
            seed_job(&Journal::load(&journal_path)?, &plan, &exec)?
        }
        _ => BTreeMap::new(),
    };
    let cancelled = shared.cancel_marker(id).is_some_and(|m| m.exists());
    let seeded_count = seeded.len() as u64;

    let (state, outcome) = if seeded.len() == total {
        // Every point is journaled as done: the job finished, even if
        // the daemon died before answering `result`.
        let results: Vec<PointResult> = seeded.into_values().collect();
        let n = results.len();
        (JobState::Done, Some(JobOutcome { results, failures: Vec::new(), resumed: n }))
    } else if cancelled {
        let results: Vec<PointResult> = seeded.values().cloned().collect();
        let n = results.len();
        let failures = plan
            .points
            .iter()
            .filter(|p| !seeded.contains_key(&p.index))
            .map(|p| {
                let mut e = SimError::new(p.label.clone(), FailureKind::Cancelled, "job cancelled");
                e.settings = p.settings.clone();
                e
            })
            .collect();
        (JobState::Cancelled, Some(JobOutcome { results, failures, resumed: n }))
    } else {
        (JobState::Queued, None)
    };

    let done = outcome.as_ref().map(|o| o.results.len() as u64).unwrap_or(seeded_count);
    Ok(Job {
        spec,
        state,
        cancel: Arc::new(AtomicBool::new(false)),
        total_points: total,
        done_points: Arc::new(AtomicU64::new(done)),
        outcome,
        error: None,
        wall_ms: None,
    })
}

// ---------------------------------------------------------------------------
// Connections and request dispatch
// ---------------------------------------------------------------------------

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let mut conn = Conn::new(stream, IO_TIMEOUT, shared.config.max_request_bytes);
    // Per-connection upload accounting: one client cannot stage more
    // than its quota no matter how many uploads it opens.
    let mut quota = ConnQuota::default();
    while let Some(line) = conn.next_line() {
        let response = match respond(shared, &mut quota, &line) {
            Answer::Reply(response) => response,
            // `watch` upgrades the connection to a one-way frame stream
            // and consumes it; everything else stays request/response.
            Answer::Watch(job) => {
                watch_stream(shared, &mut conn, job);
                return;
            }
            // `drain` is acked before the flag flips: the accept loop
            // exits (and with it, eventually, the process) the instant
            // `draining` is set, so a response written afterwards races
            // the daemon's death and the requester can read EOF instead
            // of its ack. The connection stays open — a drain summary or
            // a late (shed) request may still follow on it.
            Answer::Drain => {
                let pending = shared.lock_state().queue.len() as u64;
                let resp =
                    ok_response([("draining", Value::Bool(true)), ("pending", pending.into())]);
                let acked = conn.write_line(&resp).is_ok();
                initiate_drain(shared);
                if !acked {
                    return;
                }
                continue;
            }
        };
        if conn.write_line(&response).is_err() {
            return;
        }
    }
}

/// What one request line asks of its connection.
enum Answer {
    /// A response to write back.
    Reply(Value),
    /// `watch`: stream frames for one job (or all) on this connection.
    Watch(Option<u64>),
    /// `drain`: the connection acks it before the flag flips.
    Drain,
}

/// Parses (once) and dispatches one request line. A panic in either
/// answers `500`; the connection (and daemon) live on.
fn respond(shared: &Arc<Shared>, quota: &mut ConnQuota, line: &str) -> Answer {
    let handled = catch_unwind(AssertUnwindSafe(|| {
        parse_request(line).and_then(|req| dispatch(shared, quota, req))
    }));
    match handled {
        Ok(Ok(answer)) => answer,
        Ok(Err(e)) => Answer::Reply(proto::error_response(&e)),
        Err(_) => Answer::Reply(proto::error_response(&ProtoError::new(
            500,
            "internal error handling request",
        ))),
    }
}

fn dispatch(
    shared: &Arc<Shared>,
    quota: &mut ConnQuota,
    req: Request,
) -> Result<Answer, ProtoError> {
    let reply = match req {
        // The connection carries these out itself.
        Request::Watch { job } => return Ok(Answer::Watch(job)),
        Request::Drain => return Ok(Answer::Drain),
        Request::Submit(submit) => handle_submit(shared, submit),
        Request::UploadBegin { name, bytes, fnv } => {
            handle_upload_begin(shared, quota, &name, bytes, fnv)
        }
        Request::UploadChunk { upload, seq, fnv, data } => {
            ingest_of(shared)?.chunk(upload, seq, fnv, &data, &|ev| shared.emit(ev))
        }
        Request::UploadCommit { upload } => {
            ingest_of(shared)?.commit(upload, &|ev| shared.emit(ev))
        }
        Request::UploadAbort { upload } => ingest_of(shared)?.abort(upload, &|ev| shared.emit(ev)),
        Request::UploadStatus { upload, name } => {
            ingest_of(shared)?.status(upload, name.as_deref())
        }
        Request::Status { job } => handle_status(shared, job),
        Request::Result { job, wait } => {
            if wait {
                await_job(shared, job);
            }
            handle_result(shared, job)
        }
        Request::Cancel { job } => handle_cancel(shared, job),
        Request::Health => Ok(handle_health(shared)),
        Request::Stats => Ok(handle_stats(shared)),
    };
    reply.map(Answer::Reply)
}

/// Serves one `watch` subscription: ack, then frames until the job
/// finishes (single-job watch), the subscriber lags out, the hub
/// closes, or the client disconnects.
fn watch_stream(shared: &Arc<Shared>, conn: &mut Conn, job: Option<u64>) {
    // Subscribe *before* the lookup: a job finishing between the two is
    // caught either by the lookup or by its queued `done` frame — never
    // missed. An unknown or expired id is a 404, not a silent stream.
    let sub = shared.hub.subscribe(job, WATCH_BUFFER);
    let synthetic = match job {
        Some(id) => {
            let looked_up = shared.lock_state().job(id).map(|j| {
                j.state.is_terminal().then(|| {
                    let (points, failed) = match &j.outcome {
                        Some(out) => (out.results.len() as u64, out.failures.len() as u64),
                        None => (0, 0),
                    };
                    let wall_ms = j.wall_ms.unwrap_or(0);
                    watch::done_frame(shared.now_ms(), id, j.state.label(), points, failed, wall_ms)
                })
            });
            match looked_up {
                Ok(frame) => frame,
                Err(e) => {
                    let _ = conn.write_line(&proto::error_response(&e));
                    shared.hub.unsubscribe(&sub);
                    return;
                }
            }
        }
        None => None,
    };
    let ack = ok_response([
        (
            "watching",
            match job {
                Some(id) => id.into(),
                None => "*".into(),
            },
        ),
        ("proto", PROTO_VERSION.into()),
    ]);
    if conn.write_line(&ack).is_ok() {
        match synthetic {
            // Already terminal: one done frame and the stream ends.
            Some(frame) => {
                let _ = conn.write_line(&frame);
            }
            None => conn.stream_frames(&sub, job, &|| shared.now_ms()),
        }
    }
    shared.hub.unsubscribe(&sub);
}

/// Uploads need durable staging: without a state directory they are
/// refused outright (a clear 400, not silent in-memory staging that a
/// restart would vaporize).
fn ingest_of(shared: &Shared) -> Result<&Ingest, ProtoError> {
    shared.ingest.as_ref().ok_or_else(|| {
        ProtoError::new(400, "trace upload needs a state directory (start with --state-dir)")
    })
}

/// Admission for `upload-begin`: drain and queue pressure are checked
/// here (they are daemon state, not ingestion state); everything else
/// lives in [`Ingest::begin`].
fn handle_upload_begin(
    shared: &Arc<Shared>,
    quota: &mut ConnQuota,
    name: &str,
    bytes: u64,
    fnv: u64,
) -> Result<Value, ProtoError> {
    let ingest = ingest_of(shared)?;
    let emit = |ev: Event| shared.emit(ev);
    ingest.gc(&emit);
    if shared.draining.load(Ordering::Relaxed) {
        emit(Event::UploadRejected { upload: 0, code: 503 });
        return Err(ProtoError::new(503, "daemon is draining"));
    }
    let queue_full = shared.lock_state().queue.len() >= shared.config.queue_cap;
    ingest.begin(quota, name, bytes, fnv, queue_full, &emit)
}

/// Records a shed decision (event + counters) and builds its 503.
fn shed(shared: &Shared, depth: usize, why: String) -> ProtoError {
    shared.emit(Event::JobShed { queue_depth: depth as u64 });
    let mut stats = shared.lock_stats();
    stats.shed += 1;
    stats.queue_depth.record(depth as u64);
    ProtoError::new(503, why)
}

fn handle_submit(shared: &Arc<Shared>, req: SubmitRequest) -> Result<Value, ProtoError> {
    if shared.draining.load(Ordering::Relaxed) {
        let depth = shared.lock_state().queue.len();
        return Err(shed(shared, depth, "daemon is draining".to_owned()));
    }
    // Resolve requested run lengths before taking any lock.
    let (mut warmup, mut measure) = req.scale.lengths();
    if let Some(w) = req.warmup {
        warmup = w;
    }
    if let Some(m) = req.measure {
        measure = m;
    }
    // Validate the plan outside the lock too: a malformed spec must cost
    // this request alone (and a panic in parsing answers 500 upstream).
    let probe = JobSpec {
        id: 0,
        tag: None,
        spec_toml: req.spec.clone(),
        sweep: req.sweep.clone(),
        warmup,
        measure,
        degraded: false,
        point_budget: req.point_budget,
    };
    let total_points = probe.plan().map_err(|e| ProtoError::new(400, e))?.points.len();

    let (id, depth, degraded) = {
        let mut st = shared.lock_state();
        if shared.draining.load(Ordering::Relaxed) {
            let depth = st.queue.len();
            drop(st);
            return Err(shed(shared, depth, "daemon is draining".to_owned()));
        }
        if st.queue.len() >= shared.config.queue_cap {
            let depth = st.queue.len();
            drop(st);
            return Err(shed(shared, depth, format!("queue full ({depth} queued)")));
        }
        // Degraded fidelity: past the watermark, clamp new jobs to quick
        // scale. Recorded in the job (and its state file) so a resumed
        // job reruns at the same lengths — bit-identity survives drains.
        let (quick_w, quick_m) = Scale::Quick.lengths();
        let (eff_w, eff_m) = if st.queue.len() >= shared.config.degrade_depth {
            (warmup.min(quick_w), measure.min(quick_m))
        } else {
            (warmup, measure)
        };
        let degraded = (eff_w, eff_m) != (warmup, measure);
        let id = st.next_id;
        let spec = JobSpec {
            id,
            tag: req.tag.clone(),
            spec_toml: req.spec,
            sweep: req.sweep,
            warmup: eff_w,
            measure: eff_m,
            degraded,
            point_budget: req.point_budget,
        };
        if let Some(path) = shared.job_file(id) {
            // Persist before acknowledging: an admitted job must survive
            // a kill, or "202 accepted" would be a lie.
            std::fs::write(&path, format!("{}\n", spec.to_json()))
                .map_err(|e| ProtoError::new(500, format!("cannot persist job state: {e}")))?;
        }
        // Only now is the id spent: every id below `next_id` names an
        // admitted job, which is what lets an evicted one read `expired`.
        st.next_id += 1;
        st.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                total_points,
                done_points: Arc::new(AtomicU64::new(0)),
                outcome: None,
                error: None,
                wall_ms: None,
            },
        );
        st.queue.push_back(id);
        let depth = st.queue.len();
        shared.wake.notify_one();
        (id, depth, degraded)
    };
    shared.emit(Event::JobAdmitted { job: id, queue_depth: depth as u64, degraded });
    shared.hub.publish(
        Some(id),
        &watch::admitted_frame(shared.now_ms(), id, total_points as u64, depth as u64, degraded),
    );
    {
        let mut stats = shared.lock_stats();
        stats.admitted += 1;
        if degraded {
            stats.degraded += 1;
        }
        stats.queue_depth.record(depth as u64);
    }
    Ok(ok_response([
        ("job", id.into()),
        ("points", (total_points as u64).into()),
        ("degraded", Value::Bool(degraded)),
        ("queue_depth", (depth as u64).into()),
    ]))
}

fn handle_status(shared: &Shared, id: u64) -> Result<Value, ProtoError> {
    let st = shared.lock_state();
    let job = st.job(id)?;
    let failed = job.outcome.as_ref().map(|o| o.failures.len() as u64);
    Ok(ok_response([
        ("job", id.into()),
        ("state", job.state.label().into()),
        ("tag", job.spec.tag.clone().map_or(Value::Null, Value::Str)),
        ("points", (job.total_points as u64).into()),
        ("done", job.done_points.load(Ordering::Relaxed).into()),
        ("failed", failed.map_or(Value::Null, Value::from)),
        ("degraded", Value::Bool(job.spec.degraded)),
        ("error", job.error.clone().map_or(Value::Null, Value::Str)),
    ]))
}

/// Blocks until job `id` is terminal, the hub closes (the daemon
/// drained) or [`RESULT_WAIT`] passes; `result` then answers whatever
/// it finds. Subscribes *before* the lookup, as `watch_stream` does, so
/// a job finishing between the two is caught either by the lookup or by
/// its `done` frame. An unknown or expired id returns at once.
fn await_job(shared: &Shared, id: u64) {
    let sub = shared.hub.subscribe(Some(id), WATCH_BUFFER);
    let until = Instant::now() + RESULT_WAIT;
    loop {
        let settled = shared.lock_state().job(id).map_or(true, |j| j.state.is_terminal());
        let left = until.saturating_duration_since(Instant::now());
        if settled || left.is_zero() {
            break;
        }
        match sub.next(left) {
            SubNext::Frame(_) | SubNext::Idle => {}
            SubNext::Lagged | SubNext::Closed => break,
        }
    }
    shared.hub.unsubscribe(&sub);
}

fn handle_result(shared: &Shared, id: u64) -> Result<Value, ProtoError> {
    let st = shared.lock_state();
    let job = st.job(id)?;
    if !job.state.is_terminal() {
        return Err(ProtoError::new(
            202,
            format!(
                "job {id} not finished ({}, {}/{} points)",
                job.state.label(),
                job.done_points.load(Ordering::Relaxed),
                job.total_points
            ),
        ));
    }
    if job.state == JobState::Failed {
        // Job-level death (crashed worker, panic outside isolation,
        // broken plan at resume) is a server error, not a result.
        let detail = job.error.clone().unwrap_or_else(|| "job failed".to_owned());
        return Err(ProtoError::new(500, format!("job {id} failed: {detail}")));
    }
    let (results, failures) = job
        .outcome
        .as_ref()
        .map(JobOutcome::to_json)
        .unwrap_or((Value::Arr(Vec::new()), Value::Arr(Vec::new())));
    Ok(ok_response([
        ("job", id.into()),
        ("state", job.state.label().into()),
        ("degraded", Value::Bool(job.spec.degraded)),
        ("resumed", job.outcome.as_ref().map_or(0u64, |o| o.resumed as u64).into()),
        ("error", job.error.clone().map_or(Value::Null, Value::Str)),
        ("results", results),
        ("failures", failures),
    ]))
}

fn handle_cancel(shared: &Shared, id: u64) -> Result<Value, ProtoError> {
    let prior = {
        let mut st = shared.lock_state();
        let next_id = st.next_id;
        let job = st.jobs.get_mut(&id).ok_or_else(|| missing(id, next_id))?;
        let prior = job.state;
        match prior {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.outcome = Some(JobOutcome::default());
            }
            JobState::Running => {
                // Cooperative: the in-flight point finishes and is
                // journaled; the rest drain as `cancelled` failures and
                // the state flips when the sweep returns.
                job.cancel.store(true, Ordering::Relaxed);
            }
            _ => {}
        }
        if prior == JobState::Queued {
            st.queue.retain(|&q| q != id);
            st.retire(id, shared.config.retained_jobs());
        }
        prior
    };
    if matches!(prior, JobState::Queued | JobState::Running) {
        // The marker is what distinguishes "cancelled on purpose" from
        // "interrupted by a drain" at resume time.
        if let Some(marker) = shared.cancel_marker(id) {
            let _ = std::fs::write(marker, b"");
        }
    }
    if prior == JobState::Queued {
        shared.lock_stats().cancelled += 1;
        // A queued job cancels synchronously (no run_job will publish
        // for it): its watchers get their terminal frame here.
        shared.hub.publish(
            Some(id),
            &watch::done_frame(shared.now_ms(), id, JobState::Cancelled.label(), 0, 0, 0),
        );
    }
    let state = if prior == JobState::Queued { JobState::Cancelled } else { prior };
    Ok(ok_response([("job", id.into()), ("state", state.label().into())]))
}

fn handle_health(shared: &Shared) -> Value {
    let st = shared.lock_state();
    let running = st.jobs.values().filter(|j| j.state == JobState::Running).count() as u64;
    let state = if shared.draining.load(Ordering::Relaxed) { "draining" } else { "serving" };
    ok_response([
        ("state", state.into()),
        ("proto", PROTO_VERSION.into()),
        ("jobs", (st.jobs.len() as u64).into()),
        ("queued", (st.queue.len() as u64).into()),
        ("running", running.into()),
        ("workers", (shared.config.workers.max(1) as u64).into()),
        ("worker_processes", (shared.config.worker_processes as u64).into()),
    ])
}

fn handle_stats(shared: &Shared) -> Value {
    let queued = shared.lock_state().queue.len() as u64;
    let stats = shared.lock_stats();
    let mut v = stats.to_json();
    if let Value::Obj(pairs) = &mut v {
        pairs.insert(0, ("queued".to_owned(), queued.into()));
        pairs.insert(0, ("code".to_owned(), 200u64.into()));
        pairs.insert(0, ("ok".to_owned(), Value::Bool(true)));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    const SPEC: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n";

    type Serving = std::thread::JoinHandle<io::Result<ServeSummary>>;

    /// A one-worker daemon serving on its own thread, and its state.
    fn daemon() -> (SocketAddr, Arc<Shared>, Serving) {
        let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let (addr, shared) = (server.local_addr().unwrap(), Arc::clone(&server.shared));
        (addr, shared, std::thread::spawn(move || server.serve()))
    }

    /// Submits a sweep over `axes` at `measure` instructions a point and
    /// returns the job id.
    fn submit(client: &mut Client, axes: &[&str], measure: u64) -> u64 {
        let resp = client
            .request(&Value::obj([
                ("req", "submit".into()),
                ("spec", SPEC.into()),
                ("sweep", Value::Arr(axes.iter().map(|&a| a.into()).collect())),
                ("warmup", 1_000u64.into()),
                ("measure", measure.into()),
            ]))
            .unwrap();
        resp.get("job").and_then(Value::as_u64).expect("admitted")
    }

    fn result(job: u64, wait: bool) -> Value {
        Value::obj([("req", "result".into()), ("job", job.into()), ("wait", wait.into())])
    }

    fn code(v: &Value) -> u64 {
        v.get("code").and_then(Value::as_u64).unwrap()
    }

    #[test]
    fn a_waiting_result_answers_the_finished_job_in_one_request() {
        let (addr, _, serving) = daemon();
        let mut c = Client::connect(addr).unwrap();
        let job = submit(&mut c, &["tlb.entries=16,32,64,128"], 50_000);
        assert_eq!(code(&c.request(&result(job, false)).unwrap()), 202, "not finished yet");
        let waited = c.request(&result(job, true)).unwrap();
        assert_eq!(code(&waited), 200, "{waited}");
        assert_eq!(waited.get("state").and_then(Value::as_str), Some("done"));
        let plain = c.request(&result(job, false)).unwrap();
        assert_eq!(waited.to_string(), plain.to_string());
        c.request(&Value::obj([("req", "drain".into())])).unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn a_waiting_result_for_an_unknown_job_answers_404_at_once() {
        let (addr, _, serving) = daemon();
        let mut c = Client::connect(addr).unwrap();
        let started = Instant::now();
        assert_eq!(code(&c.request(&result(99, true)).unwrap()), 404);
        assert!(started.elapsed() < RESULT_WAIT / 5, "took {:?}", started.elapsed());
        c.request(&Value::obj([("req", "drain".into())])).unwrap();
        serving.join().unwrap().unwrap();
    }

    #[test]
    fn a_drain_answers_outstanding_waits_before_the_bound() {
        let (addr, shared, serving) = daemon();
        let mut c = Client::connect(addr).unwrap();
        // One worker: the first job runs for seconds, the second stays
        // queued behind it.
        let axes = ["tlb.entries=16,32,64,128", "cache.l1=4K,8K,16K", "mmu.table=two-tier,hashed"];
        let running = submit(&mut c, &axes, 200_000);
        let queued = submit(&mut c, &["tlb.entries=16"], 1_000);
        let waits: Vec<_> = [running, queued]
            .into_iter()
            .map(|job| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let resp = c.request(&result(job, true)).unwrap();
                    (resp, Instant::now())
                })
            })
            .collect();
        // Drain only once both waits hold their subscriptions.
        let until = Instant::now() + RESULT_WAIT;
        while shared.hub.subscribers() < 2 {
            assert!(Instant::now() < until, "the waits never subscribed");
            std::thread::yield_now();
        }
        let drained = Instant::now();
        c.request(&Value::obj([("req", "drain".into())])).unwrap();
        let answers: Vec<(Value, Instant)> = waits.into_iter().map(|w| w.join().unwrap()).collect();
        for (resp, at) in &answers {
            let after = at.saturating_duration_since(drained);
            assert!(after < RESULT_WAIT / 2, "answered {after:?} after the drain: {resp}");
        }
        // The running job was cancelled by the drain: a terminal answer.
        let (cancelled, _) = &answers[0];
        assert_eq!(code(cancelled), 200, "{cancelled}");
        assert_eq!(cancelled.get("state").and_then(Value::as_str), Some("cancelled"));
        // The queued job stays queued for a resume; the closed hub ends
        // its wait with today's answer.
        assert_eq!(code(&answers[1].0), 202, "{}", answers[1].0);
        serving.join().unwrap().unwrap();
    }
}
