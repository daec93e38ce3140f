//! The parallel, fault-isolated sweep executor, and the scheduling core
//! that every sweep and every experiment driver runs on.
//!
//! [`run_items`] runs a list of independent items on scoped worker
//! threads that claim the next index from one shared cursor, and merges
//! what they produce by index. Every random stream a *result* depends on
//! — the workload generator and the TLB replacement RNG — is seeded from
//! the point's spec alone, never from worker identity; the same sweep
//! therefore produces bit-identical results at any `--jobs` count.
//!
//! [`run_sweep_hardened`] is the full executor: each point runs inside
//! `catch_unwind` so one panicking point becomes a
//! [`PointOutcome::Failed`] data point instead of a dead run, transient
//! I/O failures are retried under a [`RetryPolicy`], a walk-cycle
//! [`HardenPolicy::point_budget`] degrades runaway points to
//! [`PointOutcome::TimedOut`], finished points stream into an optional
//! run journal for crash-safe resume, and a [`ChaosPlan`] can inject
//! faults to prove all of it works. [`run_sweep`] is the strict facade:
//! same machinery, but any failure is a panic (for callers that treat
//! the plan as pre-validated).
//!
//! Progress goes through the `vm-obs` [`Reporter`] (a heartbeat line
//! roughly every two seconds, per-point completions at Verbose), and the
//! sweep's lifecycle is emitted into any [`Sink`]: an optional
//! [`Event::RunResumed`], [`Event::SweepStarted`], then — in point
//! order, after the order-independent merge, so event streams are
//! deterministic at any worker count — [`Event::PointRetried`] per
//! retry and one [`Event::SweepPointDone`] or [`Event::PointFailed`]
//! per point.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vm_core::cost::CostModel;
use vm_core::{simulate, simulate_with_sink, SimConfig, SimReport};
use vm_harden::{
    quiet_panics, with_retry_salted, ChaosPlan, CheckedTrace, DeadlineSink, DynJournalWriter,
    FailureKind, Fault, JournalEntry, PointOutcome, RetryPolicy, SimError,
};
use vm_obs::{Event, Reporter, Sink, SnapshotSink, Tee, HEARTBEAT_PERIOD};
use vm_supervise::WorkerPool;

use crate::journal::result_to_value;
use crate::progress::{PointCheckpoint, ProgressConfig};
use crate::sweep::{PlannedPoint, SweepPlan};

/// Run-length presets trading fidelity against wall-clock time: the one
/// table behind the experiment drivers, sweeps, and the serve protocol's
/// named scales.
///
/// The paper ran ≤200 M instructions per point; cache/TLB behaviour
/// stabilizes far earlier for the megabyte-scale working sets simulated
/// here, so the default measures 2 M instructions after a 1 M warm-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Instructions executed before counters are reset.
    pub warmup: u64,
    /// Instructions measured.
    pub measure: u64,
}

impl RunScale {
    /// Fast smoke-test scale (CI, examples).
    pub const QUICK: RunScale = RunScale { warmup: 200_000, measure: 500_000 };
    /// The default experiment scale.
    pub const DEFAULT: RunScale = RunScale { warmup: 1_000_000, measure: 2_000_000 };
    /// High-fidelity scale for final numbers.
    pub const FULL: RunScale = RunScale { warmup: 2_000_000, measure: 8_000_000 };
}

impl Default for RunScale {
    fn default() -> RunScale {
        RunScale::DEFAULT
    }
}

/// Run lengths for one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Instructions executed before counters are reset.
    pub warmup: u64,
    /// Instructions measured.
    pub measure: u64,
    /// Worker threads (clamped to at least 1, at most the point count).
    pub jobs: usize,
}

impl ExecConfig {
    /// [`RunScale::DEFAULT`] on one worker.
    pub const DEFAULT: ExecConfig = ExecConfig {
        warmup: RunScale::DEFAULT.warmup,
        measure: RunScale::DEFAULT.measure,
        jobs: 1,
    };
    /// [`RunScale::QUICK`] on one worker.
    pub const QUICK: ExecConfig =
        ExecConfig { warmup: RunScale::QUICK.warmup, measure: RunScale::QUICK.measure, jobs: 1 };
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::DEFAULT
    }
}

/// Fault-handling knobs for a hardened sweep.
#[derive(Debug, Clone, Default)]
pub struct HardenPolicy {
    /// Retry policy for transient (I/O) point failures.
    pub retry: RetryPolicy,
    /// Walk-cycle budget per point; exceeding it degrades the point to
    /// [`PointOutcome::TimedOut`]. `None` = unlimited.
    pub point_budget: Option<u64>,
    /// Fault-injection plan (empty = no chaos).
    pub chaos: ChaosPlan,
    /// Cooperative cancellation flag, checked between points. Once set,
    /// points that have not started become [`FailureKind::Cancelled`]
    /// failures (never journaled, so a resume re-runs them); points
    /// already simulating finish and are journaled normally.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Process-level isolation: when set, every point executes inside a
    /// sandboxed worker process leased from this supervised pool instead
    /// of in-process under `catch_unwind`. The worker runs the *same*
    /// measurement path (chaos, retries, budgets included) and replies
    /// with the bit-exact journal codec, so merged results are identical
    /// to in-process runs at any `--jobs` count — but a point that
    /// aborts, segfaults, or is OOM-killed costs one worker, not the
    /// sweep ([`FailureKind::Crash`] once the crash-loop breaker trips).
    pub process: Option<Arc<WorkerPool>>,
    /// Live progress reporting: when set, in-process points run with a
    /// [`SnapshotSink`] attached and fire
    /// [`SweepObserver::checkpoint`](crate::progress::SweepObserver::checkpoint)
    /// every `interval` retired instructions; every point (including
    /// process-isolated ones, which checkpoint only at point
    /// granularity) fires `point_finished`, and supervised-pool
    /// lifecycle events are drained to `pool_event` as points complete
    /// instead of only at sweep teardown. Observers are observers:
    /// results stay bit-identical with or without one attached.
    pub progress: Option<ProgressConfig>,
    /// Where `trace:NAME` workloads are loaded from. `None` falls back
    /// to the `VM_TRACE_LIBRARY` environment variable; a point that
    /// names a library trace with neither set fails as
    /// [`FailureKind::Ingest`]. The serve daemon sets this to
    /// `<state-dir>/traces` so uploaded traces resolve identically
    /// in-process and across the worker wire.
    pub trace_library: Option<std::path::PathBuf>,
}

/// One measured sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Position in sweep order.
    pub index: usize,
    /// The point's label (`NAME key=value ...`).
    pub label: String,
    /// The `(axis key, value)` pairs that distinguish this point.
    pub settings: Vec<(String, String)>,
    /// The composed system's paper-style label.
    pub system: String,
    /// The workload preset measured.
    pub workload: String,
    /// VM overhead CPI (Table 3 components).
    pub vmcpi: f64,
    /// Precise-interrupt CPI at the spec's interrupt cost.
    pub interrupt_cpi: f64,
    /// Baseline cache overhead CPI (Table 2 components).
    pub mcpi: f64,
    /// `vmcpi + interrupt_cpi` — the quantity the Pareto frontier and
    /// sensitivity passes minimize.
    pub vm_total: f64,
    /// The TLB area proxy (see [`tlb_area_bytes`]).
    pub tlb_area_bytes: u64,
    /// Combined I+D TLB miss ratio, when the system has TLBs.
    pub tlb_miss_ratio: Option<f64>,
    /// User instructions measured.
    pub user_instrs: u64,
    /// Lineage-context fingerprint: canonical spec TOML, label, trace
    /// seed, and exec scale, hashed where the simulation ran (see
    /// [`crate::attest`]).
    pub ctx: u64,
    /// Attestation over `ctx` plus every payload bit (index excluded);
    /// re-verified at every trust boundary downstream.
    pub att: u64,
}

/// The per-point outcome a hardened sweep produces.
pub type SweepPointOutcome = PointOutcome<PointResult>;

/// Everything a hardened sweep produced: one outcome per planned point
/// (in point order), attempt counts, and how many points came from a
/// journal instead of being simulated.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One outcome per point, in point order.
    pub outcomes: Vec<SweepPointOutcome>,
    /// Attempts consumed per point (1 = first try; journaled points
    /// keep 1).
    pub attempts: Vec<u32>,
    /// Points restored from a resume journal rather than simulated.
    pub resumed: usize,
}

impl SweepOutcome {
    /// The completed results, in point order.
    pub fn results(&self) -> impl Iterator<Item = &PointResult> {
        self.outcomes.iter().filter_map(PointOutcome::completed)
    }

    /// The failures (including timeouts), in point order.
    pub fn failures(&self) -> impl Iterator<Item = &SimError> {
        self.outcomes.iter().filter_map(PointOutcome::error)
    }

    /// How many points did not complete.
    pub fn failed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failure()).count()
    }

    /// Whether every point completed.
    pub fn is_clean(&self) -> bool {
        self.failed_count() == 0
    }

    /// Splits into completed results and failures, both in point order.
    pub fn into_parts(self) -> (Vec<PointResult>, Vec<SimError>) {
        let mut results = Vec::new();
        let mut failures = Vec::new();
        for outcome in self.outcomes {
            match outcome {
                PointOutcome::Completed(r) => results.push(r),
                PointOutcome::Failed(e) | PointOutcome::TimedOut(e) => failures.push(e),
            }
        }
        (results, failures)
    }
}

/// A die-area proxy for the translation hardware: split I/D TLBs at 16
/// bytes per fully-associative entry (~50 tag+data bits plus CAM
/// overhead). The absolute scale is arbitrary; the Pareto frontier only
/// consumes the ordering. TLB-less systems cost 0.
pub fn tlb_area_bytes(config: &SimConfig) -> u64 {
    if config.system.uses_tlb() {
        2 * config.tlb_entries as u64 * 16
    } else {
        0
    }
}

/// Runs every point of `plan`, returning results in point order.
///
/// The strict facade over [`run_sweep_hardened`]: no retries, no budget,
/// no chaos, no journal — and any point failure panics.
///
/// `sink` receives the sweep lifecycle events ([`Event::SweepStarted`]
/// up front, one [`Event::SweepPointDone`] per point, emitted after the
/// order-independent merge so event streams are deterministic too); pass
/// [`vm_obs::NopSink`] when nothing listens.
///
/// # Panics
///
/// Panics if a point's workload fails to build or the simulation rejects
/// a config — both are validated during planning, so a failure here is a
/// programming error.
pub fn run_sweep<S: Sink>(
    plan: &SweepPlan,
    exec: &ExecConfig,
    reporter: &Reporter,
    sink: &mut S,
) -> Vec<PointResult> {
    let outcome = run_sweep_hardened(
        plan,
        exec,
        &HardenPolicy::default(),
        BTreeMap::new(),
        reporter,
        sink,
        None,
    );
    outcome
        .outcomes
        .into_iter()
        .map(|o| match o {
            PointOutcome::Completed(r) => r,
            PointOutcome::Failed(e) | PointOutcome::TimedOut(e) => panic!("{e}"),
        })
        .collect()
}

/// Runs `plan` with per-point fault isolation, returning one
/// [`SweepPointOutcome`] per point in point order.
///
/// * Points whose index appears in `seeded` (results restored from a
///   resume journal) are not re-simulated; they are merged back in
///   place, bit-identical to an uninterrupted run, and counted in
///   [`SweepOutcome::resumed`].
/// * Each simulated point runs under `catch_unwind` with the panic hook
///   quieted: a panic, corrupt trace record, or blown walk-cycle budget
///   becomes that point's [`PointOutcome`], never the run's death.
/// * Transient ([`FailureKind::Io`]) failures retry under
///   `policy.retry` with capped exponential backoff.
/// * Every finished point (completed or failed) is appended to
///   `journal` when one is given, so a killed run can resume.
pub fn run_sweep_hardened<S: Sink>(
    plan: &SweepPlan,
    exec: &ExecConfig,
    policy: &HardenPolicy,
    mut seeded: BTreeMap<usize, PointResult>,
    reporter: &Reporter,
    sink: &mut S,
    journal: Option<&Mutex<DynJournalWriter>>,
) -> SweepOutcome {
    let points = &plan.points;
    let total = points.len();
    let resumed = seeded.keys().filter(|&&ix| ix < total).count();
    if S::ENABLED {
        if resumed > 0 {
            sink.emit(
                0,
                &Event::RunResumed {
                    completed: resumed as u64,
                    remaining: (total - resumed) as u64,
                },
            );
        }
        sink.emit(
            0,
            &Event::SweepStarted {
                points: total as u64,
                axes: points.first().map(|p| p.settings.len() as u32).unwrap_or(0),
                jobs: exec.jobs.max(1) as u32,
            },
        );
    }

    let pending: Vec<usize> = (0..total).filter(|ix| !seeded.contains_key(ix)).collect();
    let mut ran =
        run_pending(points, &pending, exec, policy, reporter, journal, S::ENABLED).into_iter();
    let (outcomes, attempts): (Vec<_>, Vec<_>) = (0..total)
        .map(|ix| match seeded.remove(&ix) {
            Some(r) => (PointOutcome::Completed(r), 1),
            None => ran.next().expect("one outcome per pending point"),
        })
        .unzip();

    if S::ENABLED {
        let mut now = 0;
        for (ix, outcome) in outcomes.iter().enumerate() {
            for retry in 2..=attempts[ix] {
                sink.emit(now, &Event::PointRetried { index: ix as u64, attempt: retry });
            }
            match outcome {
                PointOutcome::Completed(r) => {
                    now += r.user_instrs;
                    sink.emit(
                        now,
                        &Event::SweepPointDone {
                            index: ix as u64,
                            instrs: r.user_instrs,
                            vm_total_micro: (r.vm_total * 1e6).round() as u64,
                        },
                    );
                }
                PointOutcome::Failed(_) | PointOutcome::TimedOut(_) => {
                    sink.emit(
                        now,
                        &Event::PointFailed {
                            index: ix as u64,
                            attempts: attempts[ix],
                            timed_out: matches!(outcome, PointOutcome::TimedOut(_)),
                        },
                    );
                }
            }
        }
        // Supervision telemetry (spawns, crashes, restarts, breaker
        // trips) trails the per-point events; the pool buffers them
        // because they happen on worker threads, off the sink.
        if let Some(pool) = &policy.process {
            for ev in pool.take_events() {
                sink.emit(now, &ev);
            }
        }
    } else if let Some(pool) = &policy.process {
        // A sink-less sweep must not accumulate events forever on a pool
        // that outlives it: drain, and hand any leftovers (events raced
        // in after the last per-point drain) to the observer instead of
        // discarding them.
        let leftovers = pool.take_events();
        if let Some(progress) = &policy.progress {
            for ev in &leftovers {
                progress.observer.pool_event(ev);
            }
        }
    }
    SweepOutcome { outcomes, attempts, resumed }
}

/// Runs `work` over `items` on up to `threads` scoped workers and returns
/// what it produced, in item order.
///
/// This is the one scheduling core behind every sweep and every
/// experiment driver. Workers claim the next index from one shared
/// cursor, so the work balances itself, and results merge by index, so
/// the returned vector is the same at any `threads`. `work` returns
/// `None` to decline an item: nothing is stored, counted or reported for
/// it. Otherwise it returns the item's result, the item's label and a
/// status word for the per-item Verbose completion line. `instrs` gives
/// each item's planned instruction count; the heartbeat sums it over the
/// items that have finished.
///
/// Workers run under [`quiet_panics`], so `work` must catch the unwinds
/// it expects. A panic that escapes `work` is resumed on the caller once
/// every worker has stopped.
pub fn run_items<'a, T: Sync, R: Send>(
    items: &'a [T],
    threads: usize,
    reporter: &Reporter,
    label: &str,
    instrs: impl Fn(&T) -> u64 + Sync,
    work: impl Fn(&'a T) -> Option<(R, &'a str, &'static str)> + Sync,
) -> Vec<Option<R>> {
    let planned: u64 = items.iter().map(&instrs).sum();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let simulated = AtomicU64::new(0);
    let started = Instant::now();
    // Silent for short runs (first beat after ~2s), periodic progress
    // for long ones.
    let beat = || {
        let instrs = simulated.load(Ordering::Relaxed);
        reporter.heartbeat(format!(
            "  [{label}] {}/{} done ({:.0}% of planned instrs) at {:.1}M instrs/s",
            done.load(Ordering::Relaxed),
            items.len(),
            100.0 * instrs as f64 / planned.max(1) as f64,
            instrs as f64 / started.elapsed().as_secs_f64().max(1e-9) / 1e6,
        ));
    };
    let worker = || {
        // `work` catches and classifies the unwinds it expects; keep the
        // hook from printing a banner for each of them.
        let _quiet = quiet_panics();
        let mut finished = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break finished };
            let t0 = Instant::now();
            let Some((result, name, status)) = work(item) else { continue };
            simulated.fetch_add(instrs(item), Ordering::Relaxed);
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            reporter.detail(format!(
                "  [{label}] {k}/{} `{name}` {status} in {:.2}s",
                items.len(),
                t0.elapsed().as_secs_f64()
            ));
            finished.push((i, result));
        }
    };
    let joined = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..threads.max(1).min(items.len())).map(|_| scope.spawn(worker)).collect();
        reporter.with_heartbeat(HEARTBEAT_PERIOD, beat, || {
            workers.into_iter().map(|w| w.join()).collect::<Vec<_>>()
        })
    });
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for finished in joined {
        match finished {
            Ok(finished) => finished.into_iter().for_each(|(i, r)| results[i] = Some(r)),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    results
}

/// Simulates the `pending` points of `plan` on [`run_items`], returning
/// `(outcome, attempts)` per pending point, in order.
fn run_pending(
    points: &[PlannedPoint],
    pending: &[usize],
    exec: &ExecConfig,
    policy: &HardenPolicy,
    reporter: &Reporter,
    journal: Option<&Mutex<DynJournalWriter>>,
    sink_enabled: bool,
) -> Vec<(SweepPointOutcome, u32)> {
    let instrs = |_: &usize| exec.warmup + exec.measure;
    let ran = run_items(pending, exec.jobs, reporter, "explore", instrs, |&ix| {
        let point = &points[ix];
        if policy.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)) {
            if let Some(progress) = &policy.progress {
                progress.observer.point_finished(ix, false);
            }
            return None;
        }
        let (outcome, tries) = measure_point_isolated(point, exec, policy);
        if let Some(journal) = journal {
            let entry = JournalEntry::from_outcome(
                ix as u64,
                &point.label,
                &outcome,
                tries,
                result_to_value,
            );
            journal.lock().unwrap_or_else(|e| e.into_inner()).record(&entry);
        }
        if let Some(progress) = &policy.progress {
            progress.observer.point_finished(ix, matches!(outcome, PointOutcome::Completed(_)));
            // Deliver supervision telemetry (crashes, restarts, breaker
            // trips) live, per point, rather than only at sweep teardown.
            // When a recording sink is attached it keeps its
            // deterministic teardown drain instead.
            if !sink_enabled {
                if let Some(pool) = &policy.process {
                    for ev in pool.take_events() {
                        progress.observer.pool_event(&ev);
                    }
                }
            }
        }
        let status = outcome.status_label();
        Some(((outcome, tries), point.label.as_str(), status))
    });
    // Only the cancel flag declines a point. Such points drain without
    // simulating or journaling: the missing journal entry is what makes a
    // resume re-run them.
    ran.into_iter()
        .zip(pending)
        .map(|(ran, &ix)| {
            ran.unwrap_or_else(|| {
                let e = point_error(
                    &points[ix],
                    FailureKind::Cancelled,
                    "sweep cancelled before this point ran",
                );
                (PointOutcome::Failed(e), 1)
            })
        })
        .collect()
}

/// A [`SimError`] carrying the point's label and axis settings.
pub(crate) fn point_error(
    point: &PlannedPoint,
    kind: FailureKind,
    detail: impl Into<String>,
) -> SimError {
    let mut e = SimError::new(point.label.clone(), kind, detail);
    e.settings = point.settings.clone();
    e
}

/// Measures one point with full isolation. With
/// [`HardenPolicy::process`] set the point crosses into a supervised
/// worker process (which runs this same function, sans pool); otherwise
/// it runs in-process: chaos injection, retries for transient failures,
/// `catch_unwind` classification of panics and sentinels. Returns the
/// outcome and the attempts consumed.
pub(crate) fn measure_point_isolated(
    point: &PlannedPoint,
    exec: &ExecConfig,
    policy: &HardenPolicy,
) -> (SweepPointOutcome, u32) {
    if let Some(pool) = &policy.process {
        return crate::process::measure_point_process(pool, point, exec, policy);
    }
    let (result, attempts) = with_retry_salted(&policy.retry, point.index as u64, |attempt| {
        if policy.chaos.fault_for(point.index) == Some(Fault::Io) {
            let failures = policy.chaos.io_failures(point.index);
            if attempt <= failures {
                return Err(point_error(
                    point,
                    FailureKind::Io,
                    format!("chaos: injected I/O failure ({attempt} of {failures})"),
                ));
            }
        }
        try_measure_point(point, exec, policy)
    });
    match result {
        Ok(r) => (PointOutcome::Completed(r), attempts),
        Err(e) if e.kind == FailureKind::Timeout => (PointOutcome::TimedOut(e), attempts),
        Err(e) => (PointOutcome::Failed(e), attempts),
    }
}

/// A point's record source: a synthetic preset or a replayed library
/// trace. Both feed the same infallible-iterator pipeline (chaos wrap,
/// [`CheckedTrace`], `simulate`); a library trace is fully decoded and
/// validated *before* this enum exists, so decode failures surface as
/// structured [`FailureKind::Ingest`] errors, never mid-simulation.
enum PointTrace {
    Synth(Box<vm_trace::SyntheticTrace>),
    Replay(std::vec::IntoIter<vm_trace::InstrRecord>),
}

impl Iterator for PointTrace {
    type Item = vm_trace::InstrRecord;

    fn next(&mut self) -> Option<vm_trace::InstrRecord> {
        match self {
            PointTrace::Synth(t) => t.next(),
            PointTrace::Replay(t) => t.next(),
        }
    }
}

/// Resolves a point's workload into a record source and display label.
fn point_trace(
    point: &PlannedPoint,
    policy: &HardenPolicy,
) -> Result<(String, PointTrace), SimError> {
    let name = point.spec.workload_name();
    if let Some(trace_name) = vm_trace::trace_workload(name) {
        let library = policy
            .trace_library
            .clone()
            .map(vm_trace::TraceLibrary::new)
            .or_else(vm_trace::TraceLibrary::from_env)
            .ok_or_else(|| {
                point_error(
                    point,
                    FailureKind::Ingest,
                    vm_trace::LibraryError::NoLibrary.to_string(),
                )
            })?;
        let records = library
            .load(trace_name)
            .map_err(|e| point_error(point, FailureKind::Ingest, e.to_string()))?;
        Ok((name.to_owned(), PointTrace::Replay(records.into_iter())))
    } else {
        let workload = vm_trace::presets::by_name(name).ok_or_else(|| {
            point_error(point, FailureKind::Workload, "workload vanished after validation")
        })?;
        let trace = workload
            .build(point.spec.trace_seed)
            .map_err(|e| point_error(point, FailureKind::Workload, e.to_string()))?;
        Ok((workload.name, PointTrace::Synth(Box::new(trace))))
    }
}

/// One attempt at simulating a point, every failure mode mapped to a
/// structured [`SimError`].
fn try_measure_point(
    point: &PlannedPoint,
    exec: &ExecConfig,
    policy: &HardenPolicy,
) -> Result<PointResult, SimError> {
    let (workload_label, trace) = point_trace(point, policy)?;
    let horizon = exec.warmup + exec.measure;
    let checked = CheckedTrace::new(policy.chaos.wrap(point.index, horizon, trace));
    let run = catch_unwind(AssertUnwindSafe(|| {
        match (policy.point_budget, &policy.progress) {
            (None, None) => simulate(&point.config, checked, exec.warmup, exec.measure),
            (budget, progress) => {
                // Sinks are observers by construction, so attaching the
                // deadline and/or snapshot sink leaves the measured results
                // bit-identical.
                let cost = CostModel::paper(point.spec.interrupt_cycles);
                let snap = progress.as_ref().map(|progress| {
                    SnapshotSink::new(progress.interval, |cp| {
                        let cp = PointCheckpoint::from_snapshot(point, cp, horizon, &cost);
                        progress.observer.checkpoint(&cp);
                    })
                });
                let sink = Tee(budget.map(DeadlineSink::new), snap);
                simulate_with_sink(&point.config, checked, exec.warmup, exec.measure, sink)
                    .map(|(report, _)| report)
            }
        }
        .map_err(|e| point_error(point, FailureKind::Build, e.to_string()))
    }));
    let report = match run {
        Ok(simulated) => simulated?,
        Err(payload) => {
            let mut e = SimError::from_panic(point.label.clone(), payload);
            e.settings = point.settings.clone();
            return Err(e);
        }
    };
    let mut result = result_row(point, workload_label, report);
    if policy.chaos.fault_for(point.index) == Some(Fault::Lie) {
        // The Byzantine chaos fault: an honest simulation, then one ulp
        // of corruption — applied BEFORE signing, so the lie leaves here
        // with a perfectly valid attestation. Only divergence detection
        // or an audit against another backend can catch it.
        result.vmcpi = f64::from_bits(result.vmcpi.to_bits() ^ 1);
        result.vm_total = result.vmcpi + result.interrupt_cpi;
    }
    crate::attest::seal(&mut result, crate::attest::context_for(point, exec));
    Ok(result)
}

/// Derives a result row from a point's finished simulation.
fn result_row(point: &PlannedPoint, workload: String, report: SimReport) -> PointResult {
    let cost = CostModel::paper(point.spec.interrupt_cycles);
    let vmcpi = report.vmcpi(&cost).total();
    let interrupt_cpi = report.interrupt_cpi(&cost);
    let tlb_miss_ratio =
        (report.itlb.is_some() || report.dtlb.is_some()).then(|| report.tlb_miss_ratio());
    PointResult {
        index: point.index,
        label: point.label.clone(),
        settings: point.settings.clone(),
        system: point.config.system.label().to_owned(),
        workload,
        vmcpi,
        interrupt_cpi,
        mcpi: report.mcpi(&cost).total(),
        vm_total: vmcpi + interrupt_cpi,
        tlb_area_bytes: tlb_area_bytes(&point.config),
        tlb_miss_ratio,
        user_instrs: report.counts.user_instrs,
        // Unsigned until the caller seals it (after any lie chaos).
        ctx: 0,
        att: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;
    use crate::sweep::Axis;
    use vm_core::SystemKind;
    use vm_obs::{NopSink, RecordingSink};

    fn tiny_exec(jobs: usize) -> ExecConfig {
        ExecConfig { warmup: 2_000, measure: 10_000, jobs }
    }

    fn tiny_plan() -> SweepPlan {
        let base = SystemSpec::for_kind(SystemKind::Ultrix);
        let axes = [
            Axis::parse("tlb.entries=32,64").unwrap(),
            Axis::parse("mmu.table=two-tier,hashed").unwrap(),
        ];
        SweepPlan::expand(&base, &axes).unwrap()
    }

    #[test]
    fn results_come_back_in_point_order() {
        let plan = tiny_plan();
        let out = run_sweep(&plan, &tiny_exec(2), &Reporter::silent(), &mut NopSink);
        assert_eq!(out.len(), 4);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.user_instrs, 10_000);
            assert!(r.vm_total >= 0.0);
        }
    }

    #[test]
    fn job_count_does_not_change_results() {
        let plan = tiny_plan();
        let one = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        let many = run_sweep(&plan, &tiny_exec(4), &Reporter::silent(), &mut NopSink);
        assert_eq!(one, many);
    }

    #[test]
    fn sweep_events_are_emitted_in_order() {
        let plan = tiny_plan();
        let mut sink = RecordingSink::new();
        let out = run_sweep(&plan, &tiny_exec(2), &Reporter::silent(), &mut sink);
        let events = &sink.events;
        assert!(matches!(events[0].1, Event::SweepStarted { points: 4, axes: 2, jobs: 2 }));
        let indices: Vec<u64> = events[1..]
            .iter()
            .map(|(_, e)| match e {
                Event::SweepPointDone { index, .. } => *index,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(indices, [0, 1, 2, 3]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn attached_observer_does_not_perturb_results_and_sees_progress() {
        use crate::progress::SweepObserver;
        use std::sync::Mutex as StdMutex;

        #[derive(Default)]
        struct Spy {
            checkpoints: StdMutex<Vec<(usize, u64, u64)>>,
            finished: StdMutex<Vec<(usize, bool)>>,
        }
        impl SweepObserver for Spy {
            fn checkpoint(&self, cp: &PointCheckpoint) {
                assert!(cp.instrs <= cp.instrs_total);
                assert!(cp.vmcpi >= 0.0 && cp.mcpi >= 0.0);
                self.checkpoints.lock().unwrap().push((cp.index, cp.seq, cp.instrs));
            }
            fn point_finished(&self, index: usize, ok: bool) {
                self.finished.lock().unwrap().push((index, ok));
            }
        }

        let plan = tiny_plan();
        let plain = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &HardenPolicy::default(),
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        let spy = Arc::new(Spy::default());
        let policy = HardenPolicy {
            progress: Some(ProgressConfig::new(1_000, spy.clone())),
            ..HardenPolicy::default()
        };
        let watched = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        // The observer is an observer: results are bit-identical.
        assert_eq!(plain.outcomes, watched.outcomes);

        let mut finished = spy.finished.lock().unwrap().clone();
        finished.sort_unstable();
        assert_eq!(finished, vec![(0, true), (1, true), (2, true), (3, true)]);
        let checkpoints = spy.checkpoints.lock().unwrap().clone();
        assert!(!checkpoints.is_empty(), "no checkpoints fired");
        for ix in 0..4 {
            let per_point: Vec<_> = checkpoints.iter().filter(|c| c.0 == ix).collect();
            assert!(per_point.len() >= 3, "point {ix} fired {} checkpoints", per_point.len());
            // seq and cumulative instrs are strictly increasing within
            // a point.
            for pair in per_point.windows(2) {
                assert!(pair[1].1 > pair[0].1);
                assert!(pair[1].2 > pair[0].2);
            }
        }
    }

    #[test]
    fn the_core_returns_results_in_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..12).collect();
        // Every fifth item is declined; the rest double their input. Early
        // items take longest, so on several workers they finish last.
        let work = |&i: &u64| {
            std::thread::sleep(std::time::Duration::from_millis(12 - i));
            (i % 5 != 0).then_some((2 * i, "item", "done"))
        };
        let want: Vec<Option<u64>> = items.iter().map(|&i| (i % 5 != 0).then_some(2 * i)).collect();
        for threads in [1, 3, 8] {
            let out = run_items(&items, threads, &Reporter::silent(), "test", |_| 1, work);
            assert_eq!(out, want, "{threads} workers");
        }
    }

    #[test]
    fn the_core_returns_nothing_for_no_items() {
        let work = |&i: &u64| Some((i, "item", "done"));
        let out = run_items(&[], 4, &Reporter::silent(), "test", |_| 1, work);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panic_escaping_an_item_reaches_the_caller_with_its_payload() {
        let work = |&i: &u64| {
            if i == 2 {
                std::panic::panic_any("item 2 escaped");
            }
            Some((i, "item", "done"))
        };
        let payload =
            catch_unwind(|| run_items(&[0, 1, 2, 3], 2, &Reporter::silent(), "test", |_| 1, work))
                .expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 2 escaped"));
    }

    #[test]
    fn scales_are_ordered() {
        let scales = [RunScale::QUICK, RunScale::DEFAULT, RunScale::FULL];
        assert!(scales.windows(2).all(|w| w[0].measure < w[1].measure));
        assert_eq!(RunScale::default(), RunScale::DEFAULT);
    }

    #[test]
    fn area_proxy_is_zero_without_tlbs() {
        let with = SystemSpec::for_kind(SystemKind::Intel).validate().unwrap();
        let without = SystemSpec::for_kind(SystemKind::NoTlb).validate().unwrap();
        assert_eq!(tlb_area_bytes(&with), 2 * 128 * 16);
        assert_eq!(tlb_area_bytes(&without), 0);
    }

    #[test]
    fn injected_panic_isolates_to_one_failed_point() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("panic@1", 42).unwrap(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.failed_count(), 1);
        let e = out.outcomes[1].error().expect("point 1 failed");
        assert_eq!(e.kind, FailureKind::Panic);
        assert!(e.detail.contains("injected panic"), "{e}");
        // The survivors match a clean run bit-for-bit.
        let clean = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        for ix in [0usize, 2, 3] {
            assert_eq!(out.outcomes[ix].completed(), Some(&clean[ix]));
        }
    }

    #[test]
    fn corrupt_fault_is_classified_not_fatal() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("corrupt@2", 7).unwrap(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        let e = out.outcomes[2].error().expect("point 2 failed");
        assert_eq!(e.kind, FailureKind::CorruptTrace);
        assert!(e.detail.contains("corrupt trace record"), "{e}");
    }

    #[test]
    fn runaway_fault_times_out_under_a_budget() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            point_budget: Some(150_000),
            chaos: ChaosPlan::parse("runaway@0", 11).unwrap(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert!(matches!(out.outcomes[0], PointOutcome::TimedOut(_)));
        assert_eq!(out.outcomes[0].error().unwrap().kind, FailureKind::Timeout);
        // Healthy points live comfortably inside the same budget.
        assert!(out.outcomes[1].completed().is_some());
    }

    #[test]
    fn cancelled_sweeps_drain_without_simulating() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            cancel: Some(Arc::new(AtomicBool::new(true))), // cancelled up front
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.failed_count(), 4);
        for o in &out.outcomes {
            assert_eq!(o.error().unwrap().kind, FailureKind::Cancelled);
        }
        // Seeded points stay merged even under cancellation.
        let clean = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        let seeded: BTreeMap<usize, PointResult> = [(1, clean[1].clone())].into();
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            seeded,
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.failed_count(), 3);
        assert_eq!(out.outcomes[1].completed(), Some(&clean[1]));
    }

    #[test]
    fn io_faults_recover_with_retries_and_fail_without() {
        let plan = tiny_plan();
        let chaos = ChaosPlan::parse("io@3", 5).unwrap();
        let with_retries = HardenPolicy {
            retry: RetryPolicy {
                retries: 2,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                jitter_seed: None,
            },
            chaos: chaos.clone(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &with_retries,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert!(out.is_clean());
        assert_eq!(out.attempts[3], chaos.io_failures(3) + 1);

        let no_retries = HardenPolicy { chaos, ..HardenPolicy::default() };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &no_retries,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.outcomes[3].error().unwrap().kind, FailureKind::Io);
    }

    #[test]
    fn seeded_points_are_not_resimulated_and_merge_identically() {
        let plan = tiny_plan();
        let clean = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        let seeded: BTreeMap<usize, PointResult> =
            [(0, clean[0].clone()), (2, clean[2].clone())].into();
        let mut sink = RecordingSink::new();
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &HardenPolicy::default(),
            seeded,
            &Reporter::silent(),
            &mut sink,
            None,
        );
        assert_eq!(out.resumed, 2);
        let merged: Vec<&PointResult> = out.results().collect();
        assert_eq!(merged.len(), 4);
        for (r, c) in merged.iter().zip(&clean) {
            assert_eq!(*r, c);
        }
        assert!(matches!(sink.events[0].1, Event::RunResumed { completed: 2, remaining: 2 }));
        assert!(matches!(sink.events[1].1, Event::SweepStarted { .. }));
    }

    #[test]
    fn failure_events_are_deterministic() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("panic@1", 42).unwrap(),
            ..HardenPolicy::default()
        };
        let mut sink = RecordingSink::new();
        run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut sink,
            None,
        );
        let names: Vec<&str> = sink.events.iter().map(|(_, e)| e.name()).collect();
        assert_eq!(
            names,
            [
                "sweep_started",
                "sweep_point_done",
                "point_failed",
                "sweep_point_done",
                "sweep_point_done"
            ]
        );
    }

    #[test]
    fn trace_workloads_replay_from_the_library_or_fail_as_ingest() {
        let dir = std::env::temp_dir().join(format!("vm-exec-lib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<vm_trace::InstrRecord> =
            vm_trace::presets::by_name("gcc").unwrap().build(3).unwrap().take(12_000).collect();
        let staged = dir.join("staged");
        vm_trace::write_trace(std::fs::File::create(&staged).unwrap(), records.iter().copied())
            .unwrap();
        vm_trace::TraceLibrary::new(&dir).install("captured", &staged).unwrap();

        let mut base = SystemSpec::for_kind(SystemKind::Ultrix);
        base.workload = Some("trace:captured".to_owned());
        let axes: [Axis; 0] = [];
        let plan = SweepPlan::expand(&base, &axes).unwrap();
        let exec = tiny_exec(1);

        // No library configured (explicit or env): a structured ingest
        // failure — not a panic, not a workload error.
        let (outcome, _) = measure_point_isolated(&plan.points[0], &exec, &HardenPolicy::default());
        assert_eq!(outcome.error().expect("no library").kind, FailureKind::Ingest);

        let policy = HardenPolicy { trace_library: Some(dir.clone()), ..HardenPolicy::default() };
        let (first, _) = measure_point_isolated(&plan.points[0], &exec, &policy);
        let first = first.completed().expect("replay completes").clone();
        assert_eq!(first.workload, "trace:captured");
        // Replay is deterministic: a second run is bit-identical.
        let (again, _) = measure_point_isolated(&plan.points[0], &exec, &policy);
        assert_eq!(again.completed().unwrap().vm_total.to_bits(), first.vm_total.to_bits());

        // A missing trace is also an ingest failure, naming the trace.
        let mut missing = base.clone();
        missing.workload = Some("trace:nope".to_owned());
        let plan = SweepPlan::expand(&missing, &axes).unwrap();
        let (outcome, _) = measure_point_isolated(&plan.points[0], &exec, &policy);
        let e = outcome.error().expect("missing trace fails");
        assert_eq!(e.kind, FailureKind::Ingest);
        assert!(e.detail.contains("`nope`"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
