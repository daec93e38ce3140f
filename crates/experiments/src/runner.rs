//! Parallel execution of simulation jobs, with an optional heartbeat
//! reporting throughput (instructions/second) and the fraction of the
//! planned trace consumed.
//!
//! [`run_jobs_checked`] is the fault-isolated entry point: each job runs
//! under `catch_unwind`, failures come back as structured
//! [`SimError`]s, and the remaining workers drain instead of dying.
//! [`run_jobs`] / [`run_jobs_reported`] are the strict facades the
//! experiment drivers use — their jobs are built from validated presets,
//! so a failure is a programming error and panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use vm_core::{simulate, SimConfig, SimReport};
use vm_harden::{quiet_panics, FailureKind, SimError};
use vm_trace::{InstrRecord, WorkloadSpec};

use vm_obs::{Reporter, HEARTBEAT_PERIOD};

/// Locks tolerating poisoning: a panicking sibling worker must not
/// cascade into every later lock site.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run-length presets trading fidelity against wall-clock time.
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

/// One simulation to run: a system configuration against a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Free-form label carried into the outcome.
    pub label: String,
    /// The system and geometry to simulate.
    pub config: SimConfig,
    /// The workload model to generate.
    pub workload: WorkloadSpec,
    /// Seed for the workload generator.
    pub trace_seed: u64,
    /// Run lengths.
    pub scale: RunScale,
}

impl Job {
    /// Creates a job with the default trace seed.
    pub fn new(
        label: impl Into<String>,
        config: SimConfig,
        workload: WorkloadSpec,
        scale: RunScale,
    ) -> Job {
        Job { label: label.into(), config, workload, trace_seed: 1, scale }
    }
}

/// A completed job.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The job that produced this outcome.
    pub job: Job,
    /// The measured report.
    pub report: SimReport,
}

/// Wraps a trace iterator, periodically flushing the number of records
/// consumed into a shared counter the heartbeat thread reads.
struct CountedTrace<'a, I> {
    inner: I,
    consumed: &'a AtomicU64,
    local: u64,
}

/// Flush granularity for [`CountedTrace`]: coarse enough that the shared
/// counter stays off the simulation's hot path.
const FLUSH_EVERY: u64 = 8192;

impl<I: Iterator<Item = InstrRecord>> Iterator for CountedTrace<'_, I> {
    type Item = InstrRecord;

    #[inline]
    fn next(&mut self) -> Option<InstrRecord> {
        let item = self.inner.next();
        if item.is_some() {
            self.local += 1;
            if self.local == FLUSH_EVERY {
                self.consumed.fetch_add(self.local, Ordering::Relaxed);
                self.local = 0;
            }
        }
        item
    }
}

impl<I> Drop for CountedTrace<'_, I> {
    fn drop(&mut self) {
        if self.local > 0 {
            self.consumed.fetch_add(self.local, Ordering::Relaxed);
        }
    }
}

/// Renders an instruction count as `1.2M` / `340k` / `999`.
fn fmt_instrs(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.0}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// Runs `jobs` on up to `threads` worker threads, returning outcomes in
/// job order. Results are deterministic regardless of thread count.
///
/// Equivalent to [`run_jobs_reported`] with the process-global reporter
/// (silent unless a binary raised the global verbosity).
///
/// # Panics
///
/// Panics if any job's configuration or workload fails to build — jobs
/// are constructed from validated presets, so a failure is a programming
/// error in the experiment definition, not an input error.
pub fn run_jobs(jobs: Vec<Job>, threads: usize) -> Vec<Outcome> {
    run_jobs_reported(jobs, threads, &Reporter::global(), "sweep")
}

/// [`run_jobs`] with progress reporting: a heartbeat line roughly every
/// two seconds giving cumulative instructions simulated, simulation
/// throughput, and the percentage of the planned trace consumed, plus a
/// per-job completion line at Verbose.
///
/// # Panics
///
/// As [`run_jobs`]: any job failure (bad config, bad workload, panic
/// during simulation) panics with the classified error. Callers that
/// must survive failures use [`run_jobs_checked`].
pub fn run_jobs_reported(
    jobs: Vec<Job>,
    threads: usize,
    reporter: &Reporter,
    label: &str,
) -> Vec<Outcome> {
    match run_jobs_checked(jobs, threads, reporter, label) {
        Ok(outcomes) => outcomes,
        Err(e) => panic!("{e}"),
    }
}

/// Runs one job, mapping every failure mode — bad workload, rejected
/// config, panic mid-simulation — to a structured [`SimError`].
fn run_job_isolated(job: &Job, consumed: &AtomicU64) -> Result<Outcome, SimError> {
    let trace = job
        .workload
        .build(job.trace_seed)
        .map_err(|e| SimError::new(job.label.clone(), FailureKind::Workload, e.to_string()))?;
    let counted = CountedTrace { inner: trace, consumed, local: 0 };
    let run = catch_unwind(AssertUnwindSafe(|| {
        simulate(&job.config, counted, job.scale.warmup, job.scale.measure)
            .map_err(|e| SimError::new(job.label.clone(), FailureKind::Build, e.to_string()))
    }));
    match run {
        Ok(simulated) => Ok(Outcome { job: job.clone(), report: simulated? }),
        Err(payload) => Err(SimError::from_panic(job.label.clone(), payload)),
    }
}

/// Fault-isolated [`run_jobs_reported`]: outcomes in job order, or the
/// failure with the lowest job index among those that ran. Remaining
/// jobs are abandoned after the first failure (experiment tables need
/// every cell, so partial sweeps have no value here — unlike `explore`
/// sweeps, where each point stands alone).
///
/// # Errors
///
/// Returns the classified failure of the first failing job.
pub fn run_jobs_checked(
    jobs: Vec<Job>,
    threads: usize,
    reporter: &Reporter,
    label: &str,
) -> Result<Vec<Outcome>, SimError> {
    let threads = threads.max(1).min(jobs.len().max(1));
    let planned: u64 = jobs.iter().map(|j| j.scale.warmup + j.scale.measure).sum();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let consumed = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let started = Instant::now();
    let results: Vec<Mutex<Option<Result<Outcome, SimError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    // Silent for short sweeps (first beat after ~2s), periodic progress
    // for long ones.
    let beat = || {
        let instrs = consumed.load(Ordering::Relaxed);
        let elapsed = started.elapsed().as_secs_f64();
        let pct = if planned == 0 { 100.0 } else { 100.0 * instrs as f64 / planned as f64 };
        reporter.heartbeat(format!(
            "  [{label}] {}/{} jobs, {} instrs ({:.0}% of trace) at {}/s",
            done.load(Ordering::Relaxed),
            jobs.len(),
            fmt_instrs(instrs),
            pct.min(100.0),
            fmt_instrs((instrs as f64 / elapsed.max(1e-9)) as u64),
        ));
    };
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(scope.spawn(|| {
                // Job panics are caught and classified; keep the hook
                // from printing a banner per isolated failure.
                let _quiet = quiet_panics();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() || failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let job = &jobs[i];
                    let job_start = Instant::now();
                    let outcome = run_job_isolated(job, &consumed);
                    if outcome.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                    reporter.detail(format!(
                        "  [{label}] {k}/{} `{}` {} in {:.2}s",
                        jobs.len(),
                        job.label,
                        if outcome.is_ok() { "done" } else { "FAILED" },
                        job_start.elapsed().as_secs_f64()
                    ));
                    *lock(&results[i]) = Some(outcome);
                }
            }));
        }
        let worker_panic = reporter.with_heartbeat(HEARTBEAT_PERIOD, beat, || {
            workers.into_iter().find_map(|w| w.join().err())
        });
        // Workers catch job panics internally; a join error would be an
        // infrastructure bug, which the facade's panic surfaces.
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    });
    let mut outcomes = Vec::with_capacity(jobs.len());
    for slot in results {
        match lock(&slot).take() {
            Some(Ok(outcome)) => outcomes.push(outcome),
            Some(Err(e)) => return Err(e),
            // Abandoned after a failure: jobs are claimed in index order,
            // so abandoned slots form a suffix behind the failing slot
            // that already returned above.
            None => continue,
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_core::SystemKind;
    use vm_trace::presets;

    fn tiny_job(label: &str, system: SystemKind) -> Job {
        Job::new(
            label,
            SimConfig::paper_default(system),
            presets::ijpeg_spec(),
            RunScale { warmup: 2_000, measure: 10_000 },
        )
    }

    #[test]
    fn preserves_job_order() {
        let jobs = vec![
            tiny_job("a", SystemKind::Base),
            tiny_job("b", SystemKind::Intel),
            tiny_job("c", SystemKind::Ultrix),
        ];
        let out = run_jobs(jobs, 3);
        let labels: Vec<&str> = out.iter().map(|o| o.job.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(out[1].report.system, "INTEL");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mk = || vec![tiny_job("a", SystemKind::Ultrix), tiny_job("b", SystemKind::PaRisc)];
        let seq = run_jobs(mk(), 1);
        let par = run_jobs(mk(), 4);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.report.counts, p.report.counts);
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_jobs(Vec::new(), 4).is_empty());
    }

    #[test]
    fn checked_runner_classifies_a_bad_job_and_keeps_good_ones() {
        let mut bad = tiny_job("broken", SystemKind::Intel);
        bad.workload.code.functions = 0; // degenerate spec: build() rejects it
        let jobs = vec![tiny_job("ok", SystemKind::Base), bad];
        let reporter = Reporter::silent();
        let err = run_jobs_checked(jobs, 2, &reporter, "test")
            .expect_err("degenerate workload must surface as an error");
        assert_eq!(err.label, "broken");
        assert_eq!(err.kind, FailureKind::Workload);

        // An all-good list still round-trips through the checked path.
        let ok = run_jobs_checked(vec![tiny_job("ok", SystemKind::Base)], 1, &reporter, "test")
            .expect("clean jobs must succeed");
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].job.label, "ok");
    }

    #[test]
    fn scales_are_ordered() {
        let scales = [RunScale::QUICK, RunScale::DEFAULT, RunScale::FULL];
        assert!(scales.windows(2).all(|w| w[0].measure < w[1].measure));
        assert_eq!(RunScale::default(), RunScale::DEFAULT);
    }
}
