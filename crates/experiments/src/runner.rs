//! Parallel execution of simulation jobs for the experiment drivers, on
//! the scheduling core every sweep shares ([`vm_explore::run_items`]):
//! results in job order, a heartbeat with throughput and the fraction of
//! the planned trace simulated, and per-job completion lines at Verbose.
//!
//! [`run_jobs_checked`] is the fault-isolated entry point: each job runs
//! under `catch_unwind` and failures come back as structured
//! [`SimError`]s. [`run_jobs`] is the strict facade the experiment
//! drivers use — their jobs are built from validated presets, so a
//! failure is a programming error and panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use vm_core::{simulate, SimConfig, SimReport};
use vm_explore::run_items;
pub use vm_explore::RunScale;
use vm_harden::{FailureKind, SimError};
use vm_obs::Reporter;
use vm_trace::WorkloadSpec;

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

/// Runs `jobs` on up to `threads` worker threads, returning outcomes in
/// job order. Results are deterministic regardless of thread count.
///
/// Equivalent to [`run_jobs_checked`] with the process-global reporter
/// (silent unless a binary raised the global verbosity).
///
/// # Panics
///
/// Panics with the classified error if any job fails (bad config, bad
/// workload, panic during simulation) — jobs are constructed from
/// validated presets, so a failure is a programming error in the
/// experiment definition, not an input error.
pub fn run_jobs(jobs: Vec<Job>, threads: usize) -> Vec<Outcome> {
    run_jobs_checked(jobs, threads, &Reporter::global(), "sweep").unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one job, mapping every failure mode — bad workload, rejected
/// config, panic mid-simulation — to a structured [`SimError`].
fn run_job_isolated(job: &Job) -> Result<Outcome, SimError> {
    let trace = job
        .workload
        .build(job.trace_seed)
        .map_err(|e| SimError::new(job.label.clone(), FailureKind::Workload, e.to_string()))?;
    let run = catch_unwind(AssertUnwindSafe(|| {
        simulate(&job.config, trace, job.scale.warmup, job.scale.measure)
            .map_err(|e| SimError::new(job.label.clone(), FailureKind::Build, e.to_string()))
    }));
    match run {
        Ok(simulated) => Ok(Outcome { job: job.clone(), report: simulated? }),
        Err(payload) => Err(SimError::from_panic(job.label.clone(), payload)),
    }
}

/// Fault-isolated [`run_jobs`] with an explicit reporter and heartbeat
/// label: outcomes in job order, or the failure with the lowest job index
/// among those that ran. Jobs claimed after the first failure are
/// abandoned, neither simulated nor reported (experiment tables need
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
    let failed = AtomicBool::new(false);
    let instrs = |job: &Job| job.scale.warmup + job.scale.measure;
    let ran = run_items(&jobs, threads, reporter, label, instrs, |job| {
        if failed.load(Ordering::Relaxed) {
            return None;
        }
        let outcome = run_job_isolated(job);
        failed.fetch_or(outcome.is_err(), Ordering::Relaxed);
        let status = if outcome.is_ok() { "done" } else { "FAILED" };
        Some((outcome, job.label.as_str(), status))
    });
    // Jobs are claimed in index order, so the abandoned (`None`) jobs all
    // sit behind the first failure, which ends the collect.
    ran.into_iter().flatten().collect()
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
    fn jobs_after_the_first_failure_are_abandoned() {
        let mut bad = tiny_job("broken", SystemKind::Intel);
        bad.workload.code.functions = 0; // degenerate spec: build() rejects it

        // Hours of simulation if it ever started.
        let mut huge = tiny_job("huge", SystemKind::Ultrix);
        huge.scale = RunScale { warmup: 0, measure: 1_000_000_000_000 };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run_jobs_checked(vec![bad, huge], 1, &Reporter::silent(), "test"));
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the job after the failure was simulated")
            .expect_err("the degenerate workload must fail the run");
        assert_eq!((err.label.as_str(), err.kind), ("broken", FailureKind::Workload));
    }
}
