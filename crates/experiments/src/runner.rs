//! Parallel execution of simulation jobs for the experiment drivers, on
//! the scheduling core every sweep shares ([`vm_explore::run_batches`]):
//! results in job order, a heartbeat with throughput and the fraction of
//! the planned trace simulated, and per-job completion lines at Verbose.
//!
//! Jobs that replay one stream (same workload, trace seed and run
//! lengths) run as lockstep groups: each group synthesizes the stream
//! once, in chunks of [`CHUNK`] records, and every member steps through
//! each chunk in turn. Members whose configurations differ only in cache
//! geometry also share one front end, TLBs and walker, each keeping its
//! own caches ([`MemorySystem::add_back_end`]). Every member's report
//! equals its own [`vm_core::simulate`] run; [`GROUP_BYTES`] bounds what a
//! group holds. A stream's groups step clones of one generator, whose
//! read-only tables a [`StreamTable`] builds once per run and shares.
//!
//! [`run_jobs_checked`] is the fault-isolated entry point: each group runs
//! under `catch_unwind` and failures come back as structured
//! [`SimError`]s. [`run_jobs`] is the strict facade the experiment
//! drivers use — their jobs are built from validated presets, so a
//! failure is a programming error and panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use vm_core::{BuildError, MemorySystem, SimConfig, SimReport, SystemKind};
use vm_explore::stream::Source;
pub use vm_explore::RunScale;
use vm_explore::{run_batches, StreamTable};
use vm_harden::{FailureKind, SimError};
use vm_obs::Reporter;
use vm_trace::{InstrRecord, WorkloadSpec};

/// The most host bytes one lockstep group may hold: each front end's
/// walker tables ([`SimConfig::front_end_bytes`]) and each member's cache
/// tags ([`SimConfig::back_end_bytes`]). The generator's tables are not
/// counted: every group of a stream shares one copy. A job that would
/// take a group past the bound starts a new group, so a job over it on
/// its own runs alone. 896 KiB holds the paper's five systems at the
/// default geometry (852 KiB), so one group runs a workload's column of
/// suite and fig10-fig13 (DESIGN.md §5).
pub const GROUP_BYTES: u64 = 896 << 10;

/// Records synthesized per lockstep step. A chunk (24 KiB) stays in the
/// host's caches while every member of the group steps through it.
pub const CHUNK: usize = 1 << 10;

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

    /// Whether `other` replays the same stream.
    fn same_stream(&self, other: &Job) -> bool {
        self.trace_seed == other.trace_seed
            && self.scale == other.scale
            && self.workload == other.workload
    }

    /// The stream's source in a [`StreamTable`].
    fn source(&self) -> Source {
        Source::Synthetic(self.workload.clone(), self.trace_seed)
    }
}

/// Every system of `systems` at its paper-default geometry on every
/// workload, a workload's systems in the order given, each job labelled
/// `SYSTEM/workload`.
pub(crate) fn paper_grid(
    workloads: &[WorkloadSpec],
    systems: &[SystemKind],
    scale: RunScale,
) -> Vec<Job> {
    workloads
        .iter()
        .flat_map(|w| {
            systems.iter().map(move |&system| {
                let label = format!("{system}/{}", w.name);
                Job::new(label, SimConfig::paper_default(system), w.clone(), scale)
            })
        })
        .collect()
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

/// Splits the job indices into streams, in order of their first job, and
/// each stream's jobs into lockstep groups, each in ascending order: a job
/// joins the first group of its stream that has room for it under
/// [`GROUP_BYTES`], paying only its caches where a member already built
/// its front end.
fn plan_groups(jobs: &[Job]) -> Vec<Vec<Vec<usize>>> {
    let mut streams: Vec<Vec<(Vec<usize>, u64)>> = Vec::new();
    for (ix, job) in jobs.iter().enumerate() {
        let cost = |members: &[usize]| {
            let shared = members.iter().any(|&m| jobs[m].config.shares_front_end_with(&job.config));
            job.config.back_end_bytes() + if shared { 0 } else { job.config.front_end_bytes() }
        };
        let s =
            streams.iter().position(|s| jobs[s[0].0[0]].same_stream(job)).unwrap_or_else(|| {
                streams.push(Vec::new());
                streams.len() - 1
            });
        let groups = &mut streams[s];
        match groups.iter().position(|(members, bytes)| bytes + cost(members) <= GROUP_BYTES) {
            Some(g) => {
                groups[g].1 += cost(&groups[g].0);
                groups[g].0.push(ix);
            }
            None => groups.push((vec![ix], cost(&[]))),
        }
    }
    streams.into_iter().map(|groups| groups.into_iter().map(|(g, _)| g).collect()).collect()
}

/// A front end and the group positions of the members it feeds, in
/// back-end order.
type Lane = (MemorySystem, Vec<usize>);

/// Steps every lane through the next `instrs` records of `trace`, a chunk
/// at a time.
fn lockstep(
    trace: &mut impl Iterator<Item = InstrRecord>,
    lanes: &mut [Lane],
    chunk: &mut Vec<InstrRecord>,
    mut instrs: u64,
) {
    while instrs > 0 {
        chunk.clear();
        chunk.extend(trace.take(instrs.min(CHUNK as u64) as usize));
        if chunk.is_empty() {
            return;
        }
        for (system, _) in lanes.iter_mut() {
            chunk.iter().for_each(|rec| system.step(rec));
        }
        instrs -= chunk.len() as u64;
    }
}

/// Runs one lockstep group: takes its stream from `streams`, builds one
/// front end per distinct front end among the members (a member whose
/// walker shares rides an earlier member's as another back end), warms
/// every member, resets, and measures. Returns the outcomes in group
/// order, or the group position of the failing member and its failure; a
/// panic is charged to the group's first member.
fn run_group(
    jobs: &[Job],
    group: &[usize],
    streams: &StreamTable,
) -> Result<Vec<Outcome>, (usize, SimError)> {
    let lead = &jobs[group[0]];
    let mut trace = streams
        .take(&lead.source())
        .map_err(|(kind, detail)| (0, SimError::new(lead.label.clone(), kind, detail)))?;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut lanes: Vec<Lane> = Vec::new();
        for (pos, &ix) in group.iter().enumerate() {
            let config = &jobs[ix].config;
            let failed = |e: BuildError| {
                (pos, SimError::new(jobs[ix].label.clone(), FailureKind::Build, e.to_string()))
            };
            let front = lanes.iter().position(|(_, members)| {
                jobs[group[members[0]]].config.shares_front_end_with(config)
            });
            if let Some(l) = front {
                if lanes[l].0.add_back_end(config.build_caches().map_err(failed)?) {
                    lanes[l].1.push(pos);
                    continue;
                }
            }
            lanes.push((config.build().map_err(failed)?, vec![pos]));
        }
        let mut chunk = Vec::with_capacity(CHUNK);
        lockstep(&mut trace, &mut lanes, &mut chunk, lead.scale.warmup);
        lanes.iter_mut().for_each(|(system, _)| system.reset_counters());
        lockstep(&mut trace, &mut lanes, &mut chunk, lead.scale.measure);
        let mut outcomes: Vec<Option<Outcome>> = group.iter().map(|_| None).collect();
        for (system, members) in &lanes {
            for (report, &pos) in system.reports().into_iter().zip(members) {
                outcomes[pos] = Some(Outcome { job: jobs[group[pos]].clone(), report });
            }
        }
        Ok(outcomes.into_iter().flatten().collect())
    }));
    run.unwrap_or_else(|payload| Err((0, SimError::from_panic(lead.label.clone(), payload))))
}

/// Fault-isolated [`run_jobs`] with an explicit reporter and heartbeat
/// label: outcomes in job order, or the failure with the lowest job index
/// among those that ran. Jobs claimed after the first failure are
/// abandoned, neither simulated nor reported (experiment tables need
/// every cell, so partial sweeps have no value here — unlike `explore`
/// sweeps, where each point stands alone); so are the other members of a
/// failed group. At Verbose it first prints its plan: how many jobs,
/// lockstep groups and streams.
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
    let plan = plan_groups(&jobs);
    let planned_streams = plan.len();
    let groups: Vec<Vec<usize>> = plan.into_iter().flatten().collect();
    let streams = StreamTable::new(None, groups.iter().map(|g| jobs[g[0]].source()));
    let count = |n: usize, noun: &str| format!("{n} {noun}{}", if n == 1 { "" } else { "s" });
    reporter.detail(format!(
        "  [{label}] {} in {} over {}",
        count(jobs.len(), "job"),
        count(groups.len(), "lockstep group"),
        count(planned_streams, "stream"),
    ));
    let instrs = |job: &Job| job.scale.warmup + job.scale.measure;
    let ran = run_batches(&jobs, &groups, threads, reporter, label, instrs, |group| {
        let mut out: Vec<_> = group.iter().map(|_| None).collect();
        if failed.load(Ordering::Relaxed) {
            return out;
        }
        let name = |pos: usize| jobs[group[pos]].label.as_str();
        let ran = run_group(&jobs, group, &streams);
        streams.release(&jobs[group[0]].source());
        match ran {
            Ok(outcomes) => {
                for (pos, outcome) in outcomes.into_iter().enumerate() {
                    out[pos] = Some((Ok(outcome), name(pos), "done"));
                }
            }
            Err((pos, e)) => {
                failed.store(true, Ordering::Relaxed);
                out[pos] = Some((Err(e), name(pos), "FAILED"));
            }
        }
        out
    });
    // Every abandoned (`None`) job sits in a failed group or was claimed
    // after a failure, so an error is present, and the first one in job
    // order ends the collect.
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
    fn a_group_holds_caches_and_walker_tables_not_the_generator() {
        let plan = |workload: &WorkloadSpec, configs: &[SimConfig]| {
            let jobs: Vec<Job> = configs
                .iter()
                .map(|&c| Job::new("", c, workload.clone(), RunScale::QUICK))
                .collect();
            plan_groups(&jobs)
        };
        let five: Vec<SimConfig> =
            SystemKind::VM_SYSTEMS.into_iter().map(SimConfig::paper_default).collect();
        assert_eq!(plan(&presets::vortex_spec(), &five), [[[0, 1, 2, 3, 4]]]);

        // vortex's 480 KiB of tables split no group that ijpeg's leave whole.
        let grid: Vec<SimConfig> = SystemKind::PAPER
            .into_iter()
            .flat_map(|kind| {
                vm_core::paper::L2_SIZES
                    .map(|l2_bytes| SimConfig { l2_bytes, ..SimConfig::paper_default(kind) })
            })
            .collect();
        let vortex = plan(&presets::vortex_spec(), &grid);
        assert_eq!(vortex, plan(&presets::ijpeg_spec(), &grid));
        assert!(vortex[0].len() < grid.len(), "{vortex:?}");
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
