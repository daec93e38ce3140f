//! Jobs: the persisted unit of admitted work.
//!
//! A [`JobSpec`] captures everything needed to (re)run a submission
//! deterministically — the spec TOML, the sweep axes, and the *effective*
//! run lengths (post degraded-mode clamp). It is written to the state
//! directory as one JSON line at admission, before the submit response
//! goes out, so a killed daemon can rebuild its queue on restart and
//! produce bit-identical results: the job's sweep re-expands from the
//! same text, seeds from the same journal, and re-runs only what is
//! missing.

use vm_explore::{Axis, ExecConfig, PointResult, SweepPlan, SystemSpec};
use vm_harden::SimError;
use vm_obs::json::Value;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is running its sweep.
    Running,
    /// Finished (individual points may still have failed).
    Done,
    /// Cancelled by request, or stopped early by a drain.
    Cancelled,
    /// Died at the job level (panic outside point isolation, corrupt
    /// journal, spec that no longer parses).
    Failed,
}

impl JobState {
    /// The stable label used in responses.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job will make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }
}

/// Everything needed to (re)run a job — the unit of persistence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The daemon-assigned job id.
    pub id: u64,
    /// Client tag, echoed back in status responses.
    pub tag: Option<String>,
    /// The system spec as submitted (TOML text).
    pub spec_toml: String,
    /// Sweep axes in `key=v1,v2,...` grammar.
    pub sweep: Vec<String>,
    /// Effective warm-up instructions (after any degraded-mode clamp).
    pub warmup: u64,
    /// Effective measured instructions (after any degraded-mode clamp).
    pub measure: u64,
    /// Whether admission clamped the run lengths (degraded fidelity).
    pub degraded: bool,
    /// Walk-cycle budget per point.
    pub point_budget: Option<u64>,
}

impl JobSpec {
    /// Serializes for the `job-NNNNNN.json` state file (one line).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("v", 1u64.into()),
            ("id", self.id.into()),
            ("tag", self.tag.clone().map_or(Value::Null, Value::Str)),
            ("spec", self.spec_toml.clone().into()),
            ("sweep", Value::Arr(self.sweep.iter().map(|s| s.clone().into()).collect())),
            ("warmup", self.warmup.into()),
            ("measure", self.measure.into()),
            ("degraded", Value::Bool(self.degraded)),
            ("point_budget", self.point_budget.map_or(Value::Null, Value::from)),
        ])
    }

    /// Deserializes [`JobSpec::to_json`]. Fields it does not read, such
    /// as the `retries` that job files from older builds carry, are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        let int = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("job file missing integer `{k}`"))
        };
        if int("v")? != 1 {
            return Err(format!("unsupported job file version {}", int("v")?));
        }
        let sweep = v
            .get("sweep")
            .and_then(Value::as_array)
            .ok_or("job file missing `sweep` array")?
            .iter()
            .map(|a| a.as_str().map(str::to_owned).ok_or("sweep entries must be strings"))
            .collect::<Result<Vec<_>, _>>()?;
        let degraded = match v.get("degraded") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("job file missing boolean `degraded`".to_owned()),
        };
        Ok(JobSpec {
            id: int("id")?,
            tag: v.get("tag").and_then(Value::as_str).map(str::to_owned),
            spec_toml: v
                .get("spec")
                .and_then(Value::as_str)
                .ok_or("job file missing `spec`")?
                .to_owned(),
            sweep,
            warmup: int("warmup")?,
            measure: int("measure")?,
            degraded,
            point_budget: v.get("point_budget").and_then(Value::as_u64),
        })
    }

    /// Re-expands the job's sweep plan from its persisted text.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec or an axis fails to parse, or the
    /// grid has no runnable point.
    pub fn plan(&self) -> Result<SweepPlan, String> {
        let base = SystemSpec::parse(&self.spec_toml).map_err(|e| e.to_string())?;
        let axes = self.sweep.iter().map(|s| Axis::parse(s)).collect::<Result<Vec<_>, String>>()?;
        let plan = SweepPlan::expand(&base, &axes)?;
        if plan.points.is_empty() {
            return Err("sweep has no runnable points".to_owned());
        }
        Ok(plan)
    }

    /// The job's run lengths. Jobs always execute single-threaded; the
    /// daemon's parallelism is the worker pool, and per-point results
    /// are bit-identical at any thread count anyway.
    pub fn exec(&self) -> ExecConfig {
        ExecConfig { warmup: self.warmup, measure: self.measure, jobs: 1 }
    }
}

/// What a finished (or cancelled) job produced.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// Completed point results, in point order.
    pub results: Vec<PointResult>,
    /// Failed / timed-out / cancelled points, in point order.
    pub failures: Vec<SimError>,
    /// Points restored from the job's journal instead of simulated.
    pub resumed: usize,
}

impl JobOutcome {
    /// Serializes results (bit-exact payload codec) and failures for a
    /// `result` response.
    pub fn to_json(&self) -> (Value, Value) {
        let results = Value::Arr(self.results.iter().map(vm_explore::result_to_value).collect());
        let failures = Value::Arr(
            self.failures
                .iter()
                .map(|e| {
                    Value::obj([
                        ("label", e.label.clone().into()),
                        ("kind", e.kind.label().into()),
                        ("detail", e.detail.clone().into()),
                        ("attempts", e.attempts.into()),
                    ])
                })
                .collect(),
        );
        (results, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec {
            id: 42,
            tag: Some("nightly".to_owned()),
            spec_toml: "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n".to_owned(),
            sweep: vec!["tlb.entries=32,64".to_owned()],
            warmup: 200_000,
            measure: 500_000,
            degraded: true,
            point_budget: Some(1_000_000),
        }
    }

    #[test]
    fn job_spec_round_trips_through_json_text() {
        for spec in [sample(), JobSpec { tag: None, point_budget: None, ..sample() }] {
            let text = spec.to_json().to_string();
            let parsed = vm_obs::json::parse(&text).unwrap();
            assert_eq!(JobSpec::from_json(&parsed).unwrap(), spec);
        }
    }

    #[test]
    fn plan_re_expands_from_persisted_text() {
        let plan = sample().plan().unwrap();
        assert_eq!(plan.points.len(), 2);
        assert_eq!(sample().exec().jobs, 1);
        let broken = JobSpec { spec_toml: "[mmu]\nkind = \"warp\"\n".to_owned(), ..sample() };
        assert!(broken.plan().is_err());
        let empty = JobSpec { sweep: vec!["tlb.entries=".to_owned()], ..sample() };
        assert!(empty.plan().is_err());
    }

    #[test]
    fn state_labels_and_terminality() {
        assert_eq!(JobState::Queued.label(), "queued");
        assert!(!JobState::Running.is_terminal());
        for s in [JobState::Done, JobState::Cancelled, JobState::Failed] {
            assert!(s.is_terminal());
        }
    }
}
