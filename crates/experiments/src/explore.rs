//! The `repro explore` driver: spec files + sweep axes in, tables,
//! CSV, Pareto frontier and sensitivity report out.
//!
//! The heavy lifting (parsing, validation, the fault-isolated
//! multi-threaded executor, the analysis passes) lives in `vm-explore`
//! and `vm-harden`; this module is the glue that renders their results
//! in the same [`TextTable`]/CSV house style as the paper experiments,
//! and that wires the durable run journal behind `--journal`/`--resume`.

use std::path::PathBuf;
use std::sync::Mutex;

use vm_explore::{
    pareto_frontier, run_header, run_sweep_hardened, seeded_from_journal, sensitivity, Axis,
    AxisSensitivity, ExecConfig, HardenPolicy, PointResult, SkippedPoint, SweepPlan, SystemSpec,
};
use vm_harden::{Journal, JournalWriter, SimError};
use vm_obs::{JsonlSink, Reporter};

use crate::TextTable;

/// Configuration for one `repro explore` invocation.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// The base specs to sweep (one per spec file given).
    pub bases: Vec<SystemSpec>,
    /// The sweep axes, crossed over every base.
    pub axes: Vec<Axis>,
    /// Run lengths and worker count.
    pub exec: ExecConfig,
    /// Fault handling: retries, walk-cycle budget, chaos injection.
    pub harden: HardenPolicy,
    /// Start a fresh run journal at this path.
    pub journal: Option<PathBuf>,
    /// Resume from (and keep appending to) the journal at this path,
    /// skipping its completed points.
    pub resume: Option<PathBuf>,
}

/// Everything one exploration produced.
#[derive(Debug, Clone)]
pub struct ExploreRun {
    /// Per-point measurements (completed points only), in sweep order.
    pub results: Vec<PointResult>,
    /// Points that failed or timed out, in sweep order.
    pub failures: Vec<SimError>,
    /// Points restored from a resume journal instead of re-simulated.
    pub resumed: usize,
    /// Grid corners the validator rejected.
    pub skipped: Vec<SkippedPoint>,
    /// The Pareto frontier over (TLB area, total VM overhead).
    pub frontier: Vec<PointResult>,
    /// Per-axis sensitivity of total VM overhead.
    pub sensitivity: Vec<AxisSensitivity>,
    /// JSONL event stream (`sweep_started`/`sweep_point_done`/
    /// `point_failed`/...), when capture was requested.
    pub events_jsonl: Option<Vec<u8>>,
}

/// Expands every base over the axes into one merged plan with globally
/// unique point indices (so multi-spec runs merge deterministically).
///
/// # Errors
///
/// Returns a message if an axis key never applies to any base.
pub fn plan(bases: &[SystemSpec], axes: &[Axis]) -> Result<SweepPlan, String> {
    let mut merged = SweepPlan::default();
    let mut last_err = None;
    for base in bases {
        match SweepPlan::expand(base, axes) {
            Ok(mut plan) => {
                for mut point in plan.points.drain(..) {
                    point.index = merged.points.len();
                    merged.points.push(point);
                }
                merged.skipped.append(&mut plan.skipped);
            }
            // A key may be meaningless for one base (e.g. `tlb.entries`
            // on BASE) yet sweep the others; only fail if no base at all
            // accepts it.
            Err(e) => last_err = Some(e),
        }
    }
    if merged.points.is_empty() && merged.skipped.is_empty() {
        if let Some(e) = last_err {
            return Err(e);
        }
    }
    Ok(merged)
}

/// Runs the exploration: expand, (maybe) resume, execute with fault
/// isolation, journal, analyse.
///
/// # Errors
///
/// Returns a message for an unusable plan (bad axis key), a plan with
/// zero runnable points, or a resume journal that does not belong to
/// this sweep. Point *failures* are not errors — they come back in
/// [`ExploreRun::failures`].
pub fn run(cfg: &Config, capture_events: bool, reporter: &Reporter) -> Result<ExploreRun, String> {
    let plan = plan(&cfg.bases, &cfg.axes)?;
    if plan.points.is_empty() {
        let mut msg = "no runnable points in the sweep".to_owned();
        if let Some(s) = plan.skipped.first() {
            msg.push_str(&format!(" (all skipped; first reason: {})", s.reason));
        }
        return Err(msg);
    }

    // Resume: verify the journal matches this plan and scale, then seed
    // its completed points (failed points get re-run).
    let seeded = match &cfg.resume {
        Some(path) => {
            let journal = Journal::load(path)?;
            let seeded = seeded_from_journal(&journal, &plan, &cfg.exec)?;
            reporter.progress(format!(
                "resuming from {}: {} of {} points already done",
                path.display(),
                seeded.len(),
                plan.points.len()
            ));
            seeded
        }
        None => Default::default(),
    };

    // Journal target: `--resume` keeps appending to the same file;
    // `--journal` starts a fresh one (truncating any stale run).
    let writer = match (&cfg.resume, &cfg.journal) {
        (Some(path), _) => {
            let file = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
            Some(Mutex::new(JournalWriter::boxed(file)))
        }
        (None, Some(path)) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let mut w = JournalWriter::boxed(file);
            w.header(&run_header(&plan, &cfg.exec));
            Some(Mutex::new(w))
        }
        (None, None) => None,
    };

    reporter.progress(format!(
        "exploring {} point{} ({} skipped) with {} job{}",
        plan.points.len(),
        if plan.points.len() == 1 { "" } else { "s" },
        plan.skipped.len(),
        cfg.exec.jobs.max(1),
        if cfg.exec.jobs.max(1) == 1 { "" } else { "s" },
    ));
    let mut sink = capture_events.then(|| JsonlSink::new(Vec::new()));
    let outcome = run_sweep_hardened(
        &plan,
        &cfg.exec,
        &cfg.harden,
        seeded,
        reporter,
        &mut sink,
        writer.as_ref(),
    );
    if let Some(writer) = writer {
        let w = writer.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = w.finish() {
            // A broken journal must not discard a finished sweep; the
            // results are still in hand, only resumability is lost.
            reporter.progress(format!("warning: journal write failed: {e}"));
        }
    }
    let resumed = outcome.resumed;
    let (results, failures) = outcome.into_parts();
    let frontier = pareto_frontier(&results);
    let sens = sensitivity(&results, &cfg.axes);
    let events_jsonl = sink.and_then(|s| s.finish().ok());
    Ok(ExploreRun {
        results,
        failures,
        resumed,
        skipped: plan.skipped,
        frontier,
        sensitivity: sens,
        events_jsonl,
    })
}

/// Formats a TLB area proxy for tables (`4.0K`, `-` for zero).
fn area_cell(bytes: u64) -> String {
    if bytes == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}K", bytes as f64 / 1024.0)
    }
}

fn points_table(points: &[PointResult]) -> TextTable {
    let mut t = TextTable::new([
        "point", "system", "workload", "VMCPI", "int-CPI", "VM-total", "MCPI", "TLB-area",
        "TLB-miss",
    ]);
    for r in points {
        t.row([
            r.label.clone(),
            r.system.clone(),
            r.workload.clone(),
            format!("{:.5}", r.vmcpi),
            format!("{:.5}", r.interrupt_cpi),
            format!("{:.5}", r.vm_total),
            format!("{:.5}", r.mcpi),
            area_cell(r.tlb_area_bytes),
            r.tlb_miss_ratio.map(|m| format!("{m:.5}")).unwrap_or_else(|| "-".to_owned()),
        ]);
    }
    t
}

impl ExploreRun {
    /// Builds a run report from results produced elsewhere — the fleet
    /// coordinator hands its merged points through here so `repro fleet`
    /// renders the same tables and CSV as a single-node `repro explore`
    /// (the byte-identity contract in docs/fleet.md rides on this being
    /// the one code path that formats exploration output).
    pub fn from_results(
        results: Vec<PointResult>,
        failures: Vec<SimError>,
        skipped: Vec<SkippedPoint>,
        axes: &[Axis],
    ) -> ExploreRun {
        let frontier = pareto_frontier(&results);
        let sens = sensitivity(&results, axes);
        ExploreRun {
            results,
            failures,
            resumed: 0,
            skipped,
            frontier,
            sensitivity: sens,
            events_jsonl: None,
        }
    }

    /// The full report: measured points, skipped corners, the Pareto
    /// frontier, and the sensitivity ranking.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&points_table(&self.results).render());
        if self.resumed > 0 {
            out.push_str(&format!(
                "\nresumed: {} point(s) restored from the journal\n",
                self.resumed
            ));
        }
        if !self.failures.is_empty() {
            out.push_str(&format!("\n{} point(s) FAILED:\n", self.failures.len()));
            for e in &self.failures {
                out.push_str(&format!("  {e}\n"));
            }
        }
        if !self.skipped.is_empty() {
            out.push_str(&format!("\nskipped {} grid corner(s):\n", self.skipped.len()));
            for s in &self.skipped {
                out.push_str(&format!("  {} — {}\n", s.label, s.reason));
            }
        }
        out.push_str("\nPareto frontier (minimize TLB area and total VM overhead):\n");
        out.push_str(&points_table(&self.frontier).render());
        if !self.sensitivity.is_empty() {
            out.push_str("\nper-axis sensitivity of total VM overhead (most influential first):\n");
            let mut t = TextTable::new(["axis", "mean delta", "max delta", "groups", "worst at"]);
            for s in &self.sensitivity {
                let at = s
                    .max_group
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                t.row([
                    s.key.clone(),
                    format!("{:.5}", s.mean_delta),
                    format!("{:.5}", s.max_delta),
                    s.groups.to_string(),
                    if at.is_empty() { "(single axis)".to_owned() } else { at },
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }

    /// All measured points as CSV.
    pub fn to_csv(&self) -> String {
        points_table(&self.results).to_csv()
    }

    /// The Pareto frontier as CSV.
    pub fn frontier_to_csv(&self) -> String {
        points_table(&self.frontier).to_csv()
    }

    /// The sensitivity ranking as CSV.
    pub fn sensitivity_to_csv(&self) -> String {
        let mut t = TextTable::new(["axis", "mean_delta", "max_delta", "groups"]);
        for s in &self.sensitivity {
            t.row([
                s.key.clone(),
                format!("{:.6}", s.mean_delta),
                format!("{:.6}", s.max_delta),
                s.groups.to_string(),
            ]);
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_core::SystemKind;

    fn quick_exec(jobs: usize) -> ExecConfig {
        ExecConfig { warmup: 1_000, measure: 5_000, jobs }
    }

    #[test]
    fn multi_base_plans_reindex_points() {
        let bases =
            [SystemSpec::for_kind(SystemKind::Ultrix), SystemSpec::for_kind(SystemKind::Intel)];
        let axes = [Axis::parse("tlb.entries=32,64").unwrap()];
        let plan = plan(&bases, &axes).unwrap();
        assert_eq!(plan.points.len(), 4);
        assert!(plan.points.iter().enumerate().all(|(i, p)| p.index == i));
        assert!(plan.points[0].label.starts_with("ULTRIX"));
        assert!(plan.points[2].label.starts_with("INTEL"));
    }

    #[test]
    fn tlb_axis_on_base_system_skips_but_does_not_fail() {
        // `tlb.entries` applies to ULTRIX but is nonsense for BASE; the
        // merged plan keeps the valid half and records the rest.
        let bases =
            [SystemSpec::for_kind(SystemKind::Ultrix), SystemSpec::for_kind(SystemKind::Base)];
        let axes = [Axis::parse("tlb.entries=32,64").unwrap()];
        let plan = plan(&bases, &axes).unwrap();
        assert_eq!(plan.points.len(), 2);
        assert_eq!(plan.skipped.len(), 2);
    }

    #[test]
    fn run_produces_frontier_sensitivity_and_events() {
        let cfg = Config {
            bases: vec![SystemSpec::for_kind(SystemKind::Ultrix)],
            axes: vec![
                Axis::parse("tlb.entries=32,64").unwrap(),
                Axis::parse("mmu.table=two-tier,hashed").unwrap(),
            ],
            exec: quick_exec(2),
            ..Config::default()
        };
        let run = run(&cfg, true, &Reporter::silent()).unwrap();
        assert_eq!(run.results.len(), 4);
        assert!(!run.frontier.is_empty());
        assert_eq!(run.sensitivity.len(), 2);
        let events = String::from_utf8(run.events_jsonl.unwrap()).unwrap();
        assert!(events.contains("sweep_started"), "{events}");
        assert_eq!(events.matches("sweep_point_done").count(), 4);
    }

    #[test]
    fn bad_axis_key_is_an_error() {
        let cfg = Config {
            bases: vec![SystemSpec::for_kind(SystemKind::Ultrix)],
            axes: vec![Axis::parse("tlb.banana=1").unwrap()],
            exec: quick_exec(1),
            ..Config::default()
        };
        assert!(run(&cfg, false, &Reporter::silent()).is_err());
    }
}
