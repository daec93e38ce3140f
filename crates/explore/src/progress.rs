//! Live sweep progress: checkpoint telemetry out of a running sweep.
//!
//! A [`SweepObserver`] attached to [`HardenPolicy::progress`] receives
//! three kinds of callbacks from [`run_sweep_hardened`]:
//!
//! * [`SweepObserver::checkpoint`] — every `interval` retired
//!   instructions inside a simulating point, with running VMCPI/MCPI
//!   estimates derived from the partial [`vm_obs::ObsSnapshot`]. The
//!   schedule rides the simulation's own instruction clock (a
//!   [`vm_obs::SnapshotSink`] under the hood), so attaching an observer
//!   cannot perturb results: the merged CSV and journal stay
//!   byte-identical with or without one.
//! * [`SweepObserver::point_finished`] — once per point that ran, in
//!   completion order (which varies with worker scheduling; consumers
//!   wanting deterministic order should use the journal or the final
//!   outcome).
//! * [`SweepObserver::pool_event`] — supervised-pool lifecycle events
//!   (`worker_*`, `breaker_tripped`) drained live as points finish,
//!   instead of only at sweep teardown.
//!
//! Callbacks run on executor worker threads: implementations must be
//! cheap and non-blocking, or they stall the sweep they are watching.
//!
//! [`HardenPolicy::progress`]: crate::exec::HardenPolicy
//! [`run_sweep_hardened`]: crate::exec::run_sweep_hardened

use std::fmt;
use std::sync::Arc;

use vm_core::cost::CostModel;
use vm_obs::snapshot::SnapshotCheckpoint;
use vm_obs::Event;

use crate::sweep::PlannedPoint;

/// Receives live progress callbacks from a hardened sweep.
///
/// All methods default to no-ops so implementations opt into only the
/// callbacks they care about.
pub trait SweepObserver: Send + Sync {
    /// A periodic checkpoint from inside a simulating point.
    fn checkpoint(&self, _cp: &PointCheckpoint) {}

    /// A point ran and finished (successfully, or as a classified
    /// failure or timeout), after its journal line, if any, was written.
    /// Called in completion order; a point the cancel flag declined
    /// never ran and is not reported.
    fn point_finished(&self, _index: usize, _ok: bool) {}

    /// A supervised worker-pool lifecycle event (`worker_spawned`,
    /// `worker_crashed`, `worker_restarted`, `breaker_tripped`),
    /// delivered as soon as the executor drains it.
    fn pool_event(&self, _ev: &Event) {}
}

/// One progress checkpoint from a simulating sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointCheckpoint {
    /// The point's index in sweep order.
    pub index: usize,
    /// The point's display label (spec name plus axis settings).
    pub label: String,
    /// The workload driving the point.
    pub workload: String,
    /// 1-based checkpoint ordinal within this point's simulation.
    pub seq: u64,
    /// Cumulative instructions retired at this point so far (warm-up
    /// plus measurement) — monotonic within the point.
    pub instrs: u64,
    /// Instructions the point will retire in total (warm-up + measure).
    pub instrs_total: u64,
    /// Running VMCPI estimate: walk cycles per instruction over the
    /// current phase. An estimate for telemetry only — the final report
    /// prices the full reconciliation, not this partial stream.
    pub vmcpi: f64,
    /// Running MCPI estimate: cache-fill penalty cycles per instruction
    /// over the current phase, priced at the paper's Table 2 costs.
    pub mcpi: f64,
    /// TLB misses observed so far in the current phase.
    pub tlb_misses: u64,
    /// Completed page-table walks so far in the current phase.
    pub walks: u64,
}

impl PointCheckpoint {
    /// Fraction of the point's instructions retired, in `0.0..=1.0`.
    pub fn fraction(&self) -> f64 {
        (self.instrs as f64 / self.instrs_total.max(1) as f64).min(1.0)
    }

    /// Builds a checkpoint from a raw [`SnapshotCheckpoint`] fired
    /// inside `point`, pricing the running estimates with `cost`.
    pub fn from_snapshot(
        point: &PlannedPoint,
        cp: &SnapshotCheckpoint<'_>,
        instrs_total: u64,
        cost: &CostModel,
    ) -> PointCheckpoint {
        let phase = cp.now.max(1) as f64;
        let counters = &cp.snapshot.counters;
        let [fills_l2, fills_mem] = counters.cache_fills;
        let fill_cycles =
            (fills_l2 + fills_mem) * cost.l1_miss_cycles + fills_mem * cost.l2_miss_cycles;
        PointCheckpoint {
            index: point.index,
            label: point.label.clone(),
            workload: point.spec.workload_name().to_owned(),
            seq: cp.seq,
            instrs: cp.instrs,
            instrs_total,
            vmcpi: cp.snapshot.walk_cycles.sum() as f64 / phase,
            mcpi: fill_cycles as f64 / phase,
            tlb_misses: counters.tlb_misses.iter().sum(),
            walks: counters.walks.iter().sum(),
        }
    }
}

/// Attaches live progress reporting to a hardened sweep.
#[derive(Clone)]
pub struct ProgressConfig {
    /// Checkpoint interval in retired instructions (clamped to ≥ 1).
    pub interval: u64,
    /// The observer receiving callbacks; shared across worker threads.
    pub observer: Arc<dyn SweepObserver>,
}

impl ProgressConfig {
    /// A config checkpointing every `interval` instructions.
    pub fn new(interval: u64, observer: Arc<dyn SweepObserver>) -> ProgressConfig {
        ProgressConfig { interval, observer }
    }
}

impl fmt::Debug for ProgressConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressConfig")
            .field("interval", &self.interval)
            .field("observer", &"<dyn SweepObserver>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use crate::spec::SystemSpec;
    use crate::sweep::SweepPlan;
    use vm_obs::{ObsSnapshot, Sink, SnapshotSink, StatsSink};
    use vm_types::HandlerLevel;

    fn one_point() -> PlannedPoint {
        let spec =
            SystemSpec::parse("[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n").unwrap();
        let plan = SweepPlan::expand(&spec, &[]).unwrap();
        plan.points.into_iter().next().unwrap()
    }

    #[test]
    fn checkpoint_prices_running_estimates() {
        let mut stats = StatsSink::new();
        for i in 0..10u64 {
            stats.emit(
                i * 100,
                &Event::WalkComplete { level: HandlerLevel::User, cycles: 30, memrefs: 2 },
            );
        }
        let snap = stats.snapshot().unwrap();
        let raw = SnapshotCheckpoint { seq: 3, now: 1_000, instrs: 5_000, snapshot: &snap };
        let cp = PointCheckpoint::from_snapshot(&one_point(), &raw, 10_000, &CostModel::paper(50));
        assert_eq!(cp.seq, 3);
        assert_eq!((cp.instrs, cp.instrs_total), (5_000, 10_000));
        assert!((cp.fraction() - 0.5).abs() < 1e-9);
        // 10 walks × 30 cycles over 1 000 instructions.
        assert!((cp.vmcpi - 0.3).abs() < 1e-9, "vmcpi {}", cp.vmcpi);
        assert_eq!(cp.walks, 10);
    }

    #[test]
    fn fraction_clamps_at_one() {
        let snap = ObsSnapshot::default();
        let raw = SnapshotCheckpoint { seq: 1, now: 500, instrs: 2_000, snapshot: &snap };
        let cp = PointCheckpoint::from_snapshot(&one_point(), &raw, 1_000, &CostModel::paper(50));
        assert!((cp.fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observer_default_methods_are_no_ops() {
        struct Passive;
        impl SweepObserver for Passive {}
        let o = Passive;
        let snap = ObsSnapshot::default();
        let raw = SnapshotCheckpoint { seq: 1, now: 1, instrs: 1, snapshot: &snap };
        o.checkpoint(&PointCheckpoint::from_snapshot(
            &one_point(),
            &raw,
            10,
            &CostModel::paper(50),
        ));
        o.point_finished(0, true);
        o.pool_event(&Event::DrainStarted { pending: 0 });
    }

    #[test]
    fn snapshot_sink_drives_observer_checkpoints() {
        struct Collect(Mutex<Vec<u64>>);
        impl SweepObserver for Collect {
            fn checkpoint(&self, cp: &PointCheckpoint) {
                self.0.lock().unwrap().push(cp.instrs);
            }
        }
        let observer = Arc::new(Collect(Mutex::new(Vec::new())));
        let cfg = ProgressConfig::new(100, observer.clone());
        let point = one_point();
        let cost = CostModel::paper(point.spec.interrupt_cycles);
        let mut sink = SnapshotSink::new(cfg.interval, |cp| {
            cfg.observer.checkpoint(&PointCheckpoint::from_snapshot(&point, cp, 1_000, &cost));
        });
        for i in 1..=5u64 {
            sink.emit(
                i * 90,
                &Event::WalkComplete { level: HandlerLevel::User, cycles: 20, memrefs: 1 },
            );
        }
        let seen = observer.0.lock().unwrap().clone();
        assert_eq!(seen, vec![180, 270, 360, 450]);
    }
}
