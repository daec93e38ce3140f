//! The `fleet-sweep` loop: `vm_fleet::run_fleet` over a grid of short
//! points against two `repro serve --workers 1` daemons.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vm_explore::{Axis, ExecConfig};
use vm_fleet::{fleet_plan, run_fleet, Backend, FleetOptions, FleetPlan, FleetSession};
use vm_harden::JournalWriter;
use vm_obs::{Event, Reporter, Sink};

use crate::fp;
use crate::metrics::Tally;
use crate::spans::Tracer;
use crate::sweep::TimedWriter;

/// The grid: the six paper systems at the variant's trace seed, times
/// three L1 sizes, at the `serve-bench` run lengths.
///
/// # Errors
///
/// Returns a message when the grid does not plan.
pub fn grid(variant: u64) -> Result<(FleetPlan, ExecConfig), String> {
    let axes = vec![Axis::parse("cache.l1=8K,16K,32K")?];
    let plan = fleet_plan(&crate::serve::specs(variant), &axes)?;
    let exec = ExecConfig { warmup: crate::serve::WARMUP, measure: crate::serve::MEASURE, jobs: 1 };
    Ok((plan, exec))
}

/// The benchmark's sink: counts dispatch and hedge events as the
/// coordinator emits them.
#[derive(Debug, Default)]
pub struct DispatchSink {
    /// `shard_dispatched` events.
    pub dispatched: u64,
    /// `shard_hedged` events.
    pub hedged: u64,
}

impl Sink for DispatchSink {
    fn emit(&mut self, _now: u64, ev: &Event) {
        match ev {
            Event::ShardDispatched { .. } => self.dispatched += 1,
            Event::ShardHedged { .. } => self.hedged += 1,
            _ => {}
        }
    }
}

/// Everything the fleet runs produced.
#[derive(Debug, Default)]
pub struct FleetRun {
    /// Wall time per fleet run.
    pub walls: Vec<Duration>,
    /// Per point: first dispatch until its result was journaled, ms.
    pub latency_ms: Vec<f64>,
    /// Points merged, over all runs.
    pub merged: u64,
    /// Dispatches (hedges included), over all runs.
    pub dispatched: u64,
    /// Hedged dispatches, over all runs.
    pub hedged: u64,
    /// Attempted and failed points.
    pub tally: Tally,
    /// Fingerprint of each run's merged results.
    pub fingerprints: Vec<u64>,
}

impl FleetRun {
    /// Appends another run's samples and counts to this one.
    pub fn absorb(&mut self, other: FleetRun) {
        self.walls.extend(other.walls);
        self.latency_ms.extend(other.latency_ms);
        self.merged += other.merged;
        self.dispatched += other.dispatched;
        self.hedged += other.hedged;
        self.tally.add(other.tally);
        self.fingerprints.extend(other.fingerprints);
    }
}

/// Runs the grid through the fleet at `addrs` `runs` times.
///
/// # Errors
///
/// Returns the coordinator's error when a fleet run fails outright.
pub fn sweep(
    addrs: &[String],
    plan: &FleetPlan,
    exec: &ExecConfig,
    runs: usize,
    tracer: &Tracer,
) -> Result<FleetRun, String> {
    let mut out = FleetRun::default();
    let points = plan.plan.points.len() as u64;
    for _ in 0..runs {
        let backends: Vec<Backend> =
            addrs.iter().enumerate().map(|(id, a)| Backend::from_addr(id, a.clone())).collect();
        let (timed, log) = TimedWriter::new(Vec::<u8>::new());
        let session = FleetSession::journaled(JournalWriter::boxed(timed));
        let mut sink = DispatchSink::default();
        let t = Instant::now();
        let outcome = run_fleet(
            plan,
            exec,
            backends,
            &FleetOptions::default(),
            &Reporter::silent(),
            &mut sink,
            None,
            session,
        )?;
        let wall = t.elapsed();
        let run_span = tracer.record("fleet.run", 0, 0, t, t + wall);
        let writes = std::mem::take(&mut *log.lock().expect("journal log poisoned"));
        let mut first_dispatch: BTreeMap<u64, Instant> = BTreeMap::new();
        for w in &writes {
            match (w.kind.as_str(), w.point) {
                ("assign", Some(ix)) => {
                    first_dispatch.entry(ix).or_insert(w.start);
                }
                ("point", Some(ix)) => {
                    if let Some(&s) = first_dispatch.get(&ix) {
                        out.latency_ms.push(w.end.saturating_duration_since(s).as_secs_f64() * 1e3);
                        tracer.record("fleet.point", run_span, ix, s, w.end);
                    }
                }
                _ => {}
            }
        }
        out.walls.push(wall);
        out.tally.attempted += points;
        out.tally.failed += outcome.merged.failures.len() as u64;
        out.merged += outcome.merged.results.len() as u64;
        out.dispatched += sink.dispatched;
        out.hedged += sink.hedged;
        out.fingerprints.push(fp::of_results(&outcome.merged.results));
    }
    Ok(out)
}
