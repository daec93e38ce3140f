//! Log-scaled histograms, labeled counters, and run snapshots.

use std::fmt;

use vm_types::HandlerLevel;

use crate::event::Event;
use crate::json::Value;
use crate::sink::Sink;

/// Number of power-of-two buckets in a [`LogHist`]; covers values up to
/// `2^63`, i.e. every `u64`.
const BUCKETS: usize = 64;

/// A power-of-two–bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value `v` satisfies
/// `floor(log2(max(v,1))) == i`, so bucket 0 holds 0 and 1, bucket 1
/// holds 2–3, bucket 2 holds 4–7, and so on. Insertion is O(1) with no
/// allocation; the shape suits heavy-tailed latency-like quantities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LogHist {
    /// Creates an empty histogram.
    pub fn new() -> LogHist {
        LogHist::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (exact), or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact), or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile `q` in `[0, 1]`.
    ///
    /// Resolves to the upper edge of the bucket containing the q-th
    /// sample (clamped to the observed max), so the estimate is within a
    /// factor of 2 of the true value — adequate for p50/p90/p99 summaries
    /// of log-distributed quantities. Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return Some(upper.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Condenses the histogram into a fixed summary.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }

    /// Non-empty buckets as `(bucket_lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << i }, n))
            .collect()
    }

    /// Serializes the summary plus the sparse bucket list.
    pub fn to_json(&self) -> Value {
        let s = self.summary();
        Value::obj([
            ("count", s.count.into()),
            ("mean", s.mean.into()),
            ("p50", s.p50.into()),
            ("p90", s.p90.into()),
            ("p99", s.p99.into()),
            ("max", s.max.into()),
            (
                "buckets",
                Value::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, n)| Value::Arr(vec![lo.into(), n.into()]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Fixed-size summary of a [`LogHist`].
///
/// Quantiles are bucket-resolution estimates (within 2× of exact); `max`
/// is exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (exact).
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample (exact).
    pub max: u64,
}

impl fmt::Display for HistSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Per-event-kind counters, indexed the way the report tables need them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// TLB misses by `[user, kernel, root]` handler level.
    pub tlb_misses: [u64; 3],
    /// TLB misses taken on instruction fetches (any level).
    pub itlb_misses: u64,
    /// TLB misses taken on data references (any level).
    pub dtlb_misses: u64,
    /// Completed walks by handler level.
    pub walks: [u64; 3],
    /// Handler-code cache evictions by `[l1i, l1d, l2i, l2d]`.
    pub handler_evictions: [u64; 4],
    /// Context-switch TLB flushes.
    pub flushes: u64,
    /// TLB entries lost to flushes, total.
    pub flush_entries_lost: u64,
    /// Interrupts by handler level.
    pub interrupts: [u64; 3],
    /// Cache misses filled from L2 / from memory.
    pub cache_fills: [u64; 2],
    /// TLB entries displaced by insertion (I-TLB, D-TLB).
    pub tlb_evictions: [u64; 2],
}

impl ObsCounters {
    fn merge(&mut self, other: &ObsCounters) {
        for (a, b) in self.tlb_misses.iter_mut().zip(other.tlb_misses) {
            *a += b;
        }
        self.itlb_misses += other.itlb_misses;
        self.dtlb_misses += other.dtlb_misses;
        for (a, b) in self.walks.iter_mut().zip(other.walks) {
            *a += b;
        }
        for (a, b) in self.handler_evictions.iter_mut().zip(other.handler_evictions) {
            *a += b;
        }
        self.flushes += other.flushes;
        self.flush_entries_lost += other.flush_entries_lost;
        for (a, b) in self.interrupts.iter_mut().zip(other.interrupts) {
            *a += b;
        }
        for (a, b) in self.cache_fills.iter_mut().zip(other.cache_fills) {
            *a += b;
        }
        for (a, b) in self.tlb_evictions.iter_mut().zip(other.tlb_evictions) {
            *a += b;
        }
    }

    fn levels_json(v: &[u64; 3]) -> Value {
        Value::obj([("user", v[0].into()), ("kernel", v[1].into()), ("root", v[2].into())])
    }

    /// Serializes the counters as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("tlb_misses", Self::levels_json(&self.tlb_misses)),
            ("itlb_misses", self.itlb_misses.into()),
            ("dtlb_misses", self.dtlb_misses.into()),
            ("walks", Self::levels_json(&self.walks)),
            (
                "handler_evictions",
                Value::obj([
                    ("l1i", self.handler_evictions[0].into()),
                    ("l1d", self.handler_evictions[1].into()),
                    ("l2i", self.handler_evictions[2].into()),
                    ("l2d", self.handler_evictions[3].into()),
                ]),
            ),
            ("flushes", self.flushes.into()),
            ("flush_entries_lost", self.flush_entries_lost.into()),
            ("interrupts", Self::levels_json(&self.interrupts)),
            (
                "cache_fills",
                Value::obj([
                    ("l2", self.cache_fills[0].into()),
                    ("mem", self.cache_fills[1].into()),
                ]),
            ),
            (
                "tlb_evictions",
                Value::obj([
                    ("itlb", self.tlb_evictions[0].into()),
                    ("dtlb", self.tlb_evictions[1].into()),
                ]),
            ),
        ])
    }
}

/// Aggregated observability results for one simulation run.
///
/// Carried on `SimReport` when a stats-computing sink was attached, and
/// merged across runs of the same system for experiment summary tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Event counters by kind.
    pub counters: ObsCounters,
    /// Cycles per completed user-level page-table walk.
    pub walk_cycles: LogHist,
    /// User instructions between consecutive TLB misses.
    pub inter_miss: LogHist,
    /// Memory references issued per walk (handler footprint).
    pub walk_memrefs: LogHist,
}

impl ObsSnapshot {
    /// Merges another snapshot into this one (histograms and counters add).
    pub fn merge(&mut self, other: &ObsSnapshot) {
        self.counters.merge(&other.counters);
        self.walk_cycles.merge(&other.walk_cycles);
        self.inter_miss.merge(&other.inter_miss);
        self.walk_memrefs.merge(&other.walk_memrefs);
    }

    /// Total TLB misses across all levels.
    pub fn total_tlb_misses(&self) -> u64 {
        self.counters.tlb_misses.iter().sum()
    }

    /// Serializes the snapshot as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("counters", self.counters.to_json()),
            ("walk_cycles", self.walk_cycles.to_json()),
            ("inter_miss", self.inter_miss.to_json()),
            ("walk_memrefs", self.walk_memrefs.to_json()),
        ])
    }
}

/// A sink that aggregates events into an [`ObsSnapshot`].
///
/// This is the sink the CLI attaches for `--events`/`--chrome-trace` runs
/// and the reconciliation tests use to cross-check simulator counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSink {
    snap: ObsSnapshot,
    last_miss_at: Option<u64>,
}

impl StatsSink {
    /// Creates an empty stats sink.
    pub fn new() -> StatsSink {
        StatsSink::default()
    }

    /// The snapshot accumulated so far.
    pub fn snap(&self) -> &ObsSnapshot {
        &self.snap
    }

    /// Consumes the sink, returning its snapshot.
    pub fn into_snapshot(self) -> ObsSnapshot {
        self.snap
    }
}

fn level_ix(level: HandlerLevel) -> usize {
    match level {
        HandlerLevel::User => 0,
        HandlerLevel::Kernel => 1,
        HandlerLevel::Root => 2,
    }
}

impl Sink for StatsSink {
    fn emit(&mut self, now: u64, ev: &Event) {
        let c = &mut self.snap.counters;
        match *ev {
            Event::TlbMiss { class, level, .. } => {
                c.tlb_misses[level_ix(level)] += 1;
                if class.is_data() {
                    c.dtlb_misses += 1;
                } else {
                    c.itlb_misses += 1;
                }
                if level == HandlerLevel::User {
                    if let Some(prev) = self.last_miss_at {
                        self.snap.inter_miss.record(now.saturating_sub(prev));
                    }
                    self.last_miss_at = Some(now);
                }
            }
            Event::WalkComplete { level, cycles, memrefs } => {
                c.walks[level_ix(level)] += 1;
                if level == HandlerLevel::User {
                    self.snap.walk_cycles.record(cycles);
                    self.snap.walk_memrefs.record(memrefs);
                }
            }
            Event::HandlerEviction { which_cache } => {
                c.handler_evictions[which_cache as usize] += 1;
            }
            Event::ContextSwitchFlush { entries_lost } => {
                c.flushes += 1;
                c.flush_entries_lost += u64::from(entries_lost);
            }
            Event::Interrupt { level } => {
                c.interrupts[level_ix(level)] += 1;
            }
            Event::CacheMiss { filled_from, .. } => {
                c.cache_fills[usize::from(filled_from.missed_l2())] += 1;
            }
            Event::TlbEviction { class, .. } => {
                c.tlb_evictions[usize::from(class.is_data())] += 1;
            }
            // Sweep, serve, supervision, and fleet lifecycle markers
            // are emitted outside any single simulation; there is
            // nothing to aggregate per run.
            Event::SweepStarted { .. }
            | Event::SweepPointDone { .. }
            | Event::PointFailed { .. }
            | Event::RunResumed { .. }
            | Event::JobAdmitted { .. }
            | Event::JobShed { .. }
            | Event::JobDone { .. }
            | Event::DrainStarted { .. }
            | Event::WorkerSpawned { .. }
            | Event::WorkerCrashed { .. }
            | Event::WorkerRestarted { .. }
            | Event::BreakerTripped { .. }
            | Event::ShardDispatched { .. }
            | Event::ShardHedged { .. }
            | Event::BackendEvicted { .. }
            | Event::BackendJoined { .. }
            | Event::BackendProbation { .. }
            | Event::ResultDiverged { .. }
            | Event::AuditPassed { .. }
            | Event::AuditFailed { .. }
            | Event::BackendQuarantined { .. }
            | Event::BackendRejoined { .. }
            | Event::BackendRecovered { .. }
            | Event::FleetMerged { .. }
            | Event::UploadStarted { .. }
            | Event::ChunkReceived { .. }
            | Event::UploadCommitted { .. }
            | Event::UploadRejected { .. }
            | Event::UploadGc { .. } => {}
        }
    }

    fn reset(&mut self) {
        *self = StatsSink::default();
    }

    fn snapshot(&self) -> Option<ObsSnapshot> {
        Some(self.snap.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheId;
    use vm_types::{AccessKind, AddressSpace, MissClass, Vpn};

    #[test]
    fn hist_buckets_powers_of_two() {
        let mut h = LogHist::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        let buckets = h.nonzero_buckets();
        // 0,1 → bucket 0; 2,3 → 2; 4,7 → 4; 8 → 8; 1023 → 512; 1024 → 1024.
        assert_eq!(buckets, vec![(0, 2), (2, 2), (4, 2), (8, 1), (512, 1), (1024, 1)]);
    }

    #[test]
    fn hist_quantiles_bracket_the_data() {
        let mut h = LogHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        // True median is 500; bucket resolution allows up to 2× error.
        assert!((256..=1023).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), Some(1000));
        assert!(h.quantile(0.0).unwrap() >= 1);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_hist_is_well_behaved() {
        let h = LogHist::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn merge_is_sum() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        let mut whole = LogHist::new();
        for v in [3u64, 9, 100] {
            a.record(v);
            whole.record(v);
        }
        for v in [1u64, 70000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn stats_sink_counts_events() {
        let mut s = StatsSink::new();
        let vpn = Vpn::new(AddressSpace::User, 5);
        s.emit(
            100,
            &Event::TlbMiss { class: AccessKind::Fetch, level: HandlerLevel::User, vpn, asid: 0 },
        );
        s.emit(
            150,
            &Event::TlbMiss { class: AccessKind::Load, level: HandlerLevel::User, vpn, asid: 0 },
        );
        s.emit(150, &Event::WalkComplete { level: HandlerLevel::User, cycles: 30, memrefs: 2 });
        s.emit(150, &Event::HandlerEviction { which_cache: CacheId::L2D });
        s.emit(160, &Event::ContextSwitchFlush { entries_lost: 12 });
        s.emit(170, &Event::Interrupt { level: HandlerLevel::Root });
        s.emit(180, &Event::CacheMiss { class: AccessKind::Load, filled_from: MissClass::Memory });
        s.emit(190, &Event::TlbEviction { class: AccessKind::Load, victim: vpn });

        let snap = s.snapshot().unwrap();
        assert_eq!(snap.counters.tlb_misses, [2, 0, 0]);
        assert_eq!(snap.counters.itlb_misses, 1);
        assert_eq!(snap.counters.dtlb_misses, 1);
        assert_eq!(snap.counters.walks, [1, 0, 0]);
        assert_eq!(snap.counters.handler_evictions, [0, 0, 0, 1]);
        assert_eq!(snap.counters.flushes, 1);
        assert_eq!(snap.counters.flush_entries_lost, 12);
        assert_eq!(snap.counters.interrupts, [0, 0, 1]);
        assert_eq!(snap.counters.cache_fills, [0, 1]);
        assert_eq!(snap.counters.tlb_evictions, [0, 1]);
        // One inter-miss gap was recorded: 150 - 100 = 50.
        assert_eq!(snap.inter_miss.count(), 1);
        assert_eq!(snap.inter_miss.max(), Some(50));
        assert_eq!(snap.walk_cycles.max(), Some(30));
        assert_eq!(snap.total_tlb_misses(), 2);
    }

    #[test]
    fn snapshot_merge_adds() {
        let mut s1 = StatsSink::new();
        let mut s2 = StatsSink::new();
        s1.emit(1, &Event::Interrupt { level: HandlerLevel::User });
        s2.emit(2, &Event::Interrupt { level: HandlerLevel::User });
        s2.emit(3, &Event::WalkComplete { level: HandlerLevel::User, cycles: 8, memrefs: 1 });
        let mut merged = s1.snapshot().unwrap();
        merged.merge(&s2.snapshot().unwrap());
        assert_eq!(merged.counters.interrupts[0], 2);
        assert_eq!(merged.walk_cycles.count(), 1);
    }

    #[test]
    fn snapshot_json_parses() {
        let mut s = StatsSink::new();
        s.emit(1, &Event::WalkComplete { level: HandlerLevel::User, cycles: 12, memrefs: 3 });
        let text = s.snapshot().unwrap().to_json().to_string();
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("walk_cycles").unwrap().get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = StatsSink::new();
        s.emit(9, &Event::Interrupt { level: HandlerLevel::User });
        s.reset();
        assert_eq!(s.snapshot().unwrap(), ObsSnapshot::default());
    }
}
