//! Per-layer probes: each times the benchmark's calls into one crate's
//! public functions on the running workload's own inputs, with set-up
//! (system build, record generation) kept outside the timed region.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use vm_cache::{Cache, CacheConfig, CacheHierarchy};
use vm_core::{MemorySystem, SimConfig, SystemKind};
use vm_explore::{ExecConfig, HardenPolicy, PlannedPoint, PointResult};
use vm_harden::{JournalEntry, JournalWriter, PointOutcome};
use vm_obs::{NopSink, Sink, StatsSink};
use vm_ptable::{
    DisjunctWalker, HashedConfig, HashedWalker, InvertedConfig, InvertedWalker, MachWalker,
    TlbRefill, UltrixWalker, WalkContext, X86Walker,
};
use vm_supervise::{PoolConfig, WorkerCommand, WorkerPool};
use vm_tlb::{Tlb, TlbConfig};
use vm_trace::{InstrRecord, TraceLibrary, WorkloadSpec};
use vm_types::{AccessKind, HandlerLevel, MAddr, MissClass, Vpn};

use crate::metrics::median;

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

fn median_of(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Synthesizes `n` records of `spec` at `seed`, three times; returns the
/// records and the median synthesis cost per record.
///
/// # Errors
///
/// Returns a message when the workload spec does not build.
pub fn synth(spec: &WorkloadSpec, seed: u64, n: usize) -> Result<(Vec<InstrRecord>, f64), String> {
    let mut costs = Vec::new();
    let mut records = Vec::new();
    for _ in 0..3 {
        let gen = spec.build(seed).map_err(|e| format!("workload {}: {e}", spec.name))?;
        let t = Instant::now();
        records = gen.take(n).collect::<Vec<_>>();
        costs.push(ns_per(t.elapsed(), records.len() as u64));
    }
    Ok((records, median_of(&costs)))
}

/// Writes `records` into `library` as `name` and times three full
/// decodes (`TraceLibrary::load`); returns the median cost per record.
///
/// # Errors
///
/// Returns a message when the trace cannot be written or read back.
pub fn decode(library: &Path, name: &str, records: &[InstrRecord]) -> Result<f64, String> {
    let lib = TraceLibrary::new(library);
    std::fs::create_dir_all(library).map_err(|e| format!("{}: {e}", library.display()))?;
    let file = std::fs::File::create(lib.path(name)).map_err(|e| format!("trace file: {e}"))?;
    vm_trace::write_trace(std::io::BufWriter::new(file), records.iter().copied())
        .map_err(|e| format!("trace write: {e}"))?;
    let mut costs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let back = lib.load(name).map_err(|e| format!("trace load: {e}"))?;
        costs.push(ns_per(t.elapsed(), back.len() as u64));
        if back.len() != records.len() {
            return Err(format!("decoded {} of {} records", back.len(), records.len()));
        }
    }
    Ok(median_of(&costs))
}

/// (metric key, ns) pairs, one per system or walker.
pub type PerKey = Vec<(&'static str, f64)>;

/// `step` cost per paper system over pre-materialised records.
#[derive(Debug, Clone, Default)]
pub struct StepCost {
    /// (system key, median ns per instruction).
    pub per_system: PerKey,
    /// Median `SimConfig::build` time, µs.
    pub build_us: f64,
    /// Instructions stepped in total.
    pub instrs: u64,
}

/// Times `MemorySystem::run` over `records` for each paper system, three
/// repetitions each, building the system outside the timed region.
///
/// # Errors
///
/// Returns a message when a paper configuration does not build.
pub fn step(records: &[InstrRecord], keys: &[&'static str; 6]) -> Result<StepCost, String> {
    let mut out = StepCost::default();
    let mut builds = Vec::new();
    for (kind, key) in SystemKind::PAPER.into_iter().zip(keys) {
        let mut costs = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let mut sys = SimConfig::paper_default(kind).build().map_err(|e| e.to_string())?;
            builds.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let ran = sys.run(records.iter().copied(), u64::MAX);
            costs.push(ns_per(t.elapsed(), ran));
            black_box(sys.counts());
            out.instrs += ran;
        }
        out.per_system.push((key, median_of(&costs)));
    }
    out.build_us = median_of(&builds);
    Ok(out)
}

/// TLB probe cost on a VPN stream.
#[derive(Debug, Clone, Default)]
pub struct TlbCost {
    /// ns per lookup (lookup plus any insert it triggered).
    pub probe_ns: f64,
    /// Lookups performed.
    pub lookups: u64,
    /// Misses over lookups.
    pub miss_ratio: f64,
    /// The pages that missed, with the reference kind that missed.
    pub missing: Vec<(Vpn, AccessKind)>,
}

/// Replays the records' fetch and data pages through split 128-entry
/// TLBs (`Tlb::lookup`, then `insert_user` on a miss).
///
/// # Errors
///
/// Returns a message when the paper TLB geometry is rejected.
pub fn tlb(records: &[InstrRecord]) -> Result<TlbCost, String> {
    let cfg = TlbConfig::paper_flat().map_err(|e| e.to_string())?;
    let (mut itlb, mut dtlb) = (Tlb::new(cfg, 1), Tlb::new(cfg, 2));
    let mut missing = Vec::new();
    let t = Instant::now();
    for rec in records {
        let vpn = rec.pc.vpn();
        if !itlb.lookup(vpn) {
            itlb.insert_user(vpn);
            missing.push((vpn, AccessKind::Fetch));
        }
        if let Some(d) = rec.data {
            let vpn = d.addr.vpn();
            if !dtlb.lookup(vpn) {
                dtlb.insert_user(vpn);
                missing.push((vpn, d.kind));
            }
        }
    }
    let elapsed = t.elapsed();
    let (i, d) = (itlb.counters(), dtlb.counters());
    let lookups = i.lookups + d.lookups;
    Ok(TlbCost {
        probe_ns: ns_per(elapsed, lookups),
        lookups,
        miss_ratio: (i.misses() + d.misses()) as f64 / lookups.max(1) as f64,
        missing,
    })
}

/// A walk context with a real data TLB and nothing else: PTE loads hit,
/// handler fetches only count, so the probe times the walker itself.
struct ProbeCtx {
    dtlb: Tlb,
    pte_loads: u64,
    handler_instrs: u64,
    interrupts: u64,
}

impl WalkContext for ProbeCtx {
    fn exec_handler(&mut self, _level: HandlerLevel, _base: MAddr, instrs: u32) {
        self.handler_instrs += u64::from(instrs);
    }

    fn exec_inline(&mut self, _level: HandlerLevel, cycles: u32) {
        self.handler_instrs += u64::from(cycles);
    }

    fn pte_load(&mut self, _level: HandlerLevel, _addr: MAddr, _bytes: u64) -> MissClass {
        self.pte_loads += 1;
        MissClass::L1Hit
    }

    fn dtlb_probe(&mut self, vpn: Vpn) -> bool {
        self.dtlb.lookup(vpn)
    }

    fn dtlb_insert_protected(&mut self, vpn: Vpn) {
        self.dtlb.insert_protected(vpn);
    }

    fn dtlb_insert(&mut self, vpn: Vpn) {
        self.dtlb.insert_user(vpn);
    }

    fn interrupt(&mut self, _level: HandlerLevel) {
        self.interrupts += 1;
    }
}

/// The walkers probed, keyed as in the metric names.
fn walkers() -> Vec<(&'static str, Box<dyn TlbRefill>)> {
    let phys = SimConfig::paper_default(SystemKind::PaRisc).phys_mem_bytes;
    vec![
        ("ultrix", Box::new(UltrixWalker::new())),
        ("mach", Box::new(MachWalker::new())),
        ("x86", Box::new(X86Walker::new())),
        ("hashed", Box::new(HashedWalker::new(HashedConfig::scaled(phys)))),
        ("inverted", Box::new(InvertedWalker::new(InvertedConfig::new(phys)))),
        ("disjunct", Box::new(DisjunctWalker::new())),
    ]
}

/// Times each walker's `TlbRefill::refill` over the missing pages
/// (replayed until at least 20 000 refills per walker). Returns
/// (walker key, ns per refill) and the refills performed.
///
/// # Errors
///
/// Returns a message when the paper TLB geometry is rejected.
pub fn refill(missing: &[(Vpn, AccessKind)]) -> Result<(PerKey, u64), String> {
    let cfg = TlbConfig::paper_mips().map_err(|e| e.to_string())?;
    let reps = 20_000usize.div_ceil(missing.len().max(1));
    let mut out = Vec::new();
    let mut walks = 0u64;
    for (key, mut walker) in walkers() {
        let mut ctx =
            ProbeCtx { dtlb: Tlb::new(cfg, 3), pte_loads: 0, handler_instrs: 0, interrupts: 0 };
        let t = Instant::now();
        for _ in 0..reps {
            for &(vpn, kind) in missing {
                walker.refill(&mut ctx, vpn, kind);
            }
        }
        let n = (reps * missing.len()) as u64;
        out.push((key, ns_per(t.elapsed(), n)));
        walks += n;
        black_box((ctx.pte_loads, ctx.handler_instrs, ctx.interrupts));
    }
    Ok((out, walks))
}

/// Cache hierarchy cost on an address stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCost {
    /// ns per `CacheHierarchy::access`.
    pub access_ns: f64,
    /// Accesses performed.
    pub accesses: u64,
    /// L1 misses over L1 accesses.
    pub l1_miss_ratio: f64,
}

/// Replays every fetch and data address through the paper's default
/// direct-mapped 16 KB / 1 MB hierarchy.
///
/// # Errors
///
/// Returns a message when the paper cache geometry is rejected.
pub fn cache(records: &[InstrRecord]) -> Result<CacheCost, String> {
    let cfg = SimConfig::paper_default(SystemKind::Base);
    let l1 = CacheConfig::direct_mapped(cfg.l1_bytes, cfg.l1_line).map_err(|e| e.to_string())?;
    let l2 = CacheConfig::direct_mapped(cfg.l2_bytes, cfg.l2_line).map_err(|e| e.to_string())?;
    let mut h = CacheHierarchy::new(Cache::new(l1), Cache::new(l2));
    let t = Instant::now();
    for rec in records {
        black_box(h.access(rec.pc));
        if let Some(d) = rec.data {
            black_box(h.access(d.addr));
        }
    }
    let elapsed = t.elapsed();
    let c = h.counters();
    Ok(CacheCost {
        access_ns: ns_per(elapsed, c.l1.accesses),
        accesses: c.l1.accesses,
        l1_miss_ratio: c.l1.miss_ratio(),
    })
}

/// Warms on the first quarter of `records`, resets, measures the rest,
/// and reports — `simulate_with_sink`'s body, with the system built by
/// the caller.
fn timed_run<S: Sink>(mut sys: MemorySystem<S>, records: &[InstrRecord]) -> Duration {
    let warm = records.len() / 4;
    let t = Instant::now();
    sys.run(records[..warm].iter().copied(), u64::MAX);
    sys.reset_counters();
    sys.run(records[warm..].iter().copied(), u64::MAX);
    black_box(sys.report());
    t.elapsed()
}

/// The zero-cost sink check: ULTRIX runs with a `NopSink` and with a
/// `StatsSink` attached, each divided by the plain run, over identical
/// pre-built systems and pre-generated records. Fifteen rounds of the
/// three runs, rotating which goes first; the ratios are taken within a
/// round (so host speed drift between rounds cancels) and the medians
/// reported. Returns (nop ratio, stats ratio).
///
/// # Errors
///
/// Returns a message when the configuration does not build.
pub fn sink_ratios(records: &[InstrRecord]) -> Result<(f64, f64), String> {
    let cfg = SimConfig::paper_default(SystemKind::Ultrix);
    let (mut nop, mut stats) = (Vec::new(), Vec::new());
    for round in 0..15 {
        let mut t = [0.0f64; 3];
        for k in 0..3 {
            let v = (round + k) % 3;
            let sys = cfg.build().map_err(|e| e.to_string())?;
            t[v] = match v {
                0 => timed_run(sys, records),
                1 => timed_run(sys.with_sink(NopSink), records),
                _ => timed_run(sys.with_sink(StatsSink::new()), records),
            }
            .as_secs_f64();
        }
        nop.push(t[1] / t[0].max(1e-12));
        stats.push(t[2] / t[0].max(1e-12));
    }
    Ok((median_of(&nop), median_of(&stats)))
}

/// Median µs per `attest::seal` and per result codec round trip
/// (`result_to_value`, render, parse, `result_from_value`) over
/// `results`, each repeated until at least 2 000 calls.
///
/// # Errors
///
/// Returns a message when a result does not survive the codec.
pub fn seal_codec(results: &[PointResult]) -> Result<(f64, f64), String> {
    if results.is_empty() {
        return Err("no results to seal".to_owned());
    }
    let reps = 2_000usize.div_ceil(results.len());
    let mut work = results.to_vec();
    let t = Instant::now();
    for _ in 0..reps {
        for r in &mut work {
            let ctx = r.ctx;
            vm_explore::attest::seal(black_box(r), ctx);
        }
    }
    let seal = t.elapsed().as_secs_f64() * 1e6 / (reps * work.len()) as f64;
    if work != results {
        return Err("re-sealing changed a sealed result".to_owned());
    }
    let t = Instant::now();
    for _ in 0..reps {
        for r in results {
            let text = vm_explore::result_to_value(r).to_string();
            let v = vm_obs::json::parse(&text).map_err(|e| e.to_string())?;
            let back = vm_explore::result_from_value(&v)?;
            if &back != r {
                return Err(format!("codec changed result {}", r.label));
            }
        }
    }
    let codec = t.elapsed().as_secs_f64() * 1e6 / (reps * results.len()) as f64;
    Ok((seal, codec))
}

/// Mean µs per `JournalWriter::record` into a journal file at `path`
/// (default sync batch), over at least 64 entries.
///
/// # Errors
///
/// Returns a message when the journal cannot be opened or finished.
pub fn journal_append(results: &[PointResult], path: &Path) -> Result<f64, String> {
    let mut writer = JournalWriter::open_path(path).map_err(|e| format!("journal: {e}"))?;
    let entries: Vec<JournalEntry> = results
        .iter()
        .cycle()
        .take(64.max(results.len()))
        .enumerate()
        .map(|(ix, r)| {
            let done: PointOutcome<PointResult> = PointOutcome::Completed(r.clone());
            JournalEntry::from_outcome(ix as u64, &r.label, &done, 1, vm_explore::result_to_value)
        })
        .collect();
    let t = Instant::now();
    for e in &entries {
        writer.record(e);
    }
    writer.finish().map_err(|e| format!("journal: {e}"))?;
    let us = t.elapsed().as_secs_f64() * 1e6 / entries.len() as f64;
    let _ = std::fs::remove_file(path);
    Ok(us)
}

/// Worker-wire cost: each point's request is run once on a supervised
/// `repro worker` and once in-process through `handle_request`; the
/// replies must match. Returns (median round trip minus in-process
/// time in ms, worker restarts).
///
/// # Errors
///
/// Returns a message when a worker fails or its reply differs from the
/// in-process one.
pub fn wire(
    repro: &Path,
    points: &[PlannedPoint],
    exec: &ExecConfig,
) -> Result<(f64, u64), String> {
    let pool = WorkerPool::new(PoolConfig::new(WorkerCommand::new(repro, &["worker"])));
    let policy = HardenPolicy::default();
    let lines: Vec<String> =
        points.iter().map(|p| vm_explore::request_line(p, exec, &policy)).collect();
    // The first request spawns the worker; keep that out of the sample.
    pool.execute(0, &lines[0]).map_err(|e| e.to_string())?;
    let mut wire_ms = Vec::new();
    for _ in 0..3 {
        for (ix, line) in lines.iter().enumerate() {
            let t = Instant::now();
            let remote = pool.execute(ix as u64, line).map_err(|e| e.to_string())?;
            let round_trip = t.elapsed();
            let t = Instant::now();
            let local = vm_explore::handle_request(line);
            let in_process = t.elapsed();
            if remote.trim() != local.trim() {
                return Err(format!("worker reply for point {ix} differs from in-process"));
            }
            wire_ms.push((round_trip.as_secs_f64() - in_process.as_secs_f64()) * 1e3);
        }
    }
    let restarts = pool.stats().restarted;
    pool.shutdown();
    Ok((median_of(&wire_ms), restarts))
}

/// `run_jobs` overhead: the same jobs run through the runner on one
/// thread and directly (`build` + `simulate`), three alternating
/// rounds; returns the median of runner wall minus direct busy time, s.
pub fn runner_overhead(jobs: &[vm_experiments::Job]) -> Result<f64, String> {
    let mut diffs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let outcomes = vm_experiments::run_jobs(jobs.to_vec(), 1);
        let wall = t.elapsed().as_secs_f64();
        let mut busy = 0.0;
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let t = Instant::now();
            let trace = job.workload.build(job.trace_seed).map_err(|e| e.to_string())?;
            let report = vm_core::simulate(&job.config, trace, job.scale.warmup, job.scale.measure)
                .map_err(|e| e.to_string())?;
            busy += t.elapsed().as_secs_f64();
            if report.counts != outcome.report.counts {
                return Err(format!("runner and direct runs of {} disagree", job.label));
            }
        }
        diffs.push(wall - busy);
    }
    Ok(median_of(&diffs))
}
