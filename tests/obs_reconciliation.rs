//! Property test for the observability layer: a sink that simply counts
//! the events it receives must reconcile, event class by event class,
//! with the counters the simulator itself reports — for every paper
//! system (ULTRIX, MACH, INTEL, PA-RISC, NOTLB, BASE), across random
//! workloads and seeds.
//!
//! This is the end-to-end guarantee behind the exported JSONL/Chrome
//! streams: every line in an event file corresponds to exactly one
//! counted architectural event, and vice versa.

use jacob_mudge_vm::core::{simulate, simulate_with_sink, SimConfig, SimReport, SystemKind};
use jacob_mudge_vm::obs::{Event, Sink};
use jacob_mudge_vm::trace::presets;
use jacob_mudge_vm::types::{HandlerLevel, SplitMix64};

/// Counts events per kind, plus per-level TLB misses, without any of
/// [`StatsSink`](jacob_mudge_vm::obs::StatsSink)'s histogram machinery —
/// an independent witness of the emitted stream.
#[derive(Default)]
struct CountingSink {
    tlb_miss_user: u64,
    tlb_miss_nested: u64,
    walk_complete: u64,
    walk_memrefs: u64,
    cache_miss: u64,
    interrupt: u64,
    flush: u64,
    handler_eviction: u64,
    tlb_eviction: u64,
}

impl Sink for CountingSink {
    fn emit(&mut self, _now: u64, ev: &Event) {
        match ev {
            Event::TlbMiss { level, .. } => {
                if *level == HandlerLevel::User {
                    self.tlb_miss_user += 1;
                } else {
                    self.tlb_miss_nested += 1;
                }
            }
            Event::WalkComplete { memrefs, .. } => {
                self.walk_complete += 1;
                self.walk_memrefs += *memrefs;
            }
            Event::CacheMiss { .. } => self.cache_miss += 1,
            Event::Interrupt { .. } => self.interrupt += 1,
            Event::ContextSwitchFlush { .. } => self.flush += 1,
            Event::HandlerEviction { .. } => self.handler_eviction += 1,
            Event::TlbEviction { .. } => self.tlb_eviction += 1,
            // Sweep/harden/serve/supervision lifecycle markers come from
            // the explore executor, the vm-serve daemon, and the
            // vm-supervise pool — never from a single simulation run.
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
            | Event::BackendRejoined { .. }
            | Event::BackendRecovered { .. }
            | Event::ResultDiverged { .. }
            | Event::AuditPassed { .. }
            | Event::AuditFailed { .. }
            | Event::BackendQuarantined { .. }
            | Event::FleetMerged { .. }
            | Event::UploadStarted { .. }
            | Event::ChunkReceived { .. }
            | Event::UploadCommitted { .. }
            | Event::UploadRejected { .. }
            | Event::UploadGc { .. } => {}
        }
    }

    fn reset(&mut self) {
        *self = CountingSink::default();
    }
}

const SYSTEMS: [SystemKind; 6] = [
    SystemKind::Ultrix,
    SystemKind::Mach,
    SystemKind::Intel,
    SystemKind::PaRisc,
    SystemKind::NoTlb,
    SystemKind::Base,
];

fn workload(rng: &mut SplitMix64) -> jacob_mudge_vm::trace::WorkloadSpec {
    let all = presets::all_benchmarks();
    all[(rng.next_u64() % all.len() as u64) as usize].clone()
}

fn check_reconciles(counted: &CountingSink, report: &SimReport, label: &str) {
    let tlb_misses = report.itlb.iter().chain(report.dtlb.iter()).map(|t| t.misses()).sum::<u64>();
    assert_eq!(
        counted.tlb_miss_user + counted.tlb_miss_nested,
        tlb_misses,
        "{label}: tlb_miss events vs TLB counters"
    );
    assert_eq!(
        counted.cache_miss,
        report.counts.l1i_misses + report.counts.l1d_misses,
        "{label}: cache_miss events vs user L1 miss counters"
    );
    assert_eq!(
        counted.interrupt,
        report.counts.total_interrupts(),
        "{label}: interrupt events vs interrupt counters"
    );
    assert_eq!(counted.flush, report.counts.tlb_flushes, "{label}: flush events vs counter");
    // One WalkComplete per serviced top-level miss: user-level TLB misses
    // for TLB systems, OS-serviced L2 misses for NOTLB, none for BASE.
    match report.system.split('/').next().unwrap() {
        "NOTLB" => assert_eq!(
            counted.walk_complete, report.counts.handler_invocations[0],
            "{label}: NOTLB walks vs top-level handler invocations"
        ),
        "BASE" => {
            assert_eq!(counted.walk_complete, 0, "{label}: BASE must not walk");
            assert_eq!(counted.tlb_miss_user, 0, "{label}: BASE has no TLB");
            assert_eq!(counted.interrupt, 0, "{label}: BASE takes no interrupts");
        }
        _ => assert_eq!(
            counted.walk_complete, counted.tlb_miss_user,
            "{label}: one completed walk per user-level TLB miss"
        ),
    }
}

#[test]
fn event_streams_reconcile_with_counters_across_all_paper_systems() {
    let mut rng = SplitMix64::new(0x0b5e_7ec0);
    for case in 0..12 {
        let wl = workload(&mut rng);
        let seed = rng.next_u64();
        for system in SYSTEMS {
            let config = SimConfig::paper_default(system);
            let trace = wl.build(seed).unwrap();
            let (report, sink) =
                simulate_with_sink(&config, trace, 5_000, 40_000, CountingSink::default()).unwrap();
            check_reconciles(&sink, &report, &format!("case {case} {system:?}/{}", wl.name));
        }
    }
}

#[test]
fn instrumentation_does_not_perturb_any_paper_system() {
    let mut rng = SplitMix64::new(0xfade);
    for case in 0..4 {
        let wl = workload(&mut rng);
        let seed = rng.next_u64();
        for system in SYSTEMS {
            let config = SimConfig::paper_default(system);
            let plain = simulate(&config, wl.build(seed).unwrap(), 5_000, 30_000).unwrap();
            let (instr, _) = simulate_with_sink(
                &config,
                wl.build(seed).unwrap(),
                5_000,
                30_000,
                CountingSink::default(),
            )
            .unwrap();
            assert_eq!(
                plain.counts, instr.counts,
                "case {case} {system:?}/{}: sink must not perturb counts",
                wl.name
            );
            assert_eq!(plain.itlb, instr.itlb);
            assert_eq!(plain.dtlb, instr.dtlb);
        }
    }
}

#[test]
fn reset_at_warmup_boundary_discards_warmup_events() {
    // The counters reconcile only because the sink is reset when the
    // counters are: a run with warmup must report the same event counts
    // as measuring the same instruction window directly.
    let config = SimConfig::paper_default(SystemKind::Mach);
    let (report, sink) = simulate_with_sink(
        &config,
        presets::gcc_spec().build(7).unwrap(),
        25_000,
        50_000,
        CountingSink::default(),
    )
    .unwrap();
    check_reconciles(&sink, &report, "warmup boundary");
    assert!(sink.tlb_miss_user > 0, "gcc on MACH must miss the TLB");
}
