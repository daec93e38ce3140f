//! The shared front end checked against its own per-geometry runs.
//!
//! One `MemorySystem` can feed several cache back ends from one trace
//! position, one pair of TLBs and one walker (`add_back_end`), and the
//! experiment runner steps jobs that replay one stream in lockstep. Both
//! must be exact: every back end's report must equal the report of a
//! system built around its caches alone, and every grouped `run_jobs`
//! outcome the outcome of simulating its job by itself. The groups are
//! drawn with SplitMix64 over TLB systems, TLB sizes, replacement
//! policies, protected slots, ASID modes over multiprogrammed traces,
//! flush intervals and 2-8 cache geometries, set-associative and unified
//! L2s included.

use jacob_mudge_vm::cache::{Associativity, HierarchyCounters};
use jacob_mudge_vm::core::SystemKind;
use jacob_mudge_vm::core::{simulate, AsidMode, MemorySystem, RawCounts, SimConfig, SimReport};
use jacob_mudge_vm::experiments::{run_jobs, Job, RunScale};
use jacob_mudge_vm::ptable::DisjunctWalker;
use jacob_mudge_vm::tlb::{Replacement, Tlb, TlbConfig, TlbCounters};
use jacob_mudge_vm::trace::{presets, InstrRecord, Multiprogram, WorkloadSpec};
use jacob_mudge_vm::types::SplitMix64;

const WARMUP: u64 = 4_000;
const MEASURE: u64 = 16_000;

/// The TLB systems whose walkers share a front end.
const SHARING: [SystemKind; 7] = [
    SystemKind::Ultrix,
    SystemKind::Mach,
    SystemKind::Intel,
    SystemKind::PaRisc,
    SystemKind::UltrixHw,
    SystemKind::Hybrid,
    SystemKind::InvertedHat,
];

/// Everything a report counts.
type Counted = (
    String,
    RawCounts,
    Option<TlbCounters>,
    Option<TlbCounters>,
    HierarchyCounters,
    HierarchyCounters,
    bool,
);

fn counted(r: &SimReport) -> Counted {
    (r.system.clone(), r.counts, r.itlb, r.dtlb, r.icache, r.dcache, r.unified_l2)
}

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    xs[rng.next_below(xs.len() as u64) as usize]
}

/// A random cache geometry over `config`'s front end, small enough that
/// capacity misses differ between draws.
fn with_random_caches(rng: &mut SplitMix64, config: SimConfig) -> SimConfig {
    let l1_line = pick(rng, &[16, 32, 64]);
    let l2_line = pick(rng, &[16, 32, 64, 128]);
    SimConfig {
        l1_bytes: pick(rng, &[1 << 10, 2 << 10, 4 << 10, 16 << 10]),
        l1_line,
        l2_bytes: pick(rng, &[8 << 10, 32 << 10, 128 << 10]),
        l2_line,
        associativity: pick(
            rng,
            &[Associativity::DirectMapped, Associativity::Ways(2), Associativity::Ways(4)],
        ),
        unified_l2: rng.next_below(3) == 0,
        ..config
    }
}

/// A random TLB front end: system, TLB size, policy, protected slots,
/// ASID mode and flush interval.
fn random_front_end(rng: &mut SplitMix64) -> SimConfig {
    let mut config = SimConfig::paper_default(pick(rng, &SHARING));
    config.tlb_entries = pick(rng, &[8, 16, 32, 128]);
    config.tlb_replacement = pick(rng, &[Replacement::Random, Replacement::Lru, Replacement::Fifo]);
    config.tlb_protected = match rng.next_below(3) {
        0 => None,
        _ => Some(rng.next_below(config.tlb_entries as u64) as usize),
    };
    config.asid_mode = pick(rng, &[AsidMode::Tagged, AsidMode::Untagged]);
    config.flush_tlb_every = pick(rng, &[None, Some(1_500), Some(7_000)]);
    config.seed = rng.next_u64();
    config
}

/// A multiprogrammed mix of two or three small workloads.
fn random_trace(rng: &mut SplitMix64) -> Vec<InstrRecord> {
    let pool = [presets::gcc_spec(), presets::ijpeg_spec(), presets::compress_spec()];
    let n = 2 + rng.next_below(2) as usize;
    let mix: Vec<WorkloadSpec> = (0..n).map(|_| pool[rng.next_below(3) as usize].clone()).collect();
    let quantum = pick(rng, &[700, 3_000]);
    let trace = Multiprogram::new(mix, quantum, rng.next_u64()).expect("presets are valid");
    trace.take((WARMUP + MEASURE) as usize).collect()
}

/// Runs `systems` the way the runner does: warm, reset, measure, over
/// one trace.
fn warm_and_measure(systems: &mut [MemorySystem], trace: &[InstrRecord]) {
    let warm = WARMUP as usize;
    for system in systems.iter_mut() {
        system.run(trace[..warm].iter().copied(), u64::MAX);
        system.reset_counters();
        system.run(trace[warm..].iter().copied(), u64::MAX);
    }
}

#[test]
fn every_back_end_reports_what_its_own_run_reports() {
    let mut rng = SplitMix64::new(0xfa70_u64);
    for group in 0..10 {
        let front = random_front_end(&mut rng);
        let geometries: Vec<SimConfig> =
            (0..2 + rng.next_below(7)).map(|_| with_random_caches(&mut rng, front)).collect();
        let trace = random_trace(&mut rng);

        let mut shared = geometries[0].build().expect("drawn configurations build");
        for g in &geometries[1..] {
            assert!(g.shares_front_end_with(&geometries[0]));
            let caches = g.build_caches().expect("drawn geometries build");
            assert!(shared.add_back_end(caches), "{} walkers share", front.system);
        }
        warm_and_measure(std::slice::from_mut(&mut shared), &trace);
        let reports = shared.reports();
        assert_eq!(reports.len(), geometries.len());
        assert_eq!(counted(&shared.report()), counted(&reports[0]));
        assert_eq!(shared.counts(), reports[0].counts);

        for (k, (g, report)) in geometries.iter().zip(&reports).enumerate() {
            let alone = simulate(g, trace.iter().copied(), WARMUP, MEASURE).expect("builds");
            assert_eq!(
                counted(report),
                counted(&alone),
                "group {group}, back end {k} of {}: {g:?}",
                geometries.len()
            );
        }
    }
}

/// A TLB system walked by NOTLB's table, whose walk reads where the user
/// PTE load was satisfied: its front end depends on the caches, so a group
/// of them must give each geometry its own front end, as the runner does
/// when `add_back_end` refuses.
#[test]
fn a_walker_that_reads_the_pte_class_keeps_one_front_end_per_geometry() {
    let mut rng = SplitMix64::new(0xd15_u64);
    let tlb = |seed| Tlb::new(TlbConfig::new(16, 4, Replacement::Random).expect("valid"), seed);
    let build = |g: &SimConfig| {
        let caches = g.build_caches().expect("drawn geometries build");
        MemorySystem::with_tlb_walker(
            "DISJUNCT",
            caches,
            tlb(1),
            tlb(2),
            Box::new(DisjunctWalker::new()),
        )
    };
    let base = SimConfig::paper_default(SystemKind::Ultrix);
    let geometries: Vec<SimConfig> = (0..6).map(|_| with_random_caches(&mut rng, base)).collect();
    let trace = random_trace(&mut rng);

    let mut fronts: Vec<(MemorySystem, Vec<usize>)> = Vec::new();
    for (k, g) in geometries.iter().enumerate() {
        if let Some((system, members)) = fronts.first_mut() {
            if system.add_back_end(g.build_caches().unwrap()) {
                members.push(k);
                continue;
            }
        }
        fronts.push((build(g), vec![k]));
    }
    let (mut systems, order): (Vec<MemorySystem>, Vec<Vec<usize>>) = fronts.into_iter().unzip();
    warm_and_measure(&mut systems, &trace);
    for (system, members) in systems.iter().zip(&order) {
        for (report, &k) in system.reports().iter().zip(members) {
            let mut alone = vec![build(&geometries[k])];
            warm_and_measure(&mut alone, &trace);
            assert_eq!(counted(report), counted(&alone[0].report()), "geometry {k}");
        }
    }
    // NOTLB and BASE have no front end to share.
    for kind in [SystemKind::NoTlb, SystemKind::Base] {
        let config = SimConfig::paper_default(kind);
        let mut system = config.build().unwrap();
        assert!(!system.add_back_end(config.build_caches().unwrap()), "{kind}");
        assert!(!config.shares_front_end_with(&config), "{kind}");
    }
}

/// A job list mixing streams, systems and geometries: TLB systems over
/// several geometries (sharing front ends), NOTLB and BASE jobs on the
/// same streams, one job with a different TLB, and jobs on other seeds.
/// vortex's streams span several lockstep groups, which share one
/// generator.
fn mixed_jobs(rng: &mut SplitMix64) -> Vec<Job> {
    let scale = RunScale { warmup: 3_000, measure: 12_000 };
    let mut jobs = Vec::new();
    let workloads = [presets::gcc_spec(), presets::ijpeg_spec(), presets::vortex_spec()];
    for (w, workload) in workloads.into_iter().enumerate() {
        for seed in [1, 2] {
            for kind in
                [SystemKind::Ultrix, SystemKind::PaRisc, SystemKind::NoTlb, SystemKind::Base]
            {
                for g in 0..3 {
                    let mut config = SimConfig::paper_default(kind);
                    config = with_random_caches(rng, config);
                    if g == 2 && kind.uses_tlb() {
                        config.tlb_entries = 32;
                    }
                    let mut job =
                        Job::new(format!("{w}/{seed}/{kind}/{g}"), config, workload.clone(), scale);
                    job.trace_seed = seed;
                    jobs.push(job);
                }
            }
        }
    }
    // Shuffle so that members of one stream are far apart in job order.
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    jobs
}

#[test]
fn grouped_run_jobs_equals_per_job_runs_in_job_order() {
    let mut rng = SplitMix64::new(0x600d_u64);
    let jobs = mixed_jobs(&mut rng);
    let alone: Vec<Counted> = jobs
        .iter()
        .map(|job| {
            let trace = job.workload.build(job.trace_seed).expect("presets are valid");
            counted(
                &simulate(&job.config, trace, job.scale.warmup, job.scale.measure).expect("builds"),
            )
        })
        .collect();
    for threads in [1, 2] {
        let outcomes = run_jobs(jobs.clone(), threads);
        assert_eq!(outcomes.len(), jobs.len());
        for ((outcome, job), want) in outcomes.iter().zip(&jobs).zip(&alone) {
            assert_eq!(outcome.job.label, job.label, "{threads} threads: job order");
            assert_eq!(&counted(&outcome.report), want, "{threads} threads: {}", job.label);
        }
    }
}
