//! Chaos harness integration: injected faults stay confined to their
//! target points, surviving points are bit-identical to a clean run,
//! and none of it depends on the worker count.

use std::collections::BTreeMap;

use vm_core::SystemKind;
use vm_explore::{
    run_sweep, run_sweep_hardened, Axis, ExecConfig, HardenPolicy, SweepOutcome, SweepPlan,
    SystemSpec,
};
use vm_harden::{ChaosPlan, FailureKind, PointOutcome};
use vm_obs::{NopSink, Reporter};

/// 4 TLB sizes × 3 L1 sizes × 2 table walks = 24 points.
fn plan_24() -> SweepPlan {
    let base = SystemSpec::for_kind(SystemKind::Ultrix);
    let axes = [
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=8K,16K,32K").unwrap(),
        Axis::parse("mmu.table=two-tier,hashed").unwrap(),
    ];
    SweepPlan::expand(&base, &axes).unwrap()
}

fn exec(jobs: usize) -> ExecConfig {
    ExecConfig { warmup: 2_000, measure: 10_000, jobs }
}

/// Three panics and two runaway traces (degraded to timeouts by the
/// per-point walk-cycle budget), spread across the sweep.
const FAULTED: [usize; 5] = [1, 5, 9, 13, 17];

fn chaos_policy() -> HardenPolicy {
    HardenPolicy {
        point_budget: Some(150_000),
        chaos: ChaosPlan::parse("panic@1,panic@5,panic@9,runaway@13,runaway@17", 42).unwrap(),
        ..HardenPolicy::default()
    }
}

fn run_chaos(jobs: usize) -> SweepOutcome {
    run_sweep_hardened(
        &plan_24(),
        &exec(jobs),
        &chaos_policy(),
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        None,
    )
}

#[test]
fn five_injected_faults_fail_exactly_five_points() {
    let plan = plan_24();
    assert_eq!(plan.points.len(), 24, "the grid must expand to 24 runnable points");

    let out = run_chaos(4);
    assert_eq!(out.outcomes.len(), 24);
    assert_eq!(out.failed_count(), 5);

    for ix in [1, 5, 9] {
        let e = out.outcomes[ix].error().expect("panic point must fail");
        assert_eq!(e.kind, FailureKind::Panic, "point {ix}: {e}");
        assert!(e.detail.contains("injected panic"), "point {ix}: {e}");
    }
    for ix in [13, 17] {
        assert!(
            matches!(out.outcomes[ix], PointOutcome::TimedOut(_)),
            "runaway point {ix} must degrade to a timeout, got {:?}",
            out.outcomes[ix]
        );
        let e = out.outcomes[ix].error().unwrap();
        assert_eq!(e.kind, FailureKind::Timeout);
    }
}

#[test]
fn survivors_are_bit_identical_to_a_clean_run() {
    let plan = plan_24();
    let out = run_chaos(4);
    let clean = run_sweep(&plan, &exec(1), &Reporter::silent(), &mut NopSink);
    assert_eq!(clean.len(), 24);
    for (ix, reference) in clean.iter().enumerate() {
        if FAULTED.contains(&ix) {
            assert!(out.outcomes[ix].is_failure(), "point {ix} must have failed");
        } else {
            // `PointResult` holds f64 CPI figures; equality here is
            // bit-exactness, the property resume relies on.
            assert_eq!(
                out.outcomes[ix].completed(),
                Some(reference),
                "surviving point {ix} must match the clean run exactly"
            );
        }
    }
}

#[test]
fn chaos_outcomes_do_not_depend_on_worker_count() {
    let one = run_chaos(1);
    let four = run_chaos(4);
    let eight = run_chaos(8);
    assert_eq!(one.outcomes, four.outcomes);
    assert_eq!(four.outcomes, eight.outcomes);
}

#[test]
fn injected_io_faults_fail_exactly_their_points() {
    let plan = plan_24();
    let chaos = ChaosPlan::parse("io@3,io@20", 7).unwrap();
    let out = run_sweep_hardened(
        &plan,
        &exec(2),
        &HardenPolicy { chaos, ..Default::default() },
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        None,
    );
    assert_eq!(out.failed_count(), 2);
    for e in out.failures() {
        assert_eq!(e.kind, FailureKind::Io);
        assert!(e.kind.is_transient());
    }
}
