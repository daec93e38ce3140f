//! Journal/resume integration: kill a journaled sweep after any prefix
//! of its appends, resume from the surviving text, and the merged
//! results are bit-identical to a run that was never interrupted.

use std::collections::BTreeMap;
use std::sync::Mutex;

use vm_core::SystemKind;
use vm_experiments::explore;
use vm_explore::{
    run_header, run_sweep_hardened, seeded_from_journal, Axis, ExecConfig, HardenPolicy,
    PointResult, SweepOutcome, SweepPlan, SystemSpec,
};
use vm_harden::{ChaosPlan, Journal, JournalWriter, SharedBuf};
use vm_obs::{NopSink, Reporter};

/// 4 TLB sizes × 3 L1 sizes = 12 points.
fn axes_12() -> Vec<Axis> {
    vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=8K,16K,32K").unwrap(),
    ]
}

fn plan_12() -> SweepPlan {
    SweepPlan::expand(&SystemSpec::for_kind(SystemKind::Ultrix), &axes_12()).unwrap()
}

const EXEC: ExecConfig = ExecConfig { warmup: 2_000, measure: 10_000, jobs: 3 };

/// Runs the sweep journaling into a [`SharedBuf`], returning the
/// outcome and the journal text as it would sit on disk.
fn journaled_run(
    plan: &SweepPlan,
    policy: &HardenPolicy,
    seeded: BTreeMap<usize, PointResult>,
) -> (SweepOutcome, String) {
    let buf = SharedBuf::new();
    let mut w = JournalWriter::boxed(buf.clone());
    if seeded.is_empty() {
        w.header(&run_header(plan, &EXEC));
    }
    let journal = Mutex::new(w);
    let out = run_sweep_hardened(
        plan,
        &EXEC,
        policy,
        seeded,
        &Reporter::silent(),
        &mut NopSink,
        Some(&journal),
    );
    journal.into_inner().unwrap().finish().expect("in-memory journal cannot fail");
    (out, buf.text())
}

#[test]
fn killed_after_any_prefix_resume_is_bit_identical() {
    let plan = plan_12();
    let policy = HardenPolicy::default();
    let (uninterrupted, full_text) = journaled_run(&plan, &policy, BTreeMap::new());
    assert!(uninterrupted.is_clean());

    let lines: Vec<&str> = full_text.lines().collect();
    assert_eq!(lines.len(), 13, "header + 12 point entries");
    let every_point: BTreeMap<usize, PointResult> = uninterrupted
        .outcomes
        .iter()
        .enumerate()
        .map(|(ix, o)| (ix, o.completed().unwrap().clone()))
        .collect();
    let dir = std::env::temp_dir().join(format!("vm-journal-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for k in [0usize, 3, 7, 12] {
        // Keep the header and the first k point appends, then a torn
        // final line — the on-disk shape of a kill mid-append.
        let mut survived: String = lines[..=k].iter().map(|l| format!("{l}\n")).collect();
        survived.push_str("{\"j\":\"point\",\"index\":9,\"labe");

        let journal = Journal::parse(&survived).expect("torn tail must parse");
        let seeded = seeded_from_journal(&journal, &plan, &EXEC).expect("journal matches plan");
        assert_eq!(seeded.len(), k, "k={k}: every surviving append seeds one point");

        let (resumed, resumed_text) = journaled_run(&plan, &policy, seeded);
        assert_eq!(resumed.resumed, k, "k={k}");
        assert_eq!(
            resumed.outcomes, uninterrupted.outcomes,
            "k={k}: merged results must be bit-identical to the uninterrupted run"
        );
        // The resumed journal holds exactly the re-run points.
        let appended = Journal::parse(&resumed_text).unwrap();
        assert_eq!(appended.entries.len(), 12 - k, "k={k}");

        // The same cut on disk, resumed in place as `repro explore
        // --resume` does: the file must then seed every point, bit-exact.
        let path = dir.join(format!("k{k}.jsonl"));
        std::fs::write(&path, &survived).unwrap();
        let cfg = explore::Config {
            bases: vec![SystemSpec::for_kind(SystemKind::Ultrix)],
            axes: axes_12(),
            exec: EXEC,
            resume: Some(path.clone()),
            ..explore::Config::default()
        };
        let run = explore::run(&cfg, false, &Reporter::silent()).expect("resume in place");
        assert_eq!(run.resumed, k, "k={k}");
        let on_disk = Journal::load(&path)
            .and_then(|j| seeded_from_journal(&j, &plan, &EXEC))
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(on_disk, every_point, "k={k}: the resumed file must seed every point");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_of_the_final_record_heals_or_rejects() {
    let plan = plan_12();
    let policy = HardenPolicy::default();
    let (uninterrupted, full_text) = journaled_run(&plan, &policy, BTreeMap::new());
    assert!(uninterrupted.is_clean());

    let lines: Vec<&str> = full_text.lines().collect();
    let (final_line, kept) = lines.split_last().unwrap();
    let prefix: String = kept.iter().map(|l| format!("{l}\n")).collect();

    // Cut the final record at *every* byte offset — the on-disk shapes a
    // kill can leave behind. Every shape must either heal (torn tail
    // ignored, missing points re-run, merged results bit-identical) or
    // reject with a clean error. Never a panic, and never a torn f64
    // smuggled into the seeded results.
    for cut in 0..=final_line.len() {
        let mut survived = prefix.clone();
        survived.push_str(&final_line[..cut]);
        let journal = match Journal::parse(&survived) {
            Ok(j) => j,
            Err(e) => {
                assert!(!e.is_empty(), "cut={cut}: rejection must carry a message");
                continue;
            }
        };
        let seeded = match seeded_from_journal(&journal, &plan, &EXEC) {
            Ok(s) => s,
            Err(e) => {
                assert!(!e.is_empty(), "cut={cut}: rejection must carry a message");
                continue;
            }
        };
        // A strict prefix of the final record is unbalanced JSON, so it
        // must be dropped as a torn tail; only the full record seeds 12.
        let expect = if cut == final_line.len() { 12 } else { 11 };
        assert_eq!(seeded.len(), expect, "cut={cut}");
        for (ix, r) in &seeded {
            assert_eq!(
                Some(r),
                uninterrupted.outcomes[*ix].completed(),
                "cut={cut}: seeded point {ix} must be byte-exact, never a torn merge"
            );
        }
        // Seeding integrity is checked at every byte; the (expensive)
        // full heal-run is sampled — its outcome depends only on the
        // seeded set, which the loop has already pinned down.
        if cut % 16 == 0 || cut == final_line.len() {
            let (resumed, _) = journaled_run(&plan, &policy, seeded);
            assert_eq!(resumed.resumed, expect, "cut={cut}");
            assert_eq!(
                resumed.outcomes, uninterrupted.outcomes,
                "cut={cut}: healed results must be bit-identical"
            );
        }
    }
}

#[test]
fn resume_rejects_a_journal_from_a_different_sweep() {
    let plan = plan_12();
    let (_, text) = journaled_run(&plan, &HardenPolicy::default(), BTreeMap::new());
    let journal = Journal::parse(&text).unwrap();

    let other = SweepPlan::expand(
        &SystemSpec::for_kind(SystemKind::Ultrix),
        &[Axis::parse("tlb.entries=16,32").unwrap()],
    )
    .unwrap();
    let err = seeded_from_journal(&journal, &other, &EXEC).unwrap_err();
    assert!(err.contains("does not match"), "{err}");

    // Same plan at a different scale is a different run, too.
    let rescaled = ExecConfig { measure: 20_000, ..EXEC };
    let err = seeded_from_journal(&journal, &plan, &rescaled).unwrap_err();
    assert!(err.contains("does not match"), "{err}");
}

#[test]
fn failed_points_are_rerun_on_resume_and_heal() {
    let plan = plan_12();

    // First pass: two points die (a panic and an unretried I/O fault);
    // the journal records them as failures.
    let chaos = HardenPolicy {
        chaos: ChaosPlan::parse("panic@2,io@5", 23).unwrap(),
        ..HardenPolicy::default()
    };
    let (first, text) = journaled_run(&plan, &chaos, BTreeMap::new());
    assert_eq!(first.failed_count(), 2);
    let journal = Journal::parse(&text).unwrap();
    assert_eq!(journal.entries.len(), 12, "failures are journaled as well");

    // Resume without the fault injection: only the failed points are
    // re-run, and the healed sweep equals a clean uninterrupted run.
    let seeded = seeded_from_journal(&journal, &plan, &EXEC).expect("journal matches plan");
    assert_eq!(seeded.len(), 10, "failed entries must not seed the resume");
    let (healed, _) = journaled_run(&plan, &HardenPolicy::default(), seeded);
    assert_eq!(healed.resumed, 10);
    assert!(healed.is_clean());

    let (clean, _) = journaled_run(&plan, &HardenPolicy::default(), BTreeMap::new());
    assert_eq!(healed.outcomes, clean.outcomes);
}
