//! Self-tests of the benchmark's own machinery: metric names, the tail
//! percentile picker, span self time, failure accounting, and the
//! results-fingerprint check.

use std::path::Path;

use vm_core::SystemKind;
use vm_explore::{Axis, ExecConfig, SweepPlan, SystemSpec};
use vm_obs::json::{self, Value};
use vm_obs::{NopSink, Reporter};
use vm_perfbench::bench::WORKLOADS;
use vm_perfbench::fp::{self, Records};
use vm_perfbench::metrics::{self, tail_percentile, Admission, Tally};
use vm_perfbench::spans::{aggregate, covered, self_by_crate, Span};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn metric_names_are_legal_and_match_benchmark_json() {
    let bench = benchmark_json();
    let e2e: Vec<(String, String)> =
        metrics::END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
    let layer: Vec<(String, String)> =
        metrics::per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
    assert_eq!(names_and_units(&bench, "end_to_end"), e2e);
    assert_eq!(names_and_units(&bench, "per_layer"), layer);
    let mut all: Vec<&str> = e2e.iter().chain(&layer).map(|(n, _)| n.as_str()).collect();
    for name in &all {
        assert!(metrics::valid_name(name), "illegal metric name {name}");
    }
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "metric names must be unique");
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|(w, _)| w));
    assert!(
        !metrics::valid_name("has space")
            && !metrics::valid_name(".lead")
            && !metrics::valid_name("")
    );
}

#[test]
fn percentile_picker_takes_the_highest_rank_with_ten_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail_percentile(&xs, 0.9, 10).unwrap();
    assert_eq!((t.value, t.samples, t.beyond), (90.0, 100, 10));
    assert_eq!(t.pct, 90.0);

    // Fifty samples: p90 would leave 5 beyond, so p80 (10 beyond) is used.
    let xs: Vec<f64> = (1..=50).rev().map(f64::from).collect();
    let t = tail_percentile(&xs, 0.9, 10).unwrap();
    assert_eq!((t.value, t.samples, t.beyond), (40.0, 50, 10));
    assert_eq!(t.pct, 80.0);

    // Too few samples for ten beyond the median: the median, and the
    // count says so.
    let xs: Vec<f64> = (1..=15).map(f64::from).collect();
    let t = tail_percentile(&xs, 0.9, 10).unwrap();
    assert_eq!((t.value, t.pct, t.beyond), (8.0, 50.0, 7));
    // Two samples: the same median the p50 metric reports, never below it.
    let t = tail_percentile(&[3.0, 1.0], 0.9, 10).unwrap();
    assert_eq!((t.value, t.samples), (2.0, 2));
    assert!(tail_percentile(&[], 0.9, 10).is_none());
}

fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
    Span { id, parent, trace: 1, name: name.to_owned(), start, end }
}

#[test]
fn self_time_merges_overlapping_children() {
    let mut iv = vec![(30, 60), (10, 40), (80, 90), (95, 130)];
    // [10,60] + [80,90] + [95,100] once each, clipped to the parent.
    assert_eq!(covered(0, 100, &mut iv), 65);
    let spans = vec![
        span(1, 0, "explore.sweep", 0, 100),
        span(2, 1, "explore.point", 10, 40),
        span(3, 1, "explore.point", 30, 60),
        span(4, 2, "harden.journal_append", 35, 40),
        span(5, 1, "explore.point", 80, 90),
    ];
    let stats = aggregate(&spans);
    // Points cover [10,60] and [80,90] of the sweep: 60 of its 100.
    assert_eq!(stats["explore.sweep"].self_ns, 40);
    assert_eq!(stats["explore.sweep"].total, 100);
    assert_eq!(stats["explore.point"].count, 3);
    // The first point loses its journal append child; the others are leaves.
    assert_eq!(stats["explore.point"].self_ns, 25 + 30 + 10);
    let by_crate = self_by_crate(&stats);
    assert_eq!(by_crate["explore"], 40 + 65);
    assert_eq!(by_crate["harden"], 5);
}

#[test]
fn failed_frac_counts_shed_and_refused_jobs() {
    let responses = [
        r#"{"ok":true,"code":200,"job":7,"points":1}"#,
        r#"{"ok":false,"code":503,"shed":true,"error":"queue full (8 queued)"}"#,
        r#"{"ok":false,"code":400,"error":"bad spec"}"#,
        r#"{"ok":false,"code":413,"error":"request too large"}"#,
        r#"{"ok":true,"code":200,"job":8,"points":1}"#,
    ];
    let mut tally = Tally::default();
    let kinds: Vec<Admission> =
        responses.iter().map(|r| Admission::of(&json::parse(r).unwrap())).collect();
    for k in &kinds {
        k.count(&mut tally);
    }
    assert_eq!(kinds[0], Admission::Admitted(7));
    assert_eq!(kinds[1], Admission::Shed);
    assert_eq!(kinds[2], Admission::Refused(400));
    assert_eq!((tally.attempted, tally.shed, tally.refused), (5, 1, 2));
    assert_eq!(tally.failed_frac(), 3.0 / 5.0);
    // An admitted job that then fails counts too.
    tally.failed += 1;
    assert_eq!(tally.failed_frac(), 4.0 / 5.0);
    tally.fail_all();
    assert_eq!(tally.failed_frac(), 1.0);
}

#[test]
fn fingerprint_check_catches_a_one_ulp_change() {
    let base = SystemSpec::for_kind(SystemKind::Ultrix);
    let plan = SweepPlan::expand(&base, &[Axis::parse("tlb.entries=32,64").unwrap()]).unwrap();
    let exec = ExecConfig { warmup: 2_000, measure: 10_000, jobs: 1 };
    let results = vm_explore::run_sweep(&plan, &exec, &Reporter::silent(), &mut NopSink);
    let mut records = Records::default();
    records.insert("sweep-replay", 3, fp::of_results(&results));
    let reparsed = Records::parse(&records.render()).unwrap();
    assert_eq!(reparsed, records);
    reparsed.check("sweep-replay", 3, fp::of_results(&results)).unwrap();

    let mut tampered = results.clone();
    tampered[1].vmcpi = f64::from_bits(tampered[1].vmcpi.to_bits() ^ 1);
    let err = reparsed.check("sweep-replay", 3, fp::of_results(&tampered)).unwrap_err();
    assert!(err.contains("differs from the recorded"), "{err}");
    assert!(reparsed.check("sweep-replay", 4, fp::of_results(&results)).is_err());
}

#[test]
fn every_workload_and_variant_has_a_recorded_fingerprint() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fingerprints.txt");
    let records = Records::load(&path).unwrap();
    for (w, _) in WORKLOADS {
        let variants = if w == "paper-quick" { 1 } else { fp::VARIANTS };
        for v in 0..variants {
            assert!(records.check(w, v, 0).unwrap_err().contains("differs"), "{w} {v} unrecorded");
        }
    }
}
