//! End-to-end result integrity: a fleet backend that *lies* — honest
//! simulation, then a one-ulp payload perturbation signed with a
//! perfectly valid attestation — must be caught by audit sampling or
//! divergence quorum, quarantined with eviction reason `integrity`, and
//! the merged CSV and journal must still come out byte-identical to an
//! honest single-node `--jobs 1` run. Plus: the hex64 codec the
//! attestations ride on, and the stale-binary resume refusal.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Duration;

use vm_experiments::explore::ExploreRun;
use vm_explore::{
    result_to_value, run_header, run_sweep_hardened, Axis, ExecConfig, HardenPolicy, PointResult,
};
use vm_fleet::{fleet_plan, run_fleet, Backend, EvictPolicy, FleetOptions, FleetPlan};
use vm_harden::{ChaosPlan, Journal, JournalEntry, JournalWriter, PointOutcome, SharedBuf};
use vm_obs::{Event, EvictReason, NopSink, RecordingSink, Reporter};
use vm_serve::{Client, ServeConfig, Server};

const ULTRIX: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n";

/// The 24-point acceptance grid from docs/robustness.md.
fn grid() -> (Vec<String>, Vec<Axis>, ExecConfig) {
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=4K,8K,16K").unwrap(),
        Axis::parse("mmu.table=two-tier,hashed").unwrap(),
    ];
    (vec![ULTRIX.to_owned()], axes, ExecConfig { warmup: 1_000, measure: 5_000, jobs: 1 })
}

/// The honest single-node `--jobs 1` reference run, with its journal.
fn single_node_reference(fplan: &FleetPlan, exec: &ExecConfig) -> (Vec<PointResult>, Vec<u8>) {
    let buf = SharedBuf::new();
    let writer = Mutex::new(JournalWriter::boxed(buf.clone()));
    writer.lock().unwrap().header(&run_header(&fplan.plan, exec));
    let outcome = run_sweep_hardened(
        &fplan.plan,
        exec,
        &HardenPolicy::default(),
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        Some(&writer),
    );
    writer.into_inner().unwrap().finish().unwrap();
    let (results, failures) = outcome.into_parts();
    assert!(failures.is_empty(), "the reference grid is known-good: {failures:?}");
    (results, buf.contents())
}

#[test]
fn a_lying_backend_is_quarantined_and_the_merge_stays_bit_identical() {
    static NEVER: AtomicBool = AtomicBool::new(false);
    let (specs, axes, exec) = grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    assert_eq!(fplan.plan.points.len(), 24);
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let reference_csv =
        ExploreRun::from_results(reference.clone(), Vec::new(), Vec::new(), &axes).to_csv();

    // Two honest daemons plus one Byzantine one: every fleet point-job
    // has local index 0, so `lie@0` makes backend 2 perturb *every*
    // result one ulp after simulating honestly — and sign the lie. No
    // attestation check can catch it; only comparison against an
    // un-implicated backend can.
    let mut servers = Vec::new();
    for lying in [false, false, true] {
        let config = ServeConfig {
            workers: 1,
            queue_cap: 8,
            degrade_depth: 9,
            chaos: if lying { ChaosPlan::parse("lie@0", 7).unwrap() } else { ChaosPlan::default() },
            shutdown: Some(&NEVER),
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve());
        servers.push((addr, handle));
    }
    let backends: Vec<Backend> = servers
        .iter()
        .enumerate()
        .map(|(id, (addr, _))| Backend::from_addr(id, addr.to_string()))
        .collect();

    let opts = FleetOptions {
        // Audit every completed point on a second backend. No hedging,
        // so every divergence comes from the audit path and the test
        // exercises audit → contest → quorum deterministically.
        audit_rate: 1.0,
        hedge_after: None,
        evict: EvictPolicy { max_failures: 3, window: Duration::from_secs(60) },
        probation: None,
        ..FleetOptions::default()
    };
    let mut sink = RecordingSink::new();
    let outcome = run_fleet(
        &fplan,
        &exec,
        backends,
        &opts,
        &Reporter::silent(),
        &mut sink,
        None,
        vm_fleet::FleetSession::default(),
    )
    .unwrap();

    for (addr, handle) in servers {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.request(&vm_obs::json::Value::obj([("req", "drain".into())]));
        }
        let _ = handle.join();
    }

    // The liar is caught, quarantined, and evicted for integrity — not
    // health, not transport: its socket was fine the whole time.
    assert_eq!(outcome.evicted, vec![2], "the lying backend must be evicted");
    assert_eq!(outcome.healthy, 2);
    assert_eq!(
        sink.count(|e| matches!(e, Event::BackendQuarantined { backend: 2, .. })),
        1,
        "quarantine is announced exactly once"
    );
    assert_eq!(
        sink.count(|e| matches!(
            e,
            Event::BackendEvicted { backend: 2, reason: EvictReason::Integrity, .. }
        )),
        1,
        "the eviction must name integrity as the reason"
    );
    assert!(
        sink.count(|e| matches!(e, Event::AuditFailed { .. })) >= 1,
        "at least one audit caught the lie"
    );
    assert!(
        sink.count(|e| matches!(e, Event::AuditPassed { .. })) >= 1,
        "honest points must pass their audits"
    );
    let quarantined: Vec<usize> =
        outcome.roster.iter().filter(|r| r.quarantined).map(|r| r.slot).collect();
    assert_eq!(quarantined, vec![2], "the roster must flag the quarantined slot");

    // The scientific contract survives the Byzantine member: bit-exact
    // results, journal, and CSV — as if the liar had never joined.
    assert!(outcome.merged.failures.is_empty(), "every point lands on an honest backend");
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(
        outcome.merged.journal, reference_journal,
        "a quarantine mid-run must leave no trace in the journal"
    );
    let merged_csv =
        ExploreRun::from_results(outcome.merged.results, Vec::new(), Vec::new(), &axes).to_csv();
    assert_eq!(merged_csv, reference_csv, "the exported CSV must not drift either");
}

/// Locates the `repro` binary next to the test executable, building it
/// (same profile) when the harness compiled only the test targets.
fn repro_bin() -> PathBuf {
    let mut dir = std::env::current_exe().unwrap();
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("repro{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        return bin;
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "-p", "vm-experiments", "--bin", "repro"])
        .status()
        .expect("spawn cargo build for the repro binary");
    assert!(status.success(), "cargo build -p vm-experiments --bin repro failed");
    bin
}

/// A fleet journal whose header fingerprint matches the plan but whose
/// payload attestations were signed for a different context — the
/// stale-binary restart. `repro fleet --resume` must refuse to seed
/// from it, loudly, with the `[integrity]` marker and the point index.
#[test]
fn resume_refuses_a_journal_signed_by_a_different_context() {
    let specs = vec![ULTRIX.to_owned()];
    let axes = vec![Axis::parse("tlb.entries=16,32").unwrap()];
    // `--quick` scale, so the CLI invocation below derives the same
    // header fingerprint and the refusal is attestation, not scale.
    let exec = ExecConfig { warmup: 200_000, measure: 500_000, jobs: 1 };
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let outcome = run_sweep_hardened(
        &fplan.plan,
        &exec,
        &HardenPolicy::default(),
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        None,
    );
    let (mut results, failures) = outcome.into_parts();
    assert!(failures.is_empty());

    // Re-seal every payload for a perturbed context: internally
    // consistent (verify_sealed passes), but not the context this plan
    // derives — exactly what a restart under a changed simulator
    // produces. The header fingerprint (labels + run lengths) still
    // matches, so only the attestation check can refuse.
    for r in &mut results {
        let stale_ctx = r.ctx ^ 1;
        vm_explore::attest::seal(r, stale_ctx);
        assert!(vm_explore::verify_sealed(r).is_ok(), "the stale signature is self-consistent");
    }
    let buf = SharedBuf::new();
    let mut writer = JournalWriter::boxed(buf.clone());
    writer.header(&run_header(&fplan.plan, &exec));
    for r in &results {
        let outcome: PointOutcome<PointResult> = PointOutcome::Completed(r.clone());
        writer.record(&JournalEntry::from_outcome(
            r.index as u64,
            &r.label,
            &outcome,
            1,
            result_to_value,
        ));
    }
    writer.finish().unwrap();

    // Library level: seeding names the point and carries [integrity].
    let text = String::from_utf8(buf.contents()).unwrap();
    let journal = Journal::parse(&text).unwrap();
    let err = vm_explore::seeded_from_journal(&journal, &fplan.plan, &exec).unwrap_err();
    assert!(err.contains("[integrity]"), "{err}");
    assert!(err.contains("context mismatch"), "{err}");
    assert!(err.contains("point 0"), "{err}");

    // CLI level: `repro fleet --resume` refuses before dispatching
    // anything (no backend is ever contacted).
    let dir = std::env::temp_dir().join(format!("vm-integrity-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("system.toml");
    std::fs::write(&spec_path, ULTRIX).unwrap();
    let journal_path = dir.join("fleet.journal");
    std::fs::write(&journal_path, &text).unwrap();
    let output = Command::new(repro_bin())
        .arg("fleet")
        .arg(&spec_path)
        .args(["--sweep", "tlb.entries=16,32", "--spawn", "1", "--quick", "-q"])
        .arg("--fleet-journal")
        .arg(&journal_path)
        .arg("--resume")
        .output()
        .unwrap();
    assert!(!output.status.success(), "resume from a stale journal must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[integrity]"), "{stderr}");
    assert!(stderr.contains("context mismatch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hex64_codec_round_trips_and_pins_its_rejection_error_text() {
    // Property fuzz: every u64 round-trips through the canonical
    // rendering, on both codecs (journal payloads and the serve wire).
    let mut rng = vm_types::SplitMix64::new(0x1e9_7e57);
    for _ in 0..4_000 {
        let v = rng.next_u64();
        let rendered = vm_serve::hex64(v);
        assert_eq!(rendered, format!("{v:016x}"), "canonical rendering is lowercase, zero-padded");
        assert_eq!(vm_serve::parse_hex64(&rendered), Some(v));
    }

    // Rejections, exercised through the attestation decoder so the
    // exact error text operators will grep for is pinned here.
    let mut honest = PointResult {
        index: 0,
        label: "L".to_owned(),
        settings: Vec::new(),
        system: "ULTRIX".to_owned(),
        workload: "gcc".to_owned(),
        vmcpi: 0.25,
        interrupt_cpi: 0.125,
        mcpi: 1.5,
        vm_total: 0.375,
        tlb_area_bytes: 512,
        tlb_miss_ratio: None,
        user_instrs: 1_000,
        ctx: 0,
        att: 0,
    };
    vm_explore::attest::seal(&mut honest, 0xfeed);
    let good = result_to_value(&honest);
    assert_eq!(vm_explore::result_from_value(&good).unwrap(), honest);
    for (mutant, why) in [
        ("00ff", "too short"),
        ("00000000000000000000", "longer than 16 digits"),
        ("00000000000000FF", "uppercase is non-canonical"),
        ("0000000000000 ff", "embedded whitespace"),
    ] {
        let mut v = good.clone();
        let vm_obs::json::Value::Obj(pairs) = &mut v else { panic!("payload is an object") };
        for (k, field) in pairs.iter_mut() {
            if k == "att" {
                *field = vm_obs::json::Value::Str(mutant.to_owned());
            }
        }
        let err = vm_explore::result_from_value(&v).unwrap_err();
        assert_eq!(
            err, "payload field `att` not a canonical hex64 string",
            "{why}: the rejection text is load-bearing"
        );
    }

    // The serve wire shares the strictness — and its own pinned text.
    let line = "{\"req\":\"upload-begin\",\"name\":\"t\",\"bytes\":8,\"fnv\":\"00000000000000FF\"}";
    let err = vm_serve::parse_request(line).unwrap_err();
    assert_eq!(err.code, 400);
    assert_eq!(err.message, "`upload-begin` needs an `fnv` checksum (16 hex digits)");
}
