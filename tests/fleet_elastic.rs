//! vm-fleet elasticity: membership may change mid-run — backends join
//! via the control channel, drain via `leave`, die and rejoin through
//! probation — and the coordinator itself may be killed and resumed
//! from its fleet journal. None of it may show in the science: every
//! path here must converge to results, CSV, and journal bytes identical
//! to a clean single-node `--jobs 1` run.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use vm_experiments::explore::ExploreRun;
use vm_explore::{
    run_header, run_sweep_hardened, seeded_from_journal, Axis, ExecConfig, HardenPolicy,
    PointResult,
};
use vm_fleet::{
    fleet_plan, run_fleet, Backend, ControlChannel, FleetOptions, FleetPlan, FleetSession,
};
use vm_harden::{Journal, JournalWriter, RetryPolicy, SharedBuf};
use vm_obs::json::Value;
use vm_obs::{Event, EvictReason, NopSink, RecordingSink, Reporter, Sink, Tee};
use vm_serve::{Client, ServeConfig, Server};

const ULTRIX: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n";

/// A grid big enough that membership changes land mid-run: 4 TLB sizes
/// x 3 L1 sizes x 2 table organizations, 24 points. Run length alone
/// keeps the run going: one backend takes about a second unoptimized.
fn wide_grid() -> (Vec<String>, Vec<Axis>, ExecConfig) {
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=4K,8K,16K").unwrap(),
        Axis::parse("mmu.table=two-tier,hashed").unwrap(),
    ];
    (vec![ULTRIX.to_owned()], axes, ExecConfig { warmup: 1_000, measure: 60_000, jobs: 1 })
}

/// The 8-point grid the truncation sweep can afford to re-run many
/// times.
fn small_grid() -> (Vec<String>, Vec<Axis>, ExecConfig) {
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=8K,16K").unwrap(),
    ];
    (vec![ULTRIX.to_owned()], axes, ExecConfig { warmup: 1_000, measure: 5_000, jobs: 1 })
}

/// Runs the whole grid single-node (`--jobs 1`) with a journal, exactly
/// as `repro explore --journal` does — the bit-identity reference.
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

fn csv_of(results: Vec<PointResult>, axes: &[Axis]) -> String {
    ExploreRun::from_results(results, Vec::new(), Vec::new(), axes).to_csv()
}

/// Binds one healthy in-process daemon that does not serve yet: a
/// client's connect succeeds, and its first request waits for
/// [`serve`].
fn bound_server() -> (std::net::SocketAddr, Server) {
    static NEVER: AtomicBool = AtomicBool::new(false);
    let config = ServeConfig {
        workers: 1,
        queue_cap: 8,
        degrade_depth: 9,
        shutdown: Some(&NEVER),
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap();
    (server.local_addr().unwrap(), server)
}

/// Serves a bound daemon on its own thread until it drains.
fn serve(server: Server) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = server.serve();
    })
}

/// Boots one healthy in-process daemon and returns its address plus the
/// serve-thread handle.
fn healthy_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let (addr, server) = bound_server();
    (addr, serve(server))
}

/// A sink that hands every event to the test thread, so a test acts
/// when the coordinator reports an event rather than after a guessed
/// delay.
struct Signal(mpsc::Sender<Event>);

impl Sink for Signal {
    fn emit(&mut self, _now: u64, ev: &Event) {
        let _ = self.0.send(*ev);
    }
}

/// Blocks until the coordinator emits an event matching `wanted`.
fn wait_for(events: &mpsc::Receiver<Event>, wanted: impl Fn(&Event) -> bool) {
    loop {
        let ev = events.recv_timeout(Duration::from_secs(60)).expect("the awaited event came");
        if wanted(&ev) {
            return;
        }
    }
}

fn drain(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.request(&Value::obj([("req", "drain".into())]));
    }
    let _ = handle.join();
}

/// Deterministic elastic options: no hedging, no probation, no
/// keepalive — each test turns on exactly the mechanism it probes.
fn quiet_opts() -> FleetOptions {
    FleetOptions { hedge_after: None, probation: None, keepalive: None, ..FleetOptions::default() }
}

#[test]
fn a_joined_backend_receives_only_pending_points() {
    let (specs, axes, exec) = wide_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let reference_csv = csv_of(reference.clone(), &axes);

    let (addr_a, handle_a) = healthy_server();
    let (addr_b, handle_b) = healthy_server();
    let control = ControlChannel::bind("127.0.0.1:0").unwrap();
    let control_addr = control.local_addr().unwrap();
    let journal_buf = SharedBuf::new();
    let session = FleetSession {
        journal: Some(JournalWriter::boxed(journal_buf.clone())),
        write_header: true,
        control: Some(control),
        ..FleetSession::default()
    };
    let opts = quiet_opts();
    let backends = vec![Backend::from_addr(0, addr_a.to_string())];

    let (outcome, join_resp) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            run_fleet(
                &fplan,
                &exec,
                backends,
                &opts,
                &Reporter::silent(),
                &mut RecordingSink::new(),
                None,
                session,
            )
            .unwrap()
        });
        // Join daemon B while the (single-backend) run is under way.
        let mut client = Client::connect(control_addr).unwrap();
        let resp = client
            .request(&Value::obj([("req", "join".into()), ("addr", addr_b.to_string().into())]))
            .unwrap();
        (run.join().unwrap(), resp)
    });
    drain(addr_a, handle_a);
    drain(addr_b, handle_b);

    assert_eq!(join_resp.get("ok"), Some(&Value::Bool(true)), "{join_resp}");
    assert_eq!(join_resp.get("slot").and_then(Value::as_u64), Some(1));

    // The property, read off the fleet journal (a valid serialization:
    // with hedging off each point's assign and done are written by the
    // same driver thread, in that order): the joined slot is never
    // assigned a point that already has a done entry — completed points
    // are never reassigned, only the pending set is re-shared.
    let text = journal_buf.text();
    let mut done: BTreeSet<u64> = BTreeSet::new();
    let mut joined_assigns = 0u64;
    for line in text.lines() {
        let v = vm_obs::json::parse(line).unwrap();
        match v.get("j").and_then(Value::as_str) {
            Some("assign") => {
                let point = v.get("point").and_then(Value::as_u64).unwrap();
                if v.get("backend").and_then(Value::as_u64) == Some(1) {
                    joined_assigns += 1;
                    assert!(
                        !done.contains(&point),
                        "joined slot was assigned already-completed point {point}"
                    );
                }
            }
            Some("point") if v.get("status").and_then(Value::as_str) == Some("done") => {
                done.insert(v.get("index").and_then(Value::as_u64).unwrap());
            }
            _ => {}
        }
    }
    assert!(joined_assigns >= 1, "the joined slot must actually receive work");
    assert_eq!(done.len(), fplan.plan.points.len());

    let row = &outcome.roster[1];
    assert!(row.joined, "roster must record the mid-run join");
    assert!(row.completed >= 1, "the joined slot must complete points");
    assert!(outcome.merged.failures.is_empty());
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(outcome.merged.journal, reference_journal, "a join mid-run must leave no trace");
    assert_eq!(csv_of(outcome.merged.results, &axes), reference_csv);
}

#[test]
fn the_fleet_journal_resumes_byte_identically_at_every_truncation() {
    let (specs, axes, exec) = small_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let total = fplan.plan.points.len();

    let (addr, handle) = healthy_server();
    // One uninterrupted journaled fleet run produces the "crashed
    // coordinator" artifact every truncation below is cut from.
    let journal_buf = SharedBuf::new();
    let outcome = run_fleet(
        &fplan,
        &exec,
        vec![Backend::from_addr(0, addr.to_string())],
        &quiet_opts(),
        &Reporter::silent(),
        &mut NopSink,
        None,
        FleetSession {
            journal: Some(JournalWriter::boxed(journal_buf.clone())),
            write_header: true,
            ..FleetSession::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.merged.journal, reference_journal);
    let full = journal_buf.text();
    let lines: Vec<&str> = full.lines().collect();
    // header + one assign and one done per point.
    assert_eq!(lines.len(), 1 + 2 * total, "unexpected fleet journal shape:\n{full}");

    // Each cut is written to a file and reopened with the shared call
    // `repro fleet --resume` makes.
    let dir = std::env::temp_dir().join(format!("vm-fleet-truncation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.journal");
    let reopen = |text: &str| {
        std::fs::write(&path, text).unwrap();
        let (journal, file) = Journal::reopen(&path).unwrap();
        (seeded_from_journal(&journal, &fplan.plan, &exec), file)
    };

    // Truncating before the header is not resumable — a crash that
    // early left nothing to vouch for the plan.
    assert!(reopen("").0.unwrap_err().contains("no run header"));

    // Every later cut resumes: seeded points are replayed, the rest are
    // re-dispatched, and the merge converges to the same bytes. A torn
    // copy of the next line (SIGKILL mid-`write`) must change nothing.
    for cut in 1..=lines.len() {
        for torn in [false, true] {
            let mut prefix = lines[..cut].join("\n");
            prefix.push('\n');
            if torn {
                match lines.get(cut) {
                    Some(next) => prefix.push_str(&next[..next.len() / 2]),
                    None => continue,
                }
            }
            let (seeded, file) = reopen(&prefix);
            let seeded = seeded.unwrap_or_else(|e| panic!("cut {cut} torn {torn}: {e}"));
            let expect_seeded = seeded.len();
            let outcome = run_fleet(
                &fplan,
                &exec,
                vec![Backend::from_addr(0, addr.to_string())],
                &quiet_opts(),
                &Reporter::silent(),
                &mut NopSink,
                None,
                FleetSession {
                    journal: Some(JournalWriter::boxed(file)),
                    write_header: false,
                    seeded,
                    control: None,
                },
            )
            .unwrap();
            assert_eq!(outcome.resumed, expect_seeded, "cut {cut} torn {torn}");
            assert!(outcome.merged.failures.is_empty(), "cut {cut} torn {torn}");
            assert_eq!(outcome.merged.results, reference, "cut {cut} torn {torn}: results drifted");
            assert_eq!(
                outcome.merged.journal, reference_journal,
                "cut {cut} torn {torn}: journal bytes drifted"
            );
            // The reopened journal plus this run's appended lines must
            // itself seed a complete resume: crash-resume composes. (The
            // reopen call trims a torn tail, so this run's first line
            // starts on a line of its own.)
            let stitched = Journal::load(&path)
                .and_then(|j| seeded_from_journal(&j, &fplan.plan, &exec))
                .unwrap_or_else(|e| panic!("cut {cut} torn {torn} stitched: {e}"));
            assert_eq!(stitched.len(), total, "cut {cut} torn {torn}: stitched journal");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    drain(addr, handle);
}

#[test]
fn an_evicted_backend_heals_through_probation_and_completes_points() {
    let (specs, axes, exec) = wide_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);

    // Slot 0's address is reserved but nobody listens yet: the health
    // gate evicts it immediately. Slot 1's daemon is bound but does not
    // serve until slot 0 has healed and completed a point, so its driver
    // waits in the health gate meanwhile.
    let reserved = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let (addr_b, server_b) = bound_server();
    let backends = vec![
        Backend::from_addr(0, reserved.to_string()),
        Backend::from_addr(1, addr_b.to_string()),
    ];
    let opts = FleetOptions {
        health_retry: RetryPolicy::NONE,
        probation: Some(Duration::from_millis(50)),
        probation_probes: 200,
        ..quiet_opts()
    };

    let mut sink = RecordingSink::new();
    let (tx, events) = mpsc::channel();
    let (outcome, healed, handle_b) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            run_fleet(
                &fplan,
                &exec,
                backends,
                &opts,
                &Reporter::silent(),
                &mut Tee(&mut sink, Signal(tx)),
                None,
                FleetSession::default(),
            )
            .unwrap()
        });
        // The backend "heals": once its probation starts, a daemon comes
        // up on the reserved port for the probation probe to find.
        wait_for(&events, |e| matches!(e, Event::BackendProbation { backend: 0, .. }));
        static NEVER: AtomicBool = AtomicBool::new(false);
        let config = ServeConfig {
            addr: reserved.to_string(),
            workers: 1,
            queue_cap: 8,
            degrade_depth: 9,
            shutdown: Some(&NEVER),
            ..ServeConfig::default()
        };
        let healed_handle = serve(Server::start(config).unwrap());
        // Slot 1 joins in only after the rejoined slot's first clean
        // completion, so the two cannot race for the remaining points.
        wait_for(&events, |e| matches!(e, Event::BackendRecovered { backend: 0, .. }));
        let handle_b = serve(server_b);
        (run.join().unwrap(), healed_handle, handle_b)
    });
    drain(addr_b, handle_b);
    drain(reserved, healed);

    assert_eq!(outcome.evicted, vec![0], "the dead slot is evicted exactly once");
    let row = &outcome.roster[0];
    assert_eq!(row.state, "active", "the healed slot must be back in rotation");
    assert!(row.completed >= 1, "the rejoined slot must complete at least one point");
    assert_eq!(
        sink.count(|e| matches!(
            e,
            Event::BackendEvicted { backend: 0, reason: EvictReason::Health, .. }
        )),
        1
    );
    assert!(
        sink.count(|e| matches!(e, Event::BackendProbation { backend: 0, .. })) >= 1,
        "eviction with a probation policy must announce the cool-down"
    );
    assert_eq!(sink.count(|e| matches!(e, Event::BackendRejoined { backend: 0, .. })), 1);
    assert_eq!(
        sink.count(|e| matches!(e, Event::BackendRecovered { backend: 0, .. })),
        1,
        "one clean completion must clear the reduced budget"
    );
    assert!(outcome.merged.failures.is_empty());
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(
        outcome.merged.journal, reference_journal,
        "a probation rejoin must leave no trace in the journal"
    );
}

#[test]
fn the_leave_verb_drains_a_slot_and_the_rest_converge() {
    let (specs, axes, exec) = wide_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let total = fplan.plan.points.len();

    let (addr_a, handle_a) = healthy_server();
    let (addr_b, handle_b) = healthy_server();
    let control = ControlChannel::bind("127.0.0.1:0").unwrap();
    let control_addr = control.local_addr().unwrap();
    let backends =
        vec![Backend::from_addr(0, addr_a.to_string()), Backend::from_addr(1, addr_b.to_string())];

    let mut sink = RecordingSink::new();
    let (outcome, responses) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            run_fleet(
                &fplan,
                &exec,
                backends,
                &quiet_opts(),
                &Reporter::silent(),
                &mut sink,
                None,
                FleetSession { control: Some(control), ..FleetSession::default() },
            )
            .unwrap()
        });
        let rpc = |req: Value| Client::connect(control_addr).unwrap().request(&req).unwrap();
        let leave = rpc(Value::obj([("req", "leave".into()), ("slot", 0u64.into())]));
        let again = rpc(Value::obj([("req", "leave".into()), ("slot", 0u64.into())]));
        let bogus = rpc(Value::obj([("req", "leave".into()), ("slot", 9u64.into())]));
        let roster = rpc(Value::obj([("req", "roster".into())]));
        (run.join().unwrap(), (leave, again, bogus, roster))
    });
    drain(addr_a, handle_a);
    drain(addr_b, handle_b);

    let (leave, again, bogus, roster) = responses;
    assert_eq!(leave.get("ok"), Some(&Value::Bool(true)), "{leave}");
    assert_eq!(leave.get("state").and_then(Value::as_str), Some("left"));
    assert_eq!(again.get("ok"), Some(&Value::Bool(false)), "a second leave must refuse: {again}");
    assert_eq!(again.get("code").and_then(Value::as_u64), Some(409));
    assert_eq!(bogus.get("code").and_then(Value::as_u64), Some(409), "{bogus}");
    let rows = roster.get("slots").and_then(Value::as_array).unwrap();
    assert_eq!(rows[0].get("state").and_then(Value::as_str), Some("left"));

    assert_eq!(outcome.evicted, vec![0]);
    assert_eq!(outcome.roster[0].state, "left");
    assert_eq!(outcome.roster[1].state, "active");
    assert_eq!(
        outcome.roster.iter().map(|r| r.completed).sum::<u64>(),
        total as u64,
        "every point is completed exactly once across the roster"
    );
    assert_eq!(
        sink.count(|e| matches!(
            e,
            Event::BackendEvicted { backend: 0, failures: 0, reason: EvictReason::Left }
        )),
        1,
        "an operator drain is an eviction with reason `left`"
    );
    assert!(outcome.merged.failures.is_empty());
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(outcome.merged.journal, reference_journal, "a drain mid-run must leave no trace");
}
