//! `repro` — regenerate every table and figure of Jacob & Mudge
//! (ASPLOS 1998), and drive the sweeps, daemons and fleets built around
//! the simulator.
//!
//! `repro --help` lists the experiments and the verbs; `repro VERB
//! --help` lists a verb's flags. Both are rendered from [`VERBS`], the
//! table the parser reads argv against (see `cli.rs`). Results (tables,
//! claims, CSV) go to stdout; progress (headings, heartbeats, timings)
//! goes to stderr, gated by --verbosity.

mod cli;

use std::fs::File;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cli::{Args, VERBS};
use vm_core::cost::CostModel;
use vm_core::{SimConfig, SystemKind};
use vm_experiments::registry::{self, Settings};
use vm_experiments::{explore, telemetry};
use vm_experiments::{set_global_verbosity, Reporter, RunScale, Verbosity};
use vm_explore::{seeded_from_journal, Axis, ExecConfig, HardenPolicy, SweepPlan, SystemSpec};
use vm_fleet::{
    fleet_plan, run_fleet, Backend, ControlChannel, FleetOptions, FleetSession, WatchProxy,
};
use vm_harden::{Journal, JournalWriter};
use vm_obs::json::Value;
use vm_obs::JsonlSink;
use vm_serve::{EventReport, ServeConfig, Server, WatchHub};
use vm_supervise::{PoolConfig, WorkerCommand, WorkerPool};
use vm_trace::{presets, read_trace, InstrRecord, TraceStats};

/// Runs the entry point `argv` names; an error comes back as the line
/// to print.
fn repro(argv: &[String]) -> Result<(), String> {
    let (verb, rest) = match VERBS[1..].iter().find(|v| argv.first().is_some_and(|a| a == v.name)) {
        Some(verb) => (verb, &argv[1..]),
        None => (&VERBS[0], argv),
    };
    let run = || match verb.parse(rest)? {
        None => {
            print!("{}", verb.help());
            Ok(())
        }
        Some(args) => {
            if let Some(v) = args.verbosity()? {
                set_global_verbosity(v);
            }
            (verb.run)(&args)
        }
    };
    run().map_err(|e| format!("{}: {e}", verb.title()))
}

/// Writes one `--out`, `--events` or `--chrome-trace` file; an error
/// comes back as the line to print.
fn write_output(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Reporter::global().progress(format!("wrote {} ({} bytes)", path.display(), bytes.len()));
    Ok(())
}

/// Creates the `--out` directory.
fn create_out_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// The `run` verb: one custom simulation, full report.
fn run_one(a: &Args) -> Result<(), String> {
    let mut config = SimConfig::paper_default(SystemKind::Ultrix);
    let system = |v: &str| SystemKind::from_label(v).ok_or_else(|| format!("unknown system `{v}`"));
    config.system = a.get("--system", system)?.unwrap_or(config.system);
    config.l1_bytes = a.size("--l1")?.unwrap_or(config.l1_bytes);
    config.l1_line = a.num("--l1-line")?.unwrap_or(config.l1_line);
    config.l2_bytes = a.size("--l2")?.unwrap_or(config.l2_bytes);
    config.l2_line = a.num("--l2-line")?.unwrap_or(config.l2_line);
    config.tlb_entries = a.num("--tlb-entries")?.unwrap_or(config.tlb_entries);
    config.unified_l2 = a.has("--unified");
    let workload = a.workload()?.unwrap_or_else(presets::gcc_spec);
    let instrs: u64 = a.num("--instrs")?.unwrap_or(2_000_000);
    let seed: u64 = a.num("--seed")?.unwrap_or(42);
    let (events, chrome) = (a.path("--events"), a.path("--chrome-trace"));
    // Validate CLI-supplied geometry and workload up front so errors
    // surface as messages instead of telemetry-pass panics.
    config.build().map_err(|e| e.to_string())?;
    workload.build(seed).map_err(|e| e.to_string())?;
    let reporter = Reporter::global();
    let scale = RunScale { warmup: instrs / 4, measure: instrs };
    let tele = telemetry::run(
        &telemetry::Config::single(config, workload.clone(), seed, scale),
        events.is_some(),
        chrome.is_some(),
        &reporter,
    );
    let report = &tele.runs[0].report;
    let cost = CostModel::default();
    println!(
        "{} on {} — {} measured instructions (seed {seed})",
        config.system, workload.name, instrs
    );
    println!(
        "caches: {}K/{}B L1, {}K/{}B L2{}; TLBs: 2 x {} entries
",
        config.l1_bytes >> 10,
        config.l1_line,
        config.l2_bytes >> 10,
        config.l2_line,
        if config.unified_l2 { " (unified, 2x capacity)" } else { " (split)" },
        config.tlb_entries
    );
    let m = report.mcpi(&cost);
    println!(
        "MCPI  = {:.5}  (l1i {:.5}, l1d {:.5}, l2i {:.5}, l2d {:.5})",
        m.total(),
        m.l1i,
        m.l1d,
        m.l2i,
        m.l2d
    );
    let v = report.vmcpi(&cost);
    print!("VMCPI = {:.5}  (", v.total());
    let mut first = true;
    for (name, x) in v.components() {
        if x > 1e-6 {
            if !first {
                print!(", ");
            }
            print!("{name} {x:.5}");
            first = false;
        }
    }
    println!(")");
    for c in vm_core::cost::CostModel::INTERRUPT_COSTS {
        println!(
            "interrupt CPI @{c:>3} cycles = {:.5}",
            report.interrupt_cpi(&CostModel::paper(c))
        );
    }
    if let (Some(i), Some(d)) = (report.itlb, report.dtlb) {
        println!(
            "TLBs: I {} lookups / {:.5} miss ratio; D {} lookups / {:.5} miss ratio",
            i.lookups,
            i.miss_ratio(),
            d.lookups,
            d.miss_ratio()
        );
    }
    println!("total CPI @50-cycle interrupts = {:.4}", report.total_cpi(&cost));
    let s = &tele.runs[0].snapshot;
    let wc = s.walk_cycles.summary();
    let im = s.inter_miss.summary();
    println!(
        "walk latency (cycles): n={} p50={} p90={} p99={} max={}",
        wc.count, wc.p50, wc.p90, wc.p99, wc.max
    );
    println!(
        "handler footprint {:.2} memrefs/walk; inter-miss distance p50 = {} instrs",
        s.walk_memrefs.mean(),
        im.p50
    );
    for (path, bytes) in [(events, tele.events_jsonl), (chrome, tele.chrome_trace)] {
        if let (Some(path), Some(bytes)) = (path, bytes) {
            write_output(&path, &bytes)?;
        }
    }
    Ok(())
}

/// Collects spec files from a path argument: a `.toml` file itself, or
/// every `*.toml` directly inside a directory (sorted by name).
fn collect_specs(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let mut found = Vec::new();
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| format!("{}: {e}", path.display()))?.path();
            if p.extension().is_some_and(|x| x == "toml") {
                found.push(p);
            }
        }
        if found.is_empty() {
            return Err(format!("{} contains no .toml spec files", path.display()));
        }
        found.sort();
        out.extend(found);
        Ok(())
    } else if path.is_file() {
        out.push(path.to_path_buf());
        Ok(())
    } else {
        Err(format!("{}: no such file or directory", path.display()))
    }
}

/// The spec files and axes `explore` and `fleet` sweep: each spec
/// argument (a file, or a directory's `*.toml`) and each `--sweep`
/// axis, in the order given.
fn sweep_inputs(a: &Args) -> Result<(Vec<PathBuf>, Vec<Axis>), String> {
    let mut paths = Vec::new();
    for path in &a.positional {
        collect_specs(Path::new(path), &mut paths)?;
    }
    if paths.is_empty() {
        return Err("needs at least one spec file or directory (e.g. specs)".to_owned());
    }
    let axes = a.values("--sweep").map(Axis::parse).collect::<Result<_, _>>()?;
    Ok((paths, axes))
}

/// A sweep's run length (`--quick`/`--full`, else the default scale) on
/// `jobs` workers.
fn sweep_exec(a: &Args, jobs: usize) -> ExecConfig {
    let scale = a.scale().unwrap_or(RunScale::DEFAULT);
    ExecConfig { warmup: scale.warmup, measure: scale.measure, jobs }
}

/// Writes what `explore` and `fleet` export: the three CSVs under
/// `--out`, and `events` to `--events`.
fn write_sweep_outputs(
    a: &Args,
    run: &explore::ExploreRun,
    events: Option<&[u8]>,
) -> Result<(), String> {
    if let Some(dir) = a.path("--out") {
        create_out_dir(&dir)?;
        for (name, csv) in [
            ("explore", run.to_csv()),
            ("explore-frontier", run.frontier_to_csv()),
            ("explore-sensitivity", run.sensitivity_to_csv()),
        ] {
            write_output(&dir.join(format!("{name}.csv")), csv.as_bytes())?;
        }
    }
    if let (Some(path), Some(bytes)) = (a.path("--events"), events) {
        write_output(&path, bytes)?;
    }
    Ok(())
}

/// The `explore` verb: spec files in, sweep report out.
fn explore_cmd(a: &Args) -> Result<(), String> {
    let (paths, axes) = sweep_inputs(a)?;
    let exec = sweep_exec(a, a.num("--jobs")?.unwrap_or_else(parallelism));
    let mut harden =
        HardenPolicy { point_budget: a.num("--point-budget")?, ..HardenPolicy::default() };
    let (journal, resume) = (a.path("--journal"), a.path("--resume"));
    let isolated = a.get("--isolation", |v| match v {
        "unwind" => Ok(false),
        "process" => Ok(true),
        _ => Err(format!("`{v}` is not unwind|process")),
    })?;
    let isolated = isolated.unwrap_or(false);
    let check = a.has("--check");
    let mut bases = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let spec = SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if check {
            let config = spec.validate().map_err(|e| format!("{}: {e}", path.display()))?;
            let tlbs = if config.system.uses_tlb() {
                format!("{} entries x2 TLB", config.tlb_entries)
            } else {
                "no TLB".to_owned()
            };
            println!(
                "{}: ok — {} on {} ({tlbs}, L1 {}K/L2 {}K)",
                path.display(),
                config.system.label(),
                spec.workload_name(),
                config.l1_bytes >> 10,
                config.l2_bytes >> 10,
            );
        }
        bases.push(spec);
    }
    if check {
        // Axes still get a dry validation so `--check --sweep ...`
        // catches bad keys without simulating.
        if !axes.is_empty() {
            let (plan, _) = SweepPlan::expand_all(&bases, &axes)?;
            println!(
                "sweep: {} runnable point(s), {} skipped",
                plan.points.len(),
                plan.skipped.len()
            );
            for s in &plan.skipped {
                println!("  skipped {} — {}", s.label, s.reason);
            }
        }
        return Ok(());
    }
    harden.chaos = a.chaos(isolated)?;
    if isolated {
        let command = WorkerCommand::current_exe(&["worker"])
            .map_err(|e| format!("cannot resolve the worker executable: {e}"))?;
        let mut pool = PoolConfig::new(command);
        pool.workers = exec.jobs.max(1);
        harden.process = Some(Arc::new(WorkerPool::new(pool)));
    }
    if journal.is_some() && resume.is_some() {
        return Err("--journal and --resume are mutually exclusive (resume keeps \
                    appending to the journal it reads)"
            .to_owned());
    }
    let reporter = Reporter::global();
    let cfg = explore::Config { bases, axes, exec, harden, journal, resume };
    let run = explore::run(&cfg, a.has("--events"), &reporter)?;
    println!("{}", run.render());
    if !run.failures.is_empty() {
        reporter.progress(format!(
            "{} of {} point(s) failed (see report above{})",
            run.failures.len(),
            run.failures.len() + run.results.len(),
            if cfg.journal.is_some() || cfg.resume.is_some() {
                "; failures are journaled for --resume"
            } else {
                ""
            }
        ));
    }
    write_sweep_outputs(a, &run, run.events_jsonl.as_deref())
}

/// Set by the SIGTERM/SIGINT handler; the daemon's accept loop wakes
/// within 10 ms of it and treats it exactly like a `drain` request.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_signum: i32) {
    // A relaxed atomic store is async-signal-safe.
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Routes SIGTERM and SIGINT into [`SHUTDOWN`] so `repro serve` drains
/// gracefully instead of dying mid-job. The vm-serve crate itself stays
/// `forbid(unsafe_code)`; the binary owns the one `signal(2)` call.
fn install_shutdown_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: signal(2) with a handler that only stores to a static
        // atomic is async-signal-safe process setup, performed once
        // before the listener starts.
        unsafe {
            signal(SIGTERM, request_shutdown as *const () as usize);
            signal(SIGINT, request_shutdown as *const () as usize);
        }
    }
}

/// The daemon's configuration from `serve`'s flags. Limits are checked
/// here, at parse time: a daemon that boots and then sheds every job,
/// rejects every request or upload, or drops every watcher is a
/// misconfiguration, not a service.
fn serve_config(a: &Args) -> Result<ServeConfig, String> {
    let mut c = ServeConfig { shutdown: Some(&SHUTDOWN), ..ServeConfig::default() };
    c.addr = a.value("--addr").map_or(c.addr, str::to_owned);
    c.workers = a.num("--jobs")?.unwrap_or(c.workers);
    c.worker_processes = a.num("--workers")?.unwrap_or(c.worker_processes);
    c.queue_cap = a.bound("--queue")?.unwrap_or(c.queue_cap);
    c.degrade_depth = a.num("--degrade-depth")?.unwrap_or(c.degrade_depth);
    c.state_dir = a.path("--state-dir");
    c.resume = a.has("--resume");
    c.events = a.path("--events");
    c.max_request_bytes = a.bound("--max-request-bytes")?.unwrap_or(c.max_request_bytes);
    let ingest = &mut c.ingest;
    ingest.max_trace_bytes = a.size("--max-trace-bytes")?.unwrap_or(ingest.max_trace_bytes);
    ingest.max_conn_bytes = a.size("--conn-upload-quota")?.unwrap_or(ingest.max_conn_bytes);
    ingest.staging_watermark = a.size("--staging-watermark")?.unwrap_or(ingest.staging_watermark);
    ingest.partial_ttl =
        a.num("--upload-ttl-secs")?.map_or(ingest.partial_ttl, Duration::from_secs);
    // Serve-side chaos applies to every job's sweep: a fault that kills
    // the host process needs worker subprocesses to absorb it.
    c.chaos = a.chaos(c.worker_processes > 0)?;
    // `--port` rewrites the bind address's port, whichever order the
    // flags came in; `--port 0` is the fleet spawner's contract (bind
    // ephemeral, print the bound address on the first stdout line).
    if let Some(port) = a.num::<u16>("--port")? {
        let host = c.addr.rsplit_once(':').map_or("127.0.0.1", |(host, _)| host);
        c.addr = format!("{host}:{port}");
    }
    if c.resume && c.state_dir.is_none() {
        return Err("--resume needs --state-dir (that is where jobs persist)".to_owned());
    }
    Ok(c)
}

/// The `serve` verb: run the fault-tolerant simulation daemon until
/// drained (by request, SIGTERM, or SIGINT).
fn serve_cmd(a: &Args) -> Result<(), String> {
    let config = serve_config(a)?;
    install_shutdown_handler();
    let server = Server::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("no local address: {e}"))?;
    // CI and scripts scrape this exact line for the ephemeral port.
    println!("vm-serve listening on {addr}");
    std::io::stdout().flush().ok();
    let s = server.serve().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!(
        "vm-serve drained: {} admitted, {} done, {} failed, {} cancelled, {} shed, {} pending",
        s.admitted, s.done, s.failed_jobs, s.cancelled, s.shed, s.pending
    );
    if s.pending > 0 {
        eprintln!("restart with --state-dir ... --resume to finish the pending job(s)");
    }
    Ok(())
}

/// The `serve-stats` verb: fold daemon event streams (possibly spanning
/// several lifetimes) into a lifecycle report.
fn serve_stats_cmd(a: &Args) -> Result<(), String> {
    if a.positional.is_empty() {
        return Err("needs at least one events JSONL file".to_owned());
    }
    let mut text = String::new();
    for path in &a.positional {
        text.push_str(
            &std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?,
        );
        if !text.ends_with('\n') {
            text.push('\n');
        }
    }
    let report = EventReport::from_jsonl(&text)?;
    print!("{}", report.render());
    Ok(())
}

/// The `trace-export` verb: write a trace in the compact binary format
/// — the file `repro upload` ships to a daemon — synthesized from a
/// workload model or imported from a Dinero trace.
fn trace_export_cmd(a: &Args) -> Result<(), String> {
    let dinero = a.path("--dinero");
    let budget: Option<usize> = a.num("--max-parse-errors")?;
    let spec = a.workload()?;
    let seed: Option<u64> = a.num("--seed")?;
    let instrs: Option<u64> = a.bound("--instrs")?;
    let out = a.path("--out").ok_or("needs --out FILE (try --help)")?;
    let records: Box<dyn Iterator<Item = InstrRecord>> = match dinero {
        Some(din) if spec.is_none() && seed.is_none() && instrs.is_none() => {
            let (records, report) = import_dinero(&din, budget.unwrap_or(0))?;
            eprintln!("{report}");
            Box::new(records.into_iter())
        }
        Some(_) => {
            return Err("--dinero imports a trace; --workload, --seed and --instrs synthesize one"
                .to_owned())
        }
        None if budget.is_some() => return Err("--max-parse-errors needs --dinero".to_owned()),
        None => {
            let spec = spec.unwrap_or_else(presets::gcc_spec);
            let gen = spec
                .build(seed.unwrap_or(42))
                .map_err(|e| format!("cannot build `{}`: {e:?}", spec.name))?;
            Box::new(gen.take(instrs.unwrap_or(100_000) as usize))
        }
    };
    let file = File::create(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut writer = std::io::BufWriter::new(file);
    let records = vm_trace::write_trace(&mut writer, records)
        .map_err(|e| format!("cannot write {}: {e:?}", out.display()))?;
    writer.flush().map_err(|e| format!("cannot flush {}: {e}", out.display()))?;
    let bytes =
        std::fs::read(&out).map_err(|e| format!("cannot re-read {}: {e}", out.display()))?;
    println!(
        "wrote {} — {} record(s), {} bytes, fnv {}",
        out.display(),
        records,
        bytes.len(),
        vm_serve::proto::hex64(vm_trace::wire::fnv1a(&bytes))
    );
    Ok(())
}

/// Reads a Dinero trace, skipping at most `budget` malformed lines. The
/// records come back with the damage report for stderr: one line per
/// skipped line, then `skipped K of N line(s)`, which a clean trace
/// reports too (K = 0).
fn import_dinero(path: &Path, budget: usize) -> Result<(Vec<InstrRecord>, String), String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let din = vm_trace::read_dinero_recovering(BufReader::new(file), budget)
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let mut report: String = din.skipped.iter().map(|diag| format!("skipped {diag}\n")).collect();
    report.push_str(&format!("{} in {}", din.summary(), path.display()));
    Ok((din.records, report))
}

/// The `trace-stats` verb: the reference statistics of a trace file or
/// of a workload model, a file's first records, or, given neither, the
/// workload models and their footprints.
fn trace_stats_cmd(a: &Args) -> Result<(), String> {
    let head: Option<usize> = a.bound("--head")?;
    let instrs: Option<usize> = a.bound("--instrs")?;
    let seed: Option<u64> = a.num("--seed")?;
    match (&a.positional[..], a.workload()?) {
        ([], None) if head.is_none() && instrs.is_none() && seed.is_none() => {
            println!("available workload models:");
            for spec in presets::all_benchmarks() {
                println!(
                    "  {:9} code ~{:>5} KB  data ~{:>6} KB",
                    spec.name,
                    spec.code.approx_code_bytes() >> 10,
                    spec.approx_data_bytes() >> 10
                );
            }
        }
        ([], Some(spec)) if head.is_none() => {
            let (n, seed) = (instrs.unwrap_or(1_000_000), seed.unwrap_or(42));
            let gen =
                spec.build(seed).map_err(|e| format!("cannot build `{}`: {e:?}", spec.name))?;
            let stats = TraceStats::analyze(gen.take(n));
            print_stats(&format!("{} (model, {n} instrs, seed {seed})", spec.name), &stats);
        }
        ([path], None) if instrs.is_none() && seed.is_none() => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let replay =
                read_trace(BufReader::new(file)).map_err(|e| format!("cannot read {path}: {e}"))?;
            let Some(n) = head else {
                let records: Result<Vec<_>, _> = replay.collect();
                let records = records.map_err(|e| format!("corrupt trace: {e}"))?;
                print_stats(path, &TraceStats::analyze(records));
                return Ok(());
            };
            for record in replay.take(n) {
                let r = record.map_err(|e| format!("corrupt record: {e}"))?;
                match r.data {
                    Some(d) => println!("{}  {} {}", r.pc, d.kind, d.addr),
                    None => println!("{}", r.pc),
                }
            }
        }
        _ => {
            return Err("give one trace file [--head N] or --workload W [--instrs N] [--seed N]; \
                 given neither, it lists the workloads"
                .to_owned())
        }
    }
    Ok(())
}

/// Prints `trace-stats`'s statistics block under the heading `name`.
fn print_stats(name: &str, stats: &TraceStats) {
    println!("{name}:");
    println!("  instructions      {:>12}", stats.instructions);
    println!("  loads             {:>12}", stats.loads);
    println!("  stores            {:>12}", stats.stores);
    println!(
        "  data refs/instr   {:>12.3}",
        stats.data_refs() as f64 / stats.instructions.max(1) as f64
    );
    println!("  code pages        {:>12}", stats.code_pages);
    println!("  data pages        {:>12}", stats.data_pages);
    println!("  code footprint    {:>10} KB", stats.code_footprint_bytes() >> 10);
    println!("  data footprint    {:>10} KB", stats.data_footprint_bytes() >> 10);
    println!("  data block reuse  {:>12.2}", stats.data_block_reuse());
}

/// The `upload` verb: stream a binary trace into a daemon's library
/// over the chunked upload protocol — checksummed, quota- and
/// backpressure-aware, and resumable across connection loss and daemon
/// restarts.
fn upload_cmd(a: &Args) -> Result<(), String> {
    let chunk_bytes: usize = a.size("--chunk-bytes")?.unwrap_or(256 << 10);
    let addr = a.value("--addr").ok_or("needs --addr HOST:PORT (try --help)")?;
    let name = a.value("--name").ok_or("needs --name NAME (try --help)")?;
    let file = a.positional.last().ok_or("needs a trace file (see `repro trace-export`)")?;
    let bytes = std::fs::read(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    upload_trace(addr, name, &bytes, chunk_bytes)
}

/// Retryable faults one upload survives before giving up.
const UPLOAD_RETRIES: u32 = 30;

/// The upload state machine: sync via `upload-status`, open or resume
/// via `upload-begin`, stream chunks, commit. Any transport loss or
/// sequence drift re-enters the sync step; `UPLOAD_RETRIES` bounds the
/// total number of retryable faults before giving up.
fn upload_trace(addr: &str, name: &str, bytes: &[u8], chunk_bytes: usize) -> Result<(), String> {
    use vm_serve::proto::hex64;
    use vm_trace::wire::{b64_encode, fnv1a};
    let reporter = Reporter::global();
    let total = bytes.len() as u64;
    let fnv = fnv1a(bytes);
    let mut retries = 0u32;
    let mut spend_retry = |what: &str| -> Result<(), String> {
        retries += 1;
        if retries > UPLOAD_RETRIES {
            return Err(format!("giving up after {UPLOAD_RETRIES} retryable fault(s): {what}"));
        }
        Ok(())
    };
    let connect = || -> Result<vm_serve::Client, String> {
        vm_serve::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
    };
    let code_of = |v: &Value| v.get("code").and_then(Value::as_u64).unwrap_or(0);
    let mut client = connect()?;
    'sync: loop {
        // One pass from sync to commit; a transport fault ends it with
        // the error, and the next pass starts on a fresh connection.
        let fault = 'pass: {
            // Where does the daemon think this upload stands?
            let status = client
                .request(&Value::obj([("req", "upload-status".into()), ("name", name.into())]));
            let status = match status {
                Ok(v) => v,
                Err(e) => break 'pass e,
            };
            if status.get("state").and_then(Value::as_str) == Some("committed") {
                println!(
                    "trace `{name}` is already committed — submit jobs against workload \
                     trace:{name}"
                );
                return Ok(());
            }
            // Open or resume. Identical declaration resumes the partial;
            // the daemon answers with the first missing sequence number.
            let begin = client.request(&Value::obj([
                ("req", "upload-begin".into()),
                ("name", name.into()),
                ("bytes", total.into()),
                ("fnv", hex64(fnv).into()),
            ]));
            let begin = match begin {
                Ok(v) => v,
                Err(e) => break 'pass e,
            };
            match code_of(&begin) {
                200 => {}
                429 => {
                    let wait = begin.get("retry_after").and_then(Value::as_u64).unwrap_or(500);
                    spend_retry("backpressure (429)")?;
                    reporter.progress(format!("daemon backpressured; retrying in {wait}ms"));
                    std::thread::sleep(std::time::Duration::from_millis(wait.min(5_000)));
                    continue 'sync;
                }
                code => {
                    let detail =
                        begin.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                    return Err(format!("upload-begin rejected ({code}): {detail}"));
                }
            }
            let id =
                begin.get("upload").and_then(Value::as_u64).ok_or("response lacks upload id")?;
            let mut offset = begin.get("staged").and_then(Value::as_u64).unwrap_or(0) as usize;
            let mut seq = begin.get("next_seq").and_then(Value::as_u64).unwrap_or(0);
            if begin.get("resumed") == Some(&Value::Bool(true)) {
                reporter.progress(format!(
                    "resuming upload {id} at chunk {seq} ({offset} bytes staged)"
                ));
            }
            while offset < bytes.len() {
                let end = (offset + chunk_bytes).min(bytes.len());
                let chunk = &bytes[offset..end];
                let req = Value::obj([
                    ("req", "upload-chunk".into()),
                    ("upload", id.into()),
                    ("seq", seq.into()),
                    ("fnv", hex64(fnv1a(chunk)).into()),
                    ("data", b64_encode(chunk).into()),
                ]);
                let resp = match client.request(&req) {
                    Ok(v) => v,
                    Err(e) => break 'pass e,
                };
                match code_of(&resp) {
                    200 => {
                        seq = resp.get("next_seq").and_then(Value::as_u64).unwrap_or(seq + 1);
                        offset = resp.get("staged").and_then(Value::as_u64).unwrap_or(end as u64)
                            as usize;
                    }
                    400 => {
                        // Checksum/encoding rejection: the staged prefix is
                        // intact, resend this same sequence number.
                        let detail =
                            resp.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                        spend_retry(detail)?;
                        reporter.progress(format!("chunk {seq} rejected ({detail}); resending"));
                    }
                    409 => {
                        spend_retry("sequence drift (409)")?;
                        continue 'sync;
                    }
                    code => {
                        let detail =
                            resp.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                        return Err(format!("chunk {seq} rejected ({code}): {detail}"));
                    }
                }
            }
            let commit = client
                .request(&Value::obj([("req", "upload-commit".into()), ("upload", id.into())]));
            let commit = match commit {
                Ok(v) => v,
                Err(e) => break 'pass e,
            };
            match code_of(&commit) {
                200 => {
                    let records = commit.get("records").and_then(Value::as_u64).unwrap_or(0);
                    println!(
                        "committed trace `{name}`: {total} bytes, {records} record(s), fnv {} — \
                         submit jobs against workload trace:{name}",
                        hex64(fnv)
                    );
                    return Ok(());
                }
                code => {
                    let detail =
                        commit.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                    return Err(format!("upload-commit rejected ({code}): {detail}"));
                }
            }
        };
        spend_retry(&fault)?;
        std::thread::sleep(std::time::Duration::from_millis(100));
        client = connect()?;
    }
}

/// The `watch` verb: subscribe to a daemon's live telemetry stream and
/// render it as a terminal dashboard (or raw frames with `--json`). See
/// docs/live.md for the frame schema.
fn watch_cmd(a: &Args) -> Result<(), String> {
    let job: Option<u64> = a.positional.iter().try_fold(None, |_, id| {
        id.parse().map(Some).map_err(|_| format!("bad job id `{id}` (try --help)"))
    })?;
    let addr = a.value("--addr").ok_or("needs --addr HOST:PORT (try --help)")?;
    if a.has("--all") && job.is_some() {
        return Err("pick one of JOB or --all, not both".to_owned());
    }
    let raw = a.has("--json");
    let mut client =
        vm_serve::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut req = vec![("req".to_owned(), Value::from("watch"))];
    match job {
        Some(id) => req.push(("job".to_owned(), Value::from(id))),
        None => req.push(("job".to_owned(), Value::from("*"))),
    }
    client.send(&Value::Obj(req)).map_err(|e| format!("cannot subscribe: {e}"))?;
    let ack = client.next_line().map_err(|e| format!("no subscription ack: {e}"))?;
    if ack.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("daemon refused the watch: {ack}"));
    }
    // The daemon emits a keepalive tick every ~5 s of idle, so a read
    // timeout here means it died rather than went quiet.
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| format!("{e}"))?;
    let mut board = vm_serve::Dashboard::new();
    let mut painted_lines = 0usize;
    let mut saw_done = false;
    loop {
        let frame = match client.next_line() {
            Ok(frame) => frame,
            // For a single-job watch the daemon hangs up right after the
            // terminal frame; that close is the normal end of stream.
            Err(_) if saw_done => break,
            Err(e) if e.contains("connection closed") => {
                if !raw {
                    eprintln!("daemon closed the stream (drained or restarted)");
                }
                break;
            }
            Err(e) => return Err(format!("watch stream failed: {e}")),
        };
        let kind = frame.get("frame").and_then(Value::as_str).unwrap_or("").to_owned();
        if raw {
            println!("{frame}");
        } else {
            board.apply(&frame);
            if kind != "tick" {
                let paint = board.repaint(painted_lines);
                print!("{paint}");
                let _ = std::io::stdout().flush();
                painted_lines = board.render().lines().count();
            }
        }
        match kind.as_str() {
            "done" if job.is_some() => saw_done = true,
            "lagged" => return Err("dropped as a slow subscriber — reconnect to resume".to_owned()),
            _ => {}
        }
    }
    Ok(())
}

/// The `fleet` verb: shard one sweep across several serve daemons
/// (spawned locally and/or already running) and merge the shards back
/// byte-identically to a single-node run. See docs/fleet.md.
fn fleet_cmd(a: &Args) -> Result<(), String> {
    let (paths, axes) = sweep_inputs(a)?;
    let exec = sweep_exec(a, 1);
    let spawn: usize = a.num("--spawn")?.unwrap_or(0);
    let mut opts = FleetOptions::default();
    let off_if_zero = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    opts.probation = a.num("--probation-ms")?.map_or(opts.probation, off_if_zero);
    opts.evict.max_failures = a.num("--evict-after")?.unwrap_or(opts.evict.max_failures);
    opts.point_budget = a.num("--point-budget")?;
    let rate = |v: &str| match v.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
        Ok(rate) => Err(format!("{rate} is not in 0..=1")),
        Err(e) => Err(e.to_string()),
    };
    opts.audit_rate = a.get("--audit-rate", rate)?.unwrap_or(opts.audit_rate);
    let (fleet_journal, resume) = (a.path("--fleet-journal"), a.has("--resume"));
    if spawn == 0 && !a.has("--backend") {
        return Err("needs backends: --spawn N and/or --backend HOST:PORT".to_owned());
    }
    if resume && fleet_journal.is_none() {
        return Err("--resume needs --fleet-journal FILE".to_owned());
    }
    let mut specs = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        // Parse errors surface here with the file name; fleet_plan only
        // re-parses known-good text.
        SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        specs.push(text);
    }
    let fplan = fleet_plan(&specs, &axes)?;
    let reporter = Reporter::global();

    let mut session = FleetSession::default();
    if let Some(path) = &fleet_journal {
        let file = if resume {
            // The prior coordinator already wrote the header; this run
            // appends to its lines.
            let (journal, file) = Journal::reopen(path)?;
            session.seeded = seeded_from_journal(&journal, &fplan.plan, &exec)?;
            reporter.progress(format!(
                "resume: {} completed point(s) restored from {} ({} dispatch note(s))",
                session.seeded.len(),
                path.display(),
                journal.assigns
            ));
            file
        } else {
            // A fresh run owns the file outright: stale lines from an
            // unrelated run must never leak into this run's resume.
            session.write_header = true;
            Journal::create(path)?
        };
        session.journal = Some(JournalWriter::boxed(file));
    }
    if let Some(addr) = a.value("--join-addr") {
        let control = ControlChannel::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let bound = control.local_addr().map_err(|e| format!("no local address: {e}"))?;
        // The smoke harness (and operators) scrape this line to reach
        // the control channel.
        println!("vm-fleet control on {bound}");
        std::io::stdout().flush().ok();
        session.control = Some(control);
    }

    let mut backends: Vec<Backend> = Vec::new();
    for addr in a.values("--backend") {
        backends.push(Backend::from_addr(backends.len(), addr));
    }
    if spawn > 0 {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot resolve my own executable: {e}"))?;
        // Spawned children get queue headroom and a parked degrade
        // watermark: a degraded admission would clamp run lengths and
        // break bit-identity, so the coordinator treats it as a fault.
        let extra = ["--queue", "64", "--degrade-depth", "64"].map(String::from);
        for _ in 0..spawn {
            let b = Backend::spawn(backends.len(), &exe, &extra)?;
            // The smoke harness scrapes these lines to find (and kill)
            // specific children mid-sweep.
            println!("vm-fleet backend {} pid {} at {}", b.id, b.pid().unwrap_or(0), b.addr);
            backends.push(b);
        }
        std::io::stdout().flush().ok();
    }

    static WATCH_STOP: AtomicBool = AtomicBool::new(false);
    let mut hub: Option<Arc<WatchHub>> = None;
    let mut proxy_thread = None;
    if let Some(addr) = a.value("--watch-addr") {
        let h = Arc::new(WatchHub::new());
        let proxy = WatchProxy::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let bound = proxy.local_addr().map_err(|e| format!("no local address: {e}"))?;
        println!("vm-fleet watching on {bound}");
        std::io::stdout().flush().ok();
        let serve_hub = Arc::clone(&h);
        proxy_thread = Some(std::thread::spawn(move || proxy.serve(&serve_hub, &WATCH_STOP)));
        hub = Some(h);
    }

    let mut sink = a.has("--events").then(|| JsonlSink::new(Vec::new()));
    let run_result =
        run_fleet(&fplan, &exec, backends, &opts, &reporter, &mut sink, hub.as_ref(), session);
    WATCH_STOP.store(true, Ordering::Release);
    if let Some(t) = proxy_thread {
        let _ = t.join();
    }
    let outcome = run_result?;
    for row in &outcome.roster {
        reporter.progress(format!(
            "backend {} at {}: {}{}, {} point(s) completed, teardown {}",
            row.slot,
            row.addr,
            row.state,
            if row.joined { " (joined mid-run)" } else { "" },
            row.completed,
            row.shutdown.label()
        ));
    }

    let vm_fleet::MergedRun { results, failures, journal: journal_bytes } = outcome.merged;
    let run =
        explore::ExploreRun::from_results(results, failures, fplan.plan.skipped.clone(), &axes);
    println!("{}", run.render());
    if !run.failures.is_empty() {
        reporter.progress(format!(
            "{} of {} point(s) failed permanently (each was dispatched to several backends)",
            run.failures.len(),
            run.failures.len() + run.results.len(),
        ));
    }
    if let Some(path) = a.path("--journal") {
        std::fs::write(&path, &journal_bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        reporter.progress(format!(
            "wrote {} ({} bytes, byte-identical to a single-node --jobs 1 journal)",
            path.display(),
            journal_bytes.len()
        ));
    }
    let events = match sink.map(JsonlSink::finish).transpose() {
        Ok(buf) => buf,
        Err(e) => {
            eprintln!("events capture failed: {e}");
            None
        }
    };
    write_sweep_outputs(a, &run, events.as_deref())
}

/// The `verify` verb: offline integrity audit of committed run
/// artifacts. Re-derives every attestation in a journal, optionally
/// re-derives every context fingerprint from the base spec, and checks
/// the exported CSV is exactly what the journal's payloads render to.
/// Every failure names the point index and the stage that caught it
/// (`decode`, `attestation`, `context`, `csv`).
fn verify_cmd(a: &Args) -> Result<(), String> {
    let csv_path = a.positional.last().map(PathBuf::from);
    let csv_path = csv_path.ok_or("needs the exported CSV file (try --help)")?;
    let journal_path = a.path("--journal").ok_or("needs --journal FILE (try --help)")?;
    let spec_path = a.path("--spec");
    let journal = Journal::load(&journal_path)?;
    let header = journal.header.ok_or("journal has no run header — nothing pins the scale")?;
    let exec = ExecConfig { warmup: header.warmup, measure: header.measure, jobs: 1 };
    let base = match &spec_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            Some(SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?)
        }
        None => None,
    };

    // Later journal lines supersede earlier ones (resume appends), so
    // fold entries in order before judging anything but decode.
    let mut results: std::collections::BTreeMap<u64, vm_explore::PointResult> =
        std::collections::BTreeMap::new();
    for entry in &journal.entries {
        let ix = entry.index;
        if entry.status != "done" {
            results.remove(&ix);
            continue;
        }
        let payload = entry
            .payload
            .as_ref()
            .ok_or_else(|| format!("point {ix} [decode]: done entry carries no payload"))?;
        let r = vm_explore::result_from_value(payload)
            .map_err(|e| format!("point {ix} [decode]: {e}"))?;
        if r.index as u64 != ix || r.label != entry.label {
            return Err(format!(
                "point {ix} [decode]: entry is `{}` but its payload claims point {} `{}`",
                entry.label, r.index, r.label
            ));
        }
        vm_explore::verify_sealed(&r).map_err(|e| format!("point {ix} [attestation]: {e}"))?;
        if let Some(base) = &base {
            // Re-expand the point exactly as a fleet backend would: the
            // payload's settings are the pinned axis assignment.
            let pinned: Vec<Axis> = r
                .settings
                .iter()
                .map(|(k, v)| Axis::parse(&format!("{k}={v}")))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("point {ix} [context]: {e}"))?;
            let sub = vm_explore::SweepPlan::expand(base, &pinned)
                .map_err(|e| format!("point {ix} [context]: {e}"))?;
            let point = match sub.points.as_slice() {
                [point] => point,
                other => {
                    return Err(format!(
                        "point {ix} [context]: settings re-expand to {} point(s), not one",
                        other.len()
                    ))
                }
            };
            if point.label != r.label {
                return Err(format!(
                    "point {ix} [context]: settings re-expand to `{}`, not `{}`",
                    point.label, r.label
                ));
            }
            let expect = vm_explore::context_for(point, &exec);
            vm_explore::verify_in_context(&r, expect)
                .map_err(|e| format!("point {ix} [context]: {e}"))?;
        }
        results.insert(ix, r);
    }

    let csv_text = std::fs::read_to_string(&csv_path)
        .map_err(|e| format!("cannot read {}: {e}", csv_path.display()))?;
    let ordered: Vec<vm_explore::PointResult> = results.into_values().collect();
    let count = ordered.len();
    let derived = explore::ExploreRun::from_results(ordered, Vec::new(), Vec::new(), &[]).to_csv();
    if derived != csv_text {
        let want: Vec<&str> = derived.lines().collect();
        let got: Vec<&str> = csv_text.lines().collect();
        let row = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .expect("unequal text differs on some line");
        let name = if row == 0 {
            "csv header row".to_owned()
        } else {
            // Row i renders the i-th journaled result; name it by the
            // label so the operator can find the point without counting.
            want.get(row)
                .or_else(|| got.get(row))
                .and_then(|line| line.split(',').next())
                .map_or_else(|| format!("csv row {row}"), |l| format!("point `{l}`"))
        };
        return Err(format!(
            "{name} [csv]: journal renders `{}` but the CSV says `{}`",
            want.get(row).copied().unwrap_or("<nothing — CSV has extra rows>"),
            got.get(row).copied().unwrap_or("<nothing — CSV is short>"),
        ));
    }
    println!(
        "verified {count} point(s): decode ok, attestation ok, context {}, csv ok",
        if base.is_some() { "ok" } else { "skipped (no --spec)" }
    );
    Ok(())
}

/// The experiment runner: runs each named experiment (default `all`) in
/// turn, prints its report and writes its files, then prints the tally
/// of paper claims.
fn experiments_cmd(a: &Args) -> Result<(), String> {
    let (out, events, chrome) = (a.path("--out"), a.path("--events"), a.path("--chrome-trace"));
    let settings = Settings {
        scale: a.scale().unwrap_or(RunScale::DEFAULT),
        threads: a.num("--threads")?.unwrap_or_else(parallelism),
        workload: a.workload()?,
        events: events.is_some(),
        chrome: chrome.is_some(),
    };
    let mut names =
        if a.positional.is_empty() { vec!["all".to_owned()] } else { a.positional.clone() };
    // --events/--chrome-trace imply the instrumented pass.
    if (settings.events || settings.chrome) && !names.iter().any(|n| n == "telemetry") {
        names.push("telemetry".to_owned());
    }
    let experiments = registry::select(&names)?;
    // A directory that cannot be made fails the run before any work.
    if let Some(dir) = &out {
        create_out_dir(dir)?;
    }

    let started = std::time::Instant::now();
    let mut claims = Vec::new();
    for experiment in &experiments {
        let t = std::time::Instant::now();
        let output = (experiment.run)(&settings);
        println!("{}", output.text);
        let csv = out.as_ref().map(|dir| dir.join(format!("{}.csv", experiment.name)));
        let files = [
            (csv, output.csv.map(String::into_bytes)),
            (events.clone(), output.events),
            (chrome.clone(), output.chrome),
        ];
        for (path, bytes) in files {
            if let (Some(path), Some(bytes)) = (path, bytes) {
                write_output(&path, &bytes)?;
            }
        }
        claims.extend(output.claims);
        let (name, seconds) = (experiment.name, t.elapsed().as_secs_f64());
        Reporter::global().progress(format!("[{name}] finished in {seconds:.1}s"));
    }
    if !claims.is_empty() {
        let passed = claims.iter().filter(|c| c.holds).count();
        println!(
            "== overall: {passed}/{} paper claims reproduced in {:.1}s ==",
            claims.len(),
            started.elapsed().as_secs_f64()
        );
        if a.has("--strict") && passed != claims.len() {
            return Err(format!("--strict: {passed}/{} paper claims held", claims.len()));
        }
    }
    Ok(())
}

/// Restores the default SIGPIPE disposition so piping into `head`/`less`
/// terminates the process quietly instead of panicking on a broken-pipe
/// write error (Rust ignores SIGPIPE by default).
fn reset_sigpipe() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: signal(2) with SIG_DFL is async-signal-safe process setup
        // performed once before any other work.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn main() -> ExitCode {
    reset_sigpipe();
    // Binaries default to Normal (library callers stay Quiet); the
    // verbosity flags override.
    set_global_verbosity(Verbosity::Normal);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        // The (internal) supervised worker: NDJSON requests on stdin,
        // one reply line per point on stdout, heartbeats in between.
        // Spawned by `--isolation process` / `serve --workers`; exits at
        // stdin EOF (i.e. when its supervisor goes away).
        set_global_verbosity(Verbosity::Quiet);
        return match vm_explore::serve_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("repro worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match repro(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    fn parse(verb: &str, words: &[&str]) -> Args {
        let verb = VERBS.iter().find(|v| v.name == verb).expect("a verb of the table");
        verb.parse(&argv(words)).expect("parses").expect("no --help")
    }

    #[test]
    fn serve_binds_the_same_address_whichever_flag_comes_first() {
        for words in
            [["--addr", "10.1.2.3:7000", "--port", "0"], ["--port", "0", "--addr", "10.1.2.3:7000"]]
        {
            assert_eq!(serve_config(&parse("serve", &words)).unwrap().addr, "10.1.2.3:0");
        }
        assert_eq!(serve_config(&parse("serve", &["--port", "9"])).unwrap().addr, "127.0.0.1:9");
        let default = serve_config(&parse("serve", &[])).unwrap();
        assert_eq!(default.addr, ServeConfig::default().addr);
    }

    #[test]
    fn errors_name_the_verb_and_the_flag() {
        for (words, error) in [
            (&["--bogus"][..], "repro: unknown flag `--bogus` (try `repro --help`)"),
            (&["serve", "-x"], "repro serve: unknown flag `-x` (try `repro serve --help`)"),
            (&["run", "stray"], "repro run: unknown flag `stray` (try `repro run --help`)"),
            (&["serve", "--queue"], "repro serve: --queue needs a value"),
            (&["fleet", "specs", "--backend"], "repro fleet: --backend needs a value"),
            (&["--threads", "x"], "repro: bad --threads: invalid digit found in string"),
            (&["run", "--seed", "-1"], "repro run: bad --seed: invalid digit found in string"),
            (
                &["trace-export", "--instrs", "1e6"],
                "repro trace-export: bad --instrs: invalid digit found in string",
            ),
        ] {
            assert_eq!(repro(&argv(words)).unwrap_err(), error);
        }
    }

    #[test]
    fn limits_that_would_refuse_all_work_are_refused_at_start_up() {
        for flag in ["--queue", "--max-request-bytes"] {
            let e = serve_config(&parse("serve", &[flag, "0"])).err().unwrap();
            assert_eq!(e, format!("bad {flag}: must be positive, not 0"));
        }
        for flag in ["--max-trace-bytes", "--conn-upload-quota", "--staging-watermark"] {
            let e = serve_config(&parse("serve", &[flag, "0K"])).err().unwrap();
            assert_eq!(e, format!("bad {flag}: must be positive, not 0"));
        }
        let upload = ["upload", "--addr", "127.0.0.1:1", "--name", "x", "t.bin", "--chunk-bytes"];
        for (size, error) in [
            ("0", "must be positive, not 0"),
            ("17592186044416M", "`17592186044416M` overflows 64 bits"),
            ("17592186044417M", "`17592186044417M` overflows 64 bits"),
        ] {
            let words: Vec<&str> = upload.iter().copied().chain([size]).collect();
            let e = repro(&argv(&words)).unwrap_err();
            assert_eq!(e, format!("repro upload: bad --chunk-bytes: {error}"));
        }
    }

    #[test]
    fn an_unknown_workload_fails_before_any_experiment_runs() {
        for words in [
            &["fig10", "--workload", "bogus", "--quick"][..],
            &["tables", "fig6", "--workload", "bogus"],
        ] {
            let e = repro(&argv(words)).unwrap_err();
            assert!(e.starts_with("repro: bad --workload: unknown workload `bogus`"), "{e}");
        }
    }

    #[test]
    fn spec_paths_and_axes_keep_their_order() {
        let spec = |name: &str| format!("{}/../../specs/{name}.toml", env!("CARGO_MANIFEST_DIR"));
        let (ultrix, mach) = (spec("ultrix"), spec("mach"));
        let words = [&ultrix, "--sweep", "tlb.entries=64,32", &mach, "--sweep", "cache.l1=8K"];
        let (paths, axes) = sweep_inputs(&parse("explore", &words)).unwrap();
        assert_eq!(paths, [PathBuf::from(&ultrix), PathBuf::from(&mach)]);
        let want = ["tlb.entries=64,32", "cache.l1=8K"].map(|axis| Axis::parse(axis).unwrap());
        assert_eq!(axes, want);
    }

    /// A fresh directory for one test's files.
    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn path(p: &Path) -> &str {
        p.to_str().expect("a UTF-8 path")
    }

    #[test]
    fn an_output_that_cannot_be_written_fails_the_run() {
        // Nothing can be created under a regular file.
        let dir = test_dir("unwritable");
        let file = dir.join("file");
        std::fs::write(&file, "").unwrap();
        let under = file.join("sub");
        // A bad --out fails the runner before any experiment runs.
        let e = repro(&argv(&["fig10", "--quick", "--out", path(&under)])).unwrap_err();
        assert!(e.starts_with(&format!("repro: cannot create {}: ", under.display())), "{e}");
        for flag in ["--events", "--chrome-trace"] {
            let e = repro(&argv(&["run", "--instrs", "1000", flag, path(&under)])).unwrap_err();
            assert!(
                e.starts_with(&format!("repro run: cannot write {}: ", under.display())),
                "{e}"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_stats_refuses_an_instruction_count_that_is_not_a_number() {
        let e = repro(&argv(&["trace-stats", "--workload", "gcc", "--instrs", "abc"]));
        assert_eq!(
            e.unwrap_err(),
            "repro trace-stats: bad --instrs: invalid digit found in string"
        );
        assert!(repro(&argv(&["trace-stats", "--workload", "gcc", "--instrs", "1000"])).is_ok());
    }

    #[test]
    fn trace_stats_refuses_a_head_count_that_is_not_a_number() {
        let e = repro(&argv(&["trace-stats", "t.trace", "--head", "abc"]));
        assert_eq!(e.unwrap_err(), "repro trace-stats: bad --head: invalid digit found in string");
    }

    #[test]
    fn trace_export_refuses_stray_words_before_writing_anything() {
        let dir = test_dir("stray");
        let out = dir.join("out");
        let words = ["trace-export", "--workload", "gcc", "--instrs", "10", "--out", path(&out)];
        let e = repro(&argv(&[&words[..], &["stray", "--bogus"]].concat())).unwrap_err();
        assert_eq!(e, "repro trace-export: unknown flag `stray` (try `repro trace-export --help`)");
        assert!(!out.exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn trace_stats_reads_a_word_after_the_verb_as_a_file() {
        // `repro trace-stats` alone lists the models; a word after it
        // is a trace file, never ignored.
        assert!(repro(&argv(&["trace-stats"])).is_ok());
        let e = repro(&argv(&["trace-stats", "bogus"])).unwrap_err();
        assert!(e.starts_with("repro trace-stats: cannot open bogus: "), "{e}");
        for words in [&["--seed", "1"][..], &["--head", "5"], &["x.trace", "y.trace"]] {
            let e = repro(&argv(&[&["trace-stats"], words].concat())).unwrap_err();
            assert!(e.starts_with("repro trace-stats: give one trace file "), "{e}");
        }
    }

    #[test]
    fn only_workload_names_a_preset() {
        // No file called `gcc` exists here: a bare `gcc` is that file.
        let e = repro(&argv(&["trace-stats", "gcc"])).unwrap_err();
        assert!(e.starts_with("repro trace-stats: cannot open gcc: "), "{e}");
        // A file called `gcc` is read as a trace, not as the model.
        let dir = test_dir("preset");
        let gcc = dir.join("gcc");
        std::fs::write(&gcc, "not a trace").unwrap();
        let e = repro(&argv(&["trace-stats", path(&gcc)])).unwrap_err();
        assert!(e.contains("cannot read") && e.contains("not a trace stream"), "{e}");
        let e = repro(&argv(&["trace-stats", path(&gcc), "--workload", "gcc"])).unwrap_err();
        assert!(e.starts_with("repro trace-stats: give one trace file "), "{e}");
        // The exported model reads back, statistics and records.
        let words = ["trace-export", "--instrs", "1000", "--seed", "7", "--out", path(&gcc)];
        repro(&argv(&words)).unwrap();
        assert!(repro(&argv(&["trace-stats", path(&gcc)])).is_ok());
        assert!(repro(&argv(&["trace-stats", path(&gcc), "--head", "3"])).is_ok());
        let e = repro(&argv(&["trace-stats", path(&gcc), "--seed", "7"])).unwrap_err();
        assert!(e.starts_with("repro trace-stats: give one trace file "), "{e}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_dinero_import_writes_the_strict_readers_records_and_reports_its_damage() {
        let dir = test_dir("dinero");
        let (clean, damaged, out) = (dir.join("clean.din"), dir.join("bad.din"), dir.join("t"));
        std::fs::write(&clean, "2 400000\n0 10000000\n2 400004\n1 10000008\n").unwrap();
        std::fs::write(&damaged, "2 400000\n0 10000000\n2 400004\nbanner line\n1 10000008\n")
            .unwrap();
        // A clean import reports its (empty) damage too.
        let (_, report) = import_dinero(&clean, 0).unwrap();
        assert_eq!(report, format!("skipped 0 of 4 line(s) in {}", clean.display()));
        repro(&argv(&["trace-export", "--dinero", path(&clean), "--out", path(&out)])).unwrap();
        let strict = vm_trace::read_dinero(std::fs::read(&clean).unwrap().as_slice()).unwrap();
        let mut want = Vec::new();
        vm_trace::write_trace(&mut want, strict).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), want);
        // A budget of 0 fails on the first bad line and names it.
        let e = import_dinero(&damaged, 0).unwrap_err();
        assert!(e.contains("din line 4: bad hex address: `banner line`"), "{e}");
        let words = ["trace-export", "--dinero", path(&damaged), "--out", path(&out)];
        assert!(repro(&argv(&words)).unwrap_err().contains("din line 4: "));
        // A budget of 1 skips it and says so.
        let (records, report) = import_dinero(&damaged, 1).unwrap();
        assert_eq!(records.len(), 2);
        let summary = format!("skipped 1 of 5 line(s) in {}", damaged.display());
        let skipped = "skipped din line 4: bad hex address: `banner line`";
        assert_eq!(report, format!("{skipped}\n{summary}"));
        // One source per export.
        for extra in [&["--workload", "gcc"][..], &["--seed", "1"], &["--instrs", "9"]] {
            let e = repro(&argv(&[&words[..], extra].concat())).unwrap_err();
            assert!(e.starts_with("repro trace-export: --dinero imports a trace"), "{e}");
        }
        let words = ["trace-export", "--max-parse-errors", "1", "--out", path(&out)];
        let e = repro(&argv(&words)).unwrap_err();
        assert_eq!(e, "repro trace-export: --max-parse-errors needs --dinero");
        let _ = std::fs::remove_dir_all(dir);
    }
}
