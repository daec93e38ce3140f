//! One benchmark run: set-up, the measured loop, result checks, the
//! per-layer probes of a traced run, and the report.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vm_core::SystemKind;
use vm_experiments::{Job, RunScale};
use vm_explore::{ExecConfig, HardenPolicy, PointResult, SweepPlan, SystemSpec};
use vm_trace::presets;

use crate::daemon::Daemon;
use crate::env::{RssTracker, Stamp};
use crate::fleet::{self, FleetRun};
use crate::fp::{self, Records};
use crate::metrics::{self, median, tail_percentile, Report, Tally};
use crate::paper;
use crate::probes;
use crate::serve::{self, ServeRun};
use crate::spans::{self, Tracer};
use crate::sweep::{self, SweepRun};

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("paper-quick", "every paper experiment at quick scale: synthesis and step dominate"),
    (
        "sweep-replay",
        "journaled default-scale sweep over a decoded library trace: TLB and walkers weigh most",
    ),
    (
        "serve-closed",
        "two closed-loop clients of one daemon: service layers dominate, simulation is tiny",
    ),
    ("fleet-sweep", "fleet dispatch and merge over two worker-process daemons"),
];

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;

/// Records per layer-probe stream.
const PROBE_RECORDS: usize = 400_000;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `repro` binary daemons and workers run.
    pub repro: PathBuf,
    /// The repository checkout.
    pub root: PathBuf,
}

/// Deletes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the measured loop left for the probes and the report.
#[derive(Default)]
struct Main {
    /// Per unit of work: (wall, traced?).
    units: Vec<(Duration, bool)>,
    /// Points (simulations, sweep points, jobs) per unit.
    points: Vec<u64>,
    /// Simulated instructions per unit.
    instrs: Vec<u64>,
    /// Latency samples, ms.
    latency: Vec<f64>,
    setup: Vec<f64>,
    sweep: Option<Vec<SweepRun>>,
    serve: Option<ServeRun>,
    fleet: Option<FleetRun>,
    serve_run_ms: Option<f64>,
}

/// A run in progress.
pub struct Bench {
    args: Args,
    variant: u64,
    work: PathBuf,
    on: Tracer,
    off: Tracer,
    report: Report,
    tally: Tally,
    errors: Vec<String>,
    lines: Vec<String>,
    rss: RssTracker,
    records: Records,
    _scratch: Scratch,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl Bench {
    /// Prepares a run: scratch directory, recorded fingerprints.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown workload or unreadable records.
    pub fn new(args: Args) -> Result<Bench, String> {
        if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
            let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            return Err(format!(
                "unknown workload `{}` (known: {})",
                args.workload,
                known.join(", ")
            ));
        }
        let records = Records::load(&args.root.join("perfbench/fingerprints.txt"))?;
        let work = args.root.join(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Bench {
            variant: fp::variant(args.seed),
            on: Tracer::new(args.trace),
            off: Tracer::new(false),
            args,
            report: Report::default(),
            tally: Tally::default(),
            errors: Vec::new(),
            lines: Vec::new(),
            rss: RssTracker::default(),
            records,
            _scratch: Scratch(work.clone()),
            work,
        })
    }

    /// The tracer for unit `i`: in a traced run, units alternate
    /// untraced and traced so the overhead can be read off one run.
    fn tracer(&self, i: usize) -> (&Tracer, bool) {
        if self.args.trace && i % 2 == 1 {
            (&self.on, true)
        } else {
            (&self.off, false)
        }
    }

    fn keep_going(&self, started: Instant, units: usize, min_units: usize) -> bool {
        let min = if self.args.trace { min_units.max(2) } else { min_units };
        units < min || started.elapsed() < Duration::from_secs(self.args.seconds)
    }

    fn check_fingerprint(&mut self, got: u64) -> bool {
        let variant = if self.args.workload == "paper-quick" { 0 } else { self.variant };
        match self.records.check(&self.args.workload, variant, got) {
            Ok(()) => true,
            Err(e) => {
                self.errors.push(e);
                false
            }
        }
    }

    /// Runs the workload (and, traced, the layer probes) and returns the
    /// final result line.
    ///
    /// # Errors
    ///
    /// Returns a message when the run could not be carried out at all.
    pub fn run(mut self) -> Result<String, String> {
        let scale = match self.args.workload.as_str() {
            "paper-quick" => "quick (200k warm-up + 500k measured per simulation)",
            "sweep-replay" => "default (1M warm-up + 2M measured per point)",
            _ => "serve-bench (2k warm-up + 10k measured per point)",
        };
        let stamp = Stamp::gather(&self.args.root, &self.args.workload, self.args.seed, scale);
        let mut main = match self.args.workload.as_str() {
            "paper-quick" => self.paper_quick()?,
            "sweep-replay" => self.sweep_replay()?,
            "serve-closed" => self.serve_closed()?,
            _ => self.fleet_sweep()?,
        };
        self.end_to_end(&main);
        if self.args.trace {
            self.probes(&mut main)?;
        }
        self.finish(&stamp, &main)
    }

    fn paper_quick(&mut self) -> Result<Main, String> {
        let mut main = Main::default();
        let mut names = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let input = paper::input_fingerprint()?;
            names = paper::order(self.args.seed);
            main.setup.push(secs(t.elapsed()));
            self.lines
                .push(format!("inputs: drivers' fixed-seed streams fingerprint {input:016x}"));
        }
        self.lines.dedup();
        let started = Instant::now();
        let mut ok = true;
        while self.keep_going(started, main.units.len(), 1) {
            let (tracer, traced) = self.tracer(main.units.len());
            let t = Instant::now();
            let pass = paper::pass(&names, tracer)?;
            let wall = t.elapsed();
            let sims: u64 = pass.iter().map(|e| e.sims).sum();
            main.units.push((wall, traced));
            main.points.push(sims);
            main.instrs.push(sims * paper::instrs_per_sim());
            // The request here is the whole pass (`repro all --quick`).
            // Per-experiment times end on the runner's 100 ms heartbeat
            // ticks, too coarse to rank.
            main.latency.push(secs(wall) * 1e3);
            self.tally.attempted += sims;
            let fingerprint = paper::fingerprint(&pass);
            ok &= self.check_fingerprint(fingerprint);
            if main.units.len() == 1 {
                self.lines.push(format!(
                    "fingerprint: {fingerprint:016x} (CSV rows of every experiment)"
                ));
            }
            match paper::check_claims(&pass) {
                Ok(passed) if main.units.len() == 1 => {
                    let named: Vec<String> =
                        paper::EXPECTED_FAILS.iter().map(|(e, c)| format!("{e}: {c}")).collect();
                    self.lines.push(format!(
                        "claims: {passed}/{} reproduced; expected quick-scale misses: {}",
                        paper::EXPECTED_CLAIMS,
                        named.join(" | ")
                    ));
                }
                Ok(_) => {}
                Err(e) => {
                    ok = false;
                    self.errors.push(format!("claims: {e}"));
                }
            }
        }
        if !ok {
            self.tally.fail_all();
        }
        Ok(main)
    }

    fn sweep_replay(&mut self) -> Result<Main, String> {
        let mut main = Main::default();
        let exec = replay_exec();
        let library = self.work.join("library");
        let mut plan = SweepPlan::default();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            export_vortex(&library, self.variant, exec.warmup + exec.measure)?;
            plan = replay_plan(&self.args.root)?;
            main.setup.push(secs(t.elapsed()));
        }
        let policy = HardenPolicy { trace_library: Some(library), ..HardenPolicy::default() };
        let started = Instant::now();
        let mut runs = Vec::new();
        let mut ok = true;
        while self.keep_going(started, main.units.len(), 1) {
            let (tracer, traced) = self.tracer(main.units.len());
            let path = self.work.join("sweep-journal.jsonl");
            let file =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let run = sweep::journaled(&plan, &exec, &policy, file, tracer, 0)?;
            let _ = std::fs::remove_file(&path);
            let n = plan.points.len() as u64;
            main.units.push((run.wall, traced));
            main.points.push(n);
            main.instrs.push(n * (exec.warmup + exec.measure));
            // The request is the sweep; per-point busy time is the
            // explore layer's metric.
            main.latency.push(secs(run.wall) * 1e3);
            self.tally.attempted += n;
            self.tally.failed += run.outcome.failed_count() as u64;
            let fingerprint = fp::of_results(&run.results());
            ok &= self.check_fingerprint(fingerprint);
            if runs.is_empty() {
                self.lines.push(format!(
                    "fingerprint: {fingerprint:016x} ({n} points, full-precision rows)"
                ));
            }
            runs.push(run);
        }
        self.rss.sample();
        if !ok {
            self.tally.fail_all();
        }
        main.sweep = Some(runs);
        Ok(main)
    }

    fn serve_args(&self, extra: &[&str]) -> Vec<String> {
        let mut args: Vec<String> = extra.iter().map(|s| (*s).to_owned()).collect();
        if self.args.trace {
            args.push("--events".to_owned());
            args.push(self.work.join("serve-events.jsonl").to_string_lossy().into_owned());
        }
        args
    }

    /// Spawns the `serve-closed` daemon, health-checks it and runs one
    /// warm-up job.
    fn spawn_serve(&self) -> Result<Daemon, String> {
        let daemon = Daemon::spawn(&self.args.repro, &self.serve_args(&["--jobs", "2"]))?;
        serve::warm_up(&daemon.addr, &serve::specs(self.variant)[0])?;
        Ok(daemon)
    }

    fn serve_closed(&mut self) -> Result<Main, String> {
        let mut main = Main::default();
        let mut daemon = None;
        for _ in 0..SETUP_REPS {
            if let Some(d) = daemon.take() {
                Daemon::stop(d)?;
            }
            let t = Instant::now();
            daemon = Some(self.spawn_serve()?);
            main.setup.push(secs(t.elapsed()));
        }
        let daemon = daemon.expect("set-up ran at least once");
        let specs = serve::specs(self.variant);
        let started = Instant::now();
        let mut all = ServeRun::default();
        while self.keep_going(started, main.units.len(), 1) {
            let (tracer, traced) = self.tracer(main.units.len());
            let round = serve::closed_loop(&daemon.addr, &specs, Duration::ZERO, 1, tracer)?;
            let jobs = round.jobs.len() as u64;
            main.units.push((round.rounds[0], traced));
            main.points.push(jobs);
            main.instrs.push(jobs * (serve::WARMUP + serve::MEASURE));
            main.latency.extend(round.jobs.iter().map(|j| j.latency_ms));
            all.absorb(round);
        }
        self.rss.sample();
        daemon.stop()?;
        main.serve_run_ms = self.events_wall_ms();
        self.tally.add(all.tally);
        self.check_serve(&all);
        main.serve = Some(all);
        Ok(main)
    }

    fn events_wall_ms(&self) -> Option<f64> {
        let text = std::fs::read_to_string(self.work.join("serve-events.jsonl")).ok()?;
        serve::mean_job_wall_ms(&text)
    }

    fn check_serve(&mut self, run: &ServeRun) {
        let mut ok = run.errors.is_empty() && run.rows.len() == SystemKind::PAPER.len();
        self.errors.extend(run.errors.iter().cloned());
        if run.rows.len() != SystemKind::PAPER.len() {
            self.errors.push(format!("only {} of 6 systems returned results", run.rows.len()));
        }
        let fingerprint = run.fingerprint();
        ok &= self.check_fingerprint(fingerprint);
        self.lines.push(format!("fingerprint: {fingerprint:016x} (one row per paper system)"));
        if !ok {
            self.tally.fail_all();
        }
    }

    /// Spawns the two `fleet-sweep` daemons, health-checks them and runs
    /// one warm-up job on each (which starts its worker process).
    fn spawn_fleet(&self) -> Result<Vec<Daemon>, String> {
        let spec = &serve::specs(self.variant)[0];
        (0..2)
            .map(|_| {
                let d = Daemon::spawn(&self.args.repro, &["--workers".to_owned(), "1".to_owned()])?;
                serve::warm_up(&d.addr, spec)?;
                Ok(d)
            })
            .collect()
    }

    fn fleet_sweep(&mut self) -> Result<Main, String> {
        let mut main = Main::default();
        let mut daemons = Vec::new();
        for _ in 0..SETUP_REPS {
            for d in daemons.drain(..) {
                Daemon::stop(d)?;
            }
            let t = Instant::now();
            daemons = self.spawn_fleet()?;
            main.setup.push(secs(t.elapsed()));
        }
        let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
        let (plan, exec) = fleet::grid(self.variant)?;
        let started = Instant::now();
        let mut all = FleetRun::default();
        while self.keep_going(started, main.units.len(), 1) {
            let (tracer, traced) = self.tracer(main.units.len());
            let run = fleet::sweep(&addrs, &plan, &exec, 1, tracer)?;
            let n = plan.plan.points.len() as u64;
            main.units.push((run.walls[0], traced));
            main.points.push(n);
            main.instrs.push(n * (exec.warmup + exec.measure));
            main.latency.extend(run.latency_ms.iter().copied());
            all.absorb(run);
        }
        self.rss.sample();
        for d in daemons {
            d.stop()?;
        }
        self.check_fleet(&all);
        main.fleet = Some(all);
        Ok(main)
    }

    fn check_fleet(&mut self, run: &FleetRun) {
        self.tally.add(run.tally);
        let mut ok = true;
        let mut distinct = run.fingerprints.clone();
        distinct.dedup();
        for f in distinct {
            ok &= self.check_fingerprint(f);
        }
        if let Some(f) = run.fingerprints.first() {
            self.lines.push(format!("fingerprint: {f:016x} (merged fleet results)"));
        }
        if !ok {
            self.tally.fail_all();
        }
    }

    fn end_to_end(&mut self, main: &Main) {
        let walls: Vec<f64> = main.units.iter().map(|&(w, _)| secs(w)).collect();
        let per_unit = |xs: &[u64], scale: f64| -> f64 {
            let rates: Vec<f64> =
                xs.iter().zip(&walls).map(|(&x, &w)| x as f64 * scale / w.max(1e-9)).collect();
            median(&rates).unwrap_or(0.0)
        };
        let r = &mut self.report;
        r.set("setup_s", median(&main.setup).unwrap_or(0.0));
        r.set("wall_s", median(&walls).unwrap_or(0.0));
        r.set("sim_minstr_per_s", per_unit(&main.instrs, 1e-6));
        r.set("points_per_s", per_unit(&main.points, 1.0));
        r.set("latency_p50_ms", median(&main.latency).unwrap_or(0.0));
        if let Some(tail) = tail_percentile(&main.latency, 0.9, 10) {
            r.set("latency_p90_ms", tail.value);
            self.lines.push(format!(
                "latency tail: p{:.1} of {} samples ({} beyond) = {:.4} ms",
                tail.pct, tail.samples, tail.beyond, tail.value
            ));
        }
        self.rss.sample();
        let (own, children, n) = self.rss.breakdown_mb();
        self.report.set("peak_rss_mb", own + children);
        self.lines.push(format!(
            "peak rss: benchmark {own:.1} MB + {n} child process(es) {children:.1} MB"
        ));
        let untraced: Vec<f64> = main.units.iter().filter(|u| !u.1).map(|u| secs(u.0)).collect();
        let traced: Vec<f64> = main.units.iter().filter(|u| u.1).map(|u| secs(u.0)).collect();
        if let (Some(u), Some(t)) = (median(&untraced), median(&traced)) {
            self.report.set("tracing.wall_untraced_s", u);
            self.report.set("tracing.wall_traced_s", t);
            self.report.set("tracing.overhead_pct", 100.0 * (t - u) / u.max(1e-9));
            self.lines.push(format!(
                "tracing overhead: wall_s traced {t:.4} vs untraced {u:.4} ({:+.2}%)",
                100.0 * (t - u) / u.max(1e-9)
            ));
        }
    }

    /// The probe stream: the workload's own preset and seed.
    fn probe_stream(&self) -> (vm_trace::WorkloadSpec, u64) {
        match self.args.workload.as_str() {
            "paper-quick" => (presets::gcc_spec(), paper::driver_trace_seed()),
            "sweep-replay" => (presets::vortex_spec(), fp::input_seed(self.variant)),
            _ => (presets::gcc_spec(), fp::input_seed(self.variant)),
        }
    }

    fn probes(&mut self, main: &mut Main) -> Result<(), String> {
        let tracer = &self.on;
        // Probe spans are roots: each probe is one call into one crate.
        let root = 0;
        let (spec, seed) = self.probe_stream();
        let mut m: Vec<(String, f64)> = Vec::new();
        let mut set = |name: &str, v: f64| m.push((name.to_owned(), v));

        let (records, synth_ns) =
            tracer.span("trace.synth", root, 0, |_| probes::synth(&spec, seed, PROBE_RECORDS))?;
        set("trace.synth_ns_per_instr", synth_ns);
        let decode_ns = tracer.span("trace.decode", root, 0, |_| {
            probes::decode(&self.work.join("probe-library"), "probe", &records)
        })?;
        set("trace.decode_ns_per_instr", decode_ns);
        set("trace.records", records.len() as f64);

        let step =
            tracer.span("core.step", root, 0, |_| probes::step(&records, &metrics::SYSTEM_KEYS))?;
        for (key, ns) in &step.per_system {
            set(&format!("core.step_ns_per_instr.{key}"), *ns);
        }
        set("core.build_us", step.build_us);
        set("core.instrs", step.instrs as f64);

        let tlb = tracer.span("tlb.probe", root, 0, |_| probes::tlb(&records))?;
        set("tlb.probe_ns", tlb.probe_ns);
        set("tlb.lookups", tlb.lookups as f64);
        set("tlb.miss_ratio", tlb.miss_ratio);
        let (refills, walks) =
            tracer.span("ptable.refill", root, 0, |_| probes::refill(&tlb.missing))?;
        for (key, ns) in refills {
            set(&format!("ptable.refill_ns.{key}"), ns);
        }
        set("ptable.walks", walks as f64);

        let cache = tracer.span("cache.access", root, 0, |_| probes::cache(&records))?;
        set("cache.access_ns", cache.access_ns);
        set("cache.accesses", cache.accesses as f64);
        set("cache.l1_miss_ratio", cache.l1_miss_ratio);

        let (nop, stats) =
            tracer.span("obs.sink_ratio", root, 0, |_| probes::sink_ratios(&records))?;
        set("obs.nop_sink_ratio", nop);
        set("obs.stats_sink_ratio", stats);

        // The probe grid for the executor, wire and runner layers: the six
        // paper systems on the probe stream at short lengths.
        let probe_specs: Vec<SystemSpec> = SystemKind::PAPER
            .into_iter()
            .map(|k| {
                let mut s = SystemSpec::for_kind(k);
                s.workload = Some(spec.name.clone());
                s.trace_seed = seed;
                s
            })
            .collect();
        let mut grid = SweepPlan::default();
        for s in &probe_specs {
            for mut p in SweepPlan::expand(s, &[])?.points {
                p.index = grid.points.len();
                grid.points.push(p);
            }
        }
        let short = ExecConfig { warmup: 20_000, measure: 80_000, jobs: SWEEP_JOBS };
        let sweeps = match main.sweep.take() {
            Some(s) => s,
            None => {
                let path = self.work.join("probe-journal.jsonl");
                let file =
                    std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let run =
                    sweep::journaled(&grid, &short, &HardenPolicy::default(), file, tracer, root)?;
                vec![run]
            }
        };
        let busy: Vec<f64> = sweeps.iter().map(|s| secs(s.busy())).collect();
        let overhead: Vec<f64> =
            sweeps.iter().map(|s| secs(s.wall) - secs(s.busy()) / SWEEP_JOBS as f64).collect();
        set("explore.point_busy_s", median(&busy).unwrap_or(0.0));
        set("explore.exec_overhead_s", median(&overhead).unwrap_or(0.0));
        let results: Vec<PointResult> = sweeps[0].results();
        let (seal_us, codec_us) =
            tracer.span("explore.seal_codec", root, 0, |_| probes::seal_codec(&results))?;
        set("explore.seal_us", seal_us);
        set("explore.codec_us", codec_us);
        let append_us = tracer.span("harden.journal_append", root, 0, |_| {
            probes::journal_append(&results, &self.work.join("append-journal.jsonl"))
        })?;
        set("harden.journal_append_us", append_us);

        let runner_jobs: Vec<Job> = SystemKind::PAPER
            .into_iter()
            .map(|k| {
                let mut j = Job::new(
                    k.label(),
                    vm_core::SimConfig::paper_default(k),
                    spec.clone(),
                    RunScale { warmup: 20_000, measure: 80_000 },
                );
                j.trace_seed = seed;
                j
            })
            .collect();
        let runner = tracer
            .span("experiments.runner", root, 0, |_| probes::runner_overhead(&runner_jobs))?;
        set("experiments.runner_overhead_s", runner);

        let wire_exec = ExecConfig { warmup: serve::WARMUP, measure: serve::MEASURE, jobs: 1 };
        let (wire_ms, restarts) = tracer.span("supervise.wire", root, 0, |_| {
            probes::wire(&self.args.repro, &grid.points, &wire_exec)
        })?;
        set("supervise.wire_ms", wire_ms);
        set("supervise.restarts", restarts as f64);

        let (serve_run, run_ms) = match main.serve.take() {
            Some(s) => (s, main.serve_run_ms),
            None => {
                let daemon = self.spawn_serve()?;
                let specs = serve::specs(self.variant);
                let run =
                    serve::closed_loop(&daemon.addr, &specs, Duration::from_secs(1), 1, tracer)?;
                self.rss.sample();
                daemon.stop()?;
                (run, self.events_wall_ms())
            }
        };
        let pick = |f: fn(&serve::JobTiming) -> f64| {
            median(&serve_run.jobs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        set("serve.submit_ms", pick(|j| j.submit_ms));
        set("serve.queue_wait_ms", pick(|j| j.queue_wait_ms));
        set("serve.result_ms", pick(|j| j.result_ms));
        set("serve.run_ms", run_ms.unwrap_or(0.0));
        set("serve.shed", serve_run.tally.shed as f64);

        let fleet_run = match main.fleet.take() {
            Some(f) => f,
            None => {
                let daemons = self.spawn_fleet()?;
                let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
                let (plan, exec) = fleet::grid(self.variant)?;
                let run = fleet::sweep(&addrs, &plan, &exec, 2, tracer)?;
                self.rss.sample();
                for d in daemons {
                    d.stop()?;
                }
                run
            }
        };
        set("fleet.dispatch_ms", median(&fleet_run.latency_ms).unwrap_or(0.0));
        set("fleet.useful_ratio", fleet_run.merged as f64 / fleet_run.dispatched.max(1) as f64);
        set("fleet.hedged", fleet_run.hedged as f64);

        for (name, v) in m {
            self.report.set(&name, v);
        }
        self.report.set("failed_frac", self.tally.failed_frac());
        Ok(())
    }

    fn finish(mut self, stamp: &Stamp, main: &Main) -> Result<String, String> {
        let names = if self.args.trace { metrics::per_layer() } else { metrics::end_to_end() };
        if self.args.trace {
            let stats = spans::aggregate(&self.on.spans());
            let by_crate = spans::self_by_crate(&stats);
            for c in metrics::CRATES {
                let ns = by_crate.get(c).copied().unwrap_or(0);
                self.report.set(&format!("self_ms.{c}"), ns as f64 / 1e6);
            }
            self.lines.push("spans (name: count, total ms, self ms):".to_owned());
            for (name, s) in &stats {
                self.lines.push(format!(
                    "  {name}: {}, {:.3}, {:.3}",
                    s.count,
                    s.total as f64 / 1e6,
                    s.self_ns as f64 / 1e6
                ));
            }
        }
        let correct = self.errors.is_empty();
        let out_dir = self.args.root.join(".bench_work").join("results");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace)
        );
        if self.args.trace {
            self.on
                .write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl")))
                .map_err(|e| format!("spans: {e}"))?;
        }
        let line = self.report.result_line(&names, correct, self.tally)?;
        let mut text = String::new();
        text.push_str(&stamp.line());
        text.push('\n');
        for l in &self.lines {
            text.push_str(l);
            text.push('\n');
        }
        for e in &self.errors {
            text.push_str(&format!("ERROR: {e}\n"));
        }
        text.push_str(&format!("units: {} measured\n", main.units.len()));
        for (name, unit) in &names {
            let v = self.report.values.get(name).copied().unwrap_or(f64::NAN);
            text.push_str(&format!("{name} = {v} {unit}\n"));
        }
        let file = vm_obs::json::Value::obj([
            ("env", stamp.to_value()),
            ("report", vm_obs::json::Value::Str(text.clone())),
            ("result", vm_obs::json::parse(&line).map_err(|e| e.to_string())?),
        ]);
        std::fs::write(out_dir.join(format!("{stem}.json")), format!("{file}\n"))
            .map_err(|e| format!("results file: {e}"))?;
        print!("{text}");
        Ok(line)
    }
}

/// Executor jobs of every in-process sweep.
const SWEEP_JOBS: usize = 2;

/// `sweep-replay`'s run lengths: the default scale.
fn replay_exec() -> ExecConfig {
    ExecConfig { jobs: SWEEP_JOBS, ..ExecConfig::DEFAULT }
}

/// The six `specs/*.toml` systems over the `trace:vortex` library
/// trace, times `tlb.entries` (a system without TLBs runs as its base
/// point), as one plan.
fn replay_plan(root: &Path) -> Result<SweepPlan, String> {
    let dir = root.join("specs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    let axes = vec![vm_explore::Axis::parse("tlb.entries=16,32,64,128")?];
    let mut plan = SweepPlan::default();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let mut spec = SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        spec.set("workload.name", "trace:vortex")?;
        let part = SweepPlan::expand(&spec, &axes).or_else(|_| SweepPlan::expand(&spec, &[]))?;
        for mut p in part.points {
            p.index = plan.points.len();
            plan.points.push(p);
        }
    }
    Ok(plan)
}

/// Synthesizes the variant's vortex trace into `library` as `vortex`.
fn export_vortex(library: &Path, variant: u64, instrs: u64) -> Result<(), String> {
    std::fs::create_dir_all(library).map_err(|e| format!("{}: {e}", library.display()))?;
    let gen = presets::vortex_spec()
        .build(fp::input_seed(variant))
        .map_err(|e| format!("vortex: {e}"))?;
    let path = vm_trace::TraceLibrary::new(library).path("vortex");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    vm_trace::write_trace(std::io::BufWriter::new(file), gen.take(instrs as usize))
        .map_err(|e| format!("trace export: {e}"))?;
    Ok(())
}

/// Computes the recorded fingerprints for every workload and input
/// variant in-process and writes them to `perfbench/fingerprints.txt`.
///
/// # Errors
///
/// Returns a message when any reference run fails.
pub fn record(root: &Path) -> Result<(), String> {
    let mut records = Records::default();
    let names = vm_experiments::registry::all_names();
    let pass = paper::pass(&names, &Tracer::new(false))?;
    paper::check_claims(&pass)?;
    records.insert("paper-quick", 0, paper::fingerprint(&pass));
    let work = root.join(".bench_work").join(format!("record-{}", std::process::id()));
    let _scratch = Scratch(work.clone());
    let replay = replay_plan(root)?;
    for variant in 0..fp::VARIANTS {
        let exec = replay_exec();
        let library = work.join("library");
        export_vortex(&library, variant, exec.warmup + exec.measure)?;
        let policy = HardenPolicy { trace_library: Some(library), ..HardenPolicy::default() };
        let outcome = vm_explore::run_sweep_hardened(
            &replay,
            &exec,
            &policy,
            Default::default(),
            &vm_obs::Reporter::silent(),
            &mut vm_obs::NopSink,
            None,
        );
        if !outcome.is_clean() {
            return Err(format!(
                "sweep-replay variant {variant}: {} failed points",
                outcome.failed_count()
            ));
        }
        let results: Vec<PointResult> = outcome.results().cloned().collect();
        records.insert("sweep-replay", variant, fp::of_results(&results));

        let exec = ExecConfig { warmup: serve::WARMUP, measure: serve::MEASURE, jobs: 1 };
        let mut rows = Vec::new();
        for text in serve::specs(variant) {
            let spec = SystemSpec::parse(&text).map_err(|e| e.to_string())?;
            let plan = SweepPlan::expand(&spec, &[])?;
            let out = vm_explore::run_sweep(
                &plan,
                &exec,
                &vm_obs::Reporter::silent(),
                &mut vm_obs::NopSink,
            );
            rows.extend(out.iter().map(fp::row));
        }
        records.insert("serve-closed", variant, fp::of_rows(rows));

        let (plan, exec) = fleet::grid(variant)?;
        let out = vm_explore::run_sweep(
            &plan.plan,
            &exec,
            &vm_obs::Reporter::silent(),
            &mut vm_obs::NopSink,
        );
        records.insert("fleet-sweep", variant, fp::of_results(&out));
    }
    let path = root.join("perfbench/fingerprints.txt");
    std::fs::write(&path, records.render()).map_err(|e| format!("{}: {e}", path.display()))
}
