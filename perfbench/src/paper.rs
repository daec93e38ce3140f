//! The `paper-quick` workload: every `repro all` experiment at quick
//! scale through the `vm-experiments` drivers, with the drivers' fixed
//! trace seeds.

use vm_core::SystemKind;
use vm_experiments::{
    ablations, fig6, fig8, interrupts, mcpi, multiprog, registry, suite, tables, tlbsize, total,
    Claim, RunScale,
};
use vm_trace::presets;
use vm_types::SplitMix64;

use crate::spans::Tracer;

/// Simulation threads the drivers use.
pub const THREADS: usize = 2;

/// The claims quick scale is expected to miss: the NOTLB-sensitivity
/// claim of fig6 and of fig7 (the quick grid is too small for NOTLB's
/// spread to reach 1.5x ULTRIX's).
pub const EXPECTED_FAILS: [(&str, &str); 2] = [
    ("fig6", "NOTLB is much more sensitive to cache organization than TLB-based schemes"),
    ("fig7", "NOTLB is much more sensitive to cache organization than TLB-based schemes"),
];

/// Claims quick scale checks in total.
pub const EXPECTED_CLAIMS: usize = 41;

/// One experiment's output.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The registry name.
    pub name: String,
    /// The CSV (or, for `tables`, the rendered text) it produced.
    pub csv: String,
    /// The paper claims it checked.
    pub claims: Vec<Claim>,
    /// Simulations it ran.
    pub sims: u64,
}

/// The trace seed every driver job uses (`Job::new`'s default).
pub fn driver_trace_seed() -> u64 {
    let cfg = vm_core::SimConfig::paper_default(SystemKind::Base);
    vm_experiments::Job::new("", cfg, presets::gcc_spec(), RunScale::QUICK).trace_seed
}

/// Simulated instructions per quick-scale simulation.
pub fn instrs_per_sim() -> u64 {
    RunScale::QUICK.warmup + RunScale::QUICK.measure
}

/// The experiments of `repro all`, in an order shuffled by `seed` (the
/// order changes nothing but when each runs).
pub fn order(seed: u64) -> Vec<String> {
    let mut names = registry::all_names();
    let mut rng = SplitMix64::new(seed);
    for i in (1..names.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        names.swap(i, j);
    }
    names
}

/// Runs one experiment the way `repro <name> --quick --threads 2` does
/// (minus the printing).
///
/// # Errors
///
/// Returns a message for a name the registry lists but this benchmark
/// has no driver call for.
pub fn run_experiment(name: &str) -> Result<(String, Vec<Claim>, u64), String> {
    let scale = RunScale::QUICK;
    let gcc_vortex = || vec![presets::gcc_spec(), presets::vortex_spec()];
    Ok(match name {
        "tables" => (tables::render_all(), Vec::new(), 0),
        "fig6" | "fig7" => {
            let w = if name == "fig6" { presets::gcc_spec() } else { presets::vortex_spec() };
            let mut cfg = fig6::Config::quick(w);
            cfg.scale = scale;
            cfg.threads = THREADS;
            let sims =
                cfg.systems.len() * cfg.l2_sizes.len() * cfg.line_pairs.len() * cfg.l1_sizes.len();
            let r = fig6::run(&cfg);
            (r.to_csv(), r.claims(), sims as u64)
        }
        "fig8" | "fig9" => {
            let w = if name == "fig8" { presets::gcc_spec() } else { presets::vortex_spec() };
            let mut cfg = fig8::Config::quick(w);
            cfg.scale = scale;
            cfg.threads = THREADS;
            let sims = cfg.systems.len() * cfg.l2_sizes.len() * cfg.l1_sizes.len();
            let r = fig8::run(&cfg);
            (r.to_csv(), r.claims(), sims as u64)
        }
        "fig10" => {
            let mut cfg = interrupts::Config::paper(presets::paper_benchmarks());
            cfg.scale = scale;
            cfg.threads = THREADS;
            let sims = cfg.workloads.len() * cfg.systems.len();
            let r = interrupts::run(&cfg);
            (r.to_csv(), r.claims(), sims as u64)
        }
        "fig11" => {
            let mut cfg = tlbsize::Config::paper(gcc_vortex());
            cfg.scale = scale;
            cfg.threads = THREADS;
            let sims = cfg.workloads.len() * cfg.systems.len() * cfg.entries.len();
            let r = tlbsize::run(&cfg);
            (r.to_csv(), r.claims(), sims as u64)
        }
        "fig12" => {
            let mut cfg = mcpi::Config::paper(presets::paper_benchmarks());
            cfg.scale = scale;
            cfg.threads = THREADS;
            // One BASE run per workload plus one per system.
            let sims = cfg.workloads.len() * (1 + cfg.systems.len());
            let r = mcpi::run(&cfg);
            (r.to_csv(), r.claims(), sims as u64)
        }
        "fig13" => {
            let mut cfg = total::Config::paper(presets::paper_benchmarks());
            cfg.scale = scale;
            cfg.threads = THREADS;
            let sims = cfg.workloads.len() * (1 + cfg.systems.len());
            let r = total::run(&cfg);
            (r.to_csv(), r.claims(), sims as u64)
        }
        "suite" => {
            let mut cfg = suite::Config::default_suite(presets::all_benchmarks());
            cfg.scale = scale;
            cfg.threads = THREADS;
            let sims = cfg.workloads.len() * cfg.systems.len() * cfg.seeds.len();
            let r = suite::run(&cfg);
            (r.to_csv(), r.claims(), sims as u64)
        }
        "abl-mp" => {
            let mix = vec![presets::gcc_spec(), presets::vortex_spec(), presets::ijpeg_spec()];
            let mut cfg = multiprog::Config::default_mix(mix);
            cfg.scale = scale;
            let r = multiprog::run(&cfg);
            (r.to_csv(), r.claims(), r.rows.len() as u64)
        }
        other => {
            let ablation = ablations::Ablation::ALL
                .into_iter()
                .find(|a| a.name() == other)
                .ok_or_else(|| format!("experiment `{other}` has no driver call here"))?;
            let mut cfg = ablations::Config::new(ablation, gcc_vortex());
            cfg.scale = scale;
            cfg.threads = THREADS;
            let r = ablations::run(&cfg);
            (r.to_csv(), r.claims(), r.rows.len() as u64)
        }
    })
}

/// Runs one pass over `names`, each experiment inside a span under a
/// pass span.
///
/// # Errors
///
/// Propagates [`run_experiment`] failures.
pub fn pass(names: &[String], tracer: &Tracer) -> Result<Vec<Experiment>, String> {
    tracer.span("experiments.pass", 0, 0, |pass_id| {
        let mut out = Vec::with_capacity(names.len());
        for (ix, name) in names.iter().enumerate() {
            let (csv, claims, sims) =
                tracer.span(&format!("experiments.{name}"), pass_id, ix as u64, |_| {
                    run_experiment(name)
                })?;
            out.push(Experiment { name: name.clone(), csv, claims, sims });
        }
        Ok(out)
    })
}

/// FNV-1a over every experiment's CSV rows, in registry order (so the
/// fingerprint does not depend on the seed-shuffled run order).
pub fn fingerprint(experiments: &[Experiment]) -> u64 {
    let mut rows = Vec::new();
    for name in registry::all_names() {
        if let Some(e) = experiments.iter().find(|e| e.name == name) {
            rows.push(format!("# {name}"));
            rows.extend(e.csv.lines().map(str::to_owned));
        }
    }
    crate::fp::of_rows(rows)
}

/// Checks the claims: exactly [`EXPECTED_CLAIMS`], all holding except
/// the two named in [`EXPECTED_FAILS`]. Returns the passing count.
///
/// # Errors
///
/// Names every unexpected failure, unexpected pass, or count mismatch.
pub fn check_claims(experiments: &[Experiment]) -> Result<usize, String> {
    let mut problems = Vec::new();
    let mut total = 0;
    let mut passed = 0;
    let mut failed = Vec::new();
    for e in experiments {
        for c in &e.claims {
            total += 1;
            if c.holds {
                passed += 1;
            } else {
                failed.push((e.name.as_str(), c.statement.as_str()));
            }
        }
    }
    if total != EXPECTED_CLAIMS {
        problems.push(format!("{total} claims checked, expected {EXPECTED_CLAIMS}"));
    }
    for f in &failed {
        if !EXPECTED_FAILS.contains(f) {
            problems.push(format!("unexpected failing claim in {}: {}", f.0, f.1));
        }
    }
    for want in EXPECTED_FAILS {
        if !failed.contains(&want) {
            problems.push(format!(
                "claim expected to fail at quick scale passed in {}: {}",
                want.0, want.1
            ));
        }
    }
    if problems.is_empty() {
        Ok(passed)
    } else {
        Err(problems.join("; "))
    }
}

/// The drivers' fixed-seed input streams (all six presets at the trace
/// seed every experiment job uses), synthesized at quick length and
/// fingerprinted: the benchmark's set-up for this workload.
///
/// # Errors
///
/// Returns a message when a preset does not build.
pub fn input_fingerprint() -> Result<u64, String> {
    let mut h = vm_trace::wire::Fnv1a::new();
    for spec in presets::all_benchmarks() {
        let gen = spec.build(driver_trace_seed()).map_err(|e| format!("{}: {e}", spec.name))?;
        for rec in gen.take(instrs_per_sim() as usize) {
            h.update(&rec.pc.raw().to_le_bytes());
            if let Some(d) = rec.data {
                h.update(&d.addr.raw().to_le_bytes());
            }
        }
    }
    Ok(h.digest())
}
