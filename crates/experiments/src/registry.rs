//! The experiment table: one row per `repro` experiment, holding its
//! name, its `--help` line, whether `repro all` runs it, and the driver
//! call that runs it. `--help`, name validation, the `figs` and `all`
//! groups and `repro`'s runner all read this one table, so adding an
//! experiment means one row here plus its driver module.

use std::sync::Arc;

use vm_trace::{presets, WorkloadSpec};

use crate::ablations::{self, Ablation};
use crate::{fig6, fig8, interrupts, mcpi, multiprog, suite, tables, telemetry, tlbsize, total};
use crate::{Claim, Reporter, RunScale};

/// How `repro` runs an experiment: the flags its drivers read.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Run lengths (`--quick`, `--full`, or the default scale).
    pub scale: RunScale,
    /// Simulation threads (`--threads`).
    pub threads: usize,
    /// The `--workload` that fig6-fig9 and telemetry run instead of
    /// their own.
    pub workload: Option<WorkloadSpec>,
    /// Whether the telemetry pass keeps its JSONL events (`--events`).
    pub events: bool,
    /// Whether the telemetry pass keeps its Chrome trace
    /// (`--chrome-trace`).
    pub chrome: bool,
}

/// What one experiment produced.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Its report for stdout, which `repro` follows with a blank line.
    pub text: String,
    /// Its CSV, written as `<name>.csv` under `--out`; `tables` has none.
    pub csv: Option<String>,
    /// The paper claims it checked.
    pub claims: Vec<Claim>,
    /// The telemetry pass's JSONL events, when asked for.
    pub events: Option<Vec<u8>>,
    /// The telemetry pass's Chrome trace, when asked for.
    pub chrome: Option<Vec<u8>>,
}

impl Output {
    /// A driver's rendered table, its CSV and its claims, whose verdicts
    /// follow the table on stdout.
    fn figure(table: String, csv: String, claims: Vec<Claim>) -> Output {
        let text = format!("{table}\n{}", Claim::render_all(&claims));
        Output { text, csv: Some(csv), claims, ..Output::default() }
    }
}

/// One experiment: how the CLI names and presents it, and its driver.
#[derive(Clone)]
pub struct Experiment {
    /// The CLI name (`fig6`, `abl-tlb`, `telemetry`, ...).
    pub name: &'static str,
    /// One-line description for `--help`.
    pub help: &'static str,
    /// Whether `repro all` includes it. (`telemetry` is excluded: it is
    /// implied by `--events`/`--chrome-trace` instead.)
    pub in_all: bool,
    /// Runs the experiment, announcing it on stderr first.
    pub run: Arc<dyn Fn(&Settings) -> Output + Send + Sync>,
}

impl Experiment {
    fn new(
        name: &'static str,
        help: &'static str,
        run: impl Fn(&Settings) -> Output + Send + Sync + 'static,
    ) -> Experiment {
        Experiment { name, help, in_all: true, run: Arc::new(run) }
    }
}

/// Runs driver module `$driver` on `$config` at `$settings`' scale and
/// threads. Every driver's `Config` has both fields, and its `run`
/// returns a result that renders, exports a CSV and checks claims.
macro_rules! drive {
    ($driver:ident, $config:expr, $settings:expr) => {{
        let mut config = $config;
        config.scale = $settings.scale;
        config.threads = $settings.threads;
        let r = $driver::run(&config);
        Output::figure(r.render(), r.to_csv(), r.claims())
    }};
}

/// fig6 and fig7: VMCPI over the cache grid, on `--workload` or
/// `default`.
fn cache_grid(name: &str, default: fn() -> WorkloadSpec, s: &Settings) -> Output {
    let workload = s.workload.clone().unwrap_or_else(default);
    Reporter::global().progress(format!(
        "== {name}: VMCPI vs L1/L2 cache size and line size — {} ==",
        workload.name
    ));
    let config = if s.scale == RunScale::QUICK {
        fig6::Config::quick(workload)
    } else {
        fig6::Config::paper(workload)
    };
    drive!(fig6, config, s)
}

/// fig8 and fig9: VMCPI break-downs, on `--workload` or `default`.
fn breakdown(name: &str, default: fn() -> WorkloadSpec, s: &Settings) -> Output {
    let workload = s.workload.clone().unwrap_or_else(default);
    Reporter::global().progress(format!(
        "== {name}: VMCPI break-downs — {} (64/128-byte lines) ==",
        workload.name
    ));
    let config = if s.scale == RunScale::QUICK {
        fig8::Config::quick(workload)
    } else {
        fig8::Config::paper(workload)
    };
    drive!(fig8, config, s)
}

/// The instrumented pass over the paper systems, on `--workload` or gcc.
fn instrumented(s: &Settings) -> Output {
    let workload = s.workload.clone().unwrap_or_else(presets::gcc_spec);
    Reporter::global().progress(format!(
        "== telemetry: instrumented pass over the paper systems — {} ==",
        workload.name
    ));
    let config = telemetry::Config::paper_systems(workload, s.scale);
    let t = telemetry::run(&config, s.events, s.chrome, &Reporter::global());
    Output {
        text: format!("{}\n", t.render_summary()),
        events: t.events_jsonl,
        chrome: t.chrome_trace,
        ..Output::default()
    }
}

/// Every experiment, in `repro all` execution order (entries with
/// `in_all = false` sort last).
pub fn experiments() -> Vec<Experiment> {
    let gcc_vortex = || vec![presets::gcc_spec(), presets::vortex_spec()];
    let mut list = vec![
        Experiment::new("tables", "Tables 1-4: cost parameters and system survey", |_| {
            Reporter::global().progress("== tables: cost parameters and system survey ==");
            Output { text: format!("{}\n", tables::render_all()), ..Output::default() }
        }),
        Experiment::new("fig6", "VMCPI vs cache organization (gcc)", |s| {
            cache_grid("fig6", presets::gcc_spec, s)
        }),
        Experiment::new("fig7", "VMCPI vs cache organization (vortex)", |s| {
            cache_grid("fig7", presets::vortex_spec, s)
        }),
        Experiment::new("fig8", "VMCPI component breakdown (gcc)", |s| {
            breakdown("fig8", presets::gcc_spec, s)
        }),
        Experiment::new("fig9", "VMCPI component breakdown (vortex)", |s| {
            breakdown("fig9", presets::vortex_spec, s)
        }),
        Experiment::new("fig10", "interrupt-cost sensitivity (all benchmarks)", |s| {
            Reporter::global().progress("== fig10: the cost of precise interrupts ==");
            drive!(interrupts, interrupts::Config::paper(presets::paper_benchmarks()), s)
        }),
        Experiment::new("fig11", "TLB-size sensitivity", move |s| {
            Reporter::global().progress("== fig11: TLB-size sensitivity ==");
            drive!(tlbsize, tlbsize::Config::paper(gcc_vortex()), s)
        }),
        Experiment::new("fig12", "MCPI inflicted on the application", |s| {
            Reporter::global().progress("== fig12: cache misses inflicted on the application ==");
            drive!(mcpi, mcpi::Config::paper(presets::paper_benchmarks()), s)
        }),
        Experiment::new("fig13", "total VM overhead (the 5-10% -> 10-30% result)", |s| {
            Reporter::global().progress("== fig13: total VM overhead ==");
            drive!(total, total::Config::paper(presets::paper_benchmarks()), s)
        }),
        Experiment::new("suite", "six workloads x five systems, seed-replicated", |s| {
            Reporter::global()
                .progress("== suite: six workloads x five systems, seed-replicated ==");
            drive!(suite, suite::Config::default_suite(presets::all_benchmarks()), s)
        }),
    ];
    for ablation in Ablation::ALL {
        list.push(Experiment::new(ablation.name(), ablation.describe(), move |s| {
            Reporter::global().progress(format!("== {} ==", ablation.name()));
            drive!(ablations, ablations::Config::new(ablation, gcc_vortex()), s)
        }));
    }
    list.push(Experiment::new("abl-mp", "multiprogramming: ASID-tagged vs untagged TLBs", |s| {
        Reporter::global()
            .progress("== abl-mp: multiprogramming — ASID-tagged vs untagged TLBs ==");
        let mix = vec![presets::gcc_spec(), presets::vortex_spec(), presets::ijpeg_spec()];
        drive!(multiprog, multiprog::Config::default_mix(mix), s)
    }));
    list.push(Experiment {
        in_all: false,
        ..Experiment::new(
            "telemetry",
            "instrumented pass: walk-latency histograms per system",
            instrumented,
        )
    });
    list
}

/// The experiments `names` ask for, in order. A name is an experiment,
/// `figs` (fig6..fig13) or `all`.
///
/// # Errors
///
/// Names the first word that is none of these.
pub fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    let list = experiments();
    let mut picked = Vec::new();
    for name in names {
        let group: Vec<&Experiment> = match name.as_str() {
            "figs" => list.iter().filter(|e| e.name.starts_with("fig")).collect(),
            "all" => list.iter().filter(|e| e.in_all).collect(),
            one => list.iter().filter(|e| e.name == one).collect(),
        };
        if group.is_empty() {
            return Err(format!("unknown experiment `{name}` (known: {})", name_line()));
        }
        picked.extend(group.into_iter().cloned());
    }
    Ok(picked)
}

/// The names `repro all` runs, in order.
pub fn all_names() -> Vec<String> {
    experiments().into_iter().filter(|e| e.in_all).map(|e| e.name.to_owned()).collect()
}

/// The one-line experiment list for usage/error messages.
fn name_line() -> String {
    let names: Vec<&str> = experiments().iter().map(|e| e.name).collect();
    format!("{} figs all", names.join(" "))
}

/// The indented per-experiment help block for `--help`.
pub fn help_block() -> String {
    let list = experiments();
    let width = list.iter().map(|e| e.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for e in &list {
        out.push_str(&format!("  {:<width$}  {}\n", e.name, e.help));
    }
    out.push_str(&format!("  {:<width$}  fig6..fig13\n", "figs"));
    out.push_str(&format!("  {:<width$}  every experiment above except telemetry\n", "all"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[Experiment]) -> Vec<&'static str> {
        list.iter().map(|e| e.name).collect()
    }

    fn select_one(name: &str) -> Result<Vec<Experiment>, String> {
        select(&[name.to_owned()])
    }

    #[test]
    fn every_ablation_is_registered() {
        for ablation in Ablation::ALL {
            assert_eq!(names(&select_one(ablation.name()).unwrap()), [ablation.name()]);
        }
    }

    #[test]
    fn telemetry_is_listed_but_not_in_all() {
        assert_eq!(names(&select_one("telemetry").unwrap()), ["telemetry"]);
        assert!(!all_names().contains(&"telemetry".to_owned()));
        assert!(help_block().contains("telemetry"));
        assert!(name_line().contains("telemetry"));
    }

    #[test]
    fn all_order_is_tables_figs_suite_ablations_mp() {
        let all = all_names();
        assert_eq!(all[0], "tables");
        assert_eq!(
            &all[1..9],
            ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"]
        );
        assert_eq!(names(&select_one("figs").unwrap()), all[1..9]);
        assert_eq!(all[9], "suite");
        assert_eq!(all[10..16].to_vec(), Ablation::ALL.map(|a| a.name().to_owned()).to_vec());
        assert_eq!(all[16], "abl-mp");
        assert_eq!(all.len(), 17);
        assert_eq!(names(&select_one("all").unwrap()), all);
    }

    #[test]
    fn groups_expand_in_place_and_unknown_names_are_refused() {
        let words = ["fig10", "figs", "tables", "fig10"].map(str::to_owned);
        let picked = names(&select(&words).unwrap());
        assert_eq!(picked.len(), 11);
        assert_eq!(
            (picked[0], picked[1], picked[9], picked[10]),
            ("fig10", "fig6", "tables", "fig10")
        );
        let e = select_one("fig").err().unwrap();
        assert_eq!(e, format!("unknown experiment `fig` (known: {})", name_line()));
    }

    #[test]
    fn tables_prints_its_text_and_writes_no_csv() {
        let settings = Settings {
            scale: RunScale::QUICK,
            threads: 1,
            workload: None,
            events: false,
            chrome: false,
        };
        let out = (select_one("tables").unwrap()[0].run)(&settings);
        assert_eq!(out.text, format!("{}\n", tables::render_all()));
        assert!(out.csv.is_none() && out.claims.is_empty() && out.events.is_none());
    }
}
