//! Figure 12 (reconstructed): the cache misses the VM system inflicts on
//! the application.
//!
//! "When one includes the overhead of cache misses inflicted on the
//! application as a result of the VM system displacing user-level code
//! and data, the overhead of the virtual memory system is roughly twice
//! what was previously thought. These numbers are normally not included
//! in VM studies because, to make a comparison, one must execute the
//! application without any virtual memory system" — which is exactly what
//! the BASE simulation provides: the same trace through the same caches
//! with no VM at all. The difference between a VM system's MCPI and
//! BASE's MCPI is pure handler pollution.

use vm_core::cost::CostModel;
use vm_core::{McpiBreakdown, SystemKind};
use vm_trace::WorkloadSpec;

use crate::claim::Claim;
use crate::runner::{paper_grid, run_jobs, RunScale};
use crate::table::TextTable;

/// Parameter space for the inflicted-MCPI experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workloads to measure.
    pub workloads: Vec<WorkloadSpec>,
    /// VM systems to compare against BASE (BASE is added automatically).
    pub systems: Vec<SystemKind>,
    /// Run lengths.
    pub scale: RunScale,
    /// Worker threads.
    pub threads: usize,
}

impl Config {
    /// All five VM systems on the given workloads.
    pub fn paper(workloads: Vec<WorkloadSpec>) -> Config {
        Config {
            workloads,
            systems: SystemKind::VM_SYSTEMS.to_vec(),
            scale: RunScale::DEFAULT,
            threads: 1,
        }
    }
}

/// One measured row: a system's MCPI against the no-VM baseline.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Simulated system.
    pub system: SystemKind,
    /// This system's MCPI breakdown (user references only).
    pub mcpi: McpiBreakdown,
    /// The BASE MCPI for the same workload.
    pub base_mcpi: f64,
    /// VMCPI, for the "roughly twice" comparison.
    pub vmcpi: f64,
}

impl Row {
    /// The cache-miss cycles inflicted on the application by the VM
    /// system (MCPI − MCPI_BASE).
    pub fn inflicted(&self) -> f64 {
        self.mcpi.total() - self.base_mcpi
    }
}

/// The measured experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// All rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Result {
    // BASE leads each workload's systems: their rows read its MCPI.
    let systems = [&[SystemKind::Base][..], &config.systems].concat();
    let jobs = paper_grid(&config.workloads, &systems, config.scale);
    let outcomes = run_jobs(jobs, config.threads);
    let cost = CostModel::default();
    let mut rows = Vec::new();
    let mut base = 0.0;
    for o in &outcomes {
        if o.job.config.system == SystemKind::Base {
            base = o.report.mcpi(&cost).total();
            continue;
        }
        rows.push(Row {
            workload: o.job.workload.name.clone(),
            system: o.job.config.system,
            mcpi: o.report.mcpi(&cost),
            base_mcpi: base,
            vmcpi: o.report.vmcpi(&cost).total(),
        });
    }
    Result { rows }
}

impl Result {
    /// Renders MCPI vs BASE with the inflicted delta.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "workload",
            "system",
            "MCPI",
            "MCPI(BASE)",
            "inflicted",
            "VMCPI",
            "inflicted/VMCPI",
        ]);
        for r in &self.rows {
            t.row([
                r.workload.clone(),
                r.system.label().to_owned(),
                format!("{:.4}", r.mcpi.total()),
                format!("{:.4}", r.base_mcpi),
                format!("{:.4}", r.inflicted()),
                format!("{:.4}", r.vmcpi),
                format!("{:.2}", r.inflicted() / r.vmcpi.max(1e-12)),
            ]);
        }
        t.render()
    }

    /// CSV of all rows.
    pub fn to_csv(&self) -> String {
        let mut t =
            TextTable::new(["workload", "system", "mcpi", "base_mcpi", "inflicted", "vmcpi"]);
        for r in &self.rows {
            t.row([
                r.workload.clone(),
                r.system.label().to_owned(),
                format!("{:.6}", r.mcpi.total()),
                format!("{:.6}", r.base_mcpi),
                format!("{:.6}", r.inflicted()),
                format!("{:.6}", r.vmcpi),
            ]);
        }
        t.to_csv()
    }

    /// Checks the inflicted-miss findings.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        let meaningful: Vec<&Row> = self.rows.iter().filter(|r| r.vmcpi > 1e-4).collect();
        if meaningful.is_empty() {
            return claims;
        }
        let inflated = meaningful.iter().filter(|r| r.inflicted() > 0.0).count();
        claims.push(Claim::new(
            "every VM system inflicts extra cache misses on the application (MCPI > MCPI_BASE)",
            inflated == meaningful.len(),
            format!("{inflated}/{} rows show positive inflicted MCPI", meaningful.len()),
        ));
        // The "roughly twice" result: inflicted misses are on the order of
        // the directly-charged VMCPI (>= 25% of it on average), so adding
        // them roughly doubles the perceived VM overhead.
        let ratio: f64 = meaningful.iter().map(|r| r.inflicted() / r.vmcpi).sum::<f64>()
            / meaningful.len() as f64;
        claims.push(Claim::new(
            "inflicted misses are of the same order as the direct VM overhead (the 'roughly twice' result)",
            ratio > 0.25,
            format!("mean inflicted/VMCPI ratio {ratio:.2}"),
        ));
        // Software handlers executing through the I-cache (NOTLB with its
        // frequent handlers) inflict more than INTEL's invisible walker.
        let mean = |s: SystemKind| {
            let v: Vec<f64> = meaningful
                .iter()
                .filter(|r| r.system == s)
                .map(|r| r.inflicted().max(0.0))
                .collect();
            if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<f64>() / v.len() as f64)
            }
        };
        if let (Some(notlb), Some(intel)) = (mean(SystemKind::NoTlb), mean(SystemKind::Intel)) {
            claims.push(Claim::new(
                "the interrupt-driven NOTLB scheme pollutes the caches more than INTEL's hardware walker",
                notlb > intel,
                format!("mean inflicted MCPI: NOTLB {notlb:.4} vs INTEL {intel:.4}"),
            ));
        }
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_trace::presets;

    fn tiny() -> Config {
        Config {
            workloads: vec![presets::gcc_spec()],
            systems: vec![SystemKind::Ultrix, SystemKind::Intel],
            scale: RunScale { warmup: 20_000, measure: 100_000 },
            threads: 1,
        }
    }

    #[test]
    fn rows_exclude_base_but_reference_it() {
        let r = run(&tiny());
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows.iter().all(|row| row.base_mcpi > 0.0));
        assert!(r.rows.iter().all(|row| row.system != SystemKind::Base));
    }

    #[test]
    fn inflicted_is_mcpi_minus_base() {
        let r = run(&tiny());
        for row in &r.rows {
            assert!((row.inflicted() - (row.mcpi.total() - row.base_mcpi)).abs() < 1e-12);
        }
    }

    #[test]
    fn render_has_the_delta_column() {
        let r = run(&tiny());
        assert!(r.render().contains("inflicted"));
    }

    #[test]
    fn csv_line_count() {
        let r = run(&tiny());
        assert_eq!(r.to_csv().lines().count(), r.rows.len() + 1);
    }
}
