//! The multiprogramming experiment: ASID-tagged vs untagged TLBs under
//! round-robin process scheduling.
//!
//! The paper's traces are single-process, but two of its threads point
//! here: the interrupt-cost discussion (context switches multiply
//! software-TLB work) and the virtual-cache caveat ("the need to
//! maintain ASIDs ... with the cache tags"). This experiment runs a
//! process mix under both TLB designs across scheduling quanta:
//!
//! * **Tagged** (MIPS-style): TLB entries carry the owning ASID and
//!   survive switches — the only cost of a switch is whatever re-use the
//!   processes steal from each other.
//! * **Untagged** (period x86-style): both TLBs flush on every switch,
//!   so each quantum starts translation-cold.

use vm_core::cost::CostModel;
use vm_core::{simulate, AsidMode, SimConfig, SystemKind};
use vm_explore::run_items;
use vm_obs::Reporter;
use vm_trace::{Multiprogram, WorkloadSpec};

use crate::claim::Claim;
use crate::runner::RunScale;
use crate::table::TextTable;

/// Parameter space for the multiprogramming experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// The process mix (each entry is one process).
    pub mix: Vec<WorkloadSpec>,
    /// Scheduling quanta to sweep, in instructions.
    pub quanta: Vec<u64>,
    /// Systems to measure (TLB-based ones; others see no difference).
    pub systems: Vec<SystemKind>,
    /// Run lengths.
    pub scale: RunScale,
    /// Worker threads.
    pub threads: usize,
}

impl Config {
    /// A gcc + vortex + ijpeg mix on ULTRIX and INTEL over three quanta.
    pub fn default_mix(mix: Vec<WorkloadSpec>) -> Config {
        Config {
            mix,
            quanta: vec![500_000, 100_000, 20_000],
            systems: vec![SystemKind::Ultrix, SystemKind::Intel],
            scale: RunScale::DEFAULT,
            threads: 1,
        }
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Simulated system.
    pub system: SystemKind,
    /// Scheduling quantum.
    pub quantum: u64,
    /// TLB ASID handling.
    pub mode: AsidMode,
    /// VMCPI + interrupt CPI at the default cost.
    pub vm_total: f64,
    /// Combined TLB miss ratio.
    pub tlb_miss_ratio: f64,
    /// Whole-TLB flushes during the measured window.
    pub flushes: u64,
}

/// The measured experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// Names of the processes in the mix.
    pub mix: Vec<String>,
    /// All rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the mix is empty or a preset fails to build — experiment
/// definitions use validated presets.
pub fn run(config: &Config) -> Result {
    let cost = CostModel::default();
    let mut cells = Vec::new();
    for &system in &config.systems {
        for &quantum in &config.quanta {
            for mode in [AsidMode::Tagged, AsidMode::Untagged] {
                cells.push((format!("{system}/q{quantum}/{mode:?}"), system, quantum, mode));
            }
        }
    }
    let instrs = |_: &_| config.scale.warmup + config.scale.measure;
    let rows = run_items(&cells, config.threads, &Reporter::global(), "sweep", instrs, |cell| {
        let (label, system, quantum, mode) = cell;
        let trace = Multiprogram::new(config.mix.clone(), *quantum, 42)
            .expect("experiment mixes use validated presets");
        let mut sim = SimConfig::paper_default(*system);
        sim.asid_mode = *mode;
        let report = simulate(&sim, trace, config.scale.warmup, config.scale.measure)
            .expect("paper defaults always build");
        let row = Row {
            system: *system,
            quantum: *quantum,
            mode: *mode,
            vm_total: report.vmcpi(&cost).total() + report.interrupt_cpi(&cost),
            tlb_miss_ratio: report.tlb_miss_ratio(),
            flushes: report.counts.tlb_flushes,
        };
        Some((row, label.as_str(), "done"))
    });
    Result {
        mix: config.mix.iter().map(|w| w.name.clone()).collect(),
        rows: rows.into_iter().map(|row| row.expect("no row is declined")).collect(),
    }
}

impl Result {
    /// Renders the tagged-vs-untagged comparison.
    pub fn render(&self) -> String {
        let mut t =
            TextTable::new(["system", "quantum", "TLB", "VM total", "miss ratio", "flushes"]);
        for r in &self.rows {
            t.row([
                r.system.label().to_owned(),
                r.quantum.to_string(),
                match r.mode {
                    AsidMode::Tagged => "tagged".to_owned(),
                    AsidMode::Untagged => "untagged".to_owned(),
                },
                format!("{:.5}", r.vm_total),
                format!("{:.5}", r.tlb_miss_ratio),
                r.flushes.to_string(),
            ]);
        }
        format!("process mix: {}\n{}", self.mix.join(" + "), t.render())
    }

    /// CSV of all rows.
    pub fn to_csv(&self) -> String {
        let mut t =
            TextTable::new(["system", "quantum", "mode", "vm_total", "tlb_miss_ratio", "flushes"]);
        for r in &self.rows {
            t.row([
                r.system.label().to_owned(),
                r.quantum.to_string(),
                format!("{:?}", r.mode),
                format!("{:.6}", r.vm_total),
                format!("{:.6}", r.tlb_miss_ratio),
                r.flushes.to_string(),
            ]);
        }
        t.to_csv()
    }

    /// Checks the multiprogramming expectations.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        let of = |system: SystemKind, quantum: u64, mode: AsidMode| {
            self.rows
                .iter()
                .find(|r| r.system == system && r.quantum == quantum && r.mode == mode)
                .map(|r| r.vm_total)
        };
        let mut quanta: Vec<u64> = self.rows.iter().map(|r| r.quantum).collect();
        quanta.sort_unstable();
        quanta.dedup();
        // 1. At the shortest quantum, flushing on every switch costs
        //    substantially more than keeping tagged entries. (At long
        //    quanta the comparison can *invert*: descheduled processes'
        //    stale entries pollute a tagged TLB, while a flushed TLB
        //    hands the running process all 128 slots — a crossover this
        //    experiment exists to expose.)
        if let Some(&shortest) = quanta.first() {
            let mut untagged_much_worse = 0;
            let mut comparisons = 0;
            for &system in &[SystemKind::Ultrix, SystemKind::Intel] {
                if let (Some(t), Some(u)) = (
                    of(system, shortest, AsidMode::Tagged),
                    of(system, shortest, AsidMode::Untagged),
                ) {
                    comparisons += 1;
                    if u > 1.3 * t {
                        untagged_much_worse += 1;
                    }
                }
            }
            if comparisons > 0 {
                claims.push(Claim::new(
                    format!(
                        "at {shortest}-instruction quanta, flushing on switch costs >1.3x the ASID-tagged TLB"
                    ),
                    untagged_much_worse == comparisons,
                    format!("{untagged_much_worse}/{comparisons} systems show the blow-up"),
                ));
            }
        }
        if quanta.len() >= 2 {
            let (fast, slow) = (quanta[0], *quanta.last().unwrap());
            if let (Some(tf), Some(uf), Some(ts), Some(us)) = (
                of(SystemKind::Ultrix, fast, AsidMode::Tagged),
                of(SystemKind::Ultrix, fast, AsidMode::Untagged),
                of(SystemKind::Ultrix, slow, AsidMode::Tagged),
                of(SystemKind::Ultrix, slow, AsidMode::Untagged),
            ) {
                let gap_fast = uf / tf.max(1e-12);
                let gap_slow = us / ts.max(1e-12);
                claims.push(Claim::new(
                    "the ASID advantage grows as scheduling quanta shrink",
                    gap_fast > gap_slow,
                    format!(
                        "untagged/tagged ratio: {gap_fast:.2} at {fast}-instr quanta vs {gap_slow:.2} at {slow}"
                    ),
                ));
            }
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
            mix: vec![presets::ijpeg_spec(), presets::compress_spec()],
            quanta: vec![5_000, 50_000],
            systems: vec![SystemKind::Ultrix],
            scale: RunScale { warmup: 30_000, measure: 150_000 },
            threads: 1,
        }
    }

    #[test]
    fn produces_a_row_per_cell() {
        let r = run(&tiny());
        assert_eq!(r.rows.len(), 2 * 2); // 2 quanta x 2 modes
        assert_eq!(r.mix, ["ijpeg", "compress"]);
    }

    #[test]
    fn untagged_mode_flushes_tagged_does_not() {
        let r = run(&tiny());
        for row in &r.rows {
            match row.mode {
                AsidMode::Tagged => assert_eq!(row.flushes, 0, "{row:?}"),
                AsidMode::Untagged => assert!(row.flushes > 0, "{row:?}"),
            }
        }
    }

    #[test]
    fn untagged_misses_more_at_small_quanta() {
        let r = run(&tiny());
        let tagged =
            r.rows.iter().find(|x| x.quantum == 5_000 && x.mode == AsidMode::Tagged).unwrap();
        let untagged =
            r.rows.iter().find(|x| x.quantum == 5_000 && x.mode == AsidMode::Untagged).unwrap();
        assert!(
            untagged.tlb_miss_ratio > tagged.tlb_miss_ratio,
            "untagged {untagged:?} vs tagged {tagged:?}"
        );
    }

    #[test]
    fn render_and_csv() {
        let r = run(&tiny());
        assert!(r.render().contains("ijpeg + compress"));
        assert_eq!(r.to_csv().lines().count(), r.rows.len() + 1);
    }
}
