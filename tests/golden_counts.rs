//! Golden counter fingerprints: every counter a [`SimReport`] carries,
//! folded into one FNV-1a digest per (system, workload, variant) row.
//!
//! The rows cover the six paper systems on three workloads plus variants
//! that reach TLB and cache branches the paper configurations never take:
//! a 16-entry TLB (full partitions, evictions, protected churn) under
//! random, LRU and FIFO replacement, 2-way caches, an untagged TLB under
//! a multiprogrammed mix (a flush on every switch), and a flush every
//! 5 000 instructions (a page probed again right after a flush). Any
//! change to what the simulator computes moves at least one digest, and
//! a mismatch names the row. A speed change that is meant to be
//! bit-identical must pass without editing this table.

use jacob_mudge_vm::cache::{Associativity, CacheCounters, HierarchyCounters};
use jacob_mudge_vm::core::{simulate, AsidMode, RawCounts, SimConfig, SimReport, SystemKind};
use jacob_mudge_vm::tlb::{Replacement, TlbCounters};
use jacob_mudge_vm::trace::wire::Fnv1a;
use jacob_mudge_vm::trace::{presets, Multiprogram};

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 80_000;
const SEED: u64 = 1;

/// `(system, workload, variant, digest)`.
const GOLDEN: &[(&str, &str, &str, u64)] = &[
    ("ULTRIX", "gcc", "paper", 0x6dbf_bdee_d1e2_54b2),
    ("ULTRIX", "vortex", "paper", 0x325f_8cb3_1f32_cb97),
    ("ULTRIX", "ijpeg", "paper", 0x5ac1_90d4_b29f_5654),
    ("MACH", "gcc", "paper", 0x7973_55e1_528b_c31c),
    ("MACH", "vortex", "paper", 0x8398_c734_7d09_24f2),
    ("MACH", "ijpeg", "paper", 0x5ac1_90d4_b29f_5654),
    ("INTEL", "gcc", "paper", 0xea4a_bdcb_a7ed_c995),
    ("INTEL", "vortex", "paper", 0x95f0_b1b2_4ca8_f8cd),
    ("INTEL", "ijpeg", "paper", 0x4a90_9b74_43a0_8b77),
    ("PA-RISC", "gcc", "paper", 0x0846_3d03_2f94_ec41),
    ("PA-RISC", "vortex", "paper", 0xd7e2_8245_012f_f985),
    ("PA-RISC", "ijpeg", "paper", 0xfee0_4379_5c49_f489),
    ("NOTLB", "gcc", "paper", 0xdbf0_5d79_1d94_719f),
    ("NOTLB", "vortex", "paper", 0xe6b5_8a7c_5d5f_7510),
    ("NOTLB", "ijpeg", "paper", 0xe596_37ce_49cc_f85c),
    ("BASE", "gcc", "paper", 0xf64a_6328_9ace_9bf6),
    ("BASE", "vortex", "paper", 0xc389_659f_6bea_3ea0),
    ("BASE", "ijpeg", "paper", 0xe77c_dc51_630f_ddfd),
    ("ULTRIX", "gcc", "tlb16", 0x07e0_8c72_0142_877b),
    ("ULTRIX", "vortex", "tlb16", 0xb906_0688_6747_6f4d),
    ("ULTRIX", "ijpeg", "tlb16", 0xcc5b_2600_4d2d_0cbe),
    ("MACH", "gcc", "tlb16", 0x206a_f683_b110_3fda),
    ("INTEL", "gcc", "tlb16", 0x91a6_f9bf_0373_2f66),
    ("INTEL", "gcc", "tlb16-lru", 0x657f_465a_2139_81e0),
    ("INTEL", "vortex", "tlb16-lru", 0xe478_e293_40c1_260b),
    ("INTEL", "ijpeg", "tlb16-lru", 0xa79f_253d_e66e_3687),
    ("ULTRIX", "gcc", "tlb16-lru", 0xbfa0_8d7e_0c90_5436),
    ("INTEL", "gcc", "tlb16-fifo", 0x0810_5ff9_1171_3ef1),
    ("INTEL", "vortex", "tlb16-fifo", 0xe971_0179_3622_1518),
    ("INTEL", "ijpeg", "tlb16-fifo", 0x0df5_ea08_60dc_58e8),
    ("ULTRIX", "gcc", "tlb16-fifo", 0x6829_4664_3f2e_ad3f),
    ("ULTRIX", "gcc", "2way", 0xa242_4fa1_f556_9bf9),
    ("ULTRIX", "vortex", "2way", 0x3bb0_e9d3_b2a3_e2f7),
    ("ULTRIX", "ijpeg", "2way", 0x9ac9_9f02_2e17_0b52),
    ("ULTRIX", "gcc+ijpeg", "untagged", 0xf2fa_d975_7fcb_19d9),
    ("INTEL", "gcc+ijpeg", "untagged", 0x443f_0ac6_ff83_7ca8),
    ("ULTRIX", "gcc", "flush5k", 0x0546_9746_9dfc_4ec0),
    ("INTEL", "gcc", "flush5k", 0x89fd_8028_06a9_4f9a),
    ("INTEL", "vortex", "flush5k", 0x7d52_b1a4_6500_f99f),
];

fn config(system: &str, variant: &str) -> SimConfig {
    let system = SystemKind::from_label(system).expect("a known system");
    let mut cfg = SimConfig::paper_default(system);
    match variant {
        "paper" => {}
        "tlb16" => cfg.tlb_entries = 16,
        "tlb16-lru" => (cfg.tlb_entries, cfg.tlb_replacement) = (16, Replacement::Lru),
        "tlb16-fifo" => (cfg.tlb_entries, cfg.tlb_replacement) = (16, Replacement::Fifo),
        "2way" => cfg.associativity = Associativity::Ways(2),
        "untagged" => cfg.asid_mode = AsidMode::Untagged,
        "flush5k" => cfg.flush_tlb_every = Some(5_000),
        other => panic!("unknown variant {other}"),
    }
    cfg
}

fn run(cfg: &SimConfig, workload: &str) -> SimReport {
    let report = match workload {
        "gcc" => simulate(cfg, presets::gcc(SEED), WARMUP, MEASURE),
        "vortex" => simulate(cfg, presets::vortex(SEED), WARMUP, MEASURE),
        "ijpeg" => simulate(cfg, presets::ijpeg(SEED), WARMUP, MEASURE),
        "gcc+ijpeg" => {
            let mix = vec![presets::gcc_spec(), presets::ijpeg_spec()];
            let trace = Multiprogram::new(mix, 5_000, SEED).expect("presets are valid");
            simulate(cfg, trace, WARMUP, MEASURE)
        }
        other => panic!("unknown workload {other}"),
    };
    report.expect("golden configurations build")
}

/// FNV-1a over every counter of `report`, each as a little-endian `u64`:
/// `RawCounts` in declaration order, then the I-TLB and D-TLB counters
/// (a presence word first), then the I-side and D-side cache counters.
/// The patterns are exhaustive, so a new counter field does not compile
/// here until it is hashed.
fn digest(report: &SimReport) -> u64 {
    let RawCounts {
        user_instrs,
        user_loads,
        user_stores,
        l1i_misses,
        l2i_misses,
        l1d_misses,
        l2d_misses,
        handler_invocations,
        handler_instr_cycles,
        inline_cycles,
        pte_loads,
        pte_l2,
        pte_mem,
        handler_ifetch_l2,
        handler_ifetch_mem,
        interrupts,
        tlb_flushes,
    } = report.counts;
    let mut words =
        vec![user_instrs, user_loads, user_stores, l1i_misses, l2i_misses, l1d_misses, l2d_misses];
    for level in
        [handler_invocations, handler_instr_cycles, inline_cycles, pte_loads, pte_l2, pte_mem]
    {
        words.extend(level);
    }
    words.extend([handler_ifetch_l2, handler_ifetch_mem]);
    words.extend(interrupts);
    words.push(tlb_flushes);
    for tlb in [report.itlb, report.dtlb] {
        let TlbCounters { lookups, hits, insertions, evictions } = tlb.unwrap_or_default();
        words.extend([u64::from(tlb.is_some()), lookups, hits, insertions, evictions]);
    }
    for HierarchyCounters { l1, l2 } in [report.icache, report.dcache] {
        for CacheCounters { accesses, hits } in [l1, l2] {
            words.extend([accesses, hits]);
        }
    }
    words.push(u64::from(report.unified_l2));
    let mut h = Fnv1a::new();
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.digest()
}

#[test]
fn every_counter_matches_its_golden_digest() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(label, workload, variant, expected)| {
            let actual = digest(&run(&config(label, variant), workload));
            (actual != expected).then(|| {
                format!(
                    "{label} / {workload} / {variant}: expected {expected:#018x}, actual {actual:#018x}"
                )
            })
        })
        .collect();
    assert!(mismatches.is_empty(), "golden counter digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn the_table_covers_every_paper_system_and_variant() {
    for s in SystemKind::PAPER {
        for w in ["gcc", "vortex", "ijpeg"] {
            assert!(
                GOLDEN.iter().any(|&(l, wl, v, _)| l == s.label() && wl == w && v == "paper"),
                "no paper row for {} / {w}",
                s.label()
            );
        }
    }
    for v in ["tlb16", "tlb16-lru", "tlb16-fifo", "2way", "untagged", "flush5k"] {
        assert!(GOLDEN.iter().any(|&(_, _, var, _)| var == v), "no {v} row");
    }
}
