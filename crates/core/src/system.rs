//! System presets (Table 1's architecture/OS combinations) and the
//! simulation configuration builder.

use std::error::Error;
use std::fmt;

use vm_cache::{Associativity, Cache, CacheConfig, CacheGeometryError, CacheSystem};
use vm_ptable::{
    DisjunctWalker, HashedConfig, HashedWalker, InvertedConfig, InvertedWalker, MachWalker,
    RefillMode, TlbRefill, UltrixWalker, X86Walker,
};
use vm_tlb::{Replacement, Tlb, TlbConfig, TlbConfigError};
use vm_types::PAGE_SIZE;

use crate::sim::{AsidMode, MemorySystem, Mmu};

/// The most host bytes ([`SimConfig::host_bytes`]) a configuration may
/// take: [`SimConfig::build`] refuses a larger one before allocating, so
/// a spec from outside cannot abort the process that validates it.
pub const MAX_HOST_BYTES: u64 = 1 << 30;

/// Paper-fixed parameter values (Table 1), for building sweeps.
pub mod paper {
    /// L1 cache sizes, per side, in bytes.
    pub const L1_SIZES: [u64; 8] =
        [1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];
    /// L2 cache sizes, per side, in bytes (the figures label these by
    /// *total* size: 1, 2 and 4 MB).
    pub const L2_SIZES: [u64; 3] = [512 << 10, 1 << 20, 2 << 20];
    /// Cache line sizes in bytes.
    pub const LINE_SIZES: [u64; 4] = [16, 32, 64, 128];
    /// TLB entries per (split) TLB.
    pub const TLB_ENTRIES: usize = 128;
    /// Protected lower slots in the MIPS-flavoured simulations.
    pub const TLB_PROTECTED: usize = 16;
    /// Interrupt costs, in cycles.
    pub const INTERRUPT_COSTS: [u64; 3] = [10, 50, 200];
}

/// The simulated architecture / operating-system combinations.
///
/// The first six are the paper's Table 1 systems; the remainder are the
/// hypothetical designs Section 4.2 invites the reader to interpolate,
/// implemented here as ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Ultrix (BSD-like) on MIPS: software-managed TLB, two-tiered table.
    Ultrix,
    /// Mach on MIPS: software-managed TLB, three-tiered table.
    Mach,
    /// BSD/Windows NT on Intel x86: hardware-managed TLB, top-down table.
    Intel,
    /// HP-UX hashed page table on PA-RISC: software-managed TLB.
    PaRisc,
    /// Software-managed caches and no TLB (softvm / VMP).
    NoTlb,
    /// Baseline cache performance without VM.
    Base,
    /// Ablation: a MIPS-style two-tiered table walked by hardware.
    UltrixHw,
    /// Ablation: hardware-managed TLB over the hashed/inverted table —
    /// the PowerPC / PA-7200 design the paper recommends.
    Hybrid,
    /// Ablation: no TLB, hardware-walked table on L2 misses (SPUR-like).
    NoTlbHw,
    /// Ablation: the classical inverted page table *with* a hash anchor
    /// table — the design PA-RISC's hashed table dispensed with.
    InvertedHat,
}

impl SystemKind {
    /// The six systems of Table 1, in the paper's order.
    pub const PAPER: [SystemKind; 6] = [
        SystemKind::Ultrix,
        SystemKind::Mach,
        SystemKind::Intel,
        SystemKind::PaRisc,
        SystemKind::NoTlb,
        SystemKind::Base,
    ];

    /// The five VM systems (everything but BASE).
    pub const VM_SYSTEMS: [SystemKind; 5] = [
        SystemKind::Ultrix,
        SystemKind::Mach,
        SystemKind::Intel,
        SystemKind::PaRisc,
        SystemKind::NoTlb,
    ];

    /// The label used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Ultrix => "ULTRIX",
            SystemKind::Mach => "MACH",
            SystemKind::Intel => "INTEL",
            SystemKind::PaRisc => "PA-RISC",
            SystemKind::NoTlb => "NOTLB",
            SystemKind::Base => "BASE",
            SystemKind::UltrixHw => "ULTRIX-HW",
            SystemKind::Hybrid => "HYBRID",
            SystemKind::NoTlbHw => "NOTLB-HW",
            SystemKind::InvertedHat => "INV-HAT",
        }
    }

    /// Resolves a label (case-insensitive) back to a kind.
    pub fn from_label(label: &str) -> Option<SystemKind> {
        let all = [
            SystemKind::Ultrix,
            SystemKind::Mach,
            SystemKind::Intel,
            SystemKind::PaRisc,
            SystemKind::NoTlb,
            SystemKind::Base,
            SystemKind::UltrixHw,
            SystemKind::Hybrid,
            SystemKind::NoTlbHw,
            SystemKind::InvertedHat,
        ];
        all.into_iter().find(|k| k.label().eq_ignore_ascii_case(label))
    }

    /// Whether the system has TLBs.
    pub fn uses_tlb(self) -> bool {
        !matches!(self, SystemKind::NoTlb | SystemKind::NoTlbHw | SystemKind::Base)
    }

    /// Whether the TLBs reserve protected lower slots for kernel-level
    /// PTEs (the MIPS-flavoured ULTRIX/MACH simulations do; INTEL and
    /// PA-RISC leave all entries to user PTEs — Section 3.1).
    pub fn partitioned_tlb(self) -> bool {
        matches!(self, SystemKind::Ultrix | SystemKind::Mach | SystemKind::UltrixHw)
    }

    /// Whether any VM machinery exists at all.
    pub fn has_vm(self) -> bool {
        !matches!(self, SystemKind::Base)
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The TLB-refill mechanism half of a system description: how (and
/// whether) translations reach the processor.
///
/// Together with [`TableOrg`] this decomposes every [`SystemKind`] into
/// the paper's two design axes, so declarative system specs (`vm-explore`)
/// can name arbitrary points instead of hard-coded presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmuClass {
    /// Split TLBs refilled by a software miss handler (MIPS/PA-RISC style).
    SoftwareTlb,
    /// Split TLBs refilled by a hardware state machine (x86/PowerPC style).
    HardwareTlb,
    /// No TLB: virtual caches, software handles every L2 miss (softvm/VMP).
    SoftwareNoTlb,
    /// No TLB, but a hardware walker services L2 misses (SPUR-like).
    HardwareNoTlb,
    /// No VM machinery at all (the BASE measurement).
    Bare,
}

impl MmuClass {
    /// Every class, in the order specs document them.
    pub const ALL: [MmuClass; 5] = [
        MmuClass::SoftwareTlb,
        MmuClass::HardwareTlb,
        MmuClass::SoftwareNoTlb,
        MmuClass::HardwareNoTlb,
        MmuClass::Bare,
    ];

    /// The spec-file spelling (`software-tlb`, `hardware-tlb`, `no-tlb`,
    /// `no-tlb-hw`, `none`).
    pub fn label(self) -> &'static str {
        match self {
            MmuClass::SoftwareTlb => "software-tlb",
            MmuClass::HardwareTlb => "hardware-tlb",
            MmuClass::SoftwareNoTlb => "no-tlb",
            MmuClass::HardwareNoTlb => "no-tlb-hw",
            MmuClass::Bare => "none",
        }
    }

    /// Resolves a spec-file spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<MmuClass> {
        MmuClass::ALL.into_iter().find(|c| c.label().eq_ignore_ascii_case(s))
    }

    /// Whether this class has TLBs whose geometry matters.
    pub fn has_tlb(self) -> bool {
        matches!(self, MmuClass::SoftwareTlb | MmuClass::HardwareTlb)
    }
}

impl fmt::Display for MmuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The page-table-organization half of a system description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableOrg {
    /// MIPS-style two-tiered hierarchical table, walked bottom-up.
    TwoTier,
    /// Mach-style three-tiered hierarchical table.
    ThreeTier,
    /// x86-style two-level table walked top-down by physical addresses.
    TopDown,
    /// PA-RISC hashed (clustered) translation table.
    Hashed,
    /// Classical inverted table with a hash anchor table.
    Inverted,
    /// No page table (the BASE measurement).
    None,
}

impl TableOrg {
    /// Every organization, in the order specs document them.
    pub const ALL: [TableOrg; 6] = [
        TableOrg::TwoTier,
        TableOrg::ThreeTier,
        TableOrg::TopDown,
        TableOrg::Hashed,
        TableOrg::Inverted,
        TableOrg::None,
    ];

    /// The spec-file spelling (`two-tier`, `three-tier`, `top-down`,
    /// `hashed`, `inverted`, `none`).
    pub fn label(self) -> &'static str {
        match self {
            TableOrg::TwoTier => "two-tier",
            TableOrg::ThreeTier => "three-tier",
            TableOrg::TopDown => "top-down",
            TableOrg::Hashed => "hashed",
            TableOrg::Inverted => "inverted",
            TableOrg::None => "none",
        }
    }

    /// Resolves a spec-file spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<TableOrg> {
        TableOrg::ALL.into_iter().find(|t| t.label().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for TableOrg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error composing a refill mechanism with a page-table organization the
/// simulator has no model for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposeError {
    /// The requested refill mechanism.
    pub mmu: MmuClass,
    /// The requested table organization.
    pub table: TableOrg,
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let valid: Vec<String> = TableOrg::ALL
            .into_iter()
            .filter(|&t| SystemKind::compose(self.mmu, t).is_ok())
            .map(|t| format!("`{t}`"))
            .collect();
        write!(
            f,
            "no model for mmu `{}` over a `{}` page table; with `{}` the simulator supports: {}",
            self.mmu,
            self.table,
            self.mmu,
            if valid.is_empty() { "(nothing)".to_owned() } else { valid.join(", ") }
        )
    }
}

impl Error for ComposeError {}

impl SystemKind {
    /// Composes a refill mechanism and a table organization into the
    /// system that implements the pair.
    ///
    /// # Errors
    ///
    /// Returns [`ComposeError`] (listing the valid organizations for the
    /// requested MMU class) when the simulator has no model for the pair
    /// — e.g. a hardware walker over Mach's three-tiered table.
    pub fn compose(mmu: MmuClass, table: TableOrg) -> Result<SystemKind, ComposeError> {
        use {MmuClass as M, TableOrg as T};
        match (mmu, table) {
            (M::SoftwareTlb, T::TwoTier) => Ok(SystemKind::Ultrix),
            (M::SoftwareTlb, T::ThreeTier) => Ok(SystemKind::Mach),
            (M::SoftwareTlb, T::Hashed) => Ok(SystemKind::PaRisc),
            (M::SoftwareTlb, T::Inverted) => Ok(SystemKind::InvertedHat),
            (M::HardwareTlb, T::TopDown) => Ok(SystemKind::Intel),
            (M::HardwareTlb, T::TwoTier) => Ok(SystemKind::UltrixHw),
            (M::HardwareTlb, T::Hashed) => Ok(SystemKind::Hybrid),
            (M::SoftwareNoTlb, T::TwoTier) => Ok(SystemKind::NoTlb),
            (M::HardwareNoTlb, T::TwoTier) => Ok(SystemKind::NoTlbHw),
            (M::Bare, T::None) => Ok(SystemKind::Base),
            _ => Err(ComposeError { mmu, table }),
        }
    }

    /// The (refill mechanism, table organization) pair this system
    /// implements — the inverse of [`SystemKind::compose`].
    pub fn decompose(self) -> (MmuClass, TableOrg) {
        match self {
            SystemKind::Ultrix => (MmuClass::SoftwareTlb, TableOrg::TwoTier),
            SystemKind::Mach => (MmuClass::SoftwareTlb, TableOrg::ThreeTier),
            SystemKind::PaRisc => (MmuClass::SoftwareTlb, TableOrg::Hashed),
            SystemKind::InvertedHat => (MmuClass::SoftwareTlb, TableOrg::Inverted),
            SystemKind::Intel => (MmuClass::HardwareTlb, TableOrg::TopDown),
            SystemKind::UltrixHw => (MmuClass::HardwareTlb, TableOrg::TwoTier),
            SystemKind::Hybrid => (MmuClass::HardwareTlb, TableOrg::Hashed),
            SystemKind::NoTlb => (MmuClass::SoftwareNoTlb, TableOrg::TwoTier),
            SystemKind::NoTlbHw => (MmuClass::HardwareNoTlb, TableOrg::TwoTier),
            SystemKind::Base => (MmuClass::Bare, TableOrg::None),
        }
    }
}

/// A complete simulation configuration: system + cache geometry + TLB
/// geometry + substrate sizing.
///
/// Start from [`SimConfig::paper_default`] and adjust fields:
///
/// ```
/// use vm_core::{SimConfig, SystemKind};
///
/// let mut cfg = SimConfig::paper_default(SystemKind::Intel);
/// cfg.l1_bytes = 64 << 10;
/// cfg.l2_bytes = 2 << 20;
/// let system = cfg.build()?;
/// # Ok::<(), vm_core::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Which architecture/OS combination to simulate.
    pub system: SystemKind,
    /// L1 cache size per side, bytes.
    pub l1_bytes: u64,
    /// L1 line size, bytes.
    pub l1_line: u64,
    /// L2 cache size per side, bytes.
    pub l2_bytes: u64,
    /// L2 line size, bytes.
    pub l2_line: u64,
    /// Cache associativity (the paper uses direct-mapped throughout).
    pub associativity: Associativity,
    /// Replace the split L2s with one unified L2 of `2 * l2_bytes`
    /// (equal total capacity) — the comparison Table 1 sets aside.
    pub unified_l2: bool,
    /// Entries per (split) TLB.
    pub tlb_entries: usize,
    /// TLB replacement policy (the paper uses random).
    pub tlb_replacement: Replacement,
    /// Overrides the protected-slot count implied by the system kind
    /// (`None` keeps Table 1's policy: 16 for ULTRIX/MACH, 0 otherwise).
    /// Used by the TLB-partitioning ablation.
    pub tlb_protected: Option<usize>,
    /// How the TLBs treat address-space identifiers in multiprogramming
    /// traces (single-process traces are unaffected): MIPS-style tagged
    /// entries survive context switches; untagged (x86-style) TLBs are
    /// flushed on every observed ASID change.
    pub asid_mode: AsidMode,
    /// When set, both TLBs are flushed every `n` user instructions,
    /// modelling context switches — the multiprogramming effect the
    /// paper's single-process traces exclude. Caches are left warm (the
    /// dominant first-order effect of a switch on the VM system is the
    /// loss of its translations).
    pub flush_tlb_every: Option<u64>,
    /// Simulated physical memory, which sizes the PA-RISC hashed table at
    /// the paper's 2:1 entry:frame ratio. The paper used 8 MB for its
    /// ≤200 M-instruction SPEC '95 runs; the synthetic workloads here
    /// touch more pages, so the default is 16 MB (see DESIGN.md).
    pub phys_mem_bytes: u64,
    /// Seed for TLB random replacement.
    pub seed: u64,
}

impl SimConfig {
    /// The default configuration used by the paper's breakdown figures:
    /// 64/128-byte L1/L2 lines ("consistently at or near the top in
    /// performance"), 16 KB L1s, 1 MB-per-side L2s, 128-entry TLBs.
    pub fn paper_default(system: SystemKind) -> SimConfig {
        SimConfig {
            system,
            l1_bytes: 16 << 10,
            l1_line: 64,
            l2_bytes: 1 << 20,
            l2_line: 128,
            associativity: Associativity::DirectMapped,
            unified_l2: false,
            tlb_entries: paper::TLB_ENTRIES,
            tlb_replacement: Replacement::Random,
            tlb_protected: None,
            asid_mode: AsidMode::Tagged,
            flush_tlb_every: None,
            phys_mem_bytes: 16 << 20,
            seed: 0x6a6d_3938, // "jm98"
        }
    }

    /// Protected slots implied by the system kind and TLB size: 16 for
    /// the MIPS-flavoured systems (scaled down for tiny ablation TLBs),
    /// 0 otherwise.
    pub fn protected_slots(&self) -> usize {
        match self.tlb_protected {
            Some(n) => n.min(self.tlb_entries.saturating_sub(1)),
            None if self.system.partitioned_tlb() => paper::TLB_PROTECTED.min(self.tlb_entries / 2),
            None => 0,
        }
    }

    /// Whether `other` builds the same front end as `self` — the same
    /// system, TLBs, ASID mode, flush interval, physical memory and seed,
    /// differing at most in cache geometry (sizes, lines, associativity,
    /// unified L2) — and that front end has TLBs whose walks one pass can
    /// share among the geometries ([`MemorySystem::add_back_end`]).
    pub fn shares_front_end_with(&self, other: &SimConfig) -> bool {
        let geometry_of_self = SimConfig {
            l1_bytes: self.l1_bytes,
            l1_line: self.l1_line,
            l2_bytes: self.l2_bytes,
            l2_line: self.l2_line,
            associativity: self.associativity,
            unified_l2: self.unified_l2,
            ..*other
        };
        self.system.uses_tlb() && geometry_of_self == *self
    }

    /// Host bytes the built front end holds before its first step: the
    /// hashed and inverted walkers' bucket arrays (the hierarchical
    /// walkers allocate as pages are touched; the TLBs are small).
    pub fn front_end_bytes(&self) -> u64 {
        match self.system {
            SystemKind::PaRisc | SystemKind::Hybrid => {
                HashedConfig::scaled(self.phys_mem_bytes).table_bytes()
            }
            SystemKind::InvertedHat => InvertedConfig::new(self.phys_mem_bytes).table_bytes(),
            _ => 0,
        }
    }

    /// Host bytes the built caches hold: `vm-cache` keeps one `u64` tag
    /// per line, written when the cache is built. Saturates at `u64::MAX`.
    pub fn back_end_bytes(&self) -> u64 {
        // Two L1s, and L2 lines worth `2 * l2_bytes` whether split or
        // unified.
        let tags = |bytes: u64, line: u64| (bytes / line).saturating_mul(2 * 8);
        tags(self.l1_bytes, self.l1_line).saturating_add(tags(self.l2_bytes, self.l2_line))
    }

    /// Host bytes the built system holds before its first step: walker
    /// tables, cache tags and both TLBs. Saturates at `u64::MAX`.
    pub fn host_bytes(&self) -> u64 {
        let tlbs = if self.system.uses_tlb() { Tlb::table_bytes(self.tlb_entries) } else { 0 };
        let front = self.front_end_bytes().saturating_add(tlbs.saturating_mul(2));
        front.saturating_add(self.back_end_bytes())
    }

    /// Builds the cache complement alone: split L1s over split L2s, or
    /// over one unified L2 of `2 * l2_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the cache geometry is invalid or the
    /// whole configuration takes over [`MAX_HOST_BYTES`].
    pub fn build_caches(&self) -> Result<CacheSystem, BuildError> {
        let l1 = CacheConfig::set_associative(self.l1_bytes, self.l1_line, self.associativity)?;
        let l2_bytes =
            if self.unified_l2 { self.l2_bytes.saturating_mul(2) } else { self.l2_bytes };
        let l2 = CacheConfig::set_associative(l2_bytes, self.l2_line, self.associativity)?;
        let bytes = self.host_bytes();
        if bytes > MAX_HOST_BYTES {
            return Err(BuildError::TooLarge(bytes));
        }
        Ok(if self.unified_l2 {
            CacheSystem::unified(Cache::new(l1), Cache::new(l1), Cache::new(l2))
        } else {
            CacheSystem::split(Cache::new(l1), Cache::new(l1), Cache::new(l2), Cache::new(l2))
        })
    }

    /// Builds the memory system.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the cache, TLB or hashed-table geometry
    /// is invalid, if a hashed or inverted table's physical memory holds
    /// no page, or if the configuration takes over [`MAX_HOST_BYTES`].
    pub fn build(&self) -> Result<MemorySystem, BuildError> {
        let hashed = HashedConfig::scaled(self.phys_mem_bytes).entries;
        let hashed_table = matches!(self.system, SystemKind::PaRisc | SystemKind::Hybrid);
        if hashed_table && hashed > HashedConfig::MAX_ENTRIES {
            return Err(BuildError::Table(hashed));
        }
        if (hashed_table || self.system == SystemKind::InvertedHat)
            && self.phys_mem_bytes < PAGE_SIZE
        {
            return Err(BuildError::NoFrame(self.phys_mem_bytes));
        }
        let caches = self.build_caches()?;

        let make_tlb = |salt: u64| -> Result<Tlb, TlbConfigError> {
            let cfg =
                TlbConfig::new(self.tlb_entries, self.protected_slots(), self.tlb_replacement)?;
            Ok(Tlb::new(cfg, self.seed ^ salt))
        };

        let mmu = match self.system {
            SystemKind::Base => Mmu::Bare,
            SystemKind::NoTlb => Mmu::NoTlb { walker: Box::new(DisjunctWalker::new()) },
            SystemKind::NoTlbHw => Mmu::NoTlb {
                walker: Box::new(DisjunctWalker::with_mode(RefillMode::PAPER_HARDWARE)),
            },
            _ => {
                let walker: Box<dyn TlbRefill> = match self.system {
                    SystemKind::Ultrix => Box::new(UltrixWalker::new()),
                    SystemKind::UltrixHw => {
                        Box::new(UltrixWalker::with_mode(RefillMode::PAPER_HARDWARE))
                    }
                    SystemKind::Mach => Box::new(MachWalker::new()),
                    SystemKind::Intel => Box::new(X86Walker::new()),
                    SystemKind::PaRisc => {
                        Box::new(HashedWalker::new(HashedConfig::scaled(self.phys_mem_bytes)))
                    }
                    SystemKind::Hybrid => Box::new(HashedWalker::new(
                        HashedConfig::scaled(self.phys_mem_bytes).hardware(),
                    )),
                    SystemKind::InvertedHat => {
                        Box::new(InvertedWalker::new(InvertedConfig::new(self.phys_mem_bytes)))
                    }
                    SystemKind::Base | SystemKind::NoTlb | SystemKind::NoTlbHw => {
                        unreachable!("handled above")
                    }
                };
                Mmu::Tlb { itlb: make_tlb(0x1)?, dtlb: make_tlb(0x2)?, walker }
            }
        };

        Ok(MemorySystem::from_parts(
            self.system.label().to_owned(),
            caches,
            mmu,
            self.flush_tlb_every,
            self.asid_mode,
        ))
    }
}

/// Error building a [`MemorySystem`] from a [`SimConfig`].
#[derive(Debug)]
pub enum BuildError {
    /// The cache geometry was rejected.
    Cache(CacheGeometryError),
    /// The TLB geometry was rejected.
    Tlb(TlbConfigError),
    /// A hashed page table of this many entries would overrun its
    /// reserved span ([`HashedConfig::MAX_ENTRIES`]).
    Table(u64),
    /// A hashed or inverted table's physical memory of this many bytes
    /// holds no page frame.
    NoFrame(u64),
    /// The configuration would hold this many host bytes, over
    /// [`MAX_HOST_BYTES`].
    TooLarge(u64),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Cache(e) => write!(f, "cannot build simulation: {e}"),
            BuildError::Tlb(e) => write!(f, "cannot build simulation: {e}"),
            BuildError::Table(entries) => write!(
                f,
                "cannot build simulation: a hashed page table of {entries} entries overruns its \
                 reserved span of {} (physical memory is limited to 256 MB)",
                HashedConfig::MAX_ENTRIES
            ),
            BuildError::NoFrame(bytes) => write!(
                f,
                "cannot build simulation: physical memory of {bytes} bytes holds no \
                 {PAGE_SIZE}-byte page frame"
            ),
            BuildError::TooLarge(bytes) => write!(
                f,
                "cannot build simulation: its caches, TLBs and page tables would take \
                 {bytes} bytes of host memory, over the {MAX_HOST_BYTES}-byte limit"
            ),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Cache(e) => Some(e),
            BuildError::Tlb(e) => Some(e),
            BuildError::Table(_) | BuildError::NoFrame(_) | BuildError::TooLarge(_) => None,
        }
    }
}

impl From<CacheGeometryError> for BuildError {
    fn from(e: CacheGeometryError) -> BuildError {
        BuildError::Cache(e)
    }
}

impl From<TlbConfigError> for BuildError {
    fn from(e: TlbConfigError) -> BuildError {
        BuildError::Tlb(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_systems_are_the_table1_set() {
        let labels: Vec<_> = SystemKind::PAPER.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["ULTRIX", "MACH", "INTEL", "PA-RISC", "NOTLB", "BASE"]);
    }

    #[test]
    fn labels_round_trip() {
        for k in [
            SystemKind::Ultrix,
            SystemKind::Mach,
            SystemKind::Intel,
            SystemKind::PaRisc,
            SystemKind::NoTlb,
            SystemKind::Base,
            SystemKind::UltrixHw,
            SystemKind::Hybrid,
        ] {
            assert_eq!(SystemKind::from_label(k.label()), Some(k));
            assert_eq!(SystemKind::from_label(&k.label().to_lowercase()), Some(k));
        }
        assert_eq!(SystemKind::from_label("VAX"), None);
    }

    #[test]
    fn tlb_properties_match_section31() {
        assert!(SystemKind::Ultrix.partitioned_tlb());
        assert!(SystemKind::Mach.partitioned_tlb());
        assert!(!SystemKind::Intel.partitioned_tlb());
        assert!(!SystemKind::PaRisc.partitioned_tlb());
        assert!(!SystemKind::NoTlb.uses_tlb());
        assert!(!SystemKind::Base.uses_tlb());
        assert!(!SystemKind::Base.has_vm());
        assert!(SystemKind::NoTlb.has_vm());
    }

    #[test]
    fn protected_slots_scale_with_tiny_tlbs() {
        let mut cfg = SimConfig::paper_default(SystemKind::Ultrix);
        assert_eq!(cfg.protected_slots(), 16);
        cfg.tlb_entries = 16;
        assert_eq!(cfg.protected_slots(), 8);
        let intel = SimConfig::paper_default(SystemKind::Intel);
        assert_eq!(intel.protected_slots(), 0);
    }

    #[test]
    fn every_system_builds() {
        for kind in SystemKind::PAPER {
            SimConfig::paper_default(kind).build().unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
        SimConfig::paper_default(SystemKind::UltrixHw).build().unwrap();
        SimConfig::paper_default(SystemKind::Hybrid).build().unwrap();
    }

    #[test]
    fn bad_cache_geometry_is_reported() {
        let mut cfg = SimConfig::paper_default(SystemKind::Ultrix);
        cfg.l1_bytes = 3000;
        let err = cfg.build().unwrap_err();
        assert!(err.to_string().contains("cache"));
    }

    #[test]
    fn bad_tlb_geometry_is_reported() {
        let mut cfg = SimConfig::paper_default(SystemKind::Intel);
        cfg.tlb_entries = 0;
        let err = cfg.build().unwrap_err();
        assert!(err.to_string().contains("TLB"));
    }

    #[test]
    fn compose_and_decompose_are_inverses() {
        let all = [
            SystemKind::Ultrix,
            SystemKind::Mach,
            SystemKind::Intel,
            SystemKind::PaRisc,
            SystemKind::NoTlb,
            SystemKind::Base,
            SystemKind::UltrixHw,
            SystemKind::Hybrid,
            SystemKind::NoTlbHw,
            SystemKind::InvertedHat,
        ];
        for kind in all {
            let (mmu, table) = kind.decompose();
            assert_eq!(SystemKind::compose(mmu, table), Ok(kind));
            assert_eq!(MmuClass::parse(mmu.label()), Some(mmu));
            assert_eq!(TableOrg::parse(table.label()), Some(table));
        }
    }

    #[test]
    fn invalid_compositions_list_alternatives() {
        let err = SystemKind::compose(MmuClass::HardwareTlb, TableOrg::ThreeTier).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("hardware-tlb"), "{msg}");
        assert!(msg.contains("three-tier"), "{msg}");
        assert!(msg.contains("`two-tier`") && msg.contains("`hashed`"), "{msg}");
        assert!(SystemKind::compose(MmuClass::Bare, TableOrg::TwoTier).is_err());
        assert!(SystemKind::compose(MmuClass::SoftwareNoTlb, TableOrg::Inverted).is_err());
    }

    #[test]
    fn paper_constants_match_table1() {
        assert_eq!(paper::L1_SIZES.len(), 8);
        assert_eq!(paper::L1_SIZES[0], 1024);
        assert_eq!(paper::L1_SIZES[7], 128 << 10);
        assert_eq!(paper::L2_SIZES, [512 << 10, 1 << 20, 2 << 20]);
        assert_eq!(paper::LINE_SIZES, [16, 32, 64, 128]);
        assert_eq!(paper::TLB_ENTRIES, 128);
        assert_eq!(paper::TLB_PROTECTED, 16);
        assert_eq!(paper::INTERRUPT_COSTS, [10, 50, 200]);
    }
}
