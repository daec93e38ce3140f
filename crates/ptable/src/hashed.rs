//! The PA-RISC hashed (inverted) page table (Figure 4).
//!
//! The hashed page table dispenses with the classical inverted table's
//! hash anchor table, eliminating one memory reference: the faulting
//! virtual address hashes *directly* to a candidate PTE. Because there is
//! no 1:1 correspondence between table entries and page frames, each
//! 16-byte PTE stores the PFN explicitly (Huck & Hays), making a PTE load
//! touch four times the bytes of the hierarchical tables' 4-byte entries.
//! Collisions chain into an unbounded collision-resolution table (CRT).
//!
//! The paper sizes the table at a 2:1 entry:frame ratio over an 8 MB
//! physical memory — 4096 entries, expected mean chain ≈ 1.25 (and
//! ~1.3 measured for gcc). [`HashedConfig::paper`] reproduces that;
//! [`HashedConfig::scaled`] keeps the 2:1 ratio for larger memories.
//!
//! In [`crate::RefillMode::Software`] this is the paper's PA-RISC
//! simulation (one 20-instruction handler, physical-addressed, no nested
//! misses). In [`crate::RefillMode::Hardware`] it becomes the
//! PowerPC/PA-7200-style design the paper recommends in Section 4.2:
//! "merge these two and use a hardware-managed TLB with an inverted page
//! table".

use vm_types::{AccessKind, HandlerLevel, MAddr, Pfn, Vpn, PAGE_SHIFT};

use crate::frames::FrameAlloc;
use crate::layout::{CRT_BASE, FRAME_POOL_BASE, HASHED_PTE_BYTES, HPT_BASE, USER_HANDLER_BASE};
use crate::walker::{RefillMode, TlbRefill, WalkContext};

/// Geometry of the hashed page table and the physical memory behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedConfig {
    /// Simulated physical memory size in bytes.
    pub phys_mem_bytes: u64,
    /// Number of slots in the hashed table (a power of two).
    pub entries: u64,
    /// Software handler vs. hardware state machine.
    pub mode: RefillMode,
}

impl HashedConfig {
    /// The most entries the table's reserved span of simulated physical
    /// memory holds: 256 MB of physical memory at the 2:1 ratio.
    pub const MAX_ENTRIES: u64 = (CRT_BASE - HPT_BASE) / HASHED_PTE_BYTES;

    /// The paper's configuration: 8 MB physical memory, 4096 entries
    /// (2:1), software-managed.
    pub fn paper() -> HashedConfig {
        HashedConfig { phys_mem_bytes: 8 << 20, entries: 4096, mode: RefillMode::Software }
    }

    /// A configuration for `phys_mem_bytes` of memory, preserving the
    /// paper's 2:1 entry:frame ratio. Rounds entries up to a power of
    /// two.
    pub fn scaled(phys_mem_bytes: u64) -> HashedConfig {
        let frames = (phys_mem_bytes >> PAGE_SHIFT).max(1);
        HashedConfig {
            phys_mem_bytes,
            entries: (2 * frames).next_power_of_two(),
            mode: RefillMode::Software,
        }
    }

    /// The same geometry walked by hardware (the Section 4.2 hybrid).
    pub fn hardware(mut self) -> HashedConfig {
        self.mode = RefillMode::PAPER_HARDWARE;
        self
    }

    /// Host bytes a new walker holds before its first walk: one empty
    /// chain per table slot.
    pub fn table_bytes(self) -> u64 {
        self.entries * std::mem::size_of::<Vec<ChainedPte>>() as u64
    }
}

#[derive(Debug, Clone, Copy)]
struct ChainedPte {
    vpn: Vpn,
    /// Where this PTE physically lives (HPT slot or CRT slot).
    addr: MAddr,
    /// Frame the PTE maps (stored in the entry, as Huck & Hays require;
    /// unused by the virtually-addressed caches but kept for fidelity).
    #[allow(dead_code)]
    pfn: Pfn,
}

/// The PA-RISC hashed / inverted page table walker.
#[derive(Debug, Clone)]
pub struct HashedWalker {
    config: HashedConfig,
    buckets: Vec<Vec<ChainedPte>>,
    frames: FrameAlloc,
    crt_next: u64,
    /// Total PTE loads performed (for chain statistics).
    chain_loads: u64,
    walks: u64,
}

impl HashedWalker {
    /// Handler length (Table 4: "20 instrs, variable # PTE loads").
    pub const HANDLER_INSTRS: u32 = 20;

    /// Creates a walker with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a non-zero power of two or exceeds
    /// [`HashedConfig::MAX_ENTRIES`].
    pub fn new(config: HashedConfig) -> HashedWalker {
        assert!(
            config.entries > 0 && config.entries.is_power_of_two(),
            "hashed table entries must be a non-zero power of two"
        );
        assert!(
            config.entries <= HashedConfig::MAX_ENTRIES,
            "hashed table of {} entries overruns its reserved span of {}",
            config.entries,
            HashedConfig::MAX_ENTRIES
        );
        HashedWalker {
            config,
            buckets: vec![Vec::new(); config.entries as usize],
            frames: FrameAlloc::new(FRAME_POOL_BASE, config.phys_mem_bytes),
            crt_next: 0,
            chain_loads: 0,
            walks: 0,
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> HashedConfig {
        self.config
    }

    /// Huck & Hays' hash: "a single XOR of the upper virtual address bits
    /// and the lower virtual page number bits". The raw tagged page
    /// number folds the ASID into the upper bits, so in multiprogramming
    /// runs different processes' pages spread over the one global table —
    /// the inverted table's natural fit for multiprogramming (its size
    /// tracks physical memory, not the number of address spaces).
    pub fn hash(&self, vpn: Vpn) -> u64 {
        let v = vpn.raw();
        let bits = self.config.entries.trailing_zeros();
        (v ^ (v >> bits)) & (self.config.entries - 1)
    }

    /// Ensures `vpn` has a PTE, allocating a frame and a table slot on
    /// first touch (initialization is free, as in the paper: "we ignore
    /// the cost of initializing the process address space").
    fn ensure_mapped(&mut self, vpn: Vpn) {
        let bucket = self.hash(vpn) as usize;
        if self.buckets[bucket].iter().any(|e| e.vpn == vpn) {
            return;
        }
        let addr = if self.buckets[bucket].is_empty() {
            MAddr::physical(HPT_BASE + bucket as u64 * HASHED_PTE_BYTES)
        } else {
            let a = MAddr::physical(CRT_BASE + self.crt_next * HASHED_PTE_BYTES);
            self.crt_next += 1;
            a
        };
        let pfn = self.frames.frame_of(vpn);
        self.buckets[bucket].push(ChainedPte { vpn, addr, pfn });
    }

    /// Mean number of PTE loads per walk so far — the paper's "average
    /// collision-chain length" (≈1.25 expected, ~1.3 for gcc).
    pub fn mean_chain_loads(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.chain_loads as f64 / self.walks as f64
        }
    }

    /// The longest chain currently in the table.
    pub fn max_chain_len(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean length of non-empty chains (a static table property, as
    /// opposed to the walk-weighted [`HashedWalker::mean_chain_loads`]).
    pub fn mean_chain_len(&self) -> f64 {
        let non_empty: Vec<usize> = self.buckets.iter().map(Vec::len).filter(|&l| l > 0).collect();
        if non_empty.is_empty() {
            0.0
        } else {
            non_empty.iter().sum::<usize>() as f64 / non_empty.len() as f64
        }
    }

    /// Pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.frames.touched_pages()
    }
}

impl TlbRefill for HashedWalker {
    fn name(&self) -> &'static str {
        match self.config.mode {
            RefillMode::Software => "pa-risc",
            RefillMode::Hardware { .. } => "hybrid",
        }
    }

    /// The walk never reads where a PTE load was satisfied.
    fn shares_front_end(&self) -> bool {
        true
    }

    fn refill(&mut self, ctx: &mut dyn WalkContext, vpn: Vpn, _kind: AccessKind) {
        self.ensure_mapped(vpn);

        let bucket = self.hash(vpn) as usize;
        self.walks += 1;
        // Entries visited: up to and including the matching one (which
        // ensure_mapped guarantees exists).
        let chain = &self.buckets[bucket];
        let visited = chain.iter().position(|e| e.vpn == vpn).map_or(chain.len(), |p| p + 1);

        match self.config.mode {
            RefillMode::Software => {
                ctx.interrupt(HandlerLevel::User);
                ctx.exec_handler(
                    HandlerLevel::User,
                    MAddr::physical(USER_HANDLER_BASE),
                    Self::HANDLER_INSTRS,
                );
            }
            RefillMode::Hardware { cycles_per_level } => {
                // One state-machine invocation per walk: hash computation
                // plus sequential work per chain entry visited.
                ctx.exec_inline(HandlerLevel::User, cycles_per_level * (1 + visited as u32));
            }
        }

        for entry in self.buckets[bucket].iter().take(visited) {
            ctx.pte_load(HandlerLevel::User, entry.addr, HASHED_PTE_BYTES);
        }
        self.chain_loads += visited as u64;
    }

    fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.frames.reset();
        self.crt_next = 0;
        self.chain_loads = 0;
        self.walks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{RecordingContext, WalkEvent};
    use vm_types::AddressSpace;

    fn uvpn(i: u64) -> Vpn {
        Vpn::new(AddressSpace::User, i)
    }

    fn paper_walker() -> HashedWalker {
        HashedWalker::new(HashedConfig::paper())
    }

    #[test]
    fn paper_config_matches_section_3() {
        let c = HashedConfig::paper();
        assert_eq!(c.phys_mem_bytes, 8 << 20);
        assert_eq!(c.entries, 4096);
        // 8 MB has 2048 4 KB pages; 2:1 ratio -> 4096 entries.
        assert_eq!(c.entries, 2 * (c.phys_mem_bytes >> 12));
    }

    #[test]
    fn scaled_preserves_two_to_one() {
        let c = HashedConfig::scaled(16 << 20);
        assert_eq!(c.entries, 8192);
    }

    #[test]
    fn hash_is_in_range_and_spreads() {
        let w = paper_walker();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let h = w.hash(uvpn(i * 37));
            assert!(h < 4096);
            seen.insert(h);
        }
        assert!(seen.len() > 2000, "hash should spread VPNs ({} buckets hit)", seen.len());
    }

    #[test]
    fn first_walk_is_handler_plus_one_16byte_load() {
        let mut w = paper_walker();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x99), AccessKind::Load);
        assert_eq!(ctx.interrupts(), 1);
        assert_eq!(
            ctx.handlers_at(HandlerLevel::User),
            vec![(MAddr::physical(USER_HANDLER_BASE), 20)]
        );
        let loads = ctx.pte_loads_at(HandlerLevel::User);
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].1, 16, "hashed PTEs are 16 bytes");
        // The head of the chain lives in the HPT itself.
        let expected = HPT_BASE + w.hash(uvpn(0x99)) * 16;
        assert_eq!(loads[0].0, MAddr::physical(expected));
    }

    #[test]
    fn colliding_pages_chain_through_the_crt() {
        let mut w = paper_walker();
        // Find two distinct VPNs with the same hash.
        let a = uvpn(1);
        let target = w.hash(a);
        let b = (2..1 << 19)
            .map(uvpn)
            .find(|&v| v != a && w.hash(v) == target)
            .expect("a colliding vpn exists");

        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, a, AccessKind::Load);
        w.refill(&mut ctx, b, AccessKind::Load);
        ctx.events.clear();
        // Walking b again must traverse a's head entry first (2 loads).
        w.refill(&mut ctx, b, AccessKind::Load);
        let loads = ctx.pte_loads_at(HandlerLevel::User);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].0.offset() & !0xf, HPT_BASE + target * 16);
        assert!(loads[1].0.offset() >= CRT_BASE, "second element must be in the CRT");
        assert_eq!(w.max_chain_len(), 2);
    }

    #[test]
    fn non_colliding_pages_cost_one_load_each() {
        let mut w = paper_walker();
        let a = uvpn(1);
        let b = (2..1 << 19).map(uvpn).find(|&v| w.hash(v) != w.hash(a)).unwrap();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, a, AccessKind::Load);
        w.refill(&mut ctx, b, AccessKind::Load);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::User).len(), 2);
        assert!((w.mean_chain_loads() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_statistics_match_the_paper_ballpark() {
        // Touch ~2000 pages (the paper's gcc scale) and verify the mean
        // chain length lands near the paper's 1.25–1.3.
        let mut w = paper_walker();
        let mut ctx = RecordingContext::new();
        let mut rng = vm_types::SplitMix64::new(42);
        let pages: Vec<Vpn> = (0..2000).map(|_| uvpn(rng.next_below(1 << 19))).collect();
        for &p in &pages {
            w.refill(&mut ctx, p, AccessKind::Load);
        }
        // Re-walk all pages to measure steady-state chain loads.
        ctx.events.clear();
        for &p in &pages {
            w.refill(&mut ctx, p, AccessKind::Load);
        }
        let m = w.mean_chain_loads();
        assert!(
            (1.05..1.6).contains(&m),
            "mean chain loads {m} out of the expected range around 1.25"
        );
        assert!(w.mean_chain_len() >= 1.0);
    }

    #[test]
    fn hardware_mode_takes_no_interrupt() {
        let mut w = HashedWalker::new(HashedConfig::paper().hardware());
        assert_eq!(w.name(), "hybrid");
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x5), AccessKind::Load);
        assert_eq!(ctx.interrupts(), 0);
        assert!(ctx.handlers_at(HandlerLevel::User).is_empty());
        assert_eq!(ctx.pte_loads_at(HandlerLevel::User).len(), 1);
        assert!(ctx.events.iter().any(|e| matches!(e, WalkEvent::Inline { .. })));
    }

    #[test]
    fn reset_clears_table_and_stats() {
        let mut w = paper_walker();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x5), AccessKind::Load);
        assert_eq!(w.mapped_pages(), 1);
        w.reset();
        assert_eq!(w.mapped_pages(), 0);
        assert_eq!(w.mean_chain_loads(), 0.0);
        assert_eq!(w.max_chain_len(), 0);
    }

    #[test]
    fn software_name_is_pa_risc() {
        assert_eq!(paper_walker().name(), "pa-risc");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_entries_panics() {
        let _ = HashedWalker::new(HashedConfig {
            phys_mem_bytes: 8 << 20,
            entries: 3000,
            mode: RefillMode::Software,
        });
    }
}
