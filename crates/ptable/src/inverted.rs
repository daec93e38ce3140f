//! The classical inverted page table, with a hash anchor table (HAT).
//!
//! This is the design the PA-RISC hashed table improved upon: "the
//! PA-RISC hashed page table is similar in spirit to the classical
//! inverted page table, but it dispenses with the hash anchor table,
//! thereby eliminating one memory reference from the lookup algorithm"
//! (Figure 4's caption). Building the classical table lets that claim be
//! *measured* instead of asserted:
//!
//! 1. hash the faulting VPN into the **hash anchor table**, a table of
//!    pointers sized like the frame count;
//! 2. load the anchor (one memory reference the hashed table does not
//!    make);
//! 3. follow it into the **inverted table proper**, which has exactly one
//!    entry per physical frame (the PFN *is* the entry index);
//! 4. walk the collision chain within the table.
//!
//! The anchor table is an extra structure contending for D-cache space,
//! and every walk starts with its load — the per-walk reference count is
//! `2 + (chain position - 1)` against the hashed table's
//! `1 + (chain position - 1)`.

use vm_types::{AccessKind, HandlerLevel, MAddr, Pfn, Vpn, PAGE_SHIFT};

use crate::frames::FrameAlloc;
use crate::layout::{FRAME_POOL_BASE, HAT_BASE, INVERTED_TABLE_BASE, USER_HANDLER_BASE};
use crate::walker::{RefillMode, TlbRefill, WalkContext};

/// Bytes per classical inverted-table entry: the full VPN tag, ASID,
/// protection bits, and the collision-chain link — the same 16 bytes as
/// the PA-RISC entry (which trades the link field for an explicit PFN),
/// so the comparison isolates the anchor reference and the 1:1 sizing
/// rather than entry width.
pub const INVERTED_PTE_BYTES: u64 = 16;

/// Bytes per hash-anchor-table slot (a frame index).
pub const HAT_SLOT_BYTES: u64 = 4;

/// Geometry of the classical inverted table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvertedConfig {
    /// Simulated physical memory size in bytes; the table has one entry
    /// per frame and the anchor table one slot per frame (the classical
    /// 1:1 sizing, "average chain length 1.5" in the paper's Figure 4
    /// caption).
    pub phys_mem_bytes: u64,
    /// Software handler vs. hardware state machine.
    pub mode: RefillMode,
}

impl InvertedConfig {
    /// One entry and one anchor slot per frame of `phys_mem_bytes`.
    pub fn new(phys_mem_bytes: u64) -> InvertedConfig {
        InvertedConfig { phys_mem_bytes, mode: RefillMode::Software }
    }

    /// The same geometry walked by hardware.
    pub fn hardware(mut self) -> InvertedConfig {
        self.mode = RefillMode::PAPER_HARDWARE;
        self
    }

    /// Frames (= table entries = anchor slots), rounded up to a power of
    /// two for the hash.
    pub fn slots(&self) -> u64 {
        (self.phys_mem_bytes >> PAGE_SHIFT).max(1).next_power_of_two()
    }

    /// Host bytes a new walker holds before its first walk: one empty
    /// chain per anchor slot.
    pub fn table_bytes(&self) -> u64 {
        self.slots() * std::mem::size_of::<Vec<Vpn>>() as u64
    }
}

/// The classical inverted page table walker.
#[derive(Debug, Clone)]
pub struct InvertedWalker {
    config: InvertedConfig,
    /// `buckets[h]` lists the VPNs chained from anchor slot `h`, in
    /// chain order; a VPN's position is its frame's entry.
    buckets: Vec<Vec<Vpn>>,
    frames: FrameAlloc,
    /// Frame index assigned to each mapped VPN (entry position).
    entry_of: std::collections::HashMap<Vpn, u64>,
    next_entry: u64,
    walk_loads: u64,
    walks: u64,
}

impl InvertedWalker {
    /// Handler length: same 20-instruction software path as the PA-RISC
    /// simulation (the difference under test is memory references, not
    /// instruction count).
    pub const HANDLER_INSTRS: u32 = 20;

    /// Creates the walker.
    pub fn new(config: InvertedConfig) -> InvertedWalker {
        InvertedWalker {
            config,
            buckets: vec![Vec::new(); config.slots() as usize],
            frames: FrameAlloc::new(FRAME_POOL_BASE, config.phys_mem_bytes),
            entry_of: std::collections::HashMap::new(),
            next_entry: 0,
            walk_loads: 0,
            walks: 0,
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> InvertedConfig {
        self.config
    }

    /// The same fold as the hashed table, over the anchor-slot count.
    pub fn hash(&self, vpn: Vpn) -> u64 {
        let v = vpn.raw();
        let slots = self.config.slots();
        let bits = slots.trailing_zeros();
        (v ^ (v >> bits)) & (slots - 1)
    }

    /// Physical address of anchor slot `h`.
    fn anchor_addr(&self, h: u64) -> MAddr {
        MAddr::physical(HAT_BASE + h * HAT_SLOT_BYTES)
    }

    /// Physical address of table entry `i`.
    fn entry_addr(&self, i: u64) -> MAddr {
        MAddr::physical(INVERTED_TABLE_BASE + i * INVERTED_PTE_BYTES)
    }

    fn ensure_mapped(&mut self, vpn: Vpn) {
        if self.entry_of.contains_key(&vpn) {
            return;
        }
        let entry = self.next_entry % self.config.slots();
        self.next_entry += 1;
        // The inverted table is strictly one entry per frame: reclaiming
        // a frame evicts its previous page's mapping (the page would be
        // paged out on real hardware).
        if let Some(old) = self.entry_of.iter().find(|&(_, &e)| e == entry).map(|(v, _)| *v) {
            self.entry_of.remove(&old);
            let ob = self.hash(old) as usize;
            self.buckets[ob].retain(|v| *v != old);
        }
        let _pfn: Pfn = self.frames.frame_of(vpn);
        self.entry_of.insert(vpn, entry);
        let bucket = self.hash(vpn) as usize;
        self.buckets[bucket].push(vpn);
    }

    /// Mean memory references per walk so far (anchor load included).
    pub fn mean_walk_loads(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.walk_loads as f64 / self.walks as f64
        }
    }

    /// Pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.entry_of.len()
    }
}

impl TlbRefill for InvertedWalker {
    fn name(&self) -> &'static str {
        match self.config.mode {
            RefillMode::Software => "inverted-hat",
            RefillMode::Hardware { .. } => "inverted-hat-hw",
        }
    }

    /// The walk never reads where a PTE load was satisfied.
    fn shares_front_end(&self) -> bool {
        true
    }

    fn refill(&mut self, ctx: &mut dyn WalkContext, vpn: Vpn, _kind: AccessKind) {
        self.ensure_mapped(vpn);

        self.config.mode.dispatch_level(
            ctx,
            HandlerLevel::User,
            MAddr::physical(USER_HANDLER_BASE),
            Self::HANDLER_INSTRS,
        );

        self.walks += 1;
        // 1. The anchor load — the reference the hashed table eliminates.
        let bucket = self.hash(vpn) as usize;
        ctx.pte_load(HandlerLevel::User, self.anchor_addr(bucket as u64), HAT_SLOT_BYTES);
        // 2. Chain through the inverted table entries, up to the match.
        let chain = &self.buckets[bucket];
        let visited = chain.iter().position(|v| *v == vpn).map_or(chain.len(), |p| p + 1);
        for v in chain.iter().take(visited) {
            ctx.pte_load(HandlerLevel::User, self.entry_addr(self.entry_of[v]), INVERTED_PTE_BYTES);
        }
        self.walk_loads += 1 + visited as u64;
    }

    fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.frames.reset();
        self.entry_of.clear();
        self.next_entry = 0;
        self.walk_loads = 0;
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

    fn walker() -> InvertedWalker {
        InvertedWalker::new(InvertedConfig::new(8 << 20))
    }

    #[test]
    fn geometry_is_one_entry_per_frame() {
        let c = InvertedConfig::new(8 << 20);
        assert_eq!(c.slots(), 2048);
    }

    #[test]
    fn every_walk_pays_the_anchor_load() {
        let mut w = walker();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x17), AccessKind::Load);
        let loads = ctx.pte_loads_at(HandlerLevel::User);
        // Anchor (4 B) then one chain entry (8 B).
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].1, HAT_SLOT_BYTES);
        assert!(loads[0].0.offset() >= HAT_BASE);
        assert_eq!(loads[1].1, INVERTED_PTE_BYTES);
        assert!(loads[1].0.offset() >= INVERTED_TABLE_BASE);
        assert!((w.mean_walk_loads() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn costs_one_more_reference_than_the_hashed_table() {
        use crate::hashed::{HashedConfig, HashedWalker};
        let mut classical = walker();
        let mut hashed = HashedWalker::new(HashedConfig::paper());
        let mut c1 = RecordingContext::new();
        let mut c2 = RecordingContext::new();
        for i in 0..200 {
            classical.refill(&mut c1, uvpn(i * 37), AccessKind::Load);
            hashed.refill(&mut c2, uvpn(i * 37), AccessKind::Load);
        }
        let classical_loads = c1.pte_loads_at(HandlerLevel::User).len();
        let hashed_loads = c2.pte_loads_at(HandlerLevel::User).len();
        // Exactly +1 reference per walk relative to whatever chain
        // behaviour each table exhibits; on average the gap is ~1.
        assert!(
            classical_loads >= hashed_loads + 200 - 20,
            "classical {classical_loads} vs hashed {hashed_loads}"
        );
    }

    #[test]
    fn collision_chains_walk_in_insertion_order() {
        let mut w = walker();
        let a = uvpn(1);
        let target = w.hash(a);
        let b = (2..1 << 19).map(uvpn).find(|&v| v != a && w.hash(v) == target).unwrap();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, a, AccessKind::Load);
        w.refill(&mut ctx, b, AccessKind::Load);
        ctx.events.clear();
        w.refill(&mut ctx, b, AccessKind::Load);
        // anchor + a's entry + b's entry.
        assert_eq!(ctx.pte_loads_at(HandlerLevel::User).len(), 3);
    }

    #[test]
    fn hardware_mode_takes_no_interrupt() {
        let mut w = InvertedWalker::new(InvertedConfig::new(8 << 20).hardware());
        assert_eq!(w.name(), "inverted-hat-hw");
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(5), AccessKind::Load);
        assert_eq!(ctx.interrupts(), 0);
        assert!(ctx.events.iter().any(|e| matches!(e, WalkEvent::Inline { .. })));
    }

    #[test]
    fn reset_clears_state() {
        let mut w = walker();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(5), AccessKind::Load);
        assert_eq!(w.mapped_pages(), 1);
        w.reset();
        assert_eq!(w.mapped_pages(), 0);
        assert_eq!(w.mean_walk_loads(), 0.0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(walker().name(), "inverted-hat");
    }
}
