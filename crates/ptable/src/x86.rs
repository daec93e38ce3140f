//! The BSD/Intel x86 two-tiered page table, walked top-down by hardware
//! (Figure 3).
//!
//! Unlike the MIPS-style tables, the x86 table is walked from the root
//! down: on *every* TLB miss the hardware makes exactly two physical
//! memory references — one into the 4 KB page directory, one into the
//! 4 KB PTE page covering the faulting 4 MB region. The state machine
//! takes seven cycles of sequential work (the paper's cycle-by-cycle
//! breakdown in Section 3.1), takes **no interrupt**, and never touches
//! the instruction cache. Root-level PTEs are *not* cached in the TLB,
//! so the TLB is unpartitioned.

use std::collections::HashMap;

use vm_types::{AccessKind, HandlerLevel, MAddr, Vpn};

use crate::layout::{HIER_PTE_BYTES, X86_PD_BASE, X86_PT_POOL_BASE};
use crate::walker::{TlbRefill, WalkContext};

/// The BSD/Windows NT on Intel x86 organization (hardware-managed TLB).
#[derive(Debug, Clone)]
pub struct X86Walker {
    /// Frames assigned to PTE pages, keyed by (asid, directory slot).
    /// Placement is deterministic (see [`X86Walker::pt_entry`]); the map
    /// records which pages exist, for [`X86Walker::pt_pages`].
    pt_frames: HashMap<(u16, u64), u64>,
}

impl X86Walker {
    /// The state machine's cost per walk (Section 3.1: seven cycles).
    pub const WALK_CYCLES: u32 = 7;
    /// PTEs per 4 KB PTE page.
    const PTES_PER_PAGE: u64 = 1024;

    /// Creates the walker with an empty page-table-page pool.
    pub fn new() -> X86Walker {
        X86Walker { pt_frames: HashMap::new() }
    }

    /// Physical address of the page-directory entry covering `vpn`'s
    /// 4 MB region (one 4 KB directory per process).
    pub fn pd_entry(vpn: Vpn) -> MAddr {
        let pd_index = vpn.index_in_space() / Self::PTES_PER_PAGE;
        let directory = X86_PD_BASE + u64::from(vpn.asid()) * 4096;
        MAddr::physical(directory + pd_index * HIER_PTE_BYTES)
    }

    /// Pages in the PTE-page pool (512 directory entries cover 2 GB).
    const POOL_PAGES: u64 = 512; // 2 MB pool

    /// Physical address of the leaf PTE for `vpn`, allocating the PTE
    /// page on first touch.
    ///
    /// The frame for directory slot `d` sits at pool offset `d` pages.
    /// This makes the leaf table's *cache-index* footprint identical to
    /// the Ultrix/Mach 2 MB virtual table's — `pool + d*4096 + (vpn %
    /// 1024)*4` and `UPT + vpn*4` index every virtually-indexed cache the
    /// same way — which is exactly the comparison the paper sets up ("the
    /// Intel page table is similar to the MIPS page table"): the systems
    /// differ in *walk mechanism*, not in table geometry. (Physically the
    /// pages remain independent frames; a PTE page is still never
    /// indexed by the full VPN.)
    pub fn pt_entry(&mut self, vpn: Vpn) -> MAddr {
        let pd_index = vpn.index_in_space() / Self::PTES_PER_PAGE;
        debug_assert!(pd_index < Self::POOL_PAGES, "2 GB user space has 512 directory slots");
        let key = (vpn.asid(), pd_index);
        let frame_base = *self.pt_frames.entry(key).or_insert_with(|| {
            let pool = X86_PT_POOL_BASE + u64::from(vpn.asid()) * (2 << 20);
            pool + pd_index * 4096
        });
        MAddr::physical(frame_base + (vpn.index_in_space() % Self::PTES_PER_PAGE) * HIER_PTE_BYTES)
    }

    /// PTE pages allocated so far.
    pub fn pt_pages(&self) -> usize {
        self.pt_frames.len()
    }
}

impl Default for X86Walker {
    fn default() -> X86Walker {
        X86Walker::new()
    }
}

impl TlbRefill for X86Walker {
    fn name(&self) -> &'static str {
        "intel"
    }

    /// The walk never reads where a PTE load was satisfied.
    fn shares_front_end(&self) -> bool {
        true
    }

    fn refill(&mut self, ctx: &mut dyn WalkContext, vpn: Vpn, _kind: AccessKind) {
        // No interrupt, no handler code: the pipeline freezes for the
        // state machine's sequential work.
        ctx.exec_inline(HandlerLevel::User, Self::WALK_CYCLES);
        // Top-down: root first, leaf second, both physical and cacheable.
        ctx.pte_load(HandlerLevel::Root, Self::pd_entry(vpn), HIER_PTE_BYTES);
        let leaf = self.pt_entry(vpn);
        ctx.pte_load(HandlerLevel::User, leaf, HIER_PTE_BYTES);
    }

    fn reset(&mut self) {
        self.pt_frames.clear();
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

    #[test]
    fn every_walk_is_two_loads_no_interrupt_no_code() {
        let mut w = X86Walker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x345), AccessKind::Load);
        assert_eq!(ctx.interrupts(), 0);
        assert!(ctx.handlers_at(HandlerLevel::User).is_empty());
        assert_eq!(ctx.events.len(), 3);
        assert_eq!(ctx.events[0], WalkEvent::Inline { level: HandlerLevel::User, cycles: 7 });
        // Root (directory) load comes before the leaf load: top-down.
        assert!(matches!(ctx.events[1], WalkEvent::PteLoad { level: HandlerLevel::Root, .. }));
        assert!(matches!(ctx.events[2], WalkEvent::PteLoad { level: HandlerLevel::User, .. }));
    }

    #[test]
    fn repeat_walks_always_reload_the_directory() {
        // The root level is accessed on every TLB miss — the behaviour
        // behind the paper's visible rpte-L2/rpte-MEM components.
        let mut w = X86Walker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(1), AccessKind::Load);
        w.refill(&mut ctx, uvpn(2), AccessKind::Load);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Root).len(), 2);
    }

    #[test]
    fn pages_in_same_region_share_a_pte_page() {
        let mut w = X86Walker::new();
        let a = w.pt_entry(uvpn(0));
        let b = w.pt_entry(uvpn(1));
        assert_eq!(b.offset() - a.offset(), 4);
        assert_eq!(w.pt_pages(), 1);
    }

    #[test]
    fn distinct_regions_get_distinct_pte_pages() {
        let mut w = X86Walker::new();
        let far = w.pt_entry(uvpn(5 * 1024)); // region 5, touched first
        let near = w.pt_entry(uvpn(0)); // region 0, touched second
        let frame_of = |a: MAddr| a.offset() & !0xfff;
        assert_ne!(frame_of(far), frame_of(near));
        for a in [far, near] {
            assert!(frame_of(a) >= X86_PT_POOL_BASE);
            assert!(frame_of(a) < X86_PT_POOL_BASE + X86Walker::POOL_PAGES * 4096);
        }
        assert_eq!(w.pt_pages(), 2);
    }

    #[test]
    fn leaf_index_footprint_matches_the_mips_style_table() {
        // The Intel leaf entry for vpn and the Ultrix UPT entry for vpn
        // must land on the same cache index (same offset modulo any
        // power-of-two cache size up to the 2 MB table span).
        use crate::ultrix::UltrixWalker;
        let mut w = X86Walker::new();
        for v in [0u64, 1, 1023, 1024, 123_456, (1 << 19) - 1] {
            let intel = w.pt_entry(uvpn(v)).offset() - X86_PT_POOL_BASE;
            let ultrix = UltrixWalker::upt_entry(uvpn(v)).offset() - crate::layout::UPT_BASE;
            assert_eq!(intel, ultrix, "vpn {v}");
        }
    }

    #[test]
    fn pool_allocation_never_hands_out_the_same_frame_twice() {
        let mut w = X86Walker::new();
        let mut frames = std::collections::HashSet::new();
        for region in 0..512u64 {
            let e = w.pt_entry(uvpn(region * 1024));
            assert!(frames.insert(e.offset() & !0xfff), "duplicate frame for region {region}");
        }
        assert_eq!(w.pt_pages(), 512);
    }

    #[test]
    fn pd_entries_step_by_4mb_regions() {
        let a = X86Walker::pd_entry(uvpn(0));
        let b = X86Walker::pd_entry(uvpn(1024));
        assert_eq!(b.offset() - a.offset(), 4);
        assert_eq!(X86Walker::pd_entry(uvpn(1023)), a);
        assert_eq!(a.space(), AddressSpace::Physical);
    }

    #[test]
    fn reset_forgets_frame_assignments() {
        let mut w = X86Walker::new();
        let first = w.pt_entry(uvpn(5 * 1024));
        w.reset();
        assert_eq!(w.pt_pages(), 0);
        let again = w.pt_entry(uvpn(5 * 1024));
        assert_eq!(first, again, "placement is deterministic across resets");
        assert_eq!(w.pt_pages(), 1);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(X86Walker::default().name(), "intel");
    }
}
