//! The Ultrix/MIPS two-tiered page table, walked bottom-up (Figure 1).
//!
//! The 2 GB user address space is mapped by a 2 MB linear array of 4-byte
//! PTEs in mapped kernel space (the *user page table*, UPT), which is in
//! turn mapped by a 2 KB array wired down in physical memory (the *root
//! page table*, RPT). A refill therefore needs at most two memory
//! references:
//!
//! 1. the ten-instruction user-level handler indexes the UPT virtually —
//!    a load that itself goes through the data TLB;
//! 2. if that load misses the D-TLB, the twenty-instruction root-level
//!    handler loads the root PTE from physical memory and installs the
//!    UPT-page mapping in the TLB's protected partition.

use vm_types::{AccessKind, HandlerLevel, MAddr, Vpn};

use crate::layout::{HIER_PTE_BYTES, ROOT_HANDLER_BASE, USER_HANDLER_BASE};
use crate::walker::{RefillMode, TlbRefill, WalkContext};

/// The Ultrix/MIPS organization.
///
/// In [`RefillMode::Software`] this is the paper's ULTRIX simulation; in
/// [`RefillMode::Hardware`] it models a MIPS-style table walked by a
/// state machine (one of the hypothetical designs Section 4.2 invites the
/// reader to interpolate).
#[derive(Debug, Clone)]
pub struct UltrixWalker {
    mode: RefillMode,
}

impl UltrixWalker {
    /// User-level handler length (Table 4: "10 instrs, 1 PTE load").
    pub const USER_HANDLER_INSTRS: u32 = 10;
    /// Root-level handler length (Table 4: "20 instrs, 1 PTE load").
    pub const ROOT_HANDLER_INSTRS: u32 = 20;

    /// The paper's software-managed configuration.
    pub fn new() -> UltrixWalker {
        UltrixWalker { mode: RefillMode::Software }
    }

    /// The same table under a chosen walk mode.
    pub fn with_mode(mode: RefillMode) -> UltrixWalker {
        UltrixWalker { mode }
    }

    /// The kernel-virtual address of the UPT entry mapping `vpn`
    /// (shared two-tier geometry; see [`crate::layout::two_tier_upt_entry`]).
    pub fn upt_entry(vpn: Vpn) -> MAddr {
        crate::layout::two_tier_upt_entry(vpn)
    }

    /// The physical address of the root PTE mapping the UPT page that
    /// holds `vpn`'s entry.
    pub fn root_entry(vpn: Vpn) -> MAddr {
        crate::layout::two_tier_root_entry(vpn)
    }
}

impl Default for UltrixWalker {
    fn default() -> UltrixWalker {
        UltrixWalker::new()
    }
}

impl TlbRefill for UltrixWalker {
    fn name(&self) -> &'static str {
        "ultrix"
    }

    /// The walk never reads where a PTE load was satisfied.
    fn shares_front_end(&self) -> bool {
        true
    }

    fn refill(&mut self, ctx: &mut dyn WalkContext, vpn: Vpn, _kind: AccessKind) {
        self.mode.dispatch_level(
            ctx,
            HandlerLevel::User,
            MAddr::physical(USER_HANDLER_BASE),
            Self::USER_HANDLER_INSTRS,
        );

        let upt_entry = Self::upt_entry(vpn);
        if !ctx.dtlb_probe(upt_entry.vpn()) {
            self.mode.dispatch_level(
                ctx,
                HandlerLevel::Root,
                MAddr::physical(ROOT_HANDLER_BASE),
                Self::ROOT_HANDLER_INSTRS,
            );
            ctx.pte_load(HandlerLevel::Root, Self::root_entry(vpn), HIER_PTE_BYTES);
            ctx.dtlb_insert_protected(upt_entry.vpn());
        }

        ctx.pte_load(HandlerLevel::User, upt_entry, HIER_PTE_BYTES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ROOT_TABLE_BASE, UPT_BASE};
    use crate::mock::{RecordingContext, WalkEvent};
    use vm_types::AddressSpace;

    fn uvpn(i: u64) -> Vpn {
        Vpn::new(AddressSpace::User, i)
    }

    #[test]
    fn fast_path_is_one_handler_one_load() {
        let vpn = uvpn(0x123);
        let mut w = UltrixWalker::new();
        let mut ctx = RecordingContext::new().with_dtlb([UltrixWalker::upt_entry(vpn).vpn()]);
        w.refill(&mut ctx, vpn, AccessKind::Load);
        assert_eq!(
            ctx.events,
            vec![
                WalkEvent::Interrupt { level: HandlerLevel::User },
                WalkEvent::Handler {
                    level: HandlerLevel::User,
                    base: MAddr::physical(USER_HANDLER_BASE),
                    instrs: 10,
                },
                WalkEvent::DtlbProbe { vpn: UltrixWalker::upt_entry(vpn).vpn(), hit: true },
                WalkEvent::PteLoad {
                    level: HandlerLevel::User,
                    addr: UltrixWalker::upt_entry(vpn),
                    bytes: 4,
                },
            ]
        );
    }

    #[test]
    fn slow_path_invokes_root_handler_and_protects_upt_page() {
        let vpn = uvpn(0x123);
        let mut w = UltrixWalker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, vpn, AccessKind::Fetch);
        assert_eq!(ctx.interrupts(), 2);
        assert_eq!(
            ctx.handlers_at(HandlerLevel::Root),
            vec![(MAddr::physical(ROOT_HANDLER_BASE), 20)]
        );
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Root), vec![(UltrixWalker::root_entry(vpn), 4)]);
        assert!(ctx.dtlb.contains(&UltrixWalker::upt_entry(vpn).vpn()));
        // The user PTE load happens last.
        assert_eq!(
            ctx.events.last(),
            Some(&WalkEvent::PteLoad {
                level: HandlerLevel::User,
                addr: UltrixWalker::upt_entry(vpn),
                bytes: 4
            })
        );
    }

    #[test]
    fn second_miss_in_same_upt_page_takes_fast_path() {
        let mut w = UltrixWalker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x100), AccessKind::Load);
        let events_first = ctx.events.len();
        ctx.events.clear();
        // 0x101 shares the UPT page with 0x100 (1024 PTEs per page).
        w.refill(&mut ctx, uvpn(0x101), AccessKind::Load);
        assert!(ctx.events.len() < events_first);
        assert_eq!(ctx.interrupts(), 1);
        assert!(ctx.handlers_at(HandlerLevel::Root).is_empty());
    }

    #[test]
    fn vpns_a_upt_page_apart_use_distinct_root_entries() {
        // 1024 4-byte PTEs per UPT page.
        let a = UltrixWalker::root_entry(uvpn(0));
        let b = UltrixWalker::root_entry(uvpn(1024));
        assert_eq!(b.offset() - a.offset(), 4);
        assert_eq!(
            UltrixWalker::root_entry(uvpn(1023)),
            a,
            "vpns in the same UPT page share a root entry"
        );
    }

    #[test]
    fn adjacent_vpns_have_adjacent_upt_entries() {
        let a = UltrixWalker::upt_entry(uvpn(7));
        let b = UltrixWalker::upt_entry(uvpn(8));
        assert_eq!(b.offset() - a.offset(), 4);
        assert_eq!(a.space(), AddressSpace::Kernel);
    }

    #[test]
    fn upt_spans_2mb() {
        let last = UltrixWalker::upt_entry(uvpn((1 << 19) - 1));
        assert_eq!(last.offset() - UPT_BASE, (2 << 20) - 4);
        // ...and the root table spans 2 KB.
        let last_root = UltrixWalker::root_entry(uvpn((1 << 19) - 1));
        assert_eq!(last_root.offset() - ROOT_TABLE_BASE, 2048 - 4);
    }

    #[test]
    fn hardware_mode_takes_no_interrupt_and_fetches_no_code() {
        let mut w = UltrixWalker::with_mode(RefillMode::PAPER_HARDWARE);
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x55), AccessKind::Load);
        assert_eq!(ctx.interrupts(), 0);
        assert!(ctx.handlers_at(HandlerLevel::User).is_empty());
        assert!(ctx.handlers_at(HandlerLevel::Root).is_empty());
        // Same table accesses as software mode.
        assert_eq!(ctx.pte_loads_at(HandlerLevel::User).len(), 1);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Root).len(), 1);
        assert!(ctx
            .events
            .iter()
            .any(|e| matches!(e, WalkEvent::Inline { level: HandlerLevel::User, .. })));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(UltrixWalker::default().name(), "ultrix");
    }
}
