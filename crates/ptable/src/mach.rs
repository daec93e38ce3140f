//! The Mach/MIPS three-tiered page table, walked bottom-up (Figure 2).
//!
//! A user address space is mapped by a 2 MB table in kernel space; the
//! whole 4 GB kernel space is mapped by a 4 MB kernel page table (the top
//! 4 MB of kernel space); and that table is mapped by a 4 KB root table
//! in physical memory. At most three memory references find a mapping.
//!
//! To differentiate the MACH simulation, the paper makes the root level
//! "extremely high" cost: a 500-instruction path performing ten
//! additional "administrative" loads, standing in for the measured cost
//! of Mach's general-purpose interrupt vector (Bala et al.).

use vm_types::{AccessKind, HandlerLevel, MAddr, Vpn};

use crate::layout::{
    HIER_PTE_BYTES, KERNEL_HANDLER_BASE, MACH_ADMIN_BASE, MACH_ADMIN_BYTES, MACH_KPT_BASE,
    MACH_ROOT_TABLE_BASE, ROOT_HANDLER_BASE, USER_HANDLER_BASE,
};
use crate::walker::{TlbRefill, WalkContext};

/// The Mach/MIPS organization (software-managed TLB only — the expensive
/// software root path *is* the system being modelled).
#[derive(Debug, Clone)]
pub struct MachWalker {
    /// Rotates the administrative loads across the admin area so
    /// successive root invocations touch different lines.
    admin_cursor: u64,
}

impl MachWalker {
    /// User-level handler length (Table 4).
    pub const USER_HANDLER_INSTRS: u32 = 10;
    /// Kernel-level handler length (Table 4).
    pub const KERNEL_HANDLER_INSTRS: u32 = 20;
    /// Root-level handler length (Table 4: "500 instrs").
    pub const ROOT_HANDLER_INSTRS: u32 = 500;
    /// Administrative loads per root invocation (Table 4: `10 "admin" loads`).
    pub const ADMIN_LOADS: u32 = 10;
    /// Byte stride between successive administrative loads.
    const ADMIN_STRIDE: u64 = 64;

    /// Creates the walker.
    pub fn new() -> MachWalker {
        MachWalker { admin_cursor: 0 }
    }

    /// Kernel-virtual address of the UPT entry mapping user page `vpn` —
    /// "the virtual base address of the table is essentially
    /// Base + (processID * 2MB)" (Figure 2).
    pub fn upt_entry(vpn: Vpn) -> MAddr {
        crate::layout::two_tier_upt_entry(vpn)
    }

    /// Kernel-virtual address of the KPT entry mapping kernel page
    /// `kernel_vpn` (the KPT maps the whole 4 GB kernel space).
    pub fn kpt_entry(kernel_vpn: Vpn) -> MAddr {
        MAddr::kernel(MACH_KPT_BASE + kernel_vpn.index_in_space() * HIER_PTE_BYTES)
    }

    /// Physical address of the root PTE mapping the KPT page that holds
    /// `kernel_vpn`'s KPT entry.
    pub fn root_entry(kernel_vpn: Vpn) -> MAddr {
        let kpt_page = (Self::kpt_entry(kernel_vpn).offset() - MACH_KPT_BASE) >> 12;
        MAddr::physical(MACH_ROOT_TABLE_BASE + kpt_page * HIER_PTE_BYTES)
    }
}

impl Default for MachWalker {
    fn default() -> MachWalker {
        MachWalker::new()
    }
}

impl TlbRefill for MachWalker {
    fn name(&self) -> &'static str {
        "mach"
    }

    /// The walk never reads where a PTE load was satisfied.
    fn shares_front_end(&self) -> bool {
        true
    }

    fn refill(&mut self, ctx: &mut dyn WalkContext, vpn: Vpn, _kind: AccessKind) {
        ctx.interrupt(HandlerLevel::User);
        ctx.exec_handler(
            HandlerLevel::User,
            MAddr::physical(USER_HANDLER_BASE),
            Self::USER_HANDLER_INSTRS,
        );

        let upt_entry = Self::upt_entry(vpn);
        if !ctx.dtlb_probe(upt_entry.vpn()) {
            ctx.interrupt(HandlerLevel::Kernel);
            ctx.exec_handler(
                HandlerLevel::Kernel,
                MAddr::physical(KERNEL_HANDLER_BASE),
                Self::KERNEL_HANDLER_INSTRS,
            );

            let kpt_entry = Self::kpt_entry(upt_entry.vpn());
            if !ctx.dtlb_probe(kpt_entry.vpn()) {
                ctx.interrupt(HandlerLevel::Root);
                ctx.exec_handler(
                    HandlerLevel::Root,
                    MAddr::physical(ROOT_HANDLER_BASE),
                    Self::ROOT_HANDLER_INSTRS,
                );
                // The administrative loads are deliberately charged to the
                // rpte components: "The primary difference between MACH
                // and ULTRIX is in rpte-MEM, which, along with rpte-L2 and
                // rhandlers, is where we account for the simulated
                // 'administrative' memory activity" (Section 4.2).
                for _ in 0..Self::ADMIN_LOADS {
                    let addr = MACH_ADMIN_BASE + self.admin_cursor;
                    ctx.pte_load(HandlerLevel::Root, MAddr::physical(addr), HIER_PTE_BYTES);
                    self.admin_cursor = (self.admin_cursor + Self::ADMIN_STRIDE) % MACH_ADMIN_BYTES;
                }
                ctx.pte_load(HandlerLevel::Root, Self::root_entry(upt_entry.vpn()), HIER_PTE_BYTES);
                ctx.dtlb_insert_protected(kpt_entry.vpn());
            }

            ctx.pte_load(HandlerLevel::Kernel, kpt_entry, HIER_PTE_BYTES);
            // Kernel-level PTEs (UPT-page mappings) go to the ordinary
            // partition; only the root-level KPT mappings are protected.
            ctx.dtlb_insert(upt_entry.vpn());
        }

        ctx.pte_load(HandlerLevel::User, upt_entry, HIER_PTE_BYTES);
    }

    fn reset(&mut self) {
        self.admin_cursor = 0;
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
    fn cold_miss_walks_all_three_levels() {
        let mut w = MachWalker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x222), AccessKind::Load);
        assert_eq!(ctx.interrupts(), 3);
        assert_eq!(
            ctx.handlers_at(HandlerLevel::User),
            vec![(MAddr::physical(USER_HANDLER_BASE), 10)]
        );
        assert_eq!(
            ctx.handlers_at(HandlerLevel::Kernel),
            vec![(MAddr::physical(KERNEL_HANDLER_BASE), 20)]
        );
        assert_eq!(
            ctx.handlers_at(HandlerLevel::Root),
            vec![(MAddr::physical(ROOT_HANDLER_BASE), 500)]
        );
        // 10 admin loads + 1 root PTE load at the root level.
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Root).len(), 11);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Kernel).len(), 1);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::User).len(), 1);
    }

    #[test]
    fn warm_upt_page_takes_user_fast_path() {
        let vpn = uvpn(0x222);
        let mut w = MachWalker::new();
        let mut ctx = RecordingContext::new().with_dtlb([MachWalker::upt_entry(vpn).vpn()]);
        w.refill(&mut ctx, vpn, AccessKind::Load);
        assert_eq!(ctx.interrupts(), 1);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Kernel).len(), 0);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Root).len(), 0);
        assert_eq!(
            ctx.events.last(),
            Some(&WalkEvent::PteLoad {
                level: HandlerLevel::User,
                addr: MachWalker::upt_entry(vpn),
                bytes: 4
            })
        );
    }

    #[test]
    fn warm_kpt_page_skips_root_level() {
        let vpn = uvpn(0x222);
        let upt_page = MachWalker::upt_entry(vpn).vpn();
        let mut w = MachWalker::new();
        let mut ctx = RecordingContext::new().with_dtlb([MachWalker::kpt_entry(upt_page).vpn()]);
        w.refill(&mut ctx, vpn, AccessKind::Load);
        assert_eq!(ctx.interrupts(), 2);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Root).len(), 0);
        assert_eq!(ctx.pte_loads_at(HandlerLevel::Kernel).len(), 1);
        // Both intermediate mappings are now resident.
        assert!(ctx.dtlb.contains(&upt_page));
    }

    #[test]
    fn cold_miss_protects_both_intermediate_mappings() {
        let vpn = uvpn(0x7777);
        let mut w = MachWalker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, vpn, AccessKind::Store);
        let upt_page = MachWalker::upt_entry(vpn).vpn();
        let kpt_page = MachWalker::kpt_entry(upt_page).vpn();
        assert!(ctx.dtlb.contains(&upt_page));
        assert!(ctx.dtlb.contains(&kpt_page));
        // A second cold user page in the same UPT page is now cheap.
        ctx.events.clear();
        w.refill(&mut ctx, uvpn(0x7778), AccessKind::Load);
        assert_eq!(ctx.interrupts(), 1);
    }

    #[test]
    fn admin_loads_rotate_through_admin_area() {
        let mut w = MachWalker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x1), AccessKind::Load);
        let first: Vec<_> = ctx
            .pte_loads_at(HandlerLevel::Root)
            .iter()
            .map(|(a, _)| a.offset())
            .filter(|o| (MACH_ADMIN_BASE..MACH_ADMIN_BASE + MACH_ADMIN_BYTES).contains(o))
            .collect();
        assert_eq!(first.len(), 10);
        // Force another root walk with a distant page and compare.
        ctx.dtlb.clear();
        ctx.events.clear();
        w.refill(&mut ctx, uvpn(0x4_0000), AccessKind::Load);
        let second: Vec<_> = ctx
            .pte_loads_at(HandlerLevel::Root)
            .iter()
            .map(|(a, _)| a.offset())
            .filter(|o| (MACH_ADMIN_BASE..MACH_ADMIN_BASE + MACH_ADMIN_BYTES).contains(o))
            .collect();
        assert_eq!(second.len(), 10);
        assert_ne!(first, second, "admin loads should not replay identical addresses");
    }

    #[test]
    fn reset_restores_admin_cursor() {
        let mut w = MachWalker::new();
        let mut ctx = RecordingContext::new();
        w.refill(&mut ctx, uvpn(0x1), AccessKind::Load);
        let first = ctx.pte_loads_at(HandlerLevel::Root);
        w.reset();
        let mut ctx2 = RecordingContext::new();
        w.refill(&mut ctx2, uvpn(0x1), AccessKind::Load);
        assert_eq!(first, ctx2.pte_loads_at(HandlerLevel::Root));
    }

    #[test]
    fn table_geometry_matches_figure2() {
        // UPT entries are 4 bytes apart per user page.
        assert_eq!(
            MachWalker::upt_entry(uvpn(1)).offset() - MachWalker::upt_entry(uvpn(0)).offset(),
            4
        );
        // The KPT lives in the top 4 MB of kernel space.
        let upt_page = MachWalker::upt_entry(uvpn(0)).vpn();
        let kpt = MachWalker::kpt_entry(upt_page);
        assert!(kpt.offset() >= MACH_KPT_BASE);
        assert_eq!(kpt.space(), AddressSpace::Kernel);
        // Root entries live in physical memory.
        assert_eq!(MachWalker::root_entry(upt_page).space(), AddressSpace::Physical);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MachWalker::default().name(), "mach");
    }
}
