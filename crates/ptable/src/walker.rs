//! The walker abstraction: refill procedures expressed over cost-neutral
//! memory-system primitives.

use vm_types::{AccessKind, HandlerLevel, MAddr, MissClass, Vpn};

/// The memory-system primitives a refill procedure is written against.
///
/// The simulator in `vm-core` implements this trait over its caches,
/// TLBs and statistics; [`crate::mock::RecordingContext`] implements it
/// for unit tests. Each method corresponds to one row of the paper's
/// event taxonomy (Table 3):
///
/// * [`exec_handler`](WalkContext::exec_handler) — run `instrs` handler
///   instructions from `base`, fetching them through the I-caches
///   (`uhandler`/`khandler`/`rhandler` base cost plus `handler-L2` /
///   `handler-MEM` I-cache events);
/// * [`exec_inline`](WalkContext::exec_inline) — charge bare cycles with
///   **no** instruction fetches, as a hardware state machine does;
/// * [`pte_load`](WalkContext::pte_load) — load a page-table entry
///   through the D-caches (`upte`/`kpte`/`rpte` × `L2`/`MEM` events);
/// * [`dtlb_probe`](WalkContext::dtlb_probe) — look a mapping up in the
///   data TLB (the bottom-up tables access their user page table through
///   virtual space, so the handler's own load can TLB-miss);
/// * [`dtlb_insert_protected`](WalkContext::dtlb_insert_protected) —
///   install a kernel-level mapping in the TLB's protected partition;
/// * [`interrupt`](WalkContext::interrupt) — take a precise interrupt
///   (pipeline flush); the cost is applied post-hoc (10/50/200 cycles).
pub trait WalkContext {
    /// Executes `instrs` handler instructions starting at page-aligned
    /// `base`, fetching each through the instruction caches.
    fn exec_handler(&mut self, level: HandlerLevel, base: MAddr, instrs: u32);

    /// Charges `cycles` of sequential hardware work with no I-cache
    /// traffic (the x86 state machine's seven cycles).
    fn exec_inline(&mut self, level: HandlerLevel, cycles: u32);

    /// Loads a `bytes`-wide page-table entry at `addr` through the data
    /// caches; returns where the load was satisfied.
    fn pte_load(&mut self, level: HandlerLevel, addr: MAddr, bytes: u64) -> MissClass;

    /// Probes the data TLB for `vpn` (counted as a TLB lookup).
    fn dtlb_probe(&mut self, vpn: Vpn) -> bool;

    /// Installs `vpn` in the data TLB's protected partition. Per Table 1,
    /// the protected slots hold **root-level** PTEs (the mappings of the
    /// structure one level below the root).
    fn dtlb_insert_protected(&mut self, vpn: Vpn);

    /// Installs `vpn` in the data TLB's ordinary user partition. Mach's
    /// kernel-level PTEs (the mappings of UPT pages) live here: only
    /// root-level PTEs earn protected slots, so user-page traffic can
    /// evict them — the source of the MACH simulation's kernel-level
    /// misses.
    fn dtlb_insert(&mut self, vpn: Vpn);

    /// Takes a precise interrupt attributed to `level`'s handler.
    fn interrupt(&mut self, level: HandlerLevel);
}

/// Whether a page table is walked by software handlers or by a hardware
/// state machine.
///
/// The paper's headline observation is that the *same* table organization
/// costs very differently under the two modes: hardware walking takes no
/// interrupt and touches no I-cache. `Hardware` mode is what the INTEL
/// simulation uses natively, and applying it to the hashed table yields
/// the PowerPC/PA-7200-style hybrid of Section 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefillMode {
    /// Miss handlers run as interrupt-driven software.
    Software,
    /// A hardware state machine walks the table: `cycles_per_level` of
    /// sequential work per table level, no interrupt, no I-cache use.
    Hardware {
        /// Sequential cycles charged per visited table level.
        cycles_per_level: u32,
    },
}

impl RefillMode {
    /// The paper's hardware walk cost: the x86 state machine's 7 cycles
    /// cover two levels, so ~4 cycles of shift/mask/add/load per level
    /// rounded to the paper's published total.
    pub const PAPER_HARDWARE: RefillMode = RefillMode::Hardware { cycles_per_level: 4 };

    /// Returns `true` in software mode.
    pub fn is_software(self) -> bool {
        matches!(self, RefillMode::Software)
    }

    /// Dispatches one table level under this mode: in software, a
    /// precise interrupt followed by `instrs` handler instructions
    /// fetched from `base`; in hardware, `cycles_per_level` of silent
    /// state-machine work. This is the one place the software/hardware
    /// cost asymmetry is encoded — every built-in walker routes through
    /// it.
    pub fn dispatch_level(
        self,
        ctx: &mut dyn WalkContext,
        level: HandlerLevel,
        base: MAddr,
        instrs: u32,
    ) {
        match self {
            RefillMode::Software => {
                ctx.interrupt(level);
                ctx.exec_handler(level, base, instrs);
            }
            RefillMode::Hardware { cycles_per_level } => {
                ctx.exec_inline(level, cycles_per_level);
            }
        }
    }
}

/// A TLB-refill (or, for NOTLB, cache-miss) procedure for one page-table
/// organization.
///
/// `refill` is invoked by the simulator when a user reference misses the
/// TLB (or, in the NOTLB system, the L2 cache) and must express the
/// entire walk through the [`WalkContext`] primitives. After it returns,
/// the simulator installs the faulting page in the missing TLB itself.
pub trait TlbRefill {
    /// Short organization name (`"ultrix"`, `"mach"`, ...), used in
    /// experiment output.
    fn name(&self) -> &'static str;

    /// Walks the page table for faulting user page `vpn`. `kind` is the
    /// access that faulted (fetch, load or store).
    fn refill(&mut self, ctx: &mut dyn WalkContext, vpn: Vpn, kind: AccessKind);

    /// Resets any walker-internal state (hash-table contents, frame
    /// assignments) to the post-boot state. Default: stateless, no-op.
    fn reset(&mut self) {}

    /// Whether one walk may serve several cache geometries at once: true
    /// only if `refill` never reads the [`MissClass`] that
    /// [`WalkContext::pte_load`] returns, so the walk is the same whatever
    /// caches sit behind it. The simulator then feeds every geometry from
    /// one walker and one pair of TLBs. Default: cannot share.
    fn shares_front_end(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_mode_queries() {
        assert!(RefillMode::Software.is_software());
        assert!(!RefillMode::PAPER_HARDWARE.is_software());
        if let RefillMode::Hardware { cycles_per_level } = RefillMode::PAPER_HARDWARE {
            assert_eq!(cycles_per_level, 4);
        } else {
            panic!("PAPER_HARDWARE must be hardware mode");
        }
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check: both traits must be usable as objects.
        fn _take(_: &mut dyn WalkContext, _: &mut dyn TlbRefill) {}
    }
}
