//! Trace-driven memory-management simulator reproducing Jacob & Mudge,
//! *"A Look at Several Memory Management Units, TLB-Refill Mechanisms,
//! and Page Table Organizations"* (ASPLOS 1998).
//!
//! The paper compares five hardware/software virtual-memory organizations
//! (plus a no-VM baseline) by replaying address traces through split,
//! direct-mapped, virtually-addressed, blocking caches and measuring
//!
//! * **MCPI** — memory-system cycles per user instruction (user references
//!   only, but *including* the misses the VM handlers inflict on the
//!   application by displacing its code and data), and
//! * **VMCPI** — the additional cycles of walking page tables and
//!   refilling TLBs, broken into the eleven components of Table 3, and
//! * **interrupt overhead** — precise-interrupt count × a 10/50/200-cycle
//!   cost applied *post hoc* (one simulation serves all three costs).
//!
//! This crate is the simulator core. It composes the substrates —
//! [`vm_cache`] hierarchies, [`vm_tlb`] TLBs, [`vm_ptable`] walkers,
//! [`vm_trace`] workloads — into a [`MemorySystem`] that executes the
//! paper's fundamental algorithm (Section 3.1):
//!
//! ```text
//! while (i = get_next_instruction()) {
//!     if (itlb_miss(i->pc))    { walk_page_table(i->pc); insert_itlb(i->pc); }
//!     icache_lookup(i->pc);
//!     if (LOAD_OR_STORE(i)) {
//!         if (dtlb_miss(i->daddr)) { walk_page_table(i->daddr); insert_dtlb(i->daddr); }
//!         dcache_lookup(i->daddr);
//!     }
//! }
//! ```
//!
//! # Quick start
//!
//! ```
//! use vm_core::{simulate, SimConfig, SystemKind};
//! use vm_core::cost::CostModel;
//! use vm_trace::presets;
//!
//! # fn main() -> Result<(), vm_core::BuildError> {
//! let config = SimConfig::paper_default(SystemKind::Ultrix);
//! let trace = presets::ijpeg(42);
//! let report = simulate(&config, trace, 20_000, 100_000)?;
//!
//! let cost = CostModel::paper(50); // 50-cycle interrupts
//! println!("VMCPI = {:.4}", report.vmcpi(&cost).total());
//! println!("MCPI  = {:.4}", report.mcpi(&cost).total());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
mod report;
mod sim;
mod system;

pub use report::{McpiBreakdown, RawCounts, SimReport, VmcpiBreakdown};
pub use sim::{simulate, simulate_with_sink, AsidMode, MemorySystem};
pub use system::{
    paper, BuildError, ComposeError, MmuClass, SimConfig, SystemKind, TableOrg, MAX_HOST_BYTES,
};
