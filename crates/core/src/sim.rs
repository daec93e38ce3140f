//! The memory system simulator: the paper's Section 3.1 algorithm.

use vm_cache::CacheSystem;
use vm_obs::{CacheId, Event, NopSink, Sink};
use vm_ptable::{TlbRefill, WalkContext};
use vm_tlb::Tlb;
use vm_trace::InstrRecord;
use vm_types::{AccessKind, HandlerLevel, MAddr, MissClass, Vpn};

use crate::report::{lvl, RawCounts, SimReport};
use crate::system::{BuildError, SimConfig};

/// How TLB entries relate to address-space identifiers.
///
/// With multiprogramming traces ([`vm_trace::Multiprogram`]) the choice
/// matters enormously; on single-process traces the modes are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsidMode {
    /// Entries are tagged with the owning process's ASID (MIPS-style):
    /// translations survive context switches.
    Tagged,
    /// Entries carry no ASID (period x86-style): the OS must flush both
    /// TLBs on every context switch, which the simulator performs
    /// automatically when the running ASID changes.
    Untagged,
}

/// The MMU configuration of a [`MemorySystem`].
///
/// (The TLB variant is much larger than `Bare`; exactly one `Mmu` exists
/// per simulation, so boxing would buy nothing.)
#[allow(clippy::large_enum_variant)]
pub(crate) enum Mmu {
    /// Split I/D TLBs refilled by a walker (ULTRIX, MACH, INTEL, PA-RISC,
    /// and the hardware-walk ablations).
    Tlb {
        /// Instruction TLB.
        itlb: Tlb,
        /// Data TLB.
        dtlb: Tlb,
        /// The refill procedure.
        walker: Box<dyn TlbRefill>,
    },
    /// No TLB; the walker runs on user L2 cache misses (NOTLB/softvm).
    NoTlb {
        /// The cache-miss handler.
        walker: Box<dyn TlbRefill>,
    },
    /// No VM at all (BASE).
    Bare,
}

impl std::fmt::Debug for Mmu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mmu::Tlb { itlb, dtlb, walker } => f
                .debug_struct("Mmu::Tlb")
                .field("itlb", itlb)
                .field("dtlb", dtlb)
                .field("walker", &walker.name())
                .finish(),
            Mmu::NoTlb { walker } => {
                f.debug_struct("Mmu::NoTlb").field("walker", &walker.name()).finish()
            }
            Mmu::Bare => f.write_str("Mmu::Bare"),
        }
    }
}

/// The complete simulated memory system: split two-level caches, the
/// MMU (TLBs + walker, walker only, or nothing), and event counters.
///
/// Feed it a trace with [`MemorySystem::run`] (or instruction-by-
/// instruction with [`MemorySystem::step`]) and extract a [`SimReport`].
/// Most users never construct one directly — see [`crate::simulate`] and
/// [`SimConfig::build`] — but custom page-table organizations can be
/// plugged in through [`MemorySystem::with_tlb_walker`].
///
/// The system is a front end — the trace position, ASID and periodic
/// flushes, the TLBs and the walker — feeding one cache back end, or
/// several when the walker allows it ([`MemorySystem::add_back_end`]):
/// every back end sees every user reference, handler fetch and PTE load,
/// so one pass measures several cache geometries.
///
/// The system is generic over an event [`Sink`]. The default,
/// [`NopSink`], has `Sink::ENABLED == false`, so every instrumentation
/// site compiles away and the un-instrumented simulator is exactly as
/// fast (and behaves identically) as before the observability layer
/// existed. Attach a real sink with [`MemorySystem::with_sink`] to
/// receive typed [`Event`]s.
#[derive(Debug)]
pub struct MemorySystem<S: Sink = NopSink> {
    label: String,
    mmu: Mmu,
    /// The front end's counts. The cache-side fields stay zero here: each
    /// back end keeps its own.
    counts: RawCounts,
    /// The first cache back end, kept inline: a lone system has only it.
    first: BackEnd,
    /// The back ends added since ([`MemorySystem::add_back_end`]).
    rest: Vec<BackEnd>,
    /// Context-switch model: flush the TLBs every `n` instructions.
    flush_tlb_every: Option<u64>,
    instrs_since_flush: u64,
    asid_mode: AsidMode,
    last_asid: Option<u16>,
    sink: S,
}

/// One cache back end: a cache complement and the [`RawCounts`] fields
/// only it can produce (user L1/L2 misses, `handler_ifetch_*`, `pte_l2`
/// and `pte_mem`; its other fields stay zero).
#[derive(Debug)]
struct BackEnd {
    caches: CacheSystem,
    counts: RawCounts,
}

impl BackEnd {
    fn new(caches: CacheSystem) -> BackEnd {
        BackEnd { caches, counts: RawCounts::default() }
    }

    /// One user reference's cache lookup, counted.
    #[inline]
    fn access(&mut self, addr: MAddr, kind: AccessKind) -> MissClass {
        let (class, l1_ctr, l2_ctr) = if kind == AccessKind::Fetch {
            (self.caches.fetch(addr), &mut self.counts.l1i_misses, &mut self.counts.l2i_misses)
        } else {
            (self.caches.data(addr), &mut self.counts.l1d_misses, &mut self.counts.l2d_misses)
        };
        match class {
            MissClass::L1Hit => {}
            MissClass::L2Hit => *l1_ctr += 1,
            MissClass::Memory => {
                *l1_ctr += 1;
                *l2_ctr += 1;
            }
        }
        class
    }

    /// [`BackEnd::access`] on each of `backs`, kept out of line so a lone
    /// system's reference path stays as short as it was.
    #[inline(never)]
    fn access_all(backs: &mut [BackEnd], addr: MAddr, kind: AccessKind) {
        for back in backs {
            back.access(addr, kind);
        }
    }

    /// The front end's counts with this back end's cache-side fields.
    fn merged(&self, front: &RawCounts) -> RawCounts {
        let c = &self.counts;
        RawCounts {
            l1i_misses: c.l1i_misses,
            l2i_misses: c.l2i_misses,
            l1d_misses: c.l1d_misses,
            l2d_misses: c.l2d_misses,
            pte_l2: c.pte_l2,
            pte_mem: c.pte_mem,
            handler_ifetch_l2: c.handler_ifetch_l2,
            handler_ifetch_mem: c.handler_ifetch_mem,
            ..*front
        }
    }
}

/// The [`WalkContext`] the simulator hands to walkers: it routes handler
/// fetches through every back end's I-caches, PTE loads through every
/// back end's D-caches, and TLB traffic to the D-TLB, classifying every
/// event into [`RawCounts`].
struct WalkCtx<'a, S: Sink> {
    first: &'a mut BackEnd,
    rest: &'a mut [BackEnd],
    dtlb: Option<&'a mut Tlb>,
    counts: &'a mut RawCounts,
    asid_mode: AsidMode,
    sink: &'a mut S,
}

impl<S: Sink> WalkContext for WalkCtx<'_, S> {
    fn exec_handler(&mut self, level: HandlerLevel, base: MAddr, instrs: u32) {
        let i = lvl(level);
        self.counts.handler_invocations[i] += 1;
        self.counts.handler_instr_cycles[i] += u64::from(instrs);
        let now = self.counts.user_instrs;
        for back in std::iter::once(&mut *self.first).chain(self.rest.iter_mut()) {
            for n in 0..u64::from(instrs) {
                // Miss events are counted inclusively, as for user
                // references: a fetch that goes to memory missed the L1
                // *and* the L2, so it costs 20 + 500 cycles (Tables 2-3
                // applied uniformly).
                let class = if S::ENABLED {
                    let (class, fill) = back.caches.fetch_observed(base.add(n * 4));
                    if fill.l1_evicted {
                        self.sink.emit(now, &Event::HandlerEviction { which_cache: CacheId::L1I });
                    }
                    if fill.l2_evicted {
                        self.sink.emit(now, &Event::HandlerEviction { which_cache: CacheId::L2I });
                    }
                    class
                } else {
                    back.caches.fetch(base.add(n * 4))
                };
                if class.missed_l1() {
                    back.counts.handler_ifetch_l2 += 1;
                }
                if class.missed_l2() {
                    back.counts.handler_ifetch_mem += 1;
                }
            }
        }
    }

    fn exec_inline(&mut self, level: HandlerLevel, cycles: u32) {
        let i = lvl(level);
        self.counts.handler_invocations[i] += 1;
        self.counts.inline_cycles[i] += u64::from(cycles);
    }

    fn pte_load(&mut self, level: HandlerLevel, addr: MAddr, bytes: u64) -> MissClass {
        let i = lvl(level);
        self.counts.pte_loads[i] += 1;
        let now = self.counts.user_instrs;
        // The first back end goes last, so the class returned is its own:
        // a walker that reads the class never shares, so it has no other.
        let mut class = MissClass::L1Hit;
        for back in self.rest.iter_mut().chain(std::iter::once(&mut *self.first)) {
            class = if S::ENABLED {
                let (class, fill) = back.caches.data_span_observed(addr, bytes);
                if fill.l1_evicted {
                    self.sink.emit(now, &Event::HandlerEviction { which_cache: CacheId::L1D });
                }
                if fill.l2_evicted {
                    self.sink.emit(now, &Event::HandlerEviction { which_cache: CacheId::L2D });
                }
                class
            } else {
                back.caches.data_span(addr, bytes)
            };
            // Inclusive events, as for user references: a load that goes
            // to memory missed both levels and pays 20 + 500 cycles.
            if class.missed_l1() {
                back.counts.pte_l2[i] += 1;
            }
            if class.missed_l2() {
                back.counts.pte_mem[i] += 1;
            }
        }
        class
    }

    fn dtlb_probe(&mut self, vpn: Vpn) -> bool {
        let key = tlb_key(vpn, self.asid_mode);
        match &mut self.dtlb {
            Some(tlb) => {
                let hit = tlb.lookup(key);
                // Nested misses (taken by a running handler on its own
                // data reference) are attributed to the Kernel nesting
                // tier, distinguishing them from top-level User misses.
                if S::ENABLED && !hit {
                    self.sink.emit(
                        self.counts.user_instrs,
                        &Event::TlbMiss {
                            class: AccessKind::Load,
                            level: HandlerLevel::Kernel,
                            vpn,
                            asid: vpn.asid(),
                        },
                    );
                }
                hit
            }
            // A system without a TLB cannot take a TLB miss; treat every
            // probe as resident so custom walkers degrade gracefully.
            None => true,
        }
    }

    fn dtlb_insert_protected(&mut self, vpn: Vpn) {
        if let Some(tlb) = &mut self.dtlb {
            let victim = tlb.insert_protected(tlb_key(vpn, self.asid_mode));
            if S::ENABLED {
                if let Some(victim) = victim {
                    self.sink.emit(
                        self.counts.user_instrs,
                        &Event::TlbEviction { class: AccessKind::Load, victim },
                    );
                }
            }
        }
    }

    fn dtlb_insert(&mut self, vpn: Vpn) {
        if let Some(tlb) = &mut self.dtlb {
            let victim = tlb.insert_user(tlb_key(vpn, self.asid_mode));
            if S::ENABLED {
                if let Some(victim) = victim {
                    self.sink.emit(
                        self.counts.user_instrs,
                        &Event::TlbEviction { class: AccessKind::Load, victim },
                    );
                }
            }
        }
    }

    fn interrupt(&mut self, level: HandlerLevel) {
        self.counts.interrupts[lvl(level)] += 1;
        if S::ENABLED {
            self.sink.emit(self.counts.user_instrs, &Event::Interrupt { level });
        }
    }
}

/// Snapshot of the [`RawCounts`] fields a walk can change, used to price
/// one walk by differencing before/after ([`WalkCostSnapshot::charge`]).
#[derive(Clone, Copy)]
struct WalkCostSnapshot {
    instr_cycles: u64,
    inline_cycles: u64,
    l2_events: u64,
    mem_events: u64,
    pte_loads: u64,
}

impl WalkCostSnapshot {
    /// The front end's counts `c` with the cache-side counts of `back`.
    fn of(c: &RawCounts, back: &RawCounts) -> WalkCostSnapshot {
        WalkCostSnapshot {
            instr_cycles: c.handler_instr_cycles.iter().sum(),
            inline_cycles: c.inline_cycles.iter().sum(),
            l2_events: back.handler_ifetch_l2 + back.pte_l2.iter().sum::<u64>(),
            mem_events: back.handler_ifetch_mem + back.pte_mem.iter().sum::<u64>(),
            pte_loads: c.pte_loads.iter().sum(),
        }
    }

    /// Cycles and memory references charged since `self` was taken:
    /// handler/inline work at one cycle per instruction plus the Table
    /// 2/3 hierarchy penalties (20 per L2 event, 500 per memory event).
    /// Interrupt costs are priced post-hoc by the cost model and are not
    /// included.
    fn charge(self, after: WalkCostSnapshot) -> (u64, u64) {
        let cycles = (after.instr_cycles - self.instr_cycles)
            + (after.inline_cycles - self.inline_cycles)
            + 20 * (after.l2_events - self.l2_events)
            + 500 * (after.mem_events - self.mem_events);
        let memrefs = (after.pte_loads - self.pte_loads) + (after.instr_cycles - self.instr_cycles);
        (cycles, memrefs)
    }
}

/// The page-number key an entry occupies in the TLB: the full tagged
/// number for ASID-tagged TLBs, the ASID-stripped number for untagged
/// ones (whence the aliasing hazard that forces flush-on-switch).
fn tlb_key(vpn: Vpn, mode: AsidMode) -> Vpn {
    match mode {
        AsidMode::Tagged => vpn,
        AsidMode::Untagged => vpn.strip_asid(),
    }
}

impl MemorySystem {
    pub(crate) fn from_parts(
        label: String,
        caches: CacheSystem,
        mmu: Mmu,
        flush_tlb_every: Option<u64>,
        asid_mode: AsidMode,
    ) -> MemorySystem {
        MemorySystem {
            label,
            mmu,
            counts: RawCounts::default(),
            first: BackEnd::new(caches),
            rest: Vec::new(),
            flush_tlb_every,
            instrs_since_flush: 0,
            asid_mode,
            last_asid: None,
            sink: NopSink,
        }
    }

    /// Assembles a TLB-based system around a custom [`TlbRefill`] walker.
    pub fn with_tlb_walker(
        label: impl Into<String>,
        caches: CacheSystem,
        itlb: Tlb,
        dtlb: Tlb,
        walker: Box<dyn TlbRefill>,
    ) -> MemorySystem {
        MemorySystem::from_parts(
            label.into(),
            caches,
            Mmu::Tlb { itlb, dtlb, walker },
            None,
            AsidMode::Tagged,
        )
    }

    /// Assembles a TLB-less (softvm-style) system around a custom walker
    /// invoked on user L2 misses.
    pub fn with_no_tlb_walker(
        label: impl Into<String>,
        caches: CacheSystem,
        walker: Box<dyn TlbRefill>,
    ) -> MemorySystem {
        MemorySystem::from_parts(
            label.into(),
            caches,
            Mmu::NoTlb { walker },
            None,
            AsidMode::Tagged,
        )
    }

    /// Assembles a VM-less baseline system (the BASE simulation).
    pub fn bare(label: impl Into<String>, caches: CacheSystem) -> MemorySystem {
        MemorySystem::from_parts(label.into(), caches, Mmu::Bare, None, AsidMode::Tagged)
    }

    /// Feeds `caches` from this system's front end as one more back end,
    /// so one pass over the trace measures another cache geometry:
    /// [`MemorySystem::reports`] then holds one report per back end, each
    /// equal to the report of a system built around those caches alone.
    /// Add back ends before the first step.
    ///
    /// Returns `false`, adding nothing, when the front end cannot be
    /// shared: its walker does not declare
    /// [`TlbRefill::shares_front_end`], or the system has no TLBs (a
    /// NOTLB system walks on its own cache misses; BASE has no walker).
    #[must_use]
    pub fn add_back_end(&mut self, caches: CacheSystem) -> bool {
        let shares = matches!(&self.mmu, Mmu::Tlb { walker, .. } if walker.shares_front_end());
        if shares {
            self.rest.push(BackEnd::new(caches));
        }
        shares
    }
}

impl<S: Sink> MemorySystem<S> {
    /// Replaces the event sink, monomorphizing an instrumented copy of
    /// the simulator. Counters and warmed state carry over.
    ///
    /// # Panics
    ///
    /// Panics if an enabled sink would observe more than one back end:
    /// instrumented runs measure one cache geometry.
    pub fn with_sink<S2: Sink>(self, sink: S2) -> MemorySystem<S2> {
        assert!(
            !S2::ENABLED || self.rest.is_empty(),
            "an instrumented system feeds one cache back end, not {}",
            1 + self.rest.len()
        );
        MemorySystem {
            label: self.label,
            mmu: self.mmu,
            counts: self.counts,
            first: self.first,
            rest: self.rest,
            flush_tlb_every: self.flush_tlb_every,
            instrs_since_flush: self.instrs_since_flush,
            asid_mode: self.asid_mode,
            last_asid: self.last_asid,
            sink,
        }
    }

    /// The attached event sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the system, returning its sink (e.g. to `finish()` an
    /// export sink after the run).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The system's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The raw counts accumulated so far (the first back end's, when
    /// there are several).
    pub fn counts(&self) -> RawCounts {
        self.first.merged(&self.counts)
    }

    /// Executes one traced instruction: the body of the paper's
    /// fundamental simulator loop.
    pub fn step(&mut self, rec: &InstrRecord) {
        // Untagged TLBs must be flushed whenever the running process
        // changes (the OS reloads the page-table base).
        let asid = rec.pc.asid();
        if self.asid_mode == AsidMode::Untagged && self.last_asid.is_some_and(|a| a != asid) {
            self.flush_tlbs();
        }
        self.last_asid = Some(asid);
        if let Some(every) = self.flush_tlb_every {
            self.instrs_since_flush += 1;
            if self.instrs_since_flush >= every {
                self.instrs_since_flush = 0;
                self.flush_tlbs();
            }
        }
        self.counts.user_instrs += 1;
        self.reference(rec.pc, AccessKind::Fetch);
        if let Some(d) = rec.data {
            match d.kind {
                AccessKind::Load => self.counts.user_loads += 1,
                AccessKind::Store => self.counts.user_stores += 1,
                AccessKind::Fetch => {}
            }
            self.reference(d.addr, d.kind);
        }
    }

    /// Flushes both TLBs for a simulated context switch (counted once per
    /// flush, not per TLB).
    fn flush_tlbs(&mut self) {
        if let Mmu::Tlb { itlb, dtlb, .. } = &mut self.mmu {
            self.counts.tlb_flushes += 1;
            if S::ENABLED {
                let entries_lost = (itlb.occupancy() + dtlb.occupancy()) as u32;
                self.sink
                    .emit(self.counts.user_instrs, &Event::ContextSwitchFlush { entries_lost });
            }
            itlb.flush();
            dtlb.flush();
        }
    }

    /// One user reference: translation (TLB systems), the cache lookup in
    /// every back end, and softvm's L2-miss servicing (NOTLB systems).
    #[inline]
    fn reference(&mut self, addr: MAddr, kind: AccessKind) {
        self.translate(addr, kind);
        // The first back end's class decides: a NOTLB system, whose walks
        // follow its cache misses, never has another.
        let class = self.first.access(addr, kind);
        if !self.rest.is_empty() {
            BackEnd::access_all(&mut self.rest, addr, kind);
        }
        if S::ENABLED && class.missed_l1() {
            let now = self.counts.user_instrs;
            self.sink.emit(now, &Event::CacheMiss { class: kind, filled_from: class });
        }
        if class == MissClass::Memory {
            self.service_l2_miss(addr, kind);
        }
    }

    /// TLB lookup, walking the page table on a miss (TLB systems only).
    fn translate(&mut self, addr: MAddr, kind: AccessKind) {
        if let Mmu::Tlb { itlb, dtlb, walker } = &mut self.mmu {
            let key = tlb_key(addr.vpn(), self.asid_mode);
            let hit = if kind == AccessKind::Fetch { itlb.lookup(key) } else { dtlb.lookup(key) };
            if !hit {
                let now = self.counts.user_instrs;
                if S::ENABLED {
                    self.sink.emit(
                        now,
                        &Event::TlbMiss {
                            class: kind,
                            level: HandlerLevel::User,
                            vpn: addr.vpn(),
                            asid: addr.vpn().asid(),
                        },
                    );
                }
                let before =
                    S::ENABLED.then(|| WalkCostSnapshot::of(&self.counts, &self.first.counts));
                // The handler's own data references go through the D-TLB
                // regardless of which TLB missed. The walker always sees
                // the full (tagged) page number: page tables are
                // per-process even when the TLB is not.
                let mut ctx = WalkCtx {
                    first: &mut self.first,
                    rest: &mut self.rest,
                    dtlb: Some(dtlb),
                    counts: &mut self.counts,
                    asid_mode: self.asid_mode,
                    sink: &mut self.sink,
                };
                walker.refill(&mut ctx, addr.vpn(), kind);
                if S::ENABLED {
                    if let Some(before) = before {
                        let (cycles, memrefs) =
                            before.charge(WalkCostSnapshot::of(&self.counts, &self.first.counts));
                        self.sink.emit(
                            now,
                            &Event::WalkComplete { level: HandlerLevel::User, cycles, memrefs },
                        );
                    }
                }
                let victim = if kind == AccessKind::Fetch {
                    itlb.insert_user(key)
                } else {
                    dtlb.insert_user(key)
                };
                if S::ENABLED {
                    if let Some(victim) = victim {
                        self.sink.emit(now, &Event::TlbEviction { class: kind, victim });
                    }
                }
            }
        }
    }

    /// softvm: the OS services every user-level L2 miss (NOTLB systems).
    fn service_l2_miss(&mut self, addr: MAddr, kind: AccessKind) {
        if let Mmu::NoTlb { walker } = &mut self.mmu {
            let now = self.counts.user_instrs;
            let before = S::ENABLED.then(|| WalkCostSnapshot::of(&self.counts, &self.first.counts));
            let mut ctx = WalkCtx {
                first: &mut self.first,
                rest: &mut self.rest,
                dtlb: None,
                counts: &mut self.counts,
                asid_mode: self.asid_mode,
                sink: &mut self.sink,
            };
            walker.refill(&mut ctx, addr.vpn(), kind);
            if S::ENABLED {
                if let Some(before) = before {
                    let (cycles, memrefs) =
                        before.charge(WalkCostSnapshot::of(&self.counts, &self.first.counts));
                    self.sink.emit(
                        now,
                        &Event::WalkComplete { level: HandlerLevel::User, cycles, memrefs },
                    );
                }
            }
        }
    }

    /// Runs at most `limit` instructions from `trace`; returns how many
    /// actually executed.
    pub fn run<I>(&mut self, trace: I, limit: u64) -> u64
    where
        I: IntoIterator<Item = InstrRecord>,
    {
        let mut executed = 0u64;
        let mut iter = trace.into_iter();
        while executed < limit {
            let Some(rec) = iter.next() else { break };
            self.step(&rec);
            executed += 1;
        }
        executed
    }

    /// Clears all counters (caches, TLBs, raw counts) while keeping the
    /// warmed cache/TLB/page-table state — the boundary between warm-up
    /// and measurement.
    pub fn reset_counters(&mut self) {
        self.counts = RawCounts::default();
        for back in std::iter::once(&mut self.first).chain(&mut self.rest) {
            back.counts = RawCounts::default();
            back.caches.reset_counters();
        }
        if let Mmu::Tlb { itlb, dtlb, .. } = &mut self.mmu {
            itlb.reset_counters();
            dtlb.reset_counters();
        }
        // Keep the sink in lock-step with the counters so recorded events
        // reconcile exactly with what the report measures.
        if S::ENABLED {
            self.sink.reset();
        }
    }

    /// Snapshots a [`SimReport`] of everything counted so far (the first
    /// back end's, when there are several).
    pub fn report(&self) -> SimReport {
        self.report_of(&self.first)
    }

    /// One [`SimReport`] per back end, in the order they were added.
    pub fn reports(&self) -> Vec<SimReport> {
        std::iter::once(&self.first).chain(&self.rest).map(|back| self.report_of(back)).collect()
    }

    fn report_of(&self, back: &BackEnd) -> SimReport {
        let (itlb, dtlb) = match &self.mmu {
            Mmu::Tlb { itlb, dtlb, .. } => (Some(itlb.counters()), Some(dtlb.counters())),
            _ => (None, None),
        };
        let cache_counters = back.caches.counters();
        SimReport {
            system: self.label.clone(),
            counts: back.merged(&self.counts),
            itlb,
            dtlb,
            icache: cache_counters.instruction_side(),
            dcache: cache_counters.data_side(),
            unified_l2: cache_counters.unified,
            obs: self.sink.snapshot(),
        }
    }
}

/// Builds the system described by `config`, warms it with `warmup`
/// instructions of `trace`, measures the next `measure` instructions and
/// returns the report.
///
/// # Errors
///
/// Returns [`BuildError`] if `config` is internally inconsistent.
pub fn simulate<I>(
    config: &SimConfig,
    trace: I,
    warmup: u64,
    measure: u64,
) -> Result<SimReport, BuildError>
where
    I: IntoIterator<Item = InstrRecord>,
{
    simulate_with_sink(config, trace, warmup, measure, NopSink).map(|(report, _)| report)
}

/// As [`simulate`], but with an event sink attached: every TLB miss,
/// walk, interrupt, flush and eviction during the *measurement* phase is
/// emitted into `sink` (the sink is reset at the warm-up boundary, so
/// events reconcile with the report's counters). Returns the report and
/// the sink, the latter so export sinks can be `finish()`ed.
///
/// # Errors
///
/// Returns [`BuildError`] if `config` is internally inconsistent.
pub fn simulate_with_sink<I, S>(
    config: &SimConfig,
    trace: I,
    warmup: u64,
    measure: u64,
    sink: S,
) -> Result<(SimReport, S), BuildError>
where
    I: IntoIterator<Item = InstrRecord>,
    S: Sink,
{
    let mut system = config.build()?.with_sink(sink);
    let mut iter = trace.into_iter();
    system.run(&mut iter, warmup);
    system.reset_counters();
    system.run(&mut iter, measure);
    let report = system.report();
    Ok((report, system.into_sink()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::system::SystemKind;
    use vm_trace::presets;

    fn quick(system: SystemKind, seed: u64) -> SimReport {
        let config = SimConfig::paper_default(system);
        simulate(&config, presets::gcc(seed), 30_000, 120_000).unwrap()
    }

    #[test]
    fn base_system_has_zero_vm_overhead() {
        let r = quick(SystemKind::Base, 1);
        let cost = CostModel::default();
        assert_eq!(r.vmcpi(&cost).total(), 0.0);
        assert_eq!(r.interrupt_cpi(&cost), 0.0);
        assert!(r.mcpi(&cost).total() > 0.0, "a real workload must miss sometimes");
        assert!(r.itlb.is_none() && r.dtlb.is_none());
    }

    #[test]
    fn instruction_counts_match_the_run_length() {
        let r = quick(SystemKind::Ultrix, 1);
        assert_eq!(r.counts.user_instrs, 120_000);
        assert!(r.counts.user_loads > 0);
        assert!(r.counts.user_stores > 0);
    }

    #[test]
    fn software_systems_take_interrupts_intel_does_not() {
        let ultrix = quick(SystemKind::Ultrix, 2);
        let intel = quick(SystemKind::Intel, 2);
        assert!(ultrix.counts.total_interrupts() > 0);
        assert_eq!(intel.counts.total_interrupts(), 0);
        // INTEL's handler never touches the I-caches.
        assert_eq!(intel.counts.handler_ifetch_l2, 0);
        assert_eq!(intel.counts.handler_ifetch_mem, 0);
        assert_eq!(intel.counts.handler_instr_cycles, [0, 0, 0]);
        assert!(intel.counts.inline_cycles[0] > 0);
    }

    #[test]
    fn intel_walks_root_on_every_miss() {
        let intel = quick(SystemKind::Intel, 3);
        assert_eq!(intel.counts.pte_loads[0], intel.counts.pte_loads[2]);
        assert!(intel.counts.pte_loads[0] > 0);
    }

    #[test]
    fn ultrix_root_walks_are_rare() {
        let r = quick(SystemKind::Ultrix, 3);
        assert!(r.counts.handler_invocations[0] > 0);
        assert!(
            r.counts.handler_invocations[2] < r.counts.handler_invocations[0] / 2,
            "root walks ({}) should be far rarer than user walks ({})",
            r.counts.handler_invocations[2],
            r.counts.handler_invocations[0]
        );
    }

    #[test]
    fn mach_uses_all_three_levels() {
        let r = quick(SystemKind::Mach, 3);
        assert!(r.counts.handler_invocations[0] > 0);
        assert!(r.counts.handler_invocations[1] > 0, "kernel-level misses should occur");
    }

    #[test]
    fn tlb_misses_equal_user_walks_for_tlb_systems() {
        let r = quick(SystemKind::Ultrix, 4);
        let tlb_misses = r.itlb.unwrap().misses() + r.dtlb.unwrap().misses();
        // Every top-level walk is triggered by exactly one user TLB miss;
        // nested (kernel/root) probes also count as D-TLB lookups, so
        // compare against user-level handler invocations only.
        assert_eq!(r.counts.handler_invocations[0], tlb_misses - nested_probe_misses(&r));
    }

    fn nested_probe_misses(r: &SimReport) -> u64 {
        // Ultrix probes the D-TLB once per user walk; each probe miss
        // equals one root-level invocation.
        r.counts.handler_invocations[2]
    }

    #[test]
    fn notlb_invokes_walker_on_l2_misses_only() {
        let r = quick(SystemKind::NoTlb, 5);
        assert!(r.itlb.is_none());
        let user_l2_misses = r.counts.l2i_misses + r.counts.l2d_misses;
        assert_eq!(r.counts.handler_invocations[0], user_l2_misses);
        assert!(r.counts.total_interrupts() >= user_l2_misses);
    }

    #[test]
    fn warmup_is_excluded_from_counts() {
        let config = SimConfig::paper_default(SystemKind::Ultrix);
        let cold = simulate(&config, presets::gcc(7), 0, 50_000).unwrap();
        let warm = simulate(&config, presets::gcc(7), 100_000, 50_000).unwrap();
        let cost = CostModel::default();
        assert!(
            warm.mcpi(&cost).total() < cold.mcpi(&cost).total(),
            "warmed caches must miss less: warm {} vs cold {}",
            warm.mcpi(&cost).total(),
            cold.mcpi(&cost).total()
        );
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = quick(SystemKind::PaRisc, 9);
        let b = quick(SystemKind::PaRisc, 9);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn hybrid_avoids_interrupts_but_walks_chains() {
        let r = quick(SystemKind::Hybrid, 10);
        assert_eq!(r.counts.total_interrupts(), 0);
        assert!(r.counts.pte_loads[0] > 0);
        assert!(r.counts.inline_cycles[0] > 0);
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_reconciles() {
        let config = SimConfig::paper_default(SystemKind::Ultrix);
        let plain = simulate(&config, presets::gcc(3), 30_000, 120_000).unwrap();
        let (instr, sink) =
            simulate_with_sink(&config, presets::gcc(3), 30_000, 120_000, vm_obs::StatsSink::new())
                .unwrap();
        // Observation must not perturb the simulation.
        assert_eq!(plain.counts, instr.counts);
        assert_eq!(plain.itlb, instr.itlb);
        assert_eq!(plain.dtlb, instr.dtlb);
        // Events reconcile exactly with the measured counters.
        let snap = sink.into_snapshot();
        assert_eq!(
            snap.total_tlb_misses(),
            instr.itlb.unwrap().misses() + instr.dtlb.unwrap().misses()
        );
        assert_eq!(snap.counters.interrupts.iter().sum::<u64>(), instr.counts.total_interrupts());
        assert_eq!(snap.counters.flushes, instr.counts.tlb_flushes);
        assert_eq!(snap.walk_cycles.count(), snap.counters.walks[0]);
        assert_eq!(instr.obs.as_ref(), Some(&snap));
        assert!(snap.walk_cycles.count() > 0, "gcc must take TLB misses");
    }

    #[test]
    #[should_panic(expected = "one cache back end")]
    fn an_instrumented_system_measures_one_geometry() {
        let config = SimConfig::paper_default(SystemKind::Ultrix);
        let mut system = config.build().unwrap();
        assert!(system.add_back_end(config.build_caches().unwrap()));
        let _ = system.with_sink(vm_obs::StatsSink::new());
    }

    #[test]
    fn nop_sink_report_carries_no_snapshot() {
        let r = quick(SystemKind::Ultrix, 12);
        assert!(r.obs.is_none());
    }

    #[test]
    fn vmcpi_is_in_the_papers_ballpark() {
        // Section 4.1: "the overheads are in the right ballpark to
        // represent a 5-10% overhead for a 1 CPI machine". Allow a wide
        // band: the workload model is synthetic.
        let r = quick(SystemKind::Ultrix, 11);
        let v = r.vmcpi(&CostModel::default()).total();
        assert!(v > 0.001, "VMCPI {v} suspiciously small");
        assert!(v < 0.6, "VMCPI {v} suspiciously large");
    }
}
