//! The deterministic synthetic trace generator.

use std::sync::Arc;

use vm_types::{MAddr, SplitMix64, PAGE_SIZE};

use crate::record::InstrRecord;
use crate::spec::{AccessPattern, WorkloadSpec};

/// A Zipf(s) sampler over `n` ranks via inverse-CDF binary search.
#[derive(Debug)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Deterministic Fisher–Yates permutation of `0..n`, so that "hot" Zipf
/// ranks land on scattered (not contiguous) items.
fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

#[derive(Debug)]
struct FnLayout {
    /// Global index of the function's first instruction.
    first_instr: u64,
    /// Body length in instructions.
    len: u32,
    /// Loop-body length used at back edges.
    loop_len: u32,
}

/// A data region's read-only part.
#[derive(Debug)]
enum Region {
    Sequential { stride: u64 },
    RandomPage { zipf: Zipf, page_perm: Vec<u32>, dwell: u32, run_len: u32 },
    Stack,
}

/// A data region's moving part: where its next reference falls.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    cursor: u64,
    page_base: u64,
    dwell_left: u32,
    run_left: u32,
}

/// What a generator only reads: a pure function of its spec and seed,
/// built once and shared by every clone (vortex's 160 MB heap alone is
/// 480 KiB of Zipf ranks and page permutation).
#[derive(Debug)]
struct Tables {
    fns: Vec<FnLayout>,
    call_zipf: Zipf,
    fn_perm: Vec<u32>,
    region_cdf: Vec<f64>,
    regions: Vec<Region>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    resume: u32,
}

/// A deterministic synthetic instruction/data reference stream.
///
/// Built from a [`WorkloadSpec`] via [`WorkloadSpec::build`]; iterating
/// yields an unbounded stream of [`InstrRecord`]s (bound it with
/// [`Iterator::take`]). The same spec and seed always produce the same
/// stream — the property that lets one workload be replayed against every
/// simulated VM organization, as the paper does.
///
/// The generator's tables sit behind one [`Arc`], so a clone is cheap: a
/// clone of an unstarted generator replays the same stream from its start
/// without rebuilding them.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    spec: WorkloadSpec,
    rng: SplitMix64,
    tables: Arc<Tables>,
    cursors: Vec<Cursor>,
    stack: Vec<Frame>,
    cur_fn: usize,
    cur_idx: u32,
}

impl SyntheticTrace {
    /// Instantiates the generator. Private to the crate: construct via
    /// [`WorkloadSpec::build`], which validates first.
    pub(crate) fn new(spec: WorkloadSpec, seed: u64) -> SyntheticTrace {
        let mut rng = SplitMix64::new(seed);
        let mut layout_rng = rng.split();

        let n_fns = spec.code.functions as usize;
        let avg = u64::from(spec.code.avg_fn_instrs);
        let mut fns = Vec::with_capacity(n_fns);
        let mut next_instr = 0u64;
        for _ in 0..n_fns {
            // Uniform in [avg/2, 3*avg/2], at least 1.
            let len =
                (avg / 2 + layout_rng.next_below(avg.max(1)) + 1).min(u64::from(u32::MAX)) as u32;
            let avg_loop = u64::from(spec.code.avg_loop_instrs);
            let loop_len =
                (avg_loop / 2 + layout_rng.next_below(avg_loop.max(1)) + 1).max(2) as u32;
            fns.push(FnLayout { first_instr: next_instr, len, loop_len });
            next_instr += u64::from(len);
        }

        let call_zipf = Zipf::new(n_fns, spec.code.call_zipf_s);
        let fn_perm = permutation(n_fns, &mut layout_rng);

        let total_weight: f64 = spec.data.regions.iter().map(|r| r.weight).sum();
        let mut acc = 0.0;
        let mut region_cdf = Vec::with_capacity(spec.data.regions.len());
        let mut regions = Vec::with_capacity(spec.data.regions.len());
        for r in &spec.data.regions {
            acc += r.weight / total_weight;
            region_cdf.push(acc);
            regions.push(match r.pattern {
                AccessPattern::Sequential { stride } => Region::Sequential { stride },
                AccessPattern::RandomPage { zipf_s, dwell, run_len } => {
                    let pages = (r.size / PAGE_SIZE).max(1) as usize;
                    Region::RandomPage {
                        zipf: Zipf::new(pages, zipf_s),
                        page_perm: permutation(pages, &mut layout_rng),
                        dwell,
                        run_len,
                    }
                }
                AccessPattern::Stack => Region::Stack,
            });
        }

        let mut trace = SyntheticTrace {
            cursors: vec![Cursor::default(); regions.len()],
            spec,
            rng,
            tables: Arc::new(Tables { fns, call_zipf, fn_perm, region_cdf, regions }),
            stack: Vec::new(),
            cur_fn: 0,
            cur_idx: 0,
        };
        trace.cur_fn = trace.pick_function();
        trace
    }

    /// The spec this trace realizes.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn pick_function(&mut self) -> usize {
        let rank = self.tables.call_zipf.sample(&mut self.rng);
        self.tables.fn_perm[rank] as usize
    }

    fn pc(&self) -> MAddr {
        let f = &self.tables.fns[self.cur_fn];
        MAddr::user(self.spec.code.code_base + (f.first_instr + u64::from(self.cur_idx)) * 4)
    }

    /// Call depth as seen by the stack model.
    fn depth(&self) -> u64 {
        self.stack.len() as u64
    }

    fn gen_data_addr(&mut self) -> MAddr {
        let u = self.rng.next_f64();
        let tables = &*self.tables;
        let idx = tables.region_cdf.partition_point(|&c| c < u).min(tables.regions.len() - 1);
        let region = self.spec.data.regions[idx];
        let at = &mut self.cursors[idx];
        match &tables.regions[idx] {
            Region::Sequential { stride } => {
                let addr = region.base + at.cursor;
                at.cursor = (at.cursor + *stride) % region.size;
                MAddr::user(addr & !3)
            }
            Region::RandomPage { zipf, page_perm, dwell, run_len } => {
                let span = PAGE_SIZE.min(region.size);
                if at.dwell_left == 0 {
                    let rank = zipf.sample(&mut self.rng);
                    let page = u64::from(page_perm[rank]);
                    at.page_base = region.base + page * PAGE_SIZE;
                    at.dwell_left = *dwell;
                    at.run_left = 0;
                }
                if at.run_left == 0 {
                    at.cursor = (self.rng.next_below(span / 4)) * 4;
                    at.run_left = *run_len;
                }
                let addr = at.page_base + (at.cursor % span);
                at.cursor += 4;
                at.run_left -= 1;
                at.dwell_left -= 1;
                MAddr::user(addr)
            }
            Region::Stack => {
                let spec = &self.spec.data;
                let sp = spec.stack_top - (self.depth() + 1) * spec.frame_bytes;
                let off = self.rng.next_below(spec.frame_bytes / 4 + 1) * 4;
                MAddr::user(sp + off.min(spec.frame_bytes - 4))
            }
        }
    }

    /// Advances control flow past the current instruction.
    fn advance(&mut self) {
        let (len, loop_len) = {
            let f = &self.tables.fns[self.cur_fn];
            (f.len, f.loop_len)
        };

        // Call?
        if self.depth() < u64::from(self.spec.code.max_depth)
            && self.rng.chance(self.spec.code.call_prob)
        {
            let callee = self.pick_function();
            self.stack.push(Frame { func: self.cur_fn, resume: self.cur_idx + 1 });
            self.cur_fn = callee;
            self.cur_idx = 0;
            return;
        }

        // Loop back edge?
        let next = self.cur_idx + 1;
        if next >= loop_len
            && next.is_multiple_of(loop_len)
            && next < len
            && self.rng.chance(self.spec.code.loop_backedge_prob)
        {
            self.cur_idx = next - loop_len;
            return;
        }

        // Fall through; return (possibly repeatedly) past function ends.
        self.cur_idx = next;
        while self.cur_idx >= self.tables.fns[self.cur_fn].len {
            match self.stack.pop() {
                Some(frame) => {
                    self.cur_fn = frame.func;
                    self.cur_idx = frame.resume;
                }
                None => {
                    self.cur_fn = self.pick_function();
                    self.cur_idx = 0;
                }
            }
        }
    }
}

impl Iterator for SyntheticTrace {
    type Item = InstrRecord;

    fn next(&mut self) -> Option<InstrRecord> {
        let pc = self.pc();
        let data = if self.rng.chance(self.spec.data.data_ref_frac) {
            let addr = self.gen_data_addr();
            Some(if self.rng.chance(self.spec.data.store_share) {
                crate::record::DataRef::store(addr)
            } else {
                crate::record::DataRef::load(addr)
            })
        } else {
            None
        };
        self.advance();
        Some(InstrRecord { pc, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use vm_types::AddressSpace;

    #[test]
    fn zipf_is_monotone_and_normalized() {
        let z = Zipf::new(100, 1.0);
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_skew_concentrates_mass() {
        let mut rng = SplitMix64::new(1);
        let z = Zipf::new(1000, 1.2);
        let mut head = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s=1.2 the top-10 ranks should take a large share.
        assert!(head > 3_000, "head share was only {head}/10000");
    }

    #[test]
    fn zipf_zero_is_roughly_uniform() {
        let mut rng = SplitMix64::new(2);
        let z = Zipf::new(100, 0.0);
        let mut head = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        assert!((500..1_500).contains(&head), "head share was {head}/10000");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = SplitMix64::new(3);
        let p = permutation(257, &mut rng);
        let mut seen = vec![false; 257];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let a: Vec<_> = presets::gcc(11).take(20_000).collect();
        let b: Vec<_> = presets::gcc(11).take(20_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn a_clone_of_an_unstarted_generator_replays_the_stream_on_the_same_tables() {
        let mut specs = presets::all_benchmarks();
        specs.extend([presets::seq_scan_spec(1 << 20), presets::random_access_spec(1 << 20)]);
        for spec in specs {
            let fresh = spec.build(7).unwrap();
            let clone = fresh.clone();
            assert!(Arc::ptr_eq(&fresh.tables, &clone.tables), "{}", spec.name);
            let want: Vec<_> = spec.build(7).unwrap().take(20_000).collect();
            assert_eq!(clone.take(20_000).collect::<Vec<_>>(), want, "{}", spec.name);
            assert_eq!(fresh.take(20_000).collect::<Vec<_>>(), want, "{}", spec.name);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = presets::gcc(11).take(1_000).collect();
        let b: Vec<_> = presets::gcc(12).take(1_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn all_addresses_are_user_space() {
        for rec in presets::vortex(5).take(50_000) {
            assert_eq!(rec.pc.space(), AddressSpace::User);
            assert_eq!(rec.pc.offset() % 4, 0, "pc must be word aligned");
            if let Some(d) = rec.data {
                assert_eq!(d.addr.space(), AddressSpace::User);
                assert_eq!(d.addr.offset() % 4, 0, "data must be word aligned");
            }
        }
    }

    #[test]
    fn pcs_stay_inside_the_text_segment() {
        let spec = presets::gcc_spec();
        let code_base = spec.code.code_base;
        // Upper bound: 3/2 * avg per function.
        let code_end = code_base
            + u64::from(spec.code.functions) * (3 * u64::from(spec.code.avg_fn_instrs) / 2 + 2) * 4;
        for rec in spec.build(9).unwrap().take(50_000) {
            assert!(rec.pc.offset() >= code_base && rec.pc.offset() < code_end, "{:?}", rec.pc);
        }
    }

    #[test]
    fn data_refs_stay_inside_regions_or_stack() {
        let spec = presets::ijpeg_spec();
        let trace = spec.build(17).unwrap();
        let stack_lo =
            spec.data.stack_top - (u64::from(spec.code.max_depth) + 1) * spec.data.frame_bytes;
        for rec in trace.take(50_000) {
            if let Some(d) = rec.data {
                let a = d.addr.offset();
                let in_region = spec.data.regions.iter().any(|r| {
                    !matches!(r.pattern, AccessPattern::Stack) && a >= r.base && a < r.base + r.size
                });
                let in_stack = a >= stack_lo && a < spec.data.stack_top;
                assert!(in_region || in_stack, "stray data address {:?}", d.addr);
            }
        }
    }

    #[test]
    fn data_ref_fraction_is_respected() {
        let spec = presets::gcc_spec();
        let n = 200_000;
        let refs = spec.build(23).unwrap().take(n).filter(|r| r.data.is_some()).count();
        let frac = refs as f64 / n as f64;
        assert!(
            (frac - spec.data.data_ref_frac).abs() < 0.02,
            "observed data fraction {frac}, wanted ~{}",
            spec.data.data_ref_frac
        );
    }

    #[test]
    fn store_share_is_respected() {
        let spec = presets::gcc_spec();
        let recs: Vec<_> = spec.build(29).unwrap().take(200_000).collect();
        let (mut loads, mut stores) = (0u64, 0u64);
        for r in recs {
            match r.data.map(|d| d.kind) {
                Some(vm_types::AccessKind::Load) => loads += 1,
                Some(vm_types::AccessKind::Store) => stores += 1,
                _ => {}
            }
        }
        let share = stores as f64 / (loads + stores) as f64;
        assert!((share - spec.data.store_share).abs() < 0.03, "store share {share}");
    }

    #[test]
    fn sequential_region_streams_forward() {
        use crate::spec::{CodeSpec, DataRegion, DataSpec, WorkloadSpec};
        let spec = WorkloadSpec {
            name: "seqtest".into(),
            code: CodeSpec {
                code_base: 0x40_0000,
                functions: 1,
                avg_fn_instrs: 64,
                call_prob: 0.0,
                max_depth: 1,
                loop_backedge_prob: 0.5,
                avg_loop_instrs: 8,
                call_zipf_s: 1.0,
            },
            data: DataSpec {
                data_ref_frac: 1.0,
                store_share: 0.0,
                stack_top: 0x7fff_f000,
                frame_bytes: 64,
                regions: vec![DataRegion {
                    base: 0x100_0000,
                    size: 1 << 20,
                    pattern: AccessPattern::Sequential { stride: 4 },
                    weight: 1.0,
                }],
            },
        };
        let addrs: Vec<u64> = spec
            .build(1)
            .unwrap()
            .take(100)
            .filter_map(|r| r.data.map(|d| d.addr.offset()))
            .collect();
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(*a, 0x100_0000 + 4 * i as u64);
        }
    }

    #[test]
    fn trace_is_unbounded() {
        let mut t = presets::ijpeg(1);
        for _ in 0..100_000 {
            assert!(t.next().is_some());
        }
    }

    #[test]
    fn ijpeg_touches_fewer_pages_than_vortex() {
        use std::collections::HashSet;
        let pages = |trace: SyntheticTrace| -> usize {
            let mut set = HashSet::new();
            for rec in trace.take(1_000_000) {
                if let Some(d) = rec.data {
                    set.insert(d.addr.vpn());
                }
            }
            set.len()
        };
        let ij = pages(presets::ijpeg(3));
        let vo = pages(presets::vortex(3));
        assert!(vo > 2 * ij, "vortex should touch far more data pages (vortex {vo}, ijpeg {ij})");
    }
}
