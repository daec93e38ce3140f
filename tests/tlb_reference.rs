//! Differential test of `vm_tlb::Tlb` against a naive reference model.
//!
//! The model below is the TLB written the plainest way: a `Vec` of slots
//! scanned on every operation. It takes the lowest free slot of a
//! partition, evicts with its own `SplitMix64` (same seed, same draws) for
//! random replacement or the minimum stamp for LRU/FIFO, and migrates an
//! entry that is resident in the other partition. Random operation
//! streams drive both; after every operation their answers, victims,
//! counters, occupancy and residency over the whole key universe must
//! agree.

use jacob_mudge_vm::tlb::{Replacement, Tlb, TlbConfig, TlbCounters};
use jacob_mudge_vm::types::{AddressSpace, MAddr, SplitMix64, Vpn};

/// The reference TLB: one `Vec` of `(page, stamp)` slots, scanned.
struct Model {
    protected: usize,
    policy: Replacement,
    slots: Vec<Option<(Vpn, u64)>>,
    rng: SplitMix64,
    tick: u64,
    counters: TlbCounters,
    /// Entries moved between partitions (never reset; coverage only).
    migrations: u64,
}

impl Model {
    fn new(entries: usize, protected: usize, policy: Replacement, seed: u64) -> Model {
        Model {
            protected,
            policy,
            slots: vec![None; entries],
            rng: SplitMix64::new(seed),
            tick: 0,
            counters: TlbCounters::default(),
            migrations: 0,
        }
    }

    fn find(&self, vpn: Vpn) -> Option<usize> {
        self.slots.iter().position(|s| matches!(s, Some((v, _)) if *v == vpn))
    }

    fn lookup(&mut self, vpn: Vpn) -> bool {
        self.counters.lookups += 1;
        let Some(i) = self.find(vpn) else { return false };
        self.counters.hits += 1;
        if self.policy == Replacement::Lru {
            self.tick += 1;
            self.slots[i] = Some((vpn, self.tick));
        }
        true
    }

    fn insert_user(&mut self, vpn: Vpn) -> Option<Vpn> {
        self.insert(vpn, self.protected, self.slots.len())
    }

    fn insert_protected(&mut self, vpn: Vpn) -> Option<Vpn> {
        let hi = if self.protected > 0 { self.protected } else { self.slots.len() };
        self.insert(vpn, 0, hi)
    }

    fn insert(&mut self, vpn: Vpn, lo: usize, hi: usize) -> Option<Vpn> {
        self.counters.insertions += 1;
        self.tick += 1;
        if let Some(i) = self.find(vpn) {
            if (lo..hi).contains(&i) {
                self.slots[i] = Some((vpn, self.tick));
                return None;
            }
            self.slots[i] = None;
            self.migrations += 1;
        }
        let victim = match (lo..hi).find(|&i| self.slots[i].is_none()) {
            Some(free) => free,
            None => {
                self.counters.evictions += 1;
                match self.policy {
                    Replacement::Random => lo + self.rng.next_below((hi - lo) as u64) as usize,
                    Replacement::Lru | Replacement::Fifo => (lo..hi)
                        .min_by_key(|&i| self.slots[i].map(|(_, stamp)| stamp))
                        .expect("partition is non-empty"),
                }
            }
        };
        let displaced = self.slots[victim].map(|(v, _)| v);
        self.slots[victim] = Some((vpn, self.tick));
        displaced
    }

    fn flush(&mut self) {
        self.slots.fill(None);
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Key `i` of the universe: user pages of ASID 0 and 1 and kernel pages,
/// interleaved so that every prefix mixes spaces.
fn key(i: usize) -> Vpn {
    let page = (i / 3) as u64;
    match i % 3 {
        0 => Vpn::new(AddressSpace::User, page),
        1 => MAddr::user_in(1, page << 12).vpn(),
        _ => Vpn::new(AddressSpace::Kernel, page),
    }
}

/// The inverse of [`key`].
fn index_of(vpn: Vpn) -> usize {
    let class = match (vpn.space(), vpn.asid()) {
        (AddressSpace::User, 0) => 0,
        (AddressSpace::User, _) => 1,
        _ => 2,
    };
    3 * vpn.index_in_space() as usize + class
}

fn check(tlb: &Tlb, model: &Model, universe: usize, what: &str) {
    assert_eq!(tlb.counters(), model.counters, "{what}: counters");
    assert_eq!(tlb.occupancy(), model.occupancy(), "{what}: occupancy");
    let mut resident = vec![false; universe];
    for &(vpn, _) in model.slots.iter().flatten() {
        resident[index_of(vpn)] = true;
    }
    for (i, &expected) in resident.iter().enumerate() {
        assert_eq!(tlb.contains(key(i)), expected, "{what}: contains {:?}", key(i));
    }
}

/// Drives one configuration; returns the hits, evictions and migrations
/// the model saw, so the caller can check that every path was taken.
fn drive(entries: usize, protected: usize, policy: Replacement, seed: u64) -> [u64; 3] {
    let cfg = TlbConfig::new(entries, protected, policy).unwrap();
    let mut tlb = Tlb::new(cfg, seed);
    let mut model = Model::new(entries, protected, policy, seed);
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let universe = 2 * entries + 3;
    let hot = (entries / 2).max(1) as u64;
    let (mut hits, mut evictions) = (0, 0);
    for step in 0..3 * entries + 200 {
        let k = if rng.next_below(4) < 3 {
            rng.next_below(hot)
        } else {
            rng.next_below(universe as u64)
        };
        let vpn = key(k as usize);
        let what = format!("{entries} entries, {protected} protected, {policy}, step {step}");
        match rng.next_below(100) {
            0 => {
                tlb.flush();
                model.flush();
            }
            1 => {
                hits += model.counters.hits;
                evictions += model.counters.evictions;
                tlb.reset_counters();
                model.counters = TlbCounters::default();
            }
            2..=11 => assert_eq!(tlb.contains(vpn), model.find(vpn).is_some(), "{what}"),
            12..=31 => assert_eq!(tlb.insert_protected(vpn), model.insert_protected(vpn), "{what}"),
            32..=39 => assert_eq!(tlb.insert_user(vpn), model.insert_user(vpn), "{what}"),
            _ => {
                let hit = tlb.lookup(vpn);
                assert_eq!(hit, model.lookup(vpn), "{what}: lookup");
                if !hit {
                    assert_eq!(tlb.insert_user(vpn), model.insert_user(vpn), "{what}: insert");
                }
            }
        }
        check(&tlb, &model, universe, &what);
    }
    [hits + model.counters.hits, evictions + model.counters.evictions, model.migrations]
}

#[test]
fn tlb_matches_the_reference_model() {
    let mut seen = [0u64; 3];
    for entries in [1, 2, 3, 16, 128, 512] {
        let mut protected: Vec<usize> =
            [0, 1, entries / 8, entries - 1].into_iter().filter(|&p| p < entries).collect();
        protected.sort_unstable();
        protected.dedup();
        for p in protected {
            for policy in [Replacement::Random, Replacement::Lru, Replacement::Fifo] {
                let run = drive(entries, p, policy, (entries * 1000 + p) as u64);
                for (total, n) in seen.iter_mut().zip(run) {
                    *total += n;
                }
            }
        }
    }
    let [hits, evictions, migrations] = seen;
    assert!(hits > 0 && evictions > 0 && migrations > 0, "{seen:?}");
}
