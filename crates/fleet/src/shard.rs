//! Deterministic hash-sharding of sweep points.
//!
//! Points are assigned a *home* backend by hashing their label — the
//! stable `NAME key=value ...` identity that also feeds the journal
//! fingerprint — so the same grid shards the same way on every run,
//! regardless of backend spawn order, point count, or which machine the
//! coordinator runs on. The coordinator treats the home assignment as
//! an affinity hint, not a cage: idle backends steal pending points and
//! hedge stragglers, so a skewed hash or a slow backend costs locality,
//! never completion.

use vm_trace::wire::fnv1a;

/// The home shard for a point label: FNV-1a (64-bit) reduced mod
/// `shards`. `shards` must be non-zero.
pub fn shard_of(label: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard_of needs at least one shard");
    (fnv1a(label.as_bytes()) % shards as u64) as usize
}

/// Partitions point indices `0..labels.len()` into `shards` buckets by
/// [`shard_of`] on each label. Every index lands in exactly one bucket;
/// bucket order preserves index order.
pub fn partition<'a>(labels: impl IntoIterator<Item = &'a str>, shards: usize) -> Vec<Vec<usize>> {
    let mut buckets = vec![Vec::new(); shards.max(1)];
    for (ix, label) in labels.into_iter().enumerate() {
        buckets[shard_of(label, shards.max(1))].push(ix);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<String> {
        (0..24).map(|i| format!("ULTRIX tlb.entries={}", 16 << (i % 5))).collect()
    }

    #[test]
    fn sharding_is_deterministic_and_total() {
        let labels = labels();
        for shards in [1, 2, 4, 7] {
            let parts = partition(labels.iter().map(String::as_str), shards);
            assert_eq!(parts.len(), shards);
            let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..labels.len()).collect::<Vec<_>>(), "partition must be total");
            // Stable: re-partitioning gives the identical assignment.
            assert_eq!(parts, partition(labels.iter().map(String::as_str), shards));
        }
    }

    #[test]
    fn one_shard_takes_everything_and_assignment_tracks_the_label() {
        let labels = labels();
        let parts = partition(labels.iter().map(String::as_str), 1);
        assert_eq!(parts[0].len(), labels.len());
        // Identical labels always land on the same shard.
        for (ix, l) in labels.iter().enumerate() {
            assert!(
                parts_to_shard(&partition(labels.iter().map(String::as_str), 4), ix)
                    == shard_of(l, 4)
            );
        }
    }

    #[test]
    fn shard_assignment_is_pinned() {
        // A resumed fleet journal and a rerun grid must keep their home
        // shards.
        let labels = [
            "ULTRIX",
            "MACH",
            "INTEL",
            "PA-RISC",
            "NOTLB",
            "BASE",
            "ULTRIX tlb.entries=16",
            "ULTRIX tlb.entries=32",
            "ULTRIX tlb.entries=64",
            "MACH cache.l1=8K",
            "INTEL cache.l1=16K mmu.table=hashed",
            "",
        ];
        let shards: Vec<usize> = labels.iter().map(|l| shard_of(l, 3)).collect();
        assert_eq!(shards, [1, 1, 2, 0, 1, 1, 0, 1, 1, 0, 0, 2]);
    }

    fn parts_to_shard(parts: &[Vec<usize>], ix: usize) -> usize {
        parts.iter().position(|p| p.contains(&ix)).unwrap()
    }
}
