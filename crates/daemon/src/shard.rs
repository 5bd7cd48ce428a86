//! Group-to-ring placement for sharded multi-ring daemons.
//!
//! One totally ordered ring saturates (PR 7's client-tier bench shows
//! p99 collapsing under load); the scale-out move — HT-Ring Paxos
//! style ring composition — is to run N independent rings and
//! partition the *group namespace* across them. [`ShardMap`] is that
//! partition: a consistent-hash ring over shard indices, so every
//! daemon (and every service-tier front end) derives the same
//! group→shard placement with no coordination, and growing from N to
//! N+1 rings relocates only ~1/(N+1) of the groups.

/// Virtual nodes per shard on the consistent-hash circle. Enough to
/// keep the per-shard load spread within a few percent without making
/// construction or lookup noticeably slower.
const VNODES_PER_SHARD: usize = 64;

/// A consistent mapping from group names to ring shards `0..rings`.
///
/// Pure and deterministic: two `ShardMap`s built with the same ring
/// count agree on every group, which is what lets the service tier
/// route a publish to the right ring without asking the daemon.
#[derive(Debug, Clone)]
pub struct ShardMap {
    rings: usize,
    /// Sorted `(point, shard)` pairs on the hash circle.
    points: Vec<(u64, usize)>,
}

impl ShardMap {
    /// Builds the map for `rings` shards.
    ///
    /// # Panics
    ///
    /// Panics if `rings` is zero.
    pub fn new(rings: usize) -> ShardMap {
        assert!(rings > 0, "a shard map needs at least one ring");
        let mut points = Vec::with_capacity(rings * VNODES_PER_SHARD);
        for shard in 0..rings {
            for vnode in 0..VNODES_PER_SHARD {
                points.push((
                    fnv1a_64(format!("shard-{shard}/vnode-{vnode}").as_bytes()),
                    shard,
                ));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        ShardMap { rings, points }
    }

    /// Number of ring shards.
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// The shard that orders messages for `group`: the first virtual
    /// node at or after the group's hash, wrapping at the top of the
    /// circle.
    pub fn shard_of(&self, group: &str) -> usize {
        let h = fnv1a_64(group.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        if idx == self.points.len() {
            self.points[0].1
        } else {
            self.points[idx].1
        }
    }

    /// Splits a group list into per-shard sublists, preserving order
    /// within each shard; only shards that receive at least one group
    /// appear. A multi-group publish becomes one ordered message per
    /// returned shard. Owned names are moved, not copied.
    pub fn partition<S: AsRef<str>>(
        &self,
        groups: impl IntoIterator<Item = S>,
    ) -> Vec<(usize, Vec<S>)> {
        let mut out: Vec<(usize, Vec<S>)> = Vec::new();
        for g in groups {
            let shard = self.shard_of(g.as_ref());
            match out.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, list)) => list.push(g),
                None => out.push((shard, vec![g])),
            }
        }
        out
    }
}

/// FNV-1a, 64-bit, with a splitmix64-style avalanche finalizer —
/// tiny, dependency-free, and good enough spread for placement (this
/// is load balancing, not an adversarial boundary). Raw FNV clusters
/// badly on near-identical short strings like `shard-0/vnode-1`, so
/// the finalizer matters: it is what spreads the virtual nodes evenly
/// around the circle.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_maps_everything_to_zero() {
        let m = ShardMap::new(1);
        for g in ["a", "chat", "orders", ""] {
            assert_eq!(m.shard_of(g), 0);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = ShardMap::new(4);
        let b = ShardMap::new(4);
        for i in 0..500 {
            let g = format!("group-{i}");
            assert_eq!(a.shard_of(&g), b.shard_of(&g));
        }
    }

    #[test]
    fn load_spreads_across_all_shards() {
        let m = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[m.shard_of(&format!("group-{i}"))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            // Perfect balance is 1000; consistent hashing with 64
            // vnodes lands well within 2x either way.
            assert!(
                (500..=2000).contains(&c),
                "shard {shard} got {c} of 4000 groups: {counts:?}"
            );
        }
    }

    #[test]
    fn growing_the_ring_count_moves_a_minority_of_groups() {
        let before = ShardMap::new(4);
        let after = ShardMap::new(5);
        let total = 4000;
        let moved = (0..total)
            .filter(|i| {
                let g = format!("group-{i}");
                before.shard_of(&g) != after.shard_of(&g)
            })
            .count();
        // Consistent hashing moves ~1/5 of groups going 4 -> 5 rings;
        // modulo hashing would move ~4/5. Assert we are on the right
        // side of that divide with slack for hash noise.
        assert!(
            moved < total * 2 / 5,
            "{moved}/{total} groups moved going 4 -> 5 rings"
        );
    }

    #[test]
    fn partition_groups_by_shard_preserves_order() {
        let m = ShardMap::new(3);
        let groups = ["a", "b", "c", "d", "e", "f"];
        let parts = m.partition(groups);
        let mut seen = Vec::new();
        for (shard, list) in &parts {
            assert!(!list.is_empty());
            for g in list {
                assert_eq!(m.shard_of(g), *shard);
                seen.push(*g);
            }
        }
        // Every group appears exactly once across the partitions.
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        let mut want = groups.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want);
        // And per-shard sublists preserve the caller's relative order.
        for (_, list) in &parts {
            let positions: Vec<usize> = list
                .iter()
                .map(|g| groups.iter().position(|x| x == g).unwrap())
                .collect();
            assert!(positions.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
