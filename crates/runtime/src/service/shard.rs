//! Pool sharding: partitioning the core budget into placement domains.
//!
//! Instead of every stream contending on the one process-global
//! [`StripePool`], the service core partitions the modelled core budget
//! into *shards* — one dedicated stripe pool per core group — and places
//! each admitted stream onto a single shard. The default grouping follows
//! the platform's cache hierarchy ([`ArchModel::cores_per_l2`]): streams
//! sharing a shard share an L2 domain, streams on different shards never
//! contend for stripe workers.

use super::perturb::{perturb, Site};
use imaging::parallel::StripePool;
use platform::arch::ArchModel;
use std::sync::Arc;

/// How the modelled core budget is partitioned into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardLayout {
    /// One shard spanning the whole budget, backed by the process-global
    /// pool (the pre-sharding behaviour).
    Single,
    /// One shard per L2 core group of the platform's [`ArchModel`]
    /// (Blackford: 2 cores per L2 ⇒ 4 shards on the 8-core budget).
    PerCoreGroup,
    /// Fixed-width groups of `group` cores.
    Grouped {
        /// Cores per shard (clamped to `1..=total_cores`).
        group: usize,
    },
}

impl ShardLayout {
    /// The width of (the widest) shard this layout produces over a given
    /// core budget — the ceiling on any single stream's core grant.
    pub fn shard_width(&self, total_cores: usize) -> usize {
        let total = total_cores.max(1);
        match *self {
            ShardLayout::Single => total,
            ShardLayout::PerCoreGroup => ArchModel::default().cores_per_l2.clamp(1, total),
            ShardLayout::Grouped { group } => group.clamp(1, total),
        }
    }
}

struct Shard {
    cores: usize,
    free: usize,
    /// `None` = the process-global pool (single-shard layout).
    pool: Option<Arc<StripePool>>,
}

/// The instantiated shard set: per-shard pools and capacity headroom.
///
/// Dropping the topology joins every per-shard pool worker (the global
/// pool, when used, is process-wide and stays).
pub struct ShardTopology {
    shards: Vec<Shard>,
}

impl ShardTopology {
    /// Partitions `total_cores` according to the layout. A layout whose
    /// group width covers the whole budget degenerates to one shard on
    /// the process-global pool — no extra threads.
    pub fn new(layout: ShardLayout, total_cores: usize) -> Self {
        Self::for_grants(layout, total_cores, usize::MAX)
    }

    /// [`new`](Self::new) for streams granted at most `widest_grant` cores
    /// each. A one-core stream runs every stage inline on the thread that
    /// steps it and never dispatches a stripe, so when no grant exceeds
    /// one core the shards keep their capacity accounting but get no pool
    /// of their own — no threads to spawn and join per service run.
    pub(crate) fn for_grants(layout: ShardLayout, total_cores: usize, widest_grant: usize) -> Self {
        let total = total_cores.max(1);
        let width = layout.shard_width(total);
        if width >= total {
            return Self {
                shards: vec![Shard {
                    cores: total,
                    free: total,
                    pool: None,
                }],
            };
        }
        let mut shards = Vec::new();
        let mut remaining = total;
        while remaining > 0 {
            let w = width.min(remaining);
            shards.push(Shard {
                cores: w,
                free: w,
                pool: (widest_grant > 1).then(|| Arc::new(StripePool::new(w))),
            });
            remaining -= w;
        }
        Self { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Best-fit placement: the feasible shard with the least free
    /// headroom (ties broken by lowest index, so placement is
    /// deterministic). `None` when no shard currently fits `cores`.
    pub(crate) fn place(&self, cores: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (i, s) in self.shards.iter().enumerate() {
            if s.free >= cores {
                let better = match best {
                    None => true,
                    Some((_, free)) => s.free < free,
                };
                if better {
                    best = Some((i, s.free));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Reserves `cores` on a shard (placement must have succeeded).
    pub(crate) fn admit(&mut self, shard: usize, cores: usize) {
        perturb(Site::ShardGrant);
        let s = &mut self.shards[shard];
        debug_assert!(s.free >= cores, "admitting past shard capacity");
        s.free = s.free.saturating_sub(cores);
    }

    /// Returns `cores` to a shard's headroom.
    pub(crate) fn release(&mut self, shard: usize, cores: usize) {
        perturb(Site::ShardRelease);
        let s = &mut self.shards[shard];
        debug_assert!(s.free + cores <= s.cores, "released more than was granted");
        s.free = (s.free + cores).min(s.cores);
    }

    /// Cores currently granted, per shard.
    #[cfg(test)]
    pub(crate) fn reserved(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.cores - s.free).collect()
    }

    /// The shard's dedicated pool (`None` = use the process-global pool).
    pub(crate) fn pool(&self, shard: usize) -> Option<Arc<StripePool>> {
        self.shards[shard].pool.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_layout_uses_the_global_pool() {
        let t = ShardTopology::new(ShardLayout::Single, 8);
        assert_eq!(t.shard_count(), 1);
        assert_eq!(t.shards.iter().map(|s| s.cores).sum::<usize>(), 8);
        assert!(t.pool(0).is_none(), "single shard must not spawn a pool");
    }

    #[test]
    fn grouped_layout_splits_evenly_with_remainder() {
        let t = ShardTopology::new(ShardLayout::Grouped { group: 3 }, 8);
        assert_eq!(t.shard_count(), 3);
        assert_eq!(t.shards[0].cores, 3);
        assert_eq!(t.shards[1].cores, 3);
        assert_eq!(t.shards[2].cores, 2);
        assert_eq!(t.shards.iter().map(|s| s.cores).sum::<usize>(), 8);
        assert!(t.pool(0).is_some());
    }

    #[test]
    fn one_core_grants_need_no_shard_pools() {
        let t = ShardTopology::for_grants(ShardLayout::Grouped { group: 2 }, 8, 1);
        assert_eq!(t.shard_count(), 4, "capacity accounting is unchanged");
        assert_eq!(t.place(2), Some(0));
        assert!((0..4).all(|shard| t.pool(shard).is_none()));
        let wide = ShardTopology::for_grants(ShardLayout::Grouped { group: 2 }, 8, 2);
        assert!((0..4).all(|shard| wide.pool(shard).is_some()));
    }

    #[test]
    fn per_core_group_follows_the_arch_model() {
        let arch = ArchModel::default();
        let t = ShardTopology::new(ShardLayout::PerCoreGroup, arch.cores);
        assert_eq!(t.shard_count(), arch.cores / arch.cores_per_l2);
        assert!(t.shards.iter().all(|s| s.cores == arch.cores_per_l2));
    }

    #[test]
    fn place_is_best_fit_and_deterministic() {
        let mut t = ShardTopology::new(ShardLayout::Grouped { group: 4 }, 8);
        // shard 0 gets 3/4 reserved: 1 free; shard 1 fully free
        t.admit(0, 3);
        assert_eq!(t.place(1), Some(0), "least headroom wins");
        assert_eq!(t.place(2), Some(1));
        assert_eq!(t.place(5), None, "wider than any shard");
        t.release(0, 3);
        // equal headroom: lowest index wins
        assert_eq!(t.place(4), Some(0));
    }

    #[test]
    fn dropping_the_topology_joins_shard_pools() {
        let global = StripePool::global();
        let before = global.live_threads();
        {
            let t = ShardTopology::new(ShardLayout::Grouped { group: 2 }, 8);
            assert_eq!(t.shard_count(), 4);
        }
        assert_eq!(global.live_threads(), before, "global pool perturbed");
    }
}
