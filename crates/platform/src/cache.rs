//! Trace-driven set-associative cache simulator.
//!
//! Used as the "measurement" side of the cache/bandwidth experiments: the
//! paper measures bandwidth on its physical platform and compares with the
//! analytic model; we replay each task's memory-access pattern through this
//! simulator (configured with the paper's cache geometry) and compare with
//! the same analytic model (Section 5, Fig. 5).

use crate::arch::CacheGeometry;

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line fetched; nothing (clean/invalid) was displaced.
    Miss,
    /// Line fetched; a dirty line was written back (extra bus traffic).
    MissDirtyEvict,
}

/// A set-associative LRU cache with write-back/write-allocate policy.
#[derive(Debug)]
pub struct CacheSim {
    geometry: CacheGeometry,
    sets: usize,
    /// tag per [set][way]; None = invalid.
    tags: Vec<Option<u64>>,
    /// LRU stamp per [set][way].
    stamps: Vec<u64>,
    /// dirty bit per [set][way].
    dirty: Vec<bool>,
    tick: u64,
    stats: CacheStats,
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (including dirty evictions).
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheSim {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(
            geometry.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        let n = sets * geometry.ways;
        Self {
            geometry,
            sets,
            tags: vec![None; n],
            stamps: vec![0; n],
            dirty: vec![false; n],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses byte address `addr`; `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.tick += 1;
        self.stats.accesses += 1;
        let line = addr / self.geometry.line_size as u64;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let base = set * self.geometry.ways;

        // hit?
        for w in 0..self.geometry.ways {
            if self.tags[base + w] == Some(tag) {
                self.stamps[base + w] = self.tick;
                if write {
                    self.dirty[base + w] = true;
                }
                return Access::Hit;
            }
        }

        // miss: find victim (invalid way first, else LRU)
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.geometry.ways {
            match self.tags[base + w] {
                None => {
                    victim = w;
                    break;
                }
                Some(_) => {
                    if self.stamps[base + w] < oldest {
                        oldest = self.stamps[base + w];
                        victim = w;
                    }
                }
            }
        }
        let was_dirty = self.tags[base + victim].is_some() && self.dirty[base + victim];
        if was_dirty {
            self.stats.writebacks += 1;
        }
        self.tags[base + victim] = Some(tag);
        self.stamps[base + victim] = self.tick;
        self.dirty[base + victim] = write;
        if was_dirty {
            Access::MissDirtyEvict
        } else {
            Access::Miss
        }
    }

    /// Streams a linear scan of `len` bytes starting at `base`, touching
    /// every byte via line-granular accesses. Returns the stats delta.
    pub fn linear_scan(&mut self, base: u64, len: usize, write: bool) -> CacheStats {
        let before = self.stats;
        let line = self.geometry.line_size as u64;
        let mut addr = base;
        let end = base + len as u64;
        while addr < end {
            self.access(addr, write);
            addr += line;
        }
        CacheStats {
            accesses: self.stats.accesses - before.accesses,
            misses: self.stats.misses - before.misses,
            writebacks: self.stats.writebacks - before.writebacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::KB;

    fn small_cache() -> CacheSim {
        // 1 KB, 64 B lines, 2-way: 8 sets
        CacheSim::new(CacheGeometry {
            capacity: KB,
            line_size: 64,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small_cache();
        assert_eq!(c.access(0, false), Access::Miss);
        assert_eq!(c.access(32, false), Access::Hit); // same line
        assert_eq!(c.access(64, false), Access::Miss); // next line
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = small_cache();
        // set 0 holds lines whose (line % 8) == 0: addresses 0, 512, 1024, ...
        c.access(0, false); // way A
        c.access(512, false); // way B
        c.access(0, false); // refresh A
        c.access(1024, false); // evicts B (LRU)
        assert_eq!(c.access(0, false), Access::Hit);
        assert_eq!(c.access(512, false), Access::Miss);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small_cache();
        c.access(0, true); // dirty
        c.access(512, false);
        let a = c.access(1024, false); // evicts LRU = line 0 (dirty)
        assert_eq!(a, Access::MissDirtyEvict);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn working_set_within_capacity_has_no_rescan_misses() {
        let mut c = small_cache();
        c.linear_scan(0, KB, false); // fills exactly the cache
        let second = c.linear_scan(0, KB, false);
        assert_eq!(second.misses, 0, "rescan of fitting buffer must hit");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = small_cache();
        c.linear_scan(0, 4 * KB, false);
        let second = c.linear_scan(0, 4 * KB, false);
        // LRU + streaming: everything evicted before reuse
        assert_eq!(
            second.misses, second.accesses,
            "streaming buffer must thrash"
        );
    }

    #[test]
    fn paper_l2_geometry_simulates() {
        use crate::arch::ArchModel;
        let arch = ArchModel::default();
        let mut c = CacheSim::new(arch.l2);
        // one full-frame u16 image (2 MB) fits in the 4 MB L2 ...
        c.linear_scan(0, 2 * 1024 * KB, false);
        let rescan = c.linear_scan(0, 2 * 1024 * KB, false);
        assert_eq!(rescan.misses, 0);
        // ... but a 7 MB intermediate does not
        let mut c2 = CacheSim::new(arch.l2);
        c2.linear_scan(0, 7 * 1024 * KB, false);
        let rescan2 = c2.linear_scan(0, 7 * 1024 * KB, false);
        assert!(rescan2.misses as f64 > 0.99 * rescan2.accesses as f64);
    }
}
