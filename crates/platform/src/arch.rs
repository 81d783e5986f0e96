//! Architecture model of the evaluation platform (Fig. 4).
//!
//! The paper's testbed is a dual quad-core Intel "Blackford" system:
//! 8 processors of 2.327 GCycles/s, 8 level-1 caches of 32 KB, 4 level-2
//! caches of 4 MB (one per core pair), 4 GB of external memory, and the
//! bus hierarchy annotated in Fig. 4(b): 72 GB/s CPU⇄L1, 48 GB/s cache
//! bus, 29 GB/s memory bus and 0.94–3.83 GB/s I/O.

/// Kilobyte and megabyte in bytes.
pub const KB: usize = 1024;
/// Megabyte in bytes.
pub const MB: usize = 1024 * 1024;
/// Gigabyte in bytes.
pub const GB: usize = 1024 * 1024 * 1024;

/// One cache level's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity, bytes.
    pub capacity: usize,
    /// Cache-line size, bytes.
    pub line_size: usize,
    /// Associativity (ways).
    pub ways: usize,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (self.line_size * self.ways)
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.capacity / self.line_size
    }
}

/// The platform architecture model.
#[derive(Debug, Clone)]
pub struct ArchModel {
    /// Number of processor cores.
    pub cores: usize,
    /// Core clock, cycles per second.
    pub clock_hz: f64,
    /// Per-core L1 data cache.
    pub l1: CacheGeometry,
    /// Shared L2 cache geometry.
    pub l2: CacheGeometry,
    /// Number of cores sharing each L2 (Blackford: 2).
    pub cores_per_l2: usize,
    /// External memory size, bytes.
    pub dram_bytes: usize,
    /// CPU ⇄ cache bandwidth, bytes/s (72 GB/s in Fig. 4).
    pub bus_cpu_cache: f64,
    /// Cache ⇄ cache/snoop bandwidth, bytes/s (48 GB/s).
    pub bus_cache: f64,
    /// Memory bus bandwidth, bytes/s (29 GB/s).
    pub bus_memory: f64,
    /// I/O bandwidth range, bytes/s (0.94–3.83 GB/s).
    pub bus_io: (f64, f64),
}

impl Default for ArchModel {
    /// The paper's instantiated architecture (Fig. 4(b)).
    fn default() -> Self {
        Self {
            cores: 8,
            clock_hz: 2.327e9,
            l1: CacheGeometry {
                capacity: 32 * KB,
                line_size: 64,
                ways: 8,
            },
            l2: CacheGeometry {
                capacity: 4 * MB,
                line_size: 64,
                ways: 16,
            },
            cores_per_l2: 2,
            dram_bytes: 4 * GB,
            bus_cpu_cache: 72.0e9,
            bus_cache: 48.0e9,
            bus_memory: 29.0e9,
            bus_io: (0.94e9, 3.83e9),
        }
    }
}

impl ArchModel {
    /// The L2 domain a core belongs to.
    fn l2_domain_of(&self, core: usize) -> usize {
        assert!(core < self.cores, "core {core} out of range");
        core / self.cores_per_l2
    }

    /// Whether two cores share an L2 cache.
    pub fn share_l2(&self, a: usize, b: usize) -> bool {
        self.l2_domain_of(a) == self.l2_domain_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let a = ArchModel::default();
        assert_eq!(a.cores, 8);
        assert!((a.clock_hz - 2.327e9).abs() < 1e3);
        assert_eq!(a.l1.capacity, 32 * KB);
        assert_eq!(a.l2.capacity, 4 * MB);
        assert_eq!(a.dram_bytes, 4 * GB);
        assert!((a.bus_memory - 29.0e9).abs() < 1e6);
    }

    #[test]
    fn l2_domains_pair_cores() {
        let a = ArchModel::default();
        assert!(a.share_l2(0, 1));
        assert!(!a.share_l2(1, 2));
        assert!(a.share_l2(6, 7));
        assert_eq!(a.l2_domain_of(5), 2);
    }

    #[test]
    fn cache_geometry_derives_sets_and_lines() {
        let g = CacheGeometry {
            capacity: 32 * KB,
            line_size: 64,
            ways: 8,
        };
        assert_eq!(g.lines(), 512);
        assert_eq!(g.sets(), 64);
        let l2 = CacheGeometry {
            capacity: 4 * MB,
            line_size: 64,
            ways: 16,
        };
        assert_eq!(l2.lines(), 65536);
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_core_rejected() {
        ArchModel::default().l2_domain_of(8);
    }
}
