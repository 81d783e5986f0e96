//! Communication-bandwidth accounting.
//!
//! Aggregates the inter-task bandwidth (edge buffer size × frame rate,
//! routed over the cache or memory bus depending on the mapping) and the
//! intra-task swap bandwidth (cache overflow, from the space-time model)
//! into per-bus loads, checked against the platform limits of Fig. 4.

use crate::arch::ArchModel;
use crate::mapping::Mapping;

/// A data edge of the flow graph.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Producing task.
    pub from: &'static str,
    /// Consuming task.
    pub to: &'static str,
    /// Bytes transferred per frame.
    pub bytes_per_frame: usize,
}

impl Edge {
    /// Edge bandwidth at the given frame rate, bytes/s.
    pub fn bandwidth(&self, frame_rate: f64) -> f64 {
        self.bytes_per_frame as f64 * frame_rate
    }
}

/// Aggregated load per bus, bytes/s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BusLoad {
    /// Cache/snoop bus (edges within an L2 domain).
    pub cache_bus: f64,
    /// Memory bus (cross-domain edges + intra-task swap traffic).
    pub memory_bus: f64,
}

impl BusLoad {
    /// Total communication bandwidth.
    pub fn total(&self) -> f64 {
        self.cache_bus + self.memory_bus
    }

    /// Utilization fractions against the architecture limits.
    fn utilization(&self, arch: &ArchModel) -> (f64, f64) {
        (
            self.cache_bus / arch.bus_cache,
            self.memory_bus / arch.bus_memory,
        )
    }

    /// Whether both buses are within their limits.
    pub fn feasible(&self, arch: &ArchModel) -> bool {
        let (c, m) = self.utilization(arch);
        c <= 1.0 && m <= 1.0
    }
}

/// Computes the per-bus load of the inter-task edges under `mapping`.
pub fn inter_task_load(
    arch: &ArchModel,
    mapping: &Mapping,
    edges: &[Edge],
    frame_rate: f64,
) -> BusLoad {
    let mut load = BusLoad::default();
    for e in edges {
        let bw = e.bandwidth(frame_rate);
        if mapping.edge_shares_l2(arch, e.from, e.to) {
            load.cache_bus += bw;
        } else {
            load.memory_bus += bw;
        }
    }
    load
}

/// Adds intra-task swap bandwidth (always external memory) to a load.
pub fn add_intra_task(mut load: BusLoad, swap_bytes_per_frame: u64, frame_rate: f64) -> BusLoad {
    load.memory_bus += swap_bytes_per_frame as f64 * frame_rate;
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MB;
    use crate::mapping::Partition;

    fn edges() -> Vec<Edge> {
        vec![
            Edge {
                from: "RDG",
                to: "MKX",
                bytes_per_frame: 5 * MB,
            },
            Edge {
                from: "MKX",
                to: "CPLS",
                bytes_per_frame: MB / 2,
            },
        ]
    }

    #[test]
    fn edge_bandwidth_is_bytes_times_rate() {
        let e = Edge {
            from: "A",
            to: "B",
            bytes_per_frame: MB,
        };
        assert!((e.bandwidth(30.0) - 30.0 * MB as f64).abs() < 1.0);
    }

    #[test]
    fn shared_l2_edges_ride_cache_bus() {
        let arch = ArchModel::default();
        let mut m = Mapping::new();
        m.assign("RDG", Partition::Serial { core: 0 });
        m.assign("MKX", Partition::Serial { core: 1 }); // shares L2 with 0
        m.assign("CPLS", Partition::Serial { core: 2 }); // different domain
        let load = inter_task_load(&arch, &m, &edges(), 30.0);
        assert!((load.cache_bus - 30.0 * 5.0 * MB as f64).abs() < 1.0);
        assert!((load.memory_bus - 30.0 * 0.5 * MB as f64).abs() < 1.0);
    }

    #[test]
    fn unmapped_tasks_default_to_memory_bus() {
        let arch = ArchModel::default();
        let m = Mapping::new();
        let load = inter_task_load(&arch, &m, &edges(), 30.0);
        assert_eq!(load.cache_bus, 0.0);
        assert!(load.memory_bus > 0.0);
    }

    #[test]
    fn intra_task_swap_goes_to_memory() {
        let load = add_intra_task(BusLoad::default(), 7 * MB as u64, 30.0);
        assert!((load.memory_bus - 7.0 * MB as f64 * 30.0).abs() < 1.0);
        assert_eq!(load.cache_bus, 0.0);
    }

    #[test]
    fn feasibility_against_paper_limits() {
        let arch = ArchModel::default();
        let ok = BusLoad {
            cache_bus: 10.0e9,
            memory_bus: 5.0e9,
        };
        assert!(ok.feasible(&arch));
        let too_much = BusLoad {
            cache_bus: 10.0e9,
            memory_bus: 40.0e9,
        };
        assert!(!too_much.feasible(&arch));
        let (c, m) = ok.utilization(&arch);
        assert!((c - 10.0 / 48.0).abs() < 1e-9);
        assert!((m - 5.0 / 29.0).abs() < 1e-9);
    }

    #[test]
    fn total_sums_buses() {
        let l = BusLoad {
            cache_bus: 1.0,
            memory_bus: 2.0,
        };
        assert_eq!(l.total(), 3.0);
    }
}
