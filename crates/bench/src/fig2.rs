//! Fig. 2 — the flow graph with inter-task bandwidth annotations
//! (MByte/s at 1024x1024 px, 2 B/px, 30 Hz), and the load each scenario
//! puts on the cache and memory buses of Fig. 4 under one task-to-core
//! mapping (Section 5).

use crate::report::{mbs, table};
use platform::arch::ArchModel;
use platform::bandwidth::{Edge, Endpoint};
use triplec::bandwidth_model::{
    intra_task_traffic, rdg_access_model, scenario_edges, scenario_inter_task_bandwidth,
    FRAME_RATE_HZ,
};
use triplec::memory_model::FrameGeometry;
use triplec::scenario::Scenario;

/// The cores each task runs on, indexed by `Task as usize`: RDG (FULL and
/// ROI) striped over the L2 pair 0–1, MKX EXT and CPLS SEL on core 2, REG,
/// ROI EST and GW EXT on core 3 (the pair 2–3), ENH on core 4, ZOOM on 5.
const CORES: [&[usize]; 9] = [&[0, 1], &[0, 1], &[2], &[2], &[3], &[3], &[3], &[4], &[5]];

/// Whether edge `e` stays on the cache bus: both ends are tasks and every
/// core of one shares an L2 with every core of the other. The input and
/// output streams cross the memory bus.
fn on_cache_bus(arch: &ArchModel, e: &Edge) -> bool {
    let (Endpoint::Task(from), Endpoint::Task(to)) = (e.from, e.to) else {
        return false;
    };
    CORES[from as usize]
        .iter()
        .all(|&p| CORES[to as usize].iter().all(|&c| arch.share_l2(p, c)))
}

/// Structured result: per-scenario total inter-task bandwidth, bytes/s.
#[derive(Debug, Clone)]
pub(crate) struct Fig2Result {
    /// `(scenario, total bandwidth bytes/s)` for all eight scenarios.
    pub(crate) per_scenario: [(Scenario, f64); 8],
    /// Bandwidth of the worst-case scenario.
    pub(crate) worst_case: f64,
    /// Bandwidth of the best-case scenario.
    pub(crate) best_case: f64,
    /// `(cache bus, memory bus)` load per scenario under [`CORES`],
    /// bytes/s, in scenario-id order.
    pub(crate) bus_loads: [(f64, f64); 8],
}

/// Runs the Fig. 2 analysis at the paper geometry.
pub(crate) fn run(roi_fraction: f64) -> (Fig2Result, String) {
    let geom = FrameGeometry::PAPER;
    let mut out = String::new();
    out.push_str("Fig. 2 — inter-task bandwidth annotations (MB/s, 1024x1024 @ 30 Hz)\n\n");

    // the worst-case scenario edge list, like the paper's figure
    let worst = Scenario::worst_case();
    let rows: Vec<Vec<String>> = scenario_edges(worst, geom, roi_fraction)
        .iter()
        .map(|e| {
            vec![
                e.from.to_string(),
                e.to.to_string(),
                mbs(e.bandwidth(FRAME_RATE_HZ)),
            ]
        })
        .collect();
    out.push_str("Worst-case scenario edges (paper annotates 15-150 MB/s on this graph):\n");
    out.push_str(&table(&["from", "to", "MB/s"], &rows));
    out.push('\n');

    // the edges of each scenario on the bus their mapping routes them over,
    // plus RDG FULL's swap traffic (it overflows the L2; Fig. 5) on the
    // memory bus
    let arch = ArchModel::default();
    let rdg_swap = intra_task_traffic(&rdg_access_model(geom, 3), arch.l2.capacity).total_bytes();
    let bus_loads = Scenario::all().map(|s| {
        let (mut cache_bus, mut memory_bus) = (0.0, 0.0);
        for e in scenario_edges(s, geom, roi_fraction) {
            if on_cache_bus(&arch, &e) {
                cache_bus += e.bandwidth(FRAME_RATE_HZ);
            } else {
                memory_bus += e.bandwidth(FRAME_RATE_HZ);
            }
        }
        if s.rdg_active && !s.roi_estimated {
            memory_bus += rdg_swap as f64 * FRAME_RATE_HZ;
        }
        (cache_bus, memory_bus)
    });
    let r = Fig2Result {
        per_scenario: Scenario::all()
            .map(|s| (s, scenario_inter_task_bandwidth(s, geom, roi_fraction))),
        worst_case: scenario_inter_task_bandwidth(worst, geom, roi_fraction),
        best_case: scenario_inter_task_bandwidth(Scenario::best_case(), geom, roi_fraction),
        bus_loads,
    };
    let rows: Vec<Vec<String>> = r
        .per_scenario
        .iter()
        .map(|(s, bw)| {
            vec![
                format!("{}", s.id()),
                format!("{}", s.rdg_active as u8),
                format!("{}", s.roi_estimated as u8),
                format!("{}", s.reg_successful as u8),
                mbs(*bw),
            ]
        })
        .collect();
    out.push_str("All eight scenarios (the three switch statements of Section 5):\n");
    out.push_str(&table(&["id", "RDG", "ROI", "REG", "total MB/s"], &rows));

    out.push_str(&format!(
        "\nworst-case {} MB/s vs best-case {} MB/s ({}x)\n",
        mbs(r.worst_case),
        mbs(r.best_case),
        (r.worst_case / r.best_case.max(1.0)).round()
    ));

    let rows: Vec<Vec<String>> = Scenario::all()
        .iter()
        .zip(&r.bus_loads)
        .map(|(s, &(cache_bus, memory_bus))| {
            let feasible = cache_bus <= arch.bus_cache && memory_bus <= arch.bus_memory;
            vec![
                format!("{}", s.id()),
                mbs(cache_bus),
                mbs(memory_bus),
                format!("{feasible}"),
            ]
        })
        .collect();
    out.push_str(&format!(
        "\nPer-scenario bus loads under a 6-core mapping (ROI fraction {roi_fraction}; \
         RDG FULL swap traffic on the memory bus):\n"
    ));
    out.push_str(&table(
        &["id", "cache-bus MB/s", "memory-bus MB/s", "feasible"],
        &rows,
    ));
    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_scenarios_reported() {
        let (r, text) = run(0.1);
        assert_eq!(r.per_scenario.len(), 8);
        assert!(text.contains("MB/s"));
    }

    #[test]
    fn worst_beats_best() {
        let (r, _) = run(0.1);
        assert!(r.worst_case > 2.0 * r.best_case);
    }

    #[test]
    fn worst_case_in_paper_ballpark() {
        // the paper's Fig. 2 annotations sum to roughly 450-700 MB/s for
        // the full graph; our implementation-derived edges should land in
        // the same order of magnitude
        let (r, _) = run(0.1);
        let mbs = r.worst_case / 1e6;
        assert!(mbs > 100.0 && mbs < 2000.0, "worst case {mbs} MB/s");
    }

    #[test]
    fn bus_loads_under_the_six_core_mapping() {
        // MB/s per scenario id: the RDG FULL scenarios (1, 5) carry its
        // swap traffic, and every scenario fits both buses
        let want = [
            ("0.1", "125.8"),
            ("0.1", "8619.3"),
            ("1.7", "69.2"),
            ("1.7", "144.7"),
            ("6.4", "163.6"),
            ("6.4", "8657.0"),
            ("8.0", "107.0"),
            ("8.0", "182.5"),
        ];
        let (r, text) = run(0.1);
        for (&(cache_bus, memory_bus), (c, m)) in r.bus_loads.iter().zip(want) {
            assert_eq!((mbs(cache_bus).as_str(), mbs(memory_bus).as_str()), (c, m));
        }
        assert!(!text.contains("false"));
    }
}
