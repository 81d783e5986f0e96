//! Fig. 2 — the flow graph with inter-task bandwidth annotations
//! (MByte/s at 1024x1024 px, 2 B/px, 30 Hz).

use crate::report::{mbs, table};
use triplec::bandwidth_model::{scenario_edges, scenario_inter_task_bandwidth, FRAME_RATE_HZ};
use triplec::memory_model::FrameGeometry;
use triplec::scenario::Scenario;

/// Structured result: per-scenario total inter-task bandwidth, bytes/s.
#[derive(Debug, Clone)]
pub(crate) struct Fig2Result {
    /// `(scenario, total bandwidth bytes/s)` for all eight scenarios.
    pub(crate) per_scenario: [(Scenario, f64); 8],
    /// Bandwidth of the worst-case scenario.
    pub(crate) worst_case: f64,
    /// Bandwidth of the best-case scenario.
    pub(crate) best_case: f64,
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

    let r = Fig2Result {
        per_scenario: Scenario::all()
            .map(|s| (s, scenario_inter_task_bandwidth(s, geom, roi_fraction))),
        worst_case: scenario_inter_task_bandwidth(worst, geom, roi_fraction),
        best_case: scenario_inter_task_bandwidth(Scenario::best_case(), geom, roi_fraction),
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
}
