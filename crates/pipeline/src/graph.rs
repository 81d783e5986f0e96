//! The static flow graph of Fig. 2.
//!
//! An explicit description of the motion-compensated feature-enhancement
//! graph: task nodes, switch nodes and data edges. The executor
//! ([`crate::executor`]) interprets this structure; the bandwidth
//! experiments print its edges with their MByte/s annotations.

use triplec::scenario::Scenario;

/// A node of the flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The camera input stream.
    Input,
    /// A processing task (Fig. 2 naming).
    Task(&'static str),
    /// A data-dependent switch.
    Switch(SwitchKind),
    /// The display output.
    Output,
}

/// The three data-dependent switches of the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchKind {
    /// "RDG DETECTION": run ridge detection only when dominant structures
    /// are present.
    RdgDetection,
    /// "ROI ESTIMATED": process at ROI granularity once a region of
    /// interest is being tracked.
    RoiEstimated,
    /// "REG. SUCCESSFUL": run enhancement and zoom only after a successful
    /// temporal registration.
    RegSuccessful,
}

/// A directed edge with the switch conditions under which it is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    pub from: Node,
    pub to: Node,
    /// The switch conditions gating this edge (all must hold; empty =
    /// always live).
    pub conditions: Vec<(SwitchKind, bool)>,
}

/// The full Fig. 2 graph.
pub fn flow_graph() -> Vec<GraphEdge> {
    use Node::*;
    use SwitchKind::*;
    vec![
        GraphEdge {
            from: Input,
            to: Switch(RdgDetection),
            conditions: vec![],
        },
        GraphEdge {
            from: Switch(RdgDetection),
            to: Task("RDG_FULL"),
            conditions: vec![(RdgDetection, true), (RoiEstimated, false)],
        },
        GraphEdge {
            from: Switch(RdgDetection),
            to: Task("RDG_ROI"),
            conditions: vec![(RdgDetection, true), (RoiEstimated, true)],
        },
        GraphEdge {
            from: Switch(RdgDetection),
            to: Task("MKX_EXT"),
            conditions: vec![(RdgDetection, false)],
        },
        GraphEdge {
            from: Task("RDG_FULL"),
            to: Task("MKX_EXT"),
            conditions: vec![(RdgDetection, true), (RoiEstimated, false)],
        },
        GraphEdge {
            from: Task("RDG_ROI"),
            to: Task("MKX_EXT"),
            conditions: vec![(RdgDetection, true), (RoiEstimated, true)],
        },
        GraphEdge {
            from: Task("MKX_EXT"),
            to: Task("CPLS_SEL"),
            conditions: vec![],
        },
        GraphEdge {
            from: Task("CPLS_SEL"),
            to: Task("REG"),
            conditions: vec![],
        },
        GraphEdge {
            from: Task("REG"),
            to: Switch(RoiEstimated),
            conditions: vec![],
        },
        GraphEdge {
            from: Switch(RoiEstimated),
            to: Task("ROI_EST"),
            conditions: vec![(RoiEstimated, true)],
        },
        GraphEdge {
            from: Task("ROI_EST"),
            to: Task("GW_EXT"),
            conditions: vec![(RoiEstimated, true)],
        },
        GraphEdge {
            from: Task("GW_EXT"),
            to: Switch(RegSuccessful),
            conditions: vec![(RoiEstimated, true)],
        },
        GraphEdge {
            from: Switch(RoiEstimated),
            to: Switch(RegSuccessful),
            conditions: vec![(RoiEstimated, false)],
        },
        GraphEdge {
            from: Switch(RegSuccessful),
            to: Task("ENH"),
            conditions: vec![(RegSuccessful, true)],
        },
        GraphEdge {
            from: Task("ENH"),
            to: Task("ZOOM"),
            conditions: vec![(RegSuccessful, true)],
        },
        GraphEdge {
            from: Task("ZOOM"),
            to: Output,
            conditions: vec![(RegSuccessful, true)],
        },
        GraphEdge {
            from: Switch(RegSuccessful),
            to: Output,
            conditions: vec![(RegSuccessful, false)],
        },
    ]
}

/// Whether an edge is live under a scenario.
pub fn edge_live(edge: &GraphEdge, scenario: Scenario) -> bool {
    edge.conditions.iter().all(|&(kind, v)| match kind {
        SwitchKind::RdgDetection => scenario.rdg_active == v,
        SwitchKind::RoiEstimated => scenario.roi_estimated == v,
        SwitchKind::RegSuccessful => scenario.reg_successful == v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The task nodes reachable (live) under a scenario, in graph order.
    fn live_tasks(scenario: Scenario) -> Vec<&'static str> {
        flow_graph()
            .iter()
            .filter(|e| edge_live(e, scenario))
            .filter_map(|e| match e.to {
                Node::Task(t) => Some(t),
                _ => None,
            })
            .fold(Vec::new(), |mut acc, t| {
                if !acc.contains(&t) {
                    acc.push(t);
                }
                acc
            })
    }

    #[test]
    fn graph_has_all_nine_tasks() {
        let edges = flow_graph();
        for t in triplec::TASKS {
            let present = edges
                .iter()
                .any(|e| e.to == Node::Task(t) || e.from == Node::Task(t));
            assert!(present, "task {t} missing from graph");
        }
    }

    #[test]
    fn graph_live_tasks_match_scenario_state_table() {
        // the explicit graph and the scenario state table in triplec must
        // agree for every one of the eight scenarios
        for s in Scenario::all() {
            let mut from_graph = live_tasks(s);
            let mut from_table = s.active_tasks();
            from_graph.sort_unstable();
            from_table.sort_unstable();
            assert_eq!(from_graph, from_table, "scenario {:?}", s);
        }
    }

    #[test]
    fn unconditional_edges_always_live() {
        let edges = flow_graph();
        for s in Scenario::all() {
            for e in edges.iter().filter(|e| e.conditions.is_empty()) {
                assert!(edge_live(e, s));
            }
        }
    }

    #[test]
    fn output_reachable_in_every_scenario() {
        for s in Scenario::all() {
            let reached = flow_graph()
                .iter()
                .any(|e| e.to == Node::Output && edge_live(e, s));
            assert!(reached, "no output edge live in {:?}", s);
        }
    }

    #[test]
    fn rdg_variants_mutually_exclusive() {
        for s in Scenario::all() {
            let tasks = live_tasks(s);
            let full = tasks.contains(&"RDG_FULL");
            let roi = tasks.contains(&"RDG_ROI");
            assert!(!(full && roi), "both RDG variants live in {:?}", s);
        }
    }
}
