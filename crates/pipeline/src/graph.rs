//! The static flow graph of Fig. 2.
//!
//! An explicit description of the motion-compensated feature-enhancement
//! graph: task nodes, switch nodes and data edges. Nothing runs it: it is
//! the reference the scenario state table
//! ([`Scenario::active_tasks`]) and the bandwidth model's edges are
//! checked against (this module's tests and
//! `tests/bandwidth_consistency.rs`).

use triplec::scenario::Scenario;
use triplec::Task;

/// A node of the flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The camera input stream.
    Input,
    /// A processing task.
    Task(Task),
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
    use Node::{Input, Output, Switch};
    use SwitchKind::*;
    vec![
        GraphEdge {
            from: Input,
            to: Switch(RdgDetection),
            conditions: vec![],
        },
        GraphEdge {
            from: Switch(RdgDetection),
            to: Node::Task(Task::RdgFull),
            conditions: vec![(RdgDetection, true), (RoiEstimated, false)],
        },
        GraphEdge {
            from: Switch(RdgDetection),
            to: Node::Task(Task::RdgRoi),
            conditions: vec![(RdgDetection, true), (RoiEstimated, true)],
        },
        GraphEdge {
            from: Switch(RdgDetection),
            to: Node::Task(Task::MkxExt),
            conditions: vec![(RdgDetection, false)],
        },
        GraphEdge {
            from: Node::Task(Task::RdgFull),
            to: Node::Task(Task::MkxExt),
            conditions: vec![(RdgDetection, true), (RoiEstimated, false)],
        },
        GraphEdge {
            from: Node::Task(Task::RdgRoi),
            to: Node::Task(Task::MkxExt),
            conditions: vec![(RdgDetection, true), (RoiEstimated, true)],
        },
        GraphEdge {
            from: Node::Task(Task::MkxExt),
            to: Node::Task(Task::CplsSel),
            conditions: vec![],
        },
        GraphEdge {
            from: Node::Task(Task::CplsSel),
            to: Node::Task(Task::Reg),
            conditions: vec![],
        },
        GraphEdge {
            from: Node::Task(Task::Reg),
            to: Switch(RoiEstimated),
            conditions: vec![],
        },
        GraphEdge {
            from: Switch(RoiEstimated),
            to: Node::Task(Task::RoiEst),
            conditions: vec![(RoiEstimated, true)],
        },
        GraphEdge {
            from: Node::Task(Task::RoiEst),
            to: Node::Task(Task::GwExt),
            conditions: vec![(RoiEstimated, true)],
        },
        GraphEdge {
            from: Node::Task(Task::GwExt),
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
            to: Node::Task(Task::Enh),
            conditions: vec![(RegSuccessful, true)],
        },
        GraphEdge {
            from: Node::Task(Task::Enh),
            to: Node::Task(Task::Zoom),
            conditions: vec![(RegSuccessful, true)],
        },
        GraphEdge {
            from: Node::Task(Task::Zoom),
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
    use triplec::TaskSet;

    /// The task nodes reachable (live) under a scenario.
    fn live_tasks(scenario: Scenario) -> TaskSet {
        flow_graph()
            .iter()
            .filter(|e| edge_live(e, scenario))
            .filter_map(|e| match e.to {
                Node::Task(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn graph_has_all_nine_tasks() {
        let edges = flow_graph();
        for t in Task::ALL {
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
            assert_eq!(live_tasks(s), s.active_tasks(), "scenario {:?}", s);
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
            let full = tasks.contains(Task::RdgFull);
            let roi = tasks.contains(Task::RdgRoi);
            assert!(!(full && roi), "both RDG variants live in {:?}", s);
        }
    }
}
