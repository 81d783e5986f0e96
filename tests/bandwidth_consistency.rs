//! Cross-crate consistency of the bandwidth model, the scenario state
//! table and the flow graph.

use triple_c::pipeline::graph::{edge_live, flow_graph, Node};
use triple_c::platform::bandwidth::Endpoint;
use triple_c::triplec::bandwidth_model::{scenario_edges, scenario_inter_task_bandwidth};
use triple_c::triplec::memory_model::FrameGeometry;
use triple_c::triplec::scenario::Scenario;
use triple_c::triplec::Task;

const GEOM: FrameGeometry = FrameGeometry {
    width: 512,
    height: 512,
};

/// Every bandwidth edge must connect tasks that are actually live in the
/// scenario (INPUT/OUTPUT endpoints aside).
#[test]
fn bandwidth_edges_reference_live_tasks_only() {
    for s in Scenario::all() {
        let active = s.active_tasks();
        for e in scenario_edges(s, GEOM, 0.2) {
            for endpoint in [e.from, e.to] {
                let Endpoint::Task(task) = endpoint else {
                    continue;
                };
                assert!(
                    active.contains(task),
                    "scenario {:?}: edge {}->{} references inactive task {task}",
                    s,
                    e.from,
                    e.to
                );
            }
        }
    }
}

/// Every active task must be reachable by at least one bandwidth edge
/// (no task computes without data arriving).
#[test]
fn every_active_task_receives_data() {
    for s in Scenario::all() {
        let edges = scenario_edges(s, GEOM, 0.2);
        for task in s.active_tasks() {
            let receives = edges.iter().any(|e| e.to == Endpoint::Task(task));
            assert!(receives, "scenario {:?}: task {task} receives no edge", s);
        }
    }
}

/// Scenario ordering: adding work (turning a switch on) can only increase
/// the inter-task bandwidth, all else equal.
#[test]
fn switches_monotonically_add_bandwidth() {
    for id in 0..8u8 {
        let s = Scenario::from_id(id);
        let bw = scenario_inter_task_bandwidth(s, GEOM, 0.2);
        // turning REG success on adds ENH/ZOOM edges
        if !s.reg_successful {
            let on = Scenario {
                reg_successful: true,
                ..s
            };
            let bw_on = scenario_inter_task_bandwidth(on, GEOM, 0.2);
            assert!(bw_on > bw, "scenario {id}: REG-on did not add bandwidth");
        }
        // turning RDG on adds the ridge edges
        if !s.rdg_active {
            let on = Scenario {
                rdg_active: true,
                ..s
            };
            let bw_on = scenario_inter_task_bandwidth(on, GEOM, 0.2);
            assert!(bw_on > bw, "scenario {id}: RDG-on did not add bandwidth");
        }
    }
}

/// The explicit flow graph and the bandwidth model agree on which task
/// pairs exchange data (for task-task edges present in both).
#[test]
fn graph_edges_and_bandwidth_edges_agree() {
    for s in Scenario::all() {
        let graph_pairs: Vec<(Task, Task)> = flow_graph()
            .iter()
            .filter(|e| edge_live(e, s))
            .filter_map(|e| match (e.from, e.to) {
                (Node::Task(a), Node::Task(b)) => Some((a, b)),
                _ => None,
            })
            .collect();
        let bw_pairs: Vec<(Task, Task)> = scenario_edges(s, GEOM, 0.2)
            .iter()
            .filter_map(|e| match (e.from, e.to) {
                (Endpoint::Task(a), Endpoint::Task(b)) => Some((a, b)),
                _ => None,
            })
            .collect();
        // every direct task->task graph edge must carry bandwidth, except
        // feature-level hops the bandwidth model routes through other
        // nodes (ROI_EST is fed from REG in the bandwidth model)
        for (a, b) in graph_pairs {
            if a == Task::RoiEst || b == Task::RoiEst {
                continue;
            }
            assert!(
                bw_pairs.contains(&(a, b)),
                "scenario {:?}: graph edge {a}->{b} missing from bandwidth model",
                s
            );
        }
    }
}

/// ROI-fraction scaling: smaller ROIs can only reduce bandwidth.
#[test]
fn bandwidth_monotone_in_roi_fraction() {
    for s in Scenario::all() {
        let small = scenario_inter_task_bandwidth(s, GEOM, 0.05);
        let large = scenario_inter_task_bandwidth(s, GEOM, 0.8);
        assert!(
            small <= large + 1e-6,
            "scenario {:?}: bandwidth not monotone in ROI ({small} > {large})",
            s
        );
    }
}
