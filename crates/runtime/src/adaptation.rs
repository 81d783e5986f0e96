//! Repartitioning policy: predicted resource usage → execution policy.
//!
//! "Based on the outcome from the resource predictions for subsequent
//! frames, the resource manager can decide to repartition the flow-graph
//! to handle an increase or decrease of resource consumption, to keep the
//! output latency stable at the initialized (average-case) value."
//! (Section 6). The RDG tasks are data-partitioned (striped); the feature
//! tasks stay serial (they would be partitioned functionally across
//! frames, which does not change single-frame latency).

use crate::budget::LatencyBudget;
use pipeline::executor::{ExecutionPolicy, STRIPABLE_TASKS};
use triplec::predictor::{PredictContext, Prediction};
use triplec::scenario::Scenario;
use triplec::triple::TripleC;

/// Predicted per-frame cost split used by the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Predicted computation time of the data-partitionable tasks
    /// (RDG, GW EXT's response sweep), ms.
    pub stripable_ms: f64,
    /// Predicted time of the remaining (serial, feature-level) tasks, ms.
    pub serial_ms: f64,
}

impl CostPrediction {
    /// Predicted serial-frame latency.
    pub fn total(&self) -> f64 {
        self.stripable_ms + self.serial_ms
    }
}

/// Walks `scenario`'s active tasks once: predicts each trained task at
/// `ctx`, costs its distribution with `cost` and splits the costs by
/// [`STRIPABLE_TASKS`]. Also returns the per-task distributions summed
/// field by field (an upper bound on each frame quantile, exact under
/// comonotone task costs). Untrained tasks cost nothing.
pub(crate) fn scenario_cost(
    model: &TripleC,
    scenario: Scenario,
    ctx: &PredictContext,
    cost: impl Fn(&Prediction) -> f64,
) -> (CostPrediction, Prediction) {
    let mut split = CostPrediction {
        stripable_ms: 0.0,
        serial_ms: 0.0,
    };
    let mut sums = Prediction::default();
    for task in scenario.active_tasks() {
        let Some(p) = model.predict_task(task, ctx) else {
            continue;
        };
        sums.mean_ms += p.mean_ms;
        sums.p50_ms += p.p50_ms;
        sums.p95_ms += p.p95_ms;
        sums.p99_ms += p.p99_ms;
        if STRIPABLE_TASKS.contains(&task) {
            split.stripable_ms += cost(&p);
        } else {
            split.serial_ms += cost(&p);
        }
    }
    (split, sums)
}

/// Striping efficiency: a stripe of `1/k` of the rows costs slightly more
/// than `1/k` of the full-frame time because of the convolution halo.
const STRIPE_EFFICIENCY: f64 = 0.9;

/// Per-job dispatch/synchronization overhead, ms: a small fixed charge
/// for the fork/join cost of a partitioned stage. Hand-set, like the
/// striping efficiency, so that planned stripe counts do not depend on
/// the host.
pub const DISPATCH_OVERHEAD_MS: f64 = 0.05;

/// Predicted frame latency when the stripable tasks run with
/// `stripes` stripes.
pub fn predicted_latency(cost: &CostPrediction, stripes: usize) -> f64 {
    let stripes = stripes.max(1);
    let stripable = if stripes == 1 {
        cost.stripable_ms
    } else {
        cost.stripable_ms / (stripes as f64 * STRIPE_EFFICIENCY)
    };
    let dispatch = DISPATCH_OVERHEAD_MS * (stripes as f64 + 4.0);
    stripable + cost.serial_ms + dispatch
}

/// Picks the smallest stripe count that meets the planning target, capped
/// by the core count. Returns the chosen policy and whether the target is
/// achievable at all.
pub fn choose_policy(
    cost: &CostPrediction,
    budget: &LatencyBudget,
    cores: usize,
) -> (ExecutionPolicy, bool) {
    let cores = cores.max(1);
    let target = budget.planning_target();
    for stripes in 1..=cores {
        if predicted_latency(cost, stripes) <= target {
            return (
                ExecutionPolicy {
                    rdg_stripes: stripes,
                    aux_stripes: stripes,
                },
                true,
            );
        }
    }
    // infeasible: run maximally parallel anyway
    (
        ExecutionPolicy {
            rdg_stripes: cores,
            aux_stripes: cores,
        },
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_frame_stays_serial() {
        let cost = CostPrediction {
            stripable_ms: 10.0,
            serial_ms: 10.0,
        };
        let budget = LatencyBudget::new(40.0, 0.1);
        let (p, ok) = choose_policy(&cost, &budget, 8);
        assert!(ok);
        assert_eq!(p.rdg_stripes, 1);
    }

    #[test]
    fn expensive_frame_gets_striped() {
        let cost = CostPrediction {
            stripable_ms: 60.0,
            serial_ms: 10.0,
        };
        let budget = LatencyBudget::new(45.0, 0.1);
        let (p, ok) = choose_policy(&cost, &budget, 8);
        assert!(ok);
        assert!(p.rdg_stripes >= 2, "stripes {}", p.rdg_stripes);
        // the chosen policy indeed meets the target
        assert!(predicted_latency(&cost, p.rdg_stripes) <= budget.planning_target());
    }

    #[test]
    fn minimal_sufficient_parallelism_chosen() {
        let cost = CostPrediction {
            stripable_ms: 40.0,
            serial_ms: 5.0,
        };
        let budget = LatencyBudget::new(40.0, 0.1);
        let (p, ok) = choose_policy(&cost, &budget, 8);
        assert!(ok);
        // stripes-1 must NOT meet the target (minimality)
        if p.rdg_stripes > 1 {
            assert!(predicted_latency(&cost, p.rdg_stripes - 1) > budget.planning_target());
        }
    }

    #[test]
    fn infeasible_budget_reports_false_and_maxes_out() {
        let cost = CostPrediction {
            stripable_ms: 30.0,
            serial_ms: 100.0,
        };
        let budget = LatencyBudget::new(50.0, 0.1);
        let (p, ok) = choose_policy(&cost, &budget, 4);
        assert!(!ok);
        assert_eq!(p.rdg_stripes, 4);
    }

    #[test]
    fn latency_decreases_with_stripes() {
        let cost = CostPrediction {
            stripable_ms: 80.0,
            serial_ms: 10.0,
        };
        let mut prev = predicted_latency(&cost, 1);
        for k in 2..=8 {
            let cur = predicted_latency(&cost, k);
            assert!(cur < prev, "stripes {k}: {cur} >= {prev}");
            prev = cur;
        }
    }

    #[test]
    fn striping_overhead_modelled() {
        // with tiny RDG the dispatch overhead makes striping useless
        let cost = CostPrediction {
            stripable_ms: 0.2,
            serial_ms: 1.0,
        };
        let l1 = predicted_latency(&cost, 1);
        let l8 = predicted_latency(&cost, 8);
        assert!(l8 > l1 - 0.15, "l1 {l1} l8 {l8}");
    }
}
