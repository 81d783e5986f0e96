//! Quality-of-Service control.
//!
//! The paper's stated aim is "QoS control with shared resources" (Section
//! 1): when even the maximally parallel partitioning cannot hold the
//! latency budget — e.g. because other functions share the platform — the
//! controller degrades algorithmic quality instead of latency. Quality
//! levels trade RDG filter scales and enhancement for computation time,
//! while "tasks in the image analysis cannot be easily switched off, since
//! that would lead to an incomplete or unacceptable result" (Section 3) —
//! the mandatory analysis chain always runs.
//!
//! A stream opts in with `StreamSpecBuilder::qos`; `StreamEngine::step_on`
//! feeds the controller each executed frame, and a new level applies from
//! the next frame.

use pipeline::app::AppConfig;

use crate::budget::LatencyBudget;

/// Consecutive infeasible plans before quality degrades one level.
const DEGRADE_AFTER: usize = 3;
/// Consecutive comfortable frames before quality improves one level.
const IMPROVE_AFTER: usize = 10;
/// A frame is comfortable when its latency stays below this share of the
/// budget target it was planned under.
const COMFORT_SHARE: f64 = 0.6;

/// Algorithmic quality levels, best first; a level's discriminant is its
/// severity in event payloads (0 = full quality).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum QosLevel {
    /// Full quality: all RDG scales, enhancement enabled.
    #[default]
    Full,
    /// Fine refinement scales disabled (faster ridge filter, slightly
    /// worse suppression of thick structures).
    ReducedScales,
    /// Additionally halve the zoom output resolution.
    ReducedZoom,
}

impl QosLevel {
    /// One level lower, saturating at the lowest.
    fn degrade(self) -> QosLevel {
        match self {
            QosLevel::Full => QosLevel::ReducedScales,
            _ => QosLevel::ReducedZoom,
        }
    }

    /// One level higher, saturating at full quality.
    fn improve(self) -> QosLevel {
        match self {
            QosLevel::ReducedZoom => QosLevel::ReducedScales,
            _ => QosLevel::Full,
        }
    }

    /// Applies the level to a full-quality configuration.
    pub(crate) fn apply(self, base: &AppConfig) -> AppConfig {
        let mut cfg = base.clone();
        if self >= QosLevel::ReducedScales {
            cfg.rdg.fine_scales.clear();
        }
        if self >= QosLevel::ReducedZoom {
            cfg.zoom.out_width /= 2;
            cfg.zoom.out_height /= 2;
        }
        cfg
    }
}

/// Hysteresis-based QoS controller: degrades after [`DEGRADE_AFTER`]
/// consecutive infeasible frames, recovers after [`IMPROVE_AFTER`]
/// consecutive comfortable frames (latency below [`COMFORT_SHARE`] of the
/// budget target the frame was planned under).
#[derive(Debug, Clone, Default)]
pub(crate) struct QosController {
    level: QosLevel,
    pressure: usize,
    comfort: usize,
    /// Frames fed while below full quality.
    pub(crate) degraded_frames: usize,
}

impl QosController {
    /// Feeds one executed frame: whether its plan was feasible, its
    /// latency and the budget it was planned under (none: never
    /// comfortable). Returns the new level if it changed.
    pub(crate) fn update(
        &mut self,
        feasible: bool,
        latency_ms: f64,
        budget: Option<LatencyBudget>,
    ) -> Option<QosLevel> {
        let comfortable = budget.is_some_and(|b| latency_ms < COMFORT_SHARE * b.target_ms);
        let ran = self.level;
        self.degraded_frames += usize::from(ran != QosLevel::Full);
        if !feasible {
            self.pressure += 1;
            self.comfort = 0;
            if self.pressure >= DEGRADE_AFTER {
                self.level = self.level.degrade();
                self.pressure = 0;
            }
        } else if comfortable {
            self.comfort += 1;
            self.pressure = 0;
            if self.comfort >= IMPROVE_AFTER {
                self.level = self.level.improve();
                self.comfort = 0;
            }
        } else {
            self.pressure = 0;
            self.comfort = 0;
        }
        (self.level != ran).then_some(self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 100 ms budget: a 50 ms frame is comfortable, a 70 ms one is not.
    const BUDGET: Option<LatencyBudget> = Some(LatencyBudget {
        target_ms: 100.0,
        headroom: 0.1,
    });

    /// Feeds a frame whose plan could not hold the budget.
    fn infeasible(c: &mut QosController) -> Option<QosLevel> {
        c.update(false, 500.0, BUDGET)
    }

    /// Feeds a feasible frame well inside the budget.
    fn comfortable(c: &mut QosController) -> Option<QosLevel> {
        c.update(true, 50.0, BUDGET)
    }

    #[test]
    fn levels_order_and_transitions() {
        assert_eq!(QosLevel::Full.degrade(), QosLevel::ReducedScales);
        assert_eq!(QosLevel::ReducedScales.degrade(), QosLevel::ReducedZoom);
        assert_eq!(QosLevel::ReducedZoom.degrade(), QosLevel::ReducedZoom);
        assert_eq!(QosLevel::ReducedZoom.improve(), QosLevel::ReducedScales);
        assert_eq!(QosLevel::ReducedScales.improve(), QosLevel::Full);
        assert_eq!(QosLevel::Full.improve(), QosLevel::Full);
    }

    #[test]
    fn apply_reduces_work() {
        let base = AppConfig::default();
        let reduced = QosLevel::ReducedScales.apply(&base);
        assert!(reduced.rdg.fine_scales.is_empty());
        assert!(!base.rdg.fine_scales.is_empty());
        let zoomed = QosLevel::ReducedZoom.apply(&base);
        assert_eq!(zoomed.zoom.out_width, base.zoom.out_width / 2);
        let full = QosLevel::Full.apply(&base);
        assert_eq!(full.rdg.fine_scales.len(), base.rdg.fine_scales.len());
    }

    #[test]
    fn controller_degrades_under_sustained_pressure() {
        let mut c = QosController::default();
        for _ in 1..DEGRADE_AFTER {
            assert_eq!(infeasible(&mut c), None);
        }
        assert_eq!(infeasible(&mut c), Some(QosLevel::ReducedScales));
        assert_eq!(c.degraded_frames, 0);
    }

    #[test]
    fn single_glitch_does_not_degrade() {
        let mut c = QosController::default();
        for _ in 1..DEGRADE_AFTER {
            infeasible(&mut c);
        }
        c.update(true, 70.0, BUDGET); // pressure resets
        for _ in 1..DEGRADE_AFTER {
            infeasible(&mut c);
        }
        assert_eq!(c.level, QosLevel::Full);
    }

    /// From the lowest level, sustained comfort climbs one level per
    /// [`IMPROVE_AFTER`] frames, through `ReducedScales` to `Full`.
    #[test]
    fn controller_recovers_when_comfortable() {
        let mut c = QosController::default();
        for _ in 0..2 * DEGRADE_AFTER {
            infeasible(&mut c);
        }
        assert_eq!(c.level, QosLevel::ReducedZoom);
        let degraded_before = c.degraded_frames;
        for target in [QosLevel::ReducedScales, QosLevel::Full] {
            for _ in 1..IMPROVE_AFTER {
                assert_eq!(comfortable(&mut c), None);
            }
            assert_eq!(comfortable(&mut c), Some(target));
        }
        assert_eq!(c.degraded_frames - degraded_before, 2 * IMPROVE_AFTER);
    }

    /// Comfort is judged against the target of the budget a frame was
    /// planned under: a frame under [`COMFORT_SHARE`] of it completes a
    /// streak, one at or above it, or with no budget, does not.
    #[test]
    fn comfort_is_a_share_of_the_planned_budget() {
        let streak_then = |latency_ms: f64, budget: Option<LatencyBudget>| {
            let mut c = QosController::default();
            for _ in 0..DEGRADE_AFTER {
                infeasible(&mut c);
            }
            for _ in 1..IMPROVE_AFTER {
                c.update(true, 59.9, BUDGET);
            }
            c.update(true, latency_ms, budget)
        };
        assert_eq!(streak_then(59.9, BUDGET), Some(QosLevel::Full));
        assert_eq!(streak_then(60.0, BUDGET), None);
        assert_eq!(streak_then(1.0, None), None);
        let tighter = Some(LatencyBudget::new(90.0, 0.1));
        assert_eq!(streak_then(53.0, tighter), Some(QosLevel::Full));
        assert_eq!(streak_then(55.0, tighter), None);
    }

    #[test]
    fn controller_saturates_at_bottom() {
        let mut c = QosController::default();
        for _ in 0..10 * DEGRADE_AFTER {
            infeasible(&mut c);
        }
        assert_eq!(c.level, QosLevel::ReducedZoom);
    }
}
