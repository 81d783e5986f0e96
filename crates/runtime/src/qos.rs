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

use crate::service::StreamEngine;
use crate::session::{StreamFailure, StreamResult};
use imaging::parallel::StripePool;
use pipeline::app::AppConfig;
use platform::bus::FrameEvent;
use xray::SequenceGenerator;

/// Algorithmic quality levels, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosLevel {
    /// Full quality: all RDG scales, enhancement enabled.
    Full,
    /// Fine refinement scales disabled (faster ridge filter, slightly
    /// worse suppression of thick structures).
    ReducedScales,
    /// Additionally halve the zoom output resolution.
    ReducedZoom,
}

impl QosLevel {
    /// All levels, best first.
    pub fn all() -> [QosLevel; 3] {
        [
            QosLevel::Full,
            QosLevel::ReducedScales,
            QosLevel::ReducedZoom,
        ]
    }

    /// The next lower quality level, if any.
    fn degrade(self) -> Option<QosLevel> {
        match self {
            QosLevel::Full => Some(QosLevel::ReducedScales),
            QosLevel::ReducedScales => Some(QosLevel::ReducedZoom),
            QosLevel::ReducedZoom => None,
        }
    }

    /// The next higher quality level, if any.
    fn improve(self) -> Option<QosLevel> {
        match self {
            QosLevel::Full => None,
            QosLevel::ReducedScales => Some(QosLevel::Full),
            QosLevel::ReducedZoom => Some(QosLevel::ReducedScales),
        }
    }

    /// Numeric severity for event payloads: 0 = full quality, higher =
    /// more degraded.
    fn severity(self) -> u8 {
        match self {
            QosLevel::Full => 0,
            QosLevel::ReducedScales => 1,
            QosLevel::ReducedZoom => 2,
        }
    }

    /// Applies the level to a full-quality configuration.
    pub fn apply(self, base: &AppConfig) -> AppConfig {
        let mut cfg = base.clone();
        match self {
            QosLevel::Full => {}
            QosLevel::ReducedScales => {
                cfg.rdg.fine_scales.clear();
            }
            QosLevel::ReducedZoom => {
                cfg.rdg.fine_scales.clear();
                cfg.zoom.out_width /= 2;
                cfg.zoom.out_height /= 2;
            }
        }
        cfg
    }
}

/// Hysteresis-based QoS controller: degrades after `degrade_after`
/// consecutive infeasible frames, recovers after `improve_after`
/// consecutive comfortable frames.
#[derive(Debug, Clone)]
pub struct QosController {
    level: QosLevel,
    degrade_after: usize,
    improve_after: usize,
    pressure: usize,
    comfort: usize,
}

impl QosController {
    /// Creates a controller at full quality.
    pub fn new(degrade_after: usize, improve_after: usize) -> Self {
        assert!(degrade_after > 0 && improve_after > 0);
        Self {
            level: QosLevel::Full,
            degrade_after,
            improve_after,
            pressure: 0,
            comfort: 0,
        }
    }

    /// Current level.
    pub fn level(&self) -> QosLevel {
        self.level
    }

    /// Feeds one frame's feasibility; returns the (possibly new) level.
    /// `comfortable` means the frame met the budget with margin.
    pub fn update(&mut self, feasible: bool, comfortable: bool) -> QosLevel {
        if !feasible {
            self.pressure += 1;
            self.comfort = 0;
            if self.pressure >= self.degrade_after {
                if let Some(next) = self.level.degrade() {
                    self.level = next;
                }
                self.pressure = 0;
            }
        } else if comfortable {
            self.comfort += 1;
            self.pressure = 0;
            if self.comfort >= self.improve_after {
                if let Some(next) = self.level.improve() {
                    self.level = next;
                }
                self.comfort = 0;
            }
        } else {
            self.pressure = 0;
            self.comfort = 0;
        }
        self.level
    }
}

/// Runs one stream under both its resource manager and a QoS controller:
/// when the latency budget is infeasible even fully parallel, algorithmic
/// quality degrades (fewer RDG scales, reduced zoom) instead of latency;
/// sustained comfort restores quality. Returns the stream's result and
/// the quality level in force after each executed frame.
pub fn run_with_qos(
    mut engine: StreamEngine,
    controller: &mut QosController,
) -> Result<(StreamResult, Vec<QosLevel>), StreamFailure> {
    let base = engine.app_mut().clone();
    *engine.app_mut() = controller.level().apply(&base);
    let mut levels = Vec::with_capacity(engine.seq().frames);
    for frame in SequenceGenerator::new(engine.seq().clone()) {
        // comfort is judged against the budget the frame was planned
        // under (none yet on a frame that initializes it)
        let budget = engine.manager_mut().budget();
        let infeasible_before = engine.manager_mut().infeasible_frames();
        engine.step_on(StripePool::global(), frame.index, &frame.image)?;
        let Some(latency_ms) = engine.latency_of(frame.index) else {
            continue; // dropped at the input: nothing to judge
        };
        let feasible = engine.manager_mut().infeasible_frames() == infeasible_before;
        let comfortable = budget.is_some_and(|b| latency_ms < 0.6 * b.target_ms);
        let before = controller.level();
        let level = controller.update(feasible, comfortable);
        if level != before {
            *engine.app_mut() = level.apply(&base);
            let stream = engine.manager_mut().stream();
            engine.emit(FrameEvent::QosIntervention {
                stream,
                frame: frame.index,
                level: level.severity(),
            });
        }
        levels.push(level);
    }
    Ok((engine.finish(), levels))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::budget::LatencyBudget;
    use crate::session::StreamSpec;
    use crate::test_support::{seq, trained_model};

    fn engine(seed: u64, frames: usize, budget_ms: f64) -> StreamEngine {
        let spec = StreamSpec::builder(seq(seed, frames), AppConfig::default(), trained_model())
            .budget(LatencyBudget::new(budget_ms, 0.1))
            .build();
        StreamEngine::new(0, spec, 8)
    }

    #[test]
    fn qos_run_degrades_under_impossible_budget() {
        // unreachable budget: every frame is infeasible
        let mut ctrl = QosController::new(2, 100);
        let (result, levels) = run_with_qos(engine(106, 10, 0.001), &mut ctrl).unwrap();
        assert_eq!(result.trace.len(), 10);
        assert_eq!(result.infeasible_frames, 10);
        assert!(
            levels.iter().any(|&l| l != QosLevel::Full),
            "controller never degraded: {levels:?}"
        );
        // the degraded configuration really reached the frames: the last
        // level halves the zoom output
        let full = AppConfig::default().zoom;
        assert_eq!(*levels.last().unwrap(), QosLevel::ReducedZoom);
        let last = result.displays.iter().flatten().last().expect("a display");
        assert_eq!(last.dims(), (full.out_width / 2, full.out_height / 2));
    }

    #[test]
    fn qos_run_holds_and_restores_full_quality_under_generous_budget() {
        let mut ctrl = QosController::new(2, 4);
        let (result, levels) = run_with_qos(engine(105, 8, 10_000.0), &mut ctrl).unwrap();
        assert_eq!(result.trace.len(), 8);
        assert!(levels.iter().all(|&l| l == QosLevel::Full), "{levels:?}");

        // a controller that starts degraded climbs back after sustained
        // comfort
        let mut ctrl = QosController::new(1, 2);
        ctrl.update(false, false);
        ctrl.update(false, false);
        assert_eq!(ctrl.level(), QosLevel::ReducedZoom);
        let (_, levels) = run_with_qos(engine(105, 8, 10_000.0), &mut ctrl).unwrap();
        assert_eq!(levels[0], QosLevel::ReducedZoom);
        assert_eq!(*levels.last().unwrap(), QosLevel::Full, "{levels:?}");
    }

    #[test]
    fn levels_order_and_transitions() {
        assert_eq!(QosLevel::Full.degrade(), Some(QosLevel::ReducedScales));
        assert_eq!(QosLevel::ReducedZoom.degrade(), None);
        assert_eq!(
            QosLevel::ReducedZoom.improve(),
            Some(QosLevel::ReducedScales)
        );
        assert_eq!(QosLevel::Full.improve(), None);
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
        let mut c = QosController::new(3, 5);
        assert_eq!(c.update(false, false), QosLevel::Full);
        assert_eq!(c.update(false, false), QosLevel::Full);
        assert_eq!(c.update(false, false), QosLevel::ReducedScales);
    }

    #[test]
    fn single_glitch_does_not_degrade() {
        let mut c = QosController::new(3, 5);
        c.update(false, false);
        c.update(true, false); // pressure resets
        c.update(false, false);
        c.update(false, false);
        assert_eq!(c.level(), QosLevel::Full);
    }

    #[test]
    fn controller_recovers_when_comfortable() {
        let mut c = QosController::new(1, 3);
        c.update(false, false); // -> ReducedScales
        assert_eq!(c.level(), QosLevel::ReducedScales);
        for _ in 0..3 {
            c.update(true, true);
        }
        assert_eq!(c.level(), QosLevel::Full);
    }

    #[test]
    fn controller_saturates_at_bottom() {
        let mut c = QosController::new(1, 3);
        for _ in 0..10 {
            c.update(false, false);
        }
        assert_eq!(c.level(), QosLevel::ReducedZoom);
    }
}
