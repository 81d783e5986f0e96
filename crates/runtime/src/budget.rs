//! Latency budgets.
//!
//! "By processing the first frame of the sequence, we initialize the
//! partitioning of the flow-graph based on the image characteristics. The
//! output latency is set to an initial value (close to average case),
//! which will be our latency budget during runtime." (Section 6)

/// The average-case factor: the budget starts at this share of the first
/// frame's serial latency ("close to average case").
const FIRST_FRAME_FACTOR: f64 = 0.75;

/// The output-latency budget of the managed pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBudget {
    /// Target output latency, ms.
    pub target_ms: f64,
    /// Planning headroom: the manager plans to `target * (1 - headroom)`
    /// so prediction-error excursions (up to 20-30% in the paper) do not
    /// immediately overrun.
    pub headroom: f64,
}

impl LatencyBudget {
    /// Creates a budget with the given target and headroom fraction.
    pub fn new(target_ms: f64, headroom: f64) -> Self {
        assert!(target_ms > 0.0, "target must be positive");
        assert!((0.0..1.0).contains(&headroom), "headroom must be in [0, 1)");
        Self {
            target_ms,
            headroom,
        }
    }

    /// Initializes the budget close to the average case: the first frame's
    /// measured latency (serial) scaled by the average-case factor.
    pub fn from_first_frame(first_frame_ms: f64, headroom: f64) -> Self {
        Self::new((first_frame_ms * FIRST_FRAME_FACTOR).max(1.0), headroom)
    }

    /// The latency the planner aims at (target minus headroom).
    pub fn planning_target(&self) -> f64 {
        self.target_ms * (1.0 - self.headroom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planning_target_below_budget() {
        let b = LatencyBudget::new(60.0, 0.15);
        assert!((b.planning_target() - 51.0).abs() < 1e-12);
    }

    #[test]
    fn first_frame_initialization() {
        let b = LatencyBudget::from_first_frame(80.0, 0.1);
        assert!((b.target_ms - 60.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_rejected() {
        let _ = LatencyBudget::new(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn full_headroom_rejected() {
        let _ = LatencyBudget::new(10.0, 1.0);
    }
}
