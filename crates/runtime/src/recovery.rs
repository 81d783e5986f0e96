//! Graceful-degradation policies for faulted streams.
//!
//! Complements the executor-level stage retry (`pipeline::executor::
//! StageRetry`) with two session-level policies. Neither touches the
//! plan: a frame always runs at the stripe count its plan chose.
//!
//! * **model quarantine** — a corrupted model-snapshot checkpoint is
//!   rejected (restore returns `Err`, never panics), online training is
//!   suspended for two (`QUARANTINE_FRAMES`) frames
//!   (`DegradeMode::ModelQuarantine`), then re-enabled with a `Recovered`
//!   event (re-train);
//! * **prediction-drift quarantine** — when the rolling hit-rate of
//!   scenario predictions over [`RecoveryPolicy::drift_window`] frames
//!   falls below [`RecoveryPolicy::drift_threshold`] (scenario storms
//!   thrash transitions the training chain has never seen), the model is
//!   quarantined (`DegradeMode::ModelQuarantine` with cause
//!   `PredictionDrift`), its scenario chain is re-estimated from the
//!   recent actual-scenario window, and a `Recovered` event fires when
//!   the quarantine lifts. Off by default (`drift_threshold: None`).

use pipeline::executor::StageRetry;

/// Frames a quarantined model stays out of online training.
const QUARANTINE_FRAMES: u32 = 2;

/// Session-level degradation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Per-stage retry/fallback policy handed to the executor.
    pub retry: StageRetry,
    /// Rolling window (frames) over which scenario-prediction hit-rate
    /// is measured for drift detection.
    pub drift_window: usize,
    /// Hit-rate floor below which the model is quarantined and its
    /// scenario chain re-estimated (None = drift detection off).
    pub drift_threshold: Option<f64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            retry: StageRetry::default(),
            drift_window: 8,
            drift_threshold: None,
        }
    }
}

/// Mutable per-stream recovery state: the quarantine countdown and the
/// drift window.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecoveryState {
    quarantine_left: u32,
    online_before_quarantine: bool,
    drift_hits: std::collections::VecDeque<bool>,
}

impl RecoveryState {
    /// Enters model quarantine (online training already suspended by the
    /// caller); remembers whether it must be re-enabled on release.
    pub(crate) fn enter_quarantine(&mut self, online_before: bool) {
        self.quarantine_left = QUARANTINE_FRAMES;
        self.online_before_quarantine = online_before || self.online_before_quarantine;
    }

    /// Counts one frame spent in quarantine; returns `true` exactly when
    /// the quarantine lifts (the caller re-enables online training if
    /// [`Self::resume_online`] says so).
    pub(crate) fn tick_quarantine(&mut self) -> bool {
        if self.quarantine_left == 0 {
            return false;
        }
        self.quarantine_left -= 1;
        self.quarantine_left == 0
    }

    /// Whether online training was active before quarantine began.
    pub(crate) fn resume_online(&self) -> bool {
        self.online_before_quarantine
    }

    /// Books one scenario prediction/actual pair for drift detection.
    ///
    /// Returns `true` exactly when the rolling hit-rate over a full
    /// [`RecoveryPolicy::drift_window`] falls below
    /// [`RecoveryPolicy::drift_threshold`] and the model is not already
    /// quarantined — the signal for the caller to quarantine and
    /// re-estimate the scenario chain. The window resets on trigger so
    /// one storm produces one quarantine, not one per frame.
    pub(crate) fn note_scenario(
        &mut self,
        predicted: u8,
        actual: u8,
        policy: &RecoveryPolicy,
    ) -> bool {
        let Some(threshold) = policy.drift_threshold else {
            return false;
        };
        let window = policy.drift_window.max(1);
        self.drift_hits.push_back(predicted == actual);
        while self.drift_hits.len() > window {
            self.drift_hits.pop_front();
        }
        if self.quarantine_left > 0 || self.drift_hits.len() < window {
            return false;
        }
        let hits = self.drift_hits.iter().filter(|&&h| h).count();
        let rate = hits as f64 / window as f64;
        if rate < threshold {
            self.drift_hits.clear();
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_detection_fires_once_per_storm() {
        let policy = RecoveryPolicy {
            drift_window: 4,
            drift_threshold: Some(0.5),
            ..Default::default()
        };
        let mut st = RecoveryState::default();
        // all hits: no trigger
        for _ in 0..6 {
            assert!(!st.note_scenario(7, 7, &policy));
        }
        assert!(st.drift_hits.iter().all(|&h| h));
        // all misses: trigger exactly once the window fills with misses
        let mut fired = 0;
        for _ in 0..4 {
            if st.note_scenario(7, 0, &policy) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        // window was reset on trigger: takes a full window to fire again
        assert!(!st.note_scenario(7, 0, &policy));
    }

    #[test]
    fn drift_detection_off_by_default() {
        let policy = RecoveryPolicy::default();
        let mut st = RecoveryState::default();
        for _ in 0..32 {
            assert!(!st.note_scenario(1, 2, &policy));
        }
        assert!(st.drift_hits.is_empty());
    }

    #[test]
    fn drift_detection_suppressed_while_quarantined() {
        let policy = RecoveryPolicy {
            drift_window: 2,
            drift_threshold: Some(0.9),
            ..Default::default()
        };
        let mut st = RecoveryState::default();
        st.enter_quarantine(true);
        for _ in 0..6 {
            assert!(!st.note_scenario(0, 5, &policy));
        }
    }

    #[test]
    fn quarantine_counts_down_and_releases_once() {
        let mut st = RecoveryState::default();
        assert_eq!(st.quarantine_left, 0);
        st.enter_quarantine(true);
        assert!(st.quarantine_left > 0);
        assert!(!st.tick_quarantine());
        assert!(st.tick_quarantine(), "second tick releases");
        assert_eq!(st.quarantine_left, 0);
        assert!(st.resume_online());
        assert!(!st.tick_quarantine(), "no double release");
    }
}
