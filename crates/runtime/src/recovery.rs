//! Graceful-degradation policies for faulted streams.
//!
//! Complements the executor-level stage retry (`pipeline::executor::
//! StageRetry`) with session-level policies:
//!
//! * **stripe downshift** — after N consecutive budget overruns the
//!   stream caps its stripe counts (halving, floored at
//!   [`RecoveryPolicy::min_stripes`]) and emits
//!   [`DegradeMode::StripeDownshift`]; after N consecutive clean frames
//!   the cap lifts again with a `Recovered` event;
//! * **model quarantine** — a corrupted model-snapshot checkpoint is
//!   rejected (restore returns `Err`, never panics), online training is
//!   suspended for [`RecoveryPolicy::quarantine_frames`] frames
//!   ([`DegradeMode::ModelQuarantine`]), then re-enabled with a
//!   `Recovered` event (re-train);
//! * **frame deadline** — a frame whose host wall time exceeds
//!   [`RecoveryPolicy::frame_deadline_ms`] has its output replaced by the
//!   stream's last good display ([`DegradeMode::OutputDropped`]). Wall
//!   time is not reproducible, so this policy defaults to off and is
//!   excluded from replay-determinism guarantees;
//! * **prediction-drift quarantine** — when the rolling hit-rate of
//!   scenario predictions over [`RecoveryPolicy::drift_window`] frames
//!   falls below [`RecoveryPolicy::drift_threshold`] (scenario storms
//!   thrash transitions the training chain has never seen), the model is
//!   quarantined ([`DegradeMode::ModelQuarantine`] with cause
//!   `PredictionDrift`), its scenario chain is re-estimated from the
//!   recent actual-scenario window, and a `Recovered` event fires when
//!   the quarantine lifts. Off by default (`drift_threshold: None`).

use pipeline::executor::{ExecutionPolicy, StageRetry};
use platform::bus::DegradeMode;

/// Session-level degradation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Per-stage retry/fallback policy handed to the executor.
    pub retry: StageRetry,
    /// Consecutive budget overruns that trigger a stripe downshift, and
    /// consecutive clean frames that lift it again.
    pub overrun_downshift: u32,
    /// Stripe floor the downshift never goes below.
    pub min_stripes: usize,
    /// Frames online training stays suspended after a corrupted
    /// snapshot checkpoint.
    pub quarantine_frames: u32,
    /// Host wall-clock deadline per frame, ms (None = no deadline).
    pub frame_deadline_ms: Option<f64>,
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
            overrun_downshift: 3,
            min_stripes: 1,
            quarantine_frames: 2,
            frame_deadline_ms: None,
            drift_window: 8,
            drift_threshold: None,
        }
    }
}

/// What the per-frame bookkeeping decided (so the session can emit the
/// matching bus events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Nothing changed.
    None,
    /// The stripe cap tightened to the contained value.
    Downshift(usize),
    /// A previously applied degradation lifted.
    Lift(DegradeMode),
}

/// Mutable per-stream recovery state.
#[derive(Debug, Clone, Default)]
pub struct RecoveryState {
    consecutive_overruns: u32,
    clean_since_downshift: u32,
    stripe_cap: Option<usize>,
    quarantine_left: u32,
    online_before_quarantine: bool,
    drift_hits: std::collections::VecDeque<bool>,
}

impl RecoveryState {
    /// Fresh state: no cap, no quarantine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the model is currently quarantined.
    pub fn quarantined(&self) -> bool {
        self.quarantine_left > 0
    }

    /// Clamps a planned policy to the current stripe cap.
    pub fn apply_cap(&self, policy: &mut ExecutionPolicy) {
        if let Some(cap) = self.stripe_cap {
            policy.rdg_stripes = policy.rdg_stripes.min(cap).max(1);
            policy.aux_stripes = policy.aux_stripes.min(cap).max(1);
        }
    }

    /// Books one executed frame: `overrun` is whether it exceeded the
    /// latency budget, `planned_stripes` the stripe count it ran with.
    /// Returns the downshift/lift decision for the session to act on.
    pub fn note_frame(
        &mut self,
        overrun: bool,
        planned_stripes: usize,
        policy: &RecoveryPolicy,
    ) -> RecoveryAction {
        if overrun {
            self.consecutive_overruns += 1;
            self.clean_since_downshift = 0;
            if self.consecutive_overruns >= policy.overrun_downshift.max(1) {
                self.consecutive_overruns = 0;
                let current = self.stripe_cap.unwrap_or(planned_stripes.max(1));
                let next = (current / 2).max(policy.min_stripes.max(1));
                if self.stripe_cap != Some(next) && next < current {
                    self.stripe_cap = Some(next);
                    return RecoveryAction::Downshift(next);
                }
                self.stripe_cap = Some(next);
            }
        } else {
            self.consecutive_overruns = 0;
            if self.stripe_cap.is_some() {
                self.clean_since_downshift += 1;
                if self.clean_since_downshift >= policy.overrun_downshift.max(1) {
                    self.stripe_cap = None;
                    self.clean_since_downshift = 0;
                    return RecoveryAction::Lift(DegradeMode::StripeDownshift);
                }
            }
        }
        RecoveryAction::None
    }

    /// Enters model quarantine (online training already suspended by the
    /// caller); remembers whether it must be re-enabled on release.
    pub fn enter_quarantine(&mut self, online_before: bool, policy: &RecoveryPolicy) {
        self.quarantine_left = policy.quarantine_frames.max(1);
        self.online_before_quarantine = online_before || self.online_before_quarantine;
    }

    /// Counts one frame spent in quarantine; returns `true` exactly when
    /// the quarantine lifts (the caller re-enables online training if
    /// [`Self::resume_online`] says so).
    pub fn tick_quarantine(&mut self) -> bool {
        if self.quarantine_left == 0 {
            return false;
        }
        self.quarantine_left -= 1;
        self.quarantine_left == 0
    }

    /// Whether online training was active before quarantine began.
    pub fn resume_online(&self) -> bool {
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
    pub fn note_scenario(&mut self, predicted: u8, actual: u8, policy: &RecoveryPolicy) -> bool {
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
    fn downshift_after_consecutive_overruns_then_lift() {
        let policy = RecoveryPolicy {
            overrun_downshift: 2,
            ..Default::default()
        };
        let mut st = RecoveryState::new();
        assert_eq!(st.note_frame(true, 8, &policy), RecoveryAction::None);
        assert_eq!(
            st.note_frame(true, 8, &policy),
            RecoveryAction::Downshift(4)
        );
        assert_eq!(st.stripe_cap, Some(4));
        // further overruns halve again
        assert_eq!(st.note_frame(true, 4, &policy), RecoveryAction::None);
        assert_eq!(
            st.note_frame(true, 4, &policy),
            RecoveryAction::Downshift(2)
        );
        // two clean frames lift the cap
        assert_eq!(st.note_frame(false, 2, &policy), RecoveryAction::None);
        assert_eq!(
            st.note_frame(false, 2, &policy),
            RecoveryAction::Lift(DegradeMode::StripeDownshift)
        );
        assert_eq!(st.stripe_cap, None);
    }

    #[test]
    fn downshift_respects_min_stripes() {
        let policy = RecoveryPolicy {
            overrun_downshift: 1,
            min_stripes: 2,
            ..Default::default()
        };
        let mut st = RecoveryState::new();
        assert_eq!(
            st.note_frame(true, 4, &policy),
            RecoveryAction::Downshift(2)
        );
        // already at the floor: no further downshift event
        assert_eq!(st.note_frame(true, 2, &policy), RecoveryAction::None);
        assert_eq!(st.stripe_cap, Some(2));
    }

    #[test]
    fn cap_clamps_policy() {
        let mut st = RecoveryState::new();
        let policy = RecoveryPolicy {
            overrun_downshift: 1,
            ..Default::default()
        };
        st.note_frame(true, 8, &policy);
        let mut exec = ExecutionPolicy {
            rdg_stripes: 8,
            aux_stripes: 6,
            cores: 8,
        };
        st.apply_cap(&mut exec);
        assert_eq!(exec.rdg_stripes, 4);
        assert_eq!(exec.aux_stripes, 4);
    }

    #[test]
    fn interleaved_overruns_do_not_downshift() {
        let policy = RecoveryPolicy {
            overrun_downshift: 2,
            ..Default::default()
        };
        let mut st = RecoveryState::new();
        for _ in 0..6 {
            assert_eq!(st.note_frame(true, 8, &policy), RecoveryAction::None);
            assert_eq!(st.note_frame(false, 8, &policy), RecoveryAction::None);
        }
        assert_eq!(st.stripe_cap, None);
    }

    #[test]
    fn drift_detection_fires_once_per_storm() {
        let policy = RecoveryPolicy {
            drift_window: 4,
            drift_threshold: Some(0.5),
            ..Default::default()
        };
        let mut st = RecoveryState::new();
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
        let mut st = RecoveryState::new();
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
            quarantine_frames: 3,
            ..Default::default()
        };
        let mut st = RecoveryState::new();
        st.enter_quarantine(true, &policy);
        for _ in 0..6 {
            assert!(!st.note_scenario(0, 5, &policy));
        }
    }

    #[test]
    fn quarantine_counts_down_and_releases_once() {
        let policy = RecoveryPolicy {
            quarantine_frames: 2,
            ..Default::default()
        };
        let mut st = RecoveryState::new();
        assert!(!st.quarantined());
        st.enter_quarantine(true, &policy);
        assert!(st.quarantined());
        assert!(!st.tick_quarantine());
        assert!(st.tick_quarantine(), "second tick releases");
        assert!(!st.quarantined());
        assert!(st.resume_online());
        assert!(!st.tick_quarantine(), "no double release");
    }
}
