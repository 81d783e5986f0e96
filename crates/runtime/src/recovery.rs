//! Graceful-degradation policies for faulted streams.
//!
//! Complements the executor-level stage retry (`pipeline::executor::
//! StageRetry`) with session-level policies:
//!
//! * **stripe downshift** — after three (`OVERRUN_DOWNSHIFT`) consecutive
//!   budget overruns the stream caps its stripe counts (halving, floored
//!   at `MIN_STRIPES`, one) and emits [`DegradeMode::StripeDownshift`];
//!   after as many consecutive clean frames the cap lifts again with a
//!   `Recovered` event. A stream already at one stripe neither downshifts
//!   nor lifts;
//! * **model quarantine** — a corrupted model-snapshot checkpoint is
//!   rejected (restore returns `Err`, never panics), online training is
//!   suspended for two (`QUARANTINE_FRAMES`) frames
//!   ([`DegradeMode::ModelQuarantine`]), then re-enabled with a
//!   `Recovered` event (re-train);
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

/// Consecutive budget overruns that trigger a stripe downshift, and
/// consecutive clean frames that lift it again.
const OVERRUN_DOWNSHIFT: u32 = 3;

/// Stripe floor the downshift never goes below.
const MIN_STRIPES: usize = 1;

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
    /// Returns the downshift/lift decision for the session to act on; a
    /// cap exists only after a `Downshift`, so every `Lift` follows one.
    pub fn note_frame(&mut self, overrun: bool, planned_stripes: usize) -> RecoveryAction {
        if overrun {
            self.consecutive_overruns += 1;
            self.clean_since_downshift = 0;
            if self.consecutive_overruns >= OVERRUN_DOWNSHIFT {
                self.consecutive_overruns = 0;
                let current = self.stripe_cap.unwrap_or(planned_stripes.max(1));
                let next = (current / 2).max(MIN_STRIPES);
                if next < current {
                    self.stripe_cap = Some(next);
                    return RecoveryAction::Downshift(next);
                }
            }
        } else {
            self.consecutive_overruns = 0;
            if self.stripe_cap.is_some() {
                self.clean_since_downshift += 1;
                if self.clean_since_downshift >= OVERRUN_DOWNSHIFT {
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
    pub fn enter_quarantine(&mut self, online_before: bool) {
        self.quarantine_left = QUARANTINE_FRAMES;
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

    /// Books `n` frames of one kind, asserting each returns no action.
    fn quiet(st: &mut RecoveryState, n: u32, overrun: bool, stripes: usize) {
        for _ in 0..n {
            assert_eq!(st.note_frame(overrun, stripes), RecoveryAction::None);
        }
    }

    #[test]
    fn downshift_after_consecutive_overruns_then_lift() {
        let mut st = RecoveryState::new();
        quiet(&mut st, OVERRUN_DOWNSHIFT - 1, true, 8);
        assert_eq!(st.note_frame(true, 8), RecoveryAction::Downshift(4));
        assert_eq!(st.stripe_cap, Some(4));
        // further overruns halve again
        quiet(&mut st, OVERRUN_DOWNSHIFT - 1, true, 4);
        assert_eq!(st.note_frame(true, 4), RecoveryAction::Downshift(2));
        // as many clean frames lift the cap
        quiet(&mut st, OVERRUN_DOWNSHIFT - 1, false, 2);
        assert_eq!(
            st.note_frame(false, 2),
            RecoveryAction::Lift(DegradeMode::StripeDownshift)
        );
        assert_eq!(st.stripe_cap, None);
    }

    #[test]
    fn downshift_floors_at_one_stripe() {
        let mut st = RecoveryState::new();
        quiet(&mut st, OVERRUN_DOWNSHIFT - 1, true, 4);
        assert_eq!(st.note_frame(true, 4), RecoveryAction::Downshift(2));
        quiet(&mut st, OVERRUN_DOWNSHIFT - 1, true, 2);
        assert_eq!(st.note_frame(true, 2), RecoveryAction::Downshift(1));
        // already at the floor: no further downshift event
        quiet(&mut st, 2 * OVERRUN_DOWNSHIFT, true, 1);
        assert_eq!(st.stripe_cap, Some(1));
    }

    #[test]
    fn a_stream_at_one_stripe_never_downshifts_or_lifts() {
        // nothing to halve at one stripe, so no cap is set and the clean
        // frames after the overruns have nothing to lift
        let mut st = RecoveryState::new();
        quiet(&mut st, OVERRUN_DOWNSHIFT, true, 1);
        quiet(&mut st, 2 * OVERRUN_DOWNSHIFT, false, 1);
        assert_eq!(st.stripe_cap, None);
    }

    #[test]
    fn cap_clamps_policy() {
        let mut st = RecoveryState::new();
        for _ in 0..OVERRUN_DOWNSHIFT {
            st.note_frame(true, 8);
        }
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
        let mut st = RecoveryState::new();
        for _ in 0..6 {
            quiet(&mut st, OVERRUN_DOWNSHIFT - 1, true, 8);
            quiet(&mut st, 1, false, 8);
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
            ..Default::default()
        };
        let mut st = RecoveryState::new();
        st.enter_quarantine(true);
        for _ in 0..6 {
            assert!(!st.note_scenario(0, 5, &policy));
        }
    }

    #[test]
    fn quarantine_counts_down_and_releases_once() {
        let mut st = RecoveryState::new();
        assert!(!st.quarantined());
        st.enter_quarantine(true);
        assert!(st.quarantined());
        assert!(!st.tick_quarantine());
        assert!(st.tick_quarantine(), "second tick releases");
        assert!(!st.quarantined());
        assert!(st.resume_online());
        assert!(!st.tick_quarantine(), "no double release");
    }
}
