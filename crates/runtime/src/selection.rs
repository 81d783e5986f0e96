//! Online champion/challenger model selection.
//!
//! The manager's live model (the *champion*) plans every frame; a
//! *challenger* — a clone of the champion with online training forced on
//! — shadow-trains off the same event stream without ever touching a
//! scheduling decision. Each absorbed frame, both models predict the
//! executed scenario's total task cost from the same pre-observation
//! state, and the absolute errors against the measured total are scored
//! into per-scenario rolling windows. When the challenger sustains a
//! clear accuracy win (a streak of strictly better frames *and* a
//! windowed mean error below `win_ratio` of the champion's), it is
//! promoted: the models swap, a fresh challenger is cloned from the new
//! champion, and a [`FrameEvent::ChallengerPromoted`] event is emitted.
//!
//! Demotion needs no machinery of its own: a champion whose accuracy
//! degrades is caught by the existing drift-quarantine path (the
//! recovery tier quarantines and re-trains a model whose predictions
//! drift), and the next challenger takes over through the same
//! promotion rule. Selection is scoped per scenario because the paper's
//! per-task predictors are scenario-conditioned: a challenger can be
//! better in the thrashing scenarios while the champion still wins the
//! steady ones, and a promotion should only fire on evidence from the
//! scenarios actually being executed.
//!
//! [`FrameEvent::ChallengerPromoted`]: platform::bus::FrameEvent::ChallengerPromoted

use pipeline::executor::FrameOutput;
use triplec::predictor::PredictContext;
use triplec::triple::TripleC;

/// Number of switch scenarios (the paper's 3-bit scenario space).
const NUM_SCENARIOS: usize = 8;

/// Per-scenario rolling-window capacity for error scoring.
const ERR_WINDOW: usize = 32;

/// Champion/challenger selection parameters (part of
/// [`ManagerConfig`](crate::manager::ManagerConfig)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionConfig {
    /// Master switch; selection is off by default (zero overhead and
    /// byte-identical behavior to a selector-less manager).
    pub enabled: bool,
    /// Promotion requires the challenger's windowed mean error to be
    /// below `win_ratio * champion_mean_error` (strictly): 0.9 demands a
    /// sustained ≥10 % accuracy win, not a statistical tie.
    pub win_ratio: f64,
    /// Minimum scored frames in the executed scenario's window before a
    /// promotion can fire (guards against small-sample flukes).
    pub min_frames: u32,
    /// Consecutive frames (any scenario) the challenger must win
    /// outright before a promotion can fire.
    pub streak: u32,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            win_ratio: 0.9,
            min_frames: 16,
            streak: 8,
        }
    }
}

/// A promotion decision, reported back to the manager for event
/// emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Promotion {
    /// Windowed mean absolute error of the (demoted) champion, ms.
    pub champion_err_ms: f64,
    /// Windowed mean absolute error of the promoted challenger, ms.
    pub challenger_err_ms: f64,
}

/// Bounded ring of `(champion_err, challenger_err)` pairs for one
/// scenario.
#[derive(Debug, Clone, Default)]
struct ErrWindow {
    pairs: Vec<(f64, f64)>,
    cursor: usize,
}

impl ErrWindow {
    fn push(&mut self, champ: f64, chall: f64) {
        if self.pairs.len() < ERR_WINDOW {
            self.pairs.push((champ, chall));
        } else {
            self.pairs[self.cursor] = (champ, chall);
            self.cursor = (self.cursor + 1) % ERR_WINDOW;
        }
    }

    fn len(&self) -> usize {
        self.pairs.len()
    }

    fn means(&self) -> (f64, f64) {
        if self.pairs.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.pairs.len() as f64;
        let (sc, sl) = self
            .pairs
            .iter()
            .fold((0.0, 0.0), |(ac, al), &(c, l)| (ac + c, al + l));
        (sc / n, sl / n)
    }
}

/// The shadow-training challenger and its scoring state.
pub struct ModelSelector {
    cfg: SelectionConfig,
    challenger: TripleC,
    windows: Vec<ErrWindow>,
    win_streak: u32,
    promotions: u32,
}

impl ModelSelector {
    /// Clones the champion into a fresh challenger with online training
    /// forced on.
    pub fn new(champion: &TripleC, cfg: SelectionConfig) -> Self {
        let mut challenger = champion.clone();
        challenger.set_online_training(true);
        Self {
            cfg,
            challenger,
            windows: vec![ErrWindow::default(); NUM_SCENARIOS],
            win_streak: 0,
            promotions: 0,
        }
    }

    /// Promotions performed so far.
    pub fn promotions(&self) -> u32 {
        self.promotions
    }

    /// Scores one absorbed frame and shadow-trains the challenger.
    ///
    /// Must run *before* the champion observes the frame's task times,
    /// so both models predict from the same pre-observation state. On a
    /// sustained challenger win the models are swapped in place and the
    /// promotion is returned for event emission.
    pub fn absorb(
        &mut self,
        champion: &mut TripleC,
        out: &FrameOutput,
        ctx: &PredictContext,
    ) -> Option<Promotion> {
        let actual: f64 = out.record.task_times.iter().map(|&(_, ms)| ms).sum();
        let predict_total = |model: &TripleC| -> f64 {
            out.record
                .task_times
                .iter()
                .map(|&(task, _)| model.predict_task(task, ctx).map_or(0.0, |p| p.mean_ms))
                .sum()
        };
        let champ_err = (predict_total(champion) - actual).abs();
        let chall_err = (predict_total(&self.challenger) - actual).abs();

        // shadow-train the challenger on the measured times (the
        // champion trains afterwards, under its own training switch)
        for &(task, ms) in &out.record.task_times {
            self.challenger.observe_task(task, ms, ctx);
        }

        let scenario = out.scenario.id() as usize;
        let window = &mut self.windows[scenario.min(NUM_SCENARIOS - 1)];
        window.push(champ_err, chall_err);
        if chall_err < champ_err {
            self.win_streak += 1;
        } else {
            self.win_streak = 0;
        }

        let (champ_mean, chall_mean) = window.means();
        let sustained = window.len() as u32 >= self.cfg.min_frames
            && self.win_streak >= self.cfg.streak
            && chall_mean < self.cfg.win_ratio * champ_mean;
        if !sustained {
            return None;
        }

        // promote: swap in place, re-arm a fresh challenger from the new
        // champion, reset all scoring state
        std::mem::swap(champion, &mut self.challenger);
        self.challenger = champion.clone();
        self.challenger.set_online_training(true);
        for w in &mut self.windows {
            *w = ErrWindow::default();
        }
        self.win_streak = 0;
        self.promotions += 1;
        Some(Promotion {
            champion_err_ms: champ_mean,
            challenger_err_ms: chall_mean,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::trace::FrameRecord;
    use triplec::scenario::Scenario;
    use triplec::training::TaskSeries;
    use triplec::triple::TripleCConfig;

    /// Dwell-4 square wave between 30 and 50 ms: CV 0.25 and positive
    /// lag-1 autocorrelation, so training selects the adaptive
    /// EWMA+Markov model (a constant model never adapts and cannot be
    /// differentiated by shadow training).
    fn square_wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if (i / 4) % 2 == 0 { 30.0 } else { 50.0 })
            .collect()
    }

    fn model() -> TripleC {
        let series = vec![
            TaskSeries::new("RDG_FULL", square_wave(200)),
            TaskSeries::new("MKX_EXT", vec![2.5; 200]),
        ];
        let scenarios = vec![1u8; 200];
        TripleC::train(&series, &scenarios, TripleCConfig::default())
    }

    fn frame(rdg_ms: f64) -> FrameOutput {
        FrameOutput {
            record: FrameRecord {
                frame: 0,
                scenario: 1,
                task_times: vec![("RDG_FULL", rdg_ms), ("MKX_EXT", 2.5)],
                latency_ms: rdg_ms + 2.5,
            },
            scenario: Scenario::from_id(1),
            roi: None,
            roi_kpixels: 1000.0,
            couple_found: true,
            display: None,
        }
    }

    #[test]
    fn stale_champion_gets_replaced_after_sustained_win() {
        // champion frozen near 40 ms while the workload drifts to 80 ms:
        // the shadow-training challenger adapts and must be promoted
        let mut champion = model();
        let cfg = SelectionConfig {
            enabled: true,
            ..Default::default()
        };
        let mut sel = ModelSelector::new(&champion, cfg);
        let ctx = PredictContext {
            roi_kpixels: 1000.0,
        };
        let mut promoted = None;
        for _ in 0..64 {
            if let Some(p) = sel.absorb(&mut champion, &frame(80.0), &ctx) {
                promoted = Some(p);
                break;
            }
        }
        let p = promoted.expect("drifted workload must promote the adaptive challenger");
        assert!(
            p.challenger_err_ms < p.champion_err_ms,
            "promotion with challenger err {} >= champion err {}",
            p.challenger_err_ms,
            p.champion_err_ms
        );
        assert_eq!(sel.promotions(), 1);
        // the promoted champion now tracks the drifted cost
        let pred = champion
            .predict_task("RDG_FULL", &ctx)
            .expect("promoted champion predicts")
            .mean_ms;
        assert!(
            (pred - 80.0).abs() < 20.0,
            "promoted champion still predicts {pred} ms for an 80 ms task"
        );
    }

    #[test]
    fn exact_champion_is_never_demoted() {
        // every frame lands exactly on the champion's prediction: its
        // error is zero, the challenger can never win strictly, and the
        // champion must stay untouched
        let mut champion = model();
        let ctx = PredictContext {
            roi_kpixels: 1000.0,
        };
        let before = champion.predict_task("RDG_FULL", &ctx).unwrap();
        let mut sel = ModelSelector::new(&champion, SelectionConfig::default());
        let rdg = before.mean_ms;
        let mkx = champion.predict_task("MKX_EXT", &ctx).unwrap().mean_ms;
        for _ in 0..64 {
            let out = FrameOutput {
                record: FrameRecord {
                    frame: 0,
                    scenario: 1,
                    task_times: vec![("RDG_FULL", rdg), ("MKX_EXT", mkx)],
                    latency_ms: rdg + mkx,
                },
                scenario: Scenario::from_id(1),
                roi: None,
                roi_kpixels: 1000.0,
                couple_found: true,
                display: None,
            };
            assert!(sel.absorb(&mut champion, &out, &ctx).is_none());
        }
        assert_eq!(sel.promotions(), 0);
        let after = champion.predict_task("RDG_FULL", &ctx).unwrap();
        assert_eq!(before, after, "champion was mutated");
    }
}
