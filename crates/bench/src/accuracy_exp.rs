//! Section 7 headline — computation-time prediction accuracy on held-out
//! test sequences ("an average prediction accuracy of 97% is reached with
//! sporadic excursions of the prediction error up to 20-30%").

use crate::config::ExperimentConfig;
use crate::report::table;
use crate::table2::profile_training_corpus;
use pipeline::app::{AppConfig, AppState};
use pipeline::executor::{process_frame, ExecutionPolicy};
use std::collections::BTreeMap;
use triplec::accuracy::{evaluate, AccuracyReport};
use triplec::predictor::PredictContext;
use triplec::triple::{TripleC, TripleCConfig};
use triplec::Task;
use xray::{test_corpus, SequenceGenerator};

/// Structured accuracy result.
#[derive(Debug, Clone)]
pub(crate) struct AccuracyResult {
    /// Per-task accuracy reports.
    pub(crate) per_task: Vec<(Task, AccuracyReport)>,
    /// Frame-total accuracy report.
    pub(crate) frame_level: AccuracyReport,
}

/// Trains on the (scaled) training corpus and evaluates one-step-ahead
/// prediction on the held-out test corpus.
pub(crate) fn run(cfg: &ExperimentConfig) -> (AccuracyResult, String) {
    let app = AppConfig::default();
    let profile = profile_training_corpus(cfg, &app);
    let tc_cfg = TripleCConfig {
        geometry: cfg.geometry(),
    };
    let mut model = TripleC::train(&profile.task_series(), &profile.scenarios, tc_cfg);
    // Section 6 usage: the deployed model keeps adapting to the stream
    // (a frozen model would ignore the feedback below)
    model.set_online_training(true);

    // evaluation: run the pipeline over the test corpus; before each task
    // executes, ask the model; after, feed the measurement back (the
    // runtime usage pattern of Section 6)
    let mut task_pairs: BTreeMap<Task, Vec<(f64, f64)>> = BTreeMap::new();
    let mut frame_pairs: Vec<(f64, f64)> = Vec::new();

    let mut corpus = test_corpus(cfg.size, cfg.size);
    if cfg.corpus_scale < 1.0 {
        let keep = ((corpus.len() as f64 * cfg.corpus_scale).ceil() as usize).max(1);
        corpus.truncate(keep);
        for c in &mut corpus {
            c.frames = ((c.frames as f64 * cfg.corpus_scale).ceil() as usize).max(10);
        }
    }

    let policy = ExecutionPolicy::default();
    for seq in corpus {
        let mut state = AppState::new(seq.width, seq.height);
        for frame in SequenceGenerator::new(seq) {
            let roi_kpixels = state
                .current_roi
                .map(|r| r.area() as f64 / 1000.0)
                .unwrap_or((frame.image.width() * frame.image.height()) as f64 / 1000.0);
            let ctx = PredictContext { roi_kpixels };

            let out = process_frame(frame.index, &frame.image, &mut state, &app, &policy);
            let mut frame_pred = 0.0;
            let mut frame_actual = 0.0;
            for &(task, actual) in &out.record.task_times {
                if let Some(pred) = model.predict_task(task, &ctx).map(|p| p.mean_ms) {
                    task_pairs.entry(task).or_default().push((pred, actual));
                    frame_pred += pred;
                    frame_actual += actual;
                }
                model.observe_task(task, actual, &ctx);
            }
            if frame_actual > 0.0 {
                frame_pairs.push((frame_pred, frame_actual));
            }
        }
    }

    let r = AccuracyResult {
        per_task: task_pairs
            .iter()
            .map(|(&t, pairs)| (t, evaluate(pairs)))
            .collect(),
        frame_level: evaluate(&frame_pairs),
    };

    let mut out = String::new();
    out.push_str(&format!(
        "Prediction accuracy on held-out sequences ({} frames evaluated)\n\n",
        r.frame_level.count
    ));
    let rows: Vec<Vec<String>> = r
        .per_task
        .iter()
        .map(|(t, a)| {
            vec![
                t.to_string(),
                format!("{}", a.count),
                format!("{:.1}%", a.mean_accuracy * 100.0),
                format!("{:.0}%", a.max_error * 100.0),
                format!("{:.1}%", a.excursions_over_20pct * 100.0),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "task",
            "samples",
            "mean accuracy",
            "max error",
            "frames >20% err",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nframe-level: mean accuracy {:.1}%, max error {:.0}%, {:.1}% of frames over 20% error\n",
        r.frame_level.mean_accuracy * 100.0,
        r.frame_level.max_error * 100.0,
        r.frame_level.excursions_over_20pct * 100.0
    ));
    out.push_str("paper: 97% average accuracy, sporadic excursions up to 20-30%\n");

    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            size: 128,
            corpus_scale: 0.06,
            ..Default::default()
        }
    }

    #[test]
    fn evaluation_produces_pairs() {
        let (r, text) = run(&tiny());
        assert!(
            r.frame_level.count >= 5,
            "only {} frames",
            r.frame_level.count
        );
        assert!(!r.per_task.is_empty());
        assert!(text.contains("mean accuracy"));
    }

    #[test]
    fn accuracy_clearly_above_chance() {
        // even at tiny scale the one-step predictor should be far better
        // than nothing; the full-scale run approaches the paper's 97%.
        // Each run trains and scores on host timings, so judge the median
        // of five.
        let accuracies = crate::five_sorted(|| run(&tiny()).0.frame_level.mean_accuracy);
        assert!(accuracies[2] > 0.6, "frame accuracies {accuracies:?}");
    }
}
