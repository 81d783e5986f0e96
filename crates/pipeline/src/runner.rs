//! Sequence-level execution: profiling runs over synthetic sequences.
//!
//! A [`ProfileRun`] executes a whole sequence (or corpus) through the
//! pipeline, collecting the per-task computation-time series, ROI-size
//! covariates and scenario sequence that the Triple-C training consumes
//! (Section 7: "Computation time statistics are obtained by profiling the
//! executed application").

use crate::app::{AppConfig, AppState};
use crate::executor::{process_frame, ExecutionPolicy, FrameOutput};
use platform::task::Task;
use platform::trace::TraceLog;
use std::collections::BTreeMap;
use triplec::training::TaskSeries;
use xray::{SequenceConfig, SequenceGenerator};

/// Collected results of one or more profiled sequences.
#[derive(Debug, Default)]
pub struct ProfileRun {
    /// Per-frame execution records.
    pub trace: TraceLog,
    /// Per-task `(time_ms, roi_kpixels)` samples in frame order.
    pub samples: BTreeMap<Task, Vec<(f64, f64)>>,
    /// Scenario id per frame.
    pub scenarios: Vec<u8>,
}

impl ProfileRun {
    /// Empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one frame's output.
    pub fn absorb(&mut self, out: FrameOutput) {
        for &(task, ms) in &out.record.task_times {
            self.samples
                .entry(task)
                .or_default()
                .push((ms, out.roi_kpixels));
        }
        self.scenarios.push(out.scenario.id());
        self.trace.push(out.record);
    }

    /// Converts the collected samples into training series. Tasks whose
    /// cost is granularity-dependent (the RDG variants, and MKX EXT, which
    /// sweeps the full frame until a ROI is tracked) carry the ROI
    /// covariate.
    pub fn task_series(&self) -> Vec<TaskSeries> {
        self.samples
            .iter()
            .map(|(&task, samples)| {
                let (times, rois) = samples.iter().copied().unzip();
                match task {
                    Task::RdgFull | Task::RdgRoi | Task::MkxExt => {
                        TaskSeries::with_roi(task, times, rois)
                    }
                    _ => TaskSeries::new(task, times),
                }
            })
            .collect()
    }

    /// The time series of one task.
    pub fn series_of(&self, task: Task) -> Vec<f64> {
        self.samples
            .get(&task)
            .map(|s| s.iter().map(|&(t, _)| t).collect())
            .unwrap_or_default()
    }
}

/// Runs one sequence through the pipeline with a fixed policy.
pub fn run_sequence(cfg: SequenceConfig, app: &AppConfig, policy: &ExecutionPolicy) -> ProfileRun {
    let mut run = ProfileRun::new();
    let mut state = AppState::new(cfg.width, cfg.height);
    for frame in SequenceGenerator::new(cfg) {
        let out = process_frame(frame.index, &frame.image, &mut state, app, policy);
        run.absorb(out);
    }
    run
}

/// Runs a whole corpus (e.g. the 37-sequence training set), resetting the
/// pipeline state between sequences and concatenating the profiles.
pub fn run_corpus(
    corpus: Vec<SequenceConfig>,
    app: &AppConfig,
    policy: &ExecutionPolicy,
) -> ProfileRun {
    let mut run = ProfileRun::new();
    for cfg in corpus {
        let sub = run_sequence(cfg, app, policy);
        for (task, samples) in sub.samples {
            run.samples.entry(task).or_default().extend(samples);
        }
        run.scenarios.extend(sub.scenarios);
        run.trace.append(sub.trace);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use xray::NoiseConfig;

    fn small(seed: u64, frames: usize) -> SequenceConfig {
        SequenceConfig {
            width: 128,
            height: 128,
            frames,
            seed,
            noise: NoiseConfig {
                quantum_scale: 0.3,
                electronic_std: 2.0,
            },
            ..Default::default()
        }
    }

    #[test]
    fn profile_collects_all_frames() {
        let run = run_sequence(
            small(1, 8),
            &AppConfig::default(),
            &ExecutionPolicy::default(),
        );
        assert_eq!(run.trace.len(), 8);
        assert_eq!(run.scenarios.len(), 8);
        assert!(!run.samples.is_empty());
    }

    #[test]
    fn core_tasks_have_full_series() {
        let run = run_sequence(
            small(2, 8),
            &AppConfig::default(),
            &ExecutionPolicy::default(),
        );
        assert_eq!(run.series_of(Task::MkxExt).len(), 8);
        assert_eq!(run.series_of(Task::CplsSel).len(), 8);
    }

    #[test]
    fn task_series_carry_roi_covariates_for_rdg() {
        let run = run_sequence(
            small(3, 10),
            &AppConfig::default(),
            &ExecutionPolicy::default(),
        );
        let series = run.task_series();
        for s in &series {
            if matches!(s.task, Task::RdgFull | Task::RdgRoi | Task::MkxExt) {
                assert_eq!(s.roi_kpixels.len(), s.samples.len(), "{}", s.task);
            }
        }
    }

    #[test]
    fn corpus_run_concatenates() {
        let corpus = vec![small(4, 5), small(5, 5)];
        let run = run_corpus(corpus, &AppConfig::default(), &ExecutionPolicy::default());
        assert_eq!(run.trace.len(), 10);
        assert_eq!(run.scenarios.len(), 10);
        assert_eq!(run.series_of(Task::MkxExt).len(), 10);
    }
}
