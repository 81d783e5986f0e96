//! The model the snapshot suites share: a `TripleC` trained on one task of
//! each model class of Table 2(b), so its snapshot bytes carry a constant,
//! an Eq. 1 + Markov and an Eq. 3 + Markov payload.

#![allow(dead_code)] // each suite uses its own subset

use triple_c::triplec::predictor::PredictContext;
use triple_c::triplec::training::{ModelKind, TaskSeries};
use triple_c::triplec::triple::{TripleC, TripleCConfig};
use triple_c::triplec::Task;

/// Frames per training series.
const FRAMES: usize = 60;

/// The three tasks in snapshot (name) order, with the class each trains to.
pub const TASKS: [(Task, ModelKind); 3] = [
    (Task::MkxExt, ModelKind::Constant),
    (Task::RdgFull, ModelKind::EwmaMarkov),
    (Task::RdgRoi, ModelKind::LinearMarkov),
];

pub fn ctx(roi_kpixels: f64) -> PredictContext {
    PredictContext { roi_kpixels }
}

/// A flat series at `value_ms`.
pub fn constant_series(task: Task, value_ms: f64) -> TaskSeries {
    TaskSeries::new(task, vec![value_ms; FRAMES])
}

/// An oscillation with lag-1 autocorrelation ≈ 0.8, plus `jitter[i]` ms
/// on the first frames (|jitter| ≤ 0.5 keeps it autocorrelated).
pub fn autocorrelated_series(task: Task, jitter: &[f64]) -> TaskSeries {
    let samples = (0..FRAMES)
        .map(|i| 40.0 + 8.0 * (0.6 * i as f64).sin() + jitter.get(i).copied().unwrap_or(0.0))
        .collect();
    TaskSeries::new(task, samples)
}

/// `slope · roi + intercept` over ROIs of 50–640 kpx, plus `noise[i]` ms
/// on the first frames and a fixed ±0.3 ms wobble on the rest.
pub fn roi_line_series(task: Task, slope: f64, intercept: f64, noise: &[f64]) -> TaskSeries {
    let rois: Vec<f64> = (0..FRAMES).map(|i| 50.0 + 10.0 * i as f64).collect();
    let samples = rois
        .iter()
        .enumerate()
        .map(|(i, &roi)| {
            let e = noise
                .get(i)
                .copied()
                .unwrap_or_else(|| 0.3 * (1.3 * i as f64).sin());
            slope * roi + intercept + e
        })
        .collect();
    TaskSeries::with_roi(task, samples, rois)
}

/// `task`'s series with the default parameters of class `kind`.
pub fn series_of(task: Task, kind: ModelKind) -> TaskSeries {
    match kind {
        ModelKind::Constant => constant_series(task, 2.5),
        ModelKind::EwmaMarkov => autocorrelated_series(task, &[]),
        ModelKind::LinearMarkov => roi_line_series(task, 0.07, 20.0, &[]),
    }
}

fn train(series: &[TaskSeries]) -> TripleC {
    TripleC::train(series, &[1u8; FRAMES], TripleCConfig::default())
}

/// The three-class model with default series.
pub fn three_class_model() -> TripleC {
    train(&TASKS.map(|(task, kind)| series_of(task, kind)))
}

/// The three-class model with `replacement` as its task's series.
pub fn three_class_model_with(replacement: TaskSeries) -> TripleC {
    train(&TASKS.map(|(task, kind)| {
        if task == replacement.task {
            replacement.clone()
        } else {
            series_of(task, kind)
        }
    }))
}

/// The class training selected for `task`.
pub fn class_of(t: &TripleC, task: Task) -> Option<ModelKind> {
    t.model_summary()
        .into_iter()
        .find(|&(t, _, _)| t == task)
        .map(|(_, kind, _)| kind)
}

/// Every trained task's prediction at `roi_kpixels`, as bits.
pub fn prediction_bits(t: &TripleC, roi_kpixels: f64) -> Vec<u64> {
    t.model_summary()
        .iter()
        .flat_map(|&(task, _, _)| t.predict_task(task, &ctx(roi_kpixels)).unwrap().to_bits())
        .collect()
}

/// Byte offsets `[start, end)` of `task`'s entry (name and tagged
/// payload) in `TripleC::snapshot_bytes` of a model trained on
/// [`TASKS`]: entries are in name order, each led by its name's `u32`
/// length.
pub fn task_segment(bytes: &[u8], task: Task) -> (usize, usize) {
    let name_at = |name: &str| {
        bytes
            .windows(name.len())
            .position(|w| w == name.as_bytes())
            .expect("task name in snapshot bytes")
    };
    let i = TASKS.iter().position(|&(t, _)| t == task).unwrap();
    let start = name_at(task.name()) - 4;
    let end = TASKS
        .get(i + 1)
        .map_or(bytes.len(), |&(next, _)| name_at(next.name()) - 4);
    (start, end)
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
