//! The Triple-C facade: Computation, Cache-memory and
//! Communication-bandwidth prediction behind one interface.
//!
//! A trained [`TripleC`] instance answers, per frame and scenario: how
//! long will each task take (and the whole frame), how much memory does
//! each task need, and how much bus bandwidth will the frame consume —
//! the three resources the runtime manager plans with (Section 6).

use crate::bandwidth_model::{
    scenario_inter_task_bandwidth, scenario_intra_task_bandwidth, FRAME_RATE_HZ,
};
use crate::memory_model::{
    implementation_table, FrameGeometry, TaskMemory, RDG_DEFAULT_SCALES, ZOOM_OUT,
};
use crate::model::TaskModel;
use crate::predictor::{PredictContext, Prediction};
use crate::scenario::{Scenario, ScenarioChain};
use crate::snapshot::{Reader, SnapshotError, Writer};
use crate::training::{train_auto, ModelKind, TaskSeries};
use platform::arch::ArchModel;
use platform::task::Task;

/// Configuration of a Triple-C instance.
#[derive(Debug, Clone)]
pub struct TripleCConfig {
    /// Frame geometry.
    pub geometry: FrameGeometry,
}

impl Default for TripleCConfig {
    fn default() -> Self {
        Self {
            geometry: FrameGeometry::PAPER,
        }
    }
}

/// A complete resource prediction for one upcoming frame.
#[derive(Debug, Clone)]
pub struct FramePrediction {
    /// Scenario the prediction applies to.
    pub scenario: Scenario,
    /// Predicted per-task computation times, ms.
    pub task_times: Vec<(Task, f64)>,
    /// Predicted total (serial) computation time, ms.
    pub total_ms: f64,
    /// Predicted inter-task bandwidth, bytes/s.
    pub inter_task_bw: f64,
    /// Predicted intra-task (cache-overflow) bandwidth, bytes/s.
    pub intra_task_bw: f64,
}

/// The trained Triple-C prediction model.
///
/// ```
/// use triplec::{PredictContext, Scenario, Task, TaskSeries, TripleC, TripleCConfig};
/// let series = vec![
///     TaskSeries::new(Task::MkxExt, vec![2.5; 50]),
///     TaskSeries::new(Task::CplsSel, vec![1.0; 50]),
///     TaskSeries::new(Task::Reg, vec![2.0; 50]),
/// ];
/// let scenarios = vec![0u8; 50];
/// let model = TripleC::train(&series, &scenarios, TripleCConfig::default());
/// let ctx = PredictContext::default();
/// let frame_ms = model.predict_frame(Scenario::from_id(0), &ctx, 1.0).total_ms;
/// assert!((frame_ms - 5.5).abs() < 1e-9); // 2.5 + 1.0 + 2.0
/// let dist = model.predict_task(Task::Reg, &ctx).expect("trained task");
/// assert!(dist.p99_ms >= dist.mean_ms - 1e-9);
/// ```
///
/// A `clone()` is an independent copy: per-stream instances share
/// nothing, so one stream's online training never disturbs another's
/// predictions.
#[derive(Clone)]
pub struct TripleC {
    cfg: TripleCConfig,
    /// The model of each trained task, indexed by [`Task`] declaration
    /// order.
    predictors: [Option<TaskModel>; 9],
    scenario_chain: ScenarioChain,
}

/// Class tag of serialized facade bytes (as opposed to the per-task class
/// tags inside).
const TAG_FACADE: u8 = 0xF0;

impl TripleC {
    /// Trains the model from per-task profiled series and the observed
    /// scenario sequence.
    pub fn train(task_series: &[TaskSeries], scenario_sequence: &[u8], cfg: TripleCConfig) -> Self {
        let mut predictors: [Option<TaskModel>; 9] = Default::default();
        for s in task_series {
            if s.samples.is_empty() {
                continue;
            }
            predictors[s.task as usize] = Some(train_auto(s));
        }
        let scenario_chain = ScenarioChain::estimate(scenario_sequence);
        Self {
            cfg,
            predictors,
            scenario_chain,
        }
    }

    /// The trained tasks with their models, in Fig. 2 order.
    fn trained(&self) -> impl Iterator<Item = (Task, &TaskModel)> + '_ {
        let models = Task::ALL.into_iter().zip(&self.predictors);
        models.filter_map(|(task, model)| Some((task, model.as_ref()?)))
    }

    /// Predictive distribution of one task's computation time (`None`
    /// if untrained).
    pub fn predict_task(&self, task: Task, ctx: &PredictContext) -> Option<Prediction> {
        let model = self.predictors[task as usize].as_ref();
        model.map(|p| p.predict(ctx))
    }

    /// Feeds a measured execution time back into the task's predictor.
    /// Returns whether a trained predictor absorbed the observation.
    ///
    /// A predictor whose online-training switch is off ignores the
    /// observation entirely (and this returns `false`): a frozen model
    /// stays bit-identical no matter what it is shown, which keeps
    /// quantile-based plans — and the ledgers derived from them —
    /// deterministic across replays.
    pub fn observe_task(&mut self, task: Task, actual_ms: f64, ctx: &PredictContext) -> bool {
        match &mut self.predictors[task as usize] {
            Some(p) if p.online() => {
                p.observe(actual_ms, ctx);
                true
            }
            _ => false,
        }
    }

    /// Enables or disables online training on every task model (replaces
    /// the former per-predictor `with_online_training` construction-time
    /// plumbing with a runtime switch).
    pub fn set_online_training(&mut self, online: bool) {
        for p in self.predictors.iter_mut().flatten() {
            p.set_online(online);
        }
    }

    /// Whether any task model currently trains online.
    pub fn online_training(&self) -> bool {
        self.predictors.iter().flatten().any(TaskModel::online)
    }

    /// Serializes the mutable prediction state of every task model: one
    /// class-tagged payload per task, in name order, under a single
    /// validated stream header. The scenario chain and configuration are
    /// training-time constants and are not part of it.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut trained: Vec<(Task, &TaskModel)> = self.trained().collect();
        trained.sort_unstable_by_key(|(task, _)| task.name());
        let mut w = Writer::with_header();
        w.u8(TAG_FACADE);
        w.u32(trained.len() as u32);
        for (task, model) in trained {
            w.str(task.name());
            model.encode_tagged(&mut w);
        }
        w.finish()
    }

    /// Restores bytes from [`TripleC::snapshot_bytes`] of this model or a
    /// clone of it: predictions afterwards are bit-identical to those at
    /// snapshot time. Tasks absent from the bytes are left untouched.
    ///
    /// Every entry is checked against the live model before anything is
    /// assigned: an untrained task name, a predictor label other than the
    /// live one, or truncated or garbled bytes return
    /// [`SnapshotError::Corrupt`] or another decode error, and a class other
    /// than the live one [`SnapshotError::ClassMismatch`]. On `Err` the
    /// model is untouched. This never panics — the contract the runtime's
    /// model-quarantine recovery path depends on.
    pub fn try_restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = Reader::header(bytes)?;
        let tag = r.u8()?;
        if tag != TAG_FACADE {
            return Err(SnapshotError::BadClassTag(tag));
        }
        let count = r.u32()?;
        let mut restored: [Option<TaskModel>; 9] = Default::default();
        for _ in 0..count {
            // the one place a task name is parsed
            let name = r.str("facade task name")?;
            let trained = Task::ALL
                .into_iter()
                .find(|t| t.name() == name)
                .map(|t| (t, &self.predictors[t as usize]));
            let Some((task, Some(live))) = trained else {
                return Err(SnapshotError::Corrupt("untrained task in facade snapshot"));
            };
            let model = live.decode_tagged(&mut r)?;
            if restored[task as usize].replace(model).is_some() {
                return Err(SnapshotError::Corrupt("duplicate task in facade snapshot"));
            }
        }
        r.expect_end()?;
        for (live, new) in self.predictors.iter_mut().zip(restored) {
            if new.is_some() {
                *live = new;
            }
        }
        Ok(())
    }

    /// Full per-frame resource prediction. `total_ms` is the serial
    /// computation time under `scenario`; untrained tasks contribute zero.
    pub fn predict_frame(
        &self,
        scenario: Scenario,
        ctx: &PredictContext,
        roi_fraction: f64,
    ) -> FramePrediction {
        let task_times: Vec<(Task, f64)> = scenario
            .active_tasks()
            .into_iter()
            .map(|t| (t, self.predict_task(t, ctx).map_or(0.0, |p| p.mean_ms)))
            .collect();
        let total_ms = task_times.iter().map(|(_, t)| t).sum();
        FramePrediction {
            scenario,
            task_times,
            total_ms,
            inter_task_bw: scenario_inter_task_bandwidth(scenario, self.cfg.geometry, roi_fraction),
            intra_task_bw: scenario_intra_task_bandwidth(
                scenario,
                self.cfg.geometry,
                roi_fraction,
                ArchModel::default().l2.capacity,
                RDG_DEFAULT_SCALES.len(),
            ),
        }
    }

    /// Most likely next scenario from the scenario chain.
    pub fn predict_next_scenario(&self, current: Scenario) -> Scenario {
        self.scenario_chain.predict_next(current)
    }

    /// Most likely scenario of a stream's first frame, as a successor of
    /// `current`. A fresh stream holds no ROI and no reference frame, so
    /// ROI ESTIMATED and REG SUCCESSFUL are off and only switch 1 (RDG
    /// DETECTION, the content) is left to the chain. A tie goes to RDG on,
    /// the costlier frame.
    pub fn predict_first_scenario(&self, current: Scenario) -> Scenario {
        let fresh = |rdg_active| Scenario {
            rdg_active,
            roi_estimated: false,
            reg_successful: false,
        };
        let (off, on) = (fresh(false), fresh(true));
        if self.scenario_chain.prob(current, off) > self.scenario_chain.prob(current, on) {
            off
        } else {
            on
        }
    }

    /// Re-estimates the scenario chain from a recently observed
    /// scenario-id sequence.
    ///
    /// The chain is normally a training-time constant (it is excluded
    /// from snapshots for that reason), but under scenario storms the
    /// observed transition structure can drift so far from the training
    /// run that scenario prediction accuracy collapses. The recovery
    /// layer then quarantines the model and calls this with the recent
    /// actual-scenario window. Sequences shorter than two observations
    /// carry no transitions and are ignored (returns `false`).
    pub fn retrain_scenario_chain(&mut self, sequence: &[u8]) -> bool {
        if sequence.len() < 2 {
            return false;
        }
        self.scenario_chain = ScenarioChain::estimate(sequence);
        true
    }

    /// The memory requirement table of this implementation (Table 1).
    pub fn memory_table(&self) -> Vec<TaskMemory> {
        implementation_table(self.cfg.geometry, ZOOM_OUT)
    }

    /// Model summary per trained task, in Fig. 2 order (Table 2(b)).
    pub fn model_summary(&self) -> Vec<(Task, ModelKind, String)> {
        self.trained()
            .map(|(task, p)| (task, p.kind(), p.model_name()))
            .collect()
    }

    /// The application frame period, ms (30 Hz).
    pub fn frame_period_ms(&self) -> f64 {
        1000.0 / FRAME_RATE_HZ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn trained() -> TripleC {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let mut ar = 0.0f64;
        let rdg: Vec<f64> = (0..600)
            .map(|i| {
                ar = 0.85 * ar + rng.gen_range(-1.0..1.0);
                40.0 + 8.0 * (i as f64 / 90.0).sin() + 3.0 * ar
            })
            .collect();
        let series = vec![
            TaskSeries::new(Task::RdgFull, rdg),
            TaskSeries::new(Task::MkxExt, vec![2.5; 600]),
            TaskSeries::new(
                Task::CplsSel,
                (0..600).map(|i| 1.0 + 0.5 * ((i % 7) as f64)).collect(),
            ),
            TaskSeries::new(Task::Reg, vec![2.0; 600]),
            TaskSeries::new(Task::RoiEst, vec![1.0; 600]),
            TaskSeries::new(
                Task::GwExt,
                (0..600).map(|i| 3.0 + ((i % 5) as f64)).collect(),
            ),
            TaskSeries::new(Task::Enh, vec![24.0; 600]),
            TaskSeries::new(Task::Zoom, vec![12.5; 600]),
        ];
        let scenarios: Vec<u8> = (0..600).map(|i| if i % 50 < 40 { 7 } else { 5 }).collect();
        TripleC::train(&series, &scenarios, TripleCConfig::default())
    }

    #[test]
    fn constant_tasks_predict_their_constant() {
        let t = trained();
        let ctx = PredictContext::default();
        assert!((t.predict_task(Task::MkxExt, &ctx).unwrap().mean_ms - 2.5).abs() < 1e-9);
        assert!((t.predict_task(Task::Enh, &ctx).unwrap().mean_ms - 24.0).abs() < 1e-9);
        assert!(t.predict_task(Task::RdgRoi, &ctx).is_none());
    }

    #[test]
    fn frame_time_sums_active_tasks() {
        let t = trained();
        let ctx = PredictContext::default();
        let worst = t.predict_frame(Scenario::worst_case(), &ctx, 1.0).total_ms;
        let best = t.predict_frame(Scenario::best_case(), &ctx, 1.0).total_ms;
        assert!(worst > best + 30.0, "worst {worst} best {best}");
    }

    #[test]
    fn retrain_scenario_chain_replaces_transitions() {
        let mut t = trained();
        // training data dwells in 7 (runs of 40) — persistence predicts 7->7
        assert_eq!(t.predict_next_scenario(Scenario::from_id(7)).id(), 7);
        // too-short sequences are rejected and leave the chain untouched
        assert!(!t.retrain_scenario_chain(&[3]));
        assert_eq!(t.predict_next_scenario(Scenario::from_id(7)).id(), 7);
        // retrain on an alternating storm window: chain now predicts the swap
        assert!(t.retrain_scenario_chain(&[0, 7, 0, 7, 0, 7, 0, 7]));
        assert_eq!(t.predict_next_scenario(Scenario::from_id(7)).id(), 0);
        assert_eq!(t.predict_next_scenario(Scenario::from_id(0)).id(), 7);
    }

    #[test]
    fn first_scenario_leaves_only_switch_one_to_the_chain() {
        let mut t = trained();
        assert!(t.retrain_scenario_chain(&[7, 0, 7, 0, 7, 1]));
        assert_eq!(t.predict_first_scenario(Scenario::from_id(7)).id(), 0);
        // 7 -> 5 is the likeliest step, but a fresh stream cannot reach 5
        assert!(t.retrain_scenario_chain(&[7, 1, 7, 1, 7, 0, 7, 5, 7, 5, 7, 5]));
        assert_eq!(t.predict_next_scenario(Scenario::from_id(7)).id(), 5);
        assert_eq!(t.predict_first_scenario(Scenario::from_id(7)).id(), 1);
        // neither fresh scenario ever followed 5: RDG on
        assert_eq!(t.predict_first_scenario(Scenario::from_id(5)).id(), 1);
    }

    #[test]
    fn full_prediction_is_consistent() {
        let t = trained();
        let ctx = PredictContext::default();
        let p = t.predict_frame(Scenario::worst_case(), &ctx, 0.1);
        let sum: f64 = p.task_times.iter().map(|(_, v)| v).sum();
        assert!((sum - p.total_ms).abs() < 1e-9);
        assert!(p.inter_task_bw > 0.0);
        assert!(p.intra_task_bw > 0.0);
    }

    #[test]
    fn scenario_prediction_follows_training() {
        let t = trained();
        // training mostly stays in scenario 7
        let next = t.predict_next_scenario(Scenario::from_id(7));
        assert_eq!(next.id(), 7);
    }

    #[test]
    fn observe_updates_dynamic_predictors() {
        let mut t = trained();
        t.set_online_training(true);
        let ctx = PredictContext::default();
        for _ in 0..50 {
            t.observe_task(Task::RdgFull, 60.0, &ctx);
        }
        let p = t.predict_task(Task::RdgFull, &ctx).unwrap().mean_ms;
        assert!((p - 60.0).abs() < 6.0, "prediction {p} did not track 60 ms");
    }

    #[test]
    fn model_summary_covers_trained_tasks() {
        let t = trained();
        let summary = t.model_summary();
        assert_eq!(summary.len(), 8);
        let mkx = summary.iter().find(|(t, _, _)| *t == Task::MkxExt).unwrap();
        assert_eq!(mkx.1, ModelKind::Constant);
        let rdg = summary
            .iter()
            .find(|(t, _, _)| *t == Task::RdgFull)
            .unwrap();
        assert_eq!(rdg.1, ModelKind::EwmaMarkov);
    }

    #[test]
    fn frame_period_is_30hz() {
        let t = trained();
        assert!((t.frame_period_ms() - 33.333).abs() < 0.01);
    }

    #[test]
    fn cloned_model_is_independent() {
        let mut a = trained();
        a.set_online_training(true);
        let ctx = PredictContext::default();
        let mut b = a.clone();
        a.observe_task(Task::RdgFull, 50.0, &ctx);
        let before = a.predict_task(Task::RdgFull, &ctx).unwrap();
        for _ in 0..50 {
            b.observe_task(Task::RdgFull, 90.0, &ctx);
        }
        assert_eq!(
            a.predict_task(Task::RdgFull, &ctx).unwrap(),
            before,
            "training the clone disturbed the original"
        );
        assert!(b.predict_task(Task::RdgFull, &ctx).unwrap().mean_ms > before.mean_ms);
    }

    #[test]
    fn online_training_switch_reaches_all_tasks() {
        let mut t = trained();
        assert!(!t.online_training());
        t.set_online_training(true);
        assert!(t.online_training());
        t.set_online_training(false);
        assert!(!t.online_training());
    }

    #[test]
    fn observe_task_reports_trained_tasks() {
        let mut t = trained();
        let ctx = PredictContext::default();
        // a frozen model ignores observations (determinism guarantee)
        assert!(!t.observe_task(Task::RdgFull, 40.0, &ctx));
        t.set_online_training(true);
        assert!(t.observe_task(Task::RdgFull, 40.0, &ctx));
        assert!(!t.observe_task(Task::RdgRoi, 40.0, &ctx));
    }

    #[test]
    fn facade_byte_round_trip_is_bit_identical() {
        let mut t = trained();
        let ctx = PredictContext { roi_kpixels: 800.0 };
        t.set_online_training(true);
        for i in 0..20 {
            t.observe_task(Task::RdgFull, 40.0 + (i % 6) as f64, &ctx);
            t.observe_task(Task::CplsSel, 1.0 + (i % 3) as f64, &ctx);
        }
        let bytes = t.snapshot_bytes();
        let before: Vec<(Task, Option<Prediction>)> = Scenario::worst_case()
            .active_tasks()
            .into_iter()
            .map(|task| (task, t.predict_task(task, &ctx)))
            .collect();
        for _ in 0..60 {
            t.observe_task(Task::RdgFull, 95.0, &ctx);
            t.observe_task(Task::CplsSel, 9.0, &ctx);
        }
        t.try_restore_bytes(&bytes).unwrap();
        for (task, dist) in before {
            assert_eq!(
                t.predict_task(task, &ctx),
                dist,
                "{task} prediction differs after byte round trip"
            );
        }
    }

    #[test]
    fn facade_corrupt_bytes_never_panic_and_leave_model_untouched() {
        let mut t = trained();
        let ctx = PredictContext::default();
        let bytes = t.snapshot_bytes();
        let before = t.predict_task(Task::RdgFull, &ctx).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                t.try_restore_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} restored"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            t.try_restore_bytes(&extended),
            Err(SnapshotError::TrailingBytes(1))
        );
        // single-byte corruption of the payload either fails cleanly or
        // decodes to a *valid* (if different) model — never panics
        for i in 0..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0xA5;
            let _ = t.clone().try_restore_bytes(&garbled);
        }
        assert_eq!(t.predict_task(Task::RdgFull, &ctx).unwrap(), before);
    }
}
